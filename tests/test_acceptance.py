"""Acceptance suite: one test per criterion, tolerances pinned inline.

Each test prints a PASS line on success (visible with -s or in captured
output); a failing criterion fails its test.
"""

from __future__ import annotations

import time
from pathlib import Path
from random import Random

from sbo.crml import WireFormat, parse_crml, serialize_crml
from sbo.identifiers import ContactRecord, IdentifierKind as K, Profile, Strictness
from sbo.rules import DEFAULT_THRESHOLDS, evaluate_rule, parse_rule
from sbo.runner import run_scenario
from sbo.similarity import levenshtein, text_similarity

from .conftest import CANONICAL_TEXT, make_service
from .oracles import (
    fold_evaluate,
    levenshtein_matrix,
    near_word,
    random_ast,
    random_bag,
    random_document,
)
from .test_provider import _seed_random_state

SCENARIOS = Path(__file__).parent.parent / "scenarios"

FOUR_CLAUSE_RULE = ("(Full Name MATCHES AND Phone Number MATCHES) OR "
                "(Photograph MATCHES AND Gender MATCHES AND Location MATCHES) OR "
                "(Bio MATCHES AND Email Id MATCHES) OR "
                "(Username MATCHES AND Bio FUZZYMATCHES)")


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS - {text}")


def test_criterion_1_crml_round_trip():
    started = time.monotonic()
    rng = Random(1001)
    mismatches = 0
    for _ in range(1000):
        doc = random_document(rng)
        for fmt in WireFormat:
            first = serialize_crml(doc, fmt)
            reparsed = parse_crml(first, fmt)
            if reparsed != doc or serialize_crml(reparsed, fmt) != first:
                mismatches += 1
    assert mismatches == 0
    canonical = parse_crml(CANONICAL_TEXT, WireFormat.OBJECT)
    assert serialize_crml(canonical, WireFormat.OBJECT) == CANONICAL_TEXT
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"round-trip run took {elapsed:.1f}s"
    _report(1, f"1000 documents round-trip byte-stably in both encodings "
               f"({elapsed:.2f}s); canonical fixture re-serializes exactly")


def test_criterion_2_rule_engine_oracle_equivalence():
    rng = Random(2002)
    kinds = [K.USERNAME, K.AGE, K.PROFILE_IMAGE]
    disagreements = 0
    trials = 10_000
    for _ in range(trials):
        ast = random_ast(rng, rng.randint(0, 4), kinds)
        contact = ContactRecord("c-001", random_bag(rng, kinds))
        profile = Profile("p-001", random_bag(rng, kinds))
        level = rng.choice(list(Strictness))
        if evaluate_rule(ast, contact, profile, level).matched != \
                fold_evaluate(ast, contact, profile, level):
            disagreements += 1
    assert disagreements == 0

    ast = parse_rule(FOUR_CLAUSE_RULE)
    contact = ContactRecord("c-001", {
        K.FULL_NAME: "John Smith", K.PHONE_NUMBER: "15550100000",
        K.USERNAME: "jsmith", K.EMAIL_ID: "john.smith@example.com",
        K.BIODATA: "security researcher and cat lover"})
    profile = Profile("p-001", {K.USERNAME: "jsmith",
                                K.BIODATA: "security researcher and bat lover"})
    result = evaluate_rule(ast, contact, profile, Strictness.MEDIUM)
    assert result.matched
    # 2 + 3 + 2 + 2 predicates, every one traced (no short-circuit)
    assert len(result.trace) == 9
    assert all(o.kind is not None and o.op is not None for o in result.trace)
    _report(2, f"{trials} random (ast, contact, profile) triples agree with the "
               "fold oracle; four-clause example rule evaluates with a 9-entry trace")


def test_criterion_3_similarity_metric():
    rng = Random(3003)
    trials = 10_000
    for _ in range(trials):
        a = near_word(rng)
        b = near_word(rng)
        assert levenshtein(a, b) == levenshtein_matrix(a, b)
        sim = text_similarity(a, b)
        for strict, loose in ((Strictness.STRICT, Strictness.MEDIUM),
                              (Strictness.MEDIUM, Strictness.LENIENT)):
            if sim >= DEFAULT_THRESHOLDS.text_for(strict):
                assert sim >= DEFAULT_THRESHOLDS.text_for(loose)
    assert abs(text_similarity("kitten", "sitting") - (1 - 3 / 7)) <= 1e-9
    _report(3, f"{trials} random pairs match the DP oracle exactly; "
               "kitten/sitting = 1 - 3/7 within 1e-9; strictness monotone")


def test_criterion_4_provider_durability(tmp_path):
    rng = Random(4004)
    path = tmp_path / "durability.jsonl"
    service = make_service(path, snapshot_every=60)
    _seed_random_state(service, rng, mutations=500)
    accounts = sorted(service._accounts)
    digests = {name: service.export_with_digest(
        service.issue_token(name, f"secret-{name}").token)[1] for name in accounts}
    service.close()  # kill

    reborn = make_service(path, seed=777)
    for name in accounts:
        token = reborn.issue_token(name, f"secret-{name}").token
        assert reborn.export_with_digest(token)[1] == digests[name]
    _report(4, f"500 random mutations survive kill/restart: {len(accounts)} account "
               "digests identical")


def test_criterion_5_end_to_end_propagation():
    report = run_scenario(SCENARIOS / "block_once_enforced_everywhere.json")
    assert report.passed, report.to_json()
    latencies = {app: row["propagation_latency_seconds"]
                 for app, row in report.apps.items()}
    # Periodic(30) with ticks at 10/29/30: visible exactly at the first tick
    # with >= 30 s elapsed, i.e. within 30 s + one tick of the mutation.
    assert latencies["app-periodic"] == 30.0
    assert latencies["app-perrequest"] == 5.0   # next request
    assert latencies["app-onlogin"] == 12.0     # next login
    assert latencies["app-manual"] == 50.0      # never until triggered
    manual_events = [e for e in report.events
                     if e.get("app") == "app-manual" and e["type"] == "profile_appears"]
    assert [e["outcome"]["blocked"] for e in manual_events] == [False, True]
    login_events = [e for e in report.events if e["type"] == "login"]
    assert login_events and all(e["pass"] for e in login_events)
    assert login_events[0]["outcome"]["hidden_accounts"] == \
        ["alexandergrahambell@sbo.aws.com"]
    _report(5, "one block propagates to Periodic/OnLogin/PerRequest/Manual apps at "
               "policy-dictated times; symmetric enforcement holds both directions")


def test_criterion_6_priority_override():
    report = run_scenario(SCENARIOS / "priority_override.json")
    assert report.passed, report.to_json()
    refreshes = [e for e in report.events if e["type"] == "manual_refresh"]
    used = [e["outcome"]["methods"]["sbo.aws.com/alexandergrahambell"]
            for e in refreshes]
    assert used == ["SsoDelegated", "Direct"]
    _report(6, "SSO rank 1 wins while the broker is up; client falls back to "
               "Direct when the SSO broker is disabled")


def test_criterion_7_multi_provider_union():
    report = run_scenario(SCENARIOS / "multi_provider_union.json")
    assert report.passed, report.to_json()
    checks = [e for e in report.events if e["type"] == "profile_appears"]
    assert [e["outcome"]["blocked"] for e in checks] == [True, False, False]
    _report(7, "profile blocked only at provider B is blocked with A+B configured, "
               "not with A alone, and unblocks when B's config is removed")


def test_full_provider_export_is_stable_across_restart(tmp_path):
    """Support check for criterion 4: byte-equal export, not just digest."""
    path = tmp_path / "stability.jsonl"
    service = make_service(path)
    service.create_account("bell", "pw")
    token = service.issue_token("bell", "pw").token
    service.create_block_list(token, "Block List 1", Strictness.MEDIUM)
    service.add_contact(token, "Block List 1", {"EmailId": "m@example.com"})
    before = serialize_crml(service.export_crml(token), WireFormat.OBJECT)
    service.close()
    reborn = make_service(path)
    token = reborn.issue_token("bell", "pw").token
    after = serialize_crml(reborn.export_crml(token), WireFormat.OBJECT)
    assert after == before
