from __future__ import annotations

import errno
import hashlib
import json
import os
import re
import stat
import sys
import tempfile
import threading
from datetime import timedelta
from pathlib import Path
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import sbo.provider
from sbo.crml import WireFormat, serialize_crml
from sbo.errors import (
    ConflictError,
    NotFoundError,
    RuleError,
    StoreError,
    UnauthorizedError,
    ValidationError,
)
from sbo.http_api import ProviderApi
from sbo.identifiers import IdentifierKind, Strictness
from sbo.provider import ProviderService
from sbo.restclient import ProviderRestClient
from sbo.rules import default_rule, render_rule
from sbo.transport import ApiRequest, HttpTransport

from .conftest import (
    CANONICAL_RULE,
    CANONICAL_TEXT,
    FIXED_TIME,
    break_one_field,
    make_service,
    serving,
)

# the canonical document after provider-side normalization of contact values
CANONICAL_EXPORT = CANONICAL_TEXT.replace('"John Smith"', '"john smith"')


def test_create_account_and_issue_token(service):
    assert service.create_account("alexandergrahambell", "s3cret") == "alexandergrahambell"
    grant = service.issue_token("alexandergrahambell", "s3cret")
    assert len(grant.token) == 32 and set(grant.token) <= set("0123456789abcdef")
    assert grant.expires_at == FIXED_TIME + timedelta(seconds=3600)


def test_create_account_conflict(service):
    service.create_account("bell", "x")
    with pytest.raises(ConflictError):
        service.create_account("bell", "y")


def test_issue_token_wrong_secret(service):
    service.create_account("bell", "x")
    with pytest.raises(UnauthorizedError):
        service.issue_token("bell", "wrong")
    with pytest.raises(UnauthorizedError):
        service.issue_token("nobody", "x")


def test_token_expiry():
    current = {"now": FIXED_TIME}
    service = ProviderService("sbo.aws.com", clock=lambda: current["now"],
                              token_rng=Random(1))
    service.create_account("bell", "x")
    token = service.issue_token("bell", "x").token
    service.create_block_list(token, "L1", Strictness.MEDIUM)
    current["now"] = FIXED_TIME + timedelta(seconds=3601)
    with pytest.raises(UnauthorizedError):
        service.create_block_list(token, "L2", Strictness.MEDIUM)


def test_token_table_drops_expired_grants():
    current = {"now": FIXED_TIME}
    service = make_service(clock=lambda: current["now"], token_ttl_seconds=60,
                           pbkdf2_iterations=1)
    service.create_account("bell", "x")
    for _ in range(500):
        service.issue_token("bell", "x")
        current["now"] += timedelta(seconds=10)
    assert len(service._tokens) <= 7  # the 6 unexpired grants, and no more than one stale


def test_create_block_list_fills_default_rule(service):
    service.create_account("bell", "x")
    token = service.issue_token("bell", "x").token
    record = service.create_block_list(token, "Block List 1", Strictness.MEDIUM)
    assert record.rule_text == render_rule(default_rule())


def test_create_block_list_rejects_bad_rule_atomically(service):
    service.create_account("bell", "x")
    token = service.issue_token("bell", "x").token
    with pytest.raises(RuleError):
        service.create_block_list(token, "L", Strictness.MEDIUM, "FullName NONSENSE")
    # list must not exist afterwards
    service.create_block_list(token, "L", Strictness.MEDIUM)


def test_create_block_list_conflict(service):
    service.create_account("bell", "x")
    token = service.issue_token("bell", "x").token
    service.create_block_list(token, "L", Strictness.MEDIUM)
    with pytest.raises(ConflictError):
        service.create_block_list(token, "L", Strictness.STRICT)


def test_add_contact_normalizes_and_counts(service):
    service.create_account("bell", "x")
    token = service.issue_token("bell", "x").token
    service.create_block_list(token, "L", Strictness.MEDIUM)
    first = service.add_contact(token, "L", {"EmailId": "John.Smith@Example.com"})
    assert first.contact_id == "c-001"
    assert first.identifiers[IdentifierKind.EMAIL_ID] == "john.smith@example.com"
    second = service.add_contact(token, "L", {"Username": "X"})
    assert second.contact_id == "c-002"


def test_contact_ids_stay_monotonic_after_removal(service):
    service.create_account("bell", "x")
    token = service.issue_token("bell", "x").token
    service.create_block_list(token, "L", Strictness.MEDIUM)
    service.add_contact(token, "L", {"Username": "a"})
    service.remove_contact(token, "L", "c-001")
    assert service.add_contact(token, "L", {"Username": "b"}).contact_id == "c-002"


def test_add_contact_validation(service):
    service.create_account("bell", "x")
    token = service.issue_token("bell", "x").token
    service.create_block_list(token, "L", Strictness.MEDIUM)
    with pytest.raises(ValidationError):
        service.add_contact(token, "L", {})
    with pytest.raises(ValidationError):
        service.add_contact(token, "L", {"ShoeSize": "42"})
    with pytest.raises(ValidationError):
        service.add_contact(token, "L", {"Age": "old"})
    with pytest.raises(NotFoundError):
        service.add_contact(token, "missing", {"Username": "a"})


def test_remove_contact_not_found(service):
    service.create_account("bell", "x")
    token = service.issue_token("bell", "x").token
    service.create_block_list(token, "L", Strictness.MEDIUM)
    with pytest.raises(NotFoundError):
        service.remove_contact(token, "L", "c-404")


def test_set_rule_accepts_four_clause_rule_with_aliases(service):
    service.create_account("bell", "x")
    token = service.issue_token("bell", "x").token
    service.create_block_list(token, "L", Strictness.MEDIUM)
    service.set_rule(token, "L", "(Full Name MATCHES AND Phone Number MATCHES) OR "
                                 "(Photograph MATCHES AND Gender MATCHES AND "
                                 "Location MATCHES) OR "
                                 "(Bio MATCHES AND Email Id MATCHES) OR "
                                 "(Username MATCHES AND Bio FUZZYMATCHES)")
    doc = service.export_crml(token)
    # transported as source; aliases resolve at parse time
    from sbo.rules import parse_rule
    ast = parse_rule(doc.block_lists[0].rule_text)
    assert "ProfileImage MATCHES" in render_rule(ast)
    assert "Biodata MATCHES" in render_rule(ast)


def test_export_matches_canonical_fixture(canonical_provider):
    service, _rest, token = canonical_provider
    doc = service.export_crml(token)
    assert serialize_crml(doc, WireFormat.OBJECT) == CANONICAL_EXPORT


def test_canonical_etag_is_pinned(canonical_provider):
    """Deployed apps hold this ETag; a change to the digest payload would cost them their 304s."""
    service, _rest, token = canonical_provider
    assert service.export_with_digest(token)[1] == \
        "04969974d2627f6fa1a7d2cfef37aa6d7a2f1e70d68d4f5460d9476f24869fae"


def test_export_unknown_list(canonical_provider):
    service, _rest, token = canonical_provider
    with pytest.raises(NotFoundError):
        service.export_crml(token, ["nope"])


def test_export_subset_and_digest(service):
    service.create_account("bell", "x")
    token = service.issue_token("bell", "x").token
    service.create_block_list(token, "A", Strictness.MEDIUM)
    service.create_block_list(token, "B", Strictness.MEDIUM)
    doc = service.export_crml(token, ["B"])
    assert [bl.name for bl in doc.block_lists] == ["B"]
    assert service.export_with_digest(token, ["B"])[1] != service.export_with_digest(token)[1]
    # subset digest is stable under query order
    service_digest = service.export_with_digest(token, ["B", "A"])[1]
    assert service_digest == service.export_with_digest(token, ["A", "B"])[1]


def test_every_mutation_changes_digest(service):
    service.create_account("bell", "x")
    token = service.issue_token("bell", "x").token
    service.create_block_list(token, "L", Strictness.MEDIUM)
    seen = {service.export_with_digest(token)[1]}
    service.create_block_list(token, "M", Strictness.MEDIUM)
    seen.add(service.export_with_digest(token)[1])
    service.add_contact(token, "L", {"Username": "a"})
    seen.add(service.export_with_digest(token)[1])
    rule = "EmailId EQUALS"
    service.set_rule(token, "L", rule)
    seen.add(service.export_with_digest(token)[1])
    service.set_rule(token, "L", rule)  # content-identical mutation still counts
    seen.add(service.export_with_digest(token)[1])
    service.remove_contact(token, "L", "c-001")
    seen.add(service.export_with_digest(token)[1])
    assert len(seen) == 6


def test_token_scoping_is_exhaustive(service):
    names = ["alpha", "beta", "gamma"]
    tokens = {}
    for name in names:
        service.create_account(name, f"secret-{name}")
        tokens[name] = service.issue_token(name, f"secret-{name}").token
        service.create_block_list(tokens[name], "L", Strictness.MEDIUM,
                                  account_name=name)
    for owner in names:
        for other in names:
            if owner == other:
                service.export_crml(tokens[owner], account_name=other)
                continue
            with pytest.raises(UnauthorizedError):
                service.export_crml(tokens[owner], account_name=other)
            with pytest.raises(UnauthorizedError):
                service.add_contact(tokens[owner], "L", {"Username": "x"},
                                    account_name=other)


def test_blocked_by_exact_email_under_default_rule(service):
    service.create_account("alexandergrahambell", "s3cret")
    token = service.issue_token("alexandergrahambell", "s3cret").token
    service.create_block_list(token, "Block List 1", Strictness.MEDIUM)  # default rule
    service.add_contact(token, "Block List 1", {
        "FullName": "John Smith", "PhoneNumber": "15550100000",
        "Username": "jsmith", "EmailId": "john.smith@example.com"})
    assert service.blocked_by({"EmailId": "john.smith@example.com"}) == \
        [("alexandergrahambell", "Block List 1")]
    assert service.blocked_by({"EmailId": "someone.else@example.com"}) == []


def test_blocked_by_unrelated_identifiers(canonical_provider):
    service, _rest, _token = canonical_provider
    assert service.blocked_by({"Gender": "male", "Location": "nowhere"}) == []


def test_blocked_by_fuzzy_clause(service):
    service.create_account("alexandergrahambell", "s3cret")
    token = service.issue_token("alexandergrahambell", "s3cret").token
    service.create_block_list(token, "Block List 1", Strictness.MEDIUM, CANONICAL_RULE)
    service.add_contact(token, "Block List 1", {
        "FullName": "John Smith", "PhoneNumber": "15550100000",
        "Username": "jsmith", "EmailId": "john.smith@example.com",
        "Biodata": "security researcher and cat lover"})
    # username exact, biodata one edit off; clause 2 is Username MATCHES AND
    # Biodata FUZZYMATCHES, so this matches at any list strictness
    answer = service.blocked_by({"Username": "jsmith",
                                 "Biodata": "security researcher and bat lover"})
    assert answer == [("alexandergrahambell", "Block List 1")]


def test_blocked_by_rejects_unknown_kind(service):
    with pytest.raises(ValidationError):
        service.blocked_by({"ShoeSize": "42"})


def test_durability_kill_and_restart(tmp_path):
    rng = Random(7)
    path = tmp_path / "sbo.jsonl"
    service = make_service(path, snapshot_every=40)
    _seed_random_state(service, rng, mutations=500)
    accounts = sorted(a for a in service._accounts)
    tokens = {a: service.issue_token(a, f"secret-{a}").token for a in accounts}
    digests_before = {a: service.export_with_digest(tokens[a])[1] for a in accounts}
    exports_before = {
        a: serialize_crml(service.export_crml(tokens[a]), WireFormat.OBJECT)
        for a in accounts
    }
    service.close()  # kill

    reborn = make_service(path, seed=99)
    for account in accounts:
        token = reborn.issue_token(account, f"secret-{account}").token
        assert reborn.export_with_digest(token)[1] == digests_before[account]
        assert serialize_crml(reborn.export_crml(token), WireFormat.OBJECT) == \
            exports_before[account]
    reborn.close()


def test_restart_tolerates_torn_final_write(tmp_path):
    path = tmp_path / "sbo.jsonl"
    service = make_service(path)
    service.create_account("bell", "x")
    token = service.issue_token("bell", "x").token
    service.create_block_list(token, "L", Strictness.MEDIUM)
    service.close()
    with open(path, "a", encoding="utf-8") as f:
        f.write('{"kind":"add_contact","at":"2025-01-01T00:00:0')  # torn write
    reborn = make_service(path)
    token = reborn.issue_token("bell", "x").token
    assert [bl.name for bl in reborn.export_crml(token).block_lists] == ["L"]
    # writes acknowledged after the torn one must survive every later boot
    for username in ("first", "second"):
        reborn.add_contact(token, "L", {"Username": username})
        reborn.close()
        reborn = make_service(path)
        token = reborn.issue_token("bell", "x").token
    contacts = reborn.export_crml(token).block_lists[0].contacts
    reborn.close()
    assert [c.identifiers[IdentifierKind.USERNAME] for c in contacts] == ["first", "second"]


def test_concurrent_exports_see_committed_snapshots_only(service):
    """Readers hammering export and blocked_by while a writer mutates see only committed state."""
    service.create_account("bell", "x")
    token = service.issue_token("bell", "x").token
    service.create_block_list(token, "L", Strictness.MEDIUM)
    service.add_contact(token, "L", {"EmailId": "anchor@example.com", "Username": "anchor"})
    stop = threading.Event()
    problems: list[str] = []

    def writer():
        for i in range(150):
            created = service.add_contact(token, "L", {
                "EmailId": f"u{i}@example.com", "Username": f"user{i}"})
            if i % 3 == 0:
                service.remove_contact(token, "L", created.contact_id)
        stop.set()

    def reader():
        while not stop.is_set():
            doc, _digest = service.export_with_digest(token)
            for contact in doc.block_lists[0].contacts:
                if len(contact.identifiers) != 2:  # every committed contact has both
                    problems.append(f"torn contact {contact.contact_id}")

    def lookup():
        while not stop.is_set():
            if service.blocked_by({"EmailId": "anchor@example.com"}) != [("bell", "L")]:
                problems.append("the anchor contact went missing")
            if service.blocked_by({"EmailId": "nobody@example.com"}) != []:
                problems.append("a stranger was blocked")

    threads = [threading.Thread(target=writer)] + \
              [threading.Thread(target=reader) for _ in range(3)] + \
              [threading.Thread(target=lookup) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert problems == []


def test_exported_identifiers_cannot_be_changed(service):
    service.create_account("bell", "x")
    token = service.issue_token("bell", "x").token
    service.create_block_list(token, "L", Strictness.MEDIUM)
    added = service.add_contact(token, "L", {"EmailId": "a@example.com"})
    before = serialize_crml(service.export_crml(token), WireFormat.OBJECT)
    exported = service.export_crml(token).block_lists[0].contacts[0]
    for contact in (added, exported):
        with pytest.raises(TypeError):
            contact.identifiers[IdentifierKind.EMAIL_ID] = "b@example.com"
    assert serialize_crml(service.export_crml(token), WireFormat.OBJECT) == before


def _failing_once(real, error: int):
    """A stand-in for an os function whose first call raises error and the rest pass through."""
    calls = []

    def fake(*args):
        calls.append(args)
        if len(calls) == 1:
            raise OSError(error, os.strerror(error))
        return real(*args)

    return fake


def _add_over_api(api: ProviderApi, token: str, email: str):
    return api.handle(ApiRequest(
        "POST", "/v1/accounts/bell/blocklists/L/contacts", {"Authorization": f"Bearer {token}"},
        json.dumps({"identifiers": {"EmailId": email}}).encode()))


def _emails(service: ProviderService, token: str) -> list[str]:
    return [c.identifiers[IdentifierKind.EMAIL_ID]
            for c in service.export_crml(token).block_lists[0].contacts]


def test_a_write_whose_fsync_fails_is_refused_and_never_published(monkeypatch, tmp_path):
    path = tmp_path / "sbo.jsonl"
    service = make_service(path, pbkdf2_iterations=1)
    api = ProviderApi(service)
    service.create_account("bell", "x")
    token = service.issue_token("bell", "x").token
    service.create_block_list(token, "L", Strictness.MEDIUM, "EmailId EQUALS")
    assert _add_over_api(api, token, "kept@example.com").status == 201
    doc, etag = service.export_with_digest(token)

    monkeypatch.setattr(os, "fsync", _failing_once(os.fsync, errno.EIO))
    resp = _add_over_api(api, token, "lost@example.com")
    assert resp.status == 503 and resp.json()["code"] == "StoreUnavailable"
    assert service.export_with_digest(token) == (doc, etag)
    assert service.blocked_by({"EmailId": "lost@example.com"}) == []
    # the file might still hold the failed record, so no later write may follow it
    assert _add_over_api(api, token, "later@example.com").status == 503
    service.close()

    reborn = make_service(path, pbkdf2_iterations=1)
    token = reborn.issue_token("bell", "x").token
    assert _emails(reborn, token) == ["kept@example.com"]
    assert reborn.export_with_digest(token)[1] == etag
    reborn.close()


def test_a_closed_durable_provider_refuses_writes(tmp_path):
    service = make_service(tmp_path / "sbo.jsonl", pbkdf2_iterations=1)
    service.create_account("bell", "x")
    token = service.issue_token("bell", "x").token
    service.create_block_list(token, "L", Strictness.MEDIUM)
    service.close()
    with pytest.raises(StoreError, match="closed"):
        service.add_contact(token, "L", {"EmailId": "a@example.com"})
    assert service.export_crml(token).block_lists[0].contacts == ()


def test_a_failed_compaction_keeps_the_write_and_the_live_log(monkeypatch, tmp_path):
    path = tmp_path / "sbo.jsonl"
    tmp = tmp_path / "sbo.jsonl.tmp"
    service = make_service(path, snapshot_every=4, pbkdf2_iterations=1)
    service.create_account("bell", "x")
    token = service.issue_token("bell", "x").token
    service.create_block_list(token, "L", Strictness.MEDIUM)
    service.add_contact(token, "L", {"EmailId": "a@example.com"})
    monkeypatch.setattr(os, "replace", _failing_once(os.replace, errno.ENOSPC))
    # the fourth mutation is due to compact, and its rename fails
    service.add_contact(token, "L", {"EmailId": "b@example.com"})
    assert not tmp.exists()
    assert path.read_bytes().count(b"\n") == 4  # still the live log, not a snapshot
    service.add_contact(token, "L", {"EmailId": "c@example.com"})  # compacts this time
    assert path.read_bytes().count(b"\n") == 1
    service.add_contact(token, "L", {"EmailId": "d@example.com"})
    service.close()

    tmp.write_text('{"kind":"snapshot","state":{"accounts":[]}}\n')  # left by a crash
    reborn = make_service(path, pbkdf2_iterations=1)
    assert not tmp.exists()
    token = reborn.issue_token("bell", "x").token
    assert _emails(reborn, token) == [f"{c}@example.com" for c in "abcd"]
    reborn.close()


def test_a_compaction_whose_directory_sync_fails_keeps_the_write_and_refuses_the_next(
        monkeypatch, tmp_path):
    path = tmp_path / "sbo.jsonl"
    service = make_service(path, snapshot_every=3, pbkdf2_iterations=1)
    service.create_account("bell", "x")
    token = service.issue_token("bell", "x").token
    service.create_block_list(token, "L", Strictness.MEDIUM)
    fsync = os.fsync

    def fsync_failing_on_directories(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync_failing_on_directories)
    # the third mutation compacts: its rename happened, but may not last a crash
    service.add_contact(token, "L", {"EmailId": "a@example.com"})
    with pytest.raises(StoreError):
        service.add_contact(token, "L", {"EmailId": "b@example.com"})
    service.close()
    monkeypatch.undo()
    reborn = make_service(path, pbkdf2_iterations=1)
    assert _emails(reborn, reborn.issue_token("bell", "x").token) == ["a@example.com"]
    reborn.close()


@pytest.mark.parametrize("corrupt, reason", [
    pytest.param('{"kind":"add_contact","at":', "JSONDecodeError", id="bad-json"),
    pytest.param('{"kind":"add_contact","at":"2025-01-01T00:00:00Z","account":"bell"}',
                 "KeyError", id="missing-field"),
    pytest.param('{"kind":"rename_list","at":"2025-01-01T00:00:00Z","account":"bell","list":"L"}',
                 "unknown log record kind", id="unknown-kind"),
    pytest.param('{"kind":"create_account","at":"2025-01-01T00:00:00Z","account":"eve",'
                 '"salt":"00","credential_hash":"00","iterations":"x"}',
                 "iterations must be an integer", id="string-iterations"),
    pytest.param('{"kind":"create_block_list","at":"2025-01-01T00:00:00Z","account":"bell",'
                 '"name":"M","strictness":"Medium","rule_text":"((("}',
                 "RuleError", id="bad-rule-text"),
    pytest.param("[" * 100_000, "RecursionError", id="deep-nesting"),
])
def test_boot_refuses_a_corrupt_record_by_its_line(tmp_path, corrupt, reason):
    path = tmp_path / "sbo.jsonl"
    service = make_service(path, pbkdf2_iterations=1)
    service.create_account("bell", "x")
    token = service.issue_token("bell", "x").token
    service.create_block_list(token, "L", Strictness.MEDIUM)
    service.add_contact(token, "L", {"EmailId": "a@example.com"})
    service.close()
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:2] + [corrupt + "\n"] + lines[2:]))
    with pytest.raises(StoreError, match=f"line 3: corrupt record .*{reason}"):
        make_service(path)


@pytest.mark.parametrize("field, value, reason", [
    ("revision", "x", "revision must be an integer"),
    ("iterations", 0, "iterations must be an integer"),
    ("rule_text", "", "RuleError"),
    # c-001 is held: the next add_contact would reuse its id
    ("next_contact_seq", 1, "next_contact_seq 1 is not above"),
])
def test_boot_refuses_a_snapshot_field_the_live_path_never_writes(tmp_path, field, value,
                                                                   reason):
    path = tmp_path / "sbo.jsonl"
    service = make_service(path, snapshot_every=3, pbkdf2_iterations=1)
    service.create_account("bell", "x")
    token = service.issue_token("bell", "x").token
    service.create_block_list(token, "L", Strictness.MEDIUM)
    service.add_contact(token, "L", {"EmailId": "a@example.com"})  # compacts
    service.close()
    snapshot = json.loads(path.read_text())
    account = snapshot["state"]["accounts"][0]
    (account if field == "iterations" else account["lists"][0])[field] = value
    path.write_text(json.dumps(snapshot) + "\n")
    with pytest.raises(StoreError, match=f"line 1: corrupt record .*{reason}"):
        make_service(path)


def _one_iteration_pbkdf2(secret: str, salt: bytes, iterations: int) -> bytes:
    """PBKDF2 at one iteration that refuses an iteration count PBKDF2 itself would refuse."""
    return hashlib.pbkdf2_hmac("sha256", secret.encode("utf-8"), salt, min(iterations, 1))


def _write_valid_data_file(path: Path) -> list[bytes]:
    """A data file of one snapshot and the records after it; returns its lines.

    The records after the snapshot change list L and leave list M as the snapshot holds it.
    """
    service = make_service(path, snapshot_every=6)
    service.create_account("bell", "x")
    bell = service.issue_token("bell", "x").token
    service.create_block_list(bell, "L", Strictness.MEDIUM,
                              "Age GREATERTHAN 17 OR Username MATCHES")
    service.add_contact(bell, "L", {"Username": "mallory", "Age": "30"})
    service.add_contact(bell, "L", {"ProfileImage": {"phash64": "00ff00ff00ff00ff"},
                                    "EmailId": "m@example.com"})
    service.create_block_list(bell, "M", Strictness.STRICT)
    service.add_contact(bell, "M", {"EmailId": "t@example.com"})  # the sixth mutation compacts
    service.create_account("eve", "y")
    eve = service.issue_token("eve", "y").token
    service.create_block_list(eve, "E", Strictness.LENIENT, "FullName FUZZYMATCHES")
    service.add_contact(eve, "E", {"FullName": "Trudy Jones"})
    service.remove_contact(bell, "L", "c-001")
    service.set_rule(bell, "L", "EmailId EQUALS OR Age GREATERTHAN 60")
    service.close()
    return path.read_bytes().splitlines(keepends=True)


_ACCOUNTS = {"bell": ("x", ("L", "M")), "eve": ("y", ("E",))}
_QUERIES = [{"Username": "mallory", "Age": "18"}, {"EmailId": "t@example.com", "Age": "61"},
            {"ProfileImage": {"phash64": "00ff00ff00ff00fe"}}, {"FullName": "trudy jonez"}]


def _answer_every_route(service: ProviderService) -> list[int]:
    """Drive each route of the REST surface over the accounts and lists of the data file."""
    api = ProviderApi(service)

    def call(method, path, payload=None, token=None):
        headers = {"Authorization": f"Bearer {token}"} if token else {}
        body = b"" if payload is None else json.dumps(payload).encode()
        return api.handle(ApiRequest(method, path, headers, body))

    answers = [call("POST", "/v1/blocked-by", {"identifiers": query}) for query in _QUERIES]
    answers.append(call("POST", "/v1/accounts", {"account_name": "zed", "secret": "z"}))
    for account, (secret, lists) in _ACCOUNTS.items():
        granted = call("POST", "/v1/tokens", {"account_name": account, "secret": secret})
        token = granted.json().get("token", "none")
        base = f"/v1/accounts/{account}"
        answers += [granted, call("GET", f"{base}/crml", token=token),
                    call("GET", f"{base}/crml?lists={','.join(lists)}", token=token),
                    call("POST", f"{base}/blocklists",
                         {"name": "N", "strictness": "Medium"}, token)]
        for name in lists:
            answers += [
                call("POST", f"{base}/blocklists/{name}/contacts",
                     {"identifiers": {"Username": "oscar", "Age": "40"}}, token),
                call("DELETE", f"{base}/blocklists/{name}/contacts/c-002", token=token),
                call("PUT", f"{base}/blocklists/{name}/rule", {"rule_text": "Age MATCHES"},
                     token)]
    return [answer.status for answer in answers]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_boot_of_a_broken_data_file_refuses_its_line_or_serves_every_route(data):
    # a drawn iteration count could be up to 10**12: the real PBKDF2 would run for days
    with mock.patch.object(ProviderService, "_hash_secret",
                           staticmethod(_one_iteration_pbkdf2)), \
            tempfile.TemporaryDirectory(prefix="sbo-boot-") as tmp:
        path = Path(tmp) / "sbo.jsonl"
        lines = _write_valid_data_file(path)
        assert json.loads(lines[0])["kind"] == "snapshot" and len(lines) > 1
        number = data.draw(st.integers(1, len(lines)))
        broken = break_one_field(data, json.loads(lines[number - 1]))
        lines[number - 1] = (json.dumps(broken, separators=(",", ":")) + "\n").encode()
        path.write_bytes(b"".join(lines))
        try:
            service = make_service(path)
        except StoreError as exc:
            # a later line may be the first one that depends on the broken field
            assert int(re.search(r" line (\d+): ", str(exc))[1]) >= number
            return
        try:
            assert all(status < 500 for status in _answer_every_route(service))
        finally:
            service.close()


def test_boot_refuses_a_data_file_it_cannot_open(tmp_path):
    with pytest.raises(StoreError, match="cannot open the data file"):
        make_service(tmp_path / "missing" / "sbo.jsonl")


@pytest.mark.parametrize("ttl", [0, 10**9 + 1, 10**12])
def test_token_ttl_outside_one_to_a_billion_seconds_is_refused(ttl):
    # 10**12 s put every token's expiry past the last datetime: OverflowError on login
    with pytest.raises(ValueError, match="token_ttl_seconds"):
        make_service(token_ttl_seconds=ttl)
    longest = make_service(token_ttl_seconds=10**9, pbkdf2_iterations=1)
    longest.create_account("bell", "x")
    assert longest.issue_token("bell", "x").expires_at == FIXED_TIME + timedelta(seconds=10**9)


def _in_thread(fn, *args) -> tuple[threading.Thread, list]:
    """Start ``fn(*args)`` on a thread; the list receives its result or its exception."""
    outcome: list = []

    def run():
        try:
            outcome.append(fn(*args))
        except Exception as exc:  # handed to the test through ``outcome``
            outcome.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    return thread, outcome


@pytest.mark.parametrize("login, account", [("issue_token", "bell"), ("create_account", "eve")])
def test_a_write_completes_while_a_login_hashes(monkeypatch, login, account):
    service = make_service(pbkdf2_iterations=1)
    service.create_account("bell", "x")
    token = service.issue_token("bell", "x").token
    service.create_block_list(token, "L", Strictness.MEDIUM)
    hashing, release = threading.Event(), threading.Event()
    hash_secret = service._hash_secret

    def blocked_hash(secret, salt, iterations):
        hashing.set()
        release.wait(10)
        return hash_secret(secret, salt, iterations)

    monkeypatch.setattr(service, "_hash_secret", blocked_hash)
    hasher, _ = _in_thread(getattr(service, login), account, "x")
    try:
        assert hashing.wait(5)
        writer, added = _in_thread(service.add_contact, token, "L", {"Username": "mallory"})
        writer.join(5)
        assert added and added[0].contact_id == "c-001"  # done while the hash still waits
    finally:
        release.set()
        hasher.join(5)
    assert not hasher.is_alive()


def test_concurrent_create_account_of_one_name_commits_once(monkeypatch, tmp_path):
    service = make_service(tmp_path / "sbo.jsonl", pbkdf2_iterations=1)
    both_hashing = threading.Barrier(2, timeout=5)  # both got past the first name check
    hash_secret = service._hash_secret

    def meeting_hash(secret, salt, iterations):
        both_hashing.wait()
        return hash_secret(secret, salt, iterations)

    monkeypatch.setattr(service, "_hash_secret", meeting_hash)
    runs = [_in_thread(service.create_account, "bell", secret) for secret in ("x", "y")]
    for thread, _ in runs:
        thread.join(10)
    outcomes = [outcome[0] for _, outcome in runs]
    service.close()
    assert sorted(type(o).__name__ for o in outcomes) == ["ConflictError", "str"]
    winner = "xy"[outcomes.index("bell")]
    reborn = make_service(tmp_path / "sbo.jsonl", pbkdf2_iterations=1)
    assert reborn.issue_token("bell", winner).account_name == "bell"
    with pytest.raises(UnauthorizedError):
        reborn.issue_token("bell", "xy".replace(winner, ""))
    reborn.close()


def test_a_write_completes_while_blocked_by_scans(monkeypatch):
    service = make_service(pbkdf2_iterations=1)
    service.create_account("bell", "x")
    token = service.issue_token("bell", "x").token
    service.create_block_list(token, "L", Strictness.MEDIUM, "EmailId EQUALS")
    service.add_contact(token, "L", {"EmailId": "mallory@example.com"})
    scanning, release = threading.Event(), threading.Event()
    evaluate_rule = sbo.provider.evaluate_rule

    def blocked_evaluate(*args):
        scanning.set()
        release.wait(10)
        return evaluate_rule(*args)

    monkeypatch.setattr(sbo.provider, "evaluate_rule", blocked_evaluate)
    with serving(service) as server:
        host, port = server.server_address
        rest = ProviderRestClient(HttpTransport(f"http://{host}:{port}"))
        lookup, answer = _in_thread(rest.blocked_by, {"EmailId": "mallory@example.com"})
        try:
            assert scanning.wait(5)
            writer, added = _in_thread(rest.add_contact, token, "bell", "L",
                                       {"EmailId": "eve@example.com"})
            writer.join(5)
            assert added and added[0]["contact_id"] == "c-002"  # done while the scan waits
        finally:
            release.set()
            lookup.join(5)
        assert not lookup.is_alive()
    assert answer == [[("bell", "L")]]


def _seed_random_state(service: ProviderService, rng: Random, mutations: int) -> None:
    """Random mutation workload touching every mutation kind."""
    accounts: list[str] = []
    tokens: dict[str, str] = {}
    lists: dict[str, list[str]] = {}
    contacts: dict[tuple[str, str], list[str]] = {}
    for _ in range(mutations):
        move = rng.random()
        if move < 0.08 or not accounts:
            name = f"user{len(accounts)}"
            service.create_account(name, f"secret-{name}")
            tokens[name] = service.issue_token(name, f"secret-{name}").token
            accounts.append(name)
            lists[name] = []
        elif move < 0.25 or not lists[accounts[-1]]:
            owner = rng.choice(accounts)
            list_name = f"list{len(lists[owner])}"
            service.create_block_list(tokens[owner], list_name,
                                      rng.choice(list(Strictness)),
                                      account_name=owner)
            lists[owner].append(list_name)
            contacts[(owner, list_name)] = []
        else:
            owner = rng.choice([a for a in accounts if lists[a]])
            list_name = rng.choice(lists[owner])
            known = contacts[(owner, list_name)]
            if move < 0.8 or not known:
                identifiers = {
                    "Username": f"user-{rng.randint(0, 50)}",
                    "EmailId": f"u{rng.randint(0, 50)}@example.com",
                }
                created = service.add_contact(tokens[owner], list_name, identifiers,
                                              account_name=owner)
                known.append(created.contact_id)
            elif move < 0.9:
                service.remove_contact(tokens[owner], list_name, known.pop(),
                                       account_name=owner)
            else:
                service.set_rule(tokens[owner], list_name,
                                 rng.choice(["EmailId EQUALS", "Username MATCHES"]),
                                 account_name=owner)
