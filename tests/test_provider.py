from __future__ import annotations

from datetime import timedelta
from random import Random

import pytest

from sbo.crml import WireFormat, serialize_crml
from sbo.errors import (
    ConflictError,
    NotFoundError,
    RuleError,
    UnauthorizedError,
    ValidationError,
)
from sbo.identifiers import IdentifierKind, Strictness
from sbo.provider import ProviderService
from sbo.rules import default_rule, render_rule

from .conftest import CANONICAL_RULE, CANONICAL_TEXT, FIXED_TIME, make_service

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
    service.add_contact(token, "L", {"Username": "a"})
    seen.add(service.export_with_digest(token)[1])
    rule = "EmailId EQUALS"
    service.set_rule(token, "L", rule)
    seen.add(service.export_with_digest(token)[1])
    service.set_rule(token, "L", rule)  # content-identical mutation still counts
    seen.add(service.export_with_digest(token)[1])
    service.remove_contact(token, "L", "c-001")
    seen.add(service.export_with_digest(token)[1])
    assert len(seen) == 5


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
    """Readers hammering export while a writer mutates never observe a torn contact."""
    import threading

    service.create_account("bell", "x")
    token = service.issue_token("bell", "x").token
    service.create_block_list(token, "L", Strictness.MEDIUM)
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

    threads = [threading.Thread(target=writer)] + \
              [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert problems == []


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
