"""A model of the provider's versioned store, checked after every step of a random run.

The run drives a durable ProviderService that compacts every 7 mutations and
reboots, sometimes over a torn last line. The model is plain dicts; the
matching answer comes from the oracles, not from the provider's code.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from sbo.crml import encode_identifier_map
from sbo.errors import ConflictError
from sbo.identifiers import ContactRecord, IdentifierKind, Profile, Strictness
from sbo.rules import default_rule, render_rule

from .conftest import make_service
from .oracles import fold_evaluate, split_parse

RULES = ["EmailId EQUALS", "Username MATCHES", "FullName FUZZYMATCHES",
         "(Username MATCHES AND EmailId EQUALS) OR FullName MATCHES"]
DEFAULT_RULE = render_rule(default_rule())  # what a list created without a rule gets

# already normalized, so that the model can store them as given
VALUES = {
    "Username": ["alice", "alicia", "bob", "bobby"],
    "EmailId": ["alice@example.com", "bob@example.com"],
    "FullName": ["alice smith", "alice smyth", "bob jones"],
}
bags = st.lists(st.sampled_from(sorted(VALUES)), min_size=1, unique=True).flatmap(
    lambda kinds: st.fixed_dictionaries({k: st.sampled_from(VALUES[k]) for k in kinds}))


def _typed(bag: dict) -> dict:
    return {IdentifierKind(kind): value for kind, value in bag.items()}


class ProviderModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="sbo-model-"))
        self.path = self.dir / "sbo.jsonl"
        self.service = make_service(self.path, snapshot_every=7, pbkdf2_iterations=1)
        # account -> list name -> {"strictness", "rule_text", "contacts": {id: bag}, "version"}
        self.model: dict[str, dict[str, dict]] = {}
        self.tokens: dict[str, str] = {}
        self.issued: set[tuple[str, str, str]] = set()  # every contact id ever handed out
        self.etags: dict[tuple, tuple] = {}  # (account, selection) -> (list versions, ETag)

    def teardown(self):
        self.service.close()
        shutil.rmtree(self.dir)

    def _pick_list(self, data, with_contacts: bool = False) -> tuple[str, str]:
        choices = [(a, name) for a, lists in self.model.items() for name, lst in lists.items()
                   if lst["contacts"] or not with_contacts]
        return data.draw(st.sampled_from(choices))

    def _reboot(self, torn_tail: bytes = b"") -> None:
        self.service.close()
        with open(self.path, "ab") as log:
            log.write(torn_tail)
        self.service = make_service(self.path, snapshot_every=7, pbkdf2_iterations=1)
        self.tokens = {a: self.service.issue_token(a, f"secret-{a}").token for a in self.model}

    # --- mutations ---

    @initialize()
    def an_account_with_a_list(self):
        self.create_account("ann")
        self.service.create_block_list(self.tokens["ann"], "L1", Strictness.MEDIUM,
                                       account_name="ann")
        self.model["ann"]["L1"] = {"strictness": Strictness.MEDIUM, "contacts": {},
                                   "version": 1, "rule_text": DEFAULT_RULE}

    @rule(name=st.sampled_from(["ann", "ben"]))
    def create_account(self, name):
        if name in self.model:
            with pytest.raises(ConflictError):
                self.service.create_account(name, "other")
            return
        self.service.create_account(name, f"secret-{name}")
        self.tokens[name] = self.service.issue_token(name, f"secret-{name}").token
        self.model[name] = {}

    @rule(data=st.data(), name=st.sampled_from(["L1", "L2"]),
          strictness=st.sampled_from(list(Strictness)), rule_text=st.sampled_from(RULES + [None]))
    def create_list(self, data, name, strictness, rule_text):
        account = data.draw(st.sampled_from(sorted(self.model)))
        if name in self.model[account]:
            with pytest.raises(ConflictError):
                self.service.create_block_list(self.tokens[account], name, strictness,
                                               account_name=account)
            return
        self.service.create_block_list(self.tokens[account], name, strictness, rule_text,
                                       account_name=account)
        self.model[account][name] = {"strictness": strictness, "contacts": {}, "version": 1,
                                     "rule_text": rule_text or DEFAULT_RULE}

    @rule(data=st.data(), bag=bags)
    def add_contact(self, data, bag):
        account, name = self._pick_list(data)
        contact = self.service.add_contact(self.tokens[account], name, bag, account_name=account)
        assert (account, name, contact.contact_id) not in self.issued
        self.issued.add((account, name, contact.contact_id))
        self.model[account][name]["contacts"][contact.contact_id] = bag
        self.model[account][name]["version"] += 1

    @precondition(lambda self: any(lst["contacts"] for lists in self.model.values()
                                   for lst in lists.values()))
    @rule(data=st.data())
    def remove_contact(self, data):
        account, name = self._pick_list(data, with_contacts=True)
        contacts = self.model[account][name]["contacts"]
        contact_id = data.draw(st.sampled_from(sorted(contacts)))
        self.service.remove_contact(self.tokens[account], name, contact_id, account_name=account)
        del contacts[contact_id]
        self.model[account][name]["version"] += 1

    @rule(data=st.data(), rule_text=st.sampled_from(RULES))
    def set_rule(self, data, rule_text):
        account, name = self._pick_list(data)
        self.service.set_rule(self.tokens[account], name, rule_text, account_name=account)
        self.model[account][name]["rule_text"] = rule_text
        self.model[account][name]["version"] += 1

    @rule()
    def reboot(self):
        self._reboot()

    @rule(cut=st.integers(min_value=1, max_value=40))
    def reboot_after_a_torn_write(self, cut):
        self._reboot(b'{"kind":"add_contact","at":"2025-01-01T00:00:00Z","account":"ann"}'[:cut])

    # --- reads ---

    @rule(data=st.data())
    def export_some_lists(self, data):
        account, name = self._pick_list(data)
        others = [n for n in self.model[account] if n != name]
        wanted = [name] + data.draw(st.lists(st.sampled_from(others), unique=True)
                                    if others else st.just([]))
        self._check_export(account, data.draw(st.permutations(wanted)))

    @rule(bag=bags)
    def blocked_by(self, bag):
        profile = Profile("query", _typed(bag))
        expected = [
            (account, name) for account, lists in self.model.items()
            for name, lst in lists.items()
            if any(fold_evaluate(split_parse(lst["rule_text"]), ContactRecord(cid, _typed(c)),
                                 profile, lst["strictness"])
                   for cid, c in lst["contacts"].items())
        ]
        assert self.service.blocked_by(bag) == expected

    @invariant()
    def every_account_exports_the_model(self):
        for account in self.model:
            self._check_export(account, None)

    def _check_export(self, account: str, wanted: list[str] | None) -> None:
        doc, etag = self.service.export_with_digest(self.tokens[account], wanted,
                                                    account_name=account)
        lists = self.model[account]
        selected = [n for n in lists if wanted is None or n in wanted]
        assert [(bl.name, bl.strictness, bl.rule_text,
                 [(c.contact_id, encode_identifier_map(c.identifiers)) for c in bl.contacts])
                for bl in doc.block_lists] == \
            [(n, lists[n]["strictness"], lists[n]["rule_text"], list(lists[n]["contacts"].items()))
             for n in selected]
        # the ETag changes exactly when a selected list changed, reboots included
        key = (account, None if wanted is None else frozenset(wanted))
        versions = tuple((n, lists[n]["version"]) for n in selected)
        if key in self.etags:
            seen_versions, seen_etag = self.etags[key]
            assert (etag == seen_etag) == (versions == seen_versions)
        self.etags[key] = (versions, etag)


ProviderModel.TestCase.settings = settings(
    max_examples=50, stateful_step_count=50, deadline=None, derandomize=True, database=None)
test_provider_matches_its_model = ProviderModel.TestCase
