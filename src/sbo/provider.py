"""The SBO provider: accounts, block lists, CRML export, reverse lookup.

State is guarded by one lock (single writer, readers always see a committed
snapshot). Durability is a single append-only JSONL file of mutation records
with periodic snapshot compaction. Every mutation is one log record, applied
by the same function on a live call and on boot replay over the latest
snapshot. Contact identifiers are stored post-normalization.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os
import secrets
import threading
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from random import Random
from typing import Iterable

from .clock import Clock, system_clock
from .crml import (
    BlockListRecord,
    CRMLDocument,
    CRML_VERSION,
    decode_block_list,
    encode_block_list,
    encode_contact,
    format_timestamp,
    parse_identifier_map,
    parse_timestamp,
)
from .errors import (
    ConflictError,
    EvalError,
    NormalizeError,
    NotFoundError,
    ParseError,
    RuleError,
    SchemaError,
    UnauthorizedError,
    ValidationError,
)
from .identifiers import (
    ContactRecord,
    IdentifierKind,
    IdentifierValue,
    Profile,
    Strictness,
    normalize_value,
)
from .rules import (
    DEFAULT_THRESHOLDS,
    MatchThresholds,
    cached_parse_rule,
    default_rule,
    evaluate_rule,
    render_rule,
)

MAX_TOKEN_TTL_SECONDS = 10**9


@dataclass(frozen=True)
class TokenGrant:
    token: str
    account_name: str
    expires_at: datetime


@dataclass
class _StoredList:
    name: str
    strictness: Strictness
    rule_text: str
    updated_at: datetime
    contacts: dict[str, ContactRecord] = field(default_factory=dict)  # by contact_id
    revision: int = 1
    next_contact_seq: int = 1


@dataclass
class _Account:
    name: str
    salt: bytes
    credential_hash: bytes
    iterations: int
    lists: dict[str, _StoredList] = field(default_factory=dict)


class ProviderService:
    """One SBO provider instance; thread-safe."""

    def __init__(
        self,
        provider_name: str,
        data_path: str | Path | None = None,
        *,
        clock: Clock = system_clock,
        token_rng: Random | None = None,
        token_ttl_seconds: int = 3600,
        thresholds: MatchThresholds = DEFAULT_THRESHOLDS,
        snapshot_every: int = 500,
        pbkdf2_iterations: int = 20_000,
    ):
        if not 1 <= token_ttl_seconds <= MAX_TOKEN_TTL_SECONDS:
            # a larger lifetime puts the expiry past the last datetime
            raise ValueError(f"token_ttl_seconds must be in 1..{MAX_TOKEN_TTL_SECONDS}")
        self.provider_name = provider_name
        self.thresholds = thresholds
        self.token_ttl_seconds = token_ttl_seconds
        self._clock = clock
        self._token_rng = token_rng
        self._iterations = pbkdf2_iterations
        self._snapshot_every = snapshot_every
        self._lock = threading.RLock()
        self._accounts: dict[str, _Account] = {}
        self._tokens: dict[str, tuple[str, datetime]] = {}
        self._data_path = Path(data_path) if data_path is not None else None
        self._log_file = None
        self._mutations_since_snapshot = 0
        if self._data_path is not None:
            self._load()
            self._log_file = open(self._data_path, "a", encoding="utf-8")

    def close(self) -> None:
        if self._log_file is not None:
            self._log_file.close()
            self._log_file = None

    # --- accounts and tokens ---

    def create_account(self, account_name: str, secret: str) -> str:
        if not account_name:
            raise ValidationError("account_name must be non-empty")
        if not secret:
            raise ValidationError("secret must be non-empty")
        with self._lock:
            self._check_new_account(account_name)
            salt = self._random_bytes(16)
        # PBKDF2 takes milliseconds: hash outside the lock, then check the name again
        digest = self._hash_secret(secret, salt, self._iterations)
        with self._lock:
            self._check_new_account(account_name)
            self._commit({
                "kind": "create_account",
                "at": self._now_iso(),
                "account": account_name,
                "salt": salt.hex(),
                "credential_hash": digest.hex(),
                "iterations": self._iterations,
            })
            return account_name

    def _check_new_account(self, account_name: str) -> None:
        if account_name in self._accounts:
            raise ConflictError(f"account {account_name!r} already exists")

    def issue_token(self, account_name: str, secret: str) -> TokenGrant:
        with self._lock:
            account = self._accounts.get(account_name)
        # accounts are never removed and their credentials never change, so the
        # hash runs outside the lock against what was read under it
        if account is None or not hmac.compare_digest(
                self._hash_secret(secret, account.salt, account.iterations),
                account.credential_hash):
            raise UnauthorizedError("unknown account or bad secret")
        with self._lock:
            now = self._clock()
            # drop expired grants here, or a token never presented again stays forever
            self._tokens = {t: grant for t, grant in self._tokens.items() if now < grant[1]}
            token = self._random_token()
            expires_at = now + timedelta(seconds=self.token_ttl_seconds)
            self._tokens[token] = (account_name, expires_at)
            return TokenGrant(token, account_name, expires_at)

    def _authorize(self, token: str, account_name: str | None = None) -> _Account:
        entry = self._tokens.get(token)
        if entry is None:
            raise UnauthorizedError("unknown token")
        name, expires_at = entry
        if self._clock() >= expires_at:
            del self._tokens[token]
            raise UnauthorizedError("token expired")
        if account_name is not None and account_name != name:
            raise UnauthorizedError("token is not scoped to this account")
        return self._accounts[name]

    # --- block list management ---

    def create_block_list(self, token: str, name: str, strictness: Strictness,
                          rule_text: str | None = None,
                          account_name: str | None = None) -> BlockListRecord:
        with self._lock:
            account = self._authorize(token, account_name)
            if not name:
                raise ValidationError("list name must be non-empty")
            if name in account.lists:
                raise ConflictError(f"block list {name!r} already exists")
            if rule_text is None:
                rule_text = render_rule(default_rule())
            else:
                self._check_rule(rule_text, name)
            self._commit({
                "kind": "create_block_list", "at": self._now_iso(), "account": account.name,
                "name": name, "strictness": strictness.value, "rule_text": rule_text,
            })
            return self._wire_list(account.lists[name])

    def add_contact(self, token: str, list_name: str, identifiers: dict,
                    account_name: str | None = None) -> ContactRecord:
        with self._lock:
            account = self._authorize(token, account_name)
            stored = self._find_list(account, list_name)
            normalized = self._normalize_bag(identifiers)
            if not normalized:
                raise ValidationError("at least one identifier is required",
                                      path="identifiers")
            contact = ContactRecord(f"c-{stored.next_contact_seq:03d}", normalized)
            self._commit({
                "kind": "add_contact", "at": self._now_iso(), "account": account.name,
                "list": list_name, **encode_contact(contact),
            })
            return contact

    def remove_contact(self, token: str, list_name: str, contact_id: str,
                       account_name: str | None = None) -> None:
        with self._lock:
            account = self._authorize(token, account_name)
            stored = self._find_list(account, list_name)
            if contact_id not in stored.contacts:
                raise NotFoundError(f"no contact {contact_id!r} in {list_name!r}")
            self._commit({
                "kind": "remove_contact", "at": self._now_iso(), "account": account.name,
                "list": list_name, "contact_id": contact_id,
            })

    def set_rule(self, token: str, list_name: str, rule_text: str,
                 account_name: str | None = None) -> None:
        with self._lock:
            account = self._authorize(token, account_name)
            self._find_list(account, list_name)
            self._check_rule(rule_text, list_name)
            self._commit({
                "kind": "set_rule", "at": self._now_iso(), "account": account.name,
                "list": list_name, "rule_text": rule_text,
            })

    # --- export and lookup ---

    def export_crml(self, token: str, list_names: Iterable[str] | None = None,
                    account_name: str | None = None) -> CRMLDocument:
        return self.export_with_digest(token, list_names, account_name)[0]

    def export_with_digest(self, token: str, list_names: Iterable[str] | None = None,
                           account_name: str | None = None) -> tuple[CRMLDocument, str]:
        """Document plus its entity version (the ETag), read in one pass under the lock.

        The digest covers each selected list's revision and contacts but not
        issued_at, so an unchanged account keeps its ETag across exports.
        """
        with self._lock:
            account = self._authorize(token, account_name)
            selected = self._select_lists(account, list_names)
            block_lists = tuple(self._wire_list(s) for s in selected)
            revisions = [s.revision for s in selected]
            issued_at = self._clock()
        payload = json.dumps({
            "provider": self.provider_name, "account": account.name,
            "lists": [{**encode_block_list(bl), "revision": r}
                      for bl, r in zip(block_lists, revisions)],
        }, separators=(",", ":"), sort_keys=True)
        doc = CRMLDocument(CRML_VERSION, self.provider_name, account.name, issued_at,
                           block_lists)
        return doc, hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def blocked_by(self, identifiers: dict) -> list[tuple[str, str]]:
        """All (account, list) pairs whose rule matches the submitted identifiers.

        Unauthenticated by design; returns names only, never identifier contents.
        """
        try:
            parsed = parse_identifier_map(identifiers)
        except SchemaError as exc:
            raise ValidationError(str(exc)) from exc
        profile = Profile("query", parsed)
        # Only the copy holds the lock; the scan runs outside it. A stored
        # ContactRecord is never changed in place (a removal drops it from the
        # map, an add stores a new one), so the copied tuples stay as they were.
        with self._lock:
            snapshot = [(account.name, stored.name, stored.rule_text, stored.strictness,
                         tuple(stored.contacts.values()))
                        for account in self._accounts.values()
                        for stored in account.lists.values()]
        blockers: list[tuple[str, str]] = []
        for account_name, list_name, rule_text, strictness, contacts in snapshot:
            ast = cached_parse_rule(rule_text)
            for contact in contacts:
                try:
                    result = evaluate_rule(ast, contact, profile, strictness, self.thresholds)
                except EvalError:
                    continue
                if result.matched:
                    blockers.append((account_name, list_name))
                    break
        return blockers

    # --- state transitions (shared by live calls and log replay) ---

    def _commit(self, record: dict) -> None:
        """Apply one mutation record, then append it; it is acknowledged once fsynced."""
        self._apply(record)
        if self._log_file is None:
            return
        self._log_file.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._log_file.flush()
        os.fsync(self._log_file.fileno())
        self._mutations_since_snapshot += 1
        if self._mutations_since_snapshot >= self._snapshot_every:
            self._compact()

    def _apply(self, record: dict) -> None:
        kind = record["kind"]
        if kind == "create_account":
            name = record["account"]
            self._accounts[name] = _Account(name, bytes.fromhex(record["salt"]),
                                            bytes.fromhex(record["credential_hash"]),
                                            record["iterations"])
            return
        lists = self._accounts[record["account"]].lists
        if kind == "create_block_list":
            lists[record["name"]] = _StoredList(
                name=record["name"], strictness=Strictness(record["strictness"]),
                rule_text=record["rule_text"], updated_at=parse_timestamp(record["at"]))
            return
        stored = lists[record["list"]]
        if kind == "add_contact":
            contact_id = record["contact_id"]
            stored.contacts[contact_id] = ContactRecord(
                contact_id, parse_identifier_map(record["identifiers"]))
            seq = int(contact_id.split("-", 1)[1])
            stored.next_contact_seq = max(stored.next_contact_seq, seq) + 1
        elif kind == "remove_contact":
            del stored.contacts[record["contact_id"]]
        elif kind == "set_rule":
            stored.rule_text = record["rule_text"]
        else:
            raise ValueError(f"unknown log record kind {kind!r}")
        stored.revision += 1
        stored.updated_at = parse_timestamp(record["at"])

    # --- persistence ---

    def _compact(self) -> None:
        assert self._data_path is not None
        if self._log_file is not None:
            self._log_file.close()
        tmp_path = self._data_path.with_suffix(self._data_path.suffix + ".tmp")
        with open(tmp_path, "w", encoding="utf-8") as tmp:
            tmp.write(json.dumps(
                {"kind": "snapshot", "state": self._state_snapshot()},
                separators=(",", ":")) + "\n")
            tmp.flush()
            os.fsync(tmp.fileno())
        os.replace(tmp_path, self._data_path)
        # the rename itself is durable only once the directory entry is synced
        dir_fd = os.open(self._data_path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
        self._log_file = open(self._data_path, "a", encoding="utf-8")
        self._mutations_since_snapshot = 0

    def _state_snapshot(self) -> dict:
        return {
            "accounts": [
                {
                    "account_name": a.name,
                    "salt": a.salt.hex(),
                    "credential_hash": a.credential_hash.hex(),
                    "iterations": a.iterations,
                    "lists": [
                        {**encode_block_list(self._wire_list(s)), "revision": s.revision,
                         "updated_at": format_timestamp(s.updated_at),
                         "next_contact_seq": s.next_contact_seq}
                        for s in a.lists.values()
                    ],
                }
                for a in self._accounts.values()
            ],
        }

    def _restore_snapshot(self, state: dict) -> None:
        for raw_account in state["accounts"]:
            account = _Account(
                name=raw_account["account_name"],
                salt=bytes.fromhex(raw_account["salt"]),
                credential_hash=bytes.fromhex(raw_account["credential_hash"]),
                iterations=raw_account["iterations"],
            )
            self._accounts[account.name] = account
            for j, raw_list in enumerate(raw_account["lists"]):
                revision = raw_list.pop("revision")
                updated_at = parse_timestamp(raw_list.pop("updated_at"))
                next_contact_seq = raw_list.pop("next_contact_seq")
                record = decode_block_list(raw_list, f"{account.name}.lists[{j}]")
                account.lists[record.name] = _StoredList(
                    record.name, record.strictness, record.rule_text, updated_at,
                    {c.contact_id: c for c in record.contacts}, revision, next_contact_seq)

    def _load(self) -> None:
        assert self._data_path is not None
        if not self._data_path.exists():
            return
        data = self._data_path.read_bytes()
        end = data.rfind(b"\n") + 1
        if end < len(data):
            # A torn final write was never acknowledged: cut it off so the next
            # append starts a line of its own instead of extending the torn one.
            with open(self._data_path, "r+b") as f:
                f.truncate(end)
                os.fsync(f.fileno())
        records = [json.loads(line) for line in data[:end].decode("utf-8").splitlines()
                   if line.strip()]
        start = max((i for i, r in enumerate(records) if r["kind"] == "snapshot"),
                    default=0)
        for record in records[start:]:
            if record["kind"] == "snapshot":
                self._restore_snapshot(record["state"])
            else:
                self._apply(record)

    # --- helpers ---

    def _normalize_bag(self, identifiers: dict) -> dict[IdentifierKind, IdentifierValue]:
        try:
            parsed = parse_identifier_map(identifiers)
        except SchemaError as exc:
            raise ValidationError(str(exc)) from exc
        try:
            return {kind: normalize_value(kind, value) for kind, value in parsed.items()}
        except NormalizeError as exc:
            raise ValidationError(str(exc)) from exc

    def _check_rule(self, rule_text: str, list_name: str) -> None:
        try:
            cached_parse_rule(rule_text)
        except ParseError as exc:
            raise RuleError(f"list {list_name!r}: {exc}", list_name=list_name) from exc

    @staticmethod
    def _find_list(account: _Account, list_name: str) -> _StoredList:
        stored = account.lists.get(list_name)
        if stored is None:
            raise NotFoundError(f"unknown block list {list_name!r}")
        return stored

    @staticmethod
    def _select_lists(account: _Account,
                      list_names: Iterable[str] | None) -> list[_StoredList]:
        if list_names is None:
            return list(account.lists.values())
        wanted = list(list_names)
        for name in wanted:
            if name not in account.lists:
                raise NotFoundError(f"unknown block list {name!r}")
        return [s for s in account.lists.values() if s.name in set(wanted)]

    @staticmethod
    def _wire_list(stored: _StoredList) -> BlockListRecord:
        return BlockListRecord(
            name=stored.name,
            strictness=stored.strictness,
            rule_text=stored.rule_text,
            # fresh identifier dicts so exported documents never alias store state
            contacts=tuple(ContactRecord(c.contact_id, dict(c.identifiers))
                           for c in stored.contacts.values()),
        )

    @staticmethod
    def _hash_secret(secret: str, salt: bytes, iterations: int) -> bytes:
        return hashlib.pbkdf2_hmac("sha256", secret.encode("utf-8"), salt, iterations)

    def _random_bytes(self, n: int) -> bytes:
        if self._token_rng is not None:
            return self._token_rng.randbytes(n)
        return secrets.token_bytes(n)

    def _random_token(self) -> str:
        return self._random_bytes(16).hex()

    def _now_iso(self) -> str:
        return format_timestamp(self._clock())
