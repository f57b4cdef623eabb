"""The SBO provider: accounts, block lists, CRML export, reverse lookup.

State is one immutable value (read-copy-update). Under the one lock a writer
builds the next state with ``_apply``, appends and fsyncs the mutation record
to a JSONL log with periodic snapshot compaction, and only then publishes the
state; boot replays the log through ``_apply`` too, and restores a snapshot
through the helpers ``_apply`` uses, so one set of checks decides what state
may hold, whether it comes from a caller or from the data file. Readers load
the published reference once and take no lock. Identifiers are stored
normalized.
"""

from __future__ import annotations

import contextlib
import hashlib
import hmac
import json
import math
import os
import secrets
import threading
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from pathlib import Path
from random import Random
from types import MappingProxyType
from typing import Iterable, Mapping

from .clock import Clock, system_clock
from .crml import (
    BlockListRecord,
    CRMLDocument,
    CRML_VERSION,
    check_rule,
    decode_block_list,
    decode_contact,
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
    SBOError,
    SchemaError,
    StoreError,
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
# a few seconds of hashing per login; a corrupt count could otherwise hash for days
MAX_PBKDF2_ITERATIONS = 10**7


@dataclass(frozen=True)
class TokenGrant:
    token: str
    account_name: str
    expires_at: datetime


@dataclass(frozen=True)
class _StoredList:
    name: str
    strictness: Strictness
    rule_text: str
    updated_at: datetime
    contacts: Mapping[str, ContactRecord]  # by contact_id; identifiers are read-only
    revision: int = 1
    next_contact_seq: int = 1


@dataclass(frozen=True)
class _Account:
    name: str
    salt: bytes
    credential_hash: bytes
    iterations: int
    lists: Mapping[str, _StoredList]


_State = Mapping[str, _Account]  # by name; never changed once built


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
        self._iterations = _count(pbkdf2_iterations, "pbkdf2_iterations",
                                  MAX_PBKDF2_ITERATIONS)
        self._snapshot_every = snapshot_every
        self._lock = threading.Lock()  # serializes writers; readers never take it
        # the published state and token table: only a writer replaces them
        self._accounts: _State = {}
        self._tokens: dict[str, tuple[str, datetime]] = {}
        self._data_path = Path(data_path) if data_path is not None else None
        self._log_file = None
        self._log_end = 0  # bytes of the log that hold fsynced records
        self._mutations_since_snapshot = 0
        self._refusal: str | None = None  # once the data file fails, every write gets this
        if self._data_path is not None:
            try:
                self._accounts = _load(self._data_path)
                self._log_file = open(self._data_path, "ab")
                self._log_end = self._log_file.tell()
            except OSError as exc:
                raise StoreError(f"cannot open the data file {self._data_path}: "
                                 f"{exc.strerror or exc}") from exc

    def close(self) -> None:
        with self._lock:
            if self._log_file is not None:
                self._log_file.close()
                self._log_file = None
                # a later write could not be made durable, so it must not be published
                self._refusal = "the provider is closed"

    # --- accounts and tokens ---

    def create_account(self, account_name: str, secret: str) -> str:
        if not account_name:
            raise ValidationError("account_name must be non-empty")
        if not secret:
            raise ValidationError("secret must be non-empty")
        if account_name in self._accounts:  # before PBKDF2 spends milliseconds on it
            raise ConflictError(f"account {account_name!r} already exists")
        salt = self._random_bytes(16)
        # hash outside the lock; _apply refuses the name if another caller took it meanwhile
        digest = self._hash_secret(secret, salt, self._iterations)
        with self._lock:
            self._commit({
                "kind": "create_account", "at": self._now_iso(), "account": account_name,
                "salt": salt.hex(), "credential_hash": digest.hex(),
                "iterations": self._iterations,
            })
            return account_name

    def issue_token(self, account_name: str, secret: str) -> TokenGrant:
        # accounts are never removed and their credentials never change, so the
        # published account needs no lock while its hash runs
        account = self._accounts.get(account_name)
        if account is None or not hmac.compare_digest(
                self._hash_secret(secret, account.salt, account.iterations),
                account.credential_hash):
            raise UnauthorizedError("unknown account or bad secret")
        with self._lock:
            now = self._clock()
            token = self._random_bytes(16).hex()
            expires_at = now + timedelta(seconds=self.token_ttl_seconds)
            # drop expired grants here, or a token never presented again stays forever
            tokens = {t: grant for t, grant in self._tokens.items() if now < grant[1]}
            tokens[token] = (account_name, expires_at)
            self._tokens = tokens
            return TokenGrant(token, account_name, expires_at)

    def _authorize(self, token: str, account_name: str | None = None) -> _Account:
        entry = self._tokens.get(token)
        if entry is None:
            raise UnauthorizedError("unknown token")
        name, expires_at = entry
        if self._clock() >= expires_at:
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
            if rule_text is None:
                rule_text = render_rule(default_rule())
            accounts = self._commit({
                "kind": "create_block_list", "at": self._now_iso(), "account": account.name,
                "name": name, "strictness": strictness.value, "rule_text": rule_text,
            })
            return _wire_list(accounts[account.name].lists[name])

    def add_contact(self, token: str, list_name: str, identifiers: dict,
                    account_name: str | None = None) -> ContactRecord:
        with self._lock:
            account = self._authorize(token, account_name)
            normalized = self._normalize_bag(identifiers)
            if not normalized:
                raise ValidationError("at least one identifier is required",
                                      path="identifiers")
            stored = account.lists.get(list_name)  # a missing list is _apply's NotFoundError
            contact_id = f"c-{1 if stored is None else stored.next_contact_seq:03d}"
            accounts = self._commit({
                "kind": "add_contact", "at": self._now_iso(), "account": account.name,
                "list": list_name, **encode_contact(ContactRecord(contact_id, normalized)),
            })
            return accounts[account.name].lists[list_name].contacts[contact_id]

    def remove_contact(self, token: str, list_name: str, contact_id: str,
                       account_name: str | None = None) -> None:
        with self._lock:
            account = self._authorize(token, account_name)
            self._commit({
                "kind": "remove_contact", "at": self._now_iso(), "account": account.name,
                "list": list_name, "contact_id": contact_id,
            })

    def set_rule(self, token: str, list_name: str, rule_text: str,
                 account_name: str | None = None) -> None:
        with self._lock:
            account = self._authorize(token, account_name)
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
        """Document plus its entity version (the ETag), both from one published state.

        The digest covers each selected list's revision and contacts but not
        issued_at, so an unchanged account keeps its ETag across exports.
        """
        account = self._authorize(token, account_name)
        selected = self._select_lists(account, list_names)
        block_lists = tuple(_wire_list(s) for s in selected)
        payload = json.dumps({
            "provider": self.provider_name, "account": account.name,
            "lists": [{**encode_block_list(bl), "revision": s.revision}
                      for bl, s in zip(block_lists, selected)],
        }, separators=(",", ":"), sort_keys=True)
        doc = CRMLDocument(CRML_VERSION, self.provider_name, account.name, self._clock(),
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
        blockers: list[tuple[str, str]] = []
        for account in self._accounts.values():
            for stored in account.lists.values():
                ast = cached_parse_rule(stored.rule_text)
                for contact in stored.contacts.values():
                    try:
                        result = evaluate_rule(ast, contact, profile, stored.strictness,
                                               self.thresholds)
                    except EvalError:
                        continue
                    if result.matched:
                        blockers.append((account.name, stored.name))
                        break
        return blockers

    # --- the write path: build, make durable, publish ---

    def _commit(self, record: dict) -> _State:
        """Under the lock: build the next state, make record durable, publish and return it."""
        if self._refusal is not None:
            raise StoreError(self._refusal)
        accounts = _apply(self._accounts, record)
        if self._log_file is not None:
            self._append(record)
        self._accounts = accounts
        if self._log_file is not None:
            self._mutations_since_snapshot += 1
            if self._mutations_since_snapshot >= self._snapshot_every:
                self._compact(accounts)
        return accounts

    def _append(self, record: dict) -> None:
        """Append record and fsync it; if that fails, cut it off and refuse every later write.

        If the cut fails too, the file still holds the unacknowledged record, and
        a retried write could log it twice (a second removal makes boot fail).
        """
        # the end is counted, not asked for: a seek would hand the interpreter lock
        # to a running blocked_by scan and wait for it back
        line = _encode_line(record)
        try:
            self._log_file.write(line)
            self._log_file.flush()
            os.fsync(self._log_file.fileno())
        except OSError as exc:
            self._refusal = (f"the data file could not be written ({exc.strerror or exc}); "
                             "writes are refused until the provider restarts")
            with contextlib.suppress(OSError):
                self._log_file.close()  # drops what the failed write left buffered
            self._log_file = None
            with contextlib.suppress(OSError):
                os.truncate(self._data_path, self._log_end)
            raise StoreError(self._refusal) from exc
        self._log_end += len(line)

    def _compact(self, accounts: _State) -> None:
        """Replace the log by one snapshot line, written beside it and renamed over it.

        A failure before the rename removes the snapshot file and keeps the live
        log, which holds every acknowledged record; the next write tries again.
        """
        tmp_path = _tmp_path(self._data_path)
        snapshot = _encode_line({"kind": "snapshot", "state": _state_snapshot(accounts)})
        log = None
        try:
            log = open(tmp_path, "wb")
            log.write(snapshot)
            log.flush()
            os.fsync(log.fileno())
            os.replace(tmp_path, self._data_path)
        except OSError:
            if log is not None:
                log.close()
            with contextlib.suppress(OSError):
                tmp_path.unlink(missing_ok=True)
            return
        # The old log is no longer at the path, so later records go to the snapshot's file.
        self._log_file.close()
        self._log_file, self._log_end = log, len(snapshot)
        self._mutations_since_snapshot = 0
        try:
            # the rename itself is durable only once the directory entry is synced
            dir_fd = os.open(self._data_path.parent, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError as exc:
            # a crash could bring the old log back without the records appended from here
            self._refusal = (f"the data directory could not be synced ({exc.strerror or exc}); "
                             "writes are refused until the provider restarts")

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

    @staticmethod
    def _select_lists(account: _Account,
                      list_names: Iterable[str] | None) -> list[_StoredList]:
        if list_names is None:
            return list(account.lists.values())
        wanted = dict.fromkeys(list_names)  # in the caller's order, for the first unknown
        for name in wanted:
            if name not in account.lists:
                raise NotFoundError(f"unknown block list {name!r}")
        return [s for s in account.lists.values() if s.name in wanted]

    @staticmethod
    def _hash_secret(secret: str, salt: bytes, iterations: int) -> bytes:
        return hashlib.pbkdf2_hmac("sha256", secret.encode("utf-8"), salt, iterations)

    def _random_bytes(self, n: int) -> bytes:
        if self._token_rng is not None:
            return self._token_rng.randbytes(n)
        return secrets.token_bytes(n)

    def _now_iso(self) -> str:
        return format_timestamp(self._clock())


# --- state transitions (shared by live calls, log replay and snapshot restore) ---

def _apply(accounts: _State, record: dict) -> _State:
    """The state after one record; only the touched account, list and contacts are copied.

    The conflict, existence, rule and field checks on state are made here or in
    the helpers below, so what the live path refuses is refused at boot too: a
    taken name, a missing list or contact, a repeated contact id, bad rule text
    or a field of the wrong type or range.
    """
    kind = record["kind"]
    if kind == "create_account":
        accounts = dict(accounts)
        _put_account(accounts, record["account"], record["salt"], record["credential_hash"],
                     record["iterations"], {})
        return accounts
    account = accounts[record["account"]]
    lists = dict(account.lists)
    if kind == "create_block_list":
        raw_list = {"name": record["name"], "strictness": record["strictness"],
                    "rule_text": record["rule_text"], "contacts": []}
        _put_list(lists, decode_block_list(raw_list, kind), parse_timestamp(record["at"]))
        return {**accounts, account.name: replace(account, lists=lists)}
    stored = lists.get(record["list"])
    if stored is None:
        raise NotFoundError(f"unknown block list {record['list']!r}")
    changes = {}
    if kind == "add_contact":
        raw_contact = {"contact_id": record["contact_id"], "identifiers": record["identifiers"]}
        contact = decode_contact(raw_contact, kind)
        if contact.contact_id in stored.contacts:
            raise ConflictError(f"contact {contact.contact_id!r} already exists in "
                                f"{stored.name!r}")
        changes["contacts"] = {**stored.contacts, contact.contact_id: _stored_contact(contact)}
        changes["next_contact_seq"] = max(stored.next_contact_seq,
                                          _contact_seq(contact.contact_id)) + 1
    elif kind == "remove_contact":
        contact_id = record["contact_id"]
        if contact_id not in stored.contacts:
            raise NotFoundError(f"no contact {contact_id!r} in {stored.name!r}")
        contacts = dict(stored.contacts)
        del contacts[contact_id]
        changes["contacts"] = contacts
    elif kind == "set_rule":
        changes["rule_text"] = check_rule(record["rule_text"], stored.name)
    else:
        raise ValueError(f"unknown log record kind {kind!r}")
    lists[stored.name] = replace(stored, **changes, revision=stored.revision + 1,
                                 updated_at=parse_timestamp(record["at"]))
    return {**accounts, account.name: replace(account, lists=lists)}


def _put_account(accounts: dict[str, _Account], name: str, salt: str, credential_hash: str,
                 iterations: int, lists: Mapping[str, _StoredList]) -> None:
    """Add an account to accounts, refusing a taken name or an iteration count out of range."""
    if name in accounts:
        raise ConflictError(f"account {name!r} already exists")
    accounts[name] = _Account(name, bytes.fromhex(salt), bytes.fromhex(credential_hash),
                              _count(iterations, "iterations", MAX_PBKDF2_ITERATIONS), lists)


def _put_list(lists: dict[str, _StoredList], block_list: BlockListRecord, updated_at: datetime,
              revision: int = 1, next_contact_seq: int = 1) -> None:
    """Add a decoded list to lists, refusing a taken name, a count below 1, or a
    next contact number that would hand out the id of a contact it holds."""
    if block_list.name in lists:
        raise ConflictError(f"block list {block_list.name!r} already exists")
    _count(next_contact_seq, "next_contact_seq")
    if any(_contact_seq(c.contact_id) >= next_contact_seq for c in block_list.contacts):
        raise ValueError(f"next_contact_seq {next_contact_seq} is not above every contact's")
    lists[block_list.name] = _StoredList(
        block_list.name, block_list.strictness, block_list.rule_text, updated_at,
        {c.contact_id: _stored_contact(c) for c in block_list.contacts},
        _count(revision, "revision"), next_contact_seq)


def _stored_contact(contact: ContactRecord) -> ContactRecord:
    """The contact with its identifiers made read-only, as state holds it."""
    return ContactRecord(contact.contact_id, MappingProxyType(contact.identifiers))


def _contact_seq(contact_id: str) -> int:
    """The number in a contact id of the form c-NNN."""
    return int(contact_id[len("c-"):])


def _count(value: object, field: str, most: float = math.inf) -> int:
    """value if it is an int from 1 to most; a ValueError otherwise."""
    if type(value) is not int or not 1 <= value <= most:
        raise ValueError(f"{field} must be an integer from 1 to {most}, got {value!r}")
    return value


def _wire_list(stored: _StoredList) -> BlockListRecord:
    """The wire view of a list version; it shares the version's read-only contacts."""
    return BlockListRecord(stored.name, stored.strictness, stored.rule_text,
                           tuple(stored.contacts.values()))


# --- persistence ---

def _encode_line(record: dict) -> bytes:
    return (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")


def _tmp_path(data_path: Path) -> Path:
    """Where compaction writes the snapshot before renaming it over the log."""
    return data_path.with_name(data_path.name + ".tmp")


def _state_snapshot(accounts: _State) -> dict:
    return {
        "accounts": [
            {
                "account_name": a.name,
                "salt": a.salt.hex(),
                "credential_hash": a.credential_hash.hex(),
                "iterations": a.iterations,
                "lists": [
                    {**encode_block_list(_wire_list(s)), "revision": s.revision,
                     "updated_at": format_timestamp(s.updated_at),
                     "next_contact_seq": s.next_contact_seq}
                    for s in a.lists.values()
                ],
            }
            for a in accounts.values()
        ],
    }


def _restore_snapshot(state: dict) -> _State:
    accounts: dict[str, _Account] = {}
    for raw_account in state["accounts"]:
        name = raw_account["account_name"]
        lists: dict[str, _StoredList] = {}
        for j, raw_list in enumerate(raw_account["lists"]):
            raw_list = dict(raw_list)
            revision = raw_list.pop("revision")
            updated_at = parse_timestamp(raw_list.pop("updated_at"))
            next_contact_seq = raw_list.pop("next_contact_seq")
            _put_list(lists, decode_block_list(raw_list, f"{name}.lists[{j}]"), updated_at,
                      revision, next_contact_seq)
        _put_account(accounts, name, raw_account["salt"], raw_account["credential_hash"],
                     raw_account["iterations"], lists)
    return accounts


def _load(data_path: Path) -> _State:
    """The state a data file holds: its latest snapshot with every later record applied.

    A record that cannot be applied is refused as a StoreError naming its line.
    """
    _tmp_path(data_path).unlink(missing_ok=True)  # a compaction that never renamed it
    if not data_path.exists():
        return {}
    data = data_path.read_bytes()
    end = data.rfind(b"\n") + 1
    if end < len(data):
        # A torn final write was never acknowledged: cut it off so the next
        # append starts a line of its own instead of extending the torn one.
        with open(data_path, "r+b") as f:
            f.truncate(end)
            os.fsync(f.fileno())
    accounts: _State = {}
    for number, line in enumerate(data[:end].split(b"\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
            if record["kind"] == "snapshot":  # compaction writes one, as the first line
                accounts = _restore_snapshot(record["state"])
            else:
                accounts = _apply(accounts, record)
        except (ValueError, LookupError, TypeError, RecursionError, SBOError) as exc:
            raise StoreError(f"{data_path} line {number}: corrupt record "
                             f"({type(exc).__name__}: {exc})") from exc
    return accounts
