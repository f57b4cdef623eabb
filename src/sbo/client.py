"""Application-side SDK: integration resolution, cached block sets, decisions.

The client resolves which integration reaches each provider account (by
priority among currently available methods), fetches CRML conditionally,
merges everything into one BlockSet, and answers both enforcement
directions: "is this profile blocked" and "who blocks this logging-in user".

Refresh builds a complete new BlockSet off to the side and publishes it
atomically; readers always see a full merge.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from datetime import datetime
from typing import Iterable, Iterator, Mapping, Sequence

from .brokers import CredentialBroker
from .clock import Clock, system_clock
from .crml import BlockListRecord
from .errors import (
    BrokerUnavailable,
    EmptyBlockSetError,
    EvalError,
    FetchError,
    NoIntegrationAvailable,
    RestApiError,
    SBOError,
)
from .identifiers import ContactRecord, Profile
from .restclient import IssuedToken, ProviderRestClient
from .rules import DEFAULT_THRESHOLDS, MatchResult, MatchThresholds, cached_parse_rule, evaluate_rule
from .transport import Transport


class IntegrationMethod(str, enum.Enum):
    SSO_DELEGATED = "SsoDelegated"
    LDAP_DELEGATED = "LdapDelegated"
    DIRECT = "Direct"
    LOGIN_TIME_PROVIDED = "LoginTimeProvided"


@dataclass(frozen=True)
class IntegrationConfig:
    provider_host: str
    account_name: str
    method: IntegrationMethod
    priority_rank: int
    credential_ref: str | None = None

    def __post_init__(self) -> None:
        if self.priority_rank < 1:
            raise ValueError("priority_rank must be a positive integer")


# --- refresh policies ---

@dataclass(frozen=True)
class Periodic:
    interval_seconds: float

    def __post_init__(self) -> None:
        if not self.interval_seconds > 0:  # also refuses NaN
            raise ValueError("Periodic interval must be > 0")


@dataclass(frozen=True)
class OnLogin:
    pass


@dataclass(frozen=True)
class PerRequest:
    pass


@dataclass(frozen=True)
class Manual:
    pass


RefreshPolicy = Periodic | OnLogin | PerRequest | Manual


class Trigger(str, enum.Enum):
    TIMER = "Timer"
    LOGIN = "Login"
    REQUEST = "Request"
    MANUAL = "Manual"


def should_refresh(policy: RefreshPolicy, trigger: Trigger, now: datetime,
                   last_refreshed_at: datetime | None) -> bool:
    """Pure refresh decision; the full policy-by-trigger matrix lives here."""
    if isinstance(policy, Periodic):
        if trigger is not Trigger.TIMER:
            return False
        if last_refreshed_at is None:
            return True
        return (now - last_refreshed_at).total_seconds() >= policy.interval_seconds
    if isinstance(policy, OnLogin):
        return trigger is Trigger.LOGIN
    if isinstance(policy, PerRequest):
        return trigger is Trigger.REQUEST
    return trigger is Trigger.MANUAL


def resolve_integration(configs: Sequence[IntegrationConfig],
                        available: set[IntegrationMethod]) -> IntegrationConfig:
    """The available config with the smallest priority_rank; pure and deterministic."""
    if not configs:
        raise ValueError("configs must be non-empty")
    candidates = [c for c in configs if c.method in available]
    if not candidates:
        raise NoIntegrationAvailable(
            "no configured integration method is available "
            f"(configured: {sorted(c.method.value for c in configs)})")
    return min(candidates, key=lambda c: c.priority_rank)


# --- the merged cache ---

@dataclass(frozen=True)
class CachedAccount:
    """One provider account's lists as last fetched, with the ETag that fetch returned."""

    block_lists: tuple[BlockListRecord, ...]
    etag: str
    fetched_at: datetime


@dataclass(frozen=True)
class FetchFailure:
    provider_host: str
    account: str
    error: str


@dataclass(frozen=True)
class BlockSet:
    accounts: dict[tuple[str, str], CachedAccount] = field(default_factory=dict)  # (host, account)
    errors: tuple[FetchFailure, ...] = ()


@dataclass(frozen=True)
class MatchRecord:
    provider_host: str
    account: str
    list_name: str
    contact_id: str
    result: MatchResult


@dataclass(frozen=True)
class EvalFailure:
    provider_host: str
    account: str
    list_name: str
    contact_id: str
    error: str


@dataclass(frozen=True)
class BlockDecision:
    blocked: bool
    matches: tuple[MatchRecord, ...] = ()
    eval_errors: tuple[EvalFailure, ...] = ()


@dataclass(frozen=True)
class LoginBlockReport:
    blockers: tuple[tuple[str, str, str], ...]  # (provider_host, account, list_name)
    errors: tuple[tuple[str, str], ...] = ()  # (provider_host, error)


class EnforcementClient:
    """One application's SBO integration."""

    def __init__(
        self,
        configs: Iterable[IntegrationConfig],
        *,
        transports: Mapping[str, Transport],
        credentials: Mapping[str, str] | None = None,
        brokers: Mapping[IntegrationMethod, CredentialBroker] | None = None,
        refresh_policy: RefreshPolicy = Manual(),
        clock: Clock = system_clock,
        thresholds: MatchThresholds = DEFAULT_THRESHOLDS,
    ):
        self._configs: list[IntegrationConfig] = []
        self._transports = transports
        self._credentials = dict(credentials or {})
        self._brokers = dict(brokers or {})
        self.refresh_policy = refresh_policy
        self._clock = clock
        self.thresholds = thresholds
        self._lock = threading.Lock()
        self._blockset: BlockSet | None = None
        self._refreshed_at: datetime | None = None
        self._tokens: dict[tuple[str, str], IssuedToken] = {}
        self.last_fetch_methods: dict[tuple[str, str], IntegrationMethod] = {}
        for config in configs:
            self.add_integration(config)

    # --- configuration ---

    def add_integration(self, config: IntegrationConfig,
                        credentials: Mapping[str, str] | None = None) -> None:
        """Add a config (e.g. provided at login time); ranks stay unique."""
        if credentials:
            self._credentials.update(credentials)
        if config in self._configs:
            return
        if any(c.priority_rank == config.priority_rank for c in self._configs):
            raise ValueError(f"priority_rank {config.priority_rank} already configured")
        self._configs.append(config)

    def remove_integration(self, provider_host: str, account_name: str) -> None:
        self._configs = [c for c in self._configs
                         if (c.provider_host, c.account_name) != (provider_host, account_name)]

    def available_methods(self) -> set[IntegrationMethod]:
        """Direct/login-time are self-contained; delegated methods need a live broker."""
        methods = {IntegrationMethod.DIRECT, IntegrationMethod.LOGIN_TIME_PROVIDED}
        for method in (IntegrationMethod.SSO_DELEGATED, IntegrationMethod.LDAP_DELEGATED):
            broker = self._brokers.get(method)
            if broker is not None and broker.enabled:
                methods.add(method)
        return methods

    # --- fetching and cache maintenance ---

    def fetch_block_set(self, previous: BlockSet | None = None) -> BlockSet:
        """Fetch every configured provider account and merge.

        Per account: conditional fetch against the stored ETag; a failure, a
        malformed document included, keeps the previous lists in place
        (staleness over gaps). Raises EmptyBlockSetError only on total
        failure with no previous cache.
        """
        groups: dict[tuple[str, str], list[IntegrationConfig]] = {}
        for config in self._configs:
            groups.setdefault((config.provider_host, config.account_name), []).append(config)
        available = self.available_methods()
        now = self._clock()
        accounts: dict[tuple[str, str], CachedAccount] = {}
        errors: list[FetchFailure] = []
        methods: dict[tuple[str, str], IntegrationMethod] = {}
        for key, group in groups.items():
            cached = previous.accounts.get(key) if previous is not None else None
            try:
                config = resolve_integration(group, available)
                methods[key] = config.method
                doc, etag = self._get_crml(config, cached.etag if cached else None)
            except SBOError as exc:
                errors.append(FetchFailure(*key, str(exc)))
                doc = None
            if doc is not None:
                accounts[key] = CachedAccount(doc.block_lists, etag, now)
            elif cached is not None:  # not modified, or failed: keep what we had
                accounts[key] = cached
        self.last_fetch_methods = methods
        if groups and len(errors) == len(groups) and previous is None:
            raise EmptyBlockSetError(
                "every provider fetch failed and no previous block set exists: "
                + "; ".join(e.error for e in errors))
        return BlockSet(accounts, tuple(errors))

    def refresh(self, now: datetime | None = None) -> BlockSet:
        """Build a new BlockSet and publish it atomically."""
        new_set = self.fetch_block_set(self._blockset)
        with self._lock:
            self._blockset = new_set
            self._refreshed_at = now if now is not None else self._clock()
        return new_set

    def maybe_refresh(self, trigger: Trigger, now: datetime | None = None) -> bool:
        """Apply the refresh policy for one trigger; True iff a fetch ran."""
        at = now if now is not None else self._clock()
        if not should_refresh(self.refresh_policy, trigger, at, self._refreshed_at):
            return False
        self.refresh(at)
        return True

    @property
    def blockset(self) -> BlockSet:
        with self._lock:
            return self._blockset if self._blockset is not None else BlockSet()

    # --- decisions ---

    def evaluations(self, profile: Profile, blockset: BlockSet | None = None
                    ) -> Iterator[tuple[str, str, BlockListRecord, ContactRecord,
                                        MatchResult | EvalError]]:
        """(host, account, list, contact, result) for every contact of every cached list.

        The result is the EvalError the contact raised in place of its MatchResult.
        """
        current = blockset if blockset is not None else self.blockset
        for (host, account), cached in current.accounts.items():
            for block_list in cached.block_lists:
                ast = cached_parse_rule(block_list.rule_text)
                for contact in block_list.contacts:
                    try:
                        result = evaluate_rule(ast, contact, profile,
                                               block_list.strictness, self.thresholds)
                    except EvalError as exc:
                        result = exc
                    yield host, account, block_list, contact, result

    def is_blocked(self, profile: Profile, blockset: BlockSet | None = None) -> BlockDecision:
        """Evaluate the profile against every contact of every cached list.

        A contact that raises EvalError is recorded and treated as a non-match;
        one malformed contact must not disable the whole list.
        """
        matches: list[MatchRecord] = []
        eval_errors: list[EvalFailure] = []
        for host, account, block_list, contact, result in self.evaluations(profile, blockset):
            if isinstance(result, EvalError):
                eval_errors.append(EvalFailure(
                    host, account, block_list.name, contact.contact_id, str(result)))
            elif result.matched:
                matches.append(MatchRecord(
                    host, account, block_list.name, contact.contact_id, result))
        return BlockDecision(bool(matches), tuple(matches), tuple(eval_errors))

    def on_blocked_user_login(self, identifiers: dict,
                              providers: Sequence[str] | None = None) -> LoginBlockReport:
        """Union of blocked-by answers across providers; partial results allowed."""
        hosts = list(providers) if providers is not None else []
        if providers is None:
            for config in self._configs:
                if config.provider_host not in hosts:
                    hosts.append(config.provider_host)
        blockers: list[tuple[str, str, str]] = []
        errors: list[tuple[str, str]] = []
        for host in hosts:
            try:
                answers = ProviderRestClient(self._transport_for(host)).blocked_by(identifiers)
            except SBOError as exc:
                errors.append((host, str(exc)))
                continue
            blockers.extend((host, account, list_name) for account, list_name in answers)
        return LoginBlockReport(tuple(blockers), tuple(errors))

    # --- token plumbing ---

    def _get_crml(self, config: IntegrationConfig, prev_digest: str | None):
        rest = ProviderRestClient(self._transport_for(config.provider_host))
        token = self._token_for(config)
        try:
            return rest.get_crml(token.token, config.account_name,
                                 if_none_match=prev_digest)
        except RestApiError as exc:
            if exc.status != 401:
                raise
            # token may have expired server-side; reissue once
            self._tokens.pop((config.provider_host, config.account_name), None)
            token = self._token_for(config)
            return rest.get_crml(token.token, config.account_name,
                                 if_none_match=prev_digest)

    def _token_for(self, config: IntegrationConfig) -> IssuedToken:
        key = (config.provider_host, config.account_name)
        cached = self._tokens.get(key)
        if cached is not None and self._clock() < cached.expires_at:
            return cached
        if config.method in (IntegrationMethod.SSO_DELEGATED,
                             IntegrationMethod.LDAP_DELEGATED):
            broker = self._brokers.get(config.method)
            if broker is None:
                raise BrokerUnavailable(f"no {config.method.value} broker configured")
            token = broker.issue_provider_token(config.provider_host, config.account_name)
        else:
            if config.credential_ref is None:
                raise FetchError(f"config for {config.account_name}@{config.provider_host} "
                                 "has no credential_ref")
            secret = self._credentials.get(config.credential_ref)
            if secret is None:
                raise FetchError(f"unknown credential_ref {config.credential_ref!r}")
            rest = ProviderRestClient(self._transport_for(config.provider_host))
            token = rest.issue_token(config.account_name, secret)
        self._tokens[key] = token
        return token

    def _transport_for(self, provider_host: str) -> Transport:
        transport = self._transports.get(provider_host)
        if transport is None:
            raise FetchError(f"no transport configured for {provider_host}")
        return transport
