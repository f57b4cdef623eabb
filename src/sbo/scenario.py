"""Scenario files: schema, validation, and loading.

A scenario describes providers to spawn, the accounts/lists/contacts to
seed, the applications consuming them, and a timeline of events with
expected outcomes. Validation guarantees timestamps are non-decreasing and
every referenced entity is defined before use, so the runner can assume a
well-formed world.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .client import (
    IntegrationConfig,
    IntegrationMethod,
    RefreshPolicy,
    parse_refresh_policy,
)
from .crml import parse_identifier_map
from .errors import ParseError, ScenarioError, SchemaError
from .identifiers import Strictness
from .rules import parse_rule
from .similarity import average_hash

_EVENT_TYPES = (
    "block_contact", "remove_contact", "set_rule",
    "timer_tick", "manual_refresh", "profile_appears", "login",
    "set_provider_down", "set_broker_enabled", "remove_integration", "advance",
)

_EXPECT_KEYS = {
    "block_contact": {"contact_id"},
    "remove_contact": set(),
    "set_rule": set(),
    "timer_tick": {"refreshed", "methods"},
    "manual_refresh": {"refreshed", "methods", "error"},
    "profile_appears": {"refreshed", "methods", "blocked", "match_count", "matches"},
    "login": {"refreshed", "methods", "blocked_by", "error_count"},
    "set_provider_down": set(),
    "set_broker_enabled": set(),
    "remove_integration": set(),
    "advance": set(),
}

_BROKER_METHODS = (IntegrationMethod.SSO_DELEGATED, IntegrationMethod.LDAP_DELEGATED)


@dataclass(frozen=True)
class SeedList:
    name: str
    strictness: Strictness
    rule_text: str | None
    contacts: tuple[dict, ...]  # wire-shaped identifier maps


@dataclass(frozen=True)
class SeedAccount:
    account_name: str
    secret: str
    block_lists: tuple[SeedList, ...]


@dataclass(frozen=True)
class SeedProvider:
    host: str
    token_ttl_seconds: int
    accounts: tuple[SeedAccount, ...]


@dataclass(frozen=True)
class BrokerSpec:
    method: IntegrationMethod
    enabled: bool
    authorizations: tuple[tuple[str, str, str], ...]  # (host, account, secret)


@dataclass(frozen=True)
class AppSpec:
    app_id: str
    integrations: tuple[IntegrationConfig, ...]
    credentials: dict[str, str]
    refresh_policy: RefreshPolicy


@dataclass(frozen=True)
class Event:
    index: int
    at: float
    type: str
    fields: dict
    expect: dict | None


@dataclass
class Scenario:
    name: str
    seed: int
    providers: tuple[SeedProvider, ...]
    brokers: tuple[BrokerSpec, ...]
    applications: tuple[AppSpec, ...]
    events: tuple[Event, ...]
    account_secrets: dict[tuple[str, str], str] = field(default_factory=dict)


def _fail(message: str, path: str) -> ScenarioError:
    return ScenarioError(message, path=path)


def _require(raw: dict, key: str, kind: type, path: str):
    if not isinstance(raw, dict):
        raise _fail("expected an object", path)
    if key not in raw:
        raise _fail(f"missing field {key!r}", path)
    value = raw[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise _fail(f"field {key!r} must be {kind.__name__}", path)
    return value


def normalize_scenario_identifiers(raw: dict, path: str) -> dict:
    """Resolve harness-only conveniences: 8x8 pixel grids become phash64 values."""
    out: dict = {}
    for key, value in raw.items():
        if isinstance(value, dict) and "pixels" in value:
            try:
                out[key] = {"phash64": average_hash(value["pixels"]).to_hex()}
            except (ValueError, TypeError) as exc:
                raise _fail(f"bad pixel grid: {exc}", f"{path}.{key}") from exc
        else:
            out[key] = value
    return out


def _check_identifier_map(raw: object, path: str) -> dict:
    if not isinstance(raw, dict) or not raw:
        raise _fail("identifiers must be a non-empty object", path)
    resolved = normalize_scenario_identifiers(raw, path)
    try:
        parse_identifier_map(resolved, path)
    except SchemaError as exc:
        raise _fail(str(exc), path) from exc
    return resolved


def _load_providers(raw: object) -> tuple[tuple[SeedProvider, ...], dict]:
    if not isinstance(raw, list):
        raise _fail("providers must be a list", "providers")
    providers: list[SeedProvider] = []
    secrets: dict[tuple[str, str], str] = {}
    seen_hosts: set[str] = set()
    for i, raw_provider in enumerate(raw):
        path = f"providers[{i}]"
        if not isinstance(raw_provider, dict):
            raise _fail("provider must be an object", path)
        host = _require(raw_provider, "host", str, path)
        if host in seen_hosts:
            raise _fail(f"duplicate provider host {host!r}", path)
        seen_hosts.add(host)
        ttl = int(raw_provider.get("token_ttl_seconds", 3600))
        accounts: list[SeedAccount] = []
        seen_accounts: set[str] = set()
        for j, raw_account in enumerate(raw_provider.get("accounts", [])):
            account_path = f"{path}.accounts[{j}]"
            name = _require(raw_account, "account_name", str, account_path)
            secret = _require(raw_account, "secret", str, account_path)
            if name in seen_accounts:
                raise _fail(f"duplicate account {name!r}", account_path)
            seen_accounts.add(name)
            secrets[(host, name)] = secret
            lists: list[SeedList] = []
            seen_lists: set[str] = set()
            for k, raw_list in enumerate(raw_account.get("block_lists", [])):
                list_path = f"{account_path}.block_lists[{k}]"
                list_name = _require(raw_list, "name", str, list_path)
                if list_name in seen_lists:
                    raise _fail(f"duplicate block list {list_name!r}", list_path)
                seen_lists.add(list_name)
                try:
                    strictness = Strictness(_require(raw_list, "strictness", str, list_path))
                except ValueError as exc:
                    raise _fail(str(exc), f"{list_path}.strictness") from exc
                rule_text = raw_list.get("rule_text")
                if rule_text is not None:
                    try:
                        parse_rule(rule_text)
                    except ParseError as exc:
                        raise _fail(f"bad rule_text: {exc}", f"{list_path}.rule_text") from exc
                contacts = tuple(
                    _check_identifier_map(
                        raw_contact.get("identifiers"),
                        f"{list_path}.contacts[{m}].identifiers")
                    for m, raw_contact in enumerate(raw_list.get("contacts", []))
                )
                lists.append(SeedList(list_name, strictness, rule_text, contacts))
            accounts.append(SeedAccount(name, secret, tuple(lists)))
        providers.append(SeedProvider(host, ttl, tuple(accounts)))
    return tuple(providers), secrets


def _load_brokers(raw: object, secrets: dict) -> tuple[BrokerSpec, ...]:
    if raw is None:
        return ()
    if not isinstance(raw, dict):
        raise _fail("brokers must be an object keyed by method", "brokers")
    specs: list[BrokerSpec] = []
    for method_name, raw_spec in raw.items():
        path = f"brokers.{method_name}"
        try:
            method = IntegrationMethod(method_name)
        except ValueError as exc:
            raise _fail(str(exc), path) from exc
        if method not in _BROKER_METHODS:
            raise _fail(f"{method_name} is not a delegated method", path)
        enabled = bool(raw_spec.get("enabled", True))
        grants: list[tuple[str, str, str]] = []
        for i, raw_grant in enumerate(raw_spec.get("authorizations", [])):
            grant_path = f"{path}.authorizations[{i}]"
            host = _require(raw_grant, "provider_host", str, grant_path)
            account = _require(raw_grant, "account_name", str, grant_path)
            secret = raw_grant.get("secret", secrets.get((host, account)))
            if secret is None:
                raise _fail(f"no secret known for {account}@{host}", grant_path)
            grants.append((host, account, secret))
        specs.append(BrokerSpec(method, enabled, tuple(grants)))
    return tuple(specs)


def _load_applications(raw: object, provider_hosts: set[str]) -> tuple[AppSpec, ...]:
    if not isinstance(raw, list):
        raise _fail("applications must be a list", "applications")
    apps: list[AppSpec] = []
    seen_ids: set[str] = set()
    for i, raw_app in enumerate(raw):
        path = f"applications[{i}]"
        app_id = _require(raw_app, "app_id", str, path)
        if app_id in seen_ids:
            raise _fail(f"duplicate app_id {app_id!r}", path)
        seen_ids.add(app_id)
        integrations: list[IntegrationConfig] = []
        ranks: set[int] = set()
        for j, raw_config in enumerate(raw_app.get("integrations", [])):
            config_path = f"{path}.integrations[{j}]"
            config = load_integration_config(raw_config, config_path)
            if config.provider_host not in provider_hosts:
                raise _fail(f"undefined provider {config.provider_host!r}", config_path)
            if config.priority_rank in ranks:
                raise _fail(f"duplicate priority_rank {config.priority_rank}", config_path)
            ranks.add(config.priority_rank)
            integrations.append(config)
        credentials = dict(raw_app.get("credentials", {}))
        policy_raw = raw_app.get("refresh_policy")
        if not isinstance(policy_raw, dict):
            raise _fail("missing refresh_policy", path)
        try:
            policy = parse_refresh_policy(policy_raw)
        except (ValueError, KeyError) as exc:
            raise _fail(f"bad refresh_policy: {exc}", f"{path}.refresh_policy") from exc
        apps.append(AppSpec(app_id, tuple(integrations), credentials, policy))
    return tuple(apps)


def load_integration_config(raw: dict, path: str) -> IntegrationConfig:
    try:
        method = IntegrationMethod(_require(raw, "method", str, path))
    except ValueError as exc:
        raise _fail(str(exc), f"{path}.method") from exc
    rank = _require(raw, "priority_rank", int, path)
    try:
        return IntegrationConfig(
            provider_host=_require(raw, "provider_host", str, path),
            account_name=_require(raw, "account_name", str, path),
            method=method,
            priority_rank=rank,
            credential_ref=raw.get("credential_ref"),
        )
    except ValueError as exc:
        raise _fail(str(exc), path) from exc


def _load_events(raw: object, scenario: Scenario) -> tuple[Event, ...]:
    if not isinstance(raw, list):
        raise _fail("events must be a list", "events")
    apps = {a.app_id for a in scenario.applications}
    broker_methods = {b.method for b in scenario.brokers}
    known_lists = {
        (p.host, a.account_name, bl.name)
        for p in scenario.providers for a in p.accounts for bl in a.block_lists
    }
    hosts = {p.host for p in scenario.providers}
    events: list[Event] = []
    last_at = 0.0
    for i, raw_event in enumerate(raw):
        path = f"events[{i}]"
        if not isinstance(raw_event, dict):
            raise _fail("event must be an object", path)
        at = _require(raw_event, "at", float, path)
        if at < last_at:
            raise _fail(f"timestamps must be non-decreasing ({at} < {last_at})", path)
        last_at = at
        etype = _require(raw_event, "type", str, path)
        if etype not in _EVENT_TYPES:
            raise _fail(f"unknown event type {etype!r}", path)
        fields = {k: v for k, v in raw_event.items() if k not in ("at", "type", "expect")}
        expect = raw_event.get("expect")
        if expect is not None:
            if not isinstance(expect, dict):
                raise _fail("expect must be an object", path)
            unknown = set(expect) - _EXPECT_KEYS[etype]
            if unknown:
                raise _fail(f"unknown expect keys {sorted(unknown)}", f"{path}.expect")

        if etype in ("block_contact", "remove_contact", "set_rule"):
            target = (fields.get("provider"), fields.get("account"), fields.get("list"))
            if target not in known_lists:
                raise _fail(f"undefined block list {target!r}", path)
            if etype == "block_contact":
                fields["identifiers"] = _check_identifier_map(
                    fields.get("identifiers"), f"{path}.identifiers")
            if etype == "remove_contact":
                _require(fields, "contact_id", str, path)
            if etype == "set_rule":
                try:
                    parse_rule(_require(fields, "rule_text", str, path))
                except ParseError as exc:
                    raise _fail(f"bad rule_text: {exc}", f"{path}.rule_text") from exc
        elif etype in ("timer_tick", "manual_refresh"):
            if fields.get("app") not in apps:
                raise _fail(f"undefined app {fields.get('app')!r}", path)
        elif etype == "profile_appears":
            if fields.get("app") not in apps:
                raise _fail(f"undefined app {fields.get('app')!r}", path)
            profile = fields.get("profile")
            if not isinstance(profile, dict):
                raise _fail("missing profile object", path)
            profile["identifiers"] = _check_identifier_map(
                profile.get("identifiers"), f"{path}.profile.identifiers")
        elif etype == "login":
            if fields.get("app") not in apps:
                raise _fail(f"undefined app {fields.get('app')!r}", path)
            user = fields.get("user")
            if not isinstance(user, dict):
                raise _fail("missing user object", path)
            user["identifiers"] = _check_identifier_map(
                user.get("identifiers"), f"{path}.user.identifiers")
            for j, raw_config in enumerate(fields.get("integrations", [])):
                config = load_integration_config(raw_config, f"{path}.integrations[{j}]")
                if config.provider_host not in hosts:
                    raise _fail(f"undefined provider {config.provider_host!r}",
                                f"{path}.integrations[{j}]")
        elif etype == "set_provider_down":
            if fields.get("provider") not in hosts:
                raise _fail(f"undefined provider {fields.get('provider')!r}", path)
            _require(fields, "down", bool, path)
        elif etype == "set_broker_enabled":
            try:
                method = IntegrationMethod(_require(fields, "broker", str, path))
            except ValueError as exc:
                raise _fail(str(exc), path) from exc
            if method not in broker_methods:
                raise _fail(f"broker {method.value} not declared", path)
            _require(fields, "enabled", bool, path)
        elif etype == "remove_integration":
            if fields.get("app") not in apps:
                raise _fail(f"undefined app {fields.get('app')!r}", path)
            _require(fields, "provider", str, path)
            _require(fields, "account", str, path)
        events.append(Event(i, at, etype, fields, expect))
    return tuple(events)


def load_scenario(source: str | Path | dict) -> Scenario:
    """Load and validate a scenario from a file path or an already-decoded object."""
    if isinstance(source, dict):
        raw = source
    else:
        try:
            raw = json.loads(Path(source).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be an object")
    name = _require(raw, "name", str, "scenario")
    seed = int(raw.get("seed", 0))
    providers, secrets = _load_providers(raw.get("providers", []))
    scenario = Scenario(
        name=name,
        seed=seed,
        providers=providers,
        brokers=_load_brokers(raw.get("brokers"), secrets),
        applications=_load_applications(raw.get("applications", []),
                                        {p.host for p in providers}),
        events=(),
        account_secrets=secrets,
    )
    scenario.events = _load_events(raw.get("events", []), scenario)
    return scenario
