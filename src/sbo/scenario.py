"""Input files: scenarios, and the files and arguments the CLI reads.

A scenario describes providers to spawn, the accounts/lists/contacts to
seed, the applications consuming them, and a timeline of events with
expected outcomes. Every value is read once, by ``read_field``, into the
typed value the runner uses; the loader also checks that timestamps never
decrease and that every referenced entity is defined before use. So the
runner can assume a well-formed world, and a malformed file is a
``ScenarioError`` that names the JSON path, never another exception.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from pathlib import Path

from .client import (IntegrationConfig, IntegrationMethod, Manual, OnLogin, Periodic,
                     PerRequest, RefreshPolicy)
from .crml import parse_identifier_map
from .errors import ParseError, ScenarioError, SchemaError
from .identifiers import Profile, Strictness
from .rules import MatchThresholds, parse_rule
from .similarity import average_hash

_EXPECT_KEYS = {  # also the set of event types
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

_BROKER_METHODS = {m.value: m for m in (IntegrationMethod.SSO_DELEGATED,
                                         IntegrationMethod.LDAP_DELEGATED)}

_POLICIES = {"OnLogin": OnLogin(), "PerRequest": PerRequest(), "Manual": Manual()}

# Event offsets and token lifetimes above this overflow the simulated clock's datetime.
_MAX_SECONDS = 1e9

_MISSING = object()


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
    fields: dict  # parsed: wire-shaped identifiers, a Profile, IntegrationConfigs, ...
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


def read_field(raw: object, key: str, kind: type, path: str, default=_MISSING):
    """``raw[key]`` as a ``kind``, where ``raw`` is the object at ``path``.

    A float field takes an int; an enum field takes one of its string values.
    With a ``default``, an absent or null field gives the default.
    """
    if not isinstance(raw, dict):
        raise _fail("expected an object", path)
    value = raw.get(key)
    if value is None and default is not _MISSING:
        return default
    if key not in raw:
        raise _fail(f"missing field {key!r}", path)
    if issubclass(kind, enum.Enum) and isinstance(value, str):
        try:
            return kind(value)
        except ValueError as exc:
            raise _fail(str(exc), f"{path}.{key}") from exc
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise _fail(f"field {key!r} must be {kind.__name__}", path)
    return value


def load_json(source: str | Path, text: str | None = None) -> object:
    """Decode ``text``, or the file at ``source`` when no text is given."""
    try:
        return json.loads(Path(source).read_text(encoding="utf-8") if text is None else text)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8 or not JSON
        raise ScenarioError(f"cannot read {source} as JSON: {exc}") from exc


def _unique(value, seen: set, what: str, path: str):
    if value in seen:
        raise _fail(f"duplicate {what} {value!r}", path)
    seen.add(value)
    return value


def _known(raw: object, key: str, known: set, path: str) -> str:
    value = read_field(raw, key, str, path)
    if value not in known:
        raise _fail(f"undefined {key} {value!r}", path)
    return value


def _rule_text(raw: object, path: str, default=_MISSING) -> str | None:
    text = read_field(raw, "rule_text", str, path, default)
    if text is not None:
        try:
            parse_rule(text)
        except ParseError as exc:
            raise _fail(f"bad rule_text: {exc}", f"{path}.rule_text") from exc
    return text


def load_identifiers(raw: object, path: str) -> dict:
    """The wire-shaped identifier map at ``raw["identifiers"]``, checked and non-empty.

    8x8 pixel grids, a harness-only convenience, become phash64 values.
    """
    identifiers = read_field(raw, "identifiers", dict, path)
    path = f"{path}.identifiers"
    if not identifiers:
        raise _fail("identifiers must be a non-empty object", path)
    resolved: dict = {}
    for key, value in identifiers.items():
        if isinstance(value, dict) and "pixels" in value:
            try:
                value = {"phash64": average_hash(value["pixels"]).to_hex()}
            except (ValueError, TypeError, OverflowError) as exc:
                raise _fail(f"bad pixel grid: {exc}", f"{path}.{key}") from exc
        resolved[key] = value
    try:
        parse_identifier_map(resolved, path)
    except SchemaError as exc:
        raise _fail(str(exc), path) from exc
    return resolved


def load_profile(raw: object, path: str) -> Profile:
    identifiers = load_identifiers(raw, path)
    return Profile(read_field(raw, "profile_id", str, path, "profile"),
                   parse_identifier_map(identifiers))


def load_thresholds(raw: object, path: str) -> MatchThresholds:
    """{"text": {"Strict": ...}, "image": {...}}; missing levels keep their defaults."""
    levels = {}
    for family, kind in (("text", float), ("image", int)):
        values = read_field(raw, family, dict, path, {})
        for level in Strictness:
            if level.value in values:
                levels[f"{family}_{level.value.lower()}"] = read_field(
                    values, level.value, kind, f"{path}.{family}")
    try:
        return MatchThresholds(**levels)
    except ValueError as exc:
        raise _fail(str(exc), path) from exc


def _load_integrations(raw: object, path: str, key: str,
                       hosts: set[str]) -> tuple[IntegrationConfig, ...]:
    configs: list[IntegrationConfig] = []
    ranks: set[int] = set()
    for j, raw_config in enumerate(read_field(raw, key, list, path, [])):
        config_path = f"{path}.{key}[{j}]"
        host = _known(raw_config, "provider_host", hosts, config_path)
        rank = _unique(read_field(raw_config, "priority_rank", int, config_path), ranks,
                       "priority_rank", config_path)
        if rank < 1:
            raise _fail("priority_rank must be a positive integer", config_path)
        configs.append(IntegrationConfig(
            provider_host=host,
            account_name=read_field(raw_config, "account_name", str, config_path),
            method=read_field(raw_config, "method", IntegrationMethod, config_path),
            priority_rank=rank,
            credential_ref=read_field(raw_config, "credential_ref", str, config_path, None),
        ))
    return tuple(configs)


def _credentials(raw: object, path: str) -> dict[str, str]:
    credentials = read_field(raw, "credentials", dict, path, {})
    for ref in credentials:
        read_field(credentials, ref, str, f"{path}.credentials")
    return credentials


def _refresh_policy(raw: object, path: str) -> RefreshPolicy:
    policy = read_field(raw, "refresh_policy", dict, path, {"type": "Manual"})
    path = f"{path}.refresh_policy"
    kind = read_field(policy, "type", str, path)
    if kind == "Periodic":
        interval = read_field(policy, "interval_seconds", float, path)
        if not interval > 0:
            raise _fail("Periodic interval must be > 0", path)
        return Periodic(interval)
    if kind not in _POLICIES:
        raise _fail(f"unknown refresh policy type {kind!r}", path)
    return _POLICIES[kind]


def load_app(raw: object, path: str, app_id: str, integrations_key: str,
             hosts: set[str]) -> AppSpec:
    """What an EnforcementClient is built from: integrations, credentials, refresh policy.

    Read for a scenario's application and for the ``check-profile`` config.
    """
    return AppSpec(app_id, _load_integrations(raw, path, integrations_key, hosts),
                   _credentials(raw, path), _refresh_policy(raw, path))


def _load_providers(raw: dict) -> tuple[tuple[SeedProvider, ...], dict]:
    providers: list[SeedProvider] = []
    secrets: dict[tuple[str, str], str] = {}
    hosts: set[str] = set()
    for i, raw_provider in enumerate(read_field(raw, "providers", list, "scenario", [])):
        path = f"providers[{i}]"
        host = _unique(read_field(raw_provider, "host", str, path), hosts,
                       "provider host", path)
        ttl = read_field(raw_provider, "token_ttl_seconds", int, path, 3600)
        if not 0 < ttl <= _MAX_SECONDS:
            raise _fail(f"token_ttl_seconds must be in 1..{_MAX_SECONDS:.0f}", path)
        accounts: list[SeedAccount] = []
        names: set[str] = set()
        for j, raw_account in enumerate(read_field(raw_provider, "accounts", list, path, [])):
            account_path = f"{path}.accounts[{j}]"
            name = _unique(read_field(raw_account, "account_name", str, account_path),
                           names, "account", account_path)
            secret = read_field(raw_account, "secret", str, account_path)
            secrets[(host, name)] = secret
            lists: list[SeedList] = []
            list_names: set[str] = set()
            raw_lists = read_field(raw_account, "block_lists", list, account_path, [])
            for k, raw_list in enumerate(raw_lists):
                list_path = f"{account_path}.block_lists[{k}]"
                lists.append(SeedList(
                    _unique(read_field(raw_list, "name", str, list_path), list_names,
                            "block list", list_path),
                    read_field(raw_list, "strictness", Strictness, list_path),
                    _rule_text(raw_list, list_path, None),
                    tuple(load_identifiers(raw_contact, f"{list_path}.contacts[{m}]")
                          for m, raw_contact in enumerate(
                              read_field(raw_list, "contacts", list, list_path, []))),
                ))
            accounts.append(SeedAccount(name, secret, tuple(lists)))
        providers.append(SeedProvider(host, ttl, tuple(accounts)))
    return tuple(providers), secrets


def _load_brokers(raw: dict, secrets: dict) -> tuple[BrokerSpec, ...]:
    specs: list[BrokerSpec] = []
    for method_name, raw_spec in read_field(raw, "brokers", dict, "scenario", {}).items():
        path = f"brokers.{method_name}"
        method = _BROKER_METHODS.get(method_name)
        if method is None:
            raise _fail(f"{method_name!r} is not a delegated method", path)
        enabled = read_field(raw_spec, "enabled", bool, path, True)
        grants: list[tuple[str, str, str]] = []
        for i, raw_grant in enumerate(read_field(raw_spec, "authorizations", list, path, [])):
            grant_path = f"{path}.authorizations[{i}]"
            host = read_field(raw_grant, "provider_host", str, grant_path)
            account = read_field(raw_grant, "account_name", str, grant_path)
            secret = read_field(raw_grant, "secret", str, grant_path,
                                secrets.get((host, account)))
            if secret is None:
                raise _fail(f"no secret known for {account}@{host}", grant_path)
            grants.append((host, account, secret))
        specs.append(BrokerSpec(method, enabled, tuple(grants)))
    return tuple(specs)


def _load_applications(raw: dict, hosts: set[str]) -> tuple[AppSpec, ...]:
    apps: list[AppSpec] = []
    app_ids: set[str] = set()
    for i, raw_app in enumerate(read_field(raw, "applications", list, "scenario", [])):
        path = f"applications[{i}]"
        app_id = _unique(read_field(raw_app, "app_id", str, path), app_ids, "app_id", path)
        apps.append(load_app(raw_app, path, app_id, "integrations", hosts))
    return tuple(apps)


def _event_fields(etype: str, raw: dict, path: str, known: dict[str, set]) -> dict:
    """The parsed fields of one event, each checked against the entities ``known`` by kind."""
    if etype in ("block_contact", "remove_contact", "set_rule"):
        target = tuple(read_field(raw, key, str, path) for key in ("provider", "account", "list"))
        if target not in known["list"]:
            raise _fail(f"undefined block list {target!r}", path)
        fields = dict(zip(("provider", "account", "list"), target))
        if etype == "block_contact":
            fields["identifiers"] = load_identifiers(raw, path)
        elif etype == "remove_contact":
            fields["contact_id"] = read_field(raw, "contact_id", str, path)
        else:
            fields["rule_text"] = _rule_text(raw, path)
        return fields
    if etype == "set_provider_down":
        return {"provider": _known(raw, "provider", known["provider"], path),
                "down": read_field(raw, "down", bool, path)}
    if etype == "set_broker_enabled":
        broker = read_field(raw, "broker", IntegrationMethod, path)
        if broker not in known["broker"]:
            raise _fail(f"broker {broker.value} not declared", path)
        return {"broker": broker, "enabled": read_field(raw, "enabled", bool, path)}
    if etype == "advance":
        return {}
    fields = {"app": _known(raw, "app", known["app"], path)}
    if etype == "profile_appears":
        fields["profile"] = load_profile(read_field(raw, "profile", dict, path),
                                         f"{path}.profile")
    elif etype == "login":
        fields["identifiers"] = load_identifiers(read_field(raw, "user", dict, path),
                                                 f"{path}.user")
        fields["integrations"] = _load_integrations(raw, path, "integrations",
                                                    known["provider"])
        fields["credentials"] = _credentials(raw, path)
    elif etype == "remove_integration":
        fields["provider"] = read_field(raw, "provider", str, path)
        fields["account"] = read_field(raw, "account", str, path)
    return fields


def _load_events(raw: dict, scenario: Scenario) -> tuple[Event, ...]:
    known = {
        "app": {a.app_id for a in scenario.applications},
        "broker": {b.method for b in scenario.brokers},
        "list": {(p.host, a.account_name, bl.name)
                 for p in scenario.providers for a in p.accounts for bl in a.block_lists},
        "provider": {p.host for p in scenario.providers},
    }
    events: list[Event] = []
    last_at = 0.0
    for i, raw_event in enumerate(read_field(raw, "events", list, "scenario", [])):
        path = f"events[{i}]"
        at = read_field(raw_event, "at", float, path)
        if not last_at <= at <= _MAX_SECONDS:  # NaN fails both
            raise _fail(f"at must lie between the previous event's {last_at} and "
                        f"{_MAX_SECONDS:.0f}, not {at}", path)
        last_at = at
        etype = read_field(raw_event, "type", str, path)
        if etype not in _EXPECT_KEYS:
            raise _fail(f"unknown event type {etype!r}", path)
        expect = read_field(raw_event, "expect", dict, path, None)
        unknown = set(expect or ()) - _EXPECT_KEYS[etype]
        if unknown:
            raise _fail(f"unknown expect keys {sorted(unknown)}", f"{path}.expect")
        events.append(Event(i, at, etype, _event_fields(etype, raw_event, path, known), expect))
    return tuple(events)


def load_scenario(source: str | Path | dict) -> Scenario:
    """Load and validate a scenario from a file path or an already-decoded object."""
    raw = source if isinstance(source, dict) else load_json(source)
    name = read_field(raw, "name", str, "scenario")
    providers, secrets = _load_providers(raw)
    scenario = Scenario(
        name=name,
        seed=read_field(raw, "seed", int, "scenario", 0),
        providers=providers,
        brokers=_load_brokers(raw, secrets),
        applications=_load_applications(raw, {p.host for p in providers}),
        events=(),
        account_secrets=secrets,
    )
    scenario.events = _load_events(raw, scenario)
    return scenario
