"""Scenario execution: spawn in-process providers, drive apps through a
simulated clock, check expectations, and emit a deterministic report."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from .brokers import StubBroker
from .client import EnforcementClient, IntegrationMethod, Trigger
from .clock import SimulatedClock
from .errors import EmptyBlockSetError, EvalError, ScenarioError
from .http_api import ProviderApi
from .identifiers import Profile
from .provider import ProviderService
from .restclient import IssuedToken, ProviderRestClient
from .scenario import AppSpec, Event, Scenario, load_scenario
from .transport import InProcessTransport, SwitchableTransport


@dataclass
class ScenarioReport:
    scenario: str
    passed: bool
    events: list[dict]
    apps: dict[str, dict]
    failures: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "pass": self.passed,
            "events": self.events,
            "apps": self.apps,
            "failures": self.failures,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


class _App:
    def __init__(self, spec: AppSpec, client: EnforcementClient):
        self.spec = spec
        self.client = client
        self.first_blocked_at: float | None = None
        self.bootstrap_error: str | None = None


class _Runner:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.clock = SimulatedClock()
        rng = Random(scenario.seed)
        self.providers: dict[str, ProviderService] = {}
        self.transports: dict[str, SwitchableTransport] = {}
        for seed_provider in scenario.providers:
            service = ProviderService(
                seed_provider.host,
                clock=self.clock,
                token_rng=Random(rng.getrandbits(64)),
                token_ttl_seconds=seed_provider.token_ttl_seconds,
            )
            self.providers[seed_provider.host] = service
            self.transports[seed_provider.host] = SwitchableTransport(
                InProcessTransport(ProviderApi(service)))
        self.brokers: dict[IntegrationMethod, StubBroker] = {}
        for spec in scenario.brokers:
            broker = StubBroker(spec.method.value, self.transports, enabled=spec.enabled)
            for host, account, secret in spec.authorizations:
                broker.authorize(host, account, secret)
            self.brokers[spec.method] = broker
        self._admin_tokens: dict[tuple[str, str], IssuedToken] = {}
        self._seed_providers()
        self.apps: dict[str, _App] = {}
        self.first_block_mutation_at: float | None = None
        for spec in scenario.applications:
            client = EnforcementClient(
                spec.integrations,
                transports=self.transports,
                credentials=spec.credentials,
                brokers=self.brokers,
                refresh_policy=spec.refresh_policy,
                clock=self.clock,
            )
            app = _App(spec, client)
            if spec.integrations:
                try:
                    client.refresh()
                except EmptyBlockSetError as exc:
                    app.bootstrap_error = str(exc)
            self.apps[spec.app_id] = app

    def _seed_providers(self) -> None:
        for seed_provider in self.scenario.providers:
            rest = ProviderRestClient(self.transports[seed_provider.host])
            for account in seed_provider.accounts:
                rest.create_account(account.account_name, account.secret)
                token = self._admin_token(seed_provider.host, account.account_name)
                for block_list in account.block_lists:
                    rest.create_block_list(token, account.account_name, block_list.name,
                                           block_list.strictness.value,
                                           block_list.rule_text)
                    for identifiers in block_list.contacts:
                        rest.add_contact(token, account.account_name, block_list.name,
                                         identifiers)

    def _admin_token(self, host: str, account: str) -> str:
        key = (host, account)
        cached = self._admin_tokens.get(key)
        if cached is not None and self.clock.now() < cached.expires_at:
            return cached.token
        rest = ProviderRestClient(self.transports[host])
        issued = rest.issue_token(account, self.scenario.account_secrets[key])
        self._admin_tokens[key] = issued
        return issued.token

    # --- event dispatch ---

    def run(self) -> ScenarioReport:
        report_events: list[dict] = []
        failures: list[dict] = []
        for event in self.scenario.events:
            self.clock.advance_to_offset(event.at)
            outcome = getattr(self, f"_run_{event.type}")(event)
            entry: dict = {"index": event.index, "at": event.at, "type": event.type}
            if "app" in event.fields:
                entry["app"] = event.fields["app"]
            entry["outcome"] = outcome
            if event.expect is not None:
                mismatches = self._check_expect(event, outcome)
                entry["expect"] = event.expect
                entry["pass"] = not mismatches
                if mismatches:
                    failures.append({"event": event.index, "mismatches": mismatches})
                    if event.type == "profile_appears" and "blocked" in event.expect:
                        entry["trace"] = self._explain(self.apps[event.fields["app"]],
                                                       event.fields["profile"])
            report_events.append(entry)
        apps_report = {}
        for app_id in sorted(self.apps):
            app = self.apps[app_id]
            latency = None
            if app.first_blocked_at is not None and self.first_block_mutation_at is not None:
                latency = app.first_blocked_at - self.first_block_mutation_at
            apps_report[app_id] = {
                "first_blocked_at": app.first_blocked_at,
                "propagation_latency_seconds": latency,
                "bootstrap_error": app.bootstrap_error,
            }
        return ScenarioReport(
            scenario=self.scenario.name,
            passed=not failures,
            events=report_events,
            apps=apps_report,
            failures=failures,
        )

    @staticmethod
    def _check_expect(event: Event, outcome: dict) -> list[dict]:
        mismatches = []
        for key, expected in event.expect.items():
            actual = outcome.get(key)
            if actual != expected:
                mismatches.append({"key": key, "expected": expected, "actual": actual})
        return mismatches

    def _explain(self, app: _App, profile: Profile) -> list[dict]:
        """Full predicate traces for every cached contact (attached on failures)."""
        explained = []
        for host, account, block_list, contact, result in app.client.evaluations(profile):
            row = {
                "provider": host,
                "account": account,
                "list": block_list.name,
                "contact_id": contact.contact_id,
            }
            if isinstance(result, EvalError):
                row["error"] = str(result)
            else:
                row["matched"] = result.matched
                row["trace"] = [o.as_dict() for o in result.trace]
            explained.append(row)
        return explained

    def _methods_map(self, app: _App) -> dict[str, str]:
        return {
            f"{host}/{account}": method.value
            for (host, account), method in sorted(app.client.last_fetch_methods.items())
        }

    def _refresh_outcome(self, app: _App, trigger: Trigger) -> dict:
        try:
            refreshed = app.client.maybe_refresh(trigger)
        except EmptyBlockSetError as exc:
            return {"refreshed": False, "error": str(exc)}
        outcome: dict = {"refreshed": refreshed}
        if refreshed:
            outcome["methods"] = self._methods_map(app)
            fetch_errors = [
                {"provider": f.provider_host, "account": f.account, "error": f.error}
                for f in app.client.blockset.errors
            ]
            if fetch_errors:
                outcome["fetch_errors"] = fetch_errors
        return outcome

    def _run_block_contact(self, event: Event) -> dict:
        fields = event.fields
        token = self._admin_token(fields["provider"], fields["account"])
        rest = ProviderRestClient(self.transports[fields["provider"]])
        created = rest.add_contact(token, fields["account"], fields["list"],
                                   fields["identifiers"])
        if self.first_block_mutation_at is None:
            self.first_block_mutation_at = event.at
        return {"contact_id": created["contact_id"]}

    def _run_remove_contact(self, event: Event) -> dict:
        fields = event.fields
        token = self._admin_token(fields["provider"], fields["account"])
        rest = ProviderRestClient(self.transports[fields["provider"]])
        rest.remove_contact(token, fields["account"], fields["list"],
                            fields["contact_id"])
        return {}

    def _run_set_rule(self, event: Event) -> dict:
        fields = event.fields
        token = self._admin_token(fields["provider"], fields["account"])
        rest = ProviderRestClient(self.transports[fields["provider"]])
        rest.set_rule(token, fields["account"], fields["list"], fields["rule_text"])
        return {}

    def _run_timer_tick(self, event: Event) -> dict:
        return self._refresh_outcome(self.apps[event.fields["app"]], Trigger.TIMER)

    def _run_manual_refresh(self, event: Event) -> dict:
        return self._refresh_outcome(self.apps[event.fields["app"]], Trigger.MANUAL)

    def _run_profile_appears(self, event: Event) -> dict:
        app = self.apps[event.fields["app"]]
        outcome = self._refresh_outcome(app, Trigger.REQUEST)
        decision = app.client.is_blocked(event.fields["profile"])
        outcome["blocked"] = decision.blocked
        outcome["match_count"] = len(decision.matches)
        outcome["matches"] = [
            {"provider": m.provider_host, "account": m.account, "list": m.list_name,
             "contact_id": m.contact_id}
            for m in decision.matches
        ]
        if decision.blocked and app.first_blocked_at is None:
            app.first_blocked_at = event.at
        return outcome

    def _run_login(self, event: Event) -> dict:
        app = self.apps[event.fields["app"]]
        for i, config in enumerate(event.fields["integrations"]):
            try:
                app.client.add_integration(config, event.fields["credentials"])
            except ValueError as exc:
                raise ScenarioError(str(exc),
                                    path=f"events[{event.index}].integrations[{i}]") from exc
        outcome = self._refresh_outcome(app, Trigger.LOGIN)
        report = app.client.on_blocked_user_login(event.fields["identifiers"])
        blockers = sorted(set(report.blockers))
        outcome["blocked_by"] = [
            {"provider": host, "account": account, "list": list_name}
            for host, account, list_name in blockers
        ]
        outcome["hidden_accounts"] = sorted({f"{acct}@{host}" for host, acct, _ in blockers})
        outcome["errors"] = [
            {"provider": host, "error": error} for host, error in report.errors
        ]
        outcome["error_count"] = len(report.errors)
        return outcome

    def _run_set_provider_down(self, event: Event) -> dict:
        self.transports[event.fields["provider"]].down = event.fields["down"]
        return {}

    def _run_set_broker_enabled(self, event: Event) -> dict:
        self.brokers[event.fields["broker"]].enabled = event.fields["enabled"]
        return {}

    def _run_remove_integration(self, event: Event) -> dict:
        app = self.apps[event.fields["app"]]
        app.client.remove_integration(event.fields["provider"], event.fields["account"])
        return {}

    def _run_advance(self, event: Event) -> dict:
        return {}


def run_scenario(source: str | Path | dict) -> ScenarioReport:
    """Validate and execute a scenario; deterministic for a given file."""
    scenario = load_scenario(source)
    return _Runner(scenario).run()
