from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sbo.errors import ScenarioError
from sbo.runner import run_scenario
from sbo.scenario import load_scenario

from .conftest import break_one_field

SCENARIOS = Path(__file__).parent.parent / "scenarios"
CORPUS = sorted(SCENARIOS.glob("*.json"))


def minimal_scenario(**overrides) -> dict:
    base = {
        "name": "tiny",
        "seed": 1,
        "providers": [{
            "host": "sbo.aws.com",
            "accounts": [{
                "account_name": "ann", "secret": "s",
                "block_lists": [{"name": "L", "strictness": "Medium", "contacts": []}],
            }],
        }],
        "applications": [{
            "app_id": "app",
            "integrations": [{
                "provider_host": "sbo.aws.com", "account_name": "ann",
                "method": "Direct", "priority_rank": 1, "credential_ref": "c"}],
            "credentials": {"c": "s"},
            "refresh_policy": {"type": "PerRequest"},
        }],
        "events": [],
    }
    base.update(overrides)
    return base


def test_corpus_exists():
    assert len(CORPUS) == 4


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_corpus_scenarios_pass(path):
    report = run_scenario(path)
    assert report.passed, report.to_json()


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_corpus_reports_are_deterministic(path):
    assert run_scenario(path).to_json() == run_scenario(path).to_json()


def test_corpus_covers_required_surface():
    """Methods x4, policies x4, multi-provider, priority override, blocked-user hiding."""
    methods, policies = set(), set()
    hosts_per_scenario = []
    saw_broker_toggle = saw_login_hiding = False
    for path in CORPUS:
        raw = json.loads(path.read_text())
        for app in raw.get("applications", []):
            policies.add(app["refresh_policy"]["type"])
            for integration in app.get("integrations", []):
                methods.add(integration["method"])
        hosts_per_scenario.append(len(raw.get("providers", [])))
        for event in raw.get("events", []):
            if event["type"] == "set_broker_enabled":
                saw_broker_toggle = True
            if event["type"] == "login" and event.get("expect", {}).get("blocked_by"):
                saw_login_hiding = True
            for integration in event.get("integrations", []):
                methods.add(integration["method"])
    assert methods == {"Direct", "SsoDelegated", "LdapDelegated", "LoginTimeProvided"}
    assert policies == {"Periodic", "OnLogin", "PerRequest", "Manual"}
    assert max(hosts_per_scenario) >= 2
    assert saw_broker_toggle and saw_login_hiding


def test_validation_rejects_decreasing_timestamps():
    scenario = minimal_scenario(events=[
        {"at": 5, "type": "advance"}, {"at": 4, "type": "advance"}])
    with pytest.raises(ScenarioError) as err:
        load_scenario(scenario)
    assert err.value.path == "events[1]"


def test_validation_rejects_undefined_app():
    scenario = minimal_scenario(events=[{"at": 0, "type": "timer_tick", "app": "ghost"}])
    with pytest.raises(ScenarioError) as err:
        load_scenario(scenario)
    assert err.value.path == "events[0]"


def test_validation_rejects_unknown_event_type():
    scenario = minimal_scenario(events=[{"at": 0, "type": "explode"}])
    with pytest.raises(ScenarioError):
        load_scenario(scenario)


def test_validation_rejects_undefined_block_list():
    scenario = minimal_scenario(events=[
        {"at": 0, "type": "block_contact", "provider": "sbo.aws.com",
         "account": "ann", "list": "nope", "identifiers": {"Username": "x"}}])
    with pytest.raises(ScenarioError):
        load_scenario(scenario)


def test_validation_rejects_bad_rule_text():
    scenario = minimal_scenario()
    scenario["providers"][0]["accounts"][0]["block_lists"][0]["rule_text"] = "BOGUS"
    with pytest.raises(ScenarioError) as err:
        load_scenario(scenario)
    assert "rule_text" in (err.value.path or "")


def test_validation_rejects_unknown_expect_key():
    scenario = minimal_scenario(events=[
        {"at": 0, "type": "timer_tick", "app": "app", "expect": {"shiny": 1}}])
    with pytest.raises(ScenarioError):
        load_scenario(scenario)


def test_validation_rejects_undefined_provider_in_integration():
    scenario = minimal_scenario()
    scenario["applications"][0]["integrations"][0]["provider_host"] = "sbo.ghost.com"
    with pytest.raises(ScenarioError):
        load_scenario(scenario)


def test_no_block_events_means_nothing_blocked():
    scenario = minimal_scenario(events=[
        {"at": 0, "type": "profile_appears", "app": "app",
         "profile": {"profile_id": "p", "identifiers": {"EmailId": "a@b.c"}},
         "expect": {"blocked": False}},
        {"at": 1, "type": "profile_appears", "app": "app",
         "profile": {"profile_id": "q", "identifiers": {"Username": "zed"}},
         "expect": {"blocked": False}},
    ])
    report = run_scenario(scenario)
    assert report.passed
    assert report.apps["app"]["first_blocked_at"] is None


def test_unsatisfiable_expectation_fails_with_trace():
    scenario = minimal_scenario(events=[
        {"at": 0, "type": "block_contact", "provider": "sbo.aws.com",
         "account": "ann", "list": "L",
         "identifiers": {"Username": "mallory"}},
        {"at": 1, "type": "profile_appears", "app": "app",
         "profile": {"profile_id": "p", "identifiers": {"Username": "zzzzzzz"}},
         "expect": {"blocked": True}},
    ])
    report = run_scenario(scenario)
    assert not report.passed
    assert report.failures[0]["event"] == 1
    failed_event = report.events[1]
    assert failed_event["pass"] is False
    assert failed_event["trace"], "predicate trace must be attached on failure"
    trace_row = failed_event["trace"][0]
    assert trace_row["contact_id"] == "c-001"
    assert any(not step["verdict"] for step in trace_row["trace"])


def test_failure_trace_reports_eval_errors():
    scenario = minimal_scenario(events=[
        {"at": 0, "type": "set_rule", "provider": "sbo.aws.com", "account": "ann",
         "list": "L", "rule_text": "Age GREATERTHAN 18"},
        {"at": 0, "type": "block_contact", "provider": "sbo.aws.com",
         "account": "ann", "list": "L", "identifiers": {"Age": "30"}},
        {"at": 1, "type": "profile_appears", "app": "app",
         "profile": {"profile_id": "p", "identifiers": {"Age": "ancient"}},
         "expect": {"blocked": True}},
    ])
    report = run_scenario(scenario)
    assert not report.passed
    [row] = report.events[2]["trace"]
    assert row["contact_id"] == "c-001"
    assert "error" in row and "trace" not in row and "matched" not in row


def test_pixel_identifiers_become_hashes():
    grid = [[0] * 8, [255] * 8] * 4
    scenario = minimal_scenario()
    scenario["providers"][0]["accounts"][0]["block_lists"][0] = {
        "name": "L", "strictness": "Medium", "rule_text": "ProfileImage MATCHES",
        "contacts": [{"identifiers": {"ProfileImage": {"pixels": grid}}}],
    }
    near = [row[:] for row in grid]
    near[1][0] = 0  # one flipped pixel, hamming distance 1
    scenario["events"] = [
        {"at": 0, "type": "profile_appears", "app": "app",
         "profile": {"profile_id": "p",
                     "identifiers": {"ProfileImage": {"pixels": near}}},
         "expect": {"blocked": True}},
    ]
    report = run_scenario(scenario)
    assert report.passed, report.to_json()


def test_provider_down_event_degrades_gracefully():
    scenario = minimal_scenario()
    scenario["providers"][0]["accounts"][0]["block_lists"][0]["rule_text"] = \
        "Username MATCHES"
    scenario["events"] = [
        {"at": 0, "type": "block_contact", "provider": "sbo.aws.com",
         "account": "ann", "list": "L", "identifiers": {"Username": "mallory"}},
        {"at": 1, "type": "profile_appears", "app": "app",
         "profile": {"profile_id": "p", "identifiers": {"Username": "mallory"}},
         "expect": {"blocked": True}},
        {"at": 2, "type": "set_provider_down", "provider": "sbo.aws.com", "down": True},
        {"at": 3, "type": "profile_appears", "app": "app",
         "profile": {"profile_id": "p", "identifiers": {"Username": "mallory"}},
         "expect": {"blocked": True}},  # stale cache still enforces
        {"at": 4, "type": "login", "app": "app",
         "user": {"user_id": "mallory", "identifiers": {"Username": "mallory"}},
         "expect": {"blocked_by": [], "error_count": 1}},
    ]
    report = run_scenario(scenario)
    assert report.passed, report.to_json()


def test_latency_reporting():
    report = run_scenario(SCENARIOS / "block_once_enforced_everywhere.json")
    latencies = {app: row["propagation_latency_seconds"]
                 for app, row in report.apps.items()}
    assert latencies == {"app-periodic": 30.0, "app-onlogin": 12.0,
                         "app-perrequest": 5.0, "app-manual": 50.0}


def _login(**fields) -> dict:
    return {"at": 0, "type": "login", "app": "app",
            "user": {"user_id": "u", "identifiers": {"Username": "x"}}, **fields}


_INF_GRID = [[1e400] * 8] * 8  # what json.loads makes of a file's 1e400: infinity

# (change to minimal_scenario(), the path the error must name)
_MALFORMED = {
    "seed-str": (lambda s: s.update(seed="abc"), "scenario"),
    "token-ttl-str": (lambda s: s["providers"][0].update(token_ttl_seconds="x"),
                      "providers[0]"),
    "token-ttl-overflows-clock": (
        lambda s: s["providers"][0].update(token_ttl_seconds=10**12), "providers[0]"),
    "broker-spec-list": (lambda s: s.update(brokers={"SsoDelegated": [1]}),
                         "brokers.SsoDelegated"),
    "broker-enabled-str": (lambda s: s.update(brokers={"SsoDelegated": {"enabled": "false"}}),
                           "brokers.SsoDelegated"),
    "seed-contact-int": (
        lambda s: s["providers"][0]["accounts"][0]["block_lists"][0].update(contacts=[1]),
        "providers[0].accounts[0].block_lists[0].contacts[0]"),
    "accounts-int": (lambda s: s["providers"][0].update(accounts=5), "providers[0]"),
    "credentials-list": (lambda s: s["applications"][0].update(credentials=[1]),
                         "applications[0]"),
    "periodic-null-interval": (
        lambda s: s["applications"][0].update(
            refresh_policy={"type": "Periodic", "interval_seconds": None}),
        "applications[0].refresh_policy"),
    "app-integrations-int": (lambda s: s["applications"][0].update(integrations=3),
                             "applications[0]"),
    "login-integrations-int": (lambda s: s.update(events=[_login(integrations=3)]),
                               "events[0]"),
    "app-list": (lambda s: s.update(events=[{"at": 0, "type": "timer_tick", "app": ["app"]}]),
                 "events[0]"),
    "provider-list": (lambda s: s.update(events=[{
        "at": 0, "type": "remove_contact", "provider": ["sbo.aws.com"], "account": "ann",
        "list": "L", "contact_id": "c-001"}]), "events[0]"),
    "at-overflows-clock": (lambda s: s.update(events=[{"at": 1e12, "type": "advance"}]),
                           "events[0]"),
    "at-nan": (lambda s: s.update(events=[{"at": float("nan"), "type": "advance"}]),
               "events[0]"),
    "infinite-pixel-grid": (lambda s: s.update(events=[{
        "at": 0, "type": "profile_appears", "app": "app",
        "profile": {"identifiers": {"ProfileImage": {"pixels": _INF_GRID}}}}]),
        "events[0].profile.identifiers.ProfileImage"),
}


@pytest.mark.parametrize("change, path", _MALFORMED.values(), ids=_MALFORMED)
def test_malformed_scenario_is_a_scenario_error_naming_its_path(change, path):
    scenario = minimal_scenario()
    change(scenario)
    with pytest.raises(ScenarioError) as err:
        load_scenario(scenario)
    assert err.value.path == path


def test_missing_scenario_file_is_a_scenario_error(tmp_path):
    with pytest.raises(ScenarioError, match="nope.json"):
        load_scenario(tmp_path / "nope.json")


_CORPUS_DOCS = [json.loads(path.read_text()) for path in CORPUS]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_loader_answers_any_broken_field_with_a_scenario_or_a_scenario_error(data):
    scenario = break_one_field(data, data.draw(st.sampled_from(_CORPUS_DOCS)))
    try:
        load_scenario(scenario)
    except ScenarioError as exc:
        assert str(exc)
