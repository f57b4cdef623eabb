from __future__ import annotations

import json
import socket
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sbo.cli import build_parser, main
from sbo.crml import WireFormat, parse_crml
from sbo.restclient import ProviderRestClient
from sbo.transport import HttpTransport

from .conftest import CANONICAL_RULE, break_one_field, make_service, serving

SCENARIOS = Path(__file__).parent.parent / "scenarios"


@pytest.fixture
def live_provider(tmp_path):
    with serving(make_service(tmp_path / "cli.jsonl")) as server:
        host, port = server.server_address
        yield f"http://{host}:{port}"


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _bootstrap(capsys, url) -> str:
    code, out, _ = run_cli(capsys, "create-account", "--provider", url,
                           "--account", "alexandergrahambell", "--secret", "s3cret")
    assert code == 0 and json.loads(out)["account_name"] == "alexandergrahambell"
    code, out, _ = run_cli(capsys, "issue-token", "--provider", url,
                           "--account", "alexandergrahambell", "--secret", "s3cret")
    assert code == 0
    return json.loads(out)["token"]


def test_admin_verbs_end_to_end(capsys, live_provider, tmp_path):
    url = live_provider
    token = _bootstrap(capsys, url)

    code, out, _ = run_cli(capsys, "create-list", "--provider", url, "--token", token,
                           "--account", "alexandergrahambell", "--name", "Block List 1",
                           "--strictness", "Medium", "--rule", CANONICAL_RULE)
    assert code == 0 and json.loads(out)["name"] == "Block List 1"

    ids_file = tmp_path / "ids.json"
    ids_file.write_text(json.dumps({
        "FullName": "John Smith", "PhoneNumber": "15550100000",
        "Username": "jsmith", "EmailId": "john.smith@example.com"}))
    code, out, _ = run_cli(capsys, "add-contact", "--provider", url, "--token", token,
                           "--account", "alexandergrahambell", "--list", "Block List 1",
                           "--file", str(ids_file))
    assert code == 0 and json.loads(out)["contact_id"] == "c-001"

    code, out, _ = run_cli(capsys, "export", "--provider", url, "--token", token,
                           "--account", "alexandergrahambell")
    assert code == 0
    doc = parse_crml(out.strip(), WireFormat.OBJECT)
    assert doc.provider == "sbo.aws.com"
    assert doc.block_lists[0].contacts[0].contact_id == "c-001"

    code, out, _ = run_cli(capsys, "export", "--provider", url, "--token", token,
                           "--account", "alexandergrahambell", "--format", "markup")
    assert code == 0
    assert parse_crml(out.strip(), WireFormat.MARKUP) == doc

    code, out, _ = run_cli(capsys, "set-rule", "--provider", url, "--token", token,
                           "--account", "alexandergrahambell", "--list", "Block List 1",
                           "--rule", "EmailId EQUALS")
    assert code == 0

    blocked_file = tmp_path / "query.json"
    blocked_file.write_text(json.dumps({"EmailId": "john.smith@example.com"}))
    code, out, _ = run_cli(capsys, "blocked-by", "--provider", url,
                           "--file", str(blocked_file))
    assert code == 0
    assert json.loads(out) == {"blockers": [
        {"account": "alexandergrahambell", "list": "Block List 1"}]}


def test_cli_service_error_on_stderr(capsys, live_provider):
    url = live_provider
    _bootstrap(capsys, url)
    code, _out, err = run_cli(capsys, "create-account", "--provider", url,
                              "--account", "alexandergrahambell", "--secret", "x")
    assert code == 1
    payload = json.loads(err)
    assert payload["code"] == "Conflict"


def test_cli_bad_rule_reports_rule_error(capsys, live_provider):
    url = live_provider
    token = _bootstrap(capsys, url)
    code, _out, err = run_cli(capsys, "create-list", "--provider", url,
                              "--token", token, "--account", "alexandergrahambell",
                              "--name", "L", "--strictness", "Medium",
                              "--rule", "FullName BOGUS")
    assert code == 1
    assert json.loads(err)["code"] == "RuleError"


def test_check_profile_blocked_and_not(capsys, live_provider, tmp_path):
    url = live_provider
    token = _bootstrap(capsys, url)
    run_cli(capsys, "create-list", "--provider", url, "--token", token,
            "--account", "alexandergrahambell", "--name", "Block List 1",
            "--strictness", "Medium")
    ids_file = tmp_path / "ids.json"
    ids_file.write_text(json.dumps({"EmailId": "mallory@example.com"}))
    run_cli(capsys, "add-contact", "--provider", url, "--token", token,
            "--account", "alexandergrahambell", "--list", "Block List 1",
            "--file", str(ids_file))

    config_file = tmp_path / "client.json"
    config_file.write_text(json.dumps({
        "providers": [{
            "provider_host": "sbo.aws.com", "base_url": url,
            "account_name": "alexandergrahambell", "method": "Direct",
            "priority_rank": 1, "credential_ref": "cred"}],
        "credentials": {"cred": "s3cret"},
        "refresh_policy": {"type": "Manual"},
    }))
    profile_file = tmp_path / "profile.json"
    profile_file.write_text(json.dumps({
        "profile_id": "mallory",
        "identifiers": {"EmailId": "Mallory@Example.com"}}))
    code, out, _ = run_cli(capsys, "check-profile", "--config", str(config_file),
                           "--file", str(profile_file))
    assert code == 0
    first_line, _, rest = out.partition("\n")
    assert first_line == "BLOCKED"
    detail = json.loads(rest)
    assert detail["matches"][0]["contact_id"] == "c-001"
    assert detail["matches"][0]["trace"]

    profile_file.write_text(json.dumps({"identifiers": {"EmailId": "ok@example.com"}}))
    code, out, _ = run_cli(capsys, "check-profile", "--config", str(config_file),
                           "--file", str(profile_file))
    assert code == 0
    assert out.startswith("NOT BLOCKED")


def test_run_scenario_exit_codes(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "run-scenario",
                           str(SCENARIOS / "block_once_enforced_everywhere.json"))
    assert code == 0
    assert json.loads(out)["pass"] is True

    failing = {
        "name": "will fail", "seed": 1,
        "providers": [{"host": "h", "accounts": [{
            "account_name": "a", "secret": "s",
            "block_lists": [{"name": "L", "strictness": "Medium", "contacts": []}]}]}],
        "applications": [{
            "app_id": "app",
            "integrations": [{"provider_host": "h", "account_name": "a",
                              "method": "Direct", "priority_rank": 1,
                              "credential_ref": "c"}],
            "credentials": {"c": "s"},
            "refresh_policy": {"type": "PerRequest"}}],
        "events": [{"at": 0, "type": "profile_appears", "app": "app",
                    "profile": {"profile_id": "p",
                                "identifiers": {"EmailId": "x@y.z"}},
                    "expect": {"blocked": True}}],
    }
    scenario_file = tmp_path / "fail.json"
    scenario_file.write_text(json.dumps(failing))
    report_file = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "run-scenario", str(scenario_file),
                           "--report", str(report_file))
    assert code == 1
    assert json.loads(report_file.read_text())["pass"] is False


def test_run_scenario_validation_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "events": [{"at": 0, "type": "nope"}]}))
    code, _out, err = run_cli(capsys, "run-scenario", str(bad))
    assert code == 1
    assert json.loads(err)["code"] == "ScenarioError"


def test_serve_subprocess_with_env_config(tmp_path):
    """`sbo serve` as a real process, configured through the environment."""
    import os
    import subprocess
    import sys

    import sbo

    # the child imports the same sbo as this test, however pytest found it
    package_root = str(Path(sbo.__file__).resolve().parents[1])
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")])),
        "SBO_LISTEN": "127.0.0.1:0",
        "SBO_PROVIDER_NAME": "sbo.env.example",
        "SBO_DATA_FILE": str(tmp_path / "env.jsonl"),
        "SBO_TOKEN_TTL": "120",
    })
    proc = subprocess.Popen(
        [sys.executable, "-m", "sbo.cli", "serve"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        banner = proc.stdout.readline().strip()
        assert banner.startswith("serving sbo.env.example on 127.0.0.1:")
        port = int(banner.split(":")[-1])
        from sbo.restclient import ProviderRestClient
        from sbo.transport import HttpTransport
        rest = ProviderRestClient(HttpTransport(f"http://127.0.0.1:{port}"))
        rest.create_account("bell", "pw")
        token = rest.issue_token("bell", "pw")
        rest.create_block_list(token.token, "bell", "L", "Medium")
        doc, _etag = rest.get_crml(token.token, "bell")
        assert doc.provider == "sbo.env.example"
        assert (tmp_path / "env.jsonl").exists()
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


def _file(tmp_path, content, name="input.json") -> str:
    path = tmp_path / name
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


def _assert_status_line(code: int, out: str, err: str) -> dict:
    assert code == 1 and out == ""
    [line] = err.splitlines()
    error = json.loads(line)
    assert isinstance(error["code"], str) and isinstance(error["message"], str)
    return error


# Each input is refused before any request is sent, so this address is never dialled.
_BEARER = ("--provider", "http://127.0.0.1:9", "--token", "t", "--account", "a")

# (argv builder given tmp_path, the error code the CLI must print)
_BAD_INPUTS = {
    "add-contact-file-not-json": (lambda t: [
        "add-contact", *_BEARER, "--list", "L", "--file", _file(t, "{not json")],
        "ScenarioError"),
    "add-contact-file-json-list": (lambda t: [
        "add-contact", *_BEARER, "--list", "L", "--file", _file(t, [{"Username": "x"}])],
        "ScenarioError"),
    "check-profile-config-without-provider-host": (lambda t: [
        "check-profile", "--file", _file(t, {"Username": "x"}), "--config",
        _file(t, {"providers": [{"account_name": "a", "method": "Direct",
                                 "priority_rank": 1}]}, "config.json")],
        "ScenarioError"),
    "blocked-by-missing-file": (lambda t: [
        "blocked-by", "--provider", "http://127.0.0.1:9", "--file", str(t / "missing.json")],
        "ScenarioError"),
    "blocked-by-provider-not-a-url": (lambda t: [
        "blocked-by", "--provider", "nowhere", "--file", _file(t, {"Username": "x"})],
        "FetchError"),
    "run-scenario-missing-file": (lambda t: ["run-scenario", str(t / "missing.json")],
                                  "ScenarioError"),
    "serve-thresholds-not-json": (lambda t: [
        "serve", "--listen", "127.0.0.1:0", "--thresholds", "{text"], "ScenarioError"),
    "serve-thresholds-wrong-type": (lambda t: [
        "serve", "--listen", "127.0.0.1:0", "--thresholds", '{"text": {"Strict": "high"}}'],
        "ScenarioError"),
    "serve-thresholds-out-of-order": (lambda t: [
        "serve", "--listen", "127.0.0.1:0", "--thresholds", '{"text": {"Medium": 0.95}}'],
        "ScenarioError"),
    "serve-listen-without-port": (lambda t: ["serve", "--listen", "localhost"],
                                  "ScenarioError"),
    "serve-listen-named-port": (lambda t: ["serve", "--listen", "127.0.0.1:http"],
                                "ScenarioError"),
}


@pytest.mark.parametrize("argv, error_code", _BAD_INPUTS.values(), ids=_BAD_INPUTS)
def test_bad_input_is_a_status_line_and_exit_1(capsys, tmp_path, argv, error_code):
    code, out, err = run_cli(capsys, *argv(tmp_path))
    assert _assert_status_line(code, out, err)["code"] == error_code


def test_bad_token_ttl_variable_fails_only_serve(capsys, monkeypatch):
    monkeypatch.setenv("SBO_TOKEN_TTL", "abc")
    code, _out, _err = run_cli(capsys, "run-scenario", str(SCENARIOS / "priority_override.json"))
    assert code == 0
    with pytest.raises(SystemExit) as exit_:
        main(["serve", "--listen", "127.0.0.1:0"])
    assert exit_.value.code == 2
    assert "--token-ttl" in capsys.readouterr().err


@pytest.fixture(scope="module")
def fuzz_provider():
    """(host:port, token) of a loopback provider with account bell and list L."""
    with serving(make_service(pbkdf2_iterations=1)) as server:
        host, port = server.server_address
        rest = ProviderRestClient(HttpTransport(f"http://{host}:{port}"))
        rest.create_account("bell", "pw")
        token = rest.issue_token("bell", "pw").token
        rest.create_block_list(token, "bell", "L", "Medium")
        yield f"{host}:{port}", token


_GRID = [[0] * 8, [255] * 8] * 4
_PROFILE = {"profile_id": "p", "identifiers": {
    "EmailId": "mallory@example.com", "Username": "mallory", "ProfileImage": {"pixels": _GRID}}}
_SCENARIO_DOCS = [json.loads(path.read_text()) for path in sorted(SCENARIOS.glob("*.json"))]


def _client_config(host_port: str) -> dict:
    # provider_host is the loopback address too, so no field left out reaches another host
    return {
        "providers": [{"provider_host": host_port, "base_url": f"http://{host_port}",
                       "account_name": "bell", "method": "Direct", "priority_rank": 1,
                       "credential_ref": "c"}],
        "credentials": {"c": "pw"},
        "refresh_policy": {"type": "Periodic", "interval_seconds": 30},
        "thresholds": {"text": {"Strict": 0.95}, "image": {"Lenient": 20}},
    }


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_answers_any_broken_input_file_with_a_result_or_a_status_line(
        data, capsys, tmp_path, fuzz_provider):
    host_port, token = fuzz_provider
    url = f"http://{host_port}"
    verb = data.draw(st.sampled_from(["add-contact", "blocked-by", "check-profile --config",
                                      "check-profile --file", "run-scenario"]))
    if verb == "run-scenario":
        argv = [verb, _file(tmp_path, break_one_field(data, data.draw(
            st.sampled_from(_SCENARIO_DOCS))))]
    elif verb.startswith("check-profile"):
        config, profile = _client_config(host_port), _PROFILE
        if verb.endswith("--config"):
            config = break_one_field(data, config)
        else:
            profile = break_one_field(data, profile)
        argv = ["check-profile", "--config", _file(tmp_path, config, "config.json"),
                "--file", _file(tmp_path, profile)]
    else:
        bearer = ["--token", token, "--account", "bell", "--list", "L"]
        argv = [verb, "--provider", url, *(bearer if verb == "add-contact" else []),
                "--file", _file(tmp_path, break_one_field(data, _PROFILE))]
    code, out, err = run_cli(capsys, *argv)
    if err:
        _assert_status_line(code, out, err)
    else:
        assert code == 0 or json.loads(out)["pass"] is False


def test_out_of_range_token_ttl_is_a_usage_error_of_serve(capsys, monkeypatch):
    # parse only: a serve that accepted the value would run until killed
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args(["serve", "--token-ttl", str(10**12)])
    assert exit_.value.code == 2
    assert "--token-ttl" in capsys.readouterr().err
    monkeypatch.setenv("SBO_TOKEN_TTL", "0")
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args(["serve"])
    assert exit_.value.code == 2
    code, _out, _err = run_cli(capsys, "run-scenario", str(SCENARIOS / "priority_override.json"))
    assert code == 0


def test_serve_on_a_port_in_use_is_a_status_line(capsys, tmp_path):
    # a service left open would leak its data file, which the test settings report
    with socket.create_server(("127.0.0.1", 0)) as holder:
        port = holder.getsockname()[1]
        code, out, err = run_cli(capsys, "serve", "--listen", f"127.0.0.1:{port}",
                                 "--data-file", str(tmp_path / "busy.jsonl"))
    error = _assert_status_line(code, out, err)
    assert error["code"] == "ScenarioError" and str(port) in error["message"]


def test_serve_on_a_corrupt_data_file_is_a_status_line(capsys, tmp_path):
    data_file = tmp_path / "sbo.jsonl"
    data_file.write_text('{"kind":"create_account","at":"2025-01-01T00:00:00Z"}\n')
    code, out, err = run_cli(capsys, "serve", "--listen", "127.0.0.1:0",
                             "--data-file", str(data_file))
    error = _assert_status_line(code, out, err)  # refused at boot, before it listens
    assert error["code"] == "StoreError" and "line 1: corrupt record" in error["message"]


def test_report_into_a_missing_directory_is_refused_before_the_run(capsys, tmp_path):
    code, out, err = run_cli(capsys, "run-scenario", str(SCENARIOS / "priority_override.json"),
                             "--report", str(tmp_path / "missing" / "r.json"))
    error = _assert_status_line(code, out, err)  # nothing on stdout: the run never started
    assert error["code"] == "ScenarioError" and "missing" in error["message"]
