from __future__ import annotations

import json
from pathlib import Path

import pytest

from sbo.cli import main
from sbo.crml import WireFormat, parse_crml

from .conftest import CANONICAL_RULE, make_service, serving

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
