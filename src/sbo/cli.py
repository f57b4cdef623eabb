"""Operator CLI: drive a provider over REST and run end-to-end scenarios.

Verbs mirror the REST surface; errors arrive on stderr as the service's
{code, message} with a non-zero exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .client import EnforcementClient, parse_refresh_policy
from .crml import WireFormat, format_timestamp, parse_crml, parse_identifier_map, serialize_crml
from .errors import SBOError, RestApiError
from .identifiers import Profile, Strictness
from .provider import ProviderService
from .restclient import ProviderRestClient
from .rules import MatchThresholds
from .runner import run_scenario
from .scenario import load_integration_config, normalize_scenario_identifiers
from .transport import HttpTransport
from . import http_api


def _env(name: str, default: str | None = None) -> str | None:
    return os.environ.get(name, default)


def _rest(args) -> ProviderRestClient:
    return ProviderRestClient(HttpTransport(args.provider))


def _read_json(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _identifiers_from_file(path: str) -> dict:
    raw = _read_json(path)
    if "identifiers" in raw and isinstance(raw["identifiers"], dict):
        raw = raw["identifiers"]
    return normalize_scenario_identifiers(raw, "identifiers")


def cmd_serve(args) -> int:
    host, _, port = args.listen.rpartition(":")
    thresholds = MatchThresholds()
    if args.thresholds:
        thresholds = MatchThresholds.from_dict(json.loads(args.thresholds))
    service = ProviderService(
        args.provider_name,
        data_path=args.data_file,
        token_ttl_seconds=args.token_ttl,
        thresholds=thresholds,
    )
    server = http_api.serve(service, host or "127.0.0.1", int(port))
    actual = server.server_address
    print(f"serving {args.provider_name} on {actual[0]}:{actual[1]}"
          + ("" if args.data_file else " (ephemeral: no --data-file)"),
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    return 0


def cmd_create_account(args) -> int:
    name = _rest(args).create_account(args.account, args.secret)
    print(json.dumps({"account_name": name}))
    return 0


def cmd_issue_token(args) -> int:
    issued = _rest(args).issue_token(args.account, args.secret)
    print(json.dumps({
        "token": issued.token,
        "expires_at": format_timestamp(issued.expires_at),
    }))
    return 0


def cmd_create_list(args) -> int:
    record = _rest(args).create_block_list(
        args.token, args.account, args.name,
        Strictness(args.strictness).value, args.rule)
    print(json.dumps(record))
    return 0


def cmd_add_contact(args) -> int:
    identifiers = _identifiers_from_file(args.file)
    created = _rest(args).add_contact(args.token, args.account, args.list, identifiers)
    print(json.dumps(created))
    return 0


def cmd_set_rule(args) -> int:
    _rest(args).set_rule(args.token, args.account, args.list, args.rule)
    print(json.dumps({"rule_text": args.rule}))
    return 0


def cmd_export(args) -> int:
    lists = args.lists.split(",") if args.lists else None
    text, _etag = _rest(args).get_crml_text(args.token, args.account, lists)
    if args.format == "markup":
        doc = parse_crml(text, WireFormat.OBJECT)
        text = serialize_crml(doc, WireFormat.MARKUP)
    print(text)
    return 0


def cmd_blocked_by(args) -> int:
    identifiers = _identifiers_from_file(args.file)
    blockers = _rest(args).blocked_by(identifiers)
    print(json.dumps({"blockers": [
        {"account": account, "list": list_name} for account, list_name in blockers
    ]}))
    return 0


def cmd_check_profile(args) -> int:
    config = _read_json(args.config)
    transports = {}
    for entry in config.get("providers", []):
        base_url = entry.get("base_url") or f"http://{entry['provider_host']}"
        transports[entry["provider_host"]] = HttpTransport(base_url)
    integrations = [
        load_integration_config(entry, f"providers[{i}]")
        for i, entry in enumerate(config.get("providers", []))
    ]
    thresholds = MatchThresholds.from_dict(config.get("thresholds", {}))
    client = EnforcementClient(
        integrations,
        transports=transports,
        credentials=config.get("credentials", {}),
        refresh_policy=parse_refresh_policy(
            config.get("refresh_policy", {"type": "Manual"})),
        thresholds=thresholds,
    )
    client.refresh()
    raw_profile = _read_json(args.file)
    identifiers = normalize_scenario_identifiers(
        raw_profile.get("identifiers", raw_profile), "identifiers")
    profile = Profile(raw_profile.get("profile_id", "profile"),
                      parse_identifier_map(identifiers))
    decision = client.is_blocked(profile)
    print("BLOCKED" if decision.blocked else "NOT BLOCKED")
    print(json.dumps({
        "matches": [
            {
                "provider": m.provider_host, "account": m.account,
                "list": m.list_name, "contact_id": m.contact_id,
                "trace": [o.as_dict() for o in m.result.trace],
            }
            for m in decision.matches
        ],
        "eval_errors": [
            {"provider": e.provider_host, "account": e.account, "list": e.list_name,
             "contact_id": e.contact_id, "error": e.error}
            for e in decision.eval_errors
        ],
    }, indent=2))
    return 0


def cmd_run_scenario(args) -> int:
    report = run_scenario(args.file)
    text = report.to_json()
    if args.report:
        Path(args.report).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbo",
        description="Single Block On: provider service, admin verbs, scenario runner")
    sub = parser.add_subparsers(dest="verb", required=True)

    serve = sub.add_parser("serve", help="run a provider REST service")
    serve.add_argument("--listen", default=_env("SBO_LISTEN", "127.0.0.1:8080"),
                       help="host:port to bind (env SBO_LISTEN)")
    serve.add_argument("--provider-name",
                       default=_env("SBO_PROVIDER_NAME", "sbo.local"),
                       help="provider host name stamped into exports (env SBO_PROVIDER_NAME)")
    serve.add_argument("--data-file", default=_env("SBO_DATA_FILE"),
                       help="append-only log path; omit for ephemeral state (env SBO_DATA_FILE)")
    serve.add_argument("--token-ttl", type=int,
                       default=int(_env("SBO_TOKEN_TTL", "3600") or 3600),
                       help="bearer token lifetime in seconds (env SBO_TOKEN_TTL)")
    serve.add_argument("--thresholds", default=_env("SBO_THRESHOLDS"),
                       help='JSON thresholds override, e.g. {"text":{"Strict":0.95}}'
                            " (env SBO_THRESHOLDS)")
    serve.set_defaults(func=cmd_serve)

    def provider_arg(p):
        p.add_argument("--provider", required=True,
                       help="provider base URL, e.g. http://127.0.0.1:8080")

    def bearer_args(p):
        provider_arg(p)
        p.add_argument("--token", required=True)
        p.add_argument("--account", required=True)

    p = sub.add_parser("create-account", help="create a provider account")
    provider_arg(p)
    p.add_argument("--account", required=True)
    p.add_argument("--secret", required=True)
    p.set_defaults(func=cmd_create_account)

    p = sub.add_parser("issue-token", help="exchange account credentials for a bearer token")
    provider_arg(p)
    p.add_argument("--account", required=True)
    p.add_argument("--secret", required=True)
    p.set_defaults(func=cmd_issue_token)

    p = sub.add_parser("create-list", help="create a block list")
    bearer_args(p)
    p.add_argument("--name", required=True)
    p.add_argument("--strictness", required=True,
                   choices=[s.value for s in Strictness])
    p.add_argument("--rule", help="rule text; omitted uses the provider default")
    p.set_defaults(func=cmd_create_list)

    p = sub.add_parser("add-contact", help="add a contact to a block list")
    bearer_args(p)
    p.add_argument("--list", required=True)
    p.add_argument("--file", required=True, help="JSON identifiers map")
    p.set_defaults(func=cmd_add_contact)

    p = sub.add_parser("set-rule", help="replace a list's matching rule")
    bearer_args(p)
    p.add_argument("--list", required=True)
    p.add_argument("--rule", required=True)
    p.set_defaults(func=cmd_set_rule)

    p = sub.add_parser("export", help="export CRML for an account")
    bearer_args(p)
    p.add_argument("--lists", help="comma-separated list names (default: all)")
    p.add_argument("--format", choices=["object", "markup"], default="object")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("blocked-by", help="which accounts block these identifiers")
    provider_arg(p)
    p.add_argument("--file", required=True, help="JSON identifiers map")
    p.set_defaults(func=cmd_blocked_by)

    p = sub.add_parser("check-profile",
                       help="fetch block lists per client config and evaluate a profile")
    p.add_argument("--config", required=True, help="client configuration file")
    p.add_argument("--file", required=True, help="profile JSON file")
    p.set_defaults(func=cmd_check_profile)

    p = sub.add_parser("run-scenario", help="execute a scenario file and print the report")
    p.add_argument("file")
    p.add_argument("--report", help="also write the report JSON to this path")
    p.set_defaults(func=cmd_run_scenario)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RestApiError as exc:
        print(json.dumps({"code": exc.code, "message": str(exc)}), file=sys.stderr)
        return 1
    except SBOError as exc:
        print(json.dumps({"code": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
