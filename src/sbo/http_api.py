"""REST surface of a provider: routing, error mapping, and an HTTP server.

The router is a pure function from ApiRequest to ApiResponse so it can be
served over a socket or called in-process; both paths share every code path
below the routing table.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlsplit

from .crml import WireFormat, encode_block_list, encode_contact, format_timestamp, serialize_crml
from .errors import (
    NotFoundError,
    RuleError,
    SchemaError,
    ServiceError,
    UnauthorizedError,
    ValidationError,
)
from .identifiers import Strictness
from .provider import ProviderService
from .transport import ApiRequest, ApiResponse

_JSON = {"Content-Type": "application/json"}


def _json_body(payload: object) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def _ok(status: int, payload: object, headers: dict[str, str] | None = None) -> ApiResponse:
    return ApiResponse(status, {**_JSON, **(headers or {})}, _json_body(payload))


class ProviderApi:
    """Maps the REST surface onto a ProviderService."""

    def __init__(self, service: ProviderService):
        self.service = service

    def handle(self, req: ApiRequest) -> ApiResponse:
        try:
            return self._route(req)
        except RuleError as exc:
            return _ok(400, {"code": "RuleError", "message": str(exc),
                             "path": exc.list_name})
        except SchemaError as exc:
            return _ok(400, {"code": "SchemaError", "message": str(exc)})
        except ServiceError as exc:
            return _ok(exc.http_status, exc.to_wire())

    def _route(self, req: ApiRequest) -> ApiResponse:
        split = urlsplit(req.path)
        segments = [unquote(part) for part in split.path.strip("/").split("/")]
        query = parse_qs(split.query)
        method = req.method.upper()

        if segments[:1] != ["v1"]:
            raise NotFoundError(f"no such endpoint: {split.path}")
        rest = segments[1:]

        if rest == ["accounts"] and method == "POST":
            body = self._body(req)
            name = self.service.create_account(
                self._field(body, "account_name"), self._field(body, "secret"))
            return _ok(201, {"account_name": name})

        if rest == ["tokens"] and method == "POST":
            body = self._body(req)
            grant = self.service.issue_token(
                self._field(body, "account_name"), self._field(body, "secret"))
            return _ok(200, {
                "token": grant.token,
                "expires_at": format_timestamp(grant.expires_at),
            })

        if rest == ["blocked-by"] and method == "POST":
            body = self._body(req)
            identifiers = body.get("identifiers")
            if not isinstance(identifiers, dict):
                raise ValidationError("body must carry an identifiers object")
            blockers = self.service.blocked_by(identifiers)
            return _ok(200, {"blockers": [
                {"account": account, "list": list_name} for account, list_name in blockers
            ]})

        if len(rest) >= 2 and rest[0] == "accounts":
            account = rest[1]
            token = self._bearer(req)

            if rest[2:] == ["blocklists"] and method == "POST":
                body = self._body(req)
                strictness = self._strictness(self._field(body, "strictness"))
                record = self.service.create_block_list(
                    token, self._field(body, "name"), strictness,
                    self._field(body, "rule_text", required=False), account_name=account)
                return _ok(201, encode_block_list(record))

            if len(rest) == 5 and rest[2] == "blocklists" and rest[4] == "contacts" \
                    and method == "POST":
                body = self._body(req)
                identifiers = body.get("identifiers")
                if not isinstance(identifiers, dict):
                    raise ValidationError("body must carry an identifiers object")
                contact = self.service.add_contact(
                    token, rest[3], identifiers, account_name=account)
                return _ok(201, encode_contact(contact))

            if len(rest) == 6 and rest[2] == "blocklists" and rest[4] == "contacts" \
                    and method == "DELETE":
                self.service.remove_contact(token, rest[3], rest[5], account_name=account)
                return ApiResponse(204, {}, b"")

            if len(rest) == 5 and rest[2] == "blocklists" and rest[4] == "rule" \
                    and method == "PUT":
                body = self._body(req)
                rule_text = self._field(body, "rule_text")
                self.service.set_rule(token, rest[3], rule_text, account_name=account)
                return _ok(200, {"rule_text": rule_text})

            if rest[2:] == ["crml"] and method == "GET":
                list_names = None
                if "lists" in query:
                    list_names = [n for n in query["lists"][0].split(",") if n]
                doc, digest = self.service.export_with_digest(
                    token, list_names, account_name=account)
                if req.header("If-None-Match") == digest:
                    return ApiResponse(304, {"ETag": digest}, b"")
                text = serialize_crml(doc, WireFormat.OBJECT)
                return ApiResponse(200, {**_JSON, "ETag": digest}, text.encode("utf-8"))

        raise NotFoundError(f"no such endpoint: {req.method} {split.path}")

    @staticmethod
    def _body(req: ApiRequest) -> dict:
        try:
            body = json.loads(req.body.decode("utf-8") or "null")
        # ValueError also covers integers with too many digits; RecursionError, deep nesting
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise ValidationError("request body must be a JSON object")
        return body

    @staticmethod
    def _field(body: dict, name: str, required: bool = True) -> str | None:
        value = body.get(name)
        if value is None and not required:
            return None
        if not isinstance(value, str):
            raise ValidationError(f"missing or non-string field {name!r}", path=name)
        return value

    @staticmethod
    def _strictness(raw: str) -> Strictness:
        try:
            return Strictness(raw)
        except ValueError:
            raise ValidationError(f"unknown strictness {raw!r}", path="strictness") from None

    @staticmethod
    def _bearer(req: ApiRequest) -> str:
        header = req.header("Authorization") or ""
        if not header.startswith("Bearer "):
            raise UnauthorizedError("missing bearer token")
        return header[len("Bearer "):]


_MAX_BODY = 1 << 20  # bytes; no request of this API comes near it


class _Handler(BaseHTTPRequestHandler):
    api: ProviderApi  # set by serve()
    timeout = 30  # seconds a connection may stall mid-request before it is closed

    def _dispatch(self) -> None:
        length = (self.headers.get("Content-Length") or "0").strip()
        # 7 digits hold the cap and keep int() far from its 4,300-digit limit
        if re.fullmatch(r"[0-9]{1,7}", length) and int(length) <= _MAX_BODY:
            body = self.rfile.read(int(length))
            resp = self.api.handle(
                ApiRequest(self.command, self.path, dict(self.headers.items()), body))
        else:
            resp = _ok(400, ValidationError(
                f"Content-Length must be an integer from 0 to {_MAX_BODY}").to_wire())
        self.send_response(resp.status)
        for key, value in resp.headers.items():
            self.send_header(key, value)
        self.send_header("Content-Length", str(len(resp.body)))
        self.end_headers()
        if resp.body:
            self.wfile.write(resp.body)

    do_GET = do_POST = do_PUT = do_DELETE = _dispatch

    def log_message(self, format: str, *args) -> None:  # quiet by default
        pass


def serve(service: ProviderService, host: str = "127.0.0.1", port: int = 8080) -> ThreadingHTTPServer:
    """Serve the provider REST API; returns the server (caller owns shutdown)."""
    api = ProviderApi(service)
    handler = type("BoundHandler", (_Handler,), {"api": api})
    return ThreadingHTTPServer((host, port), handler)


def serve_forever_in_thread(server: ThreadingHTTPServer) -> threading.Thread:
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread
