"""Typed calls against the provider REST surface, over any transport."""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime
from urllib.parse import quote

from .crml import CRMLDocument, WireFormat, parse_crml, parse_timestamp
from .errors import CRMLSyntaxError, RestApiError
from .transport import ApiRequest, ApiResponse, Transport

_JSON = {"Content-Type": "application/json"}


@dataclass(frozen=True)
class IssuedToken:
    token: str
    expires_at: datetime


class ProviderRestClient:
    def __init__(self, transport: Transport):
        self.transport = transport

    def create_account(self, account_name: str, secret: str) -> str:
        body = self._post("/v1/accounts", {"account_name": account_name, "secret": secret})
        return body["account_name"]

    def issue_token(self, account_name: str, secret: str) -> IssuedToken:
        body = self._post("/v1/tokens", {"account_name": account_name, "secret": secret})
        return IssuedToken(body["token"], parse_timestamp(body["expires_at"]))

    def create_block_list(self, token: str, account: str, name: str, strictness: str,
                          rule_text: str | None = None) -> dict:
        payload: dict = {"name": name, "strictness": strictness}
        if rule_text is not None:
            payload["rule_text"] = rule_text
        return self._post(f"/v1/accounts/{quote(account, safe='')}/blocklists",
                          payload, token=token)

    def add_contact(self, token: str, account: str, list_name: str,
                    identifiers: dict) -> dict:
        path = (f"/v1/accounts/{quote(account, safe='')}/blocklists/"
                f"{quote(list_name, safe='')}/contacts")
        return self._post(path, {"identifiers": identifiers}, token=token)

    def remove_contact(self, token: str, account: str, list_name: str,
                       contact_id: str) -> None:
        path = (f"/v1/accounts/{quote(account, safe='')}/blocklists/"
                f"{quote(list_name, safe='')}/contacts/{quote(contact_id, safe='')}")
        self._request("DELETE", path, token=token)

    def set_rule(self, token: str, account: str, list_name: str, rule_text: str) -> None:
        path = (f"/v1/accounts/{quote(account, safe='')}/blocklists/"
                f"{quote(list_name, safe='')}/rule")
        self._request("PUT", path, body={"rule_text": rule_text}, token=token)

    def get_crml_text(self, token: str, account: str, lists: list[str] | None = None,
                      if_none_match: str | None = None) -> tuple[str | None, str]:
        """Raw object-format text plus its ETag; text is None on 304."""
        path = f"/v1/accounts/{quote(account, safe='')}/crml"
        if lists:
            path += "?lists=" + quote(",".join(lists), safe=",")
        headers = dict(_JSON)
        if if_none_match is not None:
            headers["If-None-Match"] = if_none_match
        resp = self._raw("GET", path, headers, b"", token=token)
        etag = resp.header("ETag") or ""
        if resp.status == 304:
            return None, etag
        self._check(resp)
        try:
            return resp.body.decode("utf-8"), etag
        except UnicodeDecodeError as exc:
            raise CRMLSyntaxError(f"CRML body is not UTF-8 at byte {exc.start}") from exc

    def get_crml(self, token: str, account: str, lists: list[str] | None = None,
                 if_none_match: str | None = None) -> tuple[CRMLDocument | None, str]:
        text, etag = self.get_crml_text(token, account, lists, if_none_match)
        if text is None:
            return None, etag
        return parse_crml(text, WireFormat.OBJECT), etag

    def blocked_by(self, identifiers: dict) -> list[tuple[str, str]]:
        body = self._post("/v1/blocked-by", {"identifiers": identifiers})
        return [(entry["account"], entry["list"]) for entry in body["blockers"]]

    # --- plumbing ---

    def _post(self, path: str, payload: dict, token: str | None = None) -> dict:
        return self._request("POST", path, body=payload, token=token) or {}

    def _request(self, method: str, path: str, body: dict | None = None,
                 token: str | None = None) -> dict | None:
        headers = dict(_JSON)
        raw = json.dumps(body).encode("utf-8") if body is not None else b""
        resp = self._raw(method, path, headers, raw, token=token)
        self._check(resp)
        if resp.status == 204 or not resp.body:
            return None
        return resp.json()

    def _raw(self, method: str, path: str, headers: dict, body: bytes,
             token: str | None = None) -> ApiResponse:
        if token is not None:
            headers["Authorization"] = f"Bearer {token}"
        return self.transport.request(ApiRequest(method, path, headers, body))

    @staticmethod
    def _check(resp: ApiResponse) -> None:
        if resp.status < 400:
            return
        try:
            payload = resp.json()
        except (ValueError, UnicodeDecodeError):
            payload = {}
        raise RestApiError(
            payload.get("code", "HttpError"),
            payload.get("message", f"HTTP {resp.status}"),
            status=resp.status,
            path=payload.get("path"),
        )
