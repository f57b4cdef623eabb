"""Request/response shapes and transports for reaching a provider.

The same typed request either crosses a real socket (HttpTransport) or goes
straight into a provider's router in-process, which is what keeps scenario
runs deterministic.
"""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Protocol

from .errors import FetchError


class _HeaderLookup:
    headers: dict[str, str]

    def header(self, name: str) -> str | None:
        """The value of a header, matched case-insensitively."""
        wanted = name.lower()
        return next((v for k, v in self.headers.items() if k.lower() == wanted), None)


@dataclass
class ApiRequest(_HeaderLookup):
    method: str
    path: str  # percent-encoded, may include a query string
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""


@dataclass
class ApiResponse(_HeaderLookup):
    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> object:
        return json.loads(self.body.decode("utf-8"))


class Transport(Protocol):
    def request(self, req: ApiRequest) -> ApiResponse: ...


class InProcessTransport:
    """Routes requests directly into a provider API object, no sockets."""

    def __init__(self, api):
        self._api = api

    def request(self, req: ApiRequest) -> ApiResponse:
        return self._api.handle(req)


class HttpTransport:
    """Talks to a live provider over HTTP via urllib."""

    def __init__(self, base_url: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def request(self, req: ApiRequest) -> ApiResponse:
        url = self.base_url + req.path
        try:
            http_req = urllib.request.Request(url, data=req.body or None, method=req.method,
                                              headers=req.headers)
            with urllib.request.urlopen(http_req, timeout=self.timeout) as resp:
                return ApiResponse(resp.status, dict(resp.headers.items()), resp.read())
        except urllib.error.HTTPError as exc:
            # 4xx/5xx and 304 still carry a meaningful response
            return ApiResponse(exc.code, dict(exc.headers.items()), exc.read())
        # a garbled answer, or a base URL urllib cannot use
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise FetchError(f"{req.method} {url}: {exc}") from exc


class SwitchableTransport:
    """Wraps another transport with a kill switch, for simulating outages."""

    def __init__(self, inner: Transport, down: bool = False):
        self._inner = inner
        self.down = down

    def request(self, req: ApiRequest) -> ApiResponse:
        if self.down:
            raise FetchError("provider is unreachable")
        return self._inner.request(req)
