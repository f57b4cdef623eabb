"""Request/response shapes and transports for reaching a provider.

The same typed request either crosses a real socket (HttpTransport) or goes
straight into a provider's router in-process, which is what keeps scenario
runs deterministic.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import weakref
from dataclasses import dataclass, field
from typing import Protocol
from urllib.parse import urlsplit

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


_MAX_IDLE = 4  # idle connections a transport keeps; a busier moment opens more


def _close_all(connections: list[http.client.HTTPConnection]) -> None:
    while connections:
        connections.pop().close()


def _readable(conn: http.client.HTTPConnection) -> bool:
    """Whether an idle connection has something to read: the server closed it."""
    poller = select.poll()
    poller.register(conn.sock, select.POLLIN)
    return bool(poller.poll(0))


class HttpTransport:
    """Talks to a live provider over HTTP/1.1, reusing idle connections.

    A request is never sent twice: a POST may already have been applied when
    its connection drops, so a dropped connection is a FetchError. Threads may
    share a transport; each request holds a connection of its own while it runs.
    """

    def __init__(self, base_url: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._lock = threading.Lock()
        self._idle: list[http.client.HTTPConnection] = []
        # callers (the CLI verbs, the benchmark) drop a transport without closing it
        weakref.finalize(self, _close_all, self._idle)

    def request(self, req: ApiRequest) -> ApiResponse:
        url = self.base_url + req.path
        conn, reusable = None, False
        try:
            split = urlsplit(self.base_url)
            conn = self._checkout(split.scheme, split.hostname, split.port)
            conn.request(req.method, split.path + req.path, req.body or None, req.headers)
            resp = conn.getresponse()
            answer = ApiResponse(resp.status, dict(resp.headers.items()), resp.read())
            reusable = not resp.will_close
        # a garbled answer, a dropped connection, or a base URL that names no HTTP host
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise FetchError(f"{req.method} {url}: {exc}") from exc
        finally:
            if conn is not None:
                self._checkin(conn, reusable)
        return answer

    def _checkout(self, scheme: str, host: str | None,
                  port: int | None) -> http.client.HTTPConnection:
        """The most recently used idle connection the server has not closed, or a new one."""
        with self._lock:
            while self._idle:
                conn = self._idle.pop()
                if not _readable(conn):
                    return conn
                conn.close()
        if scheme not in ("http", "https") or not host:
            raise ValueError("the base URL must be http:// or https:// and name a host")
        if scheme == "https":
            return http.client.HTTPSConnection(host, port, timeout=self.timeout)
        return http.client.HTTPConnection(host, port, timeout=self.timeout)

    def _checkin(self, conn: http.client.HTTPConnection, reusable: bool) -> None:
        with self._lock:
            if reusable and len(self._idle) < _MAX_IDLE:
                self._idle.append(conn)
                return
        conn.close()


class SwitchableTransport:
    """Wraps another transport with a kill switch, for simulating outages."""

    def __init__(self, inner: Transport, down: bool = False):
        self._inner = inner
        self.down = down

    def request(self, req: ApiRequest) -> ApiResponse:
        if self.down:
            raise FetchError("provider is unreachable")
        return self._inner.request(req)
