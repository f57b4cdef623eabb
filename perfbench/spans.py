"""Spans recorded from outside the program, for the traced benchmark run.

The tracer wraps public functions of ``sbo`` where their callers look them
up (``sbo.client.evaluate_rule``, ``ProviderApi.handle``, ...). Nothing under
``src/`` changes; an untraced run installs no wrapper at all.

* Call boundaries of whole operations (``client.is_blocked``,
  ``transport.request``, ``http_api.handle``, ...) are kept as spans: name,
  route, start, end, parent span and request id. They stay in memory and are
  written out when the run ends.
* Hot inner functions (``rules.evaluate_rule``, ``similarity.text_similarity``,
  ...) run thousands of times per operation; they are aggregated into call
  counts and busy time instead of one span each, which keeps memory flat.
* Self time is a call's duration minus the time its child calls cover.
  Server-side spans run on the HTTP server's threads; they are linked to the
  client ``transport.request`` span in flight on the same route, and the
  transport span's duration minus the handler's is the wire time.

Each thread keeps its own stack and tallies, merged only at the end, so the
hot path takes no lock.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from urllib.parse import urlsplit

ROUTES = ("post_contacts", "delete_contact", "get_crml_200", "get_crml_304",
          "post_blocked_by", "post_tokens")


def route_of(method: str, path: str, status: int | None = None) -> str:
    """Route key of a request; GET /crml is split by its response status."""
    parts = urlsplit(path).path.strip("/").split("/")
    method = method.upper()
    if parts == ["v1", "tokens"]:
        return "post_tokens"
    if parts == ["v1", "blocked-by"]:
        return "post_blocked_by"
    if parts[-1:] == ["crml"]:
        return "get_crml" if status is None else f"get_crml_{status}"
    if len(parts) == 6 and parts[5] == "contacts" and method == "POST":
        return "post_contacts"
    if len(parts) == 7 and parts[5] == "contacts" and method == "DELETE":
        return "delete_contact"
    return f"{method.lower()}_{parts[-1] if parts else 'root'}"


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.active = False
        self.req: int | None = None
        self.stack: list[list] = []  # frames: [name, start, child_s, span_id]
        self.tally: dict | None = None
        self.spans: list | None = None


class Tracer:
    """Collects spans and per-name tallies for one benchmark run."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.ops = 0  # traced top-level operations in the timed window
        self.counts: dict[tuple[str, str], float] = {}
        self._state = _ThreadState()
        self._ids = itertools.count(1)
        self._inflight: dict[str, tuple[int, int | None]] = {}
        self._lock = threading.Lock()
        self._tallies: list[dict] = []
        self._spans: list[list] = []

    # --- per-thread plumbing ---

    def _thread(self) -> _ThreadState:
        st = self._state
        if st.tally is None:
            st.tally, st.spans = {}, []
            with self._lock:
                self._tallies.append(st.tally)
                self._spans.append(st.spans)
        return st

    def count(self, name: str, value: float = 1) -> None:
        key = (self.phase, name)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    @contextmanager
    def op(self):
        """Bracket one top-level operation of the timed window, under a new request id."""
        st = self._thread()
        st.active, st.req = True, next(self._ids)
        try:
            yield
        finally:
            st.active, st.req = False, None
            with self._lock:
                self.ops += 1

    @contextmanager
    def everything(self):
        """Trace every call made by this thread, as during set-up."""
        st = self._thread()
        st.active = True
        try:
            yield
        finally:
            st.active = False

    def _enter(self, st: _ThreadState, name: str, keep: bool) -> list:
        span_id = next(self._ids) if keep else None
        frame = [name, time.perf_counter(), 0.0, span_id]
        st.stack.append(frame)
        return frame

    def _exit(self, st: _ThreadState, frame: list, route: str | None = None,
              parent: int | None = None) -> None:
        end = time.perf_counter()
        st.stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        if st.stack:
            st.stack[-1][2] += duration
            if parent is None:
                parent = st.stack[-1][3]
        key = (self.phase, name)
        entry = st.tally.get(key)
        if entry is None:
            entry = st.tally[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if span_id is not None:
            st.spans.append([span_id, name, route, parent, st.req, self.phase,
                             start, end])

    # --- wrappers ---

    def wrap(self, name: str, fn, on_result=None, keep: bool = True):
        """Wrap ``fn``: timed and counted; ``keep`` also records each call as a span.

        Hot inner functions pass ``keep=False``, so only their tallies grow.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._thread()
            if not st.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(st, name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(st, frame)
            if on_result is not None:
                on_result(result, args)
            return result
        return wrapper

    def client_request(self, fn):
        """Wrap ``HttpTransport.request``: a span per route, announced to the server side."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(transport, req):
            st = tracer._thread()
            if not st.active:
                return fn(transport, req)
            base = route_of(req.method, req.path)
            frame = tracer._enter(st, "transport.request", keep=True)
            with tracer._lock:
                tracer._inflight[base] = (frame[3], st.req)
            resp = None
            try:
                resp = fn(transport, req)
            except Exception:
                tracer.count("transport.request.failures")
                raise
            finally:
                with tracer._lock:
                    tracer._inflight.pop(base, None)
                route = route_of(req.method, req.path, resp.status if resp else None)
                tracer._exit(st, frame, route=route)
            tracer.count("transport.bytes_out", len(req.body))
            tracer.count("transport.bytes_in", len(resp.body))
            if resp.status >= 500:
                tracer.count("transport.request.failures")
            return resp
        return wrapper

    def server_handle(self, fn):
        """Wrap ``ProviderApi.handle``, adopting the in-flight client span as parent."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(api, req):
            st = tracer._thread()
            adopted = None
            if not st.active:
                with tracer._lock:
                    adopted = tracer._inflight.get(route_of(req.method, req.path))
                if adopted is None:
                    return fn(api, req)
                st.active, st.req = True, adopted[1]
            frame = tracer._enter(st, "http_api.handle", keep=True)
            resp = None
            try:
                resp = fn(api, req)
                return resp
            finally:
                route = route_of(req.method, req.path, resp.status if resp else None)
                tracer._exit(st, frame, route=route,
                             parent=adopted[0] if adopted else None)
                if adopted is not None:
                    st.active, st.req = False, None
        return wrapper

    # --- results ---

    def tally(self, phase: str, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of ``name`` in ``phase``, all threads."""
        calls, total, own = 0, 0.0, 0.0
        for tally in self._tallies:
            entry = tally.get((phase, name))
            if entry is not None:
                calls += entry[0]
                total += entry[1]
                own += entry[2]
        return calls, total, own

    def spans(self) -> list[list]:
        return [span for spans in self._spans for span in spans]

    def durations(self, name: str, route: str | None = None,
                  phase: str | None = None) -> list[float]:
        return [s[7] - s[6] for s in self.spans()
                if s[1] == name and (route is None or s[2] == route)
                and (phase is None or s[5] == phase)]

    def wire_times(self) -> dict[str, list[float]]:
        """Per route: client transport duration minus the server handler's."""
        spans = self.spans()
        handled = {s[3]: s[7] - s[6] for s in spans if s[1] == "http_api.handle"}
        out: dict[str, list[float]] = {}
        for s in spans:
            if s[1] == "transport.request" and s[0] in handled:
                out.setdefault(s[2], []).append(s[7] - s[6] - handled[s[0]])
        return out

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        keys = ("id", "name", "route", "parent", "req", "phase", "start", "end")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans():
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000 if values else 0.0


def install(tracer: Tracer):
    """Wrap the public functions of every layer where their callers look them up.

    Returns a function that puts the originals back.
    """
    from sbo import client, http_api, identifiers, provider, restclient, rules, transport

    originals: list[tuple[object, str, object]] = []

    def patch(owner, name: str, wrapper) -> None:
        originals.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def restore() -> None:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)

    def matched(result, args):
        if result.matched:
            tracer.count("rules.matched")

    def serialized(result, args):
        tracer.count("crml.serialize_crml.bytes", len(result.encode("utf-8")))

    def parsed(result, args):
        tracer.count("crml.parse_crml.bytes", len(args[0].encode("utf-8")))

    patch(client, "evaluate_rule", tracer.wrap(
        "rules.evaluate_rule@client", client.evaluate_rule, matched, keep=False))
    patch(provider, "evaluate_rule", tracer.wrap(
        "rules.evaluate_rule@provider", provider.evaluate_rule, matched, keep=False))
    patch(rules, "text_similarity", tracer.wrap(
        "similarity.text_similarity", rules.text_similarity, keep=False))
    patch(rules, "image_distance", tracer.wrap(
        "similarity.image_distance", rules.image_distance, keep=False))
    for module in (rules, identifiers):
        patch(module, "normalize_identifier", tracer.wrap(
            "identifiers.normalize_identifier", module.normalize_identifier, keep=False))
    patch(restclient, "parse_crml", tracer.wrap("crml.parse_crml", restclient.parse_crml, parsed))
    patch(http_api, "serialize_crml", tracer.wrap(
        "crml.serialize_crml", http_api.serialize_crml, serialized))
    methods = {
        client.EnforcementClient: ("is_blocked", "on_blocked_user_login", "refresh"),
        provider.ProviderService: ("blocked_by", "add_contact", "remove_contact",
                                   "export_with_digest", "create_account", "issue_token"),
        restclient.ProviderRestClient: ("get_crml",),
    }
    for cls, names in methods.items():
        layer = cls.__module__.rsplit(".", 1)[-1]
        for name in names:
            patch(cls, name, tracer.wrap(f"{layer}.{name}", getattr(cls, name)))
    patch(transport.HttpTransport, "request",
          tracer.client_request(transport.HttpTransport.request))
    patch(http_api.ProviderApi, "handle", tracer.server_handle(http_api.ProviderApi.handle))
    return restore
