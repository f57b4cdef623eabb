from __future__ import annotations

import json
import socket
import sys
import threading
import time
from urllib.parse import quote

import pytest
from hypothesis import given, settings, strategies as st

from sbo.crml import WireFormat, parse_crml
from sbo.errors import FetchError
from sbo.http_api import ProviderApi
from sbo.identifiers import Strictness
from sbo.restclient import ProviderRestClient
from sbo.transport import ApiRequest, HttpTransport

from .conftest import CANONICAL_RULE, make_service, serving


@pytest.fixture
def api(service):
    return ProviderApi(service)


def _post(api, path, payload, token=None):
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    return api.handle(ApiRequest("POST", path, headers,
                                 json.dumps(payload).encode()))


def test_account_and_token_endpoints(api):
    resp = _post(api, "/v1/accounts", {"account_name": "bell", "secret": "x"})
    assert resp.status == 201
    assert resp.json() == {"account_name": "bell"}
    resp = _post(api, "/v1/tokens", {"account_name": "bell", "secret": "x"})
    assert resp.status == 200
    body = resp.json()
    assert set(body) == {"token", "expires_at"}
    assert body["expires_at"] == "2025-01-01T01:00:00Z"


def test_error_shape_and_statuses(api):
    _post(api, "/v1/accounts", {"account_name": "bell", "secret": "x"})
    conflict = _post(api, "/v1/accounts", {"account_name": "bell", "secret": "x"})
    assert conflict.status == 409
    assert conflict.json()["code"] == "Conflict"
    unauthorized = _post(api, "/v1/tokens", {"account_name": "bell", "secret": "bad"})
    assert unauthorized.status == 401
    assert unauthorized.json()["code"] == "Unauthorized"
    missing = _post(api, "/v1/accounts", {"secret": "x"})
    assert missing.status == 400
    assert missing.json()["code"] == "ValidationError"
    assert missing.json()["path"] == "account_name"
    bad_json = api.handle(ApiRequest("POST", "/v1/accounts", {}, b"{nope"))
    assert bad_json.status == 400
    nowhere = api.handle(ApiRequest("GET", "/v1/nowhere", {}, b""))
    assert nowhere.status == 404


def test_bearer_required_and_scoped(api):
    _post(api, "/v1/accounts", {"account_name": "bell", "secret": "x"})
    _post(api, "/v1/accounts", {"account_name": "eve", "secret": "y"})
    token = _post(api, "/v1/tokens", {"account_name": "bell", "secret": "x"}).json()["token"]
    eve_token = _post(api, "/v1/tokens", {"account_name": "eve", "secret": "y"}).json()["token"]
    no_bearer = api.handle(ApiRequest("POST", "/v1/accounts/bell/blocklists", {},
                                      json.dumps({"name": "L", "strictness": "Medium"}).encode()))
    assert no_bearer.status == 401
    created = _post(api, "/v1/accounts/bell/blocklists",
                    {"name": "L", "strictness": "Medium"}, token=token)
    assert created.status == 201
    cross = _post(api, "/v1/accounts/bell/blocklists",
                  {"name": "M", "strictness": "Medium"}, token=eve_token)
    assert cross.status == 401


def test_rule_error_carries_position_info(api):
    _post(api, "/v1/accounts", {"account_name": "bell", "secret": "x"})
    token = _post(api, "/v1/tokens", {"account_name": "bell", "secret": "x"}).json()["token"]
    resp = _post(api, "/v1/accounts/bell/blocklists",
                 {"name": "L", "strictness": "Medium", "rule_text": "FullName BOGUS"},
                 token=token)
    assert resp.status == 400
    body = resp.json()
    assert body["code"] == "RuleError"
    assert "position" in body["message"]
    assert body["path"] == "L"


def test_blocked_by_treats_a_superscript_age_as_no_match(api):
    _post(api, "/v1/accounts", {"account_name": "bell", "secret": "x"})
    token = _post(api, "/v1/tokens", {"account_name": "bell", "secret": "x"}).json()["token"]
    _post(api, "/v1/accounts/bell/blocklists",
          {"name": "L", "strictness": "Medium", "rule_text": "Age GREATERTHAN 18"}, token)
    _post(api, "/v1/accounts/bell/blocklists/L/contacts",
          {"identifiers": {"Age": "30"}}, token)
    for age in ("²", "①"):  # str.isdigit() passes them, int() refuses them
        resp = _post(api, "/v1/blocked-by", {"identifiers": {"Age": age}})
        assert resp.status == 200 and resp.json() == {"blockers": []}


def test_percent_encoded_paths(api):
    _post(api, "/v1/accounts", {"account_name": "bell", "secret": "x"})
    token = _post(api, "/v1/tokens", {"account_name": "bell", "secret": "x"}).json()["token"]
    _post(api, "/v1/accounts/bell/blocklists",
          {"name": "Block List 1", "strictness": "Medium"}, token=token)
    list_path = f"/v1/accounts/bell/blocklists/{quote('Block List 1', safe='')}"
    created = _post(api, f"{list_path}/contacts",
                    {"identifiers": {"Username": "mallory"}}, token=token)
    assert created.status == 201
    assert created.json()["contact_id"] == "c-001"
    deleted = api.handle(ApiRequest("DELETE", f"{list_path}/contacts/c-001",
                                    {"Authorization": f"Bearer {token}"}, b""))
    assert deleted.status == 204


def test_crml_conditional_fetch(canonical_provider):
    service, rest, token = canonical_provider
    api = ProviderApi(service)
    first = api.handle(ApiRequest(
        "GET", "/v1/accounts/alexandergrahambell/crml",
        {"Authorization": f"Bearer {token}"}, b""))
    assert first.status == 200
    etag = first.header("ETag")
    doc = parse_crml(first.body.decode(), WireFormat.OBJECT)
    assert doc.account == "alexandergrahambell"
    again = api.handle(ApiRequest(
        "GET", "/v1/accounts/alexandergrahambell/crml",
        {"Authorization": f"Bearer {token}", "If-None-Match": etag}, b""))
    assert again.status == 304
    assert again.body == b""
    assert again.header("ETag") == etag
    # mutation invalidates the digest
    rest.add_contact(token, "alexandergrahambell", "Block List 1",
                     {"Username": "other"})
    third = api.handle(ApiRequest(
        "GET", "/v1/accounts/alexandergrahambell/crml",
        {"Authorization": f"Bearer {token}", "If-None-Match": etag}, b""))
    assert third.status == 200
    assert third.header("ETag") != etag


def test_crml_lists_query(canonical_provider):
    service, rest, token = canonical_provider
    rest.create_block_list(token, "alexandergrahambell", "Other", "Lenient")
    api = ProviderApi(service)
    resp = api.handle(ApiRequest(
        "GET", "/v1/accounts/alexandergrahambell/crml?lists=Other",
        {"Authorization": f"Bearer {token}"}, b""))
    doc = parse_crml(resp.body.decode(), WireFormat.OBJECT)
    assert [bl.name for bl in doc.block_lists] == ["Other"]
    missing = api.handle(ApiRequest(
        "GET", "/v1/accounts/alexandergrahambell/crml?lists=Nope",
        {"Authorization": f"Bearer {token}"}, b""))
    assert missing.status == 404


def test_blocked_by_endpoint(canonical_provider):
    service, _rest, _token = canonical_provider
    api = ProviderApi(service)
    resp = _post(api, "/v1/blocked-by",
                 {"identifiers": {"Username": "jsmith", "FullName": "John Smith",
                                  "PhoneNumber": "15550100000"}})
    assert resp.status == 200
    assert resp.json() == {"blockers": [
        {"account": "alexandergrahambell", "list": "Block List 1"}]}
    bad = _post(api, "/v1/blocked-by", {"identifiers": {"ShoeSize": "42"}})
    assert bad.status == 400


def test_live_http_server_round_trip(tmp_path):
    with serving(make_service(tmp_path / "live.jsonl")) as server:
        host, port = server.server_address
        rest = ProviderRestClient(HttpTransport(f"http://{host}:{port}"))
        rest.create_account("bell", "x")
        token = rest.issue_token("bell", "x").token
        rest.create_block_list(token, "bell", "Block List 1", "Medium", CANONICAL_RULE)
        rest.add_contact(token, "bell", "Block List 1", {"Username": "mallory"})
        doc, etag = rest.get_crml(token, "bell")
        assert doc.block_lists[0].contacts[0].contact_id == "c-001"
        cached, second_etag = rest.get_crml(token, "bell", if_none_match=etag)
        assert cached is None and second_etag == etag
        assert rest.blocked_by({"Username": "mallory"}) == []  # rule needs 2 clauses


# --- hostile input: every answer is a status below 500, errors carry {code, message} ---

_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=8)

_DEEP_RULE = "(" * 2000 + "Age EQUALS" + ")" * 2000

# One well-formed value per field; each example breaks at most one of them.
_VALID = {
    "account_name": st.sampled_from(["bell", "eve"]),
    "secret": st.just("x"),
    "name": st.sampled_from(["M", "N"]),
    "strictness": st.sampled_from([s.value for s in Strictness]),
    "rule_text": st.sampled_from(["EmailId EQUALS", "Age GREATERTHAN 17 OR Username MATCHES"]),
    "identifiers": st.sampled_from([
        {"Username": "mallory", "Age": "18"}, {"Age": "old"},
        {"ProfileImage": {"phash64": "00ff00ff00ff00ff"}, "Username": " Mallory "}]),
}
_INVALID = _ANY_JSON | st.sampled_from([
    "", "FullName BOGUS", _DEEP_RULE, {"ShoeSize": "42"}, {"Age": 42},
    {"ProfileImage": {"phash64": "zz"}}, {"ProfileImage": "00ff00ff00ff00ff"}])

_LIST = "/v1/accounts/bell/blocklists/L"
_ROUTES = {  # (method, path) -> the body fields the route reads
    ("POST", "/v1/accounts"): ("account_name", "secret"),
    ("POST", "/v1/tokens"): ("account_name", "secret"),
    ("POST", "/v1/blocked-by"): ("identifiers",),
    ("POST", "/v1/accounts/bell/blocklists"): ("name", "strictness", "rule_text"),
    ("POST", f"{_LIST}/contacts"): ("identifiers",),
    ("DELETE", f"{_LIST}/contacts/c-001"): (),
    ("PUT", f"{_LIST}/rule"): ("rule_text",),
    ("GET", "/v1/accounts/bell/crml?lists=L,nope"): (),
    ("PATCH", "/v1/accounts/bell"): (),
}

_HOSTILE_BODIES = (b"[" * 100_000, b'{"secret": ' + b"9" * 5000 + b"}", b"\xff\xfe", b"")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_router_answers_any_body_with_a_well_formed_status(data):
    service = make_service(pbkdf2_iterations=1)
    service.create_account("bell", "x")
    token = service.issue_token("bell", "x").token
    service.create_block_list(token, "L", Strictness.MEDIUM,
                              "Age GREATERTHAN 17 OR Username MATCHES")
    service.add_contact(token, "L", {"Username": "mallory", "Age": "30"})
    method, path = data.draw(st.sampled_from(sorted(_ROUTES)))
    fields = _ROUTES[(method, path)]
    if data.draw(st.booleans()):
        payload = {name: data.draw(_VALID[name]) for name in fields}
        if fields:
            payload[data.draw(st.sampled_from(fields))] = data.draw(_INVALID)
        body = json.dumps(payload).encode()
    else:
        body = data.draw(st.sampled_from(_HOSTILE_BODIES) | st.binary(max_size=12)
                         | _ANY_JSON.map(json.dumps).map(str.encode))
    resp = ProviderApi(service).handle(
        ApiRequest(method, path, {"Authorization": f"Bearer {token}"}, body))
    assert resp.status < 500
    if resp.status >= 400:
        error = resp.json()
        assert isinstance(error["code"], str) and isinstance(error["message"], str)


def _exchange(server, request: bytes) -> bytes:
    """Send raw bytes and read until the server closes the connection."""
    with socket.create_connection(server.server_address, timeout=5) as sock:
        sock.sendall(request)
        response = b""
        while chunk := sock.recv(4096):
            response += chunk
    return response


# a claim over the 1 MiB cap is refused unread, with no body sent at all
@pytest.mark.parametrize("length", ["abc", "-5", str(100_000_000),
                                    pytest.param("9" * 5000, id="5000-digits")])
def test_bad_content_length_gets_a_400_over_a_socket(length):
    with serving(make_service()) as server:
        response = _exchange(server, f"POST /v1/accounts HTTP/1.1\r\nHost: sbo\r\n"
                                     f"Content-Length: {length}\r\n\r\n".encode())
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.split()[1] == b"400"
    error = json.loads(body)
    assert error["code"] == "ValidationError" and error["message"]


def test_stalled_request_body_gets_its_connection_closed():
    with serving(make_service()) as server:
        assert 0 < server.RequestHandlerClass.timeout <= 60  # served with a finite timeout
        server.RequestHandlerClass.timeout = 0.5  # the bound class only; _Handler keeps its own
        started = time.monotonic()
        response = _exchange(server, b"POST /v1/accounts HTTP/1.1\r\nHost: sbo\r\n"
                                     b"Content-Length: 10\r\n\r\n{\"a\"")
    assert response == b""  # closed without an answer, well before the client's 5 s
    assert time.monotonic() - started < 4


def test_garbled_http_answer_is_a_fetch_error():
    with socket.create_server(("127.0.0.1", 0)) as listener:
        def answer_garbage():
            conn, _ = listener.accept()
            with conn:
                conn.recv(4096)
                conn.sendall(b"garbage\r\n\r\n")

        thread = threading.Thread(target=answer_garbage)
        thread.start()
        host, port = listener.getsockname()
        with pytest.raises(FetchError):
            HttpTransport(f"http://{host}:{port}", timeout=5).request(
                ApiRequest("GET", "/v1/accounts/a/crml"))
        thread.join(timeout=5)
    assert not thread.is_alive()


# --- keep-alive: one connection carries request after request ---

def _url(server) -> str:
    host, port = server.server_address
    return f"http://{host}:{port}"


def _record_calls(owner, name: str) -> list:
    """Replace ``owner.name`` by a wrapper that records each call's arguments."""
    calls = []
    inner = getattr(owner, name)

    def recording(*args):
        calls.append(args)
        return inner(*args)

    setattr(owner, name, recording)
    return calls


def _wait_until(condition, seconds: float = 5.0) -> bool:
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_requests_on_one_transport_share_one_connection():
    with serving(make_service(pbkdf2_iterations=1)) as server:
        accepted = _record_calls(server, "process_request")
        rest = ProviderRestClient(HttpTransport(_url(server)))
        rest.create_account("bell", "x")
        token = rest.issue_token("bell", "x").token
        rest.create_block_list(token, "bell", "L", "Medium")
        for i in range(17):
            rest.blocked_by({"Username": f"user{i}"})
    assert len(accepted) == 1


def test_sequential_requests_on_one_connection_do_not_stall():
    # A response written as headers and then body stalls about 40 ms on each
    # request (Nagle's algorithm waiting for the client's delayed ACK).
    with serving(make_service(pbkdf2_iterations=1)) as server:
        accepted = _record_calls(server, "process_request")
        rest = ProviderRestClient(HttpTransport(_url(server)))
        rest.create_account("bell", "x")
        token = rest.issue_token("bell", "x").token
        rest.create_block_list(token, "bell", "L", "Medium")
        started = time.monotonic()
        ids = [rest.add_contact(token, "bell", "L", {"Username": f"user{i}"})["contact_id"]
               for i in range(50)]
        elapsed = time.monotonic() - started
    assert ids == [f"c-{i:03d}" for i in range(1, 51)]
    assert len(accepted) == 1
    assert elapsed < 1.0


def test_refused_content_length_closes_the_connection_and_the_next_request_succeeds():
    with serving(make_service(pbkdf2_iterations=1)) as server:
        accepted = _record_calls(server, "process_request")
        transport = HttpTransport(_url(server))
        refused = transport.request(ApiRequest(
            "POST", "/v1/accounts", {"Content-Length": str(100_000_000)}))
        assert refused.status == 400
        assert refused.header("Connection") == "close"
        assert refused.json()["code"] == "ValidationError"
        assert ProviderRestClient(transport).create_account("bell", "x") == "bell"
    assert len(accepted) == 2


def test_chunked_request_body_is_refused_and_its_connection_closed():
    # with keep-alive, an unread chunked body would be read as the next request
    with serving(make_service()) as server:
        response = _exchange(server, b"POST /v1/accounts HTTP/1.1\r\nHost: sbo\r\n"
                                     b"Transfer-Encoding: chunked\r\n\r\n"
                                     b"2\r\n{}\r\n0\r\n\r\n")
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.split()[1] == b"400"
    assert b"\r\nConnection: close" in head
    assert json.loads(body)["code"] == "ValidationError"


def test_bare_request_line_gets_a_whole_answer():
    # an HTTP/0.9-style line, without a version, has no headers to answer in
    with serving(make_service()) as server:
        response = _exchange(server, b"GET /v1/nowhere\r\n\r\n")
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.split()[:2] == [b"HTTP/1.1", b"404"]
    assert json.loads(body)["code"] == "NotFound"


def test_requests_the_standard_library_refuses_get_a_json_error():
    # refused before the router runs; the method or version is outside input, " included
    cases = [(b"BREW /v1/accounts HTTP/1.1", b"405", "MethodNotAllowed"),
             (b'BR"EW /v1/accounts HTTP/1.1', b"405", "MethodNotAllowed"),
             (b"GET", b"400", "BadRequest"),
             (b"GET /v1/accounts HTTP/9.9", b"400", "BadRequest")]
    with serving(make_service()) as server:
        responses = [_exchange(server, line + b"\r\nHost: sbo\r\n\r\n") for line, _, _ in cases]
        head_response = _exchange(server, b"HEAD /v1/accounts HTTP/1.1\r\nHost: sbo\r\n\r\n")
    for (line, status, code), response in zip(cases, responses):
        head, _, body = response.partition(b"\r\n\r\n")
        headers = head.split(b"\r\n")
        assert headers[0].split()[:2] == [b"HTTP/1.1", status], line
        assert b"Content-Type: application/json" in headers and b"Connection: close" in headers
        assert (b"Allow: DELETE, GET, POST, PUT" in headers) == (status == b"405")
        error = json.loads(body)
        assert error["code"] == code and error["message"], line
    head, _, body = head_response.partition(b"\r\n\r\n")
    assert head.split()[:2] == [b"HTTP/1.1", b"405"] and body == b""  # HEAD: no body


def test_http_0_9_request_line_gets_a_whole_answer():
    with serving(make_service()) as server:
        response = _exchange(server, b"GET /v1/nowhere HTTP/0.9\r\n\r\n")
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.split()[:2] == [b"HTTP/1.1", b"404"]
    assert json.loads(body)["code"] == "NotFound"


def test_connection_the_server_closed_while_idle_is_not_reused():
    with serving(make_service(pbkdf2_iterations=1)) as server:
        server.RequestHandlerClass.timeout = 0.3  # the bound class only; _Handler keeps its own
        accepted = _record_calls(server, "process_request")
        closed = _record_calls(server, "shutdown_request")
        handled = _record_calls(server.RequestHandlerClass.api, "handle")
        rest = ProviderRestClient(HttpTransport(_url(server)))
        rest.create_account("bell", "x")
        rest.create_account("eve", "x")
        assert len(accepted) == 1  # the second request came on the first connection
        assert _wait_until(lambda: len(closed) == 1)  # the server timed the connection out
        rest.create_account("mallory", "x")
    assert len(accepted) == 2
    assert [req.body for (req,) in handled] == [
        json.dumps({"account_name": name, "secret": "x"}).encode()
        for name in ("bell", "eve", "mallory")]


def test_closing_the_server_ends_its_connections_and_their_threads():
    before = set(threading.enumerate())
    with serving(make_service(pbkdf2_iterations=1)) as server:
        accepted = _record_calls(server, "process_request")
        transport = HttpTransport(_url(server))
        ProviderRestClient(transport).create_account("bell", "x")  # leaves a connection idle
        silent = socket.create_connection(server.server_address, timeout=5)  # sends nothing
        assert _wait_until(lambda: len(accepted) == 2)
        started = time.monotonic()
    try:
        # without ending them, server_close() waits out the handlers' 30 s timeout
        assert time.monotonic() - started < 5
        assert [t for t in threading.enumerate() if t not in before] == []
    finally:
        silent.close()


def test_threads_sharing_one_transport_each_get_their_own_answers():
    # passes without keep-alive too: sharing must not mix answers up
    with serving(make_service(pbkdf2_iterations=1)) as server:
        rest = ProviderRestClient(HttpTransport(_url(server)))
        rest.create_account("bell", "x")
        token = rest.issue_token("bell", "x").token
        rest.create_block_list(token, "bell", "L", "Medium")
        answers: dict[int, list[str]] = {}

        def add(n: int) -> None:
            answers[n] = [rest.add_contact(token, "bell", "L",
                                           {"Username": f"user{n}x{i}"})["identifiers"]["Username"]
                          for i in range(25)]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=add, args=(n,)) for n in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        doc, _etag = rest.get_crml(token, "bell")
    assert answers == {n: [f"user{n}x{i}" for i in range(25)] for n in range(4)}
    assert len({c.contact_id for c in doc.block_lists[0].contacts}) == 100
