from __future__ import annotations

import copy
from contextlib import contextmanager
from datetime import datetime, timezone
from random import Random

import pytest
from hypothesis import strategies as st

from sbo import http_api
from sbo.crml import WireFormat, parse_crml
from sbo.http_api import ProviderApi
from sbo.provider import ProviderService
from sbo.restclient import ProviderRestClient
from sbo.transport import InProcessTransport

# The worked example used throughout: account alexandergrahambell at
# sbo.aws.com with "Block List 1". Exact wire bytes, object format.
CANONICAL_TEXT = (
    '{"crml_version":"1.0","provider":"sbo.aws.com","account":"alexandergrahambell",'
    '"issued_at":"2025-01-01T00:00:00Z","block_lists":[{"name":"Block List 1",'
    '"strictness":"Medium","rule_text":"(FullName MATCHES AND PhoneNumber MATCHES) OR '
    '(Username MATCHES AND Biodata FUZZYMATCHES)","contacts":[{"contact_id":"c-001",'
    '"identifiers":{"FullName":"John Smith","PhoneNumber":"15550100000",'
    '"Username":"jsmith","EmailId":"john.smith@example.com"}}]}]}'
)

CANONICAL_RULE = ("(FullName MATCHES AND PhoneNumber MATCHES) OR "
                  "(Username MATCHES AND Biodata FUZZYMATCHES)")

FIXED_TIME = datetime(2025, 1, 1, tzinfo=timezone.utc)


def fixed_clock() -> datetime:
    return FIXED_TIME


@pytest.fixture
def canonical_doc():
    return parse_crml(CANONICAL_TEXT, WireFormat.OBJECT)


@pytest.fixture
def rng():
    return Random(20250101)


def make_service(data_path=None, clock=fixed_clock, seed=1, **kwargs) -> ProviderService:
    return ProviderService("sbo.aws.com", data_path, clock=clock,
                           token_rng=Random(seed), **kwargs)


def rest_for(service: ProviderService) -> ProviderRestClient:
    return ProviderRestClient(InProcessTransport(ProviderApi(service)))


@contextmanager
def serving(service: ProviderService):
    """Serve on a free loopback port; on exit close the server, its socket and the service."""
    server = http_api.serve(service, "127.0.0.1", 0)
    thread = http_api.serve_forever_in_thread(server)
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.close()


@pytest.fixture
def service():
    return make_service()


@pytest.fixture
def rest(service):
    return rest_for(service)


@pytest.fixture
def canonical_provider(service, rest):
    """Provider seeded with the worked example; returns (service, rest, token)."""
    rest.create_account("alexandergrahambell", "s3cret")
    token = rest.issue_token("alexandergrahambell", "s3cret").token
    rest.create_block_list(token, "alexandergrahambell", "Block List 1", "Medium",
                           CANONICAL_RULE)
    rest.add_contact(token, "alexandergrahambell", "Block List 1", {
        "FullName": "John Smith",
        "PhoneNumber": "15550100000",
        "Username": "jsmith",
        "EmailId": "john.smith@example.com",
    })
    return service, rest, token


def _json_paths(node, prefix: tuple = ()) -> list[tuple]:
    """The path, as a key sequence, of every value inside a decoded JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    paths = []
    for key, child in items:
        paths.append(prefix + (key,))
        paths.extend(_json_paths(child, prefix + (key,)))
    return paths


def break_one_field(data, doc):
    """A copy of ``doc`` with one field, drawn by ``data``, deleted, retyped or made unhashable.

    A retyped field becomes an int, a str, a list, a dict or null; an unhashable
    one keeps its value inside a list.
    """
    path = data.draw(st.sampled_from(_json_paths(doc)))
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    how = data.draw(st.sampled_from(["delete", "int", "str", "list", "dict", "null",
                                     "unhashable"]))
    if how == "delete":
        del parent[path[-1]]
    elif how == "int":
        parent[path[-1]] = data.draw(st.integers(min_value=-2, max_value=10**12))
    elif how == "str":
        parent[path[-1]] = data.draw(st.sampled_from(["", "x"]))
    else:
        parent[path[-1]] = {"list": [], "dict": {}, "null": None,
                            "unhashable": [parent[path[-1]]]}[how]
    return doc
