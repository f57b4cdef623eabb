from __future__ import annotations

from datetime import datetime, timedelta, timezone
from random import Random

import pytest

from sbo.brokers import StubBroker
from sbo.client import (
    BlockSet,
    EnforcementClient,
    IntegrationConfig,
    IntegrationMethod,
    Manual,
    OnLogin,
    Periodic,
    PerRequest,
    Trigger,
    resolve_integration,
    should_refresh,
)
from sbo.errors import EmptyBlockSetError, NoIntegrationAvailable
from sbo.http_api import ProviderApi
from sbo.identifiers import IdentifierKind as K, Profile, Strictness
from sbo.provider import ProviderService
from sbo.transport import ApiResponse, InProcessTransport, SwitchableTransport

D = IntegrationMethod.DIRECT
SSO = IntegrationMethod.SSO_DELEGATED
LDAP = IntegrationMethod.LDAP_DELEGATED
LTP = IntegrationMethod.LOGIN_TIME_PROVIDED

T0 = datetime(2025, 1, 1, tzinfo=timezone.utc)


class World:
    """A couple of in-process providers plus a movable clock."""

    def __init__(self):
        self.now = T0
        self.transports: dict[str, SwitchableTransport] = {}
        self.services: dict[str, ProviderService] = {}
        self.secrets: dict[tuple[str, str], str] = {}

    def clock(self) -> datetime:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += timedelta(seconds=seconds)

    def provider(self, host: str) -> ProviderService:
        if host not in self.services:
            service = ProviderService(host, clock=self.clock, token_rng=Random(7))
            self.services[host] = service
            self.transports[host] = SwitchableTransport(
                InProcessTransport(ProviderApi(service)))
        return self.services[host]

    def seed(self, host: str, account: str, list_name: str = "Block List 1",
             rule_text: str | None = None, contacts: list[dict] | None = None) -> str:
        service = self.provider(host)
        secret = f"secret-{account}"
        self.secrets[(host, account)] = secret
        service.create_account(account, secret)
        token = service.issue_token(account, secret).token
        service.create_block_list(token, list_name, Strictness.MEDIUM, rule_text)
        for identifiers in contacts or []:
            service.add_contact(token, list_name, identifiers)
        return token

    def client(self, configs, **kwargs) -> EnforcementClient:
        kwargs.setdefault("transports", self.transports)
        kwargs.setdefault("clock", self.clock)
        credentials = kwargs.pop("credentials", None)
        if credentials is None:
            credentials = {f"cred-{acct}": secret
                           for (_h, acct), secret in self.secrets.items()}
        return EnforcementClient(configs, credentials=credentials, **kwargs)


@pytest.fixture
def world():
    return World()


def cfg(host, account, method=D, rank=1, ref=None):
    if ref is None and method in (D, LTP):
        ref = f"cred-{account}"
    return IntegrationConfig(host, account, method, rank, ref)


MALLORY = {"EmailId": "mallory@example.com", "Username": "mallory"}
MALLORY_PROFILE = Profile("mallory", {K.EMAIL_ID: "mallory@example.com"})


# --- resolve_integration ---

def test_resolve_picks_smallest_rank():
    configs = (cfg("h", "a", SSO, 2), cfg("h", "a", D, 1))
    assert resolve_integration(configs, {SSO, D}).method is D


def test_resolve_skips_unavailable_methods():
    configs = (cfg("h", "a", SSO, 1), cfg("h", "a", D, 2))
    assert resolve_integration(configs, {D}).method is D
    assert resolve_integration(configs, {SSO, D}).method is SSO


def test_resolve_none_available():
    configs = (cfg("h", "a", SSO, 1), cfg("h", "a", LDAP, 2))
    with pytest.raises(NoIntegrationAvailable):
        resolve_integration(configs, {D})


def test_resolve_is_pure_and_deterministic(rng):
    methods = [D, SSO, LDAP, LTP]
    for _ in range(300):
        count = rng.randint(1, 6)
        ranks = rng.sample(range(1, 40), count)
        configs = tuple(cfg("h", "a", rng.choice(methods), rank) for rank in ranks)
        available = {m for m in methods if rng.random() < 0.5}
        candidates = [c for c in configs if c.method in available]
        if not candidates:
            with pytest.raises(NoIntegrationAvailable):
                resolve_integration(configs, available)
            continue
        expected = min(candidates, key=lambda c: c.priority_rank)
        assert resolve_integration(configs, available) == expected
        assert resolve_integration(configs, available) == expected  # stable


# --- should_refresh matrix ---

@pytest.mark.parametrize("policy,trigger,last,expected", [
    (Periodic(30), Trigger.TIMER, None, True),
    (Periodic(30), Trigger.TIMER, T0, False),           # now == last
    (Periodic(30), Trigger.REQUEST, None, False),
    (Periodic(30), Trigger.LOGIN, None, False),
    (OnLogin(), Trigger.LOGIN, T0, True),
    (OnLogin(), Trigger.REQUEST, None, False),
    (OnLogin(), Trigger.TIMER, None, False),
    (PerRequest(), Trigger.REQUEST, T0, True),
    (PerRequest(), Trigger.MANUAL, None, False),
    (Manual(), Trigger.MANUAL, T0, True),
    (Manual(), Trigger.TIMER, None, False),
    (Manual(), Trigger.REQUEST, None, False),
    (Manual(), Trigger.LOGIN, None, False),
])
def test_should_refresh_matrix(policy, trigger, last, expected):
    assert should_refresh(policy, trigger, T0, last) is expected


def test_periodic_interval_arithmetic():
    policy = Periodic(30)
    assert not should_refresh(policy, Trigger.TIMER, T0 + timedelta(seconds=29), T0)
    assert should_refresh(policy, Trigger.TIMER, T0 + timedelta(seconds=31), T0)
    assert should_refresh(policy, Trigger.TIMER, T0 + timedelta(seconds=30), T0)


def test_periodic_rejects_nonpositive_interval():
    for interval in (0, float("nan")):  # NaN <= 0 is false, and NaN never elapses
        with pytest.raises(ValueError):
            Periodic(interval)


# --- fetching and merging ---

def test_union_across_providers(world):
    world.seed("sbo.alpha.com", "ann", contacts=[MALLORY])
    world.seed("sbo.beta.com", "ann", "Beta List")
    client = world.client([cfg("sbo.alpha.com", "ann"),
                           cfg("sbo.beta.com", "ann", rank=2)])
    blockset = client.refresh()
    names = {(host, bl.name) for (host, _account), cached in blockset.accounts.items()
             for bl in cached.block_lists}
    assert names == {("sbo.alpha.com", "Block List 1"), ("sbo.beta.com", "Beta List")}


def test_merge_idempotence_when_nothing_changed(world):
    world.seed("sbo.alpha.com", "ann", contacts=[MALLORY])
    client = world.client([cfg("sbo.alpha.com", "ann")])
    first = client.refresh()
    world.advance(10)
    second = client.refresh()
    assert first == second  # 304 path keeps lists, ETag and fetched_at identical


def test_provider_down_keeps_stale_lists(world):
    world.seed("sbo.alpha.com", "ann", contacts=[MALLORY])
    client = world.client([cfg("sbo.alpha.com", "ann")])
    before = client.refresh()
    world.transports["sbo.alpha.com"].down = True
    after = client.refresh()
    assert after.accounts == before.accounts  # same lists, ETag and fetched_at
    assert len(after.errors) == 1
    assert after.errors[0].provider_host == "sbo.alpha.com"
    assert client.is_blocked(MALLORY_PROFILE).blocked  # still enforcing, stale


def test_total_failure_with_no_cache_raises(world):
    world.seed("sbo.alpha.com", "ann")
    world.transports["sbo.alpha.com"].down = True
    client = world.client([cfg("sbo.alpha.com", "ann")])
    with pytest.raises(EmptyBlockSetError):
        client.refresh()


def test_partial_failure_is_not_fatal(world):
    world.seed("sbo.alpha.com", "ann", contacts=[MALLORY])
    world.seed("sbo.beta.com", "ann", "Beta List")
    world.transports["sbo.beta.com"].down = True
    client = world.client([cfg("sbo.alpha.com", "ann"),
                           cfg("sbo.beta.com", "ann", rank=2)])
    blockset = client.refresh()
    assert list(blockset.accounts) == [("sbo.alpha.com", "ann")]
    assert [f.provider_host for f in blockset.errors] == ["sbo.beta.com"]


class BadAnswer:
    """Replaces the body of every 200 answer to paths ending in ``route`` once ``bad`` is set."""

    def __init__(self, inner, body: bytes, route: str = "/crml"):
        self.inner, self.body, self.route, self.bad = inner, body, route, False

    def request(self, req):
        resp = self.inner.request(req)
        if self.bad and resp.status == 200 and req.path.split("?")[0].endswith(self.route):
            return ApiResponse(200, resp.headers, self.body)
        return resp


@pytest.mark.parametrize("body", [b'{"crml_version": "1.0"', b'{"crml_version": "\xff"}',
                                  b"[" * 100_000], ids=["truncated", "not-utf8", "deep"])
def test_malformed_document_fails_only_its_account(world, body):
    world.seed("sbo.alpha.com", "ann", contacts=[MALLORY])
    token = world.seed("sbo.beta.com", "bob", "Beta List")
    bad = BadAnswer(world.transports["sbo.beta.com"], body)
    configs = [cfg("sbo.alpha.com", "ann"), cfg("sbo.beta.com", "bob", rank=2)]
    client = world.client(configs, transports={**world.transports, "sbo.beta.com": bad})
    first = client.refresh()
    world.services["sbo.beta.com"].add_contact(token, "Beta List", MALLORY)  # next GET is a 200
    bad.bad = True
    second = client.refresh()
    assert second.accounts == first.accounts  # the bad account's cached record carried forward
    assert [(f.provider_host, f.account) for f in second.errors] == [("sbo.beta.com", "bob")]
    fresh = world.client(configs, transports={**world.transports, "sbo.beta.com": bad})
    blockset = fresh.refresh()
    assert list(blockset.accounts) == [("sbo.alpha.com", "ann")]
    assert [(f.provider_host, f.account) for f in blockset.errors] == [("sbo.beta.com", "bob")]
    assert fresh.is_blocked(MALLORY_PROFILE).blocked


@pytest.mark.parametrize("route, body", [
    ("/v1/tokens", b"not json"), ("/v1/tokens", b"{}"),
    ("/v1/tokens", b'{"token": "t", "expires_at": "yesterday"}'),
    ("/v1/blocked-by", b"{}"), ("/v1/blocked-by", b"[]"),
    ("/v1/blocked-by", b'{"blockers": [1]}'),
])
def test_malformed_answer_fails_only_its_provider(world, route, body):
    world.seed("sbo.alpha.com", "ann", contacts=[MALLORY])
    world.seed("sbo.beta.com", "bob", "Beta List", contacts=[MALLORY])
    bad = BadAnswer(world.transports["sbo.beta.com"], body, route)
    bad.bad = True
    client = world.client([cfg("sbo.alpha.com", "ann"), cfg("sbo.beta.com", "bob", rank=2)],
                          transports={**world.transports, "sbo.beta.com": bad})
    blockset = client.refresh()
    report = client.on_blocked_user_login(MALLORY)
    assert ("sbo.alpha.com", "ann") in blockset.accounts
    assert ("sbo.alpha.com", "ann", "Block List 1") in report.blockers
    failed = ([(f.provider_host, f.account) for f in blockset.errors],
              [host for host, _ in report.errors])
    if route == "/v1/tokens":
        assert failed == ([("sbo.beta.com", "bob")], [])
    else:
        assert failed == ([], ["sbo.beta.com"])


def test_conditional_fetch_skips_unchanged_provider(world):
    world.seed("sbo.alpha.com", "ann")
    client = world.client([cfg("sbo.alpha.com", "ann")])
    first = client.refresh()
    t_first = first.accounts[("sbo.alpha.com", "ann")].fetched_at
    world.advance(60)
    second = client.refresh()
    assert second.accounts[("sbo.alpha.com", "ann")].fetched_at == t_first  # 304: untouched
    token = world.services["sbo.alpha.com"].issue_token("ann", "secret-ann").token
    world.services["sbo.alpha.com"].add_contact(token, "Block List 1", MALLORY)
    world.advance(60)
    third = client.refresh()
    assert third.accounts[("sbo.alpha.com", "ann")].fetched_at > t_first


def test_brokered_fetch_paths(world):
    world.seed("sbo.alpha.com", "ann", contacts=[MALLORY])
    sso = StubBroker("SsoDelegated", world.transports)
    ldap = StubBroker("LdapDelegated", world.transports)
    sso.authorize("sbo.alpha.com", "ann", "secret-ann")
    ldap.authorize("sbo.alpha.com", "ann", "secret-ann")
    for method, broker in ((SSO, sso), (LDAP, ldap)):
        client = world.client([cfg("sbo.alpha.com", "ann", method)],
                              brokers={method: broker})
        client.refresh()
        assert client.is_blocked(MALLORY_PROFILE).blocked
        assert client.last_fetch_methods[("sbo.alpha.com", "ann")] is method


def test_priority_override_with_broker_disabled(world):
    world.seed("sbo.alpha.com", "ann", contacts=[MALLORY])
    sso = StubBroker("SsoDelegated", world.transports)
    sso.authorize("sbo.alpha.com", "ann", "secret-ann")
    client = world.client(
        [cfg("sbo.alpha.com", "ann", SSO, rank=1),
         cfg("sbo.alpha.com", "ann", D, rank=2)],
        brokers={SSO: sso})
    client.refresh()
    assert client.last_fetch_methods[("sbo.alpha.com", "ann")] is SSO
    sso.enabled = False
    client.refresh()
    assert client.last_fetch_methods[("sbo.alpha.com", "ann")] is D


def test_token_reissued_after_expiry(world):
    world.seed("sbo.alpha.com", "ann")
    client = world.client([cfg("sbo.alpha.com", "ann")])
    client.refresh()
    world.advance(7200)  # beyond the 3600 s TTL
    token = world.services["sbo.alpha.com"].issue_token("ann", "secret-ann").token
    world.services["sbo.alpha.com"].add_contact(token, "Block List 1", MALLORY)
    client.refresh()
    assert client.is_blocked(MALLORY_PROFILE).blocked


def test_client_recovers_when_server_forgets_tokens(world):
    """A 401 on fetch (e.g. provider restarted) triggers one transparent reissue."""
    world.seed("sbo.alpha.com", "ann")
    client = world.client([cfg("sbo.alpha.com", "ann")])
    client.refresh()
    service = world.services["sbo.alpha.com"]
    token = service.issue_token("ann", "secret-ann").token
    service.add_contact(token, "Block List 1", MALLORY)
    service._tokens.clear()  # simulate a restart dropping the token table
    world.advance(1)
    blockset = client.refresh()
    assert blockset.errors == ()
    assert client.is_blocked(MALLORY_PROFILE).blocked


def test_maybe_refresh_drives_policy(world):
    world.seed("sbo.alpha.com", "ann")
    client = world.client([cfg("sbo.alpha.com", "ann")],
                          refresh_policy=Periodic(30))
    assert client.maybe_refresh(Trigger.TIMER) is True   # no cache yet
    assert client.maybe_refresh(Trigger.TIMER) is False  # 0 s elapsed
    world.advance(30)
    assert client.maybe_refresh(Trigger.TIMER) is True
    assert client.maybe_refresh(Trigger.REQUEST) is False


def test_staleness_bound_under_periodic(world):
    """Any provider mutation is visible within T + tick with timer ticks every t."""
    world.seed("sbo.alpha.com", "ann")
    client = world.client([cfg("sbo.alpha.com", "ann")],
                          refresh_policy=Periodic(30))
    client.refresh()
    mutation_at = None
    visible_at = None
    tick = 10
    for step in range(1, 40):
        world.advance(tick)
        elapsed = step * tick
        if elapsed == 40:  # mutate mid-cycle
            token = world.services["sbo.alpha.com"].issue_token("ann", "secret-ann").token
            world.services["sbo.alpha.com"].add_contact(token, "Block List 1", MALLORY)
            mutation_at = elapsed
        client.maybe_refresh(Trigger.TIMER)
        if mutation_at is not None and visible_at is None:
            if client.is_blocked(MALLORY_PROFILE).blocked:
                visible_at = elapsed
    assert mutation_at is not None and visible_at is not None
    assert visible_at - mutation_at <= 30 + tick


def test_is_blocked_empty_blockset():
    client = EnforcementClient([], transports={})
    decision = client.is_blocked(MALLORY_PROFILE)
    assert not decision.blocked
    assert decision.matches == ()


def test_is_blocked_records_eval_errors(world):
    world.seed("sbo.alpha.com", "ann", rule_text="Age GREATERTHAN 18",
               contacts=[{"Age": "30", "Username": "mallory"}])
    client = world.client([cfg("sbo.alpha.com", "ann")])
    client.refresh()
    bad_profile = Profile("p", {K.AGE: "ancient"})
    decision = client.is_blocked(bad_profile)
    assert not decision.blocked
    assert len(decision.eval_errors) == 1
    assert decision.eval_errors[0].contact_id == "c-001"
    good = client.is_blocked(Profile("p", {K.AGE: "19"}))
    assert good.blocked


def test_blocked_in_two_providers_reports_both(world):
    world.seed("sbo.alpha.com", "ann", contacts=[MALLORY])
    world.seed("sbo.beta.com", "ann", "Beta List", contacts=[MALLORY])
    client = world.client([cfg("sbo.alpha.com", "ann"),
                           cfg("sbo.beta.com", "ann", rank=2)])
    client.refresh()
    decision = client.is_blocked(MALLORY_PROFILE)
    assert decision.blocked and len(decision.matches) == 2
    assert {m.provider_host for m in decision.matches} == \
        {"sbo.alpha.com", "sbo.beta.com"}


def test_on_blocked_user_login_union_and_partial(world):
    world.seed("sbo.alpha.com", "ann", contacts=[MALLORY])
    world.seed("sbo.beta.com", "bob", "Beta List", contacts=[MALLORY])
    client = world.client([cfg("sbo.alpha.com", "ann"),
                           cfg("sbo.beta.com", "bob", rank=2)])
    report = client.on_blocked_user_login(MALLORY)
    assert set(report.blockers) == {
        ("sbo.alpha.com", "ann", "Block List 1"),
        ("sbo.beta.com", "bob", "Beta List"),
    }
    assert report.errors == ()
    world.transports["sbo.beta.com"].down = True
    degraded = client.on_blocked_user_login(MALLORY)
    assert set(degraded.blockers) == {("sbo.alpha.com", "ann", "Block List 1")}
    assert [host for host, _ in degraded.errors] == ["sbo.beta.com"]
    world.transports["sbo.alpha.com"].down = True
    dark = client.on_blocked_user_login(MALLORY)
    assert dark.blockers == ()
    assert len(dark.errors) == 2


def test_symmetric_enforcement(world):
    """If a contact matches a profile, both enforcement directions agree."""
    world.seed("sbo.alpha.com", "ann", contacts=[MALLORY])
    client = world.client([cfg("sbo.alpha.com", "ann")])
    client.refresh()
    decision = client.is_blocked(MALLORY_PROFILE)
    report = client.on_blocked_user_login({"EmailId": "mallory@example.com"})
    assert decision.blocked
    assert ("sbo.alpha.com", "ann", "Block List 1") in report.blockers
    lists_forward = {(m.provider_host, m.account, m.list_name)
                     for m in decision.matches}
    assert lists_forward == set(report.blockers)


def test_removing_provider_config_unblocks(world):
    world.seed("sbo.alpha.com", "ann")
    world.seed("sbo.beta.com", "ann", "Beta List", contacts=[MALLORY])
    client = world.client([cfg("sbo.alpha.com", "ann"),
                           cfg("sbo.beta.com", "ann", rank=2)],
                          refresh_policy=PerRequest())
    client.refresh()
    assert client.is_blocked(MALLORY_PROFILE).blocked
    client.remove_integration("sbo.beta.com", "ann")
    client.maybe_refresh(Trigger.REQUEST)
    assert not client.is_blocked(MALLORY_PROFILE).blocked


def test_fetch_methods_name_only_the_accounts_the_last_refresh_resolved(world):
    world.seed("sbo.alpha.com", "ann")
    world.seed("sbo.beta.com", "ann")
    sso = StubBroker("SsoDelegated", world.transports)
    sso.authorize("sbo.beta.com", "ann", "secret-ann")
    client = world.client([cfg("sbo.alpha.com", "ann"), cfg("sbo.beta.com", "ann", SSO, rank=2)],
                          brokers={SSO: sso})
    client.refresh()
    assert client.last_fetch_methods == {("sbo.alpha.com", "ann"): D, ("sbo.beta.com", "ann"): SSO}
    sso.enabled = False  # beta's only method is gone
    client.refresh()
    assert client.last_fetch_methods == {("sbo.alpha.com", "ann"): D}
    client.remove_integration("sbo.alpha.com", "ann")
    client.refresh()
    assert client.last_fetch_methods == {}


def test_blockset_atomic_publish(world):
    world.seed("sbo.alpha.com", "ann", contacts=[MALLORY])
    client = world.client([cfg("sbo.alpha.com", "ann")])
    assert client.blockset == BlockSet()
    client.refresh()
    assert len(client.blockset.accounts[("sbo.alpha.com", "ann")].block_lists) == 1
