"""Pieces the three workloads share: providers, apps, timing, answer checks."""

from __future__ import annotations

import os
import resource
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from sbo import http_api
from sbo.client import EnforcementClient, IntegrationConfig, IntegrationMethod, Manual
from sbo.crml import parse_identifier_map
from sbo.http_api import ProviderApi
from sbo.identifiers import ContactRecord, ImageHash, Profile, Strictness
from sbo.provider import ProviderService
from sbo.restclient import ProviderRestClient
from sbo.transport import HttpTransport, InProcessTransport
from tests.oracles import fold_evaluate, split_parse

from datagen import Blocker, Case, ListSpec

SECRET = "bench-secret"
POLL_S = 0.02


# --- providers and apps ---

class Provider:
    """A ProviderService with a data file, reached in-process or over loopback HTTP.

    The data file uses the service defaults that ``sbo serve`` runs with:
    fsync on every mutation and a snapshot every 500 mutations.
    """

    def __init__(self, host: str, data_path: Path, served: bool):
        self.host = host
        self.data_path = data_path
        self.served = served
        self.start()

    def start(self) -> float:
        """Boot the service from its data file; returns the boot time in seconds."""
        began = time.perf_counter()
        self.service = ProviderService(self.host, self.data_path)
        boot = time.perf_counter() - began
        if self.served:
            self.server = http_api.serve(self.service, "127.0.0.1", 0)
            # serve_forever's default 0.5 s poll would put up to half a second
            # of shutdown wait into every restart that set-up times
            self.thread = threading.Thread(target=self.server.serve_forever,
                                           kwargs={"poll_interval": POLL_S})
            self.thread.start()
            self.url = "http://127.0.0.1:%d" % self.server.server_address[1]
        else:
            self.api = ProviderApi(self.service)
        return boot

    def stop(self) -> None:
        if self.served:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join()
        self.service.close()

    def restart(self) -> float:
        self.stop()
        return self.start()

    def transport(self):
        return HttpTransport(self.url) if self.served else InProcessTransport(self.api)

    def rest(self) -> ProviderRestClient:
        return ProviderRestClient(self.transport())

    def log_size(self) -> int:
        return self.data_path.stat().st_size


class StatusTap:
    """Passes requests through and remembers each CRML fetch's status."""

    def __init__(self, inner):
        self.inner = inner
        self.crml_statuses: list[int] = []

    def request(self, req):
        resp = self.inner.request(req)
        if req.method == "GET" and req.path.split("?")[0].endswith("/crml"):
            self.crml_statuses.append(resp.status)
        return resp

    def take(self) -> list[int]:
        taken, self.crml_statuses = self.crml_statuses, []
        return taken


@dataclass
class App:
    client: EnforcementClient
    taps: dict[str, StatusTap]
    accounts: list[tuple[str, str]]

    def statuses(self) -> list[int]:
        return [s for tap in self.taps.values() for s in tap.take()]


def make_app(providers: dict[str, Provider], accounts: list[tuple[str, str]]) -> App:
    """An app integrating ``accounts`` directly, with the Manual refresh policy."""
    configs = [IntegrationConfig(host, account, IntegrationMethod.DIRECT, rank,
                                 credential_ref=f"{account}@{host}")
               for rank, (host, account) in enumerate(accounts, start=1)]
    taps = {host: StatusTap(providers[host].transport())
            for host in {host for host, _ in accounts}}
    client = EnforcementClient(configs, transports=taps,
                               credentials={c.credential_ref: SECRET for c in configs},
                               refresh_policy=Manual())
    return App(client, taps, accounts)


@dataclass
class Seeded:
    """What seeding acknowledged: per list, contact ids and stored identifiers."""

    ids: dict[Blocker, list[str]] = field(default_factory=dict)
    stored: dict[Blocker, dict[str, dict]] = field(default_factory=dict)
    tokens: dict[tuple[str, str], str] = field(default_factory=dict)


def seed(providers: dict[str, Provider], specs: list[ListSpec]) -> Seeded:
    """Create accounts, lists and contacts through the public REST API."""
    seeded = Seeded()
    for spec in specs:
        rest = providers[spec.host].rest()
        key = (spec.host, spec.account)
        if key not in seeded.tokens:
            rest.create_account(spec.account, SECRET)
            seeded.tokens[key] = rest.issue_token(spec.account, SECRET).token
        token = seeded.tokens[key]
        rest.create_block_list(token, spec.account, spec.name, spec.strictness, spec.rule_text)
        ids, stored = [], {}
        for bag in spec.bags:
            body = rest.add_contact(token, spec.account, spec.name, bag)
            ids.append(body["contact_id"])
            stored[body["contact_id"]] = body["identifiers"]
        seeded.ids[spec.blocker] = ids
        seeded.stored[spec.blocker] = stored
    return seeded


def admin_token(provider: Provider, account: str) -> str:
    return provider.rest().issue_token(account, SECRET).token


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def machine_ms() -> float:
    """Median time of a fixed pure-Python loop: the machine's speed at this moment.

    Reported beside the metrics so a run on a slowed shared host can be told
    apart from a slower program; it is not used to adjust any metric.
    """
    times = []
    for _ in range(3):
        began = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - began)
    return statistics.median(times) * 1000


def src_lines(root: Path) -> int:
    """Source size as ``wc -l src/sbo/*.py`` counts it."""
    return sum(p.read_bytes().count(b"\n") for p in sorted((root / "src" / "sbo").glob("*.py")))


# --- timing ---

class Recorder:
    """Latency samples per operation kind, with attempts and failures."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}
        self.traced: dict[str, list[bool]] = {}
        self.lags: list[float] = []
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.first_error: str | None = None

    def run(self, kind: str, fn, *args, due: float | None = None):
        """Time ``fn(*args)``; from ``due`` when given (open loop). Returns (ok, result)."""
        self.attempted += 1
        tracer = self.tracer
        with tracer.op() if tracer is not None else nullcontext():
            start = time.perf_counter()
            try:
                result = fn(*args)
            except Exception as exc:  # a failed operation is counted, the run goes on
                self.fail(kind, f"{kind}: {exc!r}")
                return False, None
            end = time.perf_counter()
        if due is not None:
            self.lags.append(max(0.0, start - due))
            start = due
        self.sample(kind, end - start)
        return True, result

    def sample(self, kind: str, seconds: float) -> None:
        self.samples.setdefault(kind, []).append(seconds)
        self.traced.setdefault(kind, []).append(self.tracer is not None)

    def fail(self, kind: str, detail: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1
        if self.first_error is None:
            self.first_error = detail

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def merge(self, other: "Recorder") -> None:
        for kind, values in other.samples.items():
            self.samples.setdefault(kind, []).extend(values)
            self.traced.setdefault(kind, []).extend(other.traced[kind])
        self.lags.extend(other.lags)
        self.attempted += other.attempted
        for kind, n in other.failures.items():
            self.failures[kind] = self.failures.get(kind, 0) + n
        self.first_error = self.first_error or other.first_error

    def untraced(self, *kinds: str) -> list[float]:
        return [v for k in kinds for v, t in zip(self.samples.get(k, []), self.traced.get(k, []))
                if not t]

    def overhead_pct(self) -> float:
        """Traced against untraced operations of the same run.

        Per kind, the first n traced samples are set against the first n
        untraced ones (the same questions, since the workload rewinds between
        the two parts); the ratio of their medians is weighted by n.
        """
        weighted, total = 0.0, 0
        for kind, values in self.samples.items():
            on = [v for v, t in zip(values, self.traced[kind]) if t]
            off = [v for v, t in zip(values, self.traced[kind]) if not t]
            n = min(len(on), len(off))
            if n:
                weighted += n * statistics.median(on[:n]) / statistics.median(off[:n])
                total += n
        return (weighted / total - 1) * 100 if total else 0.0


# With no sample at all every operation of the kind failed, and the run
# already reports correct: false; the percentile then reads 0.

def p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


# --- answer checks ---

def wire_of(identifiers: dict) -> dict:
    return {k.value: ({"phash64": v.to_hex()} if isinstance(v, ImageHash) else v)
            for k, v in identifiers.items()}


class Oracle:
    """Re-checks reported matches with the independent evaluator in tests/oracles.py."""

    def __init__(self, specs: list[ListSpec]):
        self.specs = {spec.blocker: spec for spec in specs}
        self._asts = {spec.rule_text: split_parse(spec.rule_text) for spec in specs}

    def matches(self, spec: ListSpec, bag: dict, profile_wire: dict) -> bool:
        contact = ContactRecord("oracle", parse_identifier_map(bag))
        profile = Profile("oracle", parse_identifier_map(profile_wire))
        try:
            return fold_evaluate(self._asts[spec.rule_text], contact, profile,
                                 Strictness(spec.strictness))
        except ValueError:  # a value the rule cannot compare: never a match
            return False

    def any_match(self, blocker: Blocker, profile_wire: dict, extra: list[dict] = ()) -> bool:
        spec = self.specs.get(blocker)
        if spec is None:
            return False
        return any(self.matches(spec, bag, profile_wire) for bag in list(spec.bags) + list(extra))


def check_decision(case: Case, decision, oracle: Oracle, ids: dict[Blocker, list[str]]) -> bool:
    """Planted answer, oracle-confirmed extras, and the exact eval_errors count."""
    blockers = {(m.provider_host, m.account, m.list_name) for m in decision.matches}
    if decision.blocked != bool(blockers) or not case.expect <= blockers:
        return False
    if len(decision.eval_errors) != case.eval_errors:
        return False
    planted = None
    if case.target is not None:
        blocker, index = case.target
        planted = (blocker, ids[blocker][index])
    for m in decision.matches:
        blocker = (m.provider_host, m.account, m.list_name)
        if (blocker, m.contact_id) == planted:
            continue
        listed = ids.get(blocker, [])
        if m.contact_id not in listed:
            return False
        spec = oracle.specs[blocker]
        if not oracle.matches(spec, spec.bags[listed.index(m.contact_id)], case.wire):
            return False
    return True


def check_blockers(case: Case, report_blockers, oracle: Oracle,
                   extra: dict[Blocker, list[dict]] | None = None) -> bool:
    """Login answer: planted lists present, each list once, extras oracle-confirmed."""
    blockers = list(report_blockers)
    if len(set(blockers)) != len(blockers) or not case.expect <= set(blockers):
        return False
    return all(b in case.expect
               or oracle.any_match(b, case.wire, (extra or {}).get(b, ()))
               for b in blockers)


def check_durable(provider: Provider, account: str, list_name: str,
                  expected: dict[str, dict]) -> bool:
    """Boot a fresh service from the data file; its contacts must equal the acknowledged ones."""
    provider.stop()
    service = ProviderService(provider.host, provider.data_path)
    try:
        token = service.issue_token(account, SECRET).token
        doc = service.export_crml(token, [list_name], account_name=account)
    finally:
        service.close()
    found = {c.contact_id: wire_of(c.identifiers) for c in doc.block_lists[0].contacts}
    return found == expected


def workdir_for(root: Path, workload: str) -> Path:
    path = root / f".perfbench_work-{workload}-{os.getpid()}"
    path.mkdir()
    return path
