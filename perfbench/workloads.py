"""The three workloads: enforce, sync and contend.

Each workload generates its inputs from the seed when it is built, sets a
system up (``setup``, repeated by the runner to time set-up), drives it for
the timed window (``drive``), and then checks durability (``finish``).
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from sbo.crml import parse_identifier_map
from sbo.identifiers import Profile

from datagen import (
    CANONICAL_RULE,
    DEFAULT_RULE,
    EXACT_RULE,
    LENIENT_RULE,
    Generator,
    ListSpec,
    kind_shares,
    plan_cases,
)
from harness import (
    Oracle,
    Provider,
    Recorder,
    admin_token,
    check_blockers,
    check_decision,
    check_durable,
    make_app,
    seed,
)

SIZES = {
    "full": {"enforce": 1000, "sync": 500, "contend": 600},
    "smoke": {"enforce": 30, "sync": 20, "contend": 30},
}
# Questions whose eval_errors are summed for client.eval_errors: a fixed
# prefix of the seeded sequence that every full-size run reaches, so the
# count repeats exactly.
EVAL_ERROR_PREFIX = 40


class Workload:
    name = ""
    served = False
    hosts: tuple[str, ...] = ()

    def __init__(self, seed_value: int, size: str):
        self.gen = Generator(seed_value)
        self.contacts = SIZES[size][self.name]
        self.specs: list[ListSpec] = []
        self.providers: dict[str, Provider] = {}
        self.boots: list[float] = []
        self.log_growth: list[int] = []
        self.compactions = 0
        self.mutations = 0
        self.durable: bool | None = None
        self.properties: dict = {}

    def _start(self, workdir: Path) -> None:
        self.providers = {host: Provider(host, workdir / f"{host}.jsonl", self.served)
                          for host in self.hosts}
        self.seeded = seed(self.providers, self.specs)
        self.boots += [p.restart() for p in self.providers.values()]

    def rewind(self) -> None:
        """Start the question sequence over, so a second window part asks the same."""

    def _acknowledged(self, provider: Provider, log_before: int) -> None:
        """Count one acknowledged write and what it did to the data file."""
        self.mutations += 1
        log_after = provider.log_size()
        if log_after < log_before:
            self.compactions += 1  # the file was replaced by a snapshot
        else:
            self.log_growth.append(log_after - log_before)

    def teardown(self) -> None:
        for provider in self.providers.values():
            provider.stop()
        self.providers = {}

    def finish(self) -> None:
        """Check that a fresh boot from the data file holds exactly the acknowledged writes.

        A workload that writes does so to its first list.
        """
        if self.mutations:
            spec = self.specs[0]
            self.durable = check_durable(self.providers.pop(spec.host), spec.account,
                                         spec.name, self.model)
            self.properties.update(mutations=self.mutations, compactions=self.compactions)
        self.teardown()


class Enforce(Workload):
    """Matching-heavy: one in-process app over two providers and three rule shapes."""

    name = "enforce"
    hosts = ("sbo.north.example", "sbo.south.example")

    def __init__(self, seed_value: int, size: str):
        super().__init__(seed_value, size)
        north, south = self.hosts
        self.specs = [
            ListSpec(north, "acct-medium", "everyday", "Medium", DEFAULT_RULE),
            ListSpec(north, "acct-strict", "harassers", "Strict", CANONICAL_RULE),
            ListSpec(south, "acct-lenient", "lookalikes", "Lenient", LENIENT_RULE),
        ]
        for i in range(self.contacts):
            self.specs[i % 3].bags.append(self.gen.bag())
        self.oracle = Oracle(self.specs)
        self.cases = plan_cases(self.gen, self.specs, 300 if size == "full" else 24,
                                {"stranger": 0.80, "hit": 0.10, "near": 0.05,
                                 "malformed": 0.05},
                                self.oracle.matches)
        self.profiles = [Profile(f"p-{i}", parse_identifier_map(c.wire)) for i, c in enumerate(self.cases)]
        self.asked = 0
        self.errors_by_question: dict[int, int] = {}
        self.properties = {"contacts": self.contacts, "questions": len(self.cases),
                           "shares": kind_shares(self.cases)}

    def setup(self, workdir: Path) -> None:
        self._start(workdir)
        self.app = make_app(self.providers, [(s.host, s.account) for s in self.specs])
        self.app.client.refresh()
        if self.app.statuses() != [200, 200, 200]:
            raise RuntimeError("first refresh did not fetch every account")

    @property
    def eval_errors(self) -> int:
        return sum(self.errors_by_question.values())

    def rewind(self) -> None:
        self.asked = 0

    def drive(self, rec: Recorder, seconds: float) -> None:
        client = self.app.client
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            at = self.asked % len(self.cases)
            self.asked += 1
            case = self.cases[at]
            ok, decision = rec.run("decide", client.is_blocked, self.profiles[at])
            if ok:
                if at < EVAL_ERROR_PREFIX:
                    self.errors_by_question[at] = len(decision.eval_errors)
                if not check_decision(case, decision, self.oracle, self.seeded.ids):
                    rec.fail("decide", f"wrong decision for question {at} ({case.kind})")
            ok, report = rec.run("login_check", client.on_blocked_user_login, case.wire)
            if ok and (report.errors or not check_blockers(case, report.blockers, self.oracle)):
                rec.fail("login_check", f"wrong login answer for question {at} ({case.kind})")

    def gated(self, rec: Recorder) -> list[float]:
        return rec.untraced("decide", "login_check")


class Sync(Workload):
    """Fetch-and-write heavy: one durable provider over loopback HTTP, two apps."""

    name = "sync"
    served = True
    hosts = ("sbo.sync.example",)

    def __init__(self, seed_value: int, size: str):
        super().__init__(seed_value, size)
        host = self.hosts[0]
        self.specs = [ListSpec(host, "acct-shared", "shared", "Strict", EXACT_RULE),
                      ListSpec(host, "acct-own", "own", "Strict", EXACT_RULE)]
        for spec in self.specs:
            spec.bags = [self.gen.bag() for _ in range(self.contacts)]
        self.writes = [self.gen.bag() for _ in range(400 if size == "full" else 20)]
        self.write_profiles = [Profile(f"w-{i}", parse_identifier_map(self.gen.variant(bag)))
                               for i, bag in enumerate(self.writes)]
        self.statuses = {200: 0, 304: 0}
        self.cycle, self.current = 0, None
        self.properties = {"contacts": 2 * self.contacts, "planted_hit_share": 0.5}

    def setup(self, workdir: Path) -> None:
        self._start(workdir)
        provider = self.providers[self.hosts[0]]
        shared = self.specs[0]
        self.admin = provider.rest()
        self.token = admin_token(provider, shared.account)
        self.app_a = make_app(self.providers, [(s.host, s.account) for s in self.specs])
        self.app_b = make_app(self.providers, [(shared.host, shared.account)])
        for app in (self.app_a, self.app_b):
            app.client.refresh()
            if set(app.statuses()) != {200}:
                raise RuntimeError("first refresh did not fetch every account")
        self.model = dict(self.seeded.stored[shared.blocker])

    def _refresh(self, rec: Recorder, kind: str, app, expected: list[int]) -> bool:
        ok, _ = rec.run(kind, app.client.refresh)
        got = app.statuses()
        for status in got:
            self.statuses[status] = self.statuses.get(status, 0) + 1
        if ok and got != expected:
            rec.fail(kind, f"{kind}: statuses {got}, expected {expected}")
            return False
        return ok

    def drive(self, rec: Recorder, seconds: float) -> None:
        shared = self.specs[0]
        provider = self.providers[shared.host]
        apps = ((self.app_a, [200, 304]), (self.app_b, [200]))
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.cycle += 1
            before = provider.log_size()
            began = time.perf_counter()
            if self.current is None:
                at = (self.cycle // 2) % len(self.writes)
                ok, body = rec.run("write", self.admin.add_contact, self.token,
                                   shared.account, shared.name, self.writes[at])
                if ok:
                    self.current = (body["contact_id"], at)
                    self.model[body["contact_id"]] = body["identifiers"]
                blocked = True
            else:
                (removed, at), blocked = self.current, False
                ok, _ = rec.run("write", self.admin.remove_contact, self.token,
                                shared.account, shared.name, removed)
                if ok:
                    del self.model[removed]
                    self.current = None
            if not ok:
                continue
            self._acknowledged(provider, before)
            right = all([self._refresh(rec, "refresh_changed", app, expected)
                         for app, expected in apps])
            want = {shared.blocker} if blocked else set()
            for app, _ in apps:
                ok, decision = rec.run("decide", app.client.is_blocked, self.write_profiles[at])
                if not ok:
                    right = False
                    continue
                got = {(m.provider_host, m.account, m.list_name) for m in decision.matches}
                if got != want or decision.blocked != blocked or \
                        (blocked and decision.matches[0].contact_id != self.current[0]):
                    rec.fail("decide", f"wrong decision after write {self.cycle}")
                    right = False
            if right:
                rec.sample("propagation", time.perf_counter() - began)
            for app, _ in apps:
                self._refresh(rec, "refresh_unchanged", app, [304] * len(app.accounts))

    def finish(self) -> None:
        super().finish()
        fetched = sum(self.statuses.values())
        self.properties["not_modified_share"] = self.statuses[304] / fetched if fetched else 0.0

    def gated(self, rec: Recorder) -> list[float]:
        return rec.untraced("propagation")


class Contend(Workload):
    """Admin writes beside blocked-by lookups on the one provider lock.

    Writes arrive open loop at a fixed rate and are timed from their due
    time. Lookups come from one caller back to back (a closed loop), so the
    lock is busy scanning almost all the time and a write waits for the rest
    of the scan in progress. A lookup stream at a fixed rate would instead
    hold the lock for a share of time that grows with the host's speed, and
    write latency would jump between its uncontended and waiting modes from
    run to run.
    """

    name = "contend"
    served = True
    hosts = ("sbo.contend.example",)
    # Below one write per scan even on a slow host, so a write never queues
    # behind the previous one; scan lengths vary, so arrivals still meet
    # scans at every phase.
    WRITE_RATE = 5.0

    def __init__(self, seed_value: int, size: str):
        super().__init__(seed_value, size)
        host = self.hosts[0]
        self.specs = [ListSpec(host, "acct-main", "people", "Medium", DEFAULT_RULE)]
        self.specs[0].bags = [self.gen.bag() for _ in range(self.contacts)]
        self.oracle = Oracle(self.specs)
        self.writes = [self.gen.bag() for _ in range(400 if size == "full" else 20)]
        self.cases = plan_cases(self.gen, self.specs, 200 if size == "full" else 10,
                                {"stranger": 0.90, "hit": 0.10}, self.oracle.matches)
        self.asked = self.adds = 0
        self.current: str | None = None
        self.properties = {"contacts": self.contacts, "questions": len(self.cases),
                           "shares": kind_shares(self.cases),
                           "write_rate_per_s": self.WRITE_RATE, "login_callers": 1}

    def setup(self, workdir: Path) -> None:
        self._start(workdir)
        spec = self.specs[0]
        self.token = admin_token(self.providers[spec.host], spec.account)
        self.model = dict(self.seeded.stored[spec.blocker])

    def rewind(self) -> None:
        self.asked = 0

    def _writer(self, rec: Recorder, due_times: list[float]) -> None:
        spec = self.specs[0]
        provider = self.providers[spec.host]
        rest = provider.rest()
        for due in due_times:
            time.sleep(max(0.0, due - time.perf_counter()))
            before = provider.log_size()
            if self.current is None:
                self.adds += 1
                ok, body = rec.run("write", rest.add_contact, self.token, spec.account,
                                   spec.name, self.writes[self.adds % len(self.writes)],
                                   due=due)
                if ok:
                    self.current = body["contact_id"]
                    self.model[self.current] = body["identifiers"]
            else:
                ok, _ = rec.run("write", rest.remove_contact, self.token, spec.account,
                                spec.name, self.current, due=due)
                if ok:
                    del self.model[self.current]
                    self.current = None
            if ok:
                self._acknowledged(provider, before)

    def _login(self, rec: Recorder, deadline: float) -> None:
        spec = self.specs[0]
        rest = self.providers[spec.host].rest()
        while time.perf_counter() < deadline:
            at = self.asked % len(self.cases)
            self.asked += 1
            case = self.cases[at]
            ok, answer = rec.run("login_check", rest.blocked_by, case.wire)
            blockers = [(spec.host, account, name) for account, name in answer or ()]
            if ok and not check_blockers(case, blockers, self.oracle,
                                         {spec.blocker: self.writes}):
                rec.fail("login_check", f"wrong login answer for question {at} ({case.kind})")

    def drive(self, rec: Recorder, seconds: float) -> None:
        start = time.perf_counter()
        due_times = [start + i / self.WRITE_RATE for i in range(int(self.WRITE_RATE * seconds))]
        streams = [(self._writer, due_times), (self._login, start + seconds)]
        recorders = [Recorder(rec.tracer) for _ in streams]
        threads = [threading.Thread(target=fn, args=(r, due))
                   for (fn, due), r in zip(streams, recorders)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(seconds + 60)
            if thread.is_alive():
                raise RuntimeError("a request stream did not finish")
        for r in recorders:
            rec.merge(r)

    def gated(self, rec: Recorder) -> list[float]:
        return rec.untraced("write")


WORKLOADS = {w.name: w for w in (Enforce, Sync, Contend)}
