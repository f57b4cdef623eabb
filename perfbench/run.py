"""Benchmark of the SBO reference implementation: one workload per run.

    python3 perfbench/run.py --workload enforce --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` and the independent oracle from ``tests/oracles.py``. A run builds
its inputs from ``--seed``, sets the system up three times (``setup_s`` is
the median), drives the timed window for ``--seconds``, checks every answer
and, on ``sync`` and ``contend``, that the data file holds exactly the
acknowledged writes. It prints two JSON lines:

* a report: the workload's input properties and every operation metric that
  applies to it (``decide_p50_ms``, ``write_p90_ms``, ``error_rate``, ...);
* last, the result: ``correct``, ``attempted``, ``failed`` and ``metrics``.
  With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json;
  with ``--trace 1`` they are the per-layer ones, taken from spans recorded
  around the program's public functions (see spans.py).

Every workload reports the same end-to-end metrics, since every run must
carry all of them; most operation metrics exist on one workload only, so
they go to the report line. Gated latency (``latency_p50_ms``,
``latency_p90_ms``) is the operation the workload exists to measure: a
block decision or login answer on ``enforce``, a write's propagation to
both apps' decisions on ``sync``, and an admin write timed from its due time
on ``contend``.

Per-layer units: ``calls/op`` and ``ms/op`` are calls and self time per
traced top-level operation of the timed window; ``ms`` on a route or a
set-up call is its median duration per call, children included. A layer a
workload does not reach reads 0.

A traced run first drives a third of its window with no wrapper installed,
then rewinds and drives the same questions traced; the two parts give
``bench.trace_overhead_pct``. Spans are written to
``.perfbench_out/``; scratch data files live in ``.perfbench_work-*/`` and
are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
# Share of a traced run's window measured with no wrapper installed.
UNTRACED_SHARE = 1 / 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("enforce", "sync", "contend"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tens of contacts, for the benchmark's own tests")
    return parser.parse_args(argv)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, rec, setup_times: list[float], elapsed: float) -> dict:
    from harness import p50, p90, peak_rss_mb
    gated = wl.gated(rec)
    completed = sum(len(v) for k, v in rec.samples.items() if k != "propagation")
    return {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "latency_p50_ms": metric(p50(gated) * 1000, "ms"),
        "latency_p90_ms": metric(p90(gated) * 1000, "ms"),
        "ops_per_s": metric(completed / elapsed, "1/s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }


def operation_report(rec, src: int) -> dict:
    """Every operation metric that applies to this workload, from untraced samples."""
    from harness import p50, p90
    out = {}
    for kind in ("decide", "login_check", "write", "propagation"):
        values = rec.untraced(kind)
        if values:
            out[f"{kind}_p50_ms"] = metric(p50(values) * 1000, "ms")
            out[f"{kind}_p90_ms"] = metric(p90(values) * 1000, "ms")
    for kind in ("refresh_changed", "refresh_unchanged"):
        values = rec.untraced(kind)
        if values:
            out[f"{kind}_p50_ms"] = metric(p50(values) * 1000, "ms")
    out["error_rate"] = metric(rec.failed / max(rec.attempted, 1), "ratio")
    out["gen_lag_p90_ms"] = metric(p90(rec.lags) * 1000, "ms")
    out["src_lines"] = metric(src, "lines")
    return out


def per_layer(tracer, wl, rec, src: int) -> dict:
    from sbo.rules import cached_parse_rule
    from harness import p90
    from spans import ROUTES, median_ms

    ops = max(tracer.ops, 1)

    def calls(*names):
        return sum(tracer.tally("window", n)[0] for n in names)

    def self_ms(*names):
        return sum(tracer.tally("window", n)[2] for n in names) * 1000 / ops

    def counted(name, phase="window"):
        return tracer.counts.get((phase, name), 0)

    def route_ms(name, route):
        return median_ms(tracer.durations(name, route, "window"))

    evaluate = ("rules.evaluate_rule@client", "rules.evaluate_rule@provider")
    crml_gets = [r for r in (s[2] for s in tracer.spans()
                             if s[1] == "http_api.handle" and s[5] == "window")
                 if r in ("get_crml_200", "get_crml_304")]
    wire = tracer.wire_times()
    cache = cached_parse_rule.cache_info()
    out = {
        "similarity.text_similarity.calls": (calls("similarity.text_similarity") / ops, "calls/op"),
        "similarity.text_similarity.ms": (self_ms("similarity.text_similarity"), "ms/op"),
        "similarity.image_distance.calls": (calls("similarity.image_distance") / ops, "calls/op"),
        "identifiers.normalize_identifier.calls":
            (calls("identifiers.normalize_identifier") / ops, "calls/op"),
        "rules.evaluate_rule.calls": (calls(*evaluate) / ops, "calls/op"),
        "rules.evaluate_rule.ms": (self_ms(*evaluate), "ms/op"),
        "rules.match_yield": (counted("rules.matched") / max(calls(*evaluate), 1), "ratio"),
        "client.contacts_evaluated_per_decision":
            (calls(evaluate[0]) / max(calls("client.is_blocked"), 1), "count"),
        "client.is_blocked.ms": (self_ms("client.is_blocked"), "ms/op"),
        "client.on_blocked_user_login.ms": (self_ms("client.on_blocked_user_login"), "ms/op"),
        "client.eval_errors": (getattr(wl, "eval_errors", 0), "count"),
        "provider.blocked_by.ms": (self_ms("provider.blocked_by"), "ms/op"),
        "provider.add_contact.ms": (self_ms("provider.add_contact"), "ms/op"),
        "provider.remove_contact.ms": (self_ms("provider.remove_contact"), "ms/op"),
        "provider.log_bytes_per_mutation":
            (statistics.mean(wl.log_growth) if wl.log_growth else 0.0, "B"),
        "provider.compactions": (wl.compactions, "count"),
        "provider.export_with_digest.ms": (self_ms("provider.export_with_digest"), "ms/op"),
        "crml.serialize_crml.ms": (self_ms("crml.serialize_crml"), "ms/op"),
        "crml.serialize_crml.bytes":
            (counted("crml.serialize_crml.bytes") / max(calls("crml.serialize_crml"), 1), "B"),
        "crml.parse_crml.ms": (self_ms("crml.parse_crml"), "ms/op"),
        "crml.parse_crml.bytes":
            (counted("crml.parse_crml.bytes") / max(calls("crml.parse_crml"), 1), "B"),
        "restclient.get_crml.ms": (self_ms("restclient.get_crml"), "ms/op"),
        "restclient.not_modified_ratio":
            (crml_gets.count("get_crml_304") / max(len(crml_gets), 1), "ratio"),
    }
    for route in ("get_crml_200", "get_crml_304"):
        out[f"transport.request.ms.{route}"] = (route_ms("transport.request", route), "ms")
        out[f"http_api.handle.ms.{route}"] = (route_ms("http_api.handle", route), "ms")
    for route in ROUTES:
        out[f"http_api.wire_ms.{route}"] = (median_ms(wire.get(route, [])), "ms")
    out.update({
        "transport.bytes_in": (counted("transport.bytes_in") / ops, "B/op"),
        "transport.bytes_out": (counted("transport.bytes_out") / ops, "B/op"),
        "transport.request.failures": (counted("transport.request.failures")
                                       + counted("transport.request.failures", "setup"),
                                       "count"),
        "provider.boot_ms": (statistics.median(wl.boots) * 1000, "ms"),
        "provider.create_account.ms":
            (median_ms(tracer.durations("provider.create_account", phase="setup")), "ms"),
        "provider.issue_token.ms":
            (median_ms(tracer.durations("provider.issue_token", phase="setup")), "ms"),
        "rules.parse_cache_hit_ratio":
            (cache.hits / max(cache.hits + cache.misses, 1), "ratio"),
        "bench.gen_lag_p90_ms": (p90(rec.lags) * 1000, "ms"),
        "bench.trace_overhead_pct": (rec.overhead_pct(), "%"),
        "src_lines": (src, "lines"),
    })
    return {name: metric(value, unit) for name, (value, unit) in out.items()}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sbo" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"perfbench: no SBO source tree (src/sbo, tests/oracles.py) under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import spans
    from harness import Recorder, machine_ms, src_lines, workdir_for
    from workloads import WORKLOADS

    machine = [machine_ms()]
    tracer = spans.Tracer() if args.trace else None
    restore = spans.install(tracer) if tracer is not None else None
    wl = WORKLOADS[args.workload](args.seed, args.size)
    work = workdir_for(ROOT, args.workload)
    rec = Recorder()
    setup_times: list[float] = []
    try:
        for rep in range(SETUP_REPS):
            if rep:
                wl.teardown()
            rep_dir = work / f"setup-{rep}"
            rep_dir.mkdir()
            with tracer.everything() if tracer is not None else nullcontext():
                began = time.perf_counter()
                wl.setup(rep_dir)
                setup_times.append(time.perf_counter() - began)
        if tracer is None:
            began = time.perf_counter()
            wl.drive(rec, args.seconds)
            elapsed = time.perf_counter() - began
        else:
            # untraced first, wrappers removed; then the same questions traced
            restore()
            wl.drive(rec, args.seconds * UNTRACED_SHARE)
            wl.rewind()
            restore = spans.install(tracer)
            rec.tracer, tracer.phase = tracer, "window"
            wl.drive(rec, args.seconds * (1 - UNTRACED_SHARE))
        wl.finish()
    finally:
        if restore is not None:
            restore()
        wl.teardown()
        shutil.rmtree(work, ignore_errors=True)

    machine.append(machine_ms())
    src = src_lines(ROOT)
    correct = rec.failed == 0 and wl.durable is not False
    report = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "seconds": args.seconds, "trace": args.trace,
              "samples": {k: len(v) for k, v in rec.samples.items()},
              "inputs": wl.properties, "durable": wl.durable,
              "first_error": rec.first_error,
              "machine_ms_before_after": machine,
              "metrics": operation_report(rec, src)}
    if tracer is not None:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = per_layer(tracer, wl, rec, src)
    else:
        metrics = end_to_end(wl, rec, setup_times, elapsed)
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
