#!/usr/bin/env python3
"""Seeded benchmark of swmax: per-algorithm cost, live-query latency, and a
traced per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload coverage-batch --seed 0 --seconds 50 --trace 0

``--trace 0`` times the program from outside with no wrappers installed and
reports the end-to-end metrics, scaled by a host-speed probe (hostref.py);
``--trace 1`` alternates untraced runs with runs traced at every module
boundary and reports the per-layer metrics. Both run the correctness gate
and the CLI parity check. The last line of standard output is one JSON
object; the exit code is 0 only if every check passed. NOTES.md explains
the workloads, the metrics and the estimators.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import hostref
import workloads as wl
from tracer import RESCORE, Tracer, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

# Fewest rounds: three for the end-to-end medians, one for the traced run.
MIN_ROUNDS = 3
SETUP_FIRST = 3
SETUP_PER_ROUND = 2
TRACED_SETUPS = 5
# Host-speed probes before every timed call.
PROBES = 3
PARITY_N = 400
PARITY_WINDOW = 100
PARITY_ALGORITHMS = ("sw-rd", "sieve-greedy")
# Traced self times plus unattributed time must match the run's wall time.
ACCOUNTING_TOLERANCE = 0.10


class Program:
    """The program under test, imported from the checkout's ``src``."""

    def __init__(self):
        src = ROOT / "src"
        if not (src / "swmax" / "__init__.py").is_file():
            raise FileNotFoundError(f"no swmax package under {src}")
        sys.path.insert(0, str(src))
        from swmax import bench, objectives, sliding, streaming

        self.bench, self.objectives, self.streaming, self.sliding = bench, objectives, streaming, sliding


class Harness:
    """One workload's input, store, configs, greedy reference and gate."""

    def __init__(self, program: Program, workload: wl.Workload, seed: int, path: Path):
        self.program = program
        self.workload = workload
        self.seed = seed
        self.path = path
        self.gate = checks.Gate()
        RunConfig = program.bench.RunConfig
        self.configs = {a: wl.run_config(RunConfig, workload, a, path) for a in wl.ALGORITHMS}
        # The pass that records every arrival, when the workload's own does not.
        self.live_configs = {}
        if workload.query_every != 1:
            self.live_configs = {
                a: wl.run_config(RunConfig, workload, a, path, query_every=1) for a in wl.LATENCY_ALGORITHMS
            }
        self.setup_s: list[float] = []
        self.probes: list[float] = []
        self.store = None
        self.time_setup()
        self.reference: dict[tuple[str, bool], str] = {}
        self.greedy = self._greedy_reference()

    def probe_host(self) -> None:
        self.probes.extend(hostref.probe() for _ in range(PROBES))

    def time_setup(self) -> None:
        self.probe_host()
        gc.collect()
        t0 = time.perf_counter()
        store = self.program.bench.load_store(self.configs["sw-rd"])
        self.setup_s.append(time.perf_counter() - t0)
        if self.store is None:
            self.store = store

    def _greedy_reference(self) -> dict[int, float]:
        config = wl.run_config(
            self.program.bench.RunConfig, self.workload, "greedy", self.path, query_every=self.workload.stride
        )
        records = self.program.bench.run_benchmark(config, self.store)
        self.gate.record("greedy reference", checks.record_problems(records, wl.K))
        return {r.window_end: r.utility for r in records}

    def run(self, algorithm: str, label: str, live: bool = False):
        """Time one ``run_benchmark`` call from outside; (seconds, records) or None on failure."""
        config = (self.live_configs if live else self.configs)[algorithm]
        self.probe_host()
        gc.collect()
        try:
            t0 = time.perf_counter()
            records = self.program.bench.run_benchmark(config, self.store)
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - a raising run is a failed run
            self.gate.record(label, [f"raised {type(exc).__name__}: {exc}"])
            return None
        self.gate.record(label, self.problems(algorithm, records, live))
        return elapsed, records

    def problems(self, algorithm: str, records, live: bool = False) -> list[str]:
        problems = checks.record_problems(records, wl.K)
        problems += checks.guarantee_problems(algorithm, records, self.greedy, wl.EPSILON)
        key = checks.strip_wall(self.program.bench.render_metrics_csv(records))
        first = self.reference.setdefault((algorithm, live), key)
        if key != first:
            problems.append("deterministic CSV fields differ from the first run")
        return problems

    def cli_parity(self, workdir: Path) -> None:
        small = wl.write_input(self.workload, self.seed, workdir, n=PARITY_N)
        bench = self.program.bench
        for algorithm in PARITY_ALGORITHMS:
            config = wl.run_config(
                bench.RunConfig, self.workload, algorithm, small, window=PARITY_WINDOW, query_every=None
            )
            label = f"CLI parity {algorithm}"
            try:
                expected = bench.render_metrics_csv(bench.run_benchmark(config))
            except Exception as exc:  # noqa: BLE001
                self.gate.record(label, [f"raised {type(exc).__name__}: {exc}"])
                continue
            self.gate.record(label, checks.cli_problems(ROOT, config, expected))


def rounds_until(seconds: float, body, min_rounds: int) -> int:
    """Call ``body(round)`` until another round would overrun ``seconds``."""
    start = time.perf_counter()
    done = 0
    while True:
        body(done)
        done += 1
        elapsed = time.perf_counter() - start
        if done >= min_rounds and elapsed * (done + 1) / done > seconds:
            return done


def rotated(round_no: int) -> tuple[str, ...]:
    i = round_no % len(wl.ALGORITHMS)
    return wl.ALGORITHMS[i:] + wl.ALGORITHMS[:i]


# -- end-to-end (untraced) ----------------------------------------------------


def segment_medians(runs) -> tuple[float, np.ndarray]:
    """Median over repeats of each segment of a ``run_benchmark`` call.

    ``runs`` holds (outside seconds, records' ``wall_ms`` array) per
    repeat. Segment j is the ``wall_ms`` delta from record j-1 to record j;
    the fixed segment is the outside time minus the last record's
    ``wall_ms`` (validation, prescan, oracle builds). A segment's work is
    the same in every repeat, so its median drops a slow spell of the host
    that hit only some repeats of it. Returns (fixed seconds, per-record ms).
    """
    size = len(runs[0][1])
    same = [(elapsed, wall) for elapsed, wall in runs if len(wall) == size]
    walls = np.array([wall for _, wall in same])
    fixed = statistics.median(elapsed - wall[-1] / 1000.0 for elapsed, wall in same)
    return fixed, np.median(np.diff(walls, axis=1, prepend=0.0), axis=0)


def end_to_end(h: Harness, seconds: float) -> dict[str, float]:
    # Per repeat only (seconds, wall_ms array) is kept, so the process's
    # peak RSS does not grow with the number of repeats.
    runs: dict[str, list] = {a: [] for a in wl.ALGORITHMS}
    live_runs: dict[str, list] = {a: [] for a in h.live_configs} if h.live_configs else runs
    first: dict[tuple[str, bool], list] = {}
    for _ in range(SETUP_FIRST - 1):
        h.time_setup()

    def timed(algorithm: str, live: bool) -> None:
        into = live_runs if live else runs
        label = f"{algorithm} {'live ' if live else ''}repeat {len(into[algorithm])}"
        result = h.run(algorithm, label, live=live)
        if result is not None:
            elapsed, records = result
            into[algorithm].append((elapsed, np.array([r.wall_ms for r in records])))
            first.setdefault((algorithm, live), records)

    def one_round(round_no: int) -> None:
        for algorithm in rotated(round_no):
            timed(algorithm, live=False)
        for algorithm in rotated(round_no):
            if algorithm in h.live_configs:
                timed(algorithm, live=True)
        for _ in range(SETUP_PER_ROUND):
            h.time_setup()

    rounds = rounds_until(seconds, one_round, MIN_ROUNDS)
    n, window = h.workload.n, h.workload.window
    metrics: dict[str, float] = {"setup_s": statistics.median(h.setup_s)}
    totals: dict[str, float] = {}
    print(f"# {rounds} rounds; {len(h.setup_s)} setups")
    for algorithm in wl.ALGORITHMS:
        if runs[algorithm]:
            fixed, segments = segment_medians(runs[algorithm])
            totals[algorithm] = fixed + segments.sum() / 1000.0
            metrics[f"{algorithm}.us_per_arrival"] = totals[algorithm] / n * 1e6
        if algorithm not in wl.LATENCY_ALGORITHMS or not live_runs[algorithm]:
            continue
        records = first[(algorithm, bool(h.live_configs))]
        after = np.array([r.window_end > window for r in records])
        after[0] = False  # the first delta also holds the run's start-up
        samples = segment_medians(live_runs[algorithm])[1][after]
        p50, p99 = np.percentile(samples, [50, 99])
        metrics[f"{algorithm}.arrival_ms_p50"] = float(p50)
        metrics[f"{algorithm}.arrival_ms_p99"] = float(p99)
        print(
            f"# {algorithm}: {len(runs[algorithm])} repeats; latency from {len(live_runs[algorithm])} "
            f"every-arrival repeats, {samples.size} samples after the first window"
        )
    if all(a in totals for a in wl.BASELINES):
        metrics["baselines.us_per_arrival"] = sum(totals[a] for a in wl.BASELINES) / (len(wl.BASELINES) * n) * 1e6
    batch = {a: first[(a, False)] for a in wl.ALGORITHMS if (a, False) in first}
    if len(batch) == len(wl.ALGORITHMS):
        metrics.update(exact_metrics(h, batch))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return scale_to_reference(metrics, h.probes)


def scale_to_reference(metrics: dict[str, float], probes: list[float]) -> dict[str, float]:
    """Scale every timing to the host speed at which one probe takes REFERENCE_S.

    The unscaled figures stay in the report as ``raw.<name>``.
    """
    probe = statistics.median(probes)
    scale = hostref.REFERENCE_S / probe
    print(f"# host probe median {probe * 1e3:.4f} ms over {len(probes)} probes; timings scaled by {scale:.4f}")
    out = {"host.probe_ms": probe * 1e3}
    for name, value in metrics.items():
        if unit_of(name) in ("s", "ms", "us"):
            out[f"raw.{name}"] = value
            value *= scale
        out[name] = value
    return out


def exact_metrics(h: Harness, records: dict[str, list]) -> dict[str, float]:
    n = h.workload.n
    calls = sum(rs[-1].oracle_calls for rs in records.values())
    peak = sum(rs[-1].peak_items for rs in records.values())
    ratios = [
        r.utility / h.greedy[r.window_end]
        for rs in records.values()
        for r in rs
        if r.window_end in h.greedy and h.greedy[r.window_end] > 0
    ]
    return {
        "oracle_calls_per_arrival": calls / n,
        "peak_items": float(peak),
        "utility_vs_greedy": float(np.mean(ratios)),
    }


# -- per-layer (traced) -------------------------------------------------------


def per_run_layers(t: Tracer, n: int) -> dict[str, float | None]:
    """Per-layer figures of one traced algorithm run; None marks an absent boundary."""

    def per(count, total, scale=1.0):
        return total / count / scale if count else None

    m_calls = t.totals("objectives.marginal")[0]
    e_calls = t.totals("objectives.eval")[0]
    build = t.totals("objectives.build")
    layers = t.layer_self_ns()
    step, prune, query = t.totals("sliding.step"), t.totals("sliding.prune"), t.totals("sliding.query")
    sieve, greedy = t.totals("streaming.sieve_step"), t.totals("streaming.greedy")
    inspected = list(zip(*t.inspections)) if t.inspections else [(), (), ()]

    def mean(values):
        return None if not values or any(v is None for v in values) else float(np.mean(values))

    distinct = len(t.marginal_keys) / m_calls if m_calls and t.marginal_keys is not None else None
    return {
        "objectives.marginal_per_arrival": m_calls / n,
        "objectives.eval_per_arrival": e_calls / n,
        "objectives.distinct_ratio": distinct,
        "objectives.self_us_per_arrival": (layers.get("objectives", 0) - build[2]) / n / 1e3,
        "sliding.step_self_us": (step[2] + prune[2]) / n / 1e3 if step[0] else None,
        "sliding.query_us": per(query[0], query[1], 1e3),
        "sliding.prune_us": per(prune[0], prune[1], 1e3),
        "streaming.sieve_self_us_per_arrival": sieve[2] / n / 1e3 if sieve[0] else None,
        "streaming.greedy_calls_per_arrival": greedy[0] / n,
        "streaming.greedy_ms_per_call": per(greedy[0], greedy[1], 1e6),
        "sliding.instances_live": mean(inspected[0]),
        "sliding.thresholds": mean(inspected[1]),
        "sliding.retained_items_mean": mean(inspected[2]),
    }


def per_layer(h: Harness, seconds: float) -> dict[str, float | None]:
    p = h.program
    t = Tracer()
    wrapper_ns = t.calibrate()
    n = h.workload.n

    t.install(p.bench, p.objectives, p.streaming, p.sliding)
    loads, norms = [], []
    try:
        for _ in range(TRACED_SETUPS):
            gc.collect()
            t.begin(trace_id=-1, keep=False)
            p.bench.load_store(h.configs["sw-rd"])
            t.end()
            loads.append(t.totals("ingest.load")[1] / 1e9)
            norms.append(t.totals("ingest.normalize")[1] / 1e9)
    finally:
        t.uninstall()

    untraced: dict[str, list[float]] = {a: [] for a in wl.ALGORITHMS}
    traced: dict[str, list[float]] = {a: [] for a in wl.ALGORITHMS}
    layer_runs: dict[str, list[dict]] = {a: [] for a in wl.ALGORITHMS}
    fixed: dict[str, list[float]] = {"prescan": [], "build": []}
    sums = dict(rescore_ns=0, rescore_calls=0, probe_ns=0, probe_calls=0, root_ns=0, unattributed_ns=0, spans=0)
    first_counts: dict[str, tuple[int, int, int]] = {}
    kept: dict[int, tuple[str, object]] = {}

    trace_ids = itertools.count()

    def traced_run(algorithm: str, repeat: int):
        trace_id = next(trace_ids)
        label = f"{h.workload.name}/{algorithm}/repeat{repeat}"
        gc.collect()
        t.install(p.bench, p.objectives, p.streaming, p.sliding)
        try:
            t.begin(trace_id=trace_id, keep=repeat == 0)
            t0 = time.perf_counter()
            records = p.bench.run_benchmark(h.configs[algorithm], h.store)
            elapsed = time.perf_counter() - t0
            root_ns = t.end()
        except Exception as exc:  # noqa: BLE001
            t.active = False
            h.gate.record(f"traced {label}", [f"raised {type(exc).__name__}: {exc}"])
            return
        finally:
            t.uninstall()
        problems = h.problems(algorithm, records)
        layers = t.layer_self_ns()
        accounted = sum(layers.values()) / 1e9
        if abs(accounted - elapsed) > ACCOUNTING_TOLERANCE * elapsed:
            problems.append(f"layer self times {accounted:.4f}s do not account for wall {elapsed:.4f}s")
        if any(v < 0 for v in layers.values()):
            problems.append(f"negative self time in {layers}")
        h.gate.record(f"traced {label}", problems)
        traced[algorithm].append(elapsed)
        layer_runs[algorithm].append(per_run_layers(t, n))
        prescan, build = t.totals("bench.prescan"), t.totals("objectives.build")
        if prescan[0]:
            fixed["prescan"].append(prescan[1] / 1e9)
        if build[0]:
            fixed["build"].append(build[1] / 1e9)
        rescore, probe = t.totals("objectives.eval", RESCORE), t.totals("objectives.probe")
        sums["rescore_ns"] += rescore[1]
        sums["rescore_calls"] += len(records)
        sums["probe_ns"] += probe[1]
        sums["probe_calls"] += probe[0]
        sums["root_ns"] += root_ns
        sums["unattributed_ns"] += layers.get("unattributed", 0)
        sums["spans"] += t.span_count()
        if repeat == 0:
            first_counts[algorithm] = (
                t.totals("objectives.factor_build")[0],
                t.totals("objectives.factor_copy")[0],
                t.degenerate,
            )
            kept[trace_id] = (label, t.spans)

    def one_round(round_no: int) -> None:
        for algorithm in rotated(round_no):
            result = h.run(algorithm, f"{algorithm} untraced {len(untraced[algorithm])}")
            if result is not None:
                untraced[algorithm].append(result[0])
            traced_run(algorithm, len(traced[algorithm]))

    rounds = rounds_until(seconds, one_round, 1)
    spans_path = WORK / f"spans-{h.workload.name}-seed{h.seed}.npz"
    write_spans(spans_path, t.names, kept)
    print(f"# {rounds} traced rounds; {sums['spans']} spans; first-repeat spans in {spans_path.relative_to(ROOT)}")
    if t.absent:
        print(f"# absent boundaries: {', '.join(t.absent)}")

    def median_or_none(values):
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else None

    metrics: dict[str, float | None] = {
        "ingest.load_s": median_or_none(loads) if any(loads) else None,
        "ingest.normalize_s": median_or_none(norms) if any(norms) else None,
        "bench.prescan_s": median_or_none(fixed["prescan"]),
        "objectives.build_s": median_or_none(fixed["build"]),
        "bench.rescore_us_per_record": sums["rescore_ns"] / sums["rescore_calls"] / 1e3 if sums["rescore_calls"] else None,
        "objectives.probe_us": sums["probe_ns"] / sums["probe_calls"] / 1e3 if sums["probe_calls"] else None,
        "objectives.factor_builds_per_arrival": sum(c[0] for c in first_counts.values()) / n,
        "objectives.factor_copies_per_arrival": sum(c[1] for c in first_counts.values()) / n,
        "objectives.degenerate_pivots": float(sum(c[2] for c in first_counts.values())),
        "trace.wrapper_ns": wrapper_ns,
        "trace.unattributed_share": sums["unattributed_ns"] / sums["root_ns"] if sums["root_ns"] else None,
    }
    if all(traced[a] and untraced[a] for a in wl.ALGORITHMS):
        metrics["trace.overhead"] = sum(statistics.median(traced[a]) for a in wl.ALGORITHMS) / sum(
            statistics.median(untraced[a]) for a in wl.ALGORITHMS
        )
    for algorithm, runs in layer_runs.items():
        for name in runs[0] if runs else ():
            metrics[f"{algorithm}.{name}"] = median_or_none([r[name] for r in runs])
    return metrics


# -- output -------------------------------------------------------------------


def unit_of(name: str) -> str:
    words = name.rsplit(".", 1)[-1].split("_")
    for word, unit in (("ns", "ns"), ("us", "us"), ("ms", "ms"), ("mb", "MB")):
        if word in words:
            return unit
    if words[-1] == "s":
        return "s"
    if words[-1] in ("ratio", "share", "overhead", "greedy"):
        return "ratio"
    return "count"


def report(metrics: dict[str, float | None], declared: list[dict]) -> dict[str, dict]:
    """Print every figure by name and unit; return the declared ones for the JSON line."""
    for name in sorted(metrics):
        value = metrics[name]
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name} = {shown} {unit_of(name) if value is not None else ''}".rstrip())
    out = {}
    for spec in declared:
        value = metrics.get(spec["name"])
        # An absent per-layer boundary (a later program version) reads 0.
        out[spec["name"]] = {"value": float(value) if value is not None else 0.0, "unit": spec["unit"]}
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        program = Program()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-seed{args.seed}"
    try:
        path = wl.write_input(workload, args.seed, workdir)
        print(f"# workload {workload.name}: {workload.why}")
        print(f"# seed {args.seed}; input {path.relative_to(ROOT)} sha256 {wl.sha256(path)}")
        print(f"# n={workload.n} W={workload.window} k={wl.K} eps={wl.EPSILON} query_every={workload.query_every}")
        h = Harness(program, workload, args.seed, path)
        if args.trace:
            metrics = per_layer(h, args.seconds)
            declared = spec["per_layer"]
        else:
            metrics = end_to_end(h, args.seconds)
            declared = spec["end_to_end"]
        h.cli_parity(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    gate = h.gate
    metrics["failed_share"] = gate.failed_share
    out = report(metrics, declared)
    for problem in gate.problems:
        print(f"FAIL {problem}")
    correct = gate.failed == 0
    print(f"# correctness gate: {'PASS' if correct else 'FAIL'} ({gate.failed}/{gate.attempted} runs failed)")
    print(json.dumps({"correct": correct, "attempted": gate.attempted, "failed": gate.failed, "metrics": out}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
