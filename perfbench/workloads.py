"""The benchmark's workloads and the seeded generators of their input files.

Inputs are made here, from the benchmark's ``--seed`` only, and written to
files that the program reads through its own ``sets``/``csv`` ingest path.
The program's own synthetic generators are not used, so a change to them
cannot change what is measured.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Every workload runs this algorithm set at k=5, epsilon=0.2 (the ROADMAP
# matrix cell). "random" and "sieve-naive" are pooled as the baselines.
ALGORITHMS = ("sw-rd", "sw-dp", "sieve-naive", "sieve-greedy", "random")
BASELINES = ("sieve-naive", "random")
K = 5
EPSILON = 0.2
SAMPLE_C = 20.0

# Coverage stream: universe size and mean set size.
UNIVERSE = 1000
MEAN_SET_SIZE = 20.0
# IVM stream: dimension, mixture components, arrivals per dominant
# component, and per-point noise scale.
DIM = 5
CLUSTERS = 4
DRIFT_PERIOD = 500
SPREAD = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    objective: str
    n: int
    window: int
    query_every: int
    why: str

    @property
    def format(self) -> str:
        return "sets" if self.objective == "coverage" else "csv"

    @property
    def normalize(self) -> bool:
        return self.objective == "ivm"

    @property
    def stride(self) -> int:
        """Windows every ``W/10`` arrivals are scored against greedy."""
        return max(1, -(-self.window // 10))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "coverage-batch", "coverage", n=4000, window=1000, query_every=100,
            why="cheap bitmask oracle: time goes to streaming/sliding bookkeeping",
        ),
        Workload(
            "ivm-live", "ivm", n=1500, window=500, query_every=1,
            why="costly log-det oracle, a query and re-score after every arrival: per-arrival latency and tail spikes",
        ),
    )
}
# Latency is measured on a pass that records after every arrival; a batch
# workload makes that pass in addition to its own, for these algorithms.
LATENCY_ALGORITHMS = ("sw-rd", "sw-dp", "sieve-greedy")


def _rng(seed: int, family: int) -> np.random.Generator:
    # One independent stream per (seed, input family).
    return np.random.default_rng([seed, family])


def set_stream(n: int, seed: int) -> list[list[int]]:
    """``n`` independent subsets of [0, UNIVERSE), each element kept w.p. MEAN/UNIVERSE."""
    rng = _rng(seed, 1)
    mask = rng.random((n, UNIVERSE)) < MEAN_SET_SIZE / UNIVERSE
    return [np.flatnonzero(row).tolist() for row in mask]


def drift_vectors(n: int, seed: int) -> np.ndarray:
    """Gaussian-mixture points whose dominant component rotates every DRIFT_PERIOD arrivals.

    A point comes from the dominant component w.p. 0.75, otherwise from a
    uniformly chosen other one, so the window's distribution shifts at
    every phase boundary.
    """
    rng = _rng(seed, 2)
    centers = rng.normal(0.0, 1.0, size=(CLUSTERS, DIM))
    dominant = (np.arange(n) // DRIFT_PERIOD) % CLUSTERS
    other = rng.integers(CLUSTERS - 1, size=n)
    other = np.where(other < dominant, other, other + 1)
    cluster = np.where(rng.random(n) < 0.75, dominant, other)
    return centers[cluster] + SPREAD * rng.normal(size=(n, DIM))


def write_input(workload: Workload, seed: int, directory: Path, n: int | None = None) -> Path:
    """Write an input file of ``n`` arrivals (default: the workload's length)."""
    n = workload.n if n is None else n
    directory.mkdir(parents=True, exist_ok=True)
    if workload.objective == "coverage":
        path = directory / f"sets-{n}.txt"
        lines = (" ".join(map(str, s)) for s in set_stream(n, seed))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        path = directory / f"vectors-{n}.csv"
        header = ",".join(f"x{i}" for i in range(DIM))
        np.savetxt(path, drift_vectors(n, seed), delimiter=",", fmt="%.17g", header=header, comments="")
    return path


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_config(RunConfig, workload: Workload, algorithm: str, path: Path, **overrides):
    """The program's RunConfig for one algorithm on one workload input file.

    ``upper_bound`` and ``jobs`` stay at the program's defaults.
    """
    fields = dict(
        objective=workload.objective,
        algorithm=algorithm,
        k=K,
        window=workload.window,
        epsilon=EPSILON,
        sample_c=SAMPLE_C,
        query_every=workload.query_every,
        input=str(path),
        format=workload.format,
        normalize=workload.normalize,
    )
    fields.update(overrides)
    return RunConfig(**fields)
