"""Sliding-window maximization algorithms.

Four approaches over the most recent W items, all under a cardinality
constraint k:

* ``SlidingWindowReduction`` -- staggered restarts of any prefix-monotone
  streaming algorithm, pruned so only geometrically separated values
  survive. The only one here with a worst-case guarantee relative to the
  window optimum (factor c/(2+eps) for a c-approximate inner algorithm).
* ``SlidingWindowDP`` -- per-threshold dynamic program tracking, for each
  solution size j, the latest window start from which j threshold-passing
  picks were still possible; guarantees (1-eps)/2 of the window optimum.
* ``SieveNaive`` / ``SieveGreedy`` -- sieve buffers patched for expiry:
  naive dropping, or greedy repair from a uniform sample buffer. Cheap,
  no guarantee.
* ``PrioritySample`` -- the random baseline: a uniform k-subset of the
  window via smallest-priority sampling.

All algorithms are deterministic functions of (stream, config, seed) and
count the item references they hold (``retained_count``); the benchmark
harness reports the peak of that count as the space metric.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable

from .core import Item, SubmodularOracle
from .streaming import SieveStream, ceil_log_ratio, greedy_select


@dataclass
class ReductionInstance:
    start: int
    alg: object


class SlidingWindowReduction:
    """Reduce window maximization to staggered runs of a streaming algorithm.

    Every arrival starts one fresh inner instance; instances whose start has
    left the window are dropped, the rest are fed the new element, and a
    pruning pass removes every instance sandwiched between two whose values
    are within (1+eps) of each other. Queries return the oldest surviving
    in-window instance. Pruning guarantees that instance observed all but a
    value-negligible prefix of the window, which is what yields the
    c/(2+eps) factor for a prefix-monotone, c-approximate inner algorithm.

    ``inner_factory`` builds one fresh inner instance. The reduction calls
    only four of its methods: ``step(item)``, ``best_value()`` (the value
    ``query`` would report, read on every prune without building the
    solution), ``query()`` and ``retained_count()``. An inner algorithm that
    is not naturally prefix-monotone can be wrapped in ``core.BestSoFar``.
    """

    def __init__(self, window: int, epsilon: float, inner_factory: Callable[[], object]):
        if window < 1:
            raise ValueError(f"window size must be >= 1, got {window}")
        if not epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.window = window
        self.epsilon = epsilon
        self.inner_factory = inner_factory
        self.instances: list[ReductionInstance] = []

    def step(self, item: Item) -> None:
        self.instances.append(ReductionInstance(item.t, self.inner_factory()))
        cutoff = item.t - self.window
        while self.instances and self.instances[0].start <= cutoff:
            self.instances.pop(0)
        for inst in self.instances:
            inst.alg.step(item)
        self.prune()

    def prune(self) -> None:
        """Drop instances strictly between pairs with values within (1+eps).

        Values are computed once per pass. Afterwards every other surviving
        value decays by more than (1+eps), so at most O(log(upper)/eps)
        instances remain; zero values can survive only in the last two
        positions.
        """
        vals = self.instance_values()
        u = len(vals)
        keep = [True] * u
        grow = 1.0 + self.epsilon
        j = 0
        while j < u - 1:
            x = u - 1
            while x > j and grow * vals[x] < vals[j]:
                x -= 1
            for v in range(j + 1, x):
                keep[v] = False
            j = x if x > j else j + 1
        if not all(keep):
            self.instances = [inst for inst, kept in zip(self.instances, keep) if kept]

    def query(self) -> tuple[list[int], float]:
        """Solution of the oldest instance; ``step`` has dropped every
        instance that started before the window."""
        if not self.instances:
            return [], 0.0
        return self.instances[0].alg.query()

    def instance_starts(self) -> list[int]:
        return [inst.start for inst in self.instances]

    def instance_values(self) -> list[float]:
        return [inst.alg.best_value() for inst in self.instances]

    def retained_count(self) -> int:
        return sum(inst.alg.retained_count() for inst in self.instances)


class ThresholdGreedy:
    """Level table for one threshold T over a sliding window.

    ``level[j]`` is the latest timestep from which j elements with marginal
    gain >= T were still collectible; ``sets[j]`` holds those j elements and
    ``handles[j]`` their oracle handle. On arrival, level 0 restarts at the
    current step, expired levels are deactivated (their sets are retained
    but unreported), and levels are scanned from high to low so each reads
    its pre-step state: the scan at j reads levels j and j+1 and writes only
    j+1, which no earlier (higher) step wrote. A literal low-to-high in-place
    scan would let the fresh level-0 restart overwrite level 1 before it is
    read, destroying valid longer solutions.
    """

    def __init__(self, k: int, window: int, threshold: float, oracle: SubmodularOracle):
        if k < 1:
            raise ValueError(f"cardinality bound must be >= 1, got {k}")
        if window < 1:
            raise ValueError(f"window size must be >= 1, got {window}")
        self.k = k
        self.window = window
        self.threshold = threshold
        self.levels: list[int] = [-1] * (k + 1)
        self.sets: list[list[int]] = [[] for _ in range(k + 1)]
        self.handles = [oracle.empty()] * (k + 1)
        self.vals: list[float] = [0.0] * (k + 1)
        self._retained = 0

    def step(self, item: Item) -> None:
        i = item.t
        self.levels[0] = i
        self.sets[0] = []
        self.vals[0] = 0.0
        for j in range(self.k + 1):
            if self.levels[j] <= i - self.window:
                self.levels[j] = -1
        for j in range(self.k - 1, -1, -1):
            if self.levels[j] == -1:
                continue
            if self.levels[j] <= self.levels[j + 1]:
                continue
            gain = self.handles[j].gain(i)
            if gain >= self.threshold:
                self.levels[j + 1] = self.levels[j]
                self._retained += len(self.sets[j]) + 1 - len(self.sets[j + 1])
                self.sets[j + 1] = self.sets[j] + [i]
                self.vals[j + 1] = self.vals[j] + gain
                self.handles[j + 1] = self.handles[j].child(i)

    def query(self) -> tuple[list[int], float]:
        for j in range(self.k, -1, -1):
            if self.levels[j] != -1:
                return list(self.sets[j]), self.vals[j]
        return [], 0.0

    def retained_count(self) -> int:
        return self._retained


class SlidingWindowDP:
    """Best of a geometric grid of ThresholdGreedy instances.

    Thresholds are (1+eps)**l / (2k) for l = 0 .. 1 + ceil(log_{1+eps} M)
    with ``M = k * oracle.max_singleton()``, which bounds every window's
    optimum. The grid brackets opt/(2k) within a (1+eps) factor whenever
    the window optimum is at least 1; that instance's deepest level is
    within (1-eps)/2 of the optimum.
    """

    def __init__(self, k: int, window: int, epsilon: float, oracle: SubmodularOracle):
        self.k = k
        self.window = window
        self.thresholds = dp_threshold_grid(k, k * oracle.max_singleton(), epsilon)
        self.instances = [ThresholdGreedy(k, window, t, oracle) for t in self.thresholds]

    def step(self, item: Item) -> None:
        for inst in self.instances:
            inst.step(item)

    def query(self) -> tuple[list[int], float]:
        best: tuple[list[int], float] = [], 0.0
        for inst in self.instances:
            sol, val = inst.query()
            if val > best[1]:
                best = (sol, val)
        return best

    def retained_count(self) -> int:
        return sum(inst.retained_count() for inst in self.instances)


def dp_threshold_grid(k: int, upper: float, epsilon: float) -> list[float]:
    """(1+eps)**l / (2k) for l = 0 .. 1 + ceil(log_{1+eps} upper)."""
    if k < 1:
        raise ValueError(f"cardinality bound must be >= 1, got {k}")
    base = 1.0 + epsilon
    top = 1 + ceil_log_ratio(upper, epsilon)
    return [base**level / (2.0 * k) for level in range(top + 1)]


class SieveNaive(SieveStream):
    """SieveStream with per-buffer expiry: drop the expired item, keep going.

    After a drop the buffer's handle and value are rebuilt (one oracle call)
    and the usual add condition applies against the reduced buffer. Buffer
    ids are timesteps, so at most one item can expire per buffer per step;
    the scan checks that defensively.
    """

    def __init__(self, k: int, window: int, epsilon: float, oracle: SubmodularOracle):
        if window < 1:
            raise ValueError(f"window size must be >= 1, got {window}")
        super().__init__(k, epsilon, oracle)
        self.window = window

    def step(self, item: Item) -> None:
        for level in range(len(self.thresholds)):
            self._expire(level, item.t)
            self._consider(level, item)

    def _expire(self, level: int, now: int) -> None:
        buf = self.buffers[level]
        expired = [t for t in buf if t <= now - self.window]
        if not expired:
            return
        assert len(expired) == 1, f"multiple expiries in one step: {expired}"
        buf.remove(expired[0])
        self._retained -= 1
        if buf:
            self.handles[level], value = self.oracle.rebuild(buf)
        else:
            self.handles[level], value = self.oracle.empty(), 0.0
        self.values[level] = value


class SieveGreedy(SieveStream):
    """Sieve buffers repaired from a uniform sample of the window.

    Each arrival is kept in a sample buffer B with probability c/W. When a
    buffer member expires, the buffer is rebuilt by greedy selection of one
    fewer element from B plus the surviving members; then the usual sieve
    add condition applies. The repair may return fewer elements than asked
    when B is thin; the smaller set is accepted.
    """

    def __init__(
        self,
        k: int,
        window: int,
        epsilon: float,
        oracle: SubmodularOracle,
        sample_c: float,
        seed: int = 0,
    ):
        if window < 1:
            raise ValueError(f"window size must be >= 1, got {window}")
        if sample_c < 0:
            raise ValueError(f"sampling parameter must be >= 0, got {sample_c}")
        super().__init__(k, epsilon, oracle)
        self.window = window
        self.sample_rate = min(1.0, sample_c / window)
        self.samples: list[int] = []
        self.sampled_total = 0
        self._rng = random.Random(seed)

    def step(self, item: Item) -> None:
        if self._rng.random() < self.sample_rate:
            self.samples.append(item.t)
            self.sampled_total += 1
        cutoff = item.t - self.window
        while self.samples and self.samples[0] <= cutoff:
            self.samples.pop(0)
        for level in range(len(self.thresholds)):
            self._repair(level, item.t)
            self._consider(level, item)

    def _repair(self, level: int, now: int) -> None:
        buf = self.buffers[level]
        expired = [t for t in buf if t <= now - self.window]
        if not expired:
            return
        assert len(expired) == 1, f"multiple expiries in one step: {expired}"
        target = len(buf) - 1
        survivors = [t for t in buf if t != expired[0]]
        candidates = sorted(set(self.samples) | set(survivors))
        self.buffers[level], self.values[level], self.handles[level] = greedy_select(
            candidates, target, self.oracle
        )
        self._retained += len(self.buffers[level]) - len(buf)

    def retained_count(self) -> int:
        return super().retained_count() + len(self.samples)


class PrioritySample:
    """Uniform k-subset of the window via smallest-priority sampling.

    Every arrival gets an independent Uniform(0,1) priority; the query
    sample is the k smallest-priority in-window items, which is a uniformly
    random k-subset. An item can be discarded as soon as k later in-window
    items beat its priority (they outlive it, so it can never re-enter the
    sample), keeping the expected buffer at O(k log(W/k)).
    """

    def __init__(self, k: int, window: int, oracle: SubmodularOracle, seed: int = 0):
        if k < 1:
            raise ValueError(f"cardinality bound must be >= 1, got {k}")
        if window < 1:
            raise ValueError(f"window size must be >= 1, got {window}")
        self.k = k
        self.window = window
        self.oracle = oracle
        self.candidates: list[tuple[int, float]] = []
        self._rng = random.Random(seed)

    def step(self, item: Item) -> None:
        cutoff = item.t - self.window
        while self.candidates and self.candidates[0][0] <= cutoff:
            self.candidates.pop(0)
        self.candidates.append((item.t, self._rng.random()))
        self._evict_dominated()

    def _evict_dominated(self) -> None:
        kept_rev: list[tuple[int, float]] = []
        later: list[float] = []  # priorities of kept later arrivals, sorted
        for cand in reversed(self.candidates):
            if bisect_left(later, cand[1]) < self.k:
                kept_rev.append(cand)
            insort(later, cand[1])
        self.candidates = kept_rev[::-1]

    def query(self) -> tuple[list[int], float]:
        pool = sorted(self.candidates, key=lambda c: c[1])
        ids = sorted(t for t, _ in pool[: self.k])
        if not ids:
            return [], 0.0
        return ids, self.oracle.eval(ids)

    def retained_count(self) -> int:
        return len(self.candidates)


def sieve_reduction(
    k: int, window: int, epsilon: float, oracle: SubmodularOracle
) -> SlidingWindowReduction:
    """The standard configuration: the reduction over fresh sieve instances."""
    return SlidingWindowReduction(window, epsilon, lambda: SieveStream(k, epsilon, oracle))
