"""Sliding-window maximization algorithms.

Four approaches over the most recent W items, all under a cardinality
constraint k. Each is fed one arrival at a time by ``step(t)``, with ``t``
the arrival's timestep, which is also its item id:

* ``SlidingWindowReduction`` -- staggered restarts of any prefix-monotone
  streaming algorithm, pruned so only geometrically separated values
  survive. The only one here with a worst-case guarantee relative to the
  window optimum (factor c/(2+eps) for a c-approximate inner algorithm).
* ``SlidingWindowDP`` -- per-threshold dynamic program (level tables)
  tracking, for each solution size j, the latest window start from which j
  threshold-passing picks were still possible; guarantees (1-eps)/2 of the
  window optimum.
* ``SieveNaive`` / ``SieveGreedy`` -- sieve buffers patched for expiry:
  naive dropping, or greedy repair from a uniform sample buffer. Cheap,
  no guarantee.
* ``PrioritySample`` -- the random baseline: a uniform k-subset of the
  window via smallest-priority sampling.

Each threshold grid is a range of exponents l of the lattice (1+eps)**l,
kept as runs, ranges of adjacent exponents that hold one state: one sieve
buffer, or one level table. An arrival, an expiry or a repair is worked
out once per run, while oracle calls and retained references are still
counted per threshold, so the reported metrics are those of one state per
threshold.

All algorithms are deterministic functions of (stream, config, seed) and
count the item references they hold (``retained_count``); the benchmark
harness reports the peak of that count as the space metric.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

from .core import OracleHandle, SubmodularOracle, lattice_base, next_timestep, positive_int
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
    only four of its methods: ``step(t)``, ``best_value()`` (the value
    ``query`` would report, read on every prune without building the
    solution), ``query()`` and ``retained_count()``. An inner algorithm whose
    value is not naturally prefix-monotone keeps its own best handle so far
    and reports it from ``best_value`` and ``query``, as
    ``SieveStream._best`` does.
    """

    def __init__(self, window: int, epsilon: float, inner_factory: Callable[[], object]):
        self.window = positive_int(window, "window")
        lattice_base(epsilon)
        self.epsilon = epsilon
        self.inner_factory = inner_factory
        self.instances: list[ReductionInstance] = []
        self._retained = 0
        self._t = 0

    def step(self, t: int) -> None:
        self._t = next_timestep(self._t, t)
        self.instances.append(ReductionInstance(t, self.inner_factory()))
        cutoff = t - self.window
        while self.instances and self.instances[0].start <= cutoff:
            self.instances.pop(0)
        for inst in self.instances:
            inst.alg.step(t)
        self.prune()

    def prune(self) -> None:
        """Drop instances strictly between pairs with values within (1+eps).

        Values are computed once per pass. After a kept index j the next is
        the largest x > j with ``(1+eps) * v[x] >= v[j]``, or j+1. Then every
        other survivor's value decays by more than (1+eps), so O(log(upper)/eps)
        instances remain; zero values survive only in the last two positions.
        The pass also sums the survivors' retained references.
        """
        instances = self.instances
        vals = [inst.alg.best_value() for inst in instances]
        last = len(vals) - 1
        grow = 1.0 + self.epsilon
        kept = []
        retained = 0
        j = 0
        while j < last:
            inst = instances[j]
            kept.append(inst)
            retained += inst.alg.retained_count()
            x = last
            while x > j + 1 and grow * vals[x] < vals[j]:
                x -= 1
            j = x
        if instances:  # the newest always survives
            kept.append(instances[last])
            retained += instances[last].alg.retained_count()
        self.instances = kept
        self._retained = retained

    def query(self) -> tuple[list[int], float]:
        """Solution of the oldest instance; ``step`` has dropped every
        instance that started before the window."""
        if not self.instances:
            return [], 0.0
        return self.instances[0].alg.query()

    def retained_count(self) -> int:
        """The live instances' references, as the last ``prune`` summed them."""
        return self._retained


class SlidingWindowDP:
    """Level tables for a geometric grid of thresholds over a sliding window.

    Thresholds are ``T = (1+eps)**l / (2k)`` for
    l = 0 .. 1 + ceil(log_{1+eps} M) with ``M = k * oracle.max_singleton()``,
    which bounds every window's optimum. The grid brackets opt/(2k) within a (1+eps) factor whenever
    the window optimum is at least 1; that threshold's deepest level is
    within (1-eps)/2 of the optimum.

    For one threshold T, ``levels[j]`` is the latest timestep from which j
    elements with marginal gain >= T were still collectible, and
    ``handles[j]`` is the handle of those j elements. On arrival, level 0
    restarts at the current step, expired levels are deactivated (their
    sets are retained but unreported) from the deepest one up, and levels
    are scanned from high to low so each reads its pre-step state: the
    scan at j reads levels j and j+1 and writes only j+1, which no earlier
    (higher) step wrote. A literal low-to-high in-place scan would let the
    fresh level-0 restart overwrite level 1 before it is read, destroying
    valid longer solutions.
    Queries return the deepest active level of the best table, the lowest
    threshold's on ties.

    Invariant: a table's active levels form a prefix 0 .. d, and their
    starts do not increase with j. Level 0 starts at the current step; a
    hand-off gives level j+1 the start of level j, which it exceeded; and
    expiry deactivates the levels that start at or before the horizon, a
    suffix of the active ones. So expiry walks down from level k, past the
    inactive levels and then the expired ones, and stops at the first live
    level, which level 0 always is; on a nearly full table that is about
    one test per run instead of k. The query reads the deepest active level
    as the one before the first inactive level, or k if none is inactive.

    Adjacent thresholds with equal tables share one: ``runs`` holds
    ``[lo, hi, levels, handles]`` for exponents ``lo .. hi-1``, and a
    threshold is computed as ``base**l / (2.0 * k)`` where the test needs it.
    Every threshold of a run makes the same expiry and takes the same gain
    at each level j, and the pass test ``gain >= T`` holds for a prefix of
    the run, so an arrival costs one gain per run and level and splits a run
    at most at one cut per level, found by ``bisect`` over the exponents. A
    run that does not split is updated in place. Adjacent runs merge again
    when their ``levels`` and ``handles`` are equal. Costs stay per
    threshold: a run of m thresholds charges m oracle calls for its one
    gain, and ``retained_count`` counts every set of every threshold.
    """

    def __init__(self, k: int, window: int, epsilon: float, oracle: SubmodularOracle):
        self.k = k = positive_int(k, "k")
        self.window = positive_int(window, "window")
        self.base = lattice_base(epsilon)
        top = 1 + ceil_log_ratio(k * oracle.max_singleton(), epsilon)
        try:
            self.base**top  # the highest threshold ``_scan`` computes
        except OverflowError:
            raise ValueError(f"epsilon {epsilon} is too large: the top threshold (1 + epsilon)**{top} overflows") from None
        self.runs: list[list] = [[0, top + 1, [-1] * (k + 1), [oracle.empty()] * (k + 1)]]
        self._retained = 0
        self._t = 0

    def step(self, t: int) -> None:
        self._t = next_timestep(self._t, t)  # so no start is -1, the mark of an inactive level
        horizon, k = t - self.window, self.k
        runs: list[list] = []
        for run in self.runs:
            levels = run[2]
            levels[0] = t
            j = k
            while levels[j] == -1:
                j -= 1
            while levels[j] <= horizon:  # level 0 holds t, which is live
                levels[j] = -1
                j -= 1
            self._scan(run, k - 1, t, runs)
        self.runs = runs

    def _scan(self, run: list, top: int, i: int, runs: list) -> None:
        """Scan levels ``top`` .. 0 of ``run`` in place, then append it to
        ``runs``, merged into the previous run if their tables are equal.

        A hand-off that passes on a proper prefix of the run's thresholds
        splits that prefix off as a copy, which takes the hand-off, is
        scanned on from the next level down and goes first. The run's lowest
        and highest thresholds are computed once per visit, the lowest again
        after a split.
        """
        base, scale = self.base, 2.0 * self.k
        lo, hi, levels, handles = run
        low = base**lo / scale
        high = low if hi - lo == 1 else base ** (hi - 1) / scale
        for j in range(top, -1, -1):
            start = levels[j]
            if start == -1 or start <= levels[j + 1]:
                continue
            handle = handles[j]
            gain = handle.gain(i)
            if hi - lo > 1:
                handle.counter.calls += hi - lo - 1
            if not gain >= low:
                continue
            piece = run
            if not gain >= high:  # thresholds lo .. cut-1 pass
                cut = bisect_right(range(hi), gain, lo + 1, hi - 1, key=lambda l: base**l / scale)
                piece = [lo, cut, levels[:], handles[:]]
                run[0] = lo = cut
                low = base**lo / scale
            p_lo, p_hi, p_levels, p_handles = piece
            p_levels[j + 1] = start
            self._retained += (p_hi - p_lo) * (len(handle.ids) + 1 - len(p_handles[j + 1].ids))
            p_handles[j + 1] = handle.child(i)
            if piece is not run:
                self._scan(piece, j - 1, i, runs)
        if runs and runs[-1][2] == levels and runs[-1][3] == handles:
            runs[-1][1] = hi
        else:
            runs.append(run)

    def query(self) -> tuple[list[int], float]:
        k = self.k
        best = self.runs[0][3][0]  # level 0 never changes: the root, empty and of value 0
        for _, _, levels, handles in self.runs:
            handle = handles[k if levels[k] != -1 else levels.index(-1) - 1]
            if handle.value > best.value:
                best = handle
        return list(best.ids), best.value

    def retained_count(self) -> int:
        return self._retained


class SieveNaive(SieveStream):
    """SieveStream with per-buffer expiry: drop the expired items, keep going.

    After a drop the buffer's handle is rebuilt from the survivors (one
    oracle call per level) and the usual add condition applies against the
    reduced buffer. Every level of a run holds the same buffer, so a run
    drops and rebuilds once; adjacent runs that then hold the same handle
    merge.
    """

    def __init__(self, k: int, window: int, epsilon: float, oracle: SubmodularOracle):
        super().__init__(k, epsilon, oracle)
        self.window = positive_int(window, "window")

    def step(self, t: int) -> None:
        self._t = next_timestep(self._t, t)
        self._expire(t - self.window)
        self._admit(t)

    def _expire(self, horizon: int) -> None:
        """Repair each run whose buffer holds an item at or before ``horizon``,
        charging each repair's calls once per level, and merge runs that
        then hold the same handle."""
        oracle = self.oracle
        runs: list[list] = []
        for run in self.runs:
            lo, hi, handle = run
            if handle.ids and min(handle.ids) <= horizon:
                before = oracle.calls
                run[2] = self._repair(handle, horizon)
                self._best = None  # a repaired value can fall; ``_admit`` rescans
                oracle.calls += (hi - lo - 1) * (oracle.calls - before)
                self._retained += (hi - lo) * (len(run[2].ids) - len(handle.ids))
            if runs and runs[-1][2] is run[2]:
                runs[-1][1] = hi
            else:
                runs.append(run)
        self.runs = runs

    def _repair(self, handle: OracleHandle, horizon: int) -> OracleHandle:
        """The handle of ``handle``'s members after ``horizon``."""
        survivors = [s for s in handle.ids if s > horizon]
        return self.oracle.rebuild(survivors) if survivors else self.oracle.empty()


class SieveGreedy(SieveNaive):
    """Sieve buffers repaired from a uniform sample of the window.

    Each arrival is kept in a sample buffer B with probability c/W. When
    buffer members expire, the buffer is rebuilt by greedy selection of as
    many elements as survive from B plus the surviving members; then the
    usual sieve add condition applies. The repair may return fewer elements
    than asked when B is thin; the smaller set is accepted. A run repairs
    once and is charged its greedy's calls once per level.
    """

    def __init__(self, k: int, window: int, epsilon: float, oracle: SubmodularOracle, sample_c: float, seed: int = 0):
        if not sample_c >= 0:
            raise ValueError(f"sampling parameter must be >= 0, got {sample_c}")
        super().__init__(k, window, epsilon, oracle)
        self.sample_rate = min(1.0, sample_c / window)
        self.samples: list[int] = []
        self._rng = random.Random(seed)

    def step(self, t: int) -> None:
        self._t = next_timestep(self._t, t)
        if self._rng.random() < self.sample_rate:
            self.samples.append(t)
        while self.samples and self.samples[0] <= t - self.window:
            self.samples.pop(0)
        self._expire(t - self.window)
        self._admit(t)

    def _repair(self, handle: OracleHandle, horizon: int) -> OracleHandle:
        """Greedy's pick, from the sample and ``handle``'s members after
        ``horizon``, of as many items as those members."""
        survivors = [s for s in handle.ids if s > horizon]
        return greedy_select(sorted(set(self.samples) | set(survivors)), len(survivors), self.oracle)

    def retained_count(self) -> int:
        return super().retained_count() + len(self.samples)


class PrioritySample:
    """Uniform k-subset of the window via smallest-priority sampling.

    Every arrival gets an independent Uniform(0,1) priority; the query
    sample, the k smallest-priority in-window items, is a uniformly random
    k-subset. ``candidates`` holds ``[t, priority, beaten]`` in arrival
    order; a candidate beaten by k later arrivals (which outlive it, so it can
    never re-enter the sample) is dropped: the expected buffer is O(k log(W/k)).

    The sample changes only when one of its members expires or an arrival
    enters it, so ``query`` keeps its last answer, the sorted ids, and the
    k-th smallest priority behind it (``inf`` with fewer than k candidates).
    ``step`` drops the answer when an expiring candidate's priority is at
    most that k-th priority, or the arrival's is below it; ties go to the
    earlier arrival, as in a stable sort by priority. A beaten candidate is
    never a member. ``query`` sorts the candidates again only after a drop
    and evaluates the new sample with one oracle call, then keeps its value
    beside the ids. A kept answer is charged as a memo hit is: one call on
    the oracle's ``calls`` and no evaluation, so call counts do not depend on
    whether the sample changed.
    """

    def __init__(self, k: int, window: int, oracle: SubmodularOracle, seed: int = 0):
        self.k = positive_int(k, "k")
        self.window = positive_int(window, "window")
        self.oracle = oracle
        self.candidates: list[list] = []
        self._rng = random.Random(seed)
        self._t = 0
        self._answer: list[int] | None = None
        self._value = 0.0
        self._kth = math.inf

    def step(self, t: int) -> None:
        self._t = next_timestep(self._t, t)
        kth = self._kth
        while self.candidates and self.candidates[0][0] <= t - self.window:
            if self.candidates.pop(0)[1] <= kth:
                self._answer = None
        priority = self._rng.random()
        if priority < kth:
            self._answer = None
        kept = []
        for cand in self.candidates:
            if cand[1] > priority:
                cand[2] += 1
                if cand[2] == self.k:
                    continue
            kept.append(cand)
        kept.append([t, priority, 0])
        self.candidates = kept

    def query(self) -> tuple[list[int], float]:
        ids = self._answer
        if ids is None:
            sample = sorted(self.candidates, key=itemgetter(1))[: self.k]
            self._answer = ids = sorted(c[0] for c in sample)
            self._kth = sample[-1][1] if len(sample) == self.k else math.inf
            self._value = self.oracle.eval(ids) if ids else 0.0
        elif ids:
            self.oracle.calls += 1
        return list(ids), self._value

    def retained_count(self) -> int:
        return len(self.candidates)


def sieve_reduction(k: int, window: int, epsilon: float, oracle: SubmodularOracle) -> SlidingWindowReduction:
    """The standard configuration: the reduction over fresh sieve instances."""
    k = positive_int(k, "k")
    return SlidingWindowReduction(window, epsilon, lambda: SieveStream(k, epsilon, oracle))
