"""Sliding-window maximization algorithms.

Four approaches over the most recent W items, all under a cardinality
constraint k. Each is fed one arrival at a time by ``step(t)``, with ``t``
the arrival's timestep, which is also its item id, and ``query()`` returns
the handle of its answer (``ids`` and ``value``):

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
read off the table ``threshold_table`` memoizes for it, and kept as runs,
ranges of adjacent exponents that hold one state: one sieve buffer, or one
level table. An arrival, an expiry or a repair is worked out once per run,
while oracle calls and retained references are still counted per
threshold, so the reported metrics are those of one state per threshold.

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

from .core import OracleHandle, SubmodularOracle, lattice_base, next_timestep, non_negative, positive_int
from .streaming import SieveStream, greedy_select, threshold_table


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
    only three of its methods: ``step(t)``, ``query()``, the handle of its
    answer, whose ``value`` every prune reads, and ``retained_count()``.
    ``SieveStream`` answers its best current buffer, ``_best``. Its buffers
    only grow, so its answer's value falls only when a buffer admits a
    negative gain: the sieve is prefix-monotone while no admitted gain is
    negative. That always holds for coverage, and for log-det up to
    rounding, since an exact log-det gain is >= 0.
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
        vals = [inst.alg.query().value for inst in instances]
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

    def query(self) -> OracleHandle:
        """Answer of the oldest instance, which ``step`` has kept in the
        window; before the first step, that of a fresh instance."""
        if not self.instances:
            return self.inner_factory().query()
        return self.instances[0].alg.query()

    def retained_count(self) -> int:
        """The live instances' references, as the last ``prune`` summed them."""
        return self._retained


class SlidingWindowDP:
    """Level tables for a geometric grid of thresholds over a sliding window.

    Thresholds are ``T = (1+eps)**l / (2k)`` for
    l = 0 .. 1 + ceil(log_{1+eps} M) with ``M = k * oracle.max_singleton()``,
    which bounds every window's optimum; ``thresholds`` is their table,
    which ``threshold_table`` builds once for every grid with the same k,
    epsilon and M. The grid brackets opt/(2k) within a (1+eps) factor
    whenever the window optimum is at least 1; that threshold's deepest
    level is within (1-eps)/2 of the optimum.

    For one threshold T, ``handles[j]`` is the handle of j elements with
    marginal gain >= T collected from the latest timestep from which j
    were still collectible, the level's start. That start is the set's
    first id; level 0, the empty root, starts at the current step, and an
    empty set at 0. A level is live while its start is after the horizon
    ``max(0, t - W)``; an expired level keeps its set (retained but
    unreported), and nothing marks it. On arrival, levels are scanned from
    high to low so each reads its pre-step state: the scan at j reads
    levels j and j+1 and writes only j+1, which no earlier (higher) step
    wrote, and level j hands off when it is live and starts after level
    j+1. A literal low-to-high in-place scan would let the fresh level-0
    restart overwrite level 1 before it is read, destroying valid longer
    solutions. Queries return the deepest live level of the best table,
    the lowest threshold's on ties.

    Invariant: a table's live levels form a prefix 0 .. d, and their
    starts do not increase with j. Level 0 starts at the current step; a
    hand-off gives level j+1 a child of level j's set, so the start of
    level j, which it exceeded; and the levels that start at or before the
    horizon are a suffix of the live ones. So expiry is a comparison that
    writes nothing, and the query walks down from level k, past the empty
    and expired levels, and stops at the first live level; on a nearly
    full table that is about one test per run instead of k. Before the
    first step no level is live, and the walk stops at level 0, the root.
    And level j holds exactly j ids or none, expired levels included: the
    root holds none, and a hand-off gives level j+1 a live level j's set
    plus the arrival. So a hand-off adds j+1 retained references per
    threshold when level j+1 was empty, and none when it replaces a set.

    Level 0 is the root in every table: it is live and starts after level
    1, so it hands off whenever its gain passes. ``step`` asks the root's
    gain once per arrival, and each run hands off from level 0 after its
    scan of levels k-1 .. 1, with no start test.

    Adjacent thresholds with equal tables share one: ``runs`` holds
    ``[lo, hi, handles]`` for exponents ``lo .. hi-1``. Every threshold of
    a run reads the same starts and takes the same gain at each level j,
    and the pass test ``gain >= T`` holds for a prefix of the run, so an
    arrival costs one gain per run and level j >= 1, and one gain in all
    at level 0, and splits a run at most at one cut per level, found by
    ``bisect`` over ``thresholds`` between the run's ends. A run that does
    not split is updated in place. Adjacent runs merge again when their
    ``handles`` are equal. Costs stay per threshold: a gain that a run of
    m thresholds takes is charged m oracle calls, its own call and m-1
    more (m at level 0, bar the root's one call per arrival) that ``step``
    adds to the oracle's ``calls`` once per arrival; and
    ``retained_count`` counts every set of every threshold.
    """

    def __init__(self, k: int, window: int, epsilon: float, oracle: SubmodularOracle):
        self.k = k = positive_int(k, "k")
        self.window = positive_int(window, "window")
        self.oracle = oracle
        self.thresholds = threshold_table(k * oracle.max_singleton(), epsilon, 2.0 * k, 1)
        self.runs: list[list] = [[0, len(self.thresholds), [oracle.empty()] * (k + 1)]]
        self._retained = 0
        self._t = 0

    def step(self, t: int) -> None:
        self._t = next_timestep(self._t, t)
        horizon = max(0, t - self.window)
        root = self.runs[0][2][0]
        gain = root.gain(t)
        runs: list[list] = []
        calls = -1  # ``gain`` charged one of level 0's calls
        for run in self.runs:
            calls += self._scan(run, self.k - 1, t, horizon, gain, runs)
        self.oracle.calls += calls
        self.runs = runs

    def _scan(self, run: list, top: int, i: int, horizon: int, root_gain: float, runs: list) -> int:
        """Scan levels ``top`` .. 1 of ``run`` in place for arrival ``i``,
        hand off from level 0 on the root's gain ``root_gain``, then append
        the run to ``runs``, merged into the previous run if their tables
        are equal. Returns the calls that the run's thresholds owe beyond
        the one each gain charged, all of level 0's included.

        A hand-off at level j >= 1 that passes on a proper prefix of the
        run's thresholds splits that prefix off as a copy, which takes the
        hand-off, is scanned on from the next level down and goes first.
        At level 0 nothing is left to scan: the run keeps the prefix and
        takes the hand-off, and the rest is split off as an unchanged copy
        that goes after it. The two differ at level 1, so they do not merge.
        """
        table = self.thresholds
        lo, hi, handles = run
        low, high = table[lo], table[hi - 1]
        calls, extra = 0, hi - lo - 1  # each gain owes ``extra`` calls beyond its own
        start = (handles[top + 1].ids or (0,))[0]
        for j in range(top, 0, -1):
            above = start  # level j+1's start: only the hand-off at j writes it
            handle = handles[j]
            start = (handle.ids or (0,))[0]
            if start <= horizon or start <= above:
                continue
            gain = handle.gain(i)
            calls += extra
            if not gain >= low:
                continue
            cut = hi if gain >= high else bisect_right(table, gain, lo + 1, hi - 1)  # lo .. cut-1 pass
            if not above:  # level j+1 was empty: a timestep, so a start, is >= 1
                self._retained += (cut - lo) * (j + 1)
            if cut == hi:
                handles[j + 1] = handle.child(i)
                continue
            piece = [lo, cut, handles[:]]
            piece[2][j + 1] = handle.child(i)
            run[0] = lo = cut
            low, extra = table[lo], hi - lo - 1
            calls += self._scan(piece, j - 1, i, horizon, root_gain, runs)
        calls += extra + 1  # level 0's gain, asked once by ``step``, owes one call per threshold
        upper = None
        if root_gain >= low:
            if not root_gain >= high:  # lo .. cut-1 pass
                cut = bisect_right(table, root_gain, lo + 1, hi - 1)
                upper = [cut, hi, handles[:]]
                run[1] = hi = cut
            if not start:  # level 1 was empty
                self._retained += hi - lo
            handles[1] = handles[0].child(i)
        if runs and runs[-1][2] == handles:
            runs[-1][1] = hi
        else:
            runs.append(run)
        if upper:
            runs.append(upper)
        return calls

    def query(self) -> OracleHandle:
        horizon, k = max(0, self._t - self.window), self.k
        best = self.runs[0][2][0]  # level 0 never changes: the root, empty and of value 0
        for _, _, handles in self.runs:
            j = k
            while j and (handles[j].ids or (0,))[0] <= horizon:
                j -= 1
            if handles[j].value > best.value:
                best = handles[j]
        return best

    def retained_count(self) -> int:
        return self._retained


class SieveNaive(SieveStream):
    """SieveStream with per-buffer expiry: drop the expired items, keep going.

    After a drop the buffer's handle is rebuilt from the survivors (one
    oracle call per level) and the usual add condition applies against the
    reduced buffer. Every level of a run holds the same buffer, so a run
    drops and rebuilds once; adjacent runs that then hold the same handle
    merge.

    ``_oldest`` is the earliest member of any buffer, ``inf`` while all are
    empty: ``_expire`` sets it, and an ``_admit`` into empty buffers sets it
    to the arrival (members are otherwise only added, and each is newer).
    ``step`` skips ``_expire`` while ``_oldest`` is after the horizon, since
    then no member expires, and skips ``_admit`` while ``_open`` is 0, as
    ``SieveStream`` does, but never after an ``_expire``: a repair may
    leave room that ``_open`` does not count yet, and a value that
    ``_best`` does not hold yet. So an arrival that neither expires a
    member nor meets a buffer with room costs O(1).
    """

    def __init__(self, k: int, window: int, epsilon: float, oracle: SubmodularOracle):
        super().__init__(k, epsilon, oracle)
        self.window = positive_int(window, "window")
        self._oldest = math.inf

    def step(self, t: int) -> None:
        self._t = next_timestep(self._t, t)
        horizon = t - self.window
        if self._oldest <= horizon:
            self._expire(horizon)
        elif not self._open:
            return
        self._admit(t)
        if self._retained:  # a first member since the buffers emptied is this arrival
            self._oldest = min(self._oldest, t)

    def _expire(self, horizon: int) -> None:
        """Repair each run whose buffer holds an item at or before ``horizon``,
        charging each repair's calls once per level, merge runs that then
        hold the same handle, and set ``_oldest`` to the earliest member."""
        oracle = self.oracle
        runs: list[list] = []
        oldest = math.inf
        for run in self.runs:
            lo, hi, handle = run
            if handle.ids:
                first = min(handle.ids)
                if first <= horizon:
                    before = oracle.calls
                    run[2] = self._repair([s for s in handle.ids if s > horizon])
                    oracle.calls += (hi - lo - 1) * (oracle.calls - before)
                    self._retained += (hi - lo) * (len(run[2].ids) - len(handle.ids))
                    first = min(run[2].ids, default=math.inf)  # a greedy repair may pick an older sample
                if first < oldest:
                    oldest = first
            if runs and runs[-1][2] is run[2]:
                runs[-1][1] = hi
            else:
                runs.append(run)
        self.runs = runs
        self._oldest = oldest

    def _repair(self, survivors: list[int]) -> OracleHandle:
        """The handle of an expiring buffer's ``survivors``."""
        return self.oracle.rebuild(survivors) if survivors else self.oracle.empty()


class SieveGreedy(SieveNaive):
    """Sieve buffers repaired from a uniform sample of the window.

    Each arrival is kept in a sample buffer B with probability c/W. When
    buffer members expire, the buffer is rebuilt by greedy selection of as
    many elements as survive from B plus the surviving members; then the
    usual sieve add condition applies. The repair may return fewer elements
    than asked when B is thin; the smaller set is accepted. A run repairs
    once and is charged its greedy's calls once per level.

    B is drawn and pruned on every arrival; the expiry and admission passes
    are skipped as in ``SieveNaive``, whose two invariants hold here too: a
    repair may pick a sample older than every surviving member, so
    ``_expire`` sets ``_oldest`` from the repaired buffer, and the repaired
    buffer may have room, which the ``_admit`` after every ``_expire``
    counts in ``_open``.
    """

    def __init__(self, k: int, window: int, epsilon: float, oracle: SubmodularOracle, sample_c: float, seed: int = 0):
        sample_c = non_negative(sample_c, "sample_c")
        super().__init__(k, window, epsilon, oracle)
        self.sample_rate = min(1.0, sample_c / window)
        self.samples: list[int] = []
        self._rng = random.Random(seed)

    def step(self, t: int) -> None:
        next_timestep(self._t, t)  # refused before the sample draw
        if self._rng.random() < self.sample_rate:
            self.samples.append(t)
        while self.samples and self.samples[0] <= t - self.window:
            self.samples.pop(0)
        super().step(t)

    def _repair(self, survivors: list[int]) -> OracleHandle:
        """Greedy's pick, from the sample and an expiring buffer's
        ``survivors``, of as many items as survive."""
        return greedy_select(self.samples + survivors, len(survivors), self.oracle)

    def retained_count(self) -> int:
        return self._retained + len(self.samples)


class PrioritySample:
    """Uniform k-subset of the window via smallest-priority sampling.

    Every arrival gets an independent Uniform(0,1) priority; the query
    sample, the k smallest-priority in-window items, is a uniformly random
    k-subset. ``candidates`` holds ``[t, priority, beaten]`` in arrival
    order; a candidate beaten by k later arrivals (which outlive it, so it can
    never re-enter the sample) is dropped: the expected buffer is O(k log(W/k)).

    The sample changes only when one of its members expires or an arrival
    enters it, so ``query`` keeps its last answer, the handle that
    ``rebuild`` grows on the sorted ids, and the k-th smallest priority
    behind it (``inf`` with fewer than k candidates).
    ``step`` drops the answer when an expiring candidate's priority is at
    most that k-th priority, or the arrival's is below it; ties go to the
    earlier arrival, as in a stable sort by priority. A beaten candidate is
    never a member. ``query`` sorts the candidates again only after a drop
    and rebuilds the new sample with one oracle call (an empty sample is the
    oracle's root and costs none). A kept answer is charged as a memo hit
    is: one call on the oracle's ``calls`` and no evaluation, so call counts
    do not depend on whether the sample changed.
    """

    def __init__(self, k: int, window: int, oracle: SubmodularOracle, seed: int = 0):
        self.k = positive_int(k, "k")
        self.window = positive_int(window, "window")
        self.oracle = oracle
        self.candidates: list[list] = []
        self._rng = random.Random(seed)
        self._t = 0
        self._answer: OracleHandle | None = None
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

    def query(self) -> OracleHandle:
        answer = self._answer
        if answer is None:
            sample = sorted(self.candidates, key=itemgetter(1))[: self.k]
            ids = sorted(c[0] for c in sample)
            self._kth = sample[-1][1] if len(sample) == self.k else math.inf
            self._answer = answer = self.oracle.rebuild(ids) if ids else self.oracle.empty()
        elif answer.ids:
            self.oracle.calls += 1
        return answer

    def retained_count(self) -> int:
        return len(self.candidates)


def sieve_reduction(k: int, window: int, epsilon: float, oracle: SubmodularOracle) -> SlidingWindowReduction:
    """The standard configuration: the reduction over fresh sieve instances."""
    k = positive_int(k, "k")
    return SlidingWindowReduction(window, epsilon, lambda: SieveStream(k, epsilon, oracle))
