"""Infinite-window building blocks: threshold sieve and greedy.

The sieve runs a geometric grid of threshold guesses, as SieveStreaming
(Badanidiyuru et al., KDD 2014) does, but keeps adjacent guesses that hold
the same buffer as one run, so an arrival costs one gain per distinct
buffer while calls are still charged per guess.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from operator import index
from typing import Sequence

from .core import OracleHandle, SubmodularOracle, lattice_base, next_timestep, positive_int


GRID_CAP = 2**20
"""The most thresholds a grid may hold: a table of 2**20 floats takes about 32 MB."""


def ceil_log_ratio(m: float, epsilon: float) -> int:
    """Smallest integer L >= 0 with (1 + epsilon)**L >= m.

    ``threshold_table`` memoizes it with the table it sizes. An epsilon
    without a lattice raises (``lattice_base``).
    """
    base = lattice_base(epsilon)
    if m <= 1:
        return 0
    level = max(0, math.ceil(math.log(m) / math.log(base)))
    while base**level < m:
        level += 1
    while level > 0 and base ** (level - 1) >= m:
        level -= 1
    return level


@lru_cache(maxsize=16)
def threshold_table(bound: float, epsilon: float, divisor: float, extra: int = 0) -> tuple[float, ...]:
    """The lattice ``(1 + epsilon)**l / divisor`` for ``l = 0 .. top``, with
    ``top = ceil_log_ratio(bound, epsilon) + extra``: every threshold grid.

    ``bound`` is the grid's upper end, ``k * oracle.max_singleton()``.
    Memoized, so every grid of one run reads one table, and the reduction's
    sieve per arrival builds none. A grid of more than ``GRID_CAP``
    thresholds is refused before any is built, and so is one whose top
    threshold overflows; each ``ValueError`` names epsilon.
    """
    top = ceil_log_ratio(bound, epsilon) + extra
    if top >= GRID_CAP:
        raise ValueError(f"epsilon {epsilon} is too small: its grid would hold {top + 1} thresholds, above {GRID_CAP}")
    base = 1.0 + epsilon
    try:
        return tuple([base**l / divisor for l in range(top + 1)])
    except OverflowError:
        raise ValueError(f"epsilon {epsilon} is too large: the top threshold (1 + epsilon)**{top} overflows") from None


class SieveStream:
    """Threshold-sieving stream maximizer under a cardinality constraint.

    Keeps one buffer per guessed optimum threshold ``T = (1+eps)**l``, a
    grid level l. An arriving element joins buffer S while |S| < k and its
    marginal gain exceeds ``(T/2 - f(S)) / (k - |S|)`` (strict, as the rule
    is usually stated); queries return the best buffer. The grid runs from
    ``l = 0`` to the first T at or above ``k * oracle.max_singleton()``,
    which bounds every feasible value, so the best buffer is within
    (1-eps)/2 of the optimum whenever the optimum is at least 1.

    Adjacent levels that hold the same buffer are kept as one run,
    ``[lo, hi, handle]`` for exponents ``lo .. hi-1`` in ``runs``; level l
    reads its ``T/2`` off ``halves[l]``, the table that ``threshold_table``
    builds with divisor 2 and every sieve of the same grid shares. The
    buffer is its handle, grown from the oracle's root, so equal contents
    share one; its ``ids`` are the members and its ``value`` the running sum
    of accepted gains. An arrival costs one membership test and one gain per
    run. The admission test is monotone in T even in floats (``T/2`` is
    exact, and rounding keeps subtraction and division by a positive number
    monotone), so the levels that admit it are a prefix of the run. The
    run's highest level is tested first, since when it admits, all do; when
    it does not, the lowest is tested (in a run of two or more levels), and
    the prefix is found by ``bisect`` over ``halves`` with the same
    expression; that prefix becomes a run of its own. Costs stay per level:
    a run of m levels charges m oracle calls for its one gain, and
    ``retained_count`` counts one item reference per member per level.
    Queries cost no oracle calls and return the best buffer's handle, the
    lowest level's on ties, as SieveStreaming reports its best buffer.
    ``_admit`` picks it, ``_best``, as it lays the runs down in level order:
    a run replaces the pick only when it is worth strictly more. ``_open``
    counts the runs whose buffer has room, as the last ``_admit`` left
    them: a run that took its k-th item there counts as full. ``step``
    skips ``_admit`` while it is 0, which changes nothing: a full buffer is
    asked no gain, so no call is charged, no run splits and ``_best``
    stands. Once every buffer is full, an arrival costs O(1). ``step``
    refuses a timestep that does not follow the last one.
    """

    def __init__(self, k: int, epsilon: float, oracle: SubmodularOracle):
        self.k = k = positive_int(k, "k")
        self.oracle = oracle
        self.halves = threshold_table(k * oracle.max_singleton(), epsilon, 2.0)
        self.runs: list[list] = [[0, len(self.halves), oracle.empty()]]
        self._retained = 0
        self._best: OracleHandle = self.runs[0][2]
        self._open = 1
        self._t = 0

    def step(self, t: int) -> None:
        self._t = next_timestep(self._t, t)
        if self._open:
            self._admit(t)

    def _admit(self, t: int) -> None:
        k = self.k
        halves = self.halves
        runs = []
        opened = 0
        best = None
        top = -math.inf
        for run in self.runs:
            lo, hi, handle = run
            ids = handle.ids
            room = k - len(ids)
            if room and t not in ids:
                value = handle.value
                gain = handle.gain(t)
                if hi - lo > 1:
                    self.oracle.calls += hi - lo - 1
                if gain > (halves[hi - 1] - value) / room:
                    cut = hi
                elif hi - lo > 1 and gain > (halves[lo] - value) / room:
                    # the first level that fails: lo passes and hi - 1 fails
                    cut = bisect_left(halves, gain, lo + 1, hi - 1, key=lambda h: (h - value) / room)
                else:
                    cut = lo
                if cut != lo:
                    self._retained += cut - lo
                    child = handle.child(t)
                    if cut == hi:
                        run[2] = handle = child
                        room -= 1
                    else:
                        runs.append([lo, cut, child])
                        run[0] = cut
                        opened += room > 1
                        if child.value > top:
                            best, top = child, child.value
            if room:
                opened += 1
            runs.append(run)
            if handle.value > top:
                best, top = handle, handle.value
        self.runs = runs
        self._open = opened
        self._best = best

    def query(self) -> OracleHandle:
        return self._best

    def retained_count(self) -> int:
        return self._retained


def greedy_select(items: Sequence[int], k: int, oracle: SubmodularOracle) -> OracleHandle:
    """Classic greedy: k rounds of best marginal gain, smallest id on ties.

    Returns the handle grown with the selection, its ``ids`` in the order
    chosen; a repeated id is one candidate. Greedy is lazy (Minoux's
    accelerated greedy): a candidate's last gain, an upper bound on its next
    one by submodularity, is kept in ``order`` as ``(-bound, id)``, sorted
    at the start of every round. The first round scores every candidate in
    one ``gains`` call. A later round re-scores the entries from the top,
    by one ``gain`` each on the handle grown so far, until the next bound
    is no better than the best gain of this round, and takes that one.
    These are the re-scores, in order, that a heap of round-tagged bounds
    makes, and with exact gains the pick is the one that scoring every
    candidate would make. A log-det handle resumes the candidate's kept
    probe instead of probing afresh. Stops early once the best gain is <= 0
    (it cannot help a monotone objective and skipping it saves oracle
    calls). The id tie-break makes the result invariant to candidate order.
    ``k`` must be an integer (``operator.index``); below 1 it selects nothing.
    """
    k = index(k)
    handle = oracle.empty()
    candidates = list(dict.fromkeys(items))
    if k < 1 or not candidates:
        return handle
    order = sorted(zip([-gain for gain in handle.gains(candidates)], candidates))
    while order[0][0] < 0.0:
        handle = handle.child(order.pop(0)[1])
        k -= 1
        if not k or not order:
            break
        gain = handle.gain
        # every bound predates the pick, so the top one is re-scored
        best = order[0] = (-gain(order[0][1]), order[0][1])
        for i in range(1, len(order)):
            bound = order[i]
            if bound >= best:
                break
            order[i] = score = (-gain(bound[1]), bound[1])
            if score < best:
                best = score
        order.sort()
    return handle
