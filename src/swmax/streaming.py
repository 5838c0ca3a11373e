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
from operator import attrgetter, index
from typing import Sequence

from .core import OracleHandle, SubmodularOracle, lattice_base, next_timestep, positive_int


@lru_cache(maxsize=64)
def ceil_log_ratio(m: float, epsilon: float) -> int:
    """Smallest integer L >= 0 with (1 + epsilon)**L >= m.

    Memoized, since the reduction builds a sieve per arrival with the same
    arguments. An epsilon without a lattice raises (``lattice_base``).
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
    ``[lo, hi, handle]`` for exponents ``lo .. hi-1`` in ``runs``; a level's
    T is computed as ``base**l`` where the test needs it. The buffer is its
    handle, grown from the oracle's root, so equal contents share one; its
    ``ids`` are the members and its ``value`` the running sum of accepted
    gains. An arrival costs one membership test and one gain per run. The
    admission test is monotone in T even in floats (``T/2`` is exact, and
    rounding keeps subtraction and division by a positive number monotone),
    so the levels that admit it are a prefix of the run. The run's highest
    level is tested first, since when it admits, all do; when it does not,
    the lowest is tested (in a run of two or more levels), and the prefix
    is found by ``bisect`` over the exponents with the same expression;
    that prefix becomes a run of its own. Costs stay per level: a run of m levels
    charges m oracle calls for its one gain, and ``retained_count`` counts
    one item reference per member per level. Queries cost no oracle calls and return the best
    buffer, the lowest level's on ties, as SieveStreaming reports its best
    buffer. ``_best`` keeps that handle as buffers grow, so neither a query
    nor ``best_value`` scans: a child worth strictly more replaces it, while
    a child that ties it (a lower level may hold the tie) or a negative gain
    sets it to None, and the arrival ends with a rescan, ``max`` over the
    run handles, which keeps the lowest level's on ties. ``step`` refuses a
    timestep that does not follow the last one.
    """

    def __init__(self, k: int, epsilon: float, oracle: SubmodularOracle):
        self.k = k = positive_int(k, "k")
        self.oracle = oracle
        self.base = 1.0 + epsilon
        self.runs: list[list] = [[0, ceil_log_ratio(k * oracle.max_singleton(), epsilon) + 1, oracle.empty()]]
        self._retained = 0
        self._best: OracleHandle | None = self.runs[0][2]
        self._t = 0

    def step(self, t: int) -> None:
        self._t = next_timestep(self._t, t)
        self._admit(t)

    def _admit(self, t: int) -> None:
        k = self.k
        base = self.base
        best = self._best
        runs = []
        for run in self.runs:
            lo, hi, handle = run
            ids = handle.ids
            room = k - len(ids)
            if room and t not in ids:
                value = handle.value
                gain = handle.gain(t)
                if hi - lo > 1:
                    handle.counter.calls += hi - lo - 1
                if gain > (base ** (hi - 1) / 2.0 - value) / room:
                    cut = hi
                elif hi - lo > 1 and gain > (base**lo / 2.0 - value) / room:
                    # the first level that fails: lo passes and hi - 1 fails
                    cut = bisect_left(range(hi), gain, lo + 1, hi - 1, key=lambda l: (base**l / 2.0 - value) / room)
                else:
                    cut = lo
                if cut != lo:
                    self._retained += cut - lo
                    child = handle.child(t)
                    if cut == hi:
                        run[2] = child
                    else:
                        runs.append([lo, cut, child])
                        run[0] = cut
                    if best is not None:
                        if gain < 0.0 or child.value == best.value:  # a fall, or a tie a lower level may win
                            best = None
                        elif child.value > best.value:
                            best = child
            runs.append(run)
        self.runs = runs
        self._best = max((run[2] for run in runs), key=attrgetter("value")) if best is None else best

    def best_value(self) -> float:
        return self._best.value

    def query(self) -> tuple[list[int], float]:
        best = self._best
        return list(best.ids), best.value

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
