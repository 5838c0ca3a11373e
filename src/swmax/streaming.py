"""Infinite-window building blocks: threshold sieve, greedy, exhaustive search."""

from __future__ import annotations

import math
from itertools import combinations
from typing import Sequence

from .core import Bounds, Item, OracleHandle, SubmodularOracle


def ceil_log_ratio(m: float, epsilon: float) -> int:
    """Smallest integer L >= 0 with (1 + epsilon)**L >= m."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if m <= 1:
        return 0
    base = 1.0 + epsilon
    level = max(0, math.ceil(math.log(m) / math.log(base)))
    while base**level < m:
        level += 1
    while level > 0 and base ** (level - 1) >= m:
        level -= 1
    return level


def threshold_grid(bounds: Bounds) -> list[float]:
    """Geometric guesses (1+eps)**0 .. (1+eps)**L with the top one >= opt_upper."""
    base = 1.0 + bounds.epsilon
    top = ceil_log_ratio(bounds.opt_upper, bounds.epsilon)
    return [base**level for level in range(top + 1)]


class SieveStream:
    """Threshold-sieving stream maximizer under a cardinality constraint.

    Runs one buffer per guessed optimum threshold T. An arriving element
    joins buffer S while |S| < k and its marginal gain exceeds
    ``(T/2 - f(S)) / (k - |S|)`` (strict, as the rule is usually stated);
    queries return the best buffer. With the optimum inside [1, opt_upper]
    the best buffer is within (1-eps)/2 of it. Each buffer holds the oracle
    handle of its contents, all grown from the oracle's root, so buffers with
    equal contents share a handle; buffer values are maintained as running
    sums of accepted gains, so queries cost no oracle calls. The number of
    retained item references is kept as a running count, and the level of
    the best value (the lowest level on ties) as a running index.
    """

    def __init__(self, k: int, bounds: Bounds, oracle: SubmodularOracle):
        if k < 1:
            raise ValueError(f"cardinality bound must be >= 1, got {k}")
        self.k = k
        self.oracle = oracle
        self.thresholds = threshold_grid(bounds)
        self.buffers: list[list[int]] = [[] for _ in self.thresholds]
        self.handles = [oracle.empty()] * len(self.thresholds)
        self.values: list[float] = [0.0] * len(self.thresholds)
        self._retained = 0
        self._peak = 0
        self._best = 0

    def step(self, item: Item) -> None:
        for level in range(len(self.thresholds)):
            self._consider(level, item)
        self._note_peak()

    def _consider(self, level: int, item: Item) -> None:
        buf = self.buffers[level]
        if len(buf) >= self.k or item.t in buf:
            return
        handle = self.handles[level]
        gain = handle.gain(item.t)
        threshold = self.thresholds[level]
        if gain > (threshold / 2.0 - self.values[level]) / (self.k - len(buf)):
            buf.append(item.t)
            self.handles[level] = handle.child(item.t)
            values = self.values
            value = values[level] + gain
            values[level] = value
            self._retained += 1
            # _set_value's rule, inlined because it runs on every admission.
            best = self._best
            if value > values[best] or (value == values[best] and level < best):
                self._best = level
            elif level == best and gain < 0.0:
                self._best = self._best_level()

    def _set_value(self, level: int, value: float) -> None:
        """Set a level's value and keep ``_best`` on the best level, the
        lowest one on ties; only a drop of the best value needs a scan."""
        values = self.values
        best = self._best
        dropped = level == best and value < values[level]
        values[level] = value
        if dropped:
            self._best = self._best_level()
        elif value > values[best] or (value == values[best] and level < best):
            self._best = level

    def _best_level(self) -> int:
        """The level of the best value, the lowest one on ties, by a full scan."""
        best = 0
        for level in range(1, len(self.values)):
            if self.values[level] > self.values[best]:
                best = level
        return best

    def best_value(self) -> float:
        return self.values[self._best]

    def query(self) -> tuple[list[int], float]:
        level = self._best
        return list(self.buffers[level]), self.values[level]

    def retained_count(self) -> int:
        return self._retained

    def _note_peak(self) -> None:
        self._peak = max(self._peak, self.retained_count())

    def peak_items(self) -> int:
        return self._peak


def greedy_select(
    items: Sequence[int], k: int, oracle: SubmodularOracle
) -> tuple[list[int], float, OracleHandle]:
    """Classic greedy: k rounds of best marginal gain, smallest id on ties.

    Returns the selection, its value and the handle grown with it. Stops
    early once the best gain is <= 0 (it cannot help a monotone objective
    and skipping it saves oracle calls). The id tie-break makes the result
    invariant to candidate order.
    """
    selected: list[int] = []
    chosen: set[int] = set()
    handle = oracle.empty()
    value = 0.0
    for _ in range(k):
        best_id = None
        best_gain = 0.0
        for cand in items:
            if cand in chosen:
                continue
            gain = handle.gain(cand)
            if best_id is None or gain > best_gain or (gain == best_gain and cand < best_id):
                best_id = cand
                best_gain = gain
        if best_id is None or best_gain <= 0.0:
            break
        selected.append(best_id)
        chosen.add(best_id)
        handle = handle.child(best_id)
        value += best_gain
    return selected, value, handle


def brute_force_opt(
    items: Sequence[int],
    k: int,
    oracle: SubmodularOracle,
    max_subsets: int = 10**6,
) -> tuple[list[int], float]:
    """Exact optimum over all subsets of size <= k, by enumeration.

    Test oracle only; refuses instances with more than ``max_subsets``
    candidate subsets.
    """
    n = len(items)
    top = min(k, n)
    total = sum(math.comb(n, size) for size in range(top + 1))
    if total > max_subsets:
        raise ValueError(f"{total} subsets exceed the enumeration guard {max_subsets}")
    best: tuple[list[int], float] = ([], 0.0)
    evaluate = oracle.eval
    for size in range(1, top + 1):
        for combo in combinations(items, size):
            value = evaluate(combo)
            if value > best[1]:
                best = (list(combo), value)
    return best
