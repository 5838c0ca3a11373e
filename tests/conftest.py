import math
import random
from bisect import bisect_left, insort

import numpy as np
import pytest

from swmax import objectives
from swmax.ingest import DatasetStore, ParseError
from swmax.objectives import DEGENERATE_PIVOT
from swmax.streaming import ceil_log_ratio, greedy_select

from reference import instance_values, payload, runs, scan_answer


def set_store(*payloads) -> DatasetStore:
    """Build a set-stream store from literal element collections."""
    return DatasetStore("sets", sets=[tuple(p) for p in payloads])


def vec_store(rows) -> DatasetStore:
    return DatasetStore("dense", vectors=np.asarray(rows, dtype=float))


class Tally:
    """The counter of a ``CholState`` root built without an oracle."""

    def __init__(self):
        self.calls = 0
        self.evaluations = 0


class UnionRecount:
    """Independent coverage oracle: plain frozenset unions, no bit tricks."""

    def __init__(self, store):
        self._sets = {t: frozenset(payload(store, t)) for t in range(1, len(store) + 1)}

    def value(self, ids):
        union = frozenset().union(*(self._sets[i] for i in ids)) if ids else frozenset()
        return float(len(union))

    def marginal(self, item_id, ids):
        return self.value(list(ids) + [item_id]) - self.value(ids)


def se_kernel(x, y, params) -> float:
    """exp(-||x - y||^2 / h^2); symmetric, in (0, 1], and 1 iff x == y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    d2 = float(np.sum((x - y) ** 2))
    return math.exp(-d2 / params.h**2)


def fresh_factor(X, params):
    """Reference for a log-det node's factor: ``np.linalg.cholesky`` of
    ``I + K/sigma**2`` over the rows of ``X``, in one shot, or None where
    numpy finds the matrix singular or a pivot is at or below
    ``DEGENERATE_PIVOT``."""
    X = np.asarray(X, dtype=float)
    diff = X[:, None, :] - X[None, :, :]
    K = np.exp(-np.sum(diff**2, axis=2) / params.h**2)
    try:
        L = np.linalg.cholesky(np.eye(len(X)) + K / params.sigma**2)
    except np.linalg.LinAlgError:
        return None
    return L if np.all(np.diag(L) ** 2 > DEGENERATE_PIVOT) else None


def ivm_value(X, params) -> float:
    """Reference value ``0.5 * log det(I + K/sigma**2)`` of the rows of
    ``X``: the log diagonal of ``fresh_factor``, which must not be None."""
    return math.fsum(math.log(v) for v in np.diag(fresh_factor(X, params)).tolist())


def factor_matrix(handle) -> np.ndarray:
    """A log-det node's factor rows as an ``n x n`` lower-triangular array."""
    n = len(handle._factor)
    L = np.zeros((n, n))
    for i, (_, row) in enumerate(handle._factor):
        L[i, : i + 1] = row
    return L


def factor_ids(handle) -> list[int]:
    """A log-det node's members that hold a factor row, in order."""
    return [m for m, _ in handle._factor]


def load_set_stream_per_token(path) -> list[tuple[int, ...]]:
    """Reference for ``load_set_stream``: each line parsed token by token,
    each set sorted and de-duplicated as it is read."""
    payloads = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            elements = []
            for token in line.split():
                try:
                    value = int(token)
                except ValueError:
                    raise ParseError(path, line_no, f"non-integer token {token!r}") from None
                if value < 0:
                    raise ParseError(path, line_no, f"negative element {value}")
                elements.append(value)
            payloads.append(tuple(sorted(set(elements))))
    return payloads


def coverage_masks_per_element(store) -> tuple[dict[int, int], float]:
    """Reference for ``CoverageOracle``'s masks and ``max_singleton``: bits
    handed out element by element in first-seen order, ORed in one by one."""
    bit_of: dict[int, int] = {}
    masks: dict[int, int] = {}
    biggest = 0
    for t in range(1, len(store) + 1):
        elements = payload(store, t)
        biggest = max(biggest, len(elements))
        m = 0
        for el in elements:
            b = bit_of.setdefault(el, len(bit_of))
            m |= 1 << b
        masks[t] = m
    return masks, float(biggest)


def prune_by_mask(reduction) -> None:
    """Reference for ``SlidingWindowReduction.prune``: a keep mask over the
    instances, each gap between kept ones marked in it, then the list rebuilt."""
    vals = instance_values(reduction)
    u = len(vals)
    keep = [True] * u
    grow = 1.0 + reduction.epsilon
    j = 0
    while j < u - 1:
        x = u - 1
        while x > j and grow * vals[x] < vals[j]:
            x -= 1
        for v in range(j + 1, x):
            keep[v] = False
        j = x if x > j else j + 1
    if not all(keep):
        reduction.instances = [inst for inst, kept in zip(reduction.instances, keep) if kept]


class ScriptedNode:
    """Handle whose gains are read from a script, negative ones included;
    like a trie node, it returns the same child for the same id. Its gains
    are not counted, but an algorithm may charge ``counter`` extra calls."""

    def __init__(self, script, counter, ids=(), value=0.0):
        self.script, self.counter, self.ids, self.value = script, counter, list(ids), value
        self.children = {}

    def gain(self, t):
        return self.script[t]

    def child(self, t):
        if t not in self.children:
            self.children[t] = ScriptedNode(self.script, self.counter, self.ids + [t], self.value + self.script[t])
        return self.children[t]


class ScriptedOracle:
    """An oracle of ``ScriptedNode`` handles whose largest singleton value,
    and so the threshold grid's top, is ``max_singleton``."""

    def __init__(self, script, max_singleton=4.0):
        self.calls = 0
        self.evaluations = 0
        self.root = ScriptedNode(script, self)
        self.bound = max_singleton

    def empty(self):
        return self.root

    def max_singleton(self):
        return self.bound


def node_state(handle):
    """What a handle holds: a coverage node's union mask, or a log-det
    node's members, skipped ids and factor rows, each with its member
    (compared bit for bit)."""
    if hasattr(handle, "mask"):
        return handle.mask
    return handle.ids, handle.skipped_ids, handle._factor


def level_buffers(alg) -> list[list[int]]:
    """Each grid level's buffer, read off a sieve's runs."""
    return [run.handle.ids for run in runs(alg) for _ in range(run.lo, run.hi)]


def level_values(alg) -> list[float]:
    return [run.handle.value for run in runs(alg) for _ in range(run.lo, run.hi)]


class LevelSieve:
    """Reference for the run-based sieves: one buffer, handle and value per
    grid level, stepped level by level. With a ``window`` the expired
    members are dropped and the buffer rebuilt (SieveNaive); with
    ``sample_c`` too, it is repaired by greedy over the sample and the
    survivors, picking as many items as survive (SieveGreedy).
    """

    def __init__(self, k, epsilon, oracle, window=None, sample_c=None, seed=0):
        self.k, self.oracle, self.window, self.sample_c = k, oracle, window, sample_c
        top = ceil_log_ratio(k * oracle.max_singleton(), epsilon)
        self.thresholds = [(1 + epsilon) ** level for level in range(top + 1)]
        self.buffers = [[] for _ in self.thresholds]
        self.handles = [oracle.empty() for _ in self.thresholds]
        self.values = [0.0 for _ in self.thresholds]
        self.samples, self.rng = [], random.Random(seed)

    def step(self, t):
        if self.sample_c is not None:
            if self.rng.random() < min(1.0, self.sample_c / self.window):
                self.samples.append(t)
            self.samples = [s for s in self.samples if s > t - self.window]
        for level, threshold in enumerate(self.thresholds):
            buf = self.buffers[level]
            survivors = [s for s in buf if self.window is None or s > t - self.window]
            if len(survivors) < len(buf):
                if self.sample_c is not None:
                    candidates = sorted(set(self.samples) | set(survivors))
                    self.handles[level] = greedy_select(candidates, len(survivors), self.oracle)
                    buf, self.values[level] = list(self.handles[level].ids), self.handles[level].value
                elif survivors:
                    buf = survivors
                    self.handles[level] = self.oracle.rebuild(buf)
                    self.values[level] = self.handles[level].value
                else:
                    buf, self.handles[level], self.values[level] = [], self.oracle.empty(), 0.0
                self.buffers[level] = buf
            if len(buf) < self.k and t not in buf:
                gain = self.handles[level].gain(t)
                if gain > (threshold / 2.0 - self.values[level]) / (self.k - len(buf)):
                    buf.append(t)
                    self.handles[level] = self.handles[level].child(t)
                    self.values[level] += gain

    def query(self):
        best = max(self.values)
        return list(self.buffers[self.values.index(best)]), best

    def retained_count(self):
        return sum(map(len, self.buffers)) + len(self.samples)


class ThresholdTables:
    """Reference for the run-based SlidingWindowDP: one level table per
    threshold ``(1+eps)**l / (2k)``, l = 0 .. 1 + ceil(log_{1+eps} kM), each
    scanned from high levels to low."""

    def __init__(self, k, window, epsilon, oracle):
        top = 1 + ceil_log_ratio(k * oracle.max_singleton(), epsilon)
        self.k, self.window = k, window
        self.thresholds = [(1 + epsilon) ** level / (2.0 * k) for level in range(top + 1)]
        self.tables = [
            ([-1] * (k + 1), [[] for _ in range(k + 1)], [oracle.empty()] * (k + 1), [0.0] * (k + 1))
            for _ in self.thresholds
        ]

    def step(self, i):
        for threshold, (levels, sets, handles, vals) in zip(self.thresholds, self.tables):
            levels[0] = i
            levels[:] = [-1 if lv <= i - self.window else lv for lv in levels]
            for j in range(self.k - 1, -1, -1):
                if levels[j] == -1 or levels[j] <= levels[j + 1]:
                    continue
                gain = handles[j].gain(i)
                if gain >= threshold:
                    levels[j + 1], sets[j + 1] = levels[j], sets[j] + [i]
                    vals[j + 1], handles[j + 1] = vals[j] + gain, handles[j].child(i)

    def query(self):
        best = [], 0.0
        for levels, sets, _, vals in self.tables:
            j = max((j for j in range(self.k + 1) if levels[j] != -1), default=0)
            if vals[j] > best[1]:
                best = (list(sets[j]), vals[j])
        return best

    def retained_count(self):
        return sum(len(s) for _, sets, _, _ in self.tables for s in sets)


class RebuildPrioritySample:
    """Reference for ``PrioritySample``: after every arrival each candidate's
    fate is worked out afresh, from the sorted priorities of all later ones."""

    def __init__(self, k, window, oracle, seed=0):
        self.k, self.window, self.oracle = k, window, oracle
        self.candidates: list[tuple[int, float]] = []
        self._rng = random.Random(seed)

    def step(self, t):
        cutoff = t - self.window
        while self.candidates and self.candidates[0][0] <= cutoff:
            self.candidates.pop(0)
        self.candidates.append((t, self._rng.random()))
        self._evict_dominated()

    def _evict_dominated(self):
        kept_rev: list[tuple[int, float]] = []
        later: list[float] = []  # priorities of kept later arrivals, sorted
        for cand in reversed(self.candidates):
            if bisect_left(later, cand[1]) < self.k:
                kept_rev.append(cand)
            insort(later, cand[1])
        self.candidates = kept_rev[::-1]

    def query(self):
        return scan_answer(self)

    def retained_count(self):
        return len(self.candidates)


class KernelEntryCount:
    """Stand-in for ``math`` in ``swmax.objectives`` that counts kernel
    entries: each is one ``dist`` call. ``exp``, ``log``, ``sqrt``,
    ``log1p`` and ``isfinite`` are forwarded; any other name is missing, so a
    new use of ``math`` there fails loudly instead of going uncounted."""

    exp, log, sqrt, log1p, isfinite = math.exp, math.log, math.sqrt, math.log1p, math.isfinite

    def __init__(self):
        self.entries = 0

    def dist(self, p, q):
        self.entries += 1
        return math.dist(p, q)


@pytest.fixture
def kernel_entries(monkeypatch) -> KernelEntryCount:
    """Counts the kernel entries the log-det objective computes in the test."""
    count = KernelEntryCount()
    monkeypatch.setattr(objectives, "math", count)
    return count


@pytest.fixture
def abc_store():
    """Three sets A={1,2,3}, B={4,5}, C={3,4}: greedy picks A then B."""
    return set_store((1, 2, 3), (4, 5), (3, 4))
