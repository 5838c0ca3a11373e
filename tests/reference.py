"""Test-only references: a set's value on an oracle, exact optima, plain
coverage, a store's payloads, set-stream and dense-CSV writers, window
members, an algorithm's answer as ids and value, a best-so-far wrapper, the
reduction's live instances, the run layout and thresholds of the sieves and
level tables with the handles their buffers hold, the answers a full scan
of their state gives, the layout of a log-det probe, and eager greedy,
which scores every candidate in every round."""

import math
from itertools import combinations
from typing import NamedTuple

from swmax.sliding import SlidingWindowDP, SlidingWindowReduction
from swmax.streaming import SieveStream


def coverage_value(payloads) -> int:
    """Size of the union of the given element sets."""
    union: set[int] = set()
    for p in payloads:
        union.update(p)
    return len(union)


def score(oracle, ids) -> float:
    """The value of the set ``ids``: the ``value`` of the handle that
    ``oracle.rebuild`` grows for it, charged as one call and one evaluation.
    The one place the tests score a set on an oracle."""
    return oracle.rebuild(ids).value


def brute_force_opt(items, k, objective, max_subsets=10**6) -> tuple[list[int], float]:
    """Exact optimum over all subsets of size <= k, by enumeration.

    ``objective`` is a set store, whose subsets are scored as coverage from
    its ``coverage_masks`` and charge no oracle, or a function from a tuple
    of ids to its value, such as ``partial(score, oracle)``. Refuses
    instances with more than ``max_subsets`` candidate subsets.
    """
    n = len(items)
    top = min(k, n)
    total = sum(math.comb(n, size) for size in range(top + 1))
    if total > max_subsets:
        raise ValueError(f"{total} subsets exceed the enumeration guard {max_subsets}")
    if callable(objective):
        evaluate = objective
    else:
        masks = objective.coverage_masks

        def evaluate(combo):
            union = 0
            for i in combo:
                union |= masks[i]
            return float(union.bit_count())

    best: tuple[list[int], float] = ([], 0.0)
    for size in range(1, top + 1):
        for combo in combinations(items, size):
            value = evaluate(combo)
            if value > best[1]:
                best = (list(combo), value)
    return best


def payload(store, t):
    """Payload of the item that arrived at timestep ``t`` (1-based): its row
    of a dense store's vectors, or its set of a set store."""
    if not 1 <= t <= len(store):
        raise ValueError(f"timestep {t} outside 1..{len(store)}")
    return store.vectors[t - 1] if store.kind == "dense" else store.sets[t - 1]


def write_set_stream(store, path) -> None:
    """Inverse of ``load_set_stream``: one space-separated set per line."""
    sets = store.sets  # raises for a dense store, before the file is opened
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(" ".join(map(str, s)) + "\n" for s in sets)


def write_dense_csv(rows, path) -> None:
    """Inverse of ``load_dense_csv``: one comma-separated row per line, each
    float written by ``repr``, so it reads back bit for bit."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def window_ids(end, size) -> list[int]:
    """Item ids of the window of ``size`` timesteps ending at ``end``, ascending."""
    return list(range(max(1, end - size + 1), end + 1))


def answer(alg) -> tuple[list[int], float]:
    """The ids and value of the handle an algorithm's ``query()`` returns:
    the one place the tests read an answer."""
    handle = alg.query()
    return list(handle.ids), handle.value


class BestSoFar:
    """Makes a streaming algorithm's reported value non-decreasing.

    After every step the inner algorithm is queried, and queries return the
    handle of the best answer observed over any prefix, the empty one
    included. This certifies prefix-monotone behaviour for inner algorithms
    plugged into the window reduction. It is not meant for sliding-window
    algorithms themselves, whose value legitimately drops when items expire.
    """

    def __init__(self, inner):
        self.inner = inner
        self._best = inner.query()

    def step(self, t: int) -> None:
        self.inner.step(t)
        handle = self.inner.query()
        if handle.value > self._best.value:
            self._best = handle

    def query(self):
        return self._best

    def retained_count(self) -> int:
        return self.inner.retained_count() + len(self._best.ids)


def instance_starts(reduction) -> list[int]:
    """Start timesteps of a ``SlidingWindowReduction``'s live instances, oldest first."""
    return [inst.start for inst in reduction.instances]


def instance_values(reduction) -> list[float]:
    """Values of a ``SlidingWindowReduction``'s live instances, as its prune reads them."""
    return [inst.alg.query().value for inst in reduction.instances]


class SieveRun(NamedTuple):
    """A sieve's run: grid levels ``lo .. hi-1`` share the buffer ``handle``."""

    lo: int
    hi: int
    handle: object


class TableRun(NamedTuple):
    """A ``SlidingWindowDP`` run: thresholds ``lo .. hi-1`` share the level
    buffers ``handles``. ``levels`` is derived from them: each live level's
    start (the current step for level 0, its set's first id for level
    j >= 1), and -1 for a level that is not live, one whose start (0 for an
    empty set) is at or before the horizon ``max(0, t - W)``."""

    lo: int
    hi: int
    levels: list[int]
    handles: list


def runs(alg) -> list:
    """A sieve's or a ``SlidingWindowDP``'s runs, lowest threshold first: the
    one place the tests read the run layout."""
    if isinstance(alg, SlidingWindowDP):
        return [TableRun(lo, hi, _live_starts(alg, handles), handles) for lo, hi, handles in alg.runs]
    return [SieveRun(*run) for run in alg.runs]


def _live_starts(dp, handles) -> list[int]:
    """The ``levels`` of a ``SlidingWindowDP`` run's ``handles`` (see ``TableRun``)."""
    horizon = max(0, dp._t - dp.window)
    starts = [dp._t] + [(h.ids or (0,))[0] for h in handles[1:]]
    return [start if start > horizon else -1 for start in starts]


def thresholds(alg) -> list[float]:
    """A grid's thresholds, lowest first: a sieve's ``(1+eps)**l``, each
    twice the half ``T/2`` it reads off its table, or the table
    ``(1+eps)**l / (2k)`` that a ``SlidingWindowDP`` scans: the one place
    the tests read the lattice."""
    if isinstance(alg, SlidingWindowDP):
        return list(alg.thresholds)
    return [2.0 * h for h in alg.halves]


def buffer_handles(alg) -> list:
    """The handle of every buffer an algorithm holds: one per sieve run, one
    per level of each ``SlidingWindowDP`` run, and those of every live
    instance of a reduction."""
    if isinstance(alg, SlidingWindowReduction):
        return [h for inst in alg.instances for h in buffer_handles(inst.alg)]
    if isinstance(alg, SlidingWindowDP):
        return [h for run in runs(alg) for h in run.handles]
    return [run.handle for run in runs(alg)]


def scan_answer(alg) -> tuple[list[int], float]:
    """The answer a full scan of an algorithm's state gives, for checking the
    answer it keeps:

    * a sieve's (``SieveStream`` and its subclasses): its best buffer, the
      lowest level's on ties;
    * a ``SlidingWindowDP``'s: each run's deepest live level, the largest
      j whose start in ``TableRun.levels`` is not -1 (0, the root, if none
      is), the best of them, the lowest threshold's on ties;
    * a ``PrioritySample``'s (or any sampler with ``candidates`` of
      ``(t, priority, ...)``, ``k`` and ``oracle``): the sorted ids of the k
      smallest priorities, the earlier arrival's on ties, and their value by
      one ``score``.
    """
    if isinstance(alg, SlidingWindowDP):
        best = runs(alg)[0].handles[0]
        for run in runs(alg):
            deepest = run.handles[max((j for j, start in enumerate(run.levels) if start != -1), default=0)]
            if deepest.value > best.value:
                best = deepest
    elif isinstance(alg, SieveStream):
        best = max((run.handle for run in runs(alg)), key=lambda h: h.value)
    else:
        ids = sorted(c[0] for c in sorted(alg.candidates, key=lambda c: c[1])[: alg.k])
        return (ids, score(alg.oracle, ids)) if ids else ([], 0.0)
    return list(best.ids), best.value


class Probe(NamedTuple):
    """A log-det probe of an item against a node's factor, or a prefix of
    it: the forward solve ``w``, the pivot ``d`` and the running sum
    ``squares`` of ``w_i * w_i`` that ``d`` is taken from."""

    w: list[float]
    d: float
    squares: float


def probe(raw) -> Probe:
    """A log-det probe as ``CholState._probe`` returns it and a node's gain
    memo and batch keep it: the one place the tests read its layout."""
    return Probe(*raw)


def batch_probes(node) -> dict[int, Probe]:
    """A log-det node's batch (see ``CholState.gains``): its probes by item id."""
    return {i: probe(raw) for i, raw in node._batch.items()}


def greedy_by_gain(items, k, oracle):
    """Reference for ``greedy_select``: k rounds that score each candidate
    with its own ``gain`` call, best gain first, smallest id on ties."""
    selected, chosen = [], set()
    handle = oracle.empty()
    value = 0.0
    for _ in range(k):
        best_id, best_gain = None, 0.0
        for cand in items:
            if cand in chosen:
                continue
            gain = handle.gain(cand)
            if best_id is None or gain > best_gain or (gain == best_gain and cand < best_id):
                best_id, best_gain = cand, gain
        if best_id is None or best_gain <= 0.0:
            break
        selected.append(best_id)
        chosen.add(best_id)
        handle = handle.child(best_id)
        value += best_gain
    return selected, value, handle
