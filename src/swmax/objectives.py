"""Monotone submodular objectives: set coverage and kernel active-set log-det.

Coverage scores a collection of integer sets by the size of their union.
The active-set objective (informative vector machine, IVM) scores a set S
of vectors by ``0.5 * log det(I + K_S / sigma**2)`` under the squared
exponential kernel ``K(x, y) = exp(-||x - y||^2 / h**2)``. Natural log is
used throughout; the base only rescales utilities uniformly, but
``max_singleton``, which sets the threshold grids, must be computed in the
same base, so one is fixed globally.

Each objective hands out handles (see ``swmax.core``): immutable trie
nodes, one per member set, grown from the one root that ``empty()``
returns. A coverage node is the union bitmask of its members. A log-det
node is a Cholesky factor of ``I + K_S / sigma**2`` in Python floats; its
children grow it by one row, so a marginal gain costs one forward
substitution against the factor instead of a fresh factorization, and each
node computes the gain of an arrival once however many buffers hold it.
The kernel row of that substitution is shared too: a root and the nodes
grown from it share one arrival slot, the item of the last ``gain`` probe
and its kernel entries by member id, so an entry ``K(member, arrival)`` is
computed once however many nodes hold the member. Factors are only ever
extended, since downdating is numerically risky: a buffer that shrinks
(expiry) gets the node that ``rebuild`` grows from a fresh root of its
own, one ``child`` per member. So every factor comes from the one row step
of ``child``, and a collapsed pivot is skipped alike on every path.

A batch of gains (``gains``, one greedy round) keeps each candidate's
probe, its forward substitution against the node's factor. The child that
greedy takes inherits the batch, and its own batch extends each probe by
the one row the factor grew by, so a greedy round costs one kernel entry
and one solve entry per candidate, not a kernel row and a whole solve. A
batch lives until it is handed on or used: a node hands it to the child
grown from one of its ids and drops it, and the child's own batch replaces
it, so a finished greedy leaves at most one batch, on its last node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Sequence

# Schur complements of I + K/sigma^2 are >= 1 in exact arithmetic; a pivot
# at or below this threshold means rounding has destroyed the factor.
DEGENERATE_PIVOT = 1e-12


@dataclass(frozen=True)
class KernelParams:
    """Squared-exponential kernel bandwidth ``h`` and noise scale ``sigma``."""

    h: float = 0.75
    sigma: float = 1.0

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError(f"kernel bandwidth must be positive, got {self.h}")
        if not self.sigma > 0:
            raise ValueError(f"noise scale must be positive, got {self.sigma}")


class CholState:
    """Log-det handle: one immutable trie node with lower-triangular L,
    ``L @ L.T == I + K_S / sigma**2`` for its member set S.

    Members are item ids, each the point ``rows[t - 1]`` of its id ``t``.
    ``ids`` lists every item taken, in insertion order, and ``value``, the
    sum of their gains, is ``0.5 * log det`` of the factored matrix. A
    degenerate pivot (<= DEGENERATE_PIVOT) gains 0: its item is listed in
    ``skipped_ids`` too, and the factor is kept as it was, so its invariant
    survives.

    The factor is kept as Python lists of floats, row ``i`` being
    ``[L_i0, ..., L_ii]``, next to the ids of the members that hold a row
    (``_members``): on factors of a few rows a numpy call costs more in
    overhead than the arithmetic it does. A probe converts nothing: a root
    takes the points as float rows, which an ``IVMOracle`` reads from its
    store (``vector_rows``), and its nodes share them.

    The root and its nodes also share one arrival slot, the last element of
    ``_kernel``: ``[item, x, {member id: K(x, member) / sigma**2}]``, empty
    (``None``) until the first probe. A ``gain`` that misses the memo
    refills it when its item differs, which checks the id and looks up
    ``x`` once per arrival, then probes through it: each entry is read from
    the slot, or computed and stored on a miss, by the same expression, so
    every gain and factor row is the same float either way. Only ``gain``,
    the one-item path that the streaming algorithms take at each arrival,
    uses the slot. A ``gains`` batch, ``child``'s own probe and the growth
    of a ``rebuild`` probe each item once and neither read nor reset it.

    A node's set, value and factor never change, only its two memo slots
    and its batch probes (see ``gains``) do. ``child(id)`` returns the node
    for S + [id], whose factor is this one grown by one row; rows and lists
    are shared between nodes, never written in place. The node keeps its
    last gain with the probe behind it, so a repeated gain is a memo hit and
    a child of the same item grows from that probe, and its last child, so
    a repeated ``child`` returns the same object. Gains count into
    ``counter.calls`` while a counter is set, memo hits included; only
    misses count into ``counter.evaluations``. Children inherit the counter.
    """

    __slots__ = ("_kernel", "counter", "ids", "value", "skipped_ids", "_members", "_rows", "_gain", "_child",
                 "_batch", "__weakref__")  # as on ``CoverageUnion``, so a test can check that a dropped node is freed

    def __init__(self, rows: Sequence[list[float]], params: KernelParams):
        self._kernel = (rows, params.sigma**-2, params.h**2, [None, None, None])
        self.counter = None
        self.ids: list[int] = []
        self.value = 0.0
        self.skipped_ids: list[int] = []
        self._members: list[int] = []
        self._rows: list[list[float]] = []
        self._gain: tuple[int, float, tuple[list[float], list[float], float]] | None = None
        self._child: tuple[int, CholState] | None = None
        self._batch: dict[int, tuple[list[float], list[float], float]] | None = None

    @property
    def n(self) -> int:
        """Order of the factor (degenerate members excluded)."""
        return len(self._rows)

    def _row(self, item_id: int) -> int:
        if not 1 <= item_id <= len(self._kernel[0]):
            raise ValueError(f"unknown item id {item_id}")
        return item_id - 1

    def _probe(self, item_id: int, slot: list | None = None) -> tuple[list[float], list[float], float]:
        """Point x of ``item_id``, ``w`` solving ``L w = c``, and the pivot ``d``.

        ``c_j = K(x, s_j) / sigma^2`` and ``d = 1 + K(x, x)/sigma^2 - w.w``
        is the Schur complement, where ``K(x, x) = 1`` for this kernel.
        ``w`` comes by forward substitution, one kernel entry and one
        ``w_i = (c_i - sum_j L_ij w_j) / L_ii`` per member. With the root's
        arrival slot, filled for ``item_id`` by ``gain``, each entry is read
        from the slot, or computed and stored there on a miss.
        """
        rows, inv_s2, h2, _ = self._kernel
        w: list[float] = []
        if slot is None:
            x = rows[self._row(item_id)]
            for m, row in zip(self._members, self._rows):
                c = inv_s2 * math.exp(-math.dist(rows[m - 1], x) ** 2 / h2)
                w.append((c - sum(map(mul, row, w))) / row[-1])
        else:
            _, x, known = slot
            for m, row in zip(self._members, self._rows):
                c = known.get(m)
                if c is None:
                    c = known[m] = inv_s2 * math.exp(-math.dist(rows[m - 1], x) ** 2 / h2)
                w.append((c - sum(map(mul, row, w))) / row[-1])
        return x, w, 1.0 + inv_s2 - sum(map(mul, w, w))

    def gain(self, item_id: int) -> float:
        """Marginal log-det gain ``0.5 * log d`` of adding the item; 0 for a
        collapsed pivot. A memo miss probes through the root's arrival slot,
        refilled first if it holds another item."""
        counter = self.counter
        if counter is not None:
            counter.calls += 1
        memo = self._gain
        if memo is not None and memo[0] == item_id:
            return memo[1]
        slot = self._kernel[3]
        if slot[0] != item_id:
            slot[1] = self._kernel[0][self._row(item_id)]
            slot[0], slot[2] = item_id, {}
        probe = self._probe(item_id, slot)
        d = probe[2]
        gain = 0.5 * math.log(d) if d > DEGENERATE_PIVOT else 0.0
        self._gain = (item_id, gain, probe)
        if counter is not None:
            counter.evaluations += 1
        return gain

    def gains(self, ids: Sequence[int]) -> list[float]:
        """``[self.gain(i) for i in ids]``, bit for bit, each id charged and
        evaluated once; the probes are kept as this node's batch.

        A node grown by ``child`` from an id of a batch takes the batch
        with it, so its probes are against the factor one row short. Its own
        ``gains`` extends each of them by that row: one kernel entry ``c``
        and ``(c - sum(map(mul, row, w))) / row[-1]``, the last step
        ``_probe`` would take, so ``w`` and ``d`` come out as ``_probe``
        computes them. After a collapsed pivot the factor, and so each
        probe, is unchanged. An id outside the batch is probed afresh, and
        the new batch replaces the one taken.
        """
        counter = self.counter
        if counter is not None:
            counter.calls += len(ids)
            counter.evaluations += len(ids)
        taken = self._batch or {}
        n = len(self._rows)
        if n:
            rows, inv_s2, h2, _ = self._kernel
            s, row = rows[self._members[-1] - 1], self._rows[-1]
            pivot = row[-1]
        probes: dict[int, tuple[list[float], list[float], float]] = {}
        gains: list[float] = []
        for i in ids:
            probe = taken.get(i)
            if probe is None:
                probe = self._probe(i)
            elif len(probe[1]) < n:
                x, w, _ = probe
                c = inv_s2 * math.exp(-math.dist(s, x) ** 2 / h2)
                w = w + [(c - sum(map(mul, row, w))) / pivot]
                probe = (x, w, 1.0 + inv_s2 - sum(map(mul, w, w)))
            probes[i] = probe
            d = probe[2]
            gains.append(0.5 * math.log(d) if d > DEGENERATE_PIVOT else 0.0)
        self._batch = probes
        return gains

    def child(self, item_id: int) -> "CholState":
        """The node with the item appended to ``ids``; on a collapsed pivot it
        is added to ``skipped_ids`` too, and the factor is kept.

        If the node's own batch holds a probe of the item, the batch moves on
        to the child, new or from the memo, to be extended in the child's own
        ``gains``, and a new child takes its probe from it.
        """
        taken = None
        batch = self._batch
        if batch is not None and item_id in batch and len(batch[item_id][1]) == len(self._rows):
            taken, self._batch = batch, None
        memo = self._child
        if memo is not None and memo[0] == item_id:
            if taken is not None:
                memo[1]._batch = taken
            return memo[1]
        gained = self._gain
        if taken is not None:
            x, w, d = taken[item_id]
        elif gained is not None and gained[0] == item_id:
            x, w, d = gained[2]
        else:
            x, w, d = self._probe(item_id)
        node = object.__new__(CholState)
        node._kernel, node.counter, node._gain, node._child, node._batch = self._kernel, self.counter, None, None, taken
        node.ids = self.ids + [item_id]
        if d <= DEGENERATE_PIVOT:
            node.value, node.skipped_ids = self.value, self.skipped_ids + [item_id]
            node._members, node._rows = self._members, self._rows
        else:
            node.value, node.skipped_ids = self.value + 0.5 * math.log(d), self.skipped_ids
            node._members, node._rows = self._members + [item_id], self._rows + [w + [math.sqrt(d)]]
        self._child = (item_id, node)
        return node


class CoverageUnion:
    """Coverage handle: an immutable node holding its members' ``ids`` in
    insertion order, their union bitmask and its popcount as ``value``.

    It keeps the same two memo slots as ``CholState``: the last gain and the
    last child, each keyed by item id. A batch of gains keeps nothing: a
    gain is one and/popcount against the node's mask.
    """

    # ``__weakref__`` lets a test check that a node no buffer holds is freed.
    __slots__ = ("_masks", "ids", "mask", "value", "counter", "_gain", "_child", "__weakref__")

    def __init__(self, masks: dict[int, int], ids: list[int], mask: int, value: float, counter=None):
        self._masks = masks
        self.ids = ids
        self.mask = mask
        self.value = value
        self.counter = counter
        self._gain: tuple[int, float] | None = None
        self._child: tuple[int, CoverageUnion] | None = None

    def gain(self, item_id: int) -> float:
        counter = self.counter
        if counter is not None:
            counter.calls += 1
        memo = self._gain
        if memo is not None and memo[0] == item_id:
            return memo[1]
        mask = self._masks.get(item_id)
        if mask is None:
            raise ValueError(f"unknown item id {item_id}")
        gain = float((mask & ~self.mask).bit_count())
        self._gain = (item_id, gain)
        if counter is not None:
            counter.evaluations += 1
        return gain

    def gains(self, ids: Sequence[int]) -> list[float]:
        """``[self.gain(i) for i in ids]``, each id charged and evaluated once,
        in one pass over the masks that neither reads nor sets the memo."""
        counter = self.counter
        if counter is not None:
            counter.calls += len(ids)
            counter.evaluations += len(ids)
        masks, free = self._masks, ~self.mask
        try:
            return [float((masks[i] & free).bit_count()) for i in ids]
        except KeyError as exc:
            raise ValueError(f"unknown item id {exc.args[0]}") from None

    def child(self, item_id: int) -> "CoverageUnion":
        """The node with the item appended; its value adds the item's gain
        to this node's, taken from the gain memo when it holds the item."""
        memo = self._child
        if memo is not None and memo[0] == item_id:
            return memo[1]
        mask = self._masks.get(item_id)
        if mask is None:
            raise ValueError(f"unknown item id {item_id}")
        union, gained = self.mask | mask, self._gain
        value = self.value + gained[1] if gained is not None and gained[0] == item_id else float(union.bit_count())
        node = CoverageUnion(self._masks, self.ids + [item_id], union, value, self.counter)
        self._child = (item_id, node)
        return node


class CoverageOracle:
    """Union-size objective over a set-stream store.

    Evaluation is an or/popcount over the store's ``coverage_masks``, whatever
    the universe ids; each oracle grows its handles from a root of its own.
    """

    def __init__(self, store):
        self._masks = store.coverage_masks  # a dense store raises ValueError
        self._root = CoverageUnion(self._masks, [], 0, 0.0)
        self._max_singleton = float(store.max_set_size)

    def _union(self, ids: Sequence[int]) -> int:
        acc = 0
        masks = self._masks
        try:
            for i in ids:
                acc |= masks[i]
        except KeyError as exc:
            raise ValueError(f"unknown item id {exc.args[0]}") from exc
        return acc

    def empty(self) -> CoverageUnion:
        """The oracle's one root node, the same object on every call."""
        return self._root

    def rebuild(self, ids: Sequence[int]) -> CoverageUnion:
        """A fresh root's node on ``ids``, not linked to the shared root."""
        union = self._union(ids)
        return CoverageUnion(self._masks, list(ids), union, float(union.bit_count()))

    def eval(self, ids: Sequence[int]) -> float:
        return float(self._union(ids).bit_count())

    def max_singleton(self) -> float:
        """Size of the largest set in the store; 0 for an empty store."""
        return self._max_singleton


class IVMOracle:
    """Log-det objective over a dense-vector store; handles are ``CholState``
    nodes on the store's float rows, each grown by ``child`` from a root."""

    def __init__(self, store, params: KernelParams):
        if store.kind != "dense":
            raise ValueError(f"log-det objective needs dense vectors, got {store.kind!r}")
        self.params = params
        self._rows = store.vector_rows
        self._root = CholState(self._rows, params)
        # The last set evaluated and its value: the harness re-scores a
        # sample that the random baseline has just evaluated, and any answer
        # unchanged since the last record, and growing a factor costs far
        # more than the query. The random baseline keeps its sample's value
        # itself and does not re-evaluate an unchanged set.
        self._last_eval: tuple[tuple[int, ...], float] = ((), 0.0)

    def empty(self) -> CholState:
        """The oracle's one root node, the same object on every call."""
        return self._root

    def rebuild(self, ids: Sequence[int]) -> CholState:
        """The node grown by ``child`` from a fresh root, one member at a
        time in order. The root is not the shared one, so the memo slots of
        the nodes that buffers hold are left alone."""
        node = CholState(self._rows, self.params)
        for i in ids:
            node = node.child(i)
        return node

    def eval(self, ids: Sequence[int]) -> float:
        key = tuple(ids)
        if key != self._last_eval[0]:
            self._last_eval = (key, self.rebuild(key).value)
        return self._last_eval[1]

    def max_singleton(self) -> float:
        """``0.5 * log(1 + K(x, x)/sigma**2)`` with ``K(x, x) = 1``: every
        point scores the same alone under the squared exponential kernel."""
        return 0.5 * math.log1p(1.0 / self.params.sigma**2)
