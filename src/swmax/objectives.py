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
The substitution carries the pivot: each row adds the square of its solved
entry to a running sum, so the pivot takes no second pass over the solve.
The kernel row of that substitution is shared too: a root and the nodes
grown from it share one arrival slot, the item of the last probe and its
kernel entries by member id, so an entry ``K(member, arrival)`` is computed
once however many nodes probe the item in a row. Factors are only ever
extended, since downdating is numerically risky: a buffer that shrinks
(expiry) gets the node that ``rebuild`` grows from a fresh root of its
own, one ``child`` per member. So every factor comes from the one row step
of ``child``, and a collapsed pivot is skipped alike on every path.

A batch of gains (``gains``, greedy's first round) keeps each candidate's
probe, its forward substitution against the node's factor, and the child
that greedy takes inherits the batch. Greedy is lazy: a later round
re-scores, by ``gain``, only the candidates whose bounds reach the top,
perhaps several rows after their last score, and each such gain resumes the
kept probe and its running sum over the rows the factor gained since, one
kernel entry and one solve entry per row, not a kernel row and a whole
solve. A batch probe's kernel entries are each read once, so they stay out
of the arrival slot. A batch lives until it is handed on or replaced: a
node hands it, without the probe of the id taken, to the child grown from
one of its ids and drops it, ``gain`` keeps the probe it resumes in it,
and ``gains`` starts a new one, so a finished greedy leaves at most one
batch, on its last node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .core import SubmodularOracle

# Schur complements of I + K/sigma^2 are >= 1 in exact arithmetic; a pivot
# at or below this threshold means rounding has destroyed the factor.
DEGENERATE_PIVOT = 1e-12


@dataclass(frozen=True)
class KernelParams:
    """Squared-exponential kernel bandwidth ``h`` and noise scale ``sigma``."""

    h: float = 0.75
    sigma: float = 1.0

    def __post_init__(self):
        # The kernel divides by h**2, and the objective takes sigma**2 and
        # sigma**-2: each must be a positive float, and a power of a finite
        # float that overflows raises.
        for name, value, powers in (("kernel bandwidth h", self.h, (2,)), ("noise scale sigma", self.sigma, (2, -2))):
            try:
                valid = math.isfinite(value) and value > 0 and all(value**p > 0 for p in powers)
            except OverflowError:
                valid = False
            if not valid:
                raise ValueError(f"{name} must be positive and finite, and so must its powers {powers}, got {value}")


class CholState:
    """Log-det handle: one immutable trie node with lower-triangular L,
    ``L @ L.T == I + K_S / sigma**2`` for its member set S.

    Members are item ids, each the point ``rows[t - 1]`` of its id ``t``.
    ``ids`` lists every item taken, in insertion order, and ``value``, the
    sum of their gains, is ``0.5 * log det`` of the factored matrix. A
    degenerate pivot (<= DEGENERATE_PIVOT) gains 0: its item is listed in
    ``skipped_ids`` too, and the factor is kept as it was, so its invariant
    survives.

    The factor is one list, ``_factor``, of ``(member id, row)`` pairs in
    Python floats, one per member that holds a row, in insertion order, row
    ``i`` being ``[L_i0, ..., L_ii]``: on factors of a few rows a numpy call
    costs more in overhead than the arithmetic it does. A probe converts
    nothing: a root takes the points as float rows, which an ``IVMOracle``
    reads from its store (``vector_rows``), and its nodes share them.

    The root and its nodes also share one arrival slot, the last element of
    ``_kernel``: ``[item, x, {member id: K(x, member) / sigma**2}]``, empty
    (``None``) until the first probe. Every probe of an arrival
    (``_probe``) goes through it: one for another item refills it, which
    checks the id and looks up ``x``, and each entry is read from the slot,
    or computed and stored on a miss, by the same expression, so every gain
    and factor row is the same float either way. The streaming algorithms
    probe one arrival across many nodes in a row, so each entry is computed
    once per arrival. Batch probes (see ``gains``) leave the slot alone.

    A node's set, value and factor never change, only its two memo slots
    and its batch probes (see ``gains``) do. ``child(id)`` returns the node
    for S + [id], whose factor is this one grown by one row; rows and lists
    are shared between nodes, never written in place. The node keeps its
    last gain with the probe behind it, so a repeated gain is a memo hit and
    a child of the same item grows from that probe and adds that gain to its
    value, and its last child, so a repeated ``child`` returns the same
    object. Gains count into ``counter.calls``, memo hits included; only
    misses count into ``counter.evaluations``. Children inherit the counter.
    """

    __slots__ = ("_kernel", "counter", "ids", "value", "skipped_ids", "_factor", "_gain", "_child",
                 "_batch", "__weakref__")  # as on ``CoverageUnion``, so a test can check that a dropped node is freed

    def __init__(self, rows: Sequence[list[float]], params: KernelParams, counter):
        self._kernel = (rows, params.sigma**-2, params.h**2, [None, None, None])
        self.counter = counter
        self.ids: list[int] = []
        self.value = 0.0
        self.skipped_ids: list[int] = []
        self._factor: list[tuple[int, list[float]]] = []
        self._gain: tuple[int, float, tuple[list[float], float, float]] | None = None
        self._child: tuple[int, CholState] | None = None
        self._batch: dict[int, tuple[list[float], float, float]] | None = None

    def _probe(self, item_id: int, w: list[float] | None = None, s: float = 0.0) -> tuple[list[float], float, float]:
        """``(w, d, s)``: ``w`` solving ``L w = c`` for the point x of
        ``item_id``, the pivot ``d`` and the running sum ``s = w.w``.

        ``c_j = K(x, x_j) / sigma^2`` for member j's point ``x_j``, and
        ``d = 1 + K(x, x)/sigma^2 - w.w`` is the Schur complement, where
        ``K(x, x) = 1`` for this kernel. ``w`` comes by forward
        substitution, one kernel entry and one
        ``w_i = (c_i - sum_j L_ij w_j) / L_ii`` per member, the first row
        being ``c_0 / L_00``. Each row also adds ``w_i * w_i`` to ``s``, so
        the pivot takes no second pass over ``w``. ``s`` runs left to right
        from 0.0, uncompensated: the float that Python 3.11's
        ``sum(map(mul, w, w))`` gives, on which the golden hashes were
        pinned (``math.fsum``, and ``sum`` from Python 3.12 on, round
        differently).

        A batch probe (see ``gains``) passes the ``w`` and ``s`` it kept,
        the solve against the first ``len(w)`` rows of this factor, or
        ``[]`` and 0.0 to start one, and the loop resumes both from the next
        row. Each of its entries is read once, so it computes them and
        leaves the arrival slot alone. A probe of an arrival (no ``w``)
        reads each entry from the root's arrival slot, or computes and
        stores it there on a miss; the slot is refilled first if it holds
        another item. Both loops do the same float operations in the same
        order, so a resumed probe is a fresh one bit for bit.
        """
        rows, inv_s2, h2, slot = self._kernel
        if w is not None:
            if not 1 <= item_id <= len(rows):
                raise ValueError(f"unknown item id {item_id}")
            x = rows[item_id - 1]
            w = w[:]
            for m, row in self._factor[len(w):]:
                c = inv_s2 * math.exp(-math.dist(rows[m - 1], x) ** 2 / h2)
                wi = (c - sum(map(mul, row, w))) / row[-1] if w else c / row[0]
                w.append(wi)
                s += wi * wi
            return w, 1.0 + inv_s2 - s, s
        if slot[0] != item_id:
            if not 1 <= item_id <= len(rows):
                raise ValueError(f"unknown item id {item_id}")
            slot[:] = item_id, rows[item_id - 1], {}
        _, x, known = slot
        w = []
        for m, row in self._factor:
            c = known.get(m)
            if c is None:
                c = known[m] = inv_s2 * math.exp(-math.dist(rows[m - 1], x) ** 2 / h2)
            wi = (c - sum(map(mul, row, w))) / row[-1] if w else c / row[0]
            w.append(wi)
            s += wi * wi
        return w, 1.0 + inv_s2 - s, s

    def gain(self, item_id: int) -> float:
        """Marginal log-det gain ``0.5 * log d`` of adding the item; 0 for a
        collapsed pivot. An item of the node's batch (see ``gains``) has its
        kept probe resumed, and the batch keeps the result. A batch that
        ``child`` handed on holds probes against a prefix of this factor: one
        scored k rows back lacks those k rows (none after a collapsed pivot)."""
        counter = self.counter
        counter.calls += 1
        memo = self._gain
        if memo is not None and memo[0] == item_id:
            return memo[1]
        batch = self._batch
        kept = None if batch is None else batch.get(item_id)
        if kept is None:
            probe = self._probe(item_id)
        else:
            probe = batch[item_id] = self._probe(item_id, kept[0], kept[2])
        d = probe[1]
        gain = 0.5 * math.log(d) if d > DEGENERATE_PIVOT else 0.0
        self._gain = (item_id, gain, probe)
        counter.evaluations += 1
        return gain

    def gains(self, ids: Sequence[int]) -> list[float]:
        """``[self.gain(i) for i in ids]``, bit for bit, each id charged and
        evaluated once. Each id is probed afresh against this node's factor,
        and the probes are the node's batch, in place of any it held."""
        counter = self.counter
        counter.calls += len(ids)
        counter.evaluations += len(ids)
        batch = self._batch = {}
        gains: list[float] = []
        for i in ids:
            probe = batch[i] = self._probe(i, [])
            d = probe[1]
            gains.append(0.5 * math.log(d) if d > DEGENERATE_PIVOT else 0.0)
        return gains

    def child(self, item_id: int) -> "CholState":
        """The node with the item appended to ``ids``; on a collapsed pivot it
        is added to ``skipped_ids`` too, and the factor is kept.

        If the node's own batch holds a probe of the item, the batch moves on
        to the child, new or from the memo, without that probe. A new child
        grows its row from the gain memo's probe of the item, and takes its
        value step from the memo's gain, or else from the batch's probe,
        resumed to this factor's length if it falls short.
        """
        kept = batch = self._batch
        if batch is not None:
            kept = batch.pop(item_id, None)
            if kept is None:
                batch = None
            else:
                self._batch = None
        memo = self._child
        if memo is not None and memo[0] == item_id:
            if batch is not None:
                memo[1]._batch = batch
            return memo[1]
        gained, step = self._gain, None
        if gained is not None and gained[0] == item_id:
            _, step, (w, d, _) = gained
        elif kept is not None:
            w, d, _ = self._probe(item_id, kept[0], kept[2]) if len(kept[0]) < len(self._factor) else kept
        else:
            w, d, _ = self._probe(item_id)
        node = object.__new__(CholState)
        node._kernel, node.counter, node._gain, node._child, node._batch = self._kernel, self.counter, None, None, batch
        node.ids = self.ids + [item_id]
        if d <= DEGENERATE_PIVOT:
            node.value, node.skipped_ids = self.value, self.skipped_ids + [item_id]
            node._factor = self._factor
        else:
            node.value, node.skipped_ids = self.value + (0.5 * math.log(d) if step is None else step), self.skipped_ids
            node._factor = self._factor + [(item_id, w + [math.sqrt(d)])]
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

    def __init__(self, masks: dict[int, int], ids: list[int], mask: int, value: float, counter):
        self._masks = masks
        self.ids = ids
        self.mask = mask
        self.value = value
        self.counter = counter
        self._gain: tuple[int, float] | None = None
        self._child: tuple[int, CoverageUnion] | None = None

    def gain(self, item_id: int) -> float:
        counter = self.counter
        counter.calls += 1
        memo = self._gain
        if memo is not None and memo[0] == item_id:
            return memo[1]
        mask = self._masks.get(item_id)
        if mask is None:
            raise ValueError(f"unknown item id {item_id}")
        gain = float((mask & ~self.mask).bit_count())
        self._gain = (item_id, gain)
        counter.evaluations += 1
        return gain

    def gains(self, ids: Sequence[int]) -> list[float]:
        """``[self.gain(i) for i in ids]``, each id charged and evaluated once,
        in one pass over the masks that neither reads nor sets the memo."""
        counter = self.counter
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


class CoverageOracle(SubmodularOracle):
    """Union-size objective over a set-stream store's ``coverage_masks``,
    whatever the universe ids; its bound is the store's largest set size,
    0 for an empty store."""

    def __init__(self, store):
        self._masks = store.coverage_masks  # a dense store raises ValueError
        super().__init__(float(store.max_set_size))

    def _fresh_root(self) -> CoverageUnion:
        return CoverageUnion(self._masks, [], 0, 0.0, self)


class IVMOracle(SubmodularOracle):
    """Log-det objective over a dense-vector store's float rows
    (``vector_rows``; a set store raises ValueError). Its bound is
    ``0.5 * log(1 + K(x, x)/sigma**2)`` with ``K(x, x) = 1``: every point
    scores the same alone under the squared exponential kernel."""

    def __init__(self, store, params: KernelParams):
        self._rows = store.vector_rows
        self.params = params
        super().__init__(0.5 * math.log1p(1.0 / params.sigma**2))

    def _fresh_root(self) -> CholState:
        return CholState(self._rows, self.params, self)
