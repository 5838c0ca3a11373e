"""Monotone submodular objectives: set coverage and kernel active-set log-det.

Coverage scores a collection of integer sets by the size of their union.
The active-set objective (informative vector machine, IVM) scores a set S
of vectors by ``0.5 * log det(I + K_S / sigma**2)`` under the squared
exponential kernel ``K(x, y) = exp(-||x - y||^2 / h**2)``. Natural log is
used throughout; the base only rescales utilities uniformly, but
``max_singleton``, which sets the threshold grids, must be computed in the
same base, so one is fixed globally.

Each objective hands out handles (see ``swmax.core``): immutable trie
nodes, one per member set, all grown from the one root that ``empty()``
returns. A coverage node is the union bitmask of its members. A log-det
node is a Cholesky factor of ``I + K_S / sigma**2`` in Python floats; its
children grow it by one row, so a marginal gain costs one kernel row and one
forward substitution against the factor instead of a fresh factorization,
and each node computes the gain of an arrival once however many buffers
hold it. Factors are only ever extended; a buffer that shrinks (expiry)
gets a fresh root from ``rebuild``, factored from scratch with numpy, since
downdating is numerically risky and shrinks are rare relative to gain
queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Sequence

import numpy as np

# Schur complements of I + K/sigma^2 are >= 1 in exact arithmetic; a pivot
# at or below this threshold means rounding has destroyed the factor.
DEGENERATE_PIVOT = 1e-12


class NumericDegeneracyError(RuntimeError):
    """A Cholesky pivot collapsed; the kernel matrix is numerically singular."""


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


def coverage_value(payloads: Iterable[Iterable[int]]) -> int:
    """Size of the union of the given element sets."""
    union: set[int] = set()
    for p in payloads:
        union.update(p)
    return len(union)


def se_kernel(x, y, params: KernelParams) -> float:
    """exp(-||x - y||^2 / h^2); symmetric, in (0, 1], and 1 iff x == y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    d2 = float(np.sum((x - y) ** 2))
    return math.exp(-d2 / params.h**2)


class CholState:
    """Log-det handle: one immutable trie node with lower-triangular L,
    ``L @ L.T == I + K_S / sigma**2`` for its member set S.

    Members are rows of ``points``, where item id ``t`` is row ``t - 1``.
    The value ``sum(log diag L)`` equals ``0.5 * log det`` of the factored
    matrix. Members enter in insertion order; a degenerate pivot
    (<= DEGENERATE_PIVOT) is recorded in ``skipped_ids`` and the factor is
    kept as it was, so its invariant survives.

    The factor is kept as Python lists of floats, row ``i`` being
    ``[L_i0, ..., L_ii]``, next to the members' points, also as lists: on
    factors of a few rows a numpy call costs more in overhead than the
    arithmetic it does. Only an arrival's point is converted, when it is
    probed.

    A node's set and factor never change, only its two memo slots do.
    ``child(id)`` returns the node for S + [id], whose factor is this one
    grown by one row; rows and lists are shared between nodes, never
    written in place. The node keeps its last gain with the probe behind
    it, so a repeated gain is a memo hit and a child of the same item grows
    from that probe, and its last child, so a repeated ``child`` returns
    the same object. Gains count into ``counter.calls`` while a counter is
    set, memo hits included; only misses count into ``counter.evaluations``.
    Children inherit the counter.
    """

    def __init__(self, points: np.ndarray, params: KernelParams):
        self.points = points
        self.params = params
        self.counter = None
        self.ids: list[int] = []
        self.skipped_ids: list[int] = []
        self._members: list[list[float]] = []
        self._rows: list[list[float]] = []
        self._logdiag: list[float] = []
        self._gain: tuple[int, float, tuple[list[float], list[float], float]] | None = None
        self._child: tuple[int, CholState] | None = None

    @property
    def n(self) -> int:
        """Order of the factor (degenerate members excluded)."""
        return len(self.ids)

    @property
    def value(self) -> float:
        """0.5 * log det(I + K_S / sigma**2)."""
        return math.fsum(self._logdiag)

    @property
    def L(self) -> np.ndarray:
        """The factor as a new ``n x n`` array."""
        L = np.zeros((self.n, self.n))
        for i, row in enumerate(self._rows):
            L[i, : i + 1] = row
        return L

    @classmethod
    def from_vectors(cls, points: np.ndarray, ids: Sequence[int], params: KernelParams) -> "CholState":
        """A fresh root node: I + K/sigma^2 for the members ``ids``, factored in one shot."""
        state = cls(points, params)
        if not len(ids):
            return state
        X = points[[state._row(i) for i in ids]]
        diff = X[:, None, :] - X[None, :, :]
        K = np.exp(-np.sum(diff**2, axis=2) / params.h**2)
        A = np.eye(len(ids)) + K / params.sigma**2
        try:
            L = np.linalg.cholesky(A)
        except np.linalg.LinAlgError as exc:
            raise NumericDegeneracyError(f"factorization failed: {exc}") from exc
        diag = L.diagonal().tolist()
        if min(diag) ** 2 <= DEGENERATE_PIVOT:
            raise NumericDegeneracyError("factorization pivot collapsed")
        state.ids = list(ids)
        state._members = X.tolist()
        state._rows = [row[: i + 1] for i, row in enumerate(L.tolist())]
        state._logdiag = [math.log(v) for v in diag]
        return state

    def _row(self, item_id: int) -> int:
        if not 1 <= item_id <= len(self.points):
            raise ValueError(f"unknown item id {item_id}")
        return item_id - 1

    def _probe(self, item_id: int) -> tuple[list[float], list[float], float]:
        """Point x of ``item_id``, ``w`` solving ``L w = c``, and the pivot ``d``.

        ``c_j = K(x, s_j) / sigma^2`` and ``d = 1 + K(x, x)/sigma^2 - w.w``
        is the Schur complement, where ``K(x, x) = 1`` for this kernel.
        ``w`` comes by forward substitution, one kernel entry and one
        ``w_i = (c_i - sum_j L_ij w_j) / L_ii`` per member.
        """
        x = self.points[self._row(item_id)].tolist()
        inv_s2 = self.params.sigma**-2
        h2 = self.params.h**2
        w: list[float] = []
        for s, row in zip(self._members, self._rows):
            c = inv_s2 * math.exp(-math.dist(s, x) ** 2 / h2)
            w.append((c - sum(map(mul, row, w))) / row[-1])
        return x, w, 1.0 + inv_s2 - sum(map(mul, w, w))

    def gain(self, item_id: int) -> float:
        """Marginal log-det gain ``0.5 * log d`` of adding the item; 0 for a collapsed pivot."""
        counter = self.counter
        if counter is not None:
            counter.calls += 1
        memo = self._gain
        if memo is not None and memo[0] == item_id:
            return memo[1]
        probe = self._probe(item_id)
        d = probe[2]
        gain = 0.5 * math.log(d) if d > DEGENERATE_PIVOT else 0.0
        self._gain = (item_id, gain, probe)
        if counter is not None:
            counter.evaluations += 1
        return gain

    def child(self, item_id: int) -> "CholState":
        """The node with the item appended, or added to ``skipped_ids`` on a collapsed pivot."""
        memo = self._child
        if memo is not None and memo[0] == item_id:
            return memo[1]
        gained = self._gain
        x, w, d = gained[2] if gained is not None and gained[0] == item_id else self._probe(item_id)
        node = CholState(self.points, self.params)
        node.counter = self.counter
        if d <= DEGENERATE_PIVOT:
            node.ids, node._members, node._rows, node._logdiag = self.ids, self._members, self._rows, self._logdiag
            node.skipped_ids = self.skipped_ids + [item_id]
        else:
            root = math.sqrt(d)
            node.ids = self.ids + [item_id]
            node.skipped_ids = self.skipped_ids
            node._members = self._members + [x]
            node._rows = self._rows + [w + [root]]
            node._logdiag = self._logdiag + [math.log(root)]
        self._child = (item_id, node)
        return node


def ivm_value(X, params: KernelParams) -> float:
    """0.5 * log det(I + K/sigma^2) for the given points, freshly factorized."""
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        return 0.0
    return CholState.from_vectors(X, range(1, X.shape[0] + 1), params).value


class CoverageUnion:
    """Coverage handle: an immutable node holding its members' union bitmask.

    It keeps the same two memo slots as ``CholState``: the last gain and the
    last child, each keyed by item id.
    """

    # ``__weakref__`` lets a test check that a node no buffer holds is freed.
    __slots__ = ("_masks", "mask", "counter", "_gain", "_child", "__weakref__")

    def __init__(self, masks: dict[int, int], mask: int = 0, counter=None):
        self._masks = masks
        self.mask = mask
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

    def child(self, item_id: int) -> "CoverageUnion":
        memo = self._child
        if memo is not None and memo[0] == item_id:
            return memo[1]
        mask = self._masks.get(item_id)
        if mask is None:
            raise ValueError(f"unknown item id {item_id}")
        node = CoverageUnion(self._masks, self.mask | mask, self.counter)
        self._child = (item_id, node)
        return node


class CoverageOracle:
    """Union-size objective over a set-stream store.

    Universe ids are arbitrary non-negative integers; they are remapped to
    bit positions once at construction so evaluation is an or/popcount.
    """

    def __init__(self, store):
        if store.kind != "sets":
            raise ValueError(f"coverage needs a set stream, got {store.kind!r}")
        bit_of: dict[int, int] = {}
        masks: dict[int, int] = {}
        biggest = 0
        for t in range(1, len(store) + 1):
            payload = store.payload(t)
            biggest = max(biggest, len(payload))
            m = 0
            for el in payload:
                b = bit_of.setdefault(el, len(bit_of))
                m |= 1 << b
            masks[t] = m
        self._masks = masks
        self._root = CoverageUnion(masks)
        self._max_singleton = float(biggest)

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

    def rebuild(self, ids: Sequence[int]) -> tuple[CoverageUnion, float]:
        union = self._union(ids)
        return CoverageUnion(self._masks, union), float(union.bit_count())

    def eval(self, ids: Sequence[int]) -> float:
        return float(self._union(ids).bit_count())

    def max_singleton(self) -> float:
        """Size of the largest set in the store; 0 for an empty store."""
        return self._max_singleton


class IVMOracle:
    """Log-det objective over a dense-vector store; handles are ``CholState`` nodes."""

    def __init__(self, store, params: KernelParams):
        if store.kind != "dense":
            raise ValueError(f"log-det objective needs dense vectors, got {store.kind!r}")
        self.params = params
        self._points = store.vectors
        self._root = CholState(self._points, params)
        # The last set evaluated and its value: the harness re-scores, and
        # the random baseline re-evaluates, an unchanged set after most
        # arrivals, and a fresh factorization costs far more than the query.
        self._last_eval: tuple[tuple[int, ...], float] = ((), 0.0)

    def empty(self) -> CholState:
        """The oracle's one root node, the same object on every call."""
        return self._root

    def rebuild(self, ids: Sequence[int]) -> tuple[CholState, float]:
        state = CholState.from_vectors(self._points, ids, self.params)
        return state, state.value

    def eval(self, ids: Sequence[int]) -> float:
        key = tuple(ids)
        if key != self._last_eval[0]:
            self._last_eval = (key, self.rebuild(key)[1])
        return self._last_eval[1]

    def max_singleton(self) -> float:
        """``0.5 * log(1 + K(x, x)/sigma**2)`` with ``K(x, x) = 1``: every
        point scores the same alone under the squared exponential kernel."""
        return 0.5 * math.log1p(1.0 / self.params.sigma**2)
