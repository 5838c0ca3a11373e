"""Monotone submodular objectives: set coverage and kernel active-set log-det.

Coverage scores a collection of integer sets by the size of their union.
The active-set objective (informative vector machine, IVM) scores a set S
of vectors by ``0.5 * log det(I + K_S / sigma**2)`` under the squared
exponential kernel ``K(x, y) = exp(-||x - y||^2 / h**2)``. Natural log is
used throughout; the base only rescales utilities uniformly, but upper
bounds must be computed in the same base, so one is fixed globally.

Each objective hands out handles (see ``swmax.core``). A coverage handle is
the running union bitmask. A log-det handle is a Cholesky factor of
``I + K_S / sigma**2`` that grows one row per added element, so a marginal
gain costs one linear solve against the factor instead of a fresh
factorization. Factors are only ever extended; a buffer that shrinks
(expiry) is refactored from scratch by ``rebuild``, since downdating is
numerically risky and shrinks are rare relative to gain queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """Log-det handle: lower-triangular L with ``L @ L.T == I + K_S / sigma**2``.

    Members S are rows of ``points``, where item id ``t`` is row ``t - 1``.
    The stored value ``sum(log diag L)`` equals ``0.5 * log det`` of the
    factored matrix. Members enter in insertion order; a degenerate pivot
    (<= DEGENERATE_PIVOT) is recorded in ``skipped_ids`` and leaves the
    factor untouched so its invariant survives. ``add`` replaces the member
    matrix and the factor instead of writing into them, so copies share them.

    The algorithms add an item right after asking for its gain, so the last
    probe is kept until the factor changes and ``add`` of that item reuses it.
    Gains count into ``counter.calls`` while a counter is set.
    """

    def __init__(self, points: np.ndarray, params: KernelParams):
        self.points = points
        self.params = params
        self.counter = None
        self.ids: list[int] = []
        self.skipped_ids: list[int] = []
        self._X = points[:0]
        self._L = np.zeros((0, 0))
        self._logdiag: list[float] = []
        self._probed: tuple[int, tuple[np.ndarray, np.ndarray, float]] | None = None

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
        return self._L.copy()

    @classmethod
    def from_vectors(cls, points: np.ndarray, ids: Sequence[int], params: KernelParams) -> "CholState":
        """Factor I + K/sigma^2 for the members ``ids`` in one shot."""
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
        state._X = X
        state._L = L
        state._logdiag = [math.log(v) for v in diag]
        return state

    def _row(self, item_id: int) -> int:
        if not 1 <= item_id <= len(self.points):
            raise ValueError(f"unknown item id {item_id}")
        return item_id - 1

    def _probe(self, item_id: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Point x of ``item_id``, ``w`` solving ``L w = c``, and the pivot ``d``.

        ``c_j = K(x, s_j) / sigma^2`` and ``d = 1 + K(x, x)/sigma^2 - w.w``
        is the Schur complement, where ``K(x, x) = 1`` for this kernel.
        """
        x = self.points[self._row(item_id)]
        inv_s2 = self.params.sigma**-2
        if self.n:
            c = inv_s2 * np.exp(-np.sum((self._X - x) ** 2, axis=1) / self.params.h**2)
            w = np.linalg.solve(self._L, c)
        else:
            w = np.zeros(0)
        return x, w, 1.0 + inv_s2 - float(w @ w)

    def gain(self, item_id: int) -> float:
        """Marginal log-det gain ``0.5 * log d`` of adding the item; 0 for a collapsed pivot."""
        if self.counter is not None:
            self.counter.calls += 1
        probe = self._probe(item_id)
        self._probed = (item_id, probe)
        d = probe[2]
        return 0.5 * math.log(d) if d > DEGENERATE_PIVOT else 0.0

    def add(self, item_id: int) -> None:
        """Append the item to the factor, or to ``skipped_ids`` on a collapsed pivot."""
        probed, self._probed = self._probed, None
        x, w, d = probed[1] if probed is not None and probed[0] == item_id else self._probe(item_id)
        if d <= DEGENERATE_PIVOT:
            self.skipped_ids.append(item_id)
            return
        n = self.n
        root = math.sqrt(d)
        grown = np.zeros((n + 1, n + 1))
        grown[:n, :n] = self._L
        grown[n, :n] = w
        grown[n, n] = root
        self._L = grown
        self._X = np.vstack([self._X, x])
        self.ids.append(item_id)
        self._logdiag.append(math.log(root))

    def copy(self) -> "CholState":
        dup = CholState(self.points, self.params)
        dup.counter = self.counter
        dup.ids = list(self.ids)
        dup.skipped_ids = list(self.skipped_ids)
        dup._X = self._X
        dup._L = self._L
        dup._logdiag = list(self._logdiag)
        dup._probed = self._probed
        return dup


def ivm_value(X, params: KernelParams) -> float:
    """0.5 * log det(I + K/sigma^2) for the given points, freshly factorized."""
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        return 0.0
    return CholState.from_vectors(X, range(1, X.shape[0] + 1), params).value


class CoverageUnion:
    """Coverage handle: the union bitmask of the members' sets."""

    __slots__ = ("_masks", "mask", "counter")

    def __init__(self, masks: dict[int, int], mask: int = 0, counter=None):
        self._masks = masks
        self.mask = mask
        self.counter = counter

    def gain(self, item_id: int) -> float:
        if self.counter is not None:
            self.counter.calls += 1
        mask = self._masks.get(item_id)
        if mask is None:
            raise ValueError(f"unknown item id {item_id}")
        return float((mask & ~self.mask).bit_count())

    def add(self, item_id: int) -> None:
        mask = self._masks.get(item_id)
        if mask is None:
            raise ValueError(f"unknown item id {item_id}")
        self.mask |= mask

    def copy(self) -> "CoverageUnion":
        return CoverageUnion(self._masks, self.mask, self.counter)


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
        for t in range(1, len(store) + 1):
            m = 0
            for el in store.payload(t):
                b = bit_of.setdefault(el, len(bit_of))
                m |= 1 << b
            masks[t] = m
        self._masks = masks

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
        return CoverageUnion(self._masks)

    def rebuild(self, ids: Sequence[int]) -> tuple[CoverageUnion, float]:
        union = self._union(ids)
        return CoverageUnion(self._masks, union), float(union.bit_count())

    def eval(self, ids: Sequence[int]) -> float:
        return float(self._union(ids).bit_count())


class IVMOracle:
    """Log-det objective over a dense-vector store; handles are ``CholState`` factors."""

    def __init__(self, store, params: KernelParams):
        if store.kind != "dense":
            raise ValueError(f"log-det objective needs dense vectors, got {store.kind!r}")
        self.params = params
        self._points = store.vectors
        # The last set evaluated and its value: the harness re-scores, and
        # the random baseline re-evaluates, an unchanged set after most
        # arrivals, and a fresh factorization costs far more than the query.
        self._last_eval: tuple[tuple[int, ...], float] = ((), 0.0)

    def empty(self) -> CholState:
        return CholState(self._points, self.params)

    def rebuild(self, ids: Sequence[int]) -> tuple[CholState, float]:
        state = CholState.from_vectors(self._points, ids, self.params)
        return state, state.value

    def eval(self, ids: Sequence[int]) -> float:
        key = tuple(ids)
        if key != self._last_eval[0]:
            self._last_eval = (key, self.rebuild(key)[1])
        return self._last_eval[1]


def estimate_upper_bound(objective: str, store, k: int, params: KernelParams | None = None) -> float:
    """Prescanned upper bound on the best utility of any set of size <= k.

    Coverage: ``k * max |S_i|`` (no k sets can cover more). Log-det: by
    Hadamard's inequality ``det(A) <= prod A_ii`` for positive-definite A,
    so ``f(S) <= (k/2) * log(1 + K_max/sigma^2)`` with ``K_max = 1`` for the
    squared exponential kernel. Both are clamped below at 1.
    """
    if len(store) == 0:
        raise ValueError("cannot estimate a bound for an empty dataset")
    if k < 1:
        raise ValueError(f"cardinality bound must be >= 1, got {k}")
    if objective == "coverage":
        biggest = max(len(store.payload(t)) for t in range(1, len(store) + 1))
        return max(1.0, float(k * biggest))
    if objective == "ivm":
        params = params or KernelParams()
        k_max = 1.0  # SE kernel: K(x, x) = exp(0)
        return max(1.0, 0.5 * k * math.log1p(k_max / params.sigma**2))
    raise ValueError(f"unknown objective {objective!r}")
