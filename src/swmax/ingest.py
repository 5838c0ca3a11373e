"""Dataset loading, normalization, and synthetic stream generation.

Two store kinds exist: ``dense`` (one real vector per timestep, from CSV)
and ``sets`` (one integer set per timestep, from a one-set-per-line text
file). Positions 1..n map to timesteps; stores are immutable after load.
"""

from __future__ import annotations

import csv
import math
import operator
from functools import cached_property
from itertools import chain, islice
from typing import Iterable, Sequence

import numpy as np

from .core import positive_int


class ParseError(ValueError):
    """Input file rejected; carries the 1-based offending line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def _canonical(values: list[int]) -> tuple[int, ...]:
    """A sorted list of ints as its canonical set: the tuple of its distinct elements.

    A list with no repeated element, the common case, becomes the tuple as
    it is; only a list that repeats one pays for de-duplication.
    """
    if all(map(operator.lt, values, islice(values, 1, None))):
        return tuple(values)
    return tuple(dict.fromkeys(values))


class DatasetStore:
    """Immutable payload-per-timestep storage backing the oracles, and their encodings of it, each built once.

    A set store holds each set canonical: a strictly increasing tuple of
    ``int``s. The constructor sorts and de-duplicates any payloads, each
    element through ``operator.index``; ``load_set_stream`` and
    ``gen_set_stream`` build canonical sets themselves and hand them over
    as they are.
    """

    def __init__(self, kind: str, vectors: np.ndarray | None = None, sets: Sequence[Iterable[int]] | None = None):
        if kind == "dense":
            if vectors is None:
                raise ValueError("dense store needs a vector matrix")
            self._vectors = np.asarray(vectors, dtype=float)
            if self._vectors.ndim != 2:
                raise ValueError(f"expected an (n, d) matrix, got shape {self._vectors.shape}")
            if not np.all(np.isfinite(self._vectors)):
                raise ValueError("dense store entries must be finite")
            self._vectors.setflags(write=False)
            self._sets = None
        elif kind == "sets":
            if sets is None:
                raise ValueError("set store needs a payload list")
            self._sets = tuple([_canonical(sorted(map(operator.index, s))) for s in sets])
            self._vectors = None
        else:
            raise ValueError(f"unknown store kind {kind!r}")
        self.kind = kind

    @classmethod
    def _from_canonical(cls, sets: list[tuple[int, ...]]) -> DatasetStore:
        """A set store over ``sets``, each already canonical, taken as they are."""
        store = object.__new__(cls)
        store.kind = "sets"
        store._sets = tuple(sets)
        store._vectors = None
        return store

    def __len__(self) -> int:
        if self.kind == "dense":
            return self._vectors.shape[0]
        return len(self._sets)

    @property
    def vectors(self) -> np.ndarray:
        if self.kind != "dense":
            raise ValueError("set stores have no vector matrix")
        return self._vectors

    @property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        """Timestep ``t``'s set at index ``t - 1``, sorted and distinct.

        The constructor passes each element through ``operator.index``, so
        a float or a string raises ``TypeError`` there.
        """
        if self.kind != "sets":
            raise ValueError("dense stores have no set list")
        return self._sets

    @cached_property
    def vector_rows(self) -> list[list[float]]:
        """Timestep ``t``'s vector as a list of Python floats at index ``t - 1``; built once, on first access."""
        return self.vectors.tolist()

    @cached_property
    def max_set_size(self) -> int:
        """Size of the largest set, 0 for an empty store; computed once, on first access."""
        return max(map(len, self.sets), default=0)

    @cached_property
    def coverage_masks(self) -> dict[int, int]:
        """Timestep ``t``'s set as a bitmask, bits in first-seen order; built once, on first access."""
        bit = {el: 1 << b for b, el in enumerate(dict.fromkeys(chain.from_iterable(self.sets)))}
        # A set's elements are distinct, so their bits are too, and their sum is their union.
        return {t: sum(map(bit.__getitem__, s)) for t, s in enumerate(self.sets, start=1)}


def load_dense_csv(path, delimiter: str = ",", drop_columns: Sequence[int] = ()) -> DatasetStore:
    """One CSV row -> one vector, in file order.

    The first non-empty row is skipped as a header when any of its fields
    is non-numeric. A ``ParseError`` names the line on which the bad row
    ends, as ``csv.reader`` counts lines, so a quoted field that spans lines
    does not shift later line numbers. ``drop_columns`` removes 0-based
    column indices (label columns, typically), each read by ``operator.index``,
    before storing, and must keep at least one; a kept ``nan`` or ``inf`` is
    an error. A leading UTF-8 byte-order mark is not part of the first field.
    """
    rows: dict[int, list[float]] = {}  # by line number
    drop = set(map(operator.index, drop_columns))
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        width = None
        header = True  # the first non-empty row may be a header
        for row in reader:
            if not row:
                continue
            line_no = reader.line_num
            try:
                values = [float(field) for field in row]
            except ValueError:
                if header:
                    header = False
                    continue
                raise ParseError(path, line_no, f"non-numeric field in {row!r}") from None
            header = False
            if width is None:
                width = len(values)
                for i in drop:
                    if not 0 <= i < width:
                        raise ValueError(f"drop column {i} outside 0..{width - 1}")
                if len(drop) == width:
                    raise ValueError(f"drop columns {sorted(drop)} leave none of the {width} columns")
            elif len(values) != width:
                raise ParseError(
                    path, line_no, f"expected {width} columns, got {len(values)}"
                )
            if drop:
                values = [v for i, v in enumerate(values) if i not in drop]
            rows[line_no] = values
    matrix = np.asarray(list(rows.values()), dtype=float) if rows else np.zeros((0, 0))
    if not np.isfinite(matrix).all():
        line_no = next(n for n, values in rows.items() if not all(map(math.isfinite, values)))
        raise ParseError(path, line_no, f"non-finite field in {rows[line_no]!r}")
    return DatasetStore("dense", vectors=matrix)


def normalize_columns_then_rows(store: DatasetStore) -> DatasetStore:
    """Min-max each column to [0, 1], then scale each row to unit L2 norm.

    Constant columns map to 0; zero rows are left unchanged. Applying the
    transform twice is the identity up to rounding.
    """
    if store.kind != "dense":
        raise ValueError("normalization applies to dense stores only")
    X = store.vectors.copy()
    if X.size:
        lo = X.min(axis=0)
        hi = X.max(axis=0)
        span = hi - lo
        constant = span == 0
        span[constant] = 1.0
        X = (X - lo) / span
        X[:, constant] = 0.0
        norms = np.linalg.norm(X, axis=1)
        nonzero = norms > 0
        X[nonzero] /= norms[nonzero, None]
    return DatasetStore("dense", vectors=X)


def load_set_stream(path) -> DatasetStore:
    """One line of whitespace-separated non-negative integers -> one set.

    Empty lines are empty sets, and a leading UTF-8 byte-order mark is
    skipped. A rejected line's error names its first bad token in line
    order. Each line is parsed and sorted in one pass, and kept as the tuple
    of its distinct elements, which the store takes as it is.
    """
    payloads: list[tuple[int, ...]] = []
    with open(path, encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                values = sorted(map(int, line.split()))
            except ValueError:
                values = None
            if values is None or values and values[0] < 0:
                # Rejected: this pass raises, naming the first bad token.
                for token in line.split():
                    try:
                        value = int(token)
                    except ValueError:
                        raise ParseError(path, line_no, f"non-integer token {token!r}") from None
                    if value < 0:
                        raise ParseError(path, line_no, f"negative element {value}")
            payloads.append(_canonical(values))
    return DatasetStore._from_canonical(payloads)


def gen_drift_vectors(
    n: int,
    d: int,
    n_clusters: int,
    drift_period: int,
    seed: int,
    spread: float = 0.05,
) -> DatasetStore:
    """Gaussian-mixture vectors whose dominant cluster rotates over time.

    Cluster centers are drawn once; during phase ``p = (t-1) // drift_period``
    each item comes from cluster ``p mod n_clusters`` with probability 0.75
    (otherwise a uniformly random other cluster), plus isotropic noise of
    scale ``spread``. Rotation makes the windowed distribution shift at
    every phase boundary while a single-cluster stream stays stationary.
    """
    n, d = positive_int(n, "n"), positive_int(d, "d")
    n_clusters = positive_int(n_clusters, "n_clusters")
    drift_period = positive_int(drift_period, "drift_period")
    if spread < 0:
        raise ValueError(f"spread must be >= 0, got {spread}")
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, size=(n_clusters, d))
    rows = np.empty((n, d))
    for t in range(1, n + 1):
        dominant = ((t - 1) // drift_period) % n_clusters
        cluster = dominant
        if n_clusters > 1 and rng.random() >= 0.75:
            other = int(rng.integers(n_clusters - 1))
            cluster = other if other < dominant else other + 1
        rows[t - 1] = centers[cluster] + spread * rng.normal(size=d)
    return DatasetStore("dense", vectors=rows)


def gen_set_stream(n: int, universe: int, mean_size: float, seed: int) -> DatasetStore:
    """Independent uniform subsets of [0, universe) with expected size ``mean_size``.

    Each set is the increasing indices of its members, so the store takes it as it is.
    """
    n, universe = positive_int(n, "n"), positive_int(universe, "universe")
    if not 0 < mean_size <= universe:
        raise ValueError(f"mean size must be in (0, {universe}], got {mean_size}")
    rng = np.random.default_rng(seed)
    p = mean_size / universe
    payloads = []
    for _ in range(n):
        mask = rng.random(universe) < p
        payloads.append(tuple(np.flatnonzero(mask).tolist()))
    return DatasetStore._from_canonical(payloads)
