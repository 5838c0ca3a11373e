"""Dataset loading, normalization, and synthetic stream generation.

Two store kinds exist: ``dense`` (one real vector per timestep, from CSV)
and ``sets`` (one integer set per timestep, from a one-set-per-line text
file). Positions 1..n map to timesteps; stores are immutable after load.
"""

from __future__ import annotations

import csv
import math
import operator
from functools import cached_property, reduce
from itertools import chain
from typing import Iterable, Sequence

import numpy as np


class ParseError(ValueError):
    """Input file rejected; carries the 1-based offending line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class DatasetStore:
    """Immutable payload-per-timestep storage backing the oracles, and their encodings of it, each built once."""

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
            self._sets = tuple([tuple(sorted(set(map(operator.index, s)))) for s in sets])
            self._vectors = None
        else:
            raise ValueError(f"unknown store kind {kind!r}")
        self.kind = kind

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

        Elements pass through ``operator.index`` when the store is built,
        so a float or a string raises ``TypeError`` there.
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
        return {t: reduce(operator.or_, map(bit.__getitem__, s), 0) for t, s in enumerate(self.sets, start=1)}


def load_dense_csv(path, delimiter: str = ",", drop_columns: Sequence[int] = ()) -> DatasetStore:
    """One CSV row -> one vector, in file order.

    A header row is skipped automatically when any of its fields is
    non-numeric. ``drop_columns`` removes 0-based column indices (label
    columns, typically) before storing; a kept ``nan`` or ``inf`` is an error.
    """
    rows: dict[int, list[float]] = {}  # by line number
    drop = set(drop_columns)
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        width = None
        for line_no, row in enumerate(reader, start=1):
            if not row:
                continue
            try:
                values = [float(field) for field in row]
            except ValueError:
                if line_no == 1:
                    continue  # header
                raise ParseError(path, line_no, f"non-numeric field in {row!r}") from None
            if width is None:
                width = len(values)
                for i in drop:
                    if not 0 <= i < width:
                        raise ValueError(f"drop column {i} outside 0..{width - 1}")
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

    Empty lines are empty sets. A rejected line's error names its first bad
    token in line order. The store sorts each set and drops duplicates.
    """
    payloads: list[list[int]] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                values = list(map(int, line.split()))
            except ValueError:
                values = None
            if values is None or min(values, default=0) < 0:
                # Rejected: this pass raises, naming the first bad token.
                for token in line.split():
                    try:
                        value = int(token)
                    except ValueError:
                        raise ParseError(path, line_no, f"non-integer token {token!r}") from None
                    if value < 0:
                        raise ParseError(path, line_no, f"negative element {value}")
            payloads.append(values)
    return DatasetStore("sets", sets=payloads)


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
    if min(n, d, n_clusters, drift_period) < 1:
        raise ValueError("n, d, n_clusters, and drift_period must all be >= 1")
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
    """Independent uniform subsets of [0, universe) with expected size ``mean_size``."""
    if n < 1 or universe < 1:
        raise ValueError("n and universe must be >= 1")
    if not 0 < mean_size <= universe:
        raise ValueError(f"mean size must be in (0, {universe}], got {mean_size}")
    rng = np.random.default_rng(seed)
    p = mean_size / universe
    payloads = []
    for _ in range(n):
        mask = rng.random(universe) < p
        payloads.append(np.flatnonzero(mask).tolist())
    return DatasetStore("sets", sets=payloads)
