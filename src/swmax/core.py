"""Oracle primitives and parameter rules shared by all algorithms.

An algorithm is ``step(t)``, ``query()``, which returns the handle of its
answer, and ``retained_count()``, the item references it holds. An item id
is the timestep of its arrival, so ``step`` takes the integer timestep
itself, and refuses one that is not above the last (``next_timestep``);
timesteps start at 1 and may skip some. A window of size W ending at
``end`` covers timesteps ``max(1, end - W + 1) .. end``.

Objectives are accessed through an oracle: ``empty()`` returns the
oracle's root handle on the empty set, ``rebuild(ids)`` a handle on any
set grown from a fresh root, for buffers that shrank and to score a set
by its ``value``, and ``max_singleton()`` the largest value of any one
item. A monotone submodular objective is subadditive, so
``k * max_singleton()`` bounds the value of every set of at most k items;
that product is the upper end of every threshold grid.

A handle is an immutable trie node for one set, and all a buffer holds:
``ids`` lists the members in insertion order, and ``value`` is 0.0 at a
root and a parent's value plus the item's gain at a child. It is also an
answer: every algorithm's ``query()`` returns the handle of its solution,
so an answer's value is the one its algorithm computed, and the benchmark
records it without scoring the ids again. ``gain(id)`` is
the marginal gain of one more item, ``gains(ids)`` the gains of many items
in one batch, as lazy greedy scores its candidates in its first round (its
later rounds re-score one candidate at a time by ``gain``), and ``child(id)``
the node for the set plus that item, leaving the node itself unchanged. A
node remembers its last gain and its last child, so buffers with equal
contents grown from one root hold one node, compute the gain of an arrival
once and converge on one child. One slot of each is enough because every
buffer at a node asks about an arrival, and takes it, during that
arrival's step; a query that misses the memo only loses sharing, never
correctness. A node holds at most one child and no parent, so a node is
freed once no buffer holds it and its parent has made another child.

Every oracle counts its own calls, the cost metric every benchmark reports,
in ``calls`` and ``evaluations``: ``rebuild`` and ``gain`` cost one call
each (both shipped objectives compute a gain directly, not by two
evaluations), ``gains(ids)`` costs one call per id, as many ``gain`` calls
would, and a gain served from a node's memo is still charged, so the count
is the algorithm's logical one; ``empty`` and ``child`` are free, since a
node only records choices whose gains were already paid for.
``max_singleton`` is free too: the objective knows it from its
construction, or in closed form. ``evaluations`` counts the calls that did
compute: every ``rebuild``, each gain that missed its node's memo, and
every id of a batch. Handles charge their gains to the oracle that grew
them, through their ``counter``. A ``random`` query that keeps its last
sample (``PrioritySample``) is charged as a memo hit is: one call and no
evaluation.

A size (``k``, a window) must be an integer >= 1, ``epsilon`` must leave
a lattice base above 1 and ``sieve-greedy``'s sampling parameter must be
>= 0: ``positive_int``, ``lattice_base`` and ``non_negative`` are these
rules, for the algorithms and ``RunConfig`` alike.
"""

from __future__ import annotations

import math
import operator
from typing import Protocol, Sequence


class OracleHandle(Protocol):
    """Objective state of one fixed set of item ids: an immutable trie node.

    Each gain adds one to ``counter.calls``, and each gain not served from
    the node's memo also adds one to ``counter.evaluations``;
    ``gains(ids)`` adds ``len(ids)`` to both. ``counter`` is the oracle
    that grew the node's root, and children inherit it.
    """

    counter: SubmodularOracle
    ids: list[int]
    value: float

    def gain(self, item_id: int) -> float: ...

    def gains(self, ids: Sequence[int]) -> list[float]:
        """``[self.gain(i) for i in ids]``, bit for bit, one call per id."""
        ...

    def child(self, item_id: int) -> "OracleHandle": ...


class SubmodularOracle(Protocol):
    """Set-function access through handles: the shared root, or a set grown
    from a fresh one; ``max_singleton`` is the largest value of any one item.
    ``calls`` and ``evaluations`` count the oracle's own calls and its
    handles' gains (see the module docstring)."""

    calls: int
    evaluations: int

    def empty(self) -> OracleHandle: ...

    def rebuild(self, ids: Sequence[int]) -> OracleHandle: ...

    def max_singleton(self) -> float: ...


def next_timestep(last: int, t: int) -> int:
    """``t`` if it is above ``last``, the previous timestep or 0; else ``ValueError``."""
    if t <= last:
        raise ValueError(f"timestep {t} after {last}: timesteps start at 1 and increase")
    return t


def positive_int(value, name: str) -> int:
    """``value`` if it is an integer >= 1, read by ``operator.index``: a float
    or a str raises ``TypeError``, a numpy integer passes, and below 1 is a
    ``ValueError`` that names ``name``."""
    value = operator.index(value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def non_negative(value: float, name: str) -> float:
    """``value`` if it is >= 0; else, NaN included, a ``ValueError`` that
    names ``name``."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def lattice_base(epsilon: float, name: str = "epsilon") -> float:
    """``1 + epsilon``, the base of the threshold lattice; a ``ValueError``
    that names ``name`` if it is not finite and above 1."""
    base = 1.0 + epsilon
    if not 1.0 < base < math.inf:
        raise ValueError(f"{name} must be finite and positive with 1 + epsilon > 1, got {epsilon}")
    return base
