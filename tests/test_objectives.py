import gc
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import solve_triangular

from swmax.ingest import gen_set_stream
from swmax.objectives import (
    DEGENERATE_PIVOT,
    CholState,
    CoverageOracle,
    IVMOracle,
    KernelParams,
)
from swmax.sliding import sieve_reduction
from swmax.streaming import SieveStream, greedy_select

from conftest import (
    Tally,
    UnionRecount,
    factor_ids,
    factor_matrix,
    fresh_factor,
    ivm_value,
    node_state,
    se_kernel,
    set_store,
    vec_store,
)
from reference import brute_force_opt, coverage_value, payload, runs, thresholds

PARAMS = KernelParams(h=0.75, sigma=1.0)


def _grow_with_batches(oracle, reference, steps):
    """Grow a node from a fresh root of ``oracle`` by ``steps``, each
    ``(item, ids)``. The node first scores ``ids`` in one ``gains`` call
    (none if empty), which must charge one call per id and equal the single
    gains of the node ``reference`` grows by ``child`` alone, bit for bit.
    A log-det batch then holds the probes just scored, each against all of
    the node's factor, and after a ``child`` hand-off each held probe is
    against a prefix of it. Every grown node must hold what that node
    holds, and a batch that holds the item must move to the child without
    that item's probe."""
    node, plain = oracle.rebuild(()), reference.empty()
    for item, ids in steps:
        if ids:
            before = oracle.calls
            got = node.gains(ids)
            assert oracle.calls == before + len(ids)
            assert got == [plain.gain(i) for i in ids]
            if hasattr(node, "_batch"):
                assert set(node._batch) == set(ids)
                assert all(len(node._batch[i][0]) == len(node._factor) for i in ids)
                assert all(len(w) <= len(node._factor) for w, _ in node._batch.values())
        batch = getattr(node, "_batch", None)
        moves = batch is not None and item in batch
        parent, node, plain = node, node.child(item), plain.child(item)
        assert node_state(node) == node_state(plain)
        if moves:
            assert parent._batch is None and node._batch is batch and item not in batch


def _batch_step(ids, n):
    """Strategies for one step of ``_grow_with_batches`` on candidates
    ``ids`` of a store of ``n`` items: the item taken, often a candidate,
    and the ids scored first: all candidates, as greedy's first round
    scores them, a few, or none."""
    if not ids:
        return st.integers(1, n), st.just([])
    return st.sampled_from(ids) | st.integers(1, n), st.just(ids) | st.lists(st.sampled_from(ids), max_size=3)


def _grown(oracle, ids):
    """The node of ``oracle`` grown from its root by ``ids`` in order."""
    handle = oracle.empty()
    for i in ids:
        handle = handle.child(i)
    return handle


class TestCoverage:
    def test_empty_union(self):
        assert coverage_value([]) == 0

    def test_overlapping_pair(self):
        assert coverage_value([{1, 2}, {2, 3}]) == 3

    def test_oracle_matches_set_recount(self):
        rng = random.Random(11)
        payloads = [
            tuple(rng.sample(range(100), rng.randint(0, 12))) for _ in range(50)
        ]
        store = set_store(*payloads)
        fast = CoverageOracle(store)
        slow = UnionRecount(store)
        for _ in range(300):
            ids = rng.sample(range(1, 51), rng.randint(0, 5))
            assert fast.eval(ids) == slow.eval(ids)
            if ids:
                extra = rng.randint(1, 50)
                if extra not in ids:
                    handle = fast.rebuild(ids)
                    assert handle.gain(extra) == slow.marginal(extra, ids)

    def test_sparse_universe_ids(self):
        store = set_store((10**9, 7), (7, 42))
        oracle = CoverageOracle(store)
        assert oracle.eval([1, 2]) == 3.0


class TestSeKernel:
    def test_identical_points(self):
        x = np.array([0.3, -1.2, 4.0])
        assert se_kernel(x, x, PARAMS) == 1.0

    def test_unit_exponent(self):
        h = 0.75
        x = np.zeros(2)
        y = np.array([h, 0.0])  # ||x-y||^2 == h^2
        assert se_kernel(x, y, KernelParams(h=h)) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x, y = rng.normal(size=4), rng.normal(size=4)
            kxy = se_kernel(x, y, PARAMS)
            assert kxy == se_kernel(y, x, PARAMS)
            assert 0.0 < kxy <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            se_kernel(np.zeros(2), np.zeros(3), PARAMS)


@pytest.mark.parametrize(
    "h,sigma",
    [(0.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (1e-200, 1.0), (1e200, 1.0),
     (0.75, -1.0), (0.75, math.nan), (0.75, math.inf), (0.75, 1e-200), (0.75, 1e200)],
)
def test_kernel_params_refuse_what_the_objective_cannot_use(h, sigma):
    # h**2 or sigma**2 underflowing to 0 divides by zero in the run, and
    # sigma**-2 or sigma**2 overflowing raises in the middle of it
    with pytest.raises(ValueError):
        KernelParams(h, sigma)
    KernelParams(1e-150, 1e-150)  # every power still a positive finite float


class TestIvmValue:
    def test_empty(self):
        assert ivm_value(np.zeros((0, 3)), PARAMS) == 0.0

    def test_single_point(self):
        value = ivm_value(np.array([[0.1, 0.9]]), PARAMS)
        assert value == pytest.approx(0.5 * math.log(2), abs=1e-12)

    def test_duplicate_points(self):
        x = np.array([[0.1, 0.9], [0.1, 0.9]])
        assert ivm_value(x, PARAMS) == pytest.approx(0.5 * math.log(3), abs=1e-12)


class TestIvmMarginal:
    def test_empty_base(self):
        state = CholState([[0.4, 0.4]], PARAMS, Tally())
        gain = state.gain(1)
        assert gain == pytest.approx(0.5 * math.log(2), abs=1e-12)

    def test_duplicate_of_single_member(self):
        x = np.array([[0.2, 0.5], [0.2, 0.5]])
        state = IVMOracle(vec_store(x), PARAMS).rebuild([1])
        gain = state.gain(2)
        assert gain == pytest.approx(0.5 * math.log(1.5), abs=1e-12)
        state = state.child(2)
        assert state.ids == [1, 2] and not state.skipped_ids
        # consistent with the from-scratch difference
        assert gain == pytest.approx(ivm_value(x, PARAMS) - ivm_value(x[:1], PARAMS), abs=1e-9)

    def test_matches_eval_difference(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            base = rng.normal(size=(rng.integers(0, 8), 5))
            points = np.vstack([base, rng.normal(size=(1, 5))])
            state = IVMOracle(vec_store(points), PARAMS).rebuild(range(1, len(base) + 1))
            gain = state.gain(len(points))
            fresh = ivm_value(points, PARAMS) - ivm_value(base, PARAMS)
            assert gain == pytest.approx(fresh, abs=1e-9)
            assert gain >= -1e-9


class TestCholState:
    def test_extend_from_empty(self):
        state = CholState([[0.5]], PARAMS, Tally())
        state = state.child(1)
        assert len(state._factor) == 1
        assert factor_matrix(state)[0, 0] == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_sequential_extensions_match_fresh_factorization(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 5))
        state = CholState(X.tolist(), PARAMS, Tally())
        for i in range(20):
            state = state.child(i + 1)
        fresh = fresh_factor(X, PARAMS)
        scale = max(1.0, np.linalg.norm(fresh))
        assert np.linalg.norm(factor_matrix(state) - fresh) / scale <= 1e-8
        assert state.value == pytest.approx(ivm_value(X, PARAMS), rel=1e-8, abs=1e-10)

    def test_factor_reconstructs_matrix(self):
        # L L^T == I + K/sigma^2 within 1e-8 relative Frobenius error,
        # with strictly positive diagonal
        rng = np.random.default_rng(6)
        X = rng.normal(size=(15, 3))
        state = CholState(X.tolist(), PARAMS, Tally())
        for i in range(15):
            state = state.child(i + 1)
        L = factor_matrix(state)
        assert np.all(np.diag(L) > 0)
        diff = X[:, None, :] - X[None, :, :]
        K = np.exp(-np.sum(diff**2, axis=2) / PARAMS.h**2)
        A = np.eye(15) + K / PARAMS.sigma**2
        assert np.linalg.norm(L @ L.T - A) / np.linalg.norm(A) <= 1e-8

    def test_incremental_value_tracks_fresh(self):
        rng = np.random.default_rng(9)
        for trial in range(30):
            X = rng.normal(size=(rng.integers(1, 31), 4))
            state = CholState(X.tolist(), PARAMS, Tally())
            total = 0.0
            for i in range(X.shape[0]):
                total += state.gain(i + 1)
                state = state.child(i + 1)
            fresh = ivm_value(X, PARAMS)
            assert abs(total - fresh) <= 1e-8 * max(1.0, abs(fresh))
            assert abs(state.value - fresh) <= 1e-8 * max(1.0, abs(fresh))

    def test_degenerate_extension_leaves_factor_intact(self):
        # With sigma this small, 1 + 1/sigma^2 rounds to 1/sigma^2 and the
        # Schur complement of a duplicate point collapses to zero.
        params = KernelParams(h=0.75, sigma=1e-9)
        points = np.array([[0.1, 0.2], [0.1, 0.2], [2.0, -1.0]])
        state = IVMOracle(vec_store(points), params).rebuild([1])
        before_value = state.value
        assert state.gain(2) == 0.0
        state = state.child(2)
        assert len(state._factor) == 1
        assert state.skipped_ids == [2]
        assert state.value == before_value
        # factor still usable afterwards
        assert state.gain(3) > 0


@st.composite
def edge_points(draw, min_log_sigma=-3.0):
    """Up to 30 points drawn from a small pool (so duplicates are common),
    some columns held constant, and ``sigma`` log-uniform in
    [10**min_log_sigma, 1e3]."""
    d = draw(st.integers(1, 4))
    coord = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=10))
    X = np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30)))
    constant = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    X[:, constant] = draw(coord)
    sigma = 10.0 ** draw(st.floats(min_log_sigma, 3.0))
    return X, KernelParams(h=0.75, sigma=sigma)


def _fresh(X, ids, params):
    """``fresh_factor`` of the members and their reference value, or None
    where it finds the matrix singular."""
    members = X[[i - 1 for i in ids]]
    L = fresh_factor(members, params)
    return None if L is None else (L, ivm_value(members, params))


def _logdet_tol(n, sigma):
    """How far two float factorizations of ``I + K/sigma**2`` (order n) may
    put its log-det apart: its condition number is at most 1 + n/sigma**2,
    and each may err by about roundoff (1.1e-16) times that, so 1e-15 per
    unit leaves a margin of about ten; never below 1e-9."""
    return 1e-9 + 1e-15 * n / sigma**2


# 15 copies of one point and 8 of another, at a small sigma: the matrix's
# condition number is about 1.6e7, and the grown and the fresh value differ
# by 1.04e-9. Its closed form is checked in ``test_two_point_closed_form``.
TWO_POINTS_PATTERN = "11100110001100111111110"
TWO_POINTS_A = 0.6016981491794418
TWO_POINTS = (
    np.array([[0.0, 0.0, 0.0, TWO_POINTS_A if c == "1" else 0.0] for c in TWO_POINTS_PATTERN]),
    KernelParams(h=0.75, sigma=0.0011807913250333254),
)


class TestNumericalEdges:
    """Handles grown one child at a time on duplicate points, constant
    columns and extreme ``sigma``, against fresh factorizations."""

    # A duplicate point with sigma this small collapses its pivot.
    COLLAPSE = (np.array([[0.1, 0.2], [0.1, 0.2], [2.0, -1.0], [0.1, 0.2]]), KernelParams(h=0.75, sigma=1e-9))

    @settings(max_examples=60, deadline=None)
    @given(case=edge_points())
    @example(case=COLLAPSE)
    @example(case=TWO_POINTS)
    def test_grown_handle_matches_fresh_factorization(self, case):
        X, params = case
        state = CholState(X.tolist(), params, Tally())
        for i in range(1, len(X) + 1):
            gain = state.gain(i)
            assert math.isfinite(gain)
            state = state.child(i)
            assert state.ids[-1] == i
            assert (i in state.skipped_ids) != (i in factor_ids(state))
            L = factor_matrix(state)
            assert np.all(np.isfinite(L)) and math.isfinite(state.value)
            assert np.all(np.diag(L) ** 2 > DEGENERATE_PIVOT)
            if i in state.skipped_ids:
                assert gain == 0.0
                continue
            fresh = _fresh(X, factor_ids(state), params)
            if fresh is None:
                continue
            ref, fresh_value = fresh
            assert np.linalg.norm(L - ref) <= 1e-8 * np.linalg.norm(ref)
            tol = _logdet_tol(len(state._factor), params.sigma)
            assert abs(state.value - fresh_value) <= tol
            before = _fresh(X, factor_ids(state)[:-1], params)
            if before is not None:
                assert abs(gain - (fresh_value - before[1])) <= tol

    @settings(max_examples=60, deadline=None)
    @given(case=edge_points(), data=st.data())
    def test_batch_gains_match_single_gains(self, case, data):
        X, params = case
        n = len(X)
        ids = data.draw(st.lists(st.integers(1, n), max_size=12))
        steps = data.draw(st.lists(st.tuples(*_batch_step(ids, n)), max_size=12))
        _grow_with_batches(IVMOracle(vec_store(X), params), IVMOracle(vec_store(X), params), steps)

    def test_batch_passes_through_a_skipped_pivot(self):
        # Point 2 repeats point 1 and collapses its pivot: the skipping child
        # keeps the factor, so it takes the batch as its own, and the child
        # it grows without a batch call of its own extends that batch.
        X, params = self.COLLAPSE
        oracle = IVMOracle(vec_store(X), params)
        first = oracle.empty().child(1)
        first.gains([2, 3, 4])
        batch = first._batch
        skipped = first.child(2)
        assert skipped.skipped_ids == [2] and skipped._batch is batch and first._batch is None
        grown = skipped.child(3)
        assert grown.ids == [1, 2, 3] and len(grown._factor) == 2 and grown._batch is batch and skipped._batch is None
        _grow_with_batches(oracle, IVMOracle(vec_store(X), params),
                           [(1, [2, 3, 4]), (2, [2, 3, 4]), (3, []), (4, [2, 3, 4])])

    @settings(max_examples=60, deadline=None)
    @given(case=edge_points(), data=st.data())
    @example(case=COLLAPSE, data=None)
    @example(case=TWO_POINTS, data=None)
    def test_rebuild_is_the_grown_node(self, case, data):
        X, params = case
        n = len(X)
        ids = list(range(1, n + 1)) if data is None else data.draw(st.lists(st.integers(1, n), max_size=12))
        oracle = IVMOracle(vec_store(X), params)
        rebuilt = oracle.rebuild(ids)
        grown, charged, kept = CholState(X.tolist(), params, Tally()), 0.0, []
        for i in ids:
            charged += grown.gain(i)
            parent, grown = grown, grown.child(i)
            if grown.skipped_ids == parent.skipped_ids:
                kept.append(i)
        assert node_state(rebuilt) == node_state(grown)
        # a node carries the ids taken, collapsed pivots too, and the sum
        # of the gains charged, left to right and bit for bit; a factor row
        # is held by each id taken bar the skipped ones, in order
        assert grown.ids == ids
        assert factor_ids(grown) == kept
        assert rebuilt.value == grown.value == charged
        again = oracle.rebuild(grown.ids)
        assert (again.ids, again.value) == (grown.ids, grown.value)
        assert oracle.eval(ids) == rebuilt.value
        assert oracle.empty()._child is None

    def test_rebuild_skips_a_collapsed_pivot(self):
        # A fresh factorization of all four points fails on the duplicates;
        # the rebuilt node skips them as the grown node does.
        X, params = self.COLLAPSE
        rebuilt = IVMOracle(vec_store(X), params).rebuild([1, 2, 3, 4])
        assert rebuilt.ids == [1, 2, 3, 4] and rebuilt.skipped_ids == [2, 4] and len(rebuilt._factor) == 2
        assert rebuilt.value > 0.0

    def test_two_point_closed_form(self):
        # With a copies of x != 0 and b of 0, det(I + K/sigma^2) is
        # (1 + a s)(1 + b s) - kappa^2 a b s^2, s = sigma^-2 and
        # kappa = K(x, 0), evaluated here in exact rationals. The grown value
        # is within 1.6e-11 of it relative (2.4e-10 absolute); numpy's fresh
        # factor is 8.0e-10 off, which is why the two differ by 1.04e-9.
        X, params = TWO_POINTS
        a, b = TWO_POINTS_PATTERN.count("1"), TWO_POINTS_PATTERN.count("0")
        s = Fraction(params.sigma) ** -2
        kappa = Fraction(math.exp(-(TWO_POINTS_A**2) / params.h**2))
        exact = 0.5 * math.log((1 + a * s) * (1 + b * s) - kappa**2 * a * b * s**2)
        state = _grown(IVMOracle(vec_store(X), params), range(1, len(X) + 1))
        assert len(state._factor) == len(X) and not state.skipped_ids
        assert abs(state.value - exact) <= 1e-10 * exact

    @settings(max_examples=60, deadline=None)
    @given(case=edge_points())
    @example(case=COLLAPSE)
    def test_new_row_is_the_triangular_solve(self, case):
        X, params = case
        state = CholState(X.tolist(), params, Tally())
        for i in range(1, len(X) + 1):
            grown = state.child(i)
            if len(grown._factor) > len(state._factor):
                S = X[[j - 1 for j in factor_ids(state)]]
                c = np.exp(-np.sum((S - X[i - 1]) ** 2, axis=1) / params.h**2) / params.sigma**2
                ref = solve_triangular(factor_matrix(state), c, lower=True)
                w = factor_matrix(grown)[-1, :-1]
                assert np.linalg.norm(w - ref) <= 1e-12 * np.linalg.norm(ref)
            state = grown

    def test_gain_and_child_call_no_numpy(self, monkeypatch):
        # A gain and a child are a kernel row and a forward substitution in
        # Python floats; on factors this small a numpy call costs more in
        # overhead than the arithmetic it does.
        X = np.random.default_rng(8).normal(size=(12, 4))
        state = _grown(IVMOracle(vec_store(X), PARAMS), range(1, 11))
        assert len(state._factor) == 10

        def banned(*args, **kwargs):
            raise AssertionError("numpy called on the gain path")

        monkeypatch.setattr(np.linalg, "solve", banned)
        monkeypatch.setattr(np, "vstack", banned)
        monkeypatch.setattr(np, "zeros", banned)
        gains = [state.gain(11)]
        grown = state.child(11)
        gains.append(grown.gain(12))
        grown = grown.child(12)
        monkeypatch.undo()
        assert grown.ids == list(range(1, 13))
        assert gains == pytest.approx([ivm_value(X[:11], PARAMS) - ivm_value(X[:10], PARAMS),
                                       ivm_value(X, PARAMS) - ivm_value(X[:11], PARAMS)], abs=1e-9)


class TestArrivalSlot:
    """A root's arrival slot, shared by every node grown from it, holds the
    kernel entries of the last item probed."""

    @settings(max_examples=60, deadline=None)
    @given(case=edge_points(min_log_sigma=-8.0), data=st.data())
    @example(case=TestNumericalEdges.COLLAPSE, data=None)
    def test_slot_gain_is_a_fresh_probe(self, case, data):
        # Each gain that the slot serves, with batches, rebuilds, evals and
        # children of other ids in between, equals the probe of the node's
        # ids on a fresh root, which computes every entry anew, bit for bit:
        # pivot, solve row and gain.
        X, params = case
        n = len(X)
        oracle = IVMOracle(vec_store(X), params)
        item = st.integers(1, n)
        if data is None:  # every point arrives once, at every prefix of the stream
            nodes = [_grown(oracle, range(1, i)) for i in range(1, n + 1)]
            arrivals, draw_op = range(1, n + 1), lambda: None
        else:
            nodes = [_grown(oracle, ids) for ids in data.draw(st.lists(st.lists(item, max_size=6), min_size=1, max_size=5))]
            arrivals = data.draw(st.lists(item, min_size=1, max_size=6))  # gapped, and repeats
            ops = st.sampled_from(["gains", "rebuild", "eval", "child"]) | st.none()
            draw_op = lambda: data.draw(st.tuples(ops, st.lists(item, max_size=5)))
        for t in arrivals:
            for node in list(nodes):
                op = draw_op()
                if op is not None and op[0] is not None:
                    name, ids = op
                    if name == "gains":
                        node.gains(ids)
                    elif name == "rebuild":
                        oracle.rebuild(ids)
                    elif name == "eval":
                        oracle.eval(ids)
                    elif ids:
                        nodes.append(node.child(ids[0]))
                gain = node.gain(t)
                w, d = oracle.rebuild(node.ids)._probe(t)
                assert node._gain[2] == (w, d)
                assert gain == (0.5 * math.log(d) if d > DEGENERATE_PIVOT else 0.0)

    @pytest.mark.parametrize("bad", [0, -1, 13])
    def test_unknown_id_rejected_on_an_empty_slot(self, bad):
        X = np.random.default_rng(4).normal(size=(12, 3))
        oracle = IVMOracle(vec_store(X), PARAMS)
        for root in (CholState(X.tolist(), PARAMS, Tally()), oracle.empty(), oracle.rebuild([])):
            with pytest.raises(ValueError):
                root.gain(bad)
            assert root._kernel[3] == [None, None, None]
            assert root.gain(5) == 0.5 * math.log(2.0)  # d = 1 + K(x, x) at sigma 1
            assert root._kernel[3][0] == 5


class TestIvmOracle:
    def _oracle(self, n=12, seed=0):
        rng = np.random.default_rng(seed)
        store = vec_store(rng.normal(size=(n, 5)))
        return IVMOracle(store, PARAMS), store

    def test_eval_matches_fresh_value(self):
        oracle, store = self._oracle()
        rng = random.Random(1)
        for _ in range(50):
            ids = rng.sample(range(1, 13), rng.randint(0, 6))
            expected = ivm_value(np.asarray([payload(store, i) for i in ids]), PARAMS) if ids else 0.0
            assert oracle.eval(ids) == pytest.approx(expected, abs=1e-8)

    def test_marginal_matches_eval_difference(self):
        oracle, _ = self._oracle(seed=3)
        rng = random.Random(3)
        for _ in range(100):
            ids = rng.sample(range(1, 13), rng.randint(0, 5))
            extra = rng.randint(1, 12)
            if extra in ids:
                continue
            diff = oracle.eval(list(ids) + [extra]) - oracle.eval(ids)
            assert oracle.rebuild(ids).gain(extra) == pytest.approx(diff, abs=1e-9)

    def test_shrink_rebuilds_consistently(self):
        oracle, store = self._oracle(seed=5)
        grown = [1, 2, 3, 4, 5]
        v_grown = oracle.eval(grown)
        shrunk = [1, 2, 4, 5]  # middle member expired
        expected = ivm_value(np.asarray([payload(store, i) for i in shrunk]), PARAMS)
        handle = oracle.rebuild(shrunk)
        value = handle.value
        assert value == oracle.eval(shrunk)
        assert value == pytest.approx(expected, abs=1e-8)
        assert handle.ids == shrunk
        assert oracle.eval(grown) == v_grown

    def test_invalid_id(self):
        oracle, _ = self._oracle()
        with pytest.raises(ValueError):
            oracle.eval([999])


class TestOracleLaws:
    """Monotonicity and diminishing returns on random (A subset of B, v) triples."""

    def _triples(self, rng, n, count):
        for _ in range(count):
            b = rng.sample(range(1, n + 1), rng.randint(1, 8))
            a = [x for x in b if rng.random() < 0.5]
            v = rng.randint(1, n)
            if v in b:
                continue
            yield a, b, v

    def test_coverage_laws(self):
        rng = random.Random(17)
        store = set_store(
            *[tuple(rng.sample(range(60), rng.randint(0, 10))) for _ in range(40)]
        )
        oracle = CoverageOracle(store)
        for a, b, v in self._triples(rng, 40, 500):
            assert _grown(oracle, a).gain(v) >= _grown(oracle, b).gain(v) - 1e-9
            assert oracle.eval(a) <= oracle.eval(b) + 1e-9

    def test_ivm_laws(self):
        rng = random.Random(29)
        np_rng = np.random.default_rng(29)
        store = vec_store(np_rng.normal(size=(40, 5)))
        oracle = IVMOracle(store, PARAMS)
        for a, b, v in self._triples(rng, 40, 500):
            assert _grown(oracle, a).gain(v) >= _grown(oracle, b).gain(v) - 1e-9
            assert oracle.eval(a) <= oracle.eval(b) + 1e-9


class TestHandles:
    """The handle laws, for both objectives: gains match eval differences,
    nodes are immutable and shared, unknown ids are rejected, unreferenced
    nodes are freed, and counting charges gain/eval/rebuild but not
    empty/child."""

    N = 30
    COVERAGE_STORE = set_store(*[tuple(random.Random(t).sample(range(50), t % 9)) for t in range(N)])
    COVERAGE = CoverageOracle(COVERAGE_STORE)
    IVM_STORE = vec_store(np.random.default_rng(41).normal(size=(N, 4)))
    IVM = IVMOracle(IVM_STORE, PARAMS)
    ORACLES = {"coverage": (COVERAGE, 0.0), "ivm": (IVM, 1e-9)}
    ids = st.lists(st.integers(1, N), max_size=8, unique=True)

    def _diff(self, oracle, members, extra):
        return oracle.eval(members + [extra]) - oracle.eval(members)

    @pytest.mark.parametrize("objective", sorted(ORACLES))
    @settings(max_examples=60, deadline=None)
    @given(members=ids, extra=st.integers(1, N))
    def test_gain_matches_eval_difference(self, objective, members, extra):
        oracle, tol = self.ORACLES[objective]
        if extra in members:
            return
        handle = _grown(oracle, members)
        assert abs(handle.gain(extra) - self._diff(oracle, members, extra)) <= tol

    @pytest.mark.parametrize("objective", sorted(ORACLES))
    @settings(max_examples=40, deadline=None)
    @given(members=ids, more=ids)
    def test_child_leaves_node_unchanged(self, objective, members, more):
        oracle, tol = self.ORACLES[objective]
        extra = [i for i in more if i not in members]
        everyone = range(1, self.N + 1)
        source = _grown(oracle, members)
        before = [source.gain(i) for i in everyone]
        grown = source
        for i in extra:
            grown = grown.child(i)
        source.child(1)
        assert [source.gain(i) for i in everyone] == before
        for i in everyone:
            if i not in members + extra:
                assert abs(grown.gain(i) - self._diff(oracle, members + extra, i)) <= tol

    @pytest.mark.parametrize("objective", sorted(ORACLES))
    @settings(max_examples=30, deadline=None)
    @given(members=ids)
    def test_rebuild_reads_its_ids_once(self, objective, members):
        # an iterator of ids serves as a list does: the node lists the ids
        # that it scored
        oracle, _ = self.ORACLES[objective]
        node = oracle.rebuild(iter(members))
        assert node.ids == members
        assert node.value == oracle.eval(members)

    @pytest.mark.parametrize("objective", sorted(ORACLES))
    def test_child_is_shared(self, objective):
        oracle, _ = self.ORACLES[objective]
        node = oracle.rebuild([2])
        first = node.child(5)
        node.gain(9)  # a gain between two requests does not unshare them
        assert node.child(5) is first
        assert first.child(6) is first.child(6)
        assert oracle.empty() is oracle.empty()
        assert _grown(oracle, [4, 8]) is _grown(oracle, [4, 8])

    @pytest.mark.parametrize("objective", sorted(ORACLES))
    def test_gain_memo_not_served_to_a_child(self, objective):
        oracle, tol = self.ORACLES[objective]
        handle = oracle.rebuild([3])
        handle.gain(5)  # taken against {3}
        grown = handle.child(7)
        assert abs(grown.gain(5) - self._diff(oracle, [3, 7], 5)) <= tol
        grown = grown.child(5)  # must be grown against {3, 7}
        for i in range(1, self.N + 1):
            if i not in (3, 5, 7):
                assert abs(grown.gain(i) - self._diff(oracle, [3, 7, 5], i)) <= tol

    @pytest.mark.parametrize("objective", sorted(ORACLES))
    @pytest.mark.parametrize("bad", [0, -1, N + 1])
    def test_unknown_id_rejected(self, objective, bad):
        oracle, _ = self.ORACLES[objective]
        fresh = oracle.rebuild([1, 2])
        used = _grown(oracle, [1, 2])
        for _ in range(2):  # the second round is served from the memo
            used.gain(3)
            used.child(3)
        for handle in (fresh, fresh.child(4), used):
            with pytest.raises(ValueError):
                handle.gain(bad)
            with pytest.raises(ValueError):
                handle.gains([3, bad])
            with pytest.raises(ValueError):
                handle.child(bad)
        with pytest.raises(ValueError):
            oracle.rebuild([1, bad])

    @pytest.mark.parametrize("objective", sorted(ORACLES))
    def test_unreferenced_node_is_freed(self, objective):
        window = 10
        if objective == "coverage":
            oracle = CoverageOracle(gen_set_stream(3 * window + 1, 20, 5, seed=2))
        else:
            oracle = IVMOracle(vec_store(np.random.default_rng(2).normal(size=(3 * window + 1, 4))), PARAMS)
        swrd = sieve_reduction(3, window, 0.2, oracle)
        swrd.step(1)
        node = weakref.ref(oracle.empty().child(1))
        # the node is shared: a run of several levels of the first sieve holds it
        assert any(run.handle is node() and run.hi - run.lo > 1 for run in runs(swrd.instances[0].alg))
        for t in range(2, 3 * window + 2):
            swrd.step(t)
        gc.collect()
        assert node() is None

    @pytest.mark.parametrize("objective", sorted(ORACLES))
    @settings(max_examples=60, deadline=None)
    @given(ids=st.lists(st.integers(1, N), max_size=12), data=st.data())
    def test_batch_gains_match_single_gains(self, objective, ids, data):
        oracle, _ = self.ORACLES[objective]
        steps = data.draw(st.lists(st.tuples(*_batch_step(ids, self.N)), max_size=10))
        reference = CoverageOracle(self.COVERAGE_STORE) if objective == "coverage" else IVMOracle(self.IVM_STORE, PARAMS)
        _grow_with_batches(oracle, reference, steps)

    def test_batch_follows_a_child_from_the_memo(self):
        # A greedy round that picks the item of the node's last child, as
        # consecutive windows of the greedy baseline often do, still hands
        # its batch on, so the next round's gains resume its probes.
        root = IVMOracle(self.IVM_STORE, PARAMS).empty()
        first = root.child(3)
        root.gains([3, 4, 5])
        batch = root._batch
        assert root.child(3) is first and first._batch is batch and root._batch is None
        assert [first.gain(i) for i in (4, 5)] == [_grown(self.IVM, [3]).gain(i) for i in (4, 5)]
        assert all(len(w) == 1 for w, _ in first._batch.values())

    @pytest.mark.parametrize("rescore", ["gain", "gains"])
    def test_batch_resumes_a_probe_many_rows_behind(self, rescore):
        # As lazy greedy scores: every candidate at the root, then one a
        # round by ``gain``. The probes of 8 and 9 stay empty while the
        # factor grows by three rows, and are then resumed over all three,
        # by ``gain`` or the ``child`` that takes the item, bit for bit as a
        # fresh probe. ``gains`` instead probes 8 afresh, to the same
        # floats, as a new batch that drops 9's probe, so the child of 9
        # grows from a probe of its own and takes no batch.
        oracle = IVMOracle(self.IVM_STORE, PARAMS)
        node = oracle.empty()
        node.gains([5, 6, 7, 8, 9])
        for i in (5, 6, 7):
            node = node.child(i)
            if i != 7:
                node.gain(i + 1)
        assert len(node._factor) == 3 and [len(w) for w, _ in node._batch.values()] == [0, 0]
        fresh = oracle.rebuild([5, 6, 7])
        got = node.gain(8) if rescore == "gain" else node.gains([8])[0]
        assert got == fresh.gain(8) and node._batch[8] == fresh._probe(8)
        grown = node.child(9)
        assert node_state(grown) == node_state(fresh.child(9))
        if rescore == "gain":
            assert set(grown._batch) == {8} and node._batch is None
        else:
            assert grown._batch is None and set(node._batch) == {8}

    @pytest.mark.parametrize("objective", sorted(ORACLES))
    def test_finished_greedy_frees_nodes_and_probes(self, objective):
        # Only nodes hold batch probes, and the root hands its batch on to
        # the child greedy takes. So once the greedy's handle is dropped and
        # the root has grown another child, as the next admission does, no
        # node of the greedy and none of its probes is left.
        oracle = CoverageOracle(self.COVERAGE_STORE) if objective == "coverage" else IVMOracle(self.IVM_STORE, PARAMS)
        handle = greedy_select(range(1, self.N), 5, oracle)
        selection = handle.ids
        assert len(selection) == 5
        nodes, node = [], oracle.empty()
        for i in selection:
            node = node.child(i)
            nodes.append(weakref.ref(node))
        assert node is handle
        del node, handle
        root = oracle.empty()
        assert getattr(root, "_batch", None) is None
        root.child(self.N)
        gc.collect()
        assert [ref() for ref in nodes] == [None] * 5
        assert getattr(root, "_batch", None) is None

    @pytest.mark.parametrize("objective", sorted(ORACLES))
    def test_counting_charges_gain_eval_rebuild_only(self, objective):
        counting = CoverageOracle(self.COVERAGE_STORE) if objective == "coverage" else IVMOracle(self.IVM_STORE, PARAMS)
        handle = counting.empty().child(1)
        dup = handle.child(2)
        assert counting.calls == 0
        handle.gain(3)
        dup.gain(3)
        assert counting.calls == 2
        counting.eval([1, 2])
        assert counting.calls == 3
        rebuilt = counting.rebuild([2, 3])
        assert counting.calls == 4
        rebuilt.child(1).gain(4)
        assert counting.calls == 5

    @pytest.mark.parametrize("objective", sorted(ORACLES))
    def test_memo_hits_are_charged_but_not_evaluated(self, objective):
        counting = CoverageOracle(self.COVERAGE_STORE) if objective == "coverage" else IVMOracle(self.IVM_STORE, PARAMS)
        node = counting.empty().child(6)
        for _ in range(3):
            node.gain(9)
        node.child(9).gain(9)
        assert (counting.calls, counting.evaluations) == (4, 2)
        counting.eval([1])
        counting.eval([1])  # an ivm eval served from ``_last_eval`` is charged all the same
        counting.rebuild([1])
        assert (counting.calls, counting.evaluations) == (7, 5)

    @pytest.mark.parametrize("objective", sorted(ORACLES))
    def test_rebuild_matches_grown_handle(self, objective):
        oracle, tol = self.ORACLES[objective]
        members = [4, 9, 2, 17]
        rebuilt = oracle.rebuild(members)
        assert rebuilt.value == oracle.eval(members)
        grown = _grown(oracle, members)
        for i in range(1, self.N + 1):
            if i not in members:
                assert abs(rebuilt.gain(i) - grown.gain(i)) <= tol
        # Item N + 1 repeats item 4: it gains no coverage, and at sigma 1e-9
        # its log-det pivot collapses. A node still lists it among the ids
        # taken, in order, and its value is the sum of the gains charged,
        # left to right and bit for bit, as a rebuild of those ids has.
        if objective == "coverage":
            twin = CoverageOracle(set_store(*self.COVERAGE_STORE.sets, payload(self.COVERAGE_STORE, 4)))
        else:
            vectors = self.IVM_STORE.vectors
            twin = IVMOracle(vec_store(np.vstack([vectors, vectors[3]])), KernelParams(sigma=1e-9))
        taken = [4, 9, self.N + 1, 2]
        handle, charged = twin.empty(), 0.0
        for i in taken:
            charged += handle.gain(i)
            handle = handle.child(i)
        assert handle.ids == taken
        assert handle.value == charged
        assert getattr(handle, "skipped_ids", [self.N + 1]) == [self.N + 1]
        again = twin.rebuild(handle.ids)
        assert (again.ids, again.value) == (handle.ids, handle.value)


class TestUpperBound:
    """``k * max_singleton()`` bounds the value of every set of k items."""

    def test_coverage_product(self):
        store = set_store((1, 2, 3, 4, 5, 6, 7), (1, 2), ())
        assert 3 * CoverageOracle(store).max_singleton() == 21.0

    def test_coverage_tight_single_item(self):
        oracle = CoverageOracle(set_store((4, 9)))
        assert oracle.max_singleton() == oracle.eval([1]) == 2.0

    def test_ivm_hadamard_bound(self):
        rng = np.random.default_rng(31)
        store = vec_store(rng.normal(size=(30, 5)))
        oracle = IVMOracle(store, PARAMS)
        assert oracle.max_singleton() == pytest.approx(oracle.eval([7]), abs=1e-12)
        bound = 5 * oracle.max_singleton()
        assert bound == pytest.approx(2.5 * math.log(2), abs=1e-12)
        picker = random.Random(31)
        for _ in range(100):
            ids = picker.sample(range(1, 31), 5)
            assert oracle.eval(ids) <= bound + 1e-9
        # and it bounds the actual optimum
        _, opt = brute_force_opt(list(range(1, 16)), 5, oracle)
        assert opt <= bound + 1e-9

    def test_clamped_at_one(self):
        # a zero bound still gets the one-level grid [1]
        oracle = CoverageOracle(set_store((), ()))
        assert oracle.max_singleton() == 0.0
        assert thresholds(SieveStream(4, 0.2, oracle)) == [1.0]

    def test_empty_store_has_zero_max_singleton(self):
        assert CoverageOracle(set_store()).max_singleton() == 0.0
