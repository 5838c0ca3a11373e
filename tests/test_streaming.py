import math
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swmax.ingest import gen_set_stream
from swmax.objectives import CoverageOracle, IVMOracle, KernelParams
from swmax.streaming import SieveStream, ceil_log_ratio, greedy_select

from conftest import ScriptedOracle, level_buffers, level_values, node_state, set_store, vec_store
from reference import answer, brute_force_opt, greedy_by_gain, runs, score, thresholds


def sieve_grid(upper, epsilon):
    """The grid of a one-item sieve whose bound ``k * max_singleton`` is ``upper``."""
    return thresholds(SieveStream(1, epsilon, ScriptedOracle({}, max_singleton=upper)))


class TestThresholdGrid:
    def test_powers_of_two(self):
        assert sieve_grid(4.0, 1.0) == [1.0, 2.0, 4.0]

    def test_single_threshold(self):
        assert sieve_grid(1.0, 0.2) == [1.0]

    def test_recomputed_level_count(self):
        grid = sieve_grid(100.0, 0.2)
        assert len(grid) == math.ceil(math.log(100) / math.log(1.2)) + 1 == 27
        assert grid[-1] >= 100.0
        assert grid[-2] < 100.0

    def test_ceil_log_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            ceil_log_ratio(10.0, 0.0)

    @pytest.mark.parametrize("epsilon", [1e-17, 1e-300])
    def test_ceil_log_rejects_epsilon_lost_in_one(self, epsilon):
        # 1 + epsilon rounds to 1, so log(1 + epsilon) is 0: refused, not
        # divided by
        assert 1.0 + epsilon == 1.0
        with pytest.raises(ValueError):
            ceil_log_ratio(10.0, epsilon)

    def test_grid_strictly_increasing_and_tops_bound(self):
        for m, eps in [(2.0, 0.1), (7.3, 0.2), (500.0, 0.4), (1.0, 0.5)]:
            grid = sieve_grid(m, eps)
            assert all(a < b for a, b in zip(grid, grid[1:]))
            assert grid[0] == 1.0
            assert grid[-1] >= m

    @given(
        k=st.integers(1, 20),
        bound=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 4.0]), st.floats(0.0, 1e6)),
        epsilon=st.sampled_from([0.01, 0.05, 0.1, 0.2, 0.5, 1.0, 3.0]),
    )
    def test_grid_is_the_lattice_bit_for_bit(self, k, bound, epsilon):
        # A sieve computes each level's threshold as base**l, so its grid
        # is the lattice (1+eps)**l up to the first power at or above kM.
        sieve = SieveStream(k, epsilon, ScriptedOracle({}, max_singleton=bound))
        top = ceil_log_ratio(k * bound, epsilon)
        assert thresholds(sieve) == [(1 + epsilon) ** level for level in range(top + 1)]


class TestSieveStream:
    @pytest.mark.parametrize(
        "second,values,solution", [(-0.5, [4.5] * 4, [1, 2]), (-2.0, [3.0, 3.0, 3.0, 5.0], [1])]
    )
    def test_best_value_follows_a_falling_value(self, second, values, solution):
        # Rounding can make a log-det gain slightly negative, and a buffer
        # whose value exceeds T/2 admits it. Here item 1 (gain 5) enters
        # every level of the grid [1, 2, 4, 8]; item 2 enters the levels
        # with T/2 - 5 < gain. A gain of -0.5 lowers the one run, the best,
        # in place; a gain of -2 splits off the levels below 8.
        sieve = SieveStream(2, 1.0, ScriptedOracle({1: 5.0, 2: second}))
        assert thresholds(sieve) == [1.0, 2.0, 4.0, 8.0]
        sieve.step(1)
        assert answer(sieve)[1] == 5.0
        sieve.step(2)
        assert level_values(sieve) == values
        assert answer(sieve)[1] == max(values)
        assert answer(sieve) == (solution, max(values))

    def test_empty_buffer_condition(self):
        # with an empty buffer the add rule reduces to f(e) > T / (2k)
        store = set_store((1,), (2, 3))
        oracle = CoverageOracle(store)
        sieve = SieveStream(2, 1.0, oracle)
        assert thresholds(sieve) == [1.0, 2.0, 4.0]  # k * max singleton = 4
        sieve.step(1)  # f=1: enters T=1 (1 > 0.25) and T=2 (1 > 0.5), not T=4 (1 == 1)
        assert level_buffers(sieve)[0] == [1]
        assert level_buffers(sieve)[1] == [1]
        assert level_buffers(sieve)[2] == []
        # the admitting levels are a prefix of the run, split off as one run
        assert [[run.lo, run.hi, run.handle.ids] for run in runs(sieve)] == [[0, 2, [1]], [2, 3, []]]

    def test_hand_trace(self):
        # k=2, eps=1, M=4, e1={a,b}, e2={b,c}: every buffer reaches value 3
        store = set_store((0, 1), (1, 2))
        oracle = CoverageOracle(store)
        sieve = SieveStream(2, 1.0, oracle)
        assert thresholds(sieve) == [1.0, 2.0, 4.0]
        sieve.step(1)
        sieve.step(2)
        assert level_buffers(sieve)[2] == [1, 2]
        assert level_values(sieve)[2] == 3.0
        assert answer(sieve) == ([1, 2], 3.0)
        assert len(runs(sieve)) == 1  # every level admitted both: one shared state

    def test_full_buffer_never_grows(self):
        store = set_store((1,), (2,), (1, 2, 3, 4, 5, 6, 7, 8))
        oracle = CoverageOracle(store)
        sieve = SieveStream(2, 1.0, oracle)
        assert thresholds(sieve)[0] == 1.0
        for t in range(1, len(store) + 1):
            sieve.step(t)
        assert all(len(buf) <= 2 for buf in level_buffers(sieve))
        assert 3 not in level_buffers(sieve)[0]  # buffer was already full

    def test_query_ties_break_to_smaller_threshold(self):
        store = set_store((5, 6))
        oracle = CoverageOracle(store)
        sieve = SieveStream(1, 1.0, oracle)
        assert thresholds(sieve) == [1.0, 2.0]
        sieve.step(1)
        # both T=1 and T=2 buffers hold item 1 at value 2; smallest wins
        values, buffers = level_values(sieve), level_buffers(sieve)
        assert values[0] == values[1] == 2.0
        best = max(values)
        level = min(lv for lv, value in enumerate(values) if value == best)
        assert level == 0
        assert answer(sieve) == (buffers[level], values[level])

    def test_empty_query(self):
        sieve = SieveStream(2, 1.0, CoverageOracle(set_store((1,))))
        assert answer(sieve) == ([], 0.0)

    def test_guarantee_against_brute_force(self):
        eps = 0.2
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.choice([20, 30, 40])
            k = rng.choice([2, 3])
            store = gen_set_stream(n, 25, 5, seed=seed)
            oracle = CoverageOracle(store)
            _, opt = brute_force_opt(list(range(1, n + 1)), k, store)
            if opt < 1.0:
                continue
            sieve = SieveStream(k, eps, oracle)
            assert thresholds(sieve)[-1] >= opt
            for t in range(1, len(store) + 1):
                sieve.step(t)
            assert answer(sieve)[1] >= (1 - eps) / 2 * opt - 1e-9

    def test_prefix_value_non_decreasing(self):
        for seed in range(50):
            store = gen_set_stream(40, 20, 5, seed=seed)
            oracle = CoverageOracle(store)
            sieve = SieveStream(3, 0.2, oracle)
            last = 0.0
            for t in range(1, len(store) + 1):
                sieve.step(t)
                value = answer(sieve)[1]
                assert value >= last
                last = value


class TestGreedy:
    def test_picks_unique_maxima(self, abc_store):
        oracle = CoverageOracle(abc_store)
        chosen = greedy_select([1, 2, 3], 2, oracle)
        assert chosen.ids == [1, 2]
        assert chosen.value == 5.0

    def test_k_beyond_candidates(self, abc_store):
        # with k >= |items|, everything with positive cumulative gain is taken;
        # C = {3,4} is fully covered by A and B and is correctly left out
        oracle = CoverageOracle(abc_store)
        chosen = greedy_select([1, 2, 3], 10, oracle)
        assert chosen.ids == [1, 2]
        assert chosen.value == 5.0

    def test_k_beyond_candidates_all_positive(self):
        store = set_store((1,), (2,), (3,))
        chosen = greedy_select([1, 2, 3], 10, CoverageOracle(store))
        assert sorted(chosen.ids) == [1, 2, 3]
        assert chosen.value == 3.0

    def test_zero_gain_early_stop(self):
        store = set_store((1, 2), (1,), (2,))
        oracle = CoverageOracle(store)
        chosen = greedy_select([1, 2, 3], 3, oracle)
        assert chosen.ids == [1]
        assert chosen.value == 2.0

    def test_permutation_invariant(self):
        rng = random.Random(13)
        store = gen_set_stream(12, 20, 6, seed=13)
        oracle = CoverageOracle(store)
        ids = list(range(1, 13))
        baseline = greedy_select(ids, 4, oracle)
        for _ in range(10):
            shuffled = ids[:]
            rng.shuffle(shuffled)
            chosen = greedy_select(shuffled, 4, oracle)
            assert (chosen.ids, chosen.value) == (baseline.ids, baseline.value)

    def test_lazy_rounds_rescore_only_the_top(self):
        # A={1,2,3,4}, B={5,6,7}, C={1,2}, D={8}. Round one scores all four
        # (4, 3, 2, 1) and takes A. Round two re-scores B, still 3 and on
        # top, and takes it. Round three re-scores C to 0, then D to 1,
        # which is on top, and takes D: 4 + 1 + 2 = 7 calls, where scoring
        # every remaining candidate in every round makes 4 + 3 + 2 = 9.
        store = set_store((1, 2, 3, 4), (5, 6, 7), (1, 2), (8,))
        lazy, eager = CoverageOracle(store), CoverageOracle(store)
        chosen = greedy_select([1, 2, 3, 4], 3, lazy)
        assert (chosen.ids, chosen.value, lazy.calls) == ([1, 2, 4], 8.0, 7)
        assert greedy_by_gain([1, 2, 3, 4], 3, eager)[:2] == ([1, 2, 4], 8.0) and eager.calls == 9

    @pytest.mark.parametrize("objective", ["coverage", "ivm"])
    def test_repeated_ids_are_taken_once(self, objective):
        # A log-det gain of an item already in the set is positive (another
        # noisy observation of its point), so a lazy greedy that kept a
        # second bound for an id once taken would take that id again; on
        # coverage it would re-score it for nothing. Every copy leaves with
        # the first, and the selection is eager greedy's over the distinct
        # ids, for no more calls.
        if objective == "coverage":
            make = partial(CoverageOracle, set_store((1, 2, 3), (4, 5), (3, 4, 6), (7,)))
        else:
            make = partial(IVMOracle, vec_store(np.random.default_rng(1).normal(size=(4, 3))), KernelParams())
        lazy, eager = make(), make()
        chosen = greedy_select([3, 1, 3, 2, 1, 4, 3], 7, lazy)
        ref_selection, ref_value, ref_handle = greedy_by_gain([3, 1, 2, 4], 7, eager)
        assert len(set(chosen.ids)) == len(chosen.ids) and (chosen.ids, chosen.value) == (ref_selection, ref_value)
        assert node_state(chosen) == node_state(ref_handle) and lazy.calls <= eager.calls

    def test_classical_bound_against_brute_force(self):
        ratio = 1 - 1 / math.e
        for seed in range(100):
            store = gen_set_stream(16, 20, 5, seed=seed)
            oracle = CoverageOracle(store)
            ids = list(range(1, 17))
            _, opt = brute_force_opt(ids, 3, store)
            got = greedy_select(ids, 3, oracle).value
            assert got >= ratio * opt - 1e-9


@st.composite
def greedy_instances(draw):
    """A maker of fresh oracles on one store, and a candidate list with
    repeats: coverage over small sets, or ivm on repeated points with a
    noise scale log-uniform in [1e-3, 1e3], so ties and collapsed pivots
    both occur."""
    n = draw(st.integers(1, 25))
    if draw(st.booleans()):
        payloads = draw(st.lists(st.frozensets(st.integers(0, 15), max_size=6), min_size=n, max_size=n))
        make = partial(CoverageOracle, set_store(*payloads))
    else:
        pool = np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=(6, 3))
        rows = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        make = partial(IVMOracle, vec_store(pool[rows]), KernelParams(sigma=10.0 ** draw(st.floats(-3.0, 3.0))))
    return make, draw(st.lists(st.integers(1, n), max_size=30))


@settings(max_examples=100, deadline=None)
@given(instance=greedy_instances(), k=st.integers(0, 8))
def test_greedy_select_matches_per_gain_reference(instance, k):
    # Lazy greedy, with its resumed probes, picks and grows exactly what a
    # ``gain`` call per candidate per round does, and charges no more calls.
    make, items = instance
    lazy, single = make(), make()
    handle = greedy_select(items, k, lazy)
    ref_selection, ref_value, ref_handle = greedy_by_gain(items, k, single)
    assert (handle.ids, handle.value) == (ref_selection, ref_value)
    assert node_state(handle) == node_state(ref_handle)
    assert lazy.calls <= single.calls


class TestBruteForce:
    def test_single_item(self):
        assert brute_force_opt([1], 2, set_store((3, 4))) == ([1], 2.0)

    def test_abc_instance(self, abc_store):
        _, value = brute_force_opt([1, 2, 3], 2, abc_store)
        assert value == 5.0

    def test_scoring_function_matches_the_store(self, abc_store):
        oracle = CoverageOracle(abc_store)
        assert brute_force_opt([1, 2, 3], 2, partial(score, oracle)) == brute_force_opt([1, 2, 3], 2, abc_store)

    def test_guard(self):
        with pytest.raises(ValueError):
            brute_force_opt(list(range(1, 41)), 10, set_store(*[(i,) for i in range(40)]), max_subsets=1000)

    def test_matches_greedy_on_disjoint_sets(self):
        rng = random.Random(5)
        for _ in range(20):
            sizes = [rng.randint(1, 6) for _ in range(8)]
            payloads, next_el = [], 0
            for s in sizes:
                payloads.append(tuple(range(next_el, next_el + s)))
                next_el += s
            store = set_store(*payloads)
            ids = list(range(1, 9))
            k = rng.randint(1, 4)
            assert greedy_select(ids, k, CoverageOracle(store)).value == brute_force_opt(ids, k, store)[1]
