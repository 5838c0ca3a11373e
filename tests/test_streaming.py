import math
import random

import pytest

from swmax.core import CountingOracle, Item
from swmax.ingest import gen_set_stream
from swmax.objectives import CoverageOracle
from swmax.streaming import (
    SieveStream,
    brute_force_opt,
    ceil_log_ratio,
    greedy_select,
    threshold_grid,
)

from conftest import set_store


class TestThresholdGrid:
    def test_powers_of_two(self):
        assert threshold_grid(4.0, 1.0) == [1.0, 2.0, 4.0]

    def test_single_threshold(self):
        assert threshold_grid(1.0, 0.2) == [1.0]

    def test_recomputed_level_count(self):
        grid = threshold_grid(100.0, 0.2)
        assert len(grid) == math.ceil(math.log(100) / math.log(1.2)) + 1 == 27
        assert grid[-1] >= 100.0
        assert grid[-2] < 100.0

    def test_ceil_log_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            ceil_log_ratio(10.0, 0.0)

    def test_grid_strictly_increasing_and_tops_bound(self):
        for m, eps in [(2.0, 0.1), (7.3, 0.2), (500.0, 0.4), (1.0, 0.5)]:
            grid = threshold_grid(m, eps)
            assert all(a < b for a, b in zip(grid, grid[1:]))
            assert grid[0] == 1.0
            assert grid[-1] >= m


class TestSieveStream:
    def test_empty_buffer_condition(self):
        # with an empty buffer the add rule reduces to f(e) > T / (2k)
        store = set_store((1,), (2, 3))
        oracle = CoverageOracle(store)
        sieve = SieveStream(2, 1.0, oracle)
        assert sieve.thresholds == [1.0, 2.0, 4.0]  # k * max singleton = 4
        sieve.step(Item(1))  # f=1: enters T=1 (1 > 0.25) and T=2 (1 > 0.5), not T=4 (1 == 1)
        assert sieve.buffers[0] == [1]
        assert sieve.buffers[1] == [1]
        assert sieve.buffers[2] == []

    def test_hand_trace(self):
        # k=2, eps=1, M=4, e1={a,b}, e2={b,c}: every buffer reaches value 3
        store = set_store((0, 1), (1, 2))
        oracle = CoverageOracle(store)
        sieve = SieveStream(2, 1.0, oracle)
        assert sieve.thresholds == [1.0, 2.0, 4.0]
        sieve.step(Item(1))
        sieve.step(Item(2))
        assert sieve.buffers[2] == [1, 2]
        assert sieve.values[2] == 3.0
        assert sieve.query() == ([1, 2], 3.0)

    def test_full_buffer_never_grows(self):
        store = set_store((1,), (2,), (1, 2, 3, 4, 5, 6, 7, 8))
        oracle = CoverageOracle(store)
        sieve = SieveStream(2, 1.0, oracle)
        assert sieve.thresholds[0] == 1.0
        for item in store.items():
            sieve.step(item)
        assert all(len(buf) <= 2 for buf in sieve.buffers)
        assert 3 not in sieve.buffers[0]  # buffer was already full

    def test_query_ties_break_to_smaller_threshold(self):
        store = set_store((5, 6))
        oracle = CoverageOracle(store)
        sieve = SieveStream(1, 1.0, oracle)
        assert sieve.thresholds == [1.0, 2.0]
        sieve.step(Item(1))
        # both T=1 and T=2 buffers hold item 1 at value 2; smallest wins
        assert sieve.values[0] == sieve.values[1] == 2.0
        best = max(sieve.values)
        level = min(lv for lv, value in enumerate(sieve.values) if value == best)
        assert level == 0
        assert sieve.query() == (sieve.buffers[level], sieve.values[level])

    def test_empty_query(self):
        sieve = SieveStream(2, 1.0, CoverageOracle(set_store((1,))))
        assert sieve.query() == ([], 0.0)

    def test_guarantee_against_brute_force(self):
        eps = 0.2
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.choice([20, 30, 40])
            k = rng.choice([2, 3])
            store = gen_set_stream(n, 25, 5, seed=seed)
            oracle = CoverageOracle(store)
            _, opt = brute_force_opt(list(range(1, n + 1)), k, oracle)
            if opt < 1.0:
                continue
            sieve = SieveStream(k, eps, oracle)
            assert sieve.thresholds[-1] >= opt
            for item in store.items():
                sieve.step(item)
            assert sieve.query()[1] >= (1 - eps) / 2 * opt - 1e-9

    def test_prefix_value_non_decreasing(self):
        for seed in range(50):
            store = gen_set_stream(40, 20, 5, seed=seed)
            oracle = CoverageOracle(store)
            sieve = SieveStream(3, 0.2, oracle)
            last = 0.0
            for item in store.items():
                sieve.step(item)
                value = sieve.query()[1]
                assert value >= last
                last = value


class TestGreedy:
    def test_picks_unique_maxima(self, abc_store):
        oracle = CoverageOracle(abc_store)
        solution, value, _ = greedy_select([1, 2, 3], 2, oracle)
        assert solution == [1, 2]
        assert value == 5.0

    def test_k_beyond_candidates(self, abc_store):
        # with k >= |items|, everything with positive cumulative gain is taken;
        # C = {3,4} is fully covered by A and B and is correctly left out
        oracle = CoverageOracle(abc_store)
        solution, value, _ = greedy_select([1, 2, 3], 10, oracle)
        assert solution == [1, 2]
        assert value == 5.0

    def test_k_beyond_candidates_all_positive(self):
        store = set_store((1,), (2,), (3,))
        solution, value, _ = greedy_select([1, 2, 3], 10, CoverageOracle(store))
        assert sorted(solution) == [1, 2, 3]
        assert value == 3.0

    def test_zero_gain_early_stop(self):
        store = set_store((1, 2), (1,), (2,))
        oracle = CountingOracle(CoverageOracle(store))
        solution, value, _ = greedy_select([1, 2, 3], 3, oracle)
        assert solution == [1]
        assert value == 2.0

    def test_permutation_invariant(self):
        rng = random.Random(13)
        store = gen_set_stream(12, 20, 6, seed=13)
        oracle = CoverageOracle(store)
        ids = list(range(1, 13))
        baseline = greedy_select(ids, 4, oracle)[:2]
        for _ in range(10):
            shuffled = ids[:]
            rng.shuffle(shuffled)
            assert greedy_select(shuffled, 4, oracle)[:2] == baseline

    def test_classical_bound_against_brute_force(self):
        ratio = 1 - 1 / math.e
        for seed in range(100):
            store = gen_set_stream(16, 20, 5, seed=seed)
            oracle = CoverageOracle(store)
            ids = list(range(1, 17))
            _, opt = brute_force_opt(ids, 3, oracle)
            got = greedy_select(ids, 3, oracle)[1]
            assert got >= ratio * opt - 1e-9


class TestBruteForce:
    def test_single_item(self):
        oracle = CoverageOracle(set_store((3, 4)))
        assert brute_force_opt([1], 2, oracle) == ([1], 2.0)

    def test_abc_instance(self, abc_store):
        oracle = CoverageOracle(abc_store)
        _, value = brute_force_opt([1, 2, 3], 2, oracle)
        assert value == 5.0

    def test_guard(self):
        oracle = CoverageOracle(set_store(*[(i,) for i in range(40)]))
        with pytest.raises(ValueError):
            brute_force_opt(list(range(1, 41)), 10, oracle, max_subsets=1000)

    def test_matches_greedy_on_disjoint_sets(self):
        rng = random.Random(5)
        for _ in range(20):
            sizes = [rng.randint(1, 6) for _ in range(8)]
            payloads, next_el = [], 0
            for s in sizes:
                payloads.append(tuple(range(next_el, next_el + s)))
                next_el += s
            oracle = CoverageOracle(set_store(*payloads))
            ids = list(range(1, 9))
            k = rng.randint(1, 4)
            assert greedy_select(ids, k, oracle)[1] == brute_force_opt(ids, k, oracle)[1]
