import itertools
import math
import random
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swmax.bench import RunConfig, run_benchmark
from swmax.ingest import DatasetStore, gen_drift_vectors, gen_set_stream
from swmax.objectives import CoverageOracle, IVMOracle, KernelParams
from swmax.streaming import SieveStream, ceil_log_ratio, greedy_select
from swmax.sliding import (
    PrioritySample,
    ReductionInstance,
    SieveGreedy,
    SieveNaive,
    SlidingWindowDP,
    SlidingWindowReduction,
    sieve_reduction,
)

from conftest import (
    LevelSieve,
    RebuildPrioritySample,
    ScriptedOracle,
    ThresholdTables,
    level_buffers,
    level_values,
    prune_by_mask,
    set_store,
    vec_store,
)
from reference import (
    BestSoFar,
    answer,
    brute_force_opt,
    instance_starts,
    instance_values,
    runs,
    scan_answer,
    score,
    thresholds,
    window_ids,
)


class _StubAlg:
    """An inner algorithm that is its own answer: no ids and a fixed value."""

    ids: list[int] = []

    def __init__(self, value):
        self.value = value

    def step(self, item):
        pass

    def query(self):
        return self

    def retained_count(self):
        return 0


class _ValueOnlyAlg(_StubAlg):
    @property
    def ids(self):
        raise AssertionError("the reduction read a solution it does not report")


def _stub_reduction(window, epsilon, start_value_pairs):
    red = SlidingWindowReduction(window, epsilon, lambda: _StubAlg(0.0))
    red.instances = [ReductionInstance(s, _StubAlg(v)) for s, v in start_value_pairs]
    return red


def unique_tail_stream(n, seed, shared_universe=20, shared=3):
    """Sets with one globally unique element each, so every item has gain >= 1."""
    rng = random.Random(seed)
    payloads = []
    for t in range(n):
        extras = rng.sample(range(shared_universe), rng.randint(0, shared))
        payloads.append(tuple([1000 + t] + [e for e in extras]))
    return set_store(*payloads)


class TestReduction:
    def test_first_item_single_instance(self):
        store = set_store((1,))
        red = sieve_reduction(1, 3, 0.5, CoverageOracle(store))
        red.step(1)
        assert instance_starts(red) == [1]

    def test_expired_instance_dropped(self):
        store = set_store((1,), (2,), (3,), (4,))
        red = sieve_reduction(1, 3, 0.5, CoverageOracle(store))
        for t in range(1, len(store) + 1):
            red.step(t)
        assert all(s > 4 - 3 for s in instance_starts(red))
        assert 1 not in instance_starts(red)

    def test_prune_trace(self):
        red = _stub_reduction(100, 1.0, list(zip([1, 2, 3, 4, 5], [10, 9, 5, 4, 1])))
        red.prune()
        assert instance_values(red) == [10, 5, 4, 1]
        assert instance_starts(red) == [1, 3, 4, 5]

    def test_two_instances_never_pruned(self):
        for values in ([5, 1], [1, 5], [0, 0], [7, 7]):
            red = _stub_reduction(100, 0.2, list(zip([1, 2], values)))
            red.prune()
            assert len(red.instances) == 2

    def test_prune_keeps_geometric_separation(self):
        rng = random.Random(3)
        for _ in range(200):
            u = rng.randint(1, 12)
            values = sorted((rng.uniform(0, 50) for _ in range(u)), reverse=True)
            if rng.random() < 0.3:
                values = [rng.uniform(0, 50) for _ in range(u)]  # not monotone
            eps = rng.choice([0.1, 0.2, 1.0])
            red = _stub_reduction(1000, eps, list(zip(range(1, u + 1), values)))
            red.prune()
            kept = instance_values(red)
            for j in range(len(kept) - 2):
                assert kept[j] > (1 + eps) * kept[j + 2]

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.sampled_from([0.0, 1.0, 1.05, 1.1025, 1.2, 1.44, 2.0, 4.0, 9.5]), max_size=15),
        order=st.sampled_from(["mixed", "increasing", "decreasing"]),
        eps=st.sampled_from([0.05, 0.2, 1.0]),
    )
    def test_one_pass_prune_matches_mask_reference(self, values, order, eps):
        # The pool holds zeros, ties and exact (1+eps) ratios for every eps
        # drawn (1.05 * 1.0 == 1.05, 1.2 * 1.0 == 1.2, 2.0 * 2.0 == 4.0), so
        # the boundary ``(1+eps) * v[x] == v[j]`` is hit.
        if order != "mixed":
            values = sorted(values, reverse=order == "decreasing")
        pairs = list(zip(range(1, len(values) + 1), values))
        red, ref = _stub_reduction(1000, eps, pairs), _stub_reduction(1000, eps, pairs)
        red.prune()
        prune_by_mask(ref)
        assert instance_starts(red) == instance_starts(ref)

    def test_query_picks_oldest_in_window(self):
        red = _stub_reduction(8, 0.2, [(1, 9.0), (2, 5.0), (5, 4.0)])
        red.step(9)  # start 1 leaves the window [2, 9]
        assert instance_starts(red) == [2, 5, 9]
        assert answer(red) == ([], 5.0)

    def test_prune_reads_values_without_solutions(self):
        red = SlidingWindowReduction(5, 0.2, lambda: _ValueOnlyAlg(1.0))
        for t in range(1, 21):
            red.step(t)
        assert len(red.instances) == 2  # equal values: all but the ends pruned

    def test_query_before_any_item(self):
        red = sieve_reduction(1, 3, 0.5, CoverageOracle(set_store((1,))))
        assert answer(red) == ([], 0.0)

    def test_newest_instance_survives_and_solution_in_window(self):
        store = gen_set_stream(60, 20, 5, seed=8)
        red = sieve_reduction(3, 10, 0.2, CoverageOracle(store))
        for t in range(1, len(store) + 1):
            red.step(t)
            starts = instance_starts(red)
            assert starts[-1] == t
            assert all(a < b for a, b in zip(starts, starts[1:]))
            solution, _ = answer(red)
            assert all(t - 10 < s <= t for s in solution)

    def test_structure_invariants_random_streams(self):
        eps = 0.2
        for seed in range(100):
            store = gen_set_stream(50, 25, 5, seed=seed)
            k = 2 + seed % 2
            oracle = CoverageOracle(store)
            cap = 2 * (ceil_log_ratio(k * oracle.max_singleton(), eps) + 2)
            red = sieve_reduction(k, 15, eps, oracle)
            for t in range(1, len(store) + 1):
                red.step(t)
                values = instance_values(red)
                assert len(values) <= cap
                for j in range(len(values) - 2):
                    assert values[j] > (1 + eps) * values[j + 2]
                    assert values[j] > 0

    def test_guarantee_mini(self):
        eps, k, w = 0.2, 2, 15
        factor = ((1 - eps) / 2) / (2 + eps)
        for seed in range(25):
            store = gen_set_stream(45, 25, 5, seed=seed)
            oracle = CoverageOracle(store)
            red = sieve_reduction(k, w, eps, oracle)
            for t in range(1, len(store) + 1):
                red.step(t)
                if t % 9 == 0:
                    members = window_ids(t, w)
                    _, opt = brute_force_opt(members, k, store)
                    assert answer(red)[1] >= factor * opt - 1e-9


EPSILON_CONSTRUCTORS = {
    "SieveStream": lambda eps, oracle: SieveStream(1, eps, oracle),
    "SieveNaive": lambda eps, oracle: SieveNaive(1, 3, eps, oracle),
    "SieveGreedy": lambda eps, oracle: SieveGreedy(1, 3, eps, oracle, sample_c=1.0),
    "SlidingWindowDP": lambda eps, oracle: SlidingWindowDP(1, 3, eps, oracle),
    "SlidingWindowReduction": lambda eps, oracle: SlidingWindowReduction(
        3, eps, lambda: SieveStream(1, 0.2, oracle)
    ),
    "sieve_reduction": lambda eps, oracle: sieve_reduction(1, 3, eps, oracle),
}


@pytest.mark.parametrize("epsilon", [0.0, -0.1, math.nan, 1e-17, 1e-300, math.inf])
@pytest.mark.parametrize("name", sorted(EPSILON_CONSTRUCTORS))
def test_epsilon_must_be_positive(name, epsilon):
    # k * max singleton = 1 gives the one-level grid, built without
    # dividing by log(1 + eps), so only the explicit check can refuse NaN,
    # infinity, or an epsilon so small that 1 + eps rounds to 1
    oracle = CoverageOracle(set_store((1,)))
    with pytest.raises(ValueError):
        EPSILON_CONSTRUCTORS[name](epsilon, oracle)


def test_dp_top_threshold_must_be_a_float():
    # k * max singleton = 2 puts sw-dp's top threshold at (1 + eps)**2,
    # which overflows: refused when built, naming epsilon, not in a step
    oracle = CoverageOracle(set_store((1,)))
    with pytest.raises(ValueError, match="epsilon"):
        SlidingWindowDP(2, 3, 1e308, oracle)
    SlidingWindowDP(1, 3, 1e308, oracle).step(1)  # its top threshold is 1 + eps


@pytest.mark.parametrize("sample_c", [-1.0, math.nan])
def test_sample_c_must_be_non_negative(sample_c):
    # min(1, nan / W) is 1, so a NaN that got past the check would sample
    # every arrival
    with pytest.raises(ValueError):
        SieveGreedy(1, 3, 0.2, CoverageOracle(set_store((1,))), sample_c=sample_c)


K_CONSTRUCTORS = {
    "SieveStream": lambda k, oracle: SieveStream(k, 0.2, oracle),
    "SieveNaive": lambda k, oracle: SieveNaive(k, 3, 0.2, oracle),
    "SieveGreedy": lambda k, oracle: SieveGreedy(k, 3, 0.2, oracle, sample_c=1.0),
    "SlidingWindowDP": lambda k, oracle: SlidingWindowDP(k, 3, 0.2, oracle),
    "PrioritySample": lambda k, oracle: PrioritySample(k, 3, oracle),
    "sieve_reduction": lambda k, oracle: sieve_reduction(k, 3, 0.2, oracle),
}


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("name", sorted(K_CONSTRUCTORS))
def test_k_must_be_positive(name, k):
    # refused when built, not at the first step
    with pytest.raises(ValueError):
        K_CONSTRUCTORS[name](k, CoverageOracle(set_store((1,))))


SIZE_ENTRY_POINTS = {  # name: (build from k, window and an oracle, the sizes it takes)
    "SieveStream": (lambda k, window, oracle: SieveStream(k, 0.2, oracle), ("k",)),
    "SieveNaive": (lambda k, window, oracle: SieveNaive(k, window, 0.2, oracle), ("k", "window")),
    "SieveGreedy": (lambda k, window, oracle: SieveGreedy(k, window, 0.2, oracle, sample_c=1.0), ("k", "window")),
    "SlidingWindowDP": (lambda k, window, oracle: SlidingWindowDP(k, window, 0.2, oracle), ("k", "window")),
    "PrioritySample": (lambda k, window, oracle: PrioritySample(k, window, oracle), ("k", "window")),
    "sieve_reduction": (lambda k, window, oracle: sieve_reduction(k, window, 0.2, oracle), ("k", "window")),
    "SlidingWindowReduction": (
        lambda k, window, oracle: SlidingWindowReduction(window, 0.2, lambda: SieveStream(2, 0.2, oracle)),
        ("window",),
    ),
    "greedy_select": (lambda k, window, oracle: greedy_select(range(1, 5), k, oracle), ("k",)),
    "RunConfig.validate": (
        lambda k, window, oracle: RunConfig(
            objective="coverage", algorithm="sw-rd", k=k, window=window, format="synth-sets"
        ).validate(),
        ("k", "window"),
    ),
}


def _size_answer(built):
    """What an entry point of ``SIZE_ENTRY_POINTS`` answers on four arrivals."""
    if hasattr(built, "step"):
        for t in range(1, 5):
            built.step(t)
        return answer(built)
    return getattr(built, "ids", built)


@pytest.mark.parametrize(
    "name,size", [(name, size) for name, (_, sizes) in SIZE_ENTRY_POINTS.items() for size in sizes]
)
def test_non_integer_size_is_refused(name, size):
    # A k of 2.5 leaves room (k - |S|) that never reaches 0, so a buffer or
    # greedy would take more than k items; a window of 2.5 is no window.
    # Each entry point reads its sizes by ``operator.index`` and raises.
    build, _ = SIZE_ENTRY_POINTS[name]
    sizes = {"k": 2, "window": 3, size: 2.5}
    with pytest.raises(TypeError):
        build(sizes["k"], sizes["window"], CoverageOracle(set_store((1,), (2,), (3,), (4,))))


@pytest.mark.parametrize("name", sorted(SIZE_ENTRY_POINTS))
def test_numpy_integer_sizes_run(name):
    # ``operator.index`` takes a numpy integer as the int it is
    build, _ = SIZE_ENTRY_POINTS[name]
    store = set_store((1,), (2,), (3,), (4,))
    got = _size_answer(build(np.int64(2), np.int64(3), CoverageOracle(store)))
    assert got == _size_answer(build(2, 3, CoverageOracle(store)))


STEP_CONSTRUCTORS = {**K_CONSTRUCTORS, "BestSoFar": lambda k, oracle: BestSoFar(SieveStream(k, 0.2, oracle))}


@pytest.mark.parametrize("objective", ["coverage", "ivm"])
@pytest.mark.parametrize("t", [0, -1, pytest.param(2, id="repeated"), pytest.param(1, id="decreasing")])
@pytest.mark.parametrize("name", sorted(STEP_CONSTRUCTORS))
def test_step_rejects_nonpositive_timestep(name, t, objective):
    # the id is the timestep, so nothing arrives before t = 1, and each
    # arrival comes after the last: after 1 and 2, a second 2 or a 1 is
    # refused. ``step`` refuses it itself, before it changes any state, even
    # where it calls no oracle (PrioritySample).
    if objective == "coverage":
        oracle = CoverageOracle(set_store((1,), (2,)))
    else:
        oracle = IVMOracle(vec_store([[0.0], [1.0]]), KernelParams(0.75, 1.0))
    alg = STEP_CONSTRUCTORS[name](2, oracle)
    for s in range(1, 3) if t > 0 else ():
        alg.step(s)
    before = answer(alg), alg.retained_count()
    with pytest.raises(ValueError):
        alg.step(t)
    assert (answer(alg), alg.retained_count()) == before


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP: Grids that follow the stream")
@pytest.mark.parametrize("k,sigma", [(1, 1.0), (5, 3.0)])
def test_small_ivm_optimum_is_not_lost(k, sigma):
    # Every ivm window optimum here is below 1, the lowest grid threshold,
    # so the sieves admit nothing and report utility 0 where greedy reaches
    # about 0.35 (k=1) and 0.26 (k=5, sigma=3).
    eps = 0.2

    def final_utility(algorithm):
        config = RunConfig(
            objective="ivm", algorithm=algorithm, k=k, window=200, epsilon=eps, sigma=sigma,
            format="synth-vec", synth_n=600, query_every=200, seed=0,
        )
        return run_benchmark(config)[-1].utility

    greedy = final_utility("greedy")
    for algorithm in ("sw-rd", "sw-dp", "sieve-naive"):
        assert final_utility(algorithm) >= (1 - eps) / 2 * greedy, algorithm


def table(dp):
    """(levels, sets) of a ``SlidingWindowDP`` whose one run spans its grid."""
    (run,) = runs(dp)
    return run.levels, [h.ids for h in run.handles]


def per_threshold_tables(dp):
    """(levels, sets) of every threshold, read off a ``SlidingWindowDP``'s runs."""
    return [(run.levels, [h.ids for h in run.handles]) for run in runs(dp) for _ in range(run.lo, run.hi)]


def reference_tables(ref):
    """(levels, sets) of every threshold of a ``ThresholdTables``."""
    return [(levels, sets) for levels, sets, _, _ in ref.tables]


class TestThresholdGreedy:
    """The threshold-greedy level tables of ``SlidingWindowDP``."""

    def test_hand_trace(self):
        # Every gain is 1, at or above each threshold 0.25, 0.5 and 1 of
        # k=2, eps=1, M=1, so the grid stays one run.
        store = set_store((0,), (1,), (2,))
        oracle = CoverageOracle(store)
        dp = SlidingWindowDP(2, 2, 1.0, oracle)
        ref = ThresholdTables(2, 2, 1.0, oracle)
        assert thresholds(dp) == ref.thresholds == [0.25, 0.5, 1.0]
        for t in (1, 2):
            dp.step(t)
            ref.step(t)
        assert table(dp)[0] == [2, 2, 1]
        assert table(dp)[1][2] == [1, 2]
        dp.step(3)  # level-2 start expired, rebuilt from level 1
        ref.step(3)
        assert table(dp)[0] == [3, 3, 2]
        assert table(dp)[1][2] == [2, 3]
        assert answer(dp) == ref.query() == ([2, 3], 2.0)
        assert per_threshold_tables(dp) == reference_tables(ref)

    def test_no_double_insertion(self):
        # The first arrival's gain of 2 passes every threshold (0.25 .. 2 at
        # k=2, eps=1, M=2), so the grid stays one run.
        store = set_store((0, 1), (0, 1))
        oracle = CoverageOracle(store)
        dp = SlidingWindowDP(2, 5, 1.0, oracle)
        ref = ThresholdTables(2, 5, 1.0, oracle)
        dp.step(1)
        ref.step(1)
        dp.step(2)  # duplicate payload: marginal 0 < T at level 1
        ref.step(2)
        assert table(dp)[1][1] in ([1], [2])
        assert all(len(set(s)) == len(s) for s in table(dp)[1])
        assert per_threshold_tables(dp) == reference_tables(ref)

    def test_level_invariants_random_streams(self):
        for seed in range(60):
            store = gen_set_stream(40, 20, 5, seed=seed)
            oracle = CoverageOracle(store)
            k = 3
            dp = SlidingWindowDP(k, 8, 0.2, oracle)
            ref = ThresholdTables(k, 8, 0.2, oracle)
            for t in range(1, len(store) + 1):
                dp.step(t)
                ref.step(t)
                for levels, sets in per_threshold_tables(dp):
                    active = [lv for lv in levels if lv != -1]
                    assert active == sorted(active, reverse=True)
                    for j in range(k + 1):
                        if levels[j] != -1:
                            assert len(sets[j]) == j
                            assert all(ts >= levels[j] > t - 8 for ts in sets[j])
                assert per_threshold_tables(dp) == reference_tables(ref)
                assert answer(dp) == ref.query()

    def test_thresholds_share_tables_as_runs(self):
        # At k=2, eps=1 and M=3 the thresholds are 0.25, 0.5, 1, 2 and 4.
        # Gains of 1, 2 and 3 pass a prefix of the grid, so the thresholds
        # part into runs; the lower two runs rejoin at the third arrival,
        # when their tables agree again, and part at the fourth.
        store = set_store((0,), (1, 2), (3, 4, 5), (6,), (7,))
        oracle = CoverageOracle(store)
        dp = SlidingWindowDP(2, 2, 1.0, oracle)
        ref = ThresholdTables(2, 2, 1.0, oracle)
        assert thresholds(dp) == ref.thresholds == [0.25, 0.5, 1.0, 2.0, 4.0]
        spans = []
        for t in range(1, len(store) + 1):
            dp.step(t)
            ref.step(t)
            spans.append([[run.lo, run.hi] for run in runs(dp)])
            assert answer(dp) == ref.query()
            assert dp.retained_count() == ref.retained_count()
            assert per_threshold_tables(dp) == reference_tables(ref)
        assert spans == [
            [[0, 3], [3, 5]],
            [[0, 3], [3, 4], [4, 5]],
            [[0, 4], [4, 5]],
            [[0, 3], [3, 4], [4, 5]],
            [[0, 3], [3, 4], [4, 5]],
        ]


class TestSlidingWindowDP:
    def test_grid_example(self):
        dp = SlidingWindowDP(2, 1, 1.0, ScriptedOracle({}, max_singleton=2.0))
        assert thresholds(dp) == [0.25, 0.5, 1.0, 2.0]

    def test_grid_minimal(self):
        assert thresholds(SlidingWindowDP(1, 1, 1.0, ScriptedOracle({}, max_singleton=1.0))) == [0.5, 1.0]

    def test_grid_brackets_every_optimum(self):
        for m, eps, k in [(4.0, 1.0, 2), (50.0, 0.2, 3), (7.5, 0.1, 5)]:
            grid = thresholds(SlidingWindowDP(k, 1, eps, ScriptedOracle({}, max_singleton=m / k)))
            samples = [1.0 + i * (m - 1.0) / 199 for i in range(200)]
            for opt in samples:
                lo, hi = opt / (2 * k), (1 + eps) * opt / (2 * k)
                assert any(lo <= t <= hi for t in grid)

    def test_query_trace(self):
        store = set_store((0,), (1,), (2,))
        dp = SlidingWindowDP(2, 2, 1.0, CoverageOracle(store))
        assert thresholds(dp) == [0.25, 0.5, 1.0]
        for t in range(1, len(store) + 1):
            dp.step(t)
        solution, value = answer(dp)
        assert solution == [2, 3]
        assert value == 2.0

    def test_query_before_any_item(self):
        dp = SlidingWindowDP(2, 3, 1.0, CoverageOracle(set_store((1,))))
        assert answer(dp) == ([], 0.0)

    def test_query_with_only_level_zero_active(self):
        # empty sets gain 0, below every threshold: nothing ever passes, so
        # only the empty level-0 restart is active
        store = set_store((), ())
        dp = SlidingWindowDP(2, 3, 1.0, CoverageOracle(store))
        for t in range(1, len(store) + 1):
            dp.step(t)
        levels, _ = table(dp)
        assert levels[0] == 2
        assert all(lv == -1 for lv in levels[1:])
        assert answer(dp) == ([], 0.0)

    def test_guarantee_mini(self):
        eps, k, w = 0.2, 2, 12
        for seed in range(25):
            store = gen_set_stream(40, 25, 5, seed=seed)
            oracle = CoverageOracle(store)
            dp = SlidingWindowDP(k, w, eps, oracle)
            for t in range(1, len(store) + 1):
                dp.step(t)
                if t % 8 == 0:
                    members = window_ids(t, w)
                    _, opt = brute_force_opt(members, k, store)
                    assert answer(dp)[1] >= (1 - eps) / 2 * opt - 1e-9


class TestSieveNaive:
    def test_matches_sieve_without_expiry(self):
        for seed in range(30):
            store = gen_set_stream(30, 20, 5, seed=seed)
            oracle = CoverageOracle(store)
            naive = SieveNaive(3, 30, 0.2, oracle)  # n <= W: nothing expires
            plain = SieveStream(3, 0.2, oracle)
            assert thresholds(naive) == thresholds(plain)
            for t in range(1, len(store) + 1):
                naive.step(t)
                plain.step(t)
                assert answer(naive) == answer(plain)
            assert level_buffers(naive) == level_buffers(plain)

    def test_expiry_happens_before_condition(self):
        store = set_store((0, 1), (5,), (0, 1))
        naive = SieveNaive(1, 2, 1.0, CoverageOracle(store))
        assert thresholds(naive) == [1.0, 2.0]
        naive.step(1)
        assert level_buffers(naive)[0] == [1]
        naive.step(2)
        naive.step(3)  # item 1 expires first, so the duplicate payload enters
        assert 1 not in level_buffers(naive)[0]

    def test_no_expired_items_after_any_step(self):
        w = 10
        for seed in range(40):
            store = gen_set_stream(50, 20, 5, seed=seed)
            naive = SieveNaive(3, w, 0.2, CoverageOracle(store))
            for t in range(1, len(store) + 1):
                naive.step(t)
                for buf in level_buffers(naive):
                    assert all(ts > t - w for ts in buf)


class TestSieveGreedy:
    def test_zero_sampling_matches_naive_on_unique_gain_streams(self):
        for seed in range(20):
            store = unique_tail_stream(40, seed)
            oracle = CoverageOracle(store)
            sg = SieveGreedy(3, 12, 0.2, oracle, sample_c=0.0, seed=seed)
            naive = SieveNaive(3, 12, 0.2, oracle)
            for t in range(1, len(store) + 1):
                sg.step(t)
                naive.step(t)
                assert not sg.samples
                assert [set(b) for b in level_buffers(sg)] == [set(b) for b in level_buffers(naive)]
                assert answer(sg)[1] == answer(naive)[1]

    def test_full_sampling_keeps_whole_window(self):
        w = 6
        store = gen_set_stream(25, 15, 4, seed=2)
        sg = SieveGreedy(2, w, 0.5, CoverageOracle(store), sample_c=float(w), seed=0)
        for t in range(1, len(store) + 1):
            sg.step(t)
            assert sg.samples == list(range(max(1, t - w + 1), t + 1))

    def test_sampling_rate_concentrates(self):
        store = DatasetStore("sets", sets=[(t % 7,) for t in range(10**4)])
        sg = SieveGreedy(1, 2000, 0.5, CoverageOracle(store), sample_c=20.0, seed=123)
        sampled = 0
        for t in range(1, len(store) + 1):
            sg.step(t)
            sampled += sg.samples[-1:] == [t]
        fraction = sampled / 10**4
        assert 0.008 <= fraction <= 0.012

    def test_repair_accepts_thin_sample_buffer(self):
        # one buffered item expires with an empty B: repair to size 0 succeeds
        store = set_store((0, 1), (5,), (6,))
        sg = SieveGreedy(1, 2, 1.0, CoverageOracle(store), sample_c=0.0, seed=0)
        for t in range(1, len(store) + 1):
            sg.step(t)
        for buf in level_buffers(sg):
            assert all(ts > 1 for ts in buf)

    def test_no_expired_items_after_any_step(self):
        w = 9
        for seed in range(20):
            store = gen_set_stream(50, 20, 5, seed=seed)
            sg = SieveGreedy(3, w, 0.2, CoverageOracle(store), sample_c=4.0, seed=seed)
            for t in range(1, len(store) + 1):
                sg.step(t)
                for buf in level_buffers(sg):
                    assert all(ts > t - w for ts in buf)
                assert all(ts > t - w for ts in sg.samples)

    def test_deterministic_given_seed(self):
        store = gen_set_stream(60, 20, 5, seed=4)

        def trace(seed):
            sg = SieveGreedy(3, 10, 0.2, CoverageOracle(store), sample_c=5.0, seed=seed)
            out = []
            for t in range(1, len(store) + 1):
                sg.step(t)
                out.append(answer(sg))
            return out

        assert trace(11) == trace(11)
        assert trace(11) != trace(12)  # sampling actually depends on the seed


IDLE_SIEVES = {
    "SieveStream": lambda oracle: SieveStream(3, 0.2, oracle),
    "SieveNaive": lambda oracle: SieveNaive(3, 100, 0.2, oracle),
    "SieveGreedy": lambda oracle: SieveGreedy(3, 100, 0.2, oracle, sample_c=4.0, seed=2),
}


@pytest.mark.parametrize("name", sorted(IDLE_SIEVES))
def test_idle_arrival_runs_no_pass(name):
    # An arrival that meets no buffer with room and expires no member can
    # change nothing, so it runs neither the expiry nor the admission pass.
    # Every other arrival runs the admission pass.
    store = gen_set_stream(300, 40, 6, seed=5)
    sieve = IDLE_SIEVES[name](CoverageOracle(store))
    passes = []

    def counted(method):
        run_pass = getattr(sieve, method)

        def counting(*args):
            passes.append(method)
            return run_pass(*args)

        return counting

    for method in ("_expire", "_admit"):
        if hasattr(sieve, method):
            setattr(sieve, method, counted(method))
    idle = 0
    for t in range(1, len(store) + 1):
        horizon = t - getattr(sieve, "window", t)  # a SieveStream expires nothing
        members = [min(run.handle.ids) for run in runs(sieve) if run.handle.ids]
        is_idle = all(len(run.handle.ids) == sieve.k for run in runs(sieve)) and min(members) > horizon
        passes.clear()
        sieve.step(t)
        assert (passes == []) == is_idle, t
        idle += is_idle
    assert idle > len(store) // 2


def _tie_priorities(rng: random.Random, grain: int) -> None:
    """Round ``rng``'s draws down to multiples of 1/grain, so priorities tie."""
    draw = rng.random
    rng.random = lambda: math.floor(draw() * grain) / grain


class TestPrioritySample:
    def test_small_window_keeps_everything(self):
        store = gen_set_stream(20, 10, 3, seed=1)
        ps = PrioritySample(6, 6, CoverageOracle(store), seed=0)
        for t in range(1, len(store) + 1):
            ps.step(t)
            lo = max(1, t - 5)
            ids, _ = answer(ps)
            assert ids == list(range(lo, t + 1))

    def test_k1_retains_suffix_minima(self):
        store = gen_set_stream(40, 10, 3, seed=2)
        ps = PrioritySample(1, 15, CoverageOracle(store), seed=5)
        for t in range(1, len(store) + 1):
            ps.step(t)
            priorities = {t: p for t, p, _ in ps.candidates}
            chain = [p for _, p, _ in ps.candidates]
            assert chain == sorted(chain)  # suffix minima decrease toward the front
            ids, _ = answer(ps)
            assert len(ids) == 1
            assert priorities[ids[0]] == min(chain)

    def test_retention_rule_matches_definition(self):
        # replay priorities independently and check the domination rule exactly
        store = gen_set_stream(60, 10, 3, seed=3)
        k, w, seed = 2, 12, 9
        rng = random.Random(seed)
        priorities = {t: rng.random() for t in range(1, 61)}
        ps = PrioritySample(k, w, CoverageOracle(store), seed=seed)
        for t in range(1, len(store) + 1):
            ps.step(t)
            members = window_ids(t, w)
            expected = [
                s
                for s in members
                if sum(1 for u in members if u > s and priorities[u] < priorities[s]) < k
            ]
            assert [s for s, _, _ in ps.candidates] == expected
            ids, _ = answer(ps)
            want = sorted(sorted(members, key=priorities.get)[:k])
            assert ids == want

    @settings(max_examples=150, deadline=None)
    @given(
        steps=st.lists(st.tuples(st.integers(1, 3), st.booleans()), min_size=1, max_size=60),
        k=st.integers(1, 8),
        window=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        grain=st.sampled_from([None, 2, 5]),
    )
    @example(steps=[(1, True)] * 60, k=1, window=15, seed=5, grain=None)  # k = 1
    @example(steps=[(1, True)] * 60, k=8, window=6, seed=1, grain=None)  # k >= W: nothing is ever evicted
    @example(steps=[(1, True)] * 20, k=3, window=40, seed=2, grain=None)  # W >= n: nothing ever expires
    def test_incremental_eviction_matches_rebuild(self, steps, k, window, seed, grain):
        # Counting beaters as they arrive keeps exactly the candidates that
        # re-deriving every candidate's fate after each arrival keeps. Each
        # step is a gap to the next timestep (a gap can expire several
        # candidates at once) and whether it is queried, so the kept answer
        # must last through runs of arrivals with no query. With a grain,
        # priorities are rounded down to multiples of 1/grain, so they tie.
        timesteps = list(itertools.accumulate(gap for gap, _ in steps))
        oracle = CoverageOracle(gen_set_stream(timesteps[-1], 30, 4, seed=seed % 1000))
        ps = PrioritySample(k, window, oracle, seed=seed)
        ref = RebuildPrioritySample(k, window, oracle, seed=seed)
        if grain:
            _tie_priorities(ps._rng, grain)
            _tie_priorities(ref._rng, grain)
        answered = None  # the ids the last query returned
        for t, (_, queried) in zip(timesteps, steps):
            ps.step(t)
            ref.step(t)
            assert [(t, p) for t, p, _ in ps.candidates] == ref.candidates, t
            # every arrival that beat a survivor is a survivor too
            for i, (_, p, beaten) in enumerate(ps.candidates):
                assert beaten == sum(q < p for _, q, _ in ps.candidates[i + 1 :]) < k, t
            # the answer is kept exactly while the k smallest priorities stay
            sample = ref.query()
            assert (ps._answer is not None) == (sample[0] == answered), t
            if queried:
                assert answer(ps) == sample, t
                answered = sample[0]
            assert ps.retained_count() == ref.retained_count(), t

    def test_query_value_uses_oracle(self):
        store = set_store((1, 2), (2, 3))
        oracle = CoverageOracle(store)
        ps = PrioritySample(2, 5, oracle, seed=0)
        for t in range(1, len(store) + 1):
            ps.step(t)
        ids, value = answer(ps)
        assert ids == [1, 2]
        assert value == 3.0
        assert oracle.calls == 1

    def test_empty_query(self):
        ps = PrioritySample(2, 5, CoverageOracle(set_store((1,))), seed=0)
        assert answer(ps) == ([], 0.0)

    @pytest.mark.parametrize("objective", ["coverage", "ivm"])
    def test_kept_value_costs_one_call_and_no_evaluation(self, objective):
        # A query after a drop evaluates the new sample; a kept answer
        # returns the kept value and is charged as a memo hit is.
        if objective == "coverage":
            store = gen_set_stream(200, 30, 4, seed=1)
            counting, measure = CoverageOracle(store), CoverageOracle(store)
        else:
            store = gen_drift_vectors(200, 4, 3, 50, seed=1)
            counting, measure = (IVMOracle(store, KernelParams(0.75, 1.0)) for _ in range(2))
        ps = PrioritySample(3, 20, counting, seed=2)
        assert answer(ps) == ([], 0.0) and counting.calls == 0
        drops = kept = 0
        for t in range(1, len(store) + 1):
            ps.step(t)
            dropped = ps._answer is None
            calls, evaluations = counting.calls, counting.evaluations
            ids, value = answer(ps)
            assert ids and value == score(measure, ids), t
            assert counting.calls == calls + 1, t
            assert counting.evaluations == evaluations + dropped, t
            drops += dropped
            kept += not dropped
        assert drops > 10 and kept > 10


def test_handles_track_their_sets():
    # Every buffer's or level's handle must describe exactly its id list,
    # through sieve expiry rebuilds, greedy repairs and level hand-offs.
    for seed in range(10):
        store = gen_set_stream(60, 25, 5, seed=seed)
        oracle = CoverageOracle(store)
        naive = SieveNaive(3, 9, 0.2, oracle)
        greedy = SieveGreedy(3, 9, 0.2, oracle, sample_c=4.0, seed=seed)
        dp = SlidingWindowDP(3, 9, 0.2, oracle)
        for t in range(1, len(store) + 1):
            pairs = []
            for alg in (naive, greedy):
                alg.step(t)
                pairs += [(run.handle.ids, run.handle) for run in runs(alg)]
            dp.step(t)
            for run in runs(dp):
                pairs += [(handle.ids, handle) for handle in run.handles]
            for ids, handle in pairs:
                for probe in (1, t, 60):
                    assert handle.gain(probe) == score(oracle, ids + [probe]) - score(oracle, ids)


def _recount(alg) -> int:
    """Retained item references, counted from the algorithm's buffers."""
    if isinstance(alg, SlidingWindowReduction):
        return sum(_recount(inst.alg) for inst in alg.instances)
    if isinstance(alg, SlidingWindowDP):
        return sum((run.hi - run.lo) * len(h.ids) for run in runs(alg) for h in run.handles)
    if isinstance(alg, PrioritySample):
        return len(alg.candidates)
    samples = len(alg.samples) if isinstance(alg, SieveGreedy) else 0
    return sum(len(buf) for buf in level_buffers(alg)) + samples


def test_running_retained_count_matches_recount():
    # The running counts must follow sieve admissions, level hand-offs,
    # naive expiry, greedy repair and sampling after every single step.
    store = gen_set_stream(80, 25, 5, seed=4)
    oracle = CoverageOracle(store)
    algs = {
        "sw-rd": sieve_reduction(3, 9, 0.2, oracle),
        "sw-dp": SlidingWindowDP(3, 9, 0.2, oracle),
        "sieve-naive": SieveNaive(3, 9, 0.2, oracle),
        "sieve-greedy": SieveGreedy(3, 9, 0.2, oracle, sample_c=4.0, seed=4),
        "random": PrioritySample(3, 9, oracle, seed=4),
    }
    for t in range(1, len(store) + 1):
        for name, alg in algs.items():
            alg.step(t)
            assert alg.retained_count() == _recount(alg), (name, t)


@pytest.mark.parametrize("objective", ["coverage", "ivm"])
@pytest.mark.parametrize("epsilon", [0.05, 0.5])
def test_reduction_retained_total_matches_recount(objective, epsilon):
    # ``prune`` sums the survivors' counts as it keeps them, and ``step``
    # ends with a prune; a recount from the buffers and from the instances
    # agrees after every arrival, while prunes drop instances.
    if objective == "coverage":
        store = gen_set_stream(150, 25, 5, seed=8)
        oracle = CoverageOracle(store)
    else:
        store = gen_drift_vectors(150, 3, 3, 20, seed=8)
        oracle = IVMOracle(store, KernelParams(sigma=0.3))
    window = 40
    red = sieve_reduction(3, window, epsilon, oracle)
    pruned = 0
    for t in range(1, len(store) + 1):
        red.step(t)
        assert red.retained_count() == _recount(red) == sum(i.alg.retained_count() for i in red.instances), t
        pruned += len(red.instances) < min(t, window)
    assert pruned > 0


def test_harness_peak_is_running_max_of_recount():
    # Each record's peak_items is the maximum retained count over every
    # arrival so far, not only over the recorded ones; the rerun baselines
    # take it over every window they rerun.
    n, k, w, seed = 60, 3, 9, 6
    store = gen_set_stream(n, 25, 5, seed=seed)
    oracle = CoverageOracle(store)
    algs = {
        "sw-rd": sieve_reduction(k, w, 0.2, oracle),
        "sw-dp": SlidingWindowDP(k, w, 0.2, oracle),
        "sieve-naive": SieveNaive(k, w, 0.2, oracle),
        "sieve-greedy": SieveGreedy(k, w, 0.2, oracle, sample_c=4.0, seed=seed),
        "random": PrioritySample(k, w, oracle, seed=seed),
    }
    expected = {name: [] for name in ("greedy", "sieve", *algs)}
    peaks = dict.fromkeys(expected, 0)
    for t in range(1, len(store) + 1):
        for name, alg in algs.items():
            alg.step(t)
            peaks[name] = max(peaks[name], _recount(alg))
        members = window_ids(t, w)
        peaks["greedy"] = max(peaks["greedy"], len(members))
        sieve = SieveStream(k, 0.2, oracle)
        for m in members:
            sieve.step(m)
            peaks["sieve"] = max(peaks["sieve"], _recount(sieve))
        for name, peak in peaks.items():
            expected[name].append(peak)
    for name, peak_trace in expected.items():
        config = RunConfig(
            objective="coverage", algorithm=name, k=k, window=w, epsilon=0.2, sample_c=4.0,
            query_every=1, seed=seed, format="sets", input="unused",
        )
        records = run_benchmark(config, store=store)
        assert [r.peak_items for r in records] == peak_trace, name


def test_running_best_level_matches_scan():
    # Queries must report the best level, the lowest one on ties, after
    # admissions, naive expiry and greedy repair at every single step. Sets
    # from a small universe give many equal values on different levels.
    # The ivm sigma makes every singleton worth 1, so the ivm grid tops at
    # k * 1 = 4 and has 9 levels; with sigma = 1 it would have only 3.
    coverage = gen_set_stream(80, 10, 3, seed=5)
    vectors = gen_drift_vectors(80, 3, 3, 20, seed=4)
    oracles = {
        "coverage": CoverageOracle(coverage),
        "ivm": IVMOracle(vectors, KernelParams(sigma=(math.e**2 - 1) ** -0.5)),
    }
    assert len(thresholds(SieveStream(4, 0.2, oracles["ivm"]))) == 9
    for objective, oracle in oracles.items():
        algs = {
            "sieve": SieveStream(4, 0.2, oracle),
            "sieve-naive": SieveNaive(4, 9, 0.2, oracle),
            "sieve-greedy": SieveGreedy(4, 9, 0.2, oracle, sample_c=4.0, seed=5),
        }
        for t in range(1, len(coverage) + 1):
            for name, alg in algs.items():
                alg.step(t)
                assert answer(alg) == scan_answer(alg), (objective, name, t)


@st.composite
def reference_streams(draw):
    """A maker of fresh small oracles on one store, and the stream length:
    coverage, or ivm with repeated points and a noise scale log-uniform in
    [1e-3, 1e3]."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        payloads = draw(st.lists(st.frozensets(st.integers(0, 24), max_size=8), min_size=n, max_size=n))
        return partial(CoverageOracle, set_store(*payloads)), n
    pool = np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=(5, 3))
    rows = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    sigma = 10.0 ** draw(st.floats(-3.0, 3.0))
    return partial(IVMOracle, vec_store(pool[rows]), KernelParams(sigma=sigma)), n


RUN_AND_REFERENCE = {
    "sieve": lambda k, w, eps, c, o: (SieveStream(k, eps, o), LevelSieve(k, eps, o)),
    "sieve-naive": lambda k, w, eps, c, o: (SieveNaive(k, w, eps, o), LevelSieve(k, eps, o, window=w)),
    "sieve-greedy": lambda k, w, eps, c, o: (
        SieveGreedy(k, w, eps, o, sample_c=c, seed=w),
        LevelSieve(k, eps, o, window=w, sample_c=c, seed=w),
    ),
    "sw-dp": lambda k, w, eps, c, o: (
        SlidingWindowDP(k, w, eps, o),
        ThresholdTables(k, w, eps, o),
    ),
}


@pytest.mark.parametrize("objective", ["coverage", "ivm"])
@pytest.mark.parametrize("name", sorted(RUN_AND_REFERENCE))
def test_gapped_timesteps_match_per_level_reference(name, objective):
    # Timesteps may skip some, and then one step can expire several members
    # of a buffer: at W=4, arrival 10 expires 1, 2 and 3 at once.
    n = 40
    if objective == "coverage":
        store = gen_set_stream(n, 12, 4, seed=9)
        run_counter, ref_counter = CoverageOracle(store), CoverageOracle(store)
    else:
        store = gen_drift_vectors(n, 3, 3, 10, seed=9)
        run_counter, ref_counter = (IVMOracle(store, KernelParams(sigma=0.3)) for _ in range(2))
    alg, _ = RUN_AND_REFERENCE[name](3, 4, 0.2, 4.0, run_counter)
    _, ref = RUN_AND_REFERENCE[name](3, 4, 0.2, 4.0, ref_counter)
    for t in (1, 2, 3, 10, 11, 12, 13, 20, 22, 24, 31, 32, 33, 34, 40):
        alg.step(t)
        ref.step(t)
        assert answer(alg) == ref.query(), t
        assert alg.retained_count() == ref.retained_count(), t
        assert run_counter.calls == ref_counter.calls, t


@pytest.mark.parametrize("name", sorted(RUN_AND_REFERENCE))
@settings(max_examples=60, deadline=None)
@given(
    stream=reference_streams(),
    k=st.integers(1, 4),
    window=st.integers(1, 12),
    epsilon=st.sampled_from([0.1, 0.2, 0.5, 1.0]),
    sample_c=st.sampled_from([0.0, 1.0, 4.0]),
)
def test_runs_match_per_level_reference(name, stream, k, window, epsilon, sample_c):
    # Runs change no output and no logical count: after every arrival the
    # run-based algorithm reports what the per-level loop reports, holds as
    # many references and has been charged as many oracle calls.
    make, n = stream
    run_counter, ref_counter = make(), make()
    alg, _ = RUN_AND_REFERENCE[name](k, window, epsilon, sample_c, run_counter)
    _, ref = RUN_AND_REFERENCE[name](k, window, epsilon, sample_c, ref_counter)
    for t in range(1, n + 1):
        alg.step(t)
        ref.step(t)
        assert answer(alg) == ref.query(), t
        assert alg.retained_count() == ref.retained_count(), t
        assert run_counter.calls == ref_counter.calls, t


@settings(max_examples=80, deadline=None)
@given(
    stream=reference_streams(),
    k=st.integers(1, 4),
    window=st.integers(1, 12),
    epsilon=st.sampled_from([0.1, 0.2, 0.5, 1.0]),
    gaps=st.lists(st.integers(1, 3), min_size=1, max_size=40),
)
def test_active_levels_are_a_prefix_of_falling_starts(stream, k, window, epsilon, gaps):
    # SlidingWindowDP's query walks down from level k to each run's first
    # live level, which is its deepest one while a run's live levels form a
    # prefix whose starts do not increase with j. That holds after every
    # arrival and through gaps that expire several levels at once, and
    # there the tables and the answer match the per-threshold reference.
    make, n = stream
    dp = SlidingWindowDP(k, window, epsilon, make())
    ref = ThresholdTables(k, window, epsilon, make())
    for t in itertools.takewhile(lambda t: t <= n, itertools.accumulate(gaps)):
        dp.step(t)
        ref.step(t)
        for run in runs(dp):
            active = [start for start in run.levels if start != -1]
            assert run.levels == active + [-1] * (k + 1 - len(active)), t
            assert active == sorted(active, reverse=True), t
        assert per_threshold_tables(dp) == reference_tables(ref), t
        assert answer(dp) == scan_answer(dp) == ref.query(), t


@settings(max_examples=150, deadline=None)
@example(k=1, epsilon=0.2, top=0, window=3, picks=[(0, 0)])
@example(k=2, epsilon=1.0, top=1, window=3, picks=[(1, 0), (0, 0)])
@example(k=3, epsilon=0.1, top=30, window=5, picks=[(12, 0), (20, -1), (31, 1), (5, 0)])
@given(
    k=st.integers(1, 4),
    epsilon=st.sampled_from([0.05, 0.1, 0.2, 0.5, 1.0]),
    top=st.integers(0, 30),
    window=st.integers(1, 6),
    picks=st.lists(st.tuples(st.integers(-1, 32), st.sampled_from([-1, 0, 1])), min_size=1, max_size=6),
)
def test_bisect_cut_matches_linear_scan(k, epsilon, top, window, picks):
    # A run's cut comes from ``bisect`` over its exponents; the references
    # test every level's threshold in turn. Gains lie on a lattice
    # threshold ``(1+eps)**l / (2k)`` or one float step either side of it:
    # the sieve's strict rule at an empty buffer, ``gain > ((1+eps)**l / 2
    # - 0) / k``, fails on it, and sw-dp's ``gain >= (1+eps)**l / (2k)``
    # passes on it. Grids of one or two levels and runs split down to one
    # or two levels take the bisect's empty ranges.
    base = 1.0 + epsilon
    script = {}
    for t, (level, side) in enumerate(picks, start=1):
        gain = base**level / (2.0 * k)
        script[t] = math.nextafter(gain, side * math.inf) if side else gain
    oracle = ScriptedOracle(script, max_singleton=base**top / k)
    sieve, sieve_ref = SieveStream(k, epsilon, oracle), LevelSieve(k, epsilon, oracle)
    dp, dp_ref = SlidingWindowDP(k, window, epsilon, oracle), ThresholdTables(k, window, epsilon, oracle)
    assert thresholds(sieve) == sieve_ref.thresholds
    assert thresholds(dp) == dp_ref.thresholds
    for t in script:
        for alg, ref in ((sieve, sieve_ref), (dp, dp_ref)):
            alg.step(t)
            ref.step(t)
        assert level_buffers(sieve) == sieve_ref.buffers, t
        assert level_values(sieve) == sieve_ref.values, t
        assert per_threshold_tables(dp) == reference_tables(dp_ref), t
        assert dp.retained_count() == dp_ref.retained_count(), t
