import random
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

import swmax
from swmax.ingest import gen_set_stream
from swmax.core import SubmodularOracle
from swmax.objectives import CoverageOracle, IVMOracle
from swmax.sliding import SieveNaive
from swmax.streaming import SieveStream

from conftest import LevelSieve, UnionRecount, set_store
from reference import BestSoFar, answer, score, window_ids


def test_public_names_pinned():
    assert sorted(swmax.__all__) == [
        "CholState",
        "CoverageOracle",
        "DatasetStore",
        "IVMOracle",
        "KernelParams",
        "MetricsRecord",
        "OracleHandle",
        "ParseError",
        "PrioritySample",
        "RunConfig",
        "SieveGreedy",
        "SieveNaive",
        "SieveStream",
        "SlidingWindowDP",
        "SlidingWindowReduction",
        "SubmodularOracle",
        "gen_drift_vectors",
        "gen_set_stream",
        "greedy_select",
        "load_dense_csv",
        "load_set_stream",
        "normalize_columns_then_rows",
        "parse_cli",
        "run_benchmark",
        "sieve_reduction",
        "write_metrics_csv",
    ]


def _public_methods(cls) -> list[str]:
    return sorted(name for name, member in vars(cls).items() if callable(member) and not name.startswith("_"))


def test_oracle_protocol_pinned():
    # An oracle is its root, a rebuilt set, its bound and its two counts;
    # the shipped oracles define those methods and no others.
    assert sorted({*SubmodularOracle.__annotations__, *_public_methods(SubmodularOracle)}) == [
        "calls",
        "empty",
        "evaluations",
        "max_singleton",
        "rebuild",
    ]
    for cls in (CoverageOracle, IVMOracle):
        assert _public_methods(cls) == _public_methods(SubmodularOracle), cls


class TestTypes:
    """``window_ids``, the reference window every guarantee test checks against."""

    def test_window_start_clamps_at_one(self):
        assert window_ids(2, 10)[0] == 1
        assert window_ids(5, 3)[0] == 3


class TestCountingOracle:
    """An oracle counts its own calls and its handles' gains."""

    def test_empty_score_counts_one(self):
        oracle = CoverageOracle(set_store((1, 2)))
        assert score(oracle, []) == 0.0
        assert oracle.calls == 1

    def test_three_scores_count_three(self):
        oracle = CoverageOracle(set_store((1, 2), (2, 3)))
        for _ in range(3):
            score(oracle, [1, 2])
        assert oracle.calls == 3

    def test_marginal_counts_one(self):
        oracle = CoverageOracle(set_store((1, 2), (2, 3)))
        handle = oracle.empty().child(1)
        assert handle.gain(2) == 1.0
        assert oracle.calls == 1

    def test_counting_preserves_values(self):
        # counting changes no value: each equals an independent recount
        store = gen_set_stream(30, 20, 5, seed=7)
        oracle = CoverageOracle(store)
        recount = UnionRecount(store)
        rng = random.Random(7)
        for _ in range(100):
            ids = rng.sample(range(1, 31), rng.randint(0, 6))
            assert score(oracle, ids) == recount.value(ids)
        assert oracle.calls == 100

    def test_counter_matches_independent_tally(self):
        # The per-level SieveNaive issues gains, children, rebuilds after
        # expiry and empty handles, each through the spy; the run-based one
        # makes one call per run and charges the rest, so it must reach the
        # same count.
        store = gen_set_stream(40, 20, 5, seed=3)
        tally = {"n": 0}

        class SpyHandle:
            def __init__(self, inner):
                self.inner = inner
                self.value = inner.value

            def gain(self, item_id):
                tally["n"] += 1
                return self.inner.gain(item_id)

            def child(self, item_id):
                return SpyHandle(self.inner.child(item_id))

        class Spy:
            def __init__(self, inner):
                self.inner = inner

            def empty(self):
                return SpyHandle(self.inner.empty())

            def rebuild(self, ids):
                tally["n"] += 1
                return SpyHandle(self.inner.rebuild(ids))

            def max_singleton(self):
                return self.inner.max_singleton()

        counting = CoverageOracle(store)
        reference = LevelSieve(3, 0.2, Spy(counting), window=8)
        runs = CoverageOracle(store)
        naive = SieveNaive(3, 8, 0.2, runs)
        for t in range(1, len(store) + 1):
            reference.step(t)
            naive.step(t)
        assert tally["n"] > 0
        assert counting.calls == tally["n"]
        assert runs.calls == tally["n"]

    def test_max_singleton_forwarded_uncounted(self):
        oracle = CoverageOracle(set_store((1, 2, 3), (4,)))
        assert oracle.max_singleton() == 3.0
        assert (oracle.calls, oracle.evaluations) == (0, 0)

    def test_invalid_id_raises(self):
        oracle = CoverageOracle(set_store((1, 2)))
        with pytest.raises(ValueError):
            score(oracle, [99])


class TestWindowMembers:
    """``window_ids``: the ``size`` latest timesteps up to ``end``."""

    def test_basic_interval(self):
        assert window_ids(5, 3) == [3, 4, 5]

    def test_partial_first_window(self):
        assert window_ids(2, 10) == [1, 2]

    def test_exact_boundary(self):
        w = 7
        assert window_ids(w, w) == list(range(1, w + 1))

    @given(end=st.integers(1, 500), size=st.integers(1, 500))
    def test_member_count(self, end, size):
        assert len(window_ids(end, size)) == min(size, end)


class _ScriptedAlg:
    """Replays a fixed value sequence; the answer after step i is [i], and
    before the first step the empty one."""

    def __init__(self, values):
        self.answers = [SimpleNamespace(ids=[], value=0.0)]
        self.answers += [SimpleNamespace(ids=[i], value=v) for i, v in enumerate(values, start=1)]
        self.i = 0

    def step(self, t):
        self.i += 1

    def query(self):
        return self.answers[self.i]

    def retained_count(self):
        return 1


class TestMonotoneWrap:
    def test_running_max(self):
        wrapped = BestSoFar(_ScriptedAlg([1.0, 3.0, 2.0]))
        seen = []
        for t in range(1, 4):
            wrapped.step(t)
            seen.append(answer(wrapped)[1])
        assert seen == [1.0, 3.0, 3.0]
        assert answer(wrapped)[0] == [2]  # the step that scored 3

    def test_constant_sequence_unchanged(self):
        wrapped = BestSoFar(_ScriptedAlg([2.0, 2.0, 2.0]))
        for t in range(1, 4):
            wrapped.step(t)
            assert answer(wrapped)[1] == 2.0

    @given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=30))
    def test_wrapped_sequence_non_decreasing(self, values):
        wrapped = BestSoFar(_ScriptedAlg(values))
        previous = 0.0
        for t in range(1, len(values) + 1):
            wrapped.step(t)
            current = answer(wrapped)[1]
            assert current >= previous
            previous = current

    def test_sieve_already_prefix_monotone(self):
        # wrapping a fixed-grid sieve must not change any reported value
        for seed in range(100):
            store = gen_set_stream(25, 15, 4, seed=seed)
            oracle = CoverageOracle(store)
            plain = SieveStream(3, 0.25, oracle)
            wrapped = BestSoFar(SieveStream(3, 0.25, oracle))
            for t in range(1, len(store) + 1):
                plain.step(t)
                wrapped.step(t)
                assert answer(plain)[1] == answer(wrapped)[1]
