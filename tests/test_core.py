import random

import pytest
from hypothesis import given, strategies as st

from swmax.core import (
    BestSoFar,
    CountingOracle,
    Item,
    Window,
    window_members,
)
from swmax.ingest import gen_set_stream
from swmax.objectives import CoverageOracle
from swmax.sliding import SieveNaive
from swmax.streaming import SieveStream

from conftest import set_store


class TestTypes:
    def test_item_rejects_nonpositive_timestep(self):
        with pytest.raises(ValueError):
            Item(0)

    def test_window_start_clamps_at_one(self):
        assert Window(2, 10).start == 1
        assert Window(5, 3).start == 3

    def test_window_validation(self):
        with pytest.raises(ValueError):
            Window(0, 3)
        with pytest.raises(ValueError):
            Window(3, 0)


class TestCountingOracle:
    def test_empty_eval_counts_one(self):
        oracle = CountingOracle(CoverageOracle(set_store((1, 2))))
        assert oracle.eval([]) == 0.0
        assert oracle.calls == 1

    def test_three_evals_count_three(self):
        oracle = CountingOracle(CoverageOracle(set_store((1, 2), (2, 3))))
        for _ in range(3):
            oracle.eval([1, 2])
        assert oracle.calls == 3

    def test_marginal_counts_one(self):
        oracle = CountingOracle(CoverageOracle(set_store((1, 2), (2, 3))))
        handle = oracle.empty().child(1)
        assert handle.gain(2) == 1.0
        assert oracle.calls == 1

    def test_wrapping_preserves_values(self):
        store = gen_set_stream(30, 20, 5, seed=7)
        inner = CoverageOracle(store)
        wrapped = CountingOracle(inner)
        rng = random.Random(7)
        for _ in range(100):
            ids = rng.sample(range(1, 31), rng.randint(0, 6))
            assert wrapped.eval(ids) == inner.eval(ids)
        assert wrapped.calls == 100

    def test_counter_matches_independent_tally(self):
        # SieveNaive issues gains, children, rebuilds after expiry and empty handles
        store = gen_set_stream(40, 20, 5, seed=3)
        tally = {"n": 0}

        class SpyHandle:
            def __init__(self, inner):
                self.inner = inner

            def gain(self, item_id):
                tally["n"] += 1
                return self.inner.gain(item_id)

            def child(self, item_id):
                return SpyHandle(self.inner.child(item_id))

        class Spy:
            def __init__(self, inner):
                self.inner = inner

            def eval(self, ids):
                tally["n"] += 1
                return self.inner.eval(ids)

            def empty(self):
                return SpyHandle(self.inner.empty())

            def rebuild(self, ids):
                tally["n"] += 1
                handle, value = self.inner.rebuild(ids)
                return SpyHandle(handle), value

            def max_singleton(self):
                return self.inner.max_singleton()

        counting = CountingOracle(CoverageOracle(store))
        naive = SieveNaive(3, 8, 0.2, Spy(counting))
        for item in store.items():
            naive.step(item)
        assert tally["n"] > 0
        assert counting.calls == tally["n"]

    def test_max_singleton_forwarded_uncounted(self):
        oracle = CountingOracle(CoverageOracle(set_store((1, 2, 3), (4,))))
        assert oracle.max_singleton() == 3.0
        assert (oracle.calls, oracle.evaluations) == (0, 0)

    def test_invalid_id_raises(self):
        oracle = CountingOracle(CoverageOracle(set_store((1, 2))))
        with pytest.raises(ValueError):
            oracle.eval([99])


class TestWindowMembers:
    def test_basic_interval(self):
        assert window_members(Window(5, 3), 10) == [3, 4, 5]

    def test_partial_first_window(self):
        assert window_members(Window(2, 10), 5) == [1, 2]

    def test_exact_boundary(self):
        w = 7
        assert window_members(Window(w, w), w) == list(range(1, w + 1))

    def test_end_beyond_stream_rejected(self):
        with pytest.raises(ValueError):
            window_members(Window(6, 3), 5)

    def test_accepts_sized_history(self):
        history = [Item(t) for t in range(1, 9)]
        assert window_members(Window(8, 4), history) == [5, 6, 7, 8]

    @given(end=st.integers(1, 500), size=st.integers(1, 500))
    def test_member_count(self, end, size):
        assert len(window_members(Window(end, size), end)) == min(size, end)


class _ScriptedAlg:
    """Replays a fixed value sequence; solution is the step index."""

    def __init__(self, values):
        self.values = list(values)
        self.i = 0

    def step(self, item):
        self.i += 1

    def query(self):
        return [self.i], self.values[self.i - 1]

    def retained_count(self):
        return 1


class TestMonotoneWrap:
    def test_running_max(self):
        wrapped = BestSoFar(_ScriptedAlg([1.0, 3.0, 2.0]))
        seen = []
        for t in range(1, 4):
            wrapped.step(Item(t))
            seen.append(wrapped.query()[1])
        assert seen == [1.0, 3.0, 3.0]
        assert wrapped.query()[0] == [2]  # the step that scored 3

    def test_constant_sequence_unchanged(self):
        wrapped = BestSoFar(_ScriptedAlg([2.0, 2.0, 2.0]))
        for t in range(1, 4):
            wrapped.step(Item(t))
            assert wrapped.query()[1] == 2.0

    @given(st.lists(st.floats(0, 1e6, allow_nan=False), min_size=1, max_size=30))
    def test_wrapped_sequence_non_decreasing(self, values):
        wrapped = BestSoFar(_ScriptedAlg(values))
        previous = 0.0
        for t in range(1, len(values) + 1):
            wrapped.step(Item(t))
            current = wrapped.query()[1]
            assert current >= previous
            previous = current

    def test_sieve_already_prefix_monotone(self):
        # wrapping a fixed-grid sieve must not change any reported value
        for seed in range(100):
            store = gen_set_stream(25, 15, 4, seed=seed)
            oracle = CoverageOracle(store)
            plain = SieveStream(3, 0.25, oracle)
            wrapped = BestSoFar(SieveStream(3, 0.25, oracle))
            for item in store.items():
                plain.step(item)
                wrapped.step(item)
                assert plain.query()[1] == wrapped.query()[1]
