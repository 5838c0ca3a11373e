import math
import operator

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from swmax.ingest import (
    DatasetStore,
    ParseError,
    gen_drift_vectors,
    gen_set_stream,
    load_dense_csv,
    load_set_stream,
    normalize_columns_then_rows,
)
from swmax.objectives import CoverageOracle, IVMOracle, KernelParams
from swmax.streaming import greedy_select

from conftest import coverage_masks_per_element, load_set_stream_per_token
from reference import payload, window_ids, write_set_stream


class TestDenseCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        store = load_dense_csv(path)
        assert len(store) == 3 and store.vectors.shape[1] == 2
        assert list(payload(store, 2)) == [3.0, 4.0]

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1.5,2.5\n")
        store = load_dense_csv(path)
        assert len(store) == 1
        assert list(payload(store, 1)) == [1.5, 2.5]

    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        # a BOM before a numeric first row would make it non-numeric
        path = tmp_path / "d.csv"
        path.write_text("\ufeff1.0,2\n3,4\n", encoding="utf-8")
        assert load_dense_csv(path).vectors.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_byte_order_mark_before_a_header_skips_only_the_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("\ufeffx0,x1\n1,2\n3,4\n", encoding="utf-8")
        assert load_dense_csv(path).vectors.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_header_after_blank_line_skipped(self, tmp_path):
        # the header rule applies to the first non-empty row, not to line 1
        path = tmp_path / "d.csv"
        path.write_text("\nx0,x1\n1,2\n")
        assert load_dense_csv(path).vectors.tolist() == [[1.0, 2.0]]

    def test_second_non_numeric_row_is_no_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("\na,b\nc,d\n1,2\n")
        with pytest.raises(ParseError) as err:
            load_dense_csv(path)
        assert err.value.line_no == 3

    def test_line_after_multiline_field_reports_its_line(self, tmp_path):
        # the quoted field spans lines 2 and 3, so the bad row is on line 4
        path = tmp_path / "d.csv"
        path.write_text('1,2\n"3\n",4\nx,5\n')
        with pytest.raises(ParseError) as err:
            load_dense_csv(path)
        assert err.value.line_no == 4

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(ParseError) as err:
            load_dense_csv(path)
        assert err.value.line_no == 2

    def test_non_numeric_body_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\nx,6\n")
        with pytest.raises(ParseError) as err:
            load_dense_csv(path)
        assert err.value.line_no == 3

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_field_reports_line(self, tmp_path, field):
        path = tmp_path / "d.csv"
        path.write_text(f"a,b\n1,2\n3,{field}\n")
        with pytest.raises(ParseError, match="non-finite") as err:
            load_dense_csv(path)
        assert err.value.line_no == 3

    def test_non_finite_dropped_column_accepted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,nan\n3,4,inf\n")
        assert load_dense_csv(path, drop_columns=(2,)).vectors.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_drop_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,9\n3,4,9\n")
        store = load_dense_csv(path, drop_columns=(2,))
        assert store.vectors.shape[1] == 2
        assert list(payload(store, 1)) == [1.0, 2.0]

    @pytest.mark.parametrize("column", [1.5, 1.0])
    def test_non_integer_drop_column_rejected(self, tmp_path, column):
        # read by operator.index, as sizes and set elements are
        path = tmp_path / "d.csv"
        path.write_text("1,2,9\n3,4,9\n")
        with pytest.raises(TypeError):
            load_dense_csv(path, drop_columns=(column,))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_drop_column_outside_row_rejected(self, tmp_path, bad):
        path = tmp_path / "d.csv"
        path.write_text("1,2,9\n3,4,9\n")
        with pytest.raises(ValueError, match=f"drop column {bad} outside 0..2"):
            load_dense_csv(path, drop_columns=(0, bad))

    def test_dropping_every_column_rejected(self, tmp_path, capsys):
        # Zero-dimensional points are all one point; the CLI reports it as a
        # run error, since the width is known only once the file is read.
        from swmax.bench import main

        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        with pytest.raises(ValueError, match=r"drop columns \[0, 1\] leave none of the 2 columns"):
            load_dense_csv(path, drop_columns=(1, 0))
        code = main(["--objective", "ivm", "--algorithm", "sw-rd", "--k", "2", "--window", "3",
                     "--format", "csv", "--input", str(path), "--drop-columns", "0,1"])
        assert code == 1
        assert "drop columns [0, 1]" in capsys.readouterr().err

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1;2\n3;4\n")
        assert load_dense_csv(path, delimiter=";").vectors.shape[1] == 2

    def test_eeg_shaped_file(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "eeg.csv"
        data = rng.normal(size=(14980, 15))
        np.savetxt(path, data, delimiter=",", fmt="%.5f")
        store = load_dense_csv(path)
        assert len(store) == 14980
        assert store.vectors.shape[1] == 15


class TestNormalize:
    def test_single_row_goes_to_zero(self):
        store = DatasetStore("dense", vectors=np.array([[3.0, -1.0]]))
        out = normalize_columns_then_rows(store)
        assert np.all(out.vectors == 0.0)

    def test_hand_case(self):
        store = DatasetStore("dense", vectors=np.array([[0.0, 3.0], [4.0, 3.0], [2.0, 0.0]]))
        out = normalize_columns_then_rows(store).vectors
        s = 1 / math.sqrt(2)
        expected = np.array([[0.0, 1.0], [s, s], [1.0, 0.0]])
        assert np.allclose(out, expected, atol=1e-12)

    def test_rows_unit_norm(self):
        rng = np.random.default_rng(7)
        store = DatasetStore("dense", vectors=rng.normal(size=(40, 6)))
        out = normalize_columns_then_rows(store).vectors
        norms = np.linalg.norm(out, axis=1)
        nonzero = norms > 0
        assert np.all(np.abs(norms[nonzero] - 1.0) <= 1e-12)

    def test_identity_on_already_normalized_data(self):
        # fixed point: columns span [0, 1] exactly and rows are unit norm,
        # so the column step maps ranges to themselves and the row step is
        # the identity
        s = 1 / math.sqrt(2)
        fixed = np.array([[1.0, 0.0], [0.0, 1.0], [s, s]])
        store = DatasetStore("dense", vectors=fixed)
        out = normalize_columns_then_rows(store).vectors
        assert np.allclose(out, fixed, atol=1e-12)

    def test_second_row_step_is_identity(self):
        # one application leaves entries in [0, 1] and rows unit norm; rows
        # of a second application are rescaled by column spans and re-normalized,
        # so they stay unit norm
        rng = np.random.default_rng(8)
        store = DatasetStore("dense", vectors=rng.uniform(size=(30, 5)))
        once = normalize_columns_then_rows(store).vectors
        assert np.all(once >= 0.0) and np.all(once <= 1.0 + 1e-12)
        twice = normalize_columns_then_rows(DatasetStore("dense", vectors=once)).vectors
        norms = np.linalg.norm(twice, axis=1)
        assert np.all(np.abs(norms[norms > 0] - 1.0) <= 1e-12)

    def test_rejects_set_store(self):
        with pytest.raises(ValueError):
            normalize_columns_then_rows(DatasetStore("sets", sets=[(1,)]))


class TestSetStream:
    def test_dedup_and_empty_lines(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1 2 2 3\n\n7\n")
        store = load_set_stream(path)
        assert [payload(store, t) for t in (1, 2, 3)] == [(1, 2, 3), (), (7,)]

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("\ufeff1 2\n3\n", encoding="utf-8")
        store = load_set_stream(path)
        assert [payload(store, t) for t in (1, 2)] == [(1, 2), (3,)]

    def test_negative_token_reports_line(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1 2\n3 -4\n")
        with pytest.raises(ParseError) as err:
            load_set_stream(path)
        assert err.value.line_no == 2

    def test_non_integer_token_reports_line(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1 2\n3 x\n")
        with pytest.raises(ParseError) as err:
            load_set_stream(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize(
        "line,message",
        [("-1 x", "negative element -1"), ("x -1", "non-integer token 'x'"), ("4 -5 -6", "negative element -5")],
    )
    def test_error_names_first_bad_token(self, tmp_path, line, message):
        path = tmp_path / "s.txt"
        path.write_text(f"1 2\n{line}\n3\n")
        with pytest.raises(ParseError) as err:
            load_set_stream(path)
        assert err.value.line_no == 2
        assert str(err.value) == f"{path}:2: {message}"

    def test_day_of_seconds_loads(self, tmp_path):
        path = tmp_path / "day.txt"
        with open(path, "w") as fh:
            for t in range(86400):
                fh.write(f"{t % 97} {(t * 7) % 31}\n")
        store = load_set_stream(path)
        assert len(store) == 86400

    def test_round_trip(self, tmp_path):
        store = gen_set_stream(50, 30, 6, seed=5)
        path = tmp_path / "rt.txt"
        write_set_stream(store, path)
        back = load_set_stream(path)
        assert len(back) == len(store)
        for t in range(1, 51):
            assert payload(back, t) == payload(store, t)


ELEMENT = st.one_of(st.integers(0, 6), st.integers(0, 10**12))
TOKEN = st.one_of(ELEMENT.map(str), ELEMENT.map("+{}".format), ELEMENT.map("{:04d}".format))
BAD_TOKEN = st.sampled_from(["-1", "-0x1", "x", "1.5", "+-2", "-12"])
GAP = st.sampled_from([" ", "\t", "  ", " \t "])


@st.composite
def set_stream_text(draw, bad: bool) -> str:
    lines = []
    for tokens in draw(st.lists(st.lists(TOKEN, max_size=8), max_size=12)):
        if bad and draw(st.integers(0, 5)) == 0:
            for _ in range(draw(st.integers(1, 2))):
                tokens.insert(draw(st.integers(0, len(tokens))), draw(BAD_TOKEN))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + draw(GAP).join(tokens) + draw(st.sampled_from(["", " "])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def outcome(load, path):
    try:
        return load(path)
    except ParseError as exc:
        return exc.line_no, str(exc)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.booleans().flatmap(set_stream_text))
def test_set_path_matches_per_token_reference(tmp_path, text):
    path = tmp_path / "s.txt"
    path.write_text(text, encoding="utf-8")
    expected = outcome(load_set_stream_per_token, path)
    store = outcome(load_set_stream, path)
    if isinstance(expected, tuple):
        assert store == expected
        return
    assert list(store.sets) == expected
    masks, biggest = coverage_masks_per_element(DatasetStore("sets", sets=expected))
    oracle = CoverageOracle(store)
    assert oracle._masks == masks
    assert oracle.max_singleton() == biggest


def assert_canonical(store) -> None:
    """Every set of ``store`` is a strictly increasing tuple of exact ``int``s."""
    for s in store.sets:
        assert type(s) is tuple and all(type(e) is int for e in s)
        assert all(a < b for a, b in zip(s, s[1:])), s


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=set_stream_text(bad=False))
def test_loaded_sets_are_canonical(tmp_path, text):
    # The loader hands its sets to the store as they are, past the
    # constructor's operator.index, so their form is checked here.
    path = tmp_path / "s.txt"
    path.write_text(text, encoding="utf-8")
    store = load_set_stream(path)
    assert_canonical(store)
    with open(path, encoding="utf-8") as fh:
        lines = [line.split() for line in fh]
    assert store.sets == DatasetStore("sets", sets=[[int(token) for token in line] for line in lines]).sets


@pytest.mark.parametrize("n,universe,mean_size,seed", [(200, 30, 6, 0), (50, 8, 8, 1), (100, 1000, 20, 7), (40, 5, 0.5, 3)])
def test_generated_sets_are_canonical(n, universe, mean_size, seed):
    store = gen_set_stream(n, universe, mean_size, seed)
    assert_canonical(store)
    rng = np.random.default_rng(seed)
    masks = [rng.random(universe) < mean_size / universe for _ in range(n)]
    assert store.sets == DatasetStore("sets", sets=[np.flatnonzero(m) for m in masks]).sets


class TestDriftVectors:
    def test_deterministic(self):
        a = gen_drift_vectors(200, 3, 4, 50, seed=42)
        b = gen_drift_vectors(200, 3, 4, 50, seed=42)
        assert np.array_equal(a.vectors, b.vectors)

    def test_degenerate_single_cluster(self):
        store = gen_drift_vectors(30, 1, 1, 10, seed=1, spread=0.0)
        assert np.all(store.vectors == store.vectors[0])

    def test_drift_changes_windowed_utility(self):
        # windowed greedy utility before vs after a phase boundary differs
        params = KernelParams(h=0.75, sigma=1.0)
        k, w, period = 5, 100, 250
        changed = 0
        for seed in range(20):
            store = gen_drift_vectors(1000, 4, 4, period, seed=seed, spread=0.15)
            oracle = IVMOracle(store, params)
            before = window_ids(period, w)
            after = window_ids(period + w, w)
            v_before = greedy_select(before, k, oracle).value
            v_after = greedy_select(after, k, oracle).value
            if abs(v_before - v_after) > 1e-6:
                changed += 1
        assert changed >= 19

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_drift_vectors(0, 3, 2, 10, seed=0)
        with pytest.raises(ValueError):
            gen_drift_vectors(10, 3, 2, 10, seed=0, spread=-1.0)


class TestSetStreamGenerator:
    def test_full_universe(self):
        store = gen_set_stream(10, 8, 8, seed=0)
        for t in range(1, 11):
            assert payload(store, t) == tuple(range(8))

    def test_mean_size_concentrates(self):
        store = gen_set_stream(10**4, 50, 10, seed=77)
        total = sum(len(payload(store, t)) for t in range(1, 10**4 + 1))
        mean = total / 10**4
        assert abs(mean - 10) <= 0.5  # 5 percent

    def test_deterministic(self):
        a = gen_set_stream(50, 20, 5, seed=9)
        b = gen_set_stream(50, 20, 5, seed=9)
        assert all(payload(a, t) == payload(b, t) for t in range(1, 51))

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_set_stream(10, 20, 25.0, seed=0)


class TestStore:
    def test_payload_bounds(self):
        store = gen_set_stream(5, 10, 3, seed=0)
        with pytest.raises(ValueError):
            payload(store, 0)
        with pytest.raises(ValueError):
            payload(store, 6)

    def test_dense_store_immutable(self):
        store = DatasetStore("dense", vectors=np.ones((2, 2)))
        with pytest.raises(ValueError):
            store.vectors[0, 0] = 5.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            DatasetStore("dense", vectors=np.array([[1.0, float("nan")]]))

    @pytest.mark.parametrize(
        "kind,payloads,message",
        [
            ("dense", {}, "dense store needs a vector matrix"),
            ("dense", {"vectors": np.ones(3)}, "expected an (n, d) matrix, got shape (3,)"),
            ("sets", {}, "set store needs a payload list"),
            ("graph", {"sets": [(1,)]}, "unknown store kind 'graph'"),
        ],
    )
    def test_constructor_refusals(self, kind, payloads, message):
        with pytest.raises(ValueError) as exc:
            DatasetStore(kind, **payloads)
        assert str(exc.value) == message

    @pytest.mark.parametrize("payload", [(1.5, 2.7, 2.2), ("3", True), (np.float64(2.0),)])
    def test_non_integer_set_elements_rejected(self, payload):
        # int() would truncate a float (2.7 and 2.2 both to 2) and parse a string
        with pytest.raises(TypeError):
            DatasetStore("sets", sets=[(1,), payload])

    @settings(max_examples=200, deadline=None)
    @given(
        payloads=st.lists(
            st.one_of(
                st.lists(
                    st.one_of(
                        st.integers(-8, 8),
                        st.integers(-(10**12), 10**12),
                        st.booleans(),
                        st.builds(np.int64, st.integers(-(2**40), 2**40)),
                        st.builds(np.int32, st.integers(-8, 8)),
                        st.builds(np.uint16, st.integers(0, 8)),
                    ),
                    max_size=10,
                ),
                st.lists(st.integers(-8, 8), max_size=6).map(tuple),
            ),
            max_size=8,
        ),
        bad=st.one_of(st.none(), st.sampled_from([1.0, 2.5, "3", np.float64(2.0)])),
        where=st.integers(0, 10),
    )
    def test_constructor_matches_set_reference(self, payloads, bad, where):
        # Duplicates, any order, negatives, empty sets, numpy integers and
        # bools give the reference's sets; a float or a string raises its
        # TypeError.
        def reference(payloads):
            return tuple(tuple(sorted(set(map(operator.index, s)))) for s in payloads)

        if bad is not None:
            payloads = [list(s) for s in payloads] or [[]]
            target = payloads[where % len(payloads)]
            target.insert(where % (len(target) + 1), bad)
            with pytest.raises(TypeError):
                reference(payloads)
            with pytest.raises(TypeError):
                DatasetStore("sets", sets=payloads)
            return
        store = DatasetStore("sets", sets=payloads)
        assert store.sets == reference(payloads)
        assert_canonical(store)

    def test_set_elements_normalized(self):
        store = DatasetStore("sets", sets=[np.array([7, 3, 7]), (np.int32(2), True, 2), []])
        assert store.sets == ((3, 7), (1, 2), ())
        assert all(type(e) is int for s in store.sets for e in s)
        with pytest.raises(ValueError):
            DatasetStore("dense", vectors=np.ones((1, 1))).sets

    def test_coverage_masks_built_once_per_store(self):
        # oracles on one store share its encoding but grow their own nodes
        store = gen_set_stream(30, 20, 5, seed=1)
        a, b = CoverageOracle(store), CoverageOracle(store)
        assert a._masks is b._masks is store.coverage_masks
        assert a.max_singleton() == b.max_singleton() == store.max_set_size == max(map(len, store.sets))
        assert a.empty() is not b.empty()
        a.empty().gain(1)
        assert b.empty()._gain is None
        again = gen_set_stream(30, 20, 5, seed=1)
        assert again.coverage_masks == store.coverage_masks
        assert again.coverage_masks is not store.coverage_masks
        dense = DatasetStore("dense", vectors=np.ones((1, 1)))
        with pytest.raises(ValueError):
            dense.coverage_masks
        with pytest.raises(ValueError):
            CoverageOracle(dense)

    def test_vector_rows_built_once_per_store(self):
        # ivm oracles on one store probe from its one list of float rows,
        # through their own roots and the roots ``rebuild`` factors
        store = gen_drift_vectors(30, 3, 2, 10, seed=1)
        a, b = IVMOracle(store, KernelParams()), IVMOracle(store, KernelParams(sigma=0.5))
        assert a.empty()._kernel[0] is b.empty()._kernel[0] is store.vector_rows
        assert a.empty() is not b.empty()
        assert store.vector_rows == store.vectors.tolist()
        rebuilt = a.rebuild([2, 5])
        assert rebuilt._kernel[0] is store.vector_rows
        assert rebuilt.child(7)._kernel[0] is store.vector_rows
        again = gen_drift_vectors(30, 3, 2, 10, seed=1)
        assert again.vector_rows == store.vector_rows
        assert again.vector_rows is not store.vector_rows
        with pytest.raises(ValueError):
            gen_set_stream(4, 5, 2, seed=0).vector_rows
        with pytest.raises(ValueError):
            IVMOracle(gen_set_stream(4, 5, 2, seed=0), KernelParams())
        with pytest.raises(ValueError):
            DatasetStore("dense", vectors=np.ones((1, 1))).max_set_size
