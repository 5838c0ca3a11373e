import csv
import dataclasses
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import swmax
from swmax import bench
from swmax.bench import (
    CSV_HEADER,
    MetricsRecord,
    RunConfig,
    load_store,
    parse_cli,
    render_metrics_csv,
    run_benchmark,
    write_metrics_csv,
)
from swmax.ingest import gen_set_stream
from swmax.sliding import SieveNaive

from reference import answer, score, write_set_stream
from test_golden import CONFIGS


def _config(**overrides):
    base = dict(
        objective="coverage",
        algorithm="sw-dp",
        k=3,
        window=10,
        epsilon=0.2,
        format="synth-sets",
        synth_n=40,
        synth_universe=25,
        synth_mean_size=5.0,
        seed=7,
    )
    base.update(overrides)
    return RunConfig(**base)


def _strip_wall(text: str) -> list[str]:
    rows = []
    for line in text.strip().split("\n"):
        rows.append(",".join(line.split(",")[:-1]))
    return rows


class TestRunBenchmark:
    def test_query_cadence(self):
        records = run_benchmark(_config(synth_n=10, query_every=5))
        assert [r.window_end for r in records] == [5, 10]

    def test_final_step_always_recorded(self):
        records = run_benchmark(_config(synth_n=13, query_every=5))
        assert [r.window_end for r in records] == [5, 10, 13]

    def test_default_cadence_is_tenth_of_window(self):
        records = run_benchmark(_config(synth_n=20, window=100))
        assert [r.window_end for r in records] == list(range(10, 21, 10))

    def test_oracle_calls_non_decreasing(self):
        for algorithm in ("greedy", "sieve", "sw-rd", "sw-dp", "sieve-naive", "random"):
            records = run_benchmark(_config(algorithm=algorithm, query_every=7))
            calls = [r.oracle_calls for r in records]
            assert calls == sorted(calls)
            assert calls[-1] > 0

    def test_prefix_window_algorithms_see_same_ground_set(self):
        # n <= W: the window is the whole prefix for every algorithm
        greedy = run_benchmark(_config(algorithm="greedy", window=50, query_every=10))
        swdp = run_benchmark(_config(algorithm="sw-dp", window=50, query_every=10))
        for a, b in zip(greedy, swdp):
            assert a.window_end == b.window_end

    def test_solutions_respect_cardinality_and_window(self):
        for algorithm in ("sw-rd", "sw-dp", "sieve-naive", "sieve-greedy", "random"):
            records = run_benchmark(
                _config(algorithm=algorithm, sample_c=5.0, query_every=6)
            )
            for r in records:
                assert r.solution_size <= 3
                assert r.utility >= 0.0

    def test_ivm_objective_runs(self):
        config = _config(
            objective="ivm",
            algorithm="sw-rd",
            format="synth-vec",
            synth_n=60,
            synth_d=4,
            window=20,
            k=3,
            query_every=20,
        )
        records = run_benchmark(config)
        assert records and all(r.utility > 0 for r in records)

    def test_empty_dataset_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError):
            run_benchmark(_config(format="sets", input=str(path)))

    def test_store_override_skips_loading(self):
        store = gen_set_stream(30, 20, 5, seed=1)
        records = run_benchmark(_config(format="sets", input="/nonexistent"), store=store)
        assert records[-1].window_end == 30

    def test_harness_adds_no_counted_calls(self, monkeypatch):
        built = []
        real = bench.make_oracle

        def counted_build(config, store):
            built.append(config.objective)
            return real(config, store)

        monkeypatch.setattr(bench, "make_oracle", counted_build)
        records = run_benchmark(_config(algorithm="random", query_every=5))
        # the random baseline is charged one call per query, and the harness
        # records its answer's value without a call of its own
        assert [r.oracle_calls for r in records] == list(range(1, len(records) + 1))
        assert built == ["coverage"]

    @pytest.mark.parametrize("objective", bench.OBJECTIVES)
    @pytest.mark.parametrize("algorithm", bench.ALGORITHMS)
    def test_rescore_leaves_the_oracle_on_the_last_record(self, monkeypatch, objective, algorithm):
        # The harness charges no call of its own, after the last record
        # either: the oracle's count is the last record's.
        built = []
        real = bench.make_oracle

        def kept_build(config, store):
            built.append(real(config, store))
            return built[-1]

        monkeypatch.setattr(bench, "make_oracle", kept_build)
        config = RunConfig(objective=objective, algorithm=algorithm, k=4, window=50, sample_c=4.0, **CONFIGS[objective])
        records = run_benchmark(config)
        assert len(built) == 1 and records[-1].oracle_calls > 0
        assert built[0].calls == records[-1].oracle_calls


@pytest.mark.parametrize("objective", bench.OBJECTIVES)
def test_record_fields_match_an_independent_loop(objective):
    # Records are built positionally. k, W and epsilon are distinct, and so
    # are calls and peak at some record, so two fields that trade places
    # fail here.
    config = RunConfig(
        objective=objective, algorithm="sieve-naive", k=3, window=17, epsilon=0.3, query_every=1, **CONFIGS[objective]
    )
    store = load_store(config)
    records = run_benchmark(config, store)
    counting, measure = bench.make_oracle(config, store), bench.make_oracle(config, store)
    alg = SieveNaive(config.k, config.window, config.epsilon, counting)
    assert len(records) == len(store)
    peak = 0
    for t, r in enumerate(records, start=1):
        alg.step(t)
        peak = max(peak, alg.retained_count())
        ids, _ = answer(alg)
        assert (r.window_end, r.algorithm, r.k, r.window, r.epsilon) == (
            t, config.algorithm, config.k, config.window, config.epsilon
        )
        assert (r.utility, r.solution_size, r.oracle_calls, r.peak_items) == (
            score(measure, ids), len(ids), counting.calls, peak
        ), t
    assert any(r.oracle_calls != r.peak_items for r in records)
    wall = [r.wall_ms for r in records]
    assert wall == sorted(wall) and wall[0] >= 0.0


@pytest.mark.parametrize("algorithm", bench.ALGORITHMS)
@pytest.mark.parametrize("objective,sigma", [("coverage", 1.0), ("ivm", 1.0), ("ivm", 1e-3), ("ivm", 3.0)])
def test_query_value_is_the_rescored_utility(objective, sigma, algorithm):
    # The value of an answer's handle, which the algorithm's threshold tests
    # read and the harness records as utility, equals a separate oracle's
    # score of the answer's ids, exactly, after every arrival; the rerun
    # baselines rerun on every window. sigma 1e-3 collapses pivots.
    config = RunConfig(objective=objective, algorithm=algorithm, k=4, window=50, sigma=sigma,
                       **{**CONFIGS[objective], "synth_n": 400})
    store = load_store(config)
    oracle, measure = bench.make_oracle(config, store), bench.make_oracle(config, store)
    alg = bench._make_stream_algorithm(config, oracle)
    for t in range(1, len(store) + 1):
        alg.step(t)
        ids, value = answer(alg)
        assert value == score(measure, ids), t


@pytest.mark.parametrize("algorithm", bench.ALGORITHMS)
def test_every_algorithm_is_built_by_the_factory_and_refuses_a_repeated_timestep(algorithm):
    # The harness steps every algorithm, the rerun baselines included,
    # through one protocol: step, query, retained_count.
    config = _config(algorithm=algorithm, sample_c=4.0)
    alg = bench._make_stream_algorithm(config, bench.make_oracle(config, load_store(config)))
    alg.step(1)
    alg.step(3)
    assert alg.query().ids and alg.retained_count() >= 1
    for t in (3, 2):
        with pytest.raises(ValueError):
            alg.step(t)


@pytest.mark.parametrize("algorithm", bench.ALGORITHMS)
def test_runs_on_one_store_match_a_fresh_store(monkeypatch, algorithm):
    # The store keeps its coverage encoding from run to run; no node, memo
    # or count of one run may reach the next.
    counters = []
    real = bench.make_oracle

    def recorded(config, store):
        counters.append(real(config, store))
        return counters[-1]

    monkeypatch.setattr(bench, "make_oracle", recorded)
    config = RunConfig(objective="coverage", algorithm=algorithm, k=4, window=50, sample_c=4.0, **CONFIGS["coverage"])
    fresh = _strip_wall(render_metrics_csv(run_benchmark(config, load_store(config))))
    shared = load_store(config)
    for _ in range(2):
        assert _strip_wall(render_metrics_csv(run_benchmark(config, shared))) == fresh
    assert len(counters) == 3
    assert counters[1].evaluations == counters[2].evaluations == counters[0].evaluations > 0


class TestSharedEvaluations:
    """Buffers with equal contents share one node and so one evaluation per
    arrival. The exact counts on the golden ivm configs catch a change that
    silently breaks sharing, which wall time alone would hide."""

    @staticmethod
    def _run(algorithm):
        """Stream the golden ivm config through ``algorithm`` on its own
        oracle, querying at ``run_benchmark``'s cadence: ``random`` charges
        its queries, and ``greedy`` reruns on each queried window, so their
        calls match the harness's only then."""
        config = RunConfig(objective="ivm", algorithm=algorithm, k=4, window=50, epsilon=0.2, **CONFIGS["ivm"])
        store = load_store(config)
        counting = bench.make_oracle(config, store)
        n, every = len(store), math.ceil(config.window / 10)
        alg = bench._make_stream_algorithm(config, counting)
        for t in range(1, n + 1):
            alg.step(t)
            if t % every == 0 or t == n:
                alg.query()
        return config, counting

    @pytest.mark.parametrize(
        "algorithm,evaluations",
        [("sw-rd", 915), ("sw-dp", 1380), ("sieve-naive", 36), ("sieve-greedy", 3369), ("random", 31), ("greedy", 5719)],
    )
    def test_ivm_evaluations_pinned(self, algorithm, evaluations):
        # sieve-naive: every level of a run shares the one node its expiry
        # rebuilds, where a rebuild per level made one node each. greedy
        # scores in batches, which keep no memo, so each of its calls is an
        # evaluation.
        config, counting = self._run(algorithm)
        assert counting.calls == run_benchmark(config)[-1].oracle_calls
        assert counting.evaluations == evaluations
        assert (counting.evaluations < counting.calls) == (algorithm != "greedy")

    @pytest.mark.parametrize(
        "algorithm,entries",
        [("sw-rd", 675), ("sw-dp", 1391), ("sieve-naive", 102), ("sieve-greedy", 2029), ("random", 186), ("greedy", 3970)],
    )
    def test_ivm_kernel_entries_pinned(self, algorithm, entries, kernel_entries):
        # Every buffer grown from the oracle's root shares its arrival slot,
        # so a (member, arrival) kernel entry is computed once however many
        # nodes hold the member.
        self._run(algorithm)
        assert kernel_entries.entries == entries


class TestDeterminism:
    def test_identical_runs_modulo_wall_ms(self):
        a = render_metrics_csv(run_benchmark(_config(algorithm="sieve-greedy", sample_c=4.0)))
        b = render_metrics_csv(run_benchmark(_config(algorithm="sieve-greedy", sample_c=4.0)))
        assert _strip_wall(a) == _strip_wall(b)



class TestCsvOutput:
    def test_header_only_when_empty(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_round_trip(self, tmp_path):
        record = MetricsRecord(
            window_end=40,
            algorithm="sw-rd",
            k=5,
            window=100,
            epsilon=0.2,
            utility=17.5,
            solution_size=5,
            oracle_calls=1234,
            peak_items=80,
            wall_ms=12.25,
        )
        path = tmp_path / "m.csv"
        write_metrics_csv([record], path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert int(row["window_end"]) == 40
        assert row["algorithm"] == "sw-rd"
        assert int(row["k"]) == 5
        assert int(row["W"]) == 100
        assert float(row["epsilon"]) == 0.2
        assert float(row["utility"]) == 17.5
        assert int(row["solution_size"]) == 5
        assert int(row["oracle_calls"]) == 1234
        assert int(row["peak_items"]) == 80
        assert float(row["wall_ms"]) == 12.25

    def test_lf_line_endings_and_six_significant_digits(self, tmp_path):
        record = MetricsRecord(3, "greedy", 2, 7, 0.123456789, 1.23456789, 2, 9, 4, 0.0)
        path = tmp_path / "m.csv"
        write_metrics_csv([record], path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert b"0.123457" in raw
        assert b"1.23457" in raw


class TestCli:
    def test_valid_invocation(self, tmp_path):
        stream = tmp_path / "sets.txt"
        write_set_stream(gen_set_stream(30, 20, 5, seed=0), stream)
        config = parse_cli(
            [
                "--objective", "coverage",
                "--algorithm", "sw-rd",
                "--k", "5",
                "--window", "2000",
                "--epsilon", "0.2",
                "--input", str(stream),
                "--format", "sets",
                "--output", str(tmp_path / "out.csv"),
            ]
        )
        assert config.algorithm == "sw-rd"
        assert config.window == 2000

    @pytest.mark.parametrize("algorithm", ["sw-rd", "sieve-greedy"])
    @pytest.mark.parametrize("fmt", ["csv", "sets", "synth-vec", "synth-sets"])
    def test_omitted_flags_take_run_config_defaults(self, fmt, algorithm):
        # The parser states no default of its own: a flag left out takes
        # RunConfig's, so the CLI and a RunConfig built by keyword agree on
        # every field, which the CLI parity check of perfbench relies on.
        # csv is the default format, so its argv leaves --format out too.
        objective = "coverage" if fmt in ("sets", "synth-sets") else "ivm"
        fields = dict(objective=objective, algorithm=algorithm, k=3, window=10)
        argv = ["--objective", objective, "--algorithm", algorithm, "--k", "3", "--window", "10"]
        if fmt != "csv":
            fields["format"] = fmt
            argv += ["--format", fmt]
        if fmt in ("csv", "sets"):
            fields["input"] = "input.txt"
            argv += ["--input", "input.txt"]
        if algorithm == "sieve-greedy":
            fields["sample_c"] = 5.0
            argv += ["--sample-c", "5"]
        assert dataclasses.asdict(parse_cli(argv)) == dataclasses.asdict(RunConfig(**fields))

    def test_sieve_greedy_requires_sample_c(self):
        with pytest.raises(SystemExit) as exc:
            parse_cli(
                ["--objective", "coverage", "--algorithm", "sieve-greedy",
                 "--k", "2", "--window", "10", "--format", "synth-sets"]
            )
        assert exc.value.code == 2

    def test_sample_c_zero_accepted(self):
        # SieveGreedy samples nothing at c = 0, and the CLI takes what it takes
        config = parse_cli(
            ["--objective", "coverage", "--algorithm", "sieve-greedy", "--sample-c", "0",
             "--k", "2", "--window", "10", "--format", "synth-sets"]
        )
        assert config.sample_c == 0.0

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_negative_sample_c_exits_two(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_cli(
                ["--objective", "coverage", "--algorithm", "sieve-greedy", "--sample-c", value,
                 "--k", "2", "--window", "10", "--format", "synth-sets"]
            )
        assert exc.value.code == 2
        assert "--sample-c must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "objective,fmt", [("coverage", "csv"), ("coverage", "synth-vec"), ("ivm", "sets"), ("ivm", "synth-sets")]
    )
    def test_objective_and_format_mismatch_exits_two(self, objective, fmt, tmp_path, monkeypatch):
        # Coverage reads sets and ivm dense vectors: a mismatched pair is a
        # usage error, refused before any input is read or generated.
        from swmax.bench import main

        def no_load(config):
            raise AssertionError("input loaded")

        monkeypatch.setattr(bench, "load_store", no_load)
        stream = tmp_path / "input.txt"
        stream.write_text("1 2\n")
        with pytest.raises(SystemExit) as exc:
            main(["--objective", objective, "--algorithm", "sw-rd", "--k", "2", "--window", "10",
                  "--format", fmt, "--input", str(stream)])
        assert exc.value.code == 2

    def test_zero_epsilon_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_cli(
                ["--objective", "coverage", "--algorithm", "sw-dp", "--k", "2",
                 "--window", "10", "--epsilon", "0", "--format", "synth-sets"]
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize("epsilon", ["1e-17", "1e-300"])
    @pytest.mark.parametrize("algorithm", ["sw-rd", "sw-dp", "sieve-naive"])
    def test_epsilon_lost_in_one_exits_two(self, algorithm, epsilon):
        # 1 + epsilon rounds to 1, which leaves the threshold lattice one
        # level: a usage error, not a division by log(1) in the run
        from swmax.bench import main

        with pytest.raises(SystemExit) as exc:
            main(["--objective", "coverage", "--algorithm", algorithm, "--k", "2", "--window", "10",
                  "--format", "synth-sets", "--synth-n", "50", "--epsilon", epsilon])
        assert exc.value.code == 2

    def test_negative_drop_column_exits_two(self, tmp_path):
        # wrong before the file is read, so a usage error; the loader keeps
        # its own range check for indices past the last column
        from swmax.bench import main

        path = tmp_path / "points.csv"
        path.write_text("0.1,0.2,0.3\n0.4,0.5,0.6\n")
        with pytest.raises(SystemExit) as exc:
            main(["--objective", "ivm", "--algorithm", "sw-dp", "--k", "2", "--window", "10",
                  "--input", str(path), "--drop-columns=-1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "objective,fmt,flags,message",
        [
            ("coverage", "synth-sets", ["--normalize"], "--normalize applies to dense formats only"),
            ("ivm", "synth-vec", ["--drop-columns", "1,x"], "--drop-columns expects integers, got '1,x'"),
        ],
    )
    def test_misapplied_dense_flag_exits_two(self, objective, fmt, flags, message, capsys):
        from swmax.bench import main

        with pytest.raises(SystemExit) as exc:
            main(["--objective", objective, "--algorithm", "sw-dp", "--k", "2", "--window", "10",
                  "--format", fmt, *flags])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--epsilon", "--kernel-h", "--sigma"])
    def test_nan_parameter_exits_two(self, flag):
        # so do the values that would crash the run or give it no grid: an
        # infinite epsilon, an h whose square underflows or overflows, and a
        # sigma whose square or inverse square does
        from swmax.bench import main

        values = {"--epsilon": ["nan", "inf"], "--kernel-h": ["nan", "inf", "1e-200", "1e200"],
                  "--sigma": ["nan", "inf", "1e-200", "1e200"]}
        for value in values[flag]:
            for objective, fmt in [("ivm", "synth-vec"), ("coverage", "synth-sets")]:
                with pytest.raises(SystemExit) as exc:
                    main(
                        ["--objective", objective, "--algorithm", "sw-dp", "--k", "2",
                         "--window", "10", "--format", fmt, flag, value]
                    )
                assert exc.value.code == 2

    @pytest.mark.parametrize(
        "fmt,flag,value",
        [
            ("synth-vec", "--synth-n", "0"),
            ("synth-vec", "--synth-d", "0"),
            ("synth-vec", "--synth-clusters", "0"),
            ("synth-vec", "--synth-drift-period", "0"),
            ("synth-sets", "--synth-n", "0"),
            ("synth-sets", "--synth-universe", "0"),
            ("synth-sets", "--synth-mean-size", "0"),
            ("synth-sets", "--synth-mean-size", "100"),  # above the default universe of 60
            ("synth-sets", "--synth-mean-size", "nan"),
        ],
    )
    def test_out_of_range_synth_value_exits_two(self, fmt, flag, value):
        from swmax.bench import main

        objective = "ivm" if fmt == "synth-vec" else "coverage"
        with pytest.raises(SystemExit) as exc:
            main(["--objective", objective, "--algorithm", "sw-dp", "--k", "2",
                  "--window", "10", "--format", fmt, flag, value])
        assert exc.value.code == 2

    @pytest.mark.parametrize("objective,fmt", [("ivm", "synth-vec"), ("coverage", "synth-sets")])
    def test_negative_seed_for_synth_format_exits_two(self, objective, fmt, capsys):
        # numpy's generators refuse it from inside the run, with a message
        # that names no flag
        from swmax.bench import main

        with pytest.raises(SystemExit) as exc:
            main(["--objective", objective, "--algorithm", "sw-dp", "--k", "2",
                  "--window", "10", "--format", fmt, "--synth-n", "30", "--seed", "-1"])
        assert exc.value.code == 2
        assert f"--seed must be >= 0 for --format {fmt}, got -1" in capsys.readouterr().err

    def test_negative_seed_for_file_format_runs(self, tmp_path):
        # the algorithms' random.Random takes any integer seed
        from swmax.bench import main

        stream = tmp_path / "sets.txt"
        write_set_stream(gen_set_stream(40, 20, 5, seed=3), stream)
        out = tmp_path / "metrics.csv"
        code = main(["--objective", "coverage", "--algorithm", "sieve-greedy", "--sample-c", "20",
                     "--k", "3", "--window", "15", "--input", str(stream), "--format", "sets",
                     "--output", str(out), "--query-every", "10", "--seed", "-1"])
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 1 + 4  # t = 10, 20, 30, 40

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_cli(["--objective", "coverage", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_input_for_file_formats(self):
        with pytest.raises(SystemExit) as exc:
            parse_cli(
                ["--objective", "coverage", "--algorithm", "sw-dp", "--k", "2",
                 "--window", "10", "--format", "sets"]
            )
        assert exc.value.code == 2

    def test_end_to_end_main(self, tmp_path, capsys):
        from swmax.bench import main

        stream = tmp_path / "sets.txt"
        write_set_stream(gen_set_stream(40, 20, 5, seed=3), stream)
        out = tmp_path / "metrics.csv"
        code = main(
            [
                "--objective", "coverage",
                "--algorithm", "sieve-naive",
                "--k", "3",
                "--window", "15",
                "--input", str(stream),
                "--format", "sets",
                "--output", str(out),
                "--query-every", "10",
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 4  # t = 10, 20, 30, 40

    def test_main_without_output_writes_stdout(self, capsys):
        from swmax.bench import main

        argv = TestEntryPoint.ARGV
        assert main(argv) == 0
        expected = render_metrics_csv(run_benchmark(parse_cli(argv)))
        assert _strip_wall(capsys.readouterr().out) == _strip_wall(expected)

    def test_runtime_error_exits_one(self, tmp_path, capsys):
        from swmax.bench import main

        code = main(
            [
                "--objective", "coverage",
                "--algorithm", "sw-dp",
                "--k", "2",
                "--window", "10",
                "--input", str(tmp_path / "missing.txt"),
                "--format", "sets",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_grid_over_the_cap_exits_one(self, capsys):
        # a valid epsilon whose grid at k * max singleton >= 2 holds
        # millions of thresholds: the run refuses it, naming epsilon
        from swmax.bench import main

        code = main(
            [
                "--objective", "coverage",
                "--algorithm", "sw-rd",
                "--k", "2",
                "--window", "10",
                "--format", "synth-sets",
                "--synth-n", "50",
                "--epsilon", "1e-7",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: epsilon 1e-07 is too small")


def _python_m_swmax(argv, cwd):
    """Run ``python -m swmax`` on ``argv`` in a fresh interpreter that imports
    the package under test."""
    src = str(Path(swmax.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "swmax", *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


class TestEntryPoint:
    ARGV = ["--objective", "coverage", "--algorithm", "sw-dp", "--k", "3", "--window", "20",
            "--format", "synth-sets", "--synth-n", "60"]

    def test_module_prints_the_metrics_csv(self, tmp_path):
        proc = _python_m_swmax(self.ARGV, tmp_path)
        assert proc.returncode == 0, proc.stderr
        expected = render_metrics_csv(run_benchmark(parse_cli(self.ARGV)))
        assert _strip_wall(proc.stdout) == _strip_wall(expected)

    def test_module_refuses_k_zero(self, tmp_path):
        argv = list(self.ARGV)
        argv[argv.index("--k") + 1] = "0"
        proc = _python_m_swmax(argv, tmp_path)
        assert proc.returncode == 2
        assert "--k must be >= 1, got 0" in proc.stderr
        assert proc.stdout == ""


class TestLoadStore:
    def test_synth_vec_normalize(self):
        config = _config(
            objective="ivm", format="synth-vec", normalize=True, synth_n=30, synth_d=3
        )
        store = load_store(config)
        assert store.kind == "dense"
        assert len(store) == 30

    @pytest.mark.parametrize("field,name", [("objective", "cut"), ("algorithm", "sieve-max")])
    def test_unknown_name_refused(self, field, name):
        # argparse's choices refuse it on the command line; a library caller
        # meets the check in ``validate``
        with pytest.raises(ValueError) as exc:
            run_benchmark(_config(**{field: name}))
        assert str(exc.value) == f"unknown {field} {name!r}"

    def test_drop_columns_requires_csv(self):
        with pytest.raises(ValueError):
            _config(drop_columns=(1,), format="synth-sets").validate()

    @pytest.mark.parametrize("column", [1.5, 1.0, "1"])
    def test_non_integer_drop_column_rejected(self, column):
        # read by operator.index, as sizes and set elements are
        config = _config(objective="ivm", format="csv", input="unused.csv", drop_columns=(column,))
        with pytest.raises(TypeError):
            config.validate()
