"""Release gate: every blocking property at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success). Everything here is deterministic given the fixed seeds and runs
at desk scale.
"""

import math
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import chi2

from swmax.bench import RunConfig, render_metrics_csv, run_benchmark
from swmax.ingest import (
    DatasetStore,
    gen_drift_vectors,
    gen_set_stream,
    load_dense_csv,
    load_set_stream,
)
from swmax.objectives import (
    CholState,
    CoverageOracle,
    IVMOracle,
    KernelParams,
)
from swmax.sliding import (
    PrioritySample,
    SieveGreedy,
    SieveNaive,
    SlidingWindowDP,
    sieve_reduction,
)
from swmax.streaming import (
    SieveStream,
    ceil_log_ratio,
    greedy_select,
)

from conftest import Tally, ivm_value
from reference import (
    answer,
    brute_force_opt,
    instance_starts,
    instance_values,
    payload,
    runs,
    score,
    thresholds,
    window_ids,
    write_set_stream,
)

EPS = 0.2
GUARANTEE_COMBOS = ((120, 40, 2), (120, 20, 2), (60, 20, 3), (60, 40, 3))


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def drift_set_store(n: int, seed: int, period: int = 100, universe: int = 40, p: float = 0.15) -> DatasetStore:
    """Coverage stream whose element universe shifts every ``period`` steps."""
    rng = np.random.default_rng(seed)
    payloads = []
    for t in range(1, n + 1):
        base = ((t - 1) // period) * universe
        mask = rng.random(universe) < p
        payloads.append(tuple(int(base + e) for e in np.flatnonzero(mask)))
    return DatasetStore("sets", sets=payloads)


@pytest.fixture(scope="module")
def guarantee_runs():
    """200 seeded coverage streams, streamed once with every-step instrumentation."""
    results = {
        "checks": 0,
        "swdp_viol": 0,
        "swrd_viol": 0,
        "sieve_viol": 0,
        "greedy_viol": 0,
        "count_viol": 0,
        "decay_viol": 0,
        "zero_viol": 0,
        "steps": 0,
    }
    swrd_factor = ((1 - EPS) / 2) / (2 + EPS)
    greedy_factor = 1 - 1 / math.e
    for idx in range(200):
        n, w, k = GUARANTEE_COMBOS[idx % 4]
        store = gen_set_stream(n, 30, 6, seed=1000 + idx)
        oracle = CoverageOracle(store)
        cap = 2 * (ceil_log_ratio(k * oracle.max_singleton(), EPS) + 2)
        swrd = sieve_reduction(k, w, EPS, oracle)
        swdp = SlidingWindowDP(k, w, EPS, oracle)
        sieve = SieveStream(k, EPS, oracle)
        for t in range(1, n + 1):
            swrd.step(t)
            swdp.step(t)
            sieve.step(t)

            results["steps"] += 1
            values = instance_values(swrd)
            if len(values) > cap:
                results["count_viol"] += 1
            for j in range(len(values) - 2):
                if not values[j] > (1 + EPS) * values[j + 2]:
                    results["decay_viol"] += 1
                if not values[j] > 0:
                    results["zero_viol"] += 1

            if t % 20 == 0 or t == n:
                members = window_ids(t, w)
                _, window_opt = brute_force_opt(members, k, store)
                _, prefix_opt = brute_force_opt(list(range(1, t + 1)), k, store)
                results["checks"] += 1
                if answer(swdp)[1] < (1 - EPS) / 2 * window_opt - 1e-9:
                    results["swdp_viol"] += 1
                if answer(swrd)[1] < swrd_factor * window_opt - 1e-9:
                    results["swrd_viol"] += 1
                if answer(sieve)[1] < (1 - EPS) / 2 * prefix_opt - 1e-9:
                    results["sieve_viol"] += 1
                if greedy_select(members, k, oracle).value < greedy_factor * window_opt - 1e-9:
                    results["greedy_viol"] += 1
    return results


def test_criterion_1_guarantee_suite(guarantee_runs):
    r = guarantee_runs
    violations = r["swdp_viol"] + r["swrd_viol"] + r["sieve_viol"] + r["greedy_viol"]
    _report(
        1,
        "approximation guarantees",
        violations == 0,
        f"{r['checks']} window checks x 4 algorithms, "
        f"violations: sw-dp={r['swdp_viol']} sw-rd={r['swrd_viol']} "
        f"sieve={r['sieve_viol']} greedy={r['greedy_viol']}",
    )


# Cells where one item's value, log(1 + 1/sigma**2) / 2, is below 1/(2k),
# the lowest threshold's bar for a first member, so the threshold
# algorithms admit nothing and answer 0 at every check.
IVM_BELOW_THE_GRID = {(1.0, 1), (3.0, 1), (3.0, 2), (3.0, 3)}


@pytest.mark.parametrize(
    "sigma,k",
    [
        pytest.param(
            sigma,
            k,
            marks=[pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP: Grids that follow the stream")]
            if (sigma, k) in IVM_BELOW_THE_GRID
            else [],
        )
        for sigma in (0.3, 1.0, 3.0)
        for k in (1, 2, 3)
    ],
)
def test_criterion_1_ivm_guarantee_suite(sigma, k):
    # sw-dp and sw-rd against the window optimum on the log-det objective,
    # 12 drifting streams per cell and a check every 4th arrival; a second
    # oracle scores the optimum, so the algorithms' memos see only their own
    # work
    window = 10
    swrd_factor = ((1 - EPS) / 2) / (2 + EPS)
    checks = swdp_viol = swrd_viol = 0
    for seed in range(12):
        store = gen_drift_vectors(48, 3, 3, 16, seed)
        params = KernelParams(sigma=sigma)
        oracle = IVMOracle(store, params)
        value = partial(score, IVMOracle(store, params))
        swdp = SlidingWindowDP(k, window, EPS, oracle)
        swrd = sieve_reduction(k, window, EPS, oracle)
        for t in range(1, len(store) + 1):
            swdp.step(t)
            swrd.step(t)
            if t % 4 == 0:
                _, window_opt = brute_force_opt(window_ids(t, window), k, value)
                checks += 1
                if answer(swdp)[1] < (1 - EPS) / 2 * window_opt - 1e-9:
                    swdp_viol += 1
                if answer(swrd)[1] < swrd_factor * window_opt - 1e-9:
                    swrd_viol += 1
    _report(
        1,
        f"ivm approximation guarantees, sigma={sigma} k={k}",
        swdp_viol + swrd_viol == 0,
        f"{checks} window checks x 2 algorithms, violations: sw-dp={swdp_viol} sw-rd={swrd_viol}",
    )


def test_criterion_2_reduction_structure(guarantee_runs):
    r = guarantee_runs
    violations = r["count_viol"] + r["decay_viol"] + r["zero_viol"]
    _report(
        2,
        "reduction structure",
        violations == 0,
        f"{r['steps']} steps, violations: count={r['count_viol']} "
        f"decay={r['decay_viol']} zero-position={r['zero_viol']}",
    )


def test_criterion_3_logdet_numerics():
    params = KernelParams(h=0.75, sigma=1.0)
    rng = np.random.default_rng(77)
    worst_rel = 0.0
    worst_marg = 0.0
    min_gain = math.inf
    for _ in range(200):
        size = int(rng.integers(1, 26))
        X = rng.normal(size=(size, 5))
        state = CholState(X.tolist(), params, Tally())
        running = 0.0
        for i in range(size):
            base_ids = list(state.ids)
            base_value = state.value
            gain = state.gain(i + 1)
            min_gain = min(min_gain, gain)
            fresh_diff = ivm_value(X[: i + 1], params) - ivm_value(X[:i], params)
            worst_marg = max(worst_marg, abs(gain - fresh_diff))
            state = state.child(i + 1)
            running += gain
            assert state.ids == base_ids + [i + 1]
            assert state.value >= base_value
        fresh = ivm_value(X, params)
        rel = abs(state.value - fresh) / max(1.0, abs(fresh))
        worst_rel = max(worst_rel, rel)
        worst_rel = max(worst_rel, abs(running - fresh) / max(1.0, abs(fresh)))
    ok = worst_rel <= 1e-8 and worst_marg <= 1e-9 and min_gain >= -1e-9
    _report(
        3,
        "log-det numerics",
        ok,
        f"200 insertion sequences: worst incremental-vs-fresh rel err {worst_rel:.2e} "
        f"(<=1e-8), worst marginal-vs-difference {worst_marg:.2e} (<=1e-9), "
        f"min gain {min_gain:.2e} (>=-1e-9)",
    )


def test_criterion_4_level_and_expiry_invariants():
    bad_levels = 0
    bad_sizes = 0
    expired_left = 0
    steps = 0
    w = 12
    for seed in range(100):
        store = gen_set_stream(60, 25, 5, seed=seed)
        oracle = CoverageOracle(store)
        k = 2 + seed % 3
        swdp = SlidingWindowDP(k, w, EPS, oracle)
        naive = SieveNaive(k, w, EPS, oracle)
        sgreedy = SieveGreedy(k, w, EPS, oracle, sample_c=4.0, seed=seed)
        for t in range(1, len(store) + 1):
            swdp.step(t)
            naive.step(t)
            sgreedy.step(t)
            steps += 1
            for run in runs(swdp):
                levels = run.levels
                active = [lv for lv in levels if lv != -1]
                if active != sorted(active, reverse=True):
                    bad_levels += 1
                for j in range(k + 1):
                    if levels[j] != -1 and len(run.handles[j].ids) != j:
                        bad_sizes += 1
            horizon = t - w
            for alg in (naive, sgreedy):
                if any(ts <= horizon for run in runs(alg) for ts in run.handle.ids):
                    expired_left += 1
            if any(ts <= horizon for ts in sgreedy.samples):
                expired_left += 1
    ok = bad_levels == 0 and bad_sizes == 0 and expired_left == 0
    _report(
        4,
        "level and expiry invariants",
        ok,
        f"{steps} steps x 100 streams: level-order={bad_levels} "
        f"level-size={bad_sizes} expired-items-left={expired_left}",
    )


def test_criterion_5_qualitative_replication():
    n, w, k = 400, 100, 5
    random_worst = {a: 0 for a in ("sw-rd", "sw-dp", "sieve-naive", "sieve-greedy")}
    greedy_tops_swdp = 0
    factor2_viol = 0
    windows = 0
    for seed in range(20):
        store = drift_set_store(n, seed)
        oracle = CoverageOracle(store)
        algs = {
            "sw-rd": sieve_reduction(k, w, EPS, oracle),
            "sw-dp": SlidingWindowDP(k, w, EPS, oracle),
            "sieve-naive": SieveNaive(k, w, EPS, oracle),
            "sieve-greedy": SieveGreedy(k, w, EPS, oracle, 20.0, seed=seed),
            "random": PrioritySample(k, w, oracle, seed=seed),
        }
        sums = {name: 0.0 for name in algs}
        sums["greedy"] = 0.0
        queries = 0
        for t in range(1, n + 1):
            for alg in algs.values():
                alg.step(t)
            if t % 10 == 0:
                queries += 1
                for name, alg in algs.items():
                    sums[name] += score(oracle, answer(alg)[0])
                members = window_ids(t, w)
                sums["greedy"] += greedy_select(members, k, oracle).value
                per_window_sieve = SieveStream(k, EPS, oracle)
                for mt in members:
                    per_window_sieve.step(mt)
                sieve_val = score(oracle, answer(per_window_sieve)[0])
                swrd_val = score(oracle, answer(algs["sw-rd"])[0])
                windows += 1
                if swrd_val < sieve_val / 2 - 1e-9:
                    factor2_viol += 1
        means = {name: total / queries for name, total in sums.items()}
        for name in random_worst:
            if means["random"] < means[name]:
                random_worst[name] += 1
        if means["greedy"] >= means["sw-dp"]:
            greedy_tops_swdp += 1
    ok = (
        all(v >= 19 for v in random_worst.values())
        and greedy_tops_swdp >= 19
        and factor2_viol == 0
    )
    _report(
        5,
        "qualitative replication on drift",
        ok,
        f"random-is-worst seeds/20: {random_worst} (need >=19 each); "
        f"greedy >= sw-dp in {greedy_tops_swdp}/20 seeds; "
        f"reduction within factor 2 of per-window sieve: "
        f"{windows - factor2_viol}/{windows} windows",
    )


def test_criterion_6_sampler_uniformity():
    w, k, trials = 8, 2, 10**5
    store = gen_set_stream(w, 10, 3, seed=0)
    oracle = CoverageOracle(store)
    counts = {pair: 0 for pair in combinations(range(1, w + 1), k)}
    for trial in range(trials):
        sampler = PrioritySample(k, w, oracle, seed=900000 + trial)
        for t in range(1, w + 1):
            sampler.step(t)
        ids, _ = answer(sampler)
        counts[tuple(ids)] += 1
    expected = trials / len(counts)
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    critical = chi2.ppf(1 - 0.001, len(counts) - 1)
    _report(
        6,
        "sampler uniformity",
        stat < critical,
        f"chi-square {stat:.2f} < {critical:.2f} over {len(counts)} pairs, {trials} trials",
    )


def test_criterion_7_cost_accounting():
    n, w, k = 300, 60, 5
    store = gen_set_stream(n, 50, 8, seed=42)
    oracle = CoverageOracle(store)
    m = k * oracle.max_singleton()

    # space: continuous naive sieve vs per-window sieve restarts, same stream
    naive = SieveNaive(k, w, EPS, oracle)
    naive_peak = sieve_peak = 0
    for t in range(1, n + 1):
        naive.step(t)
        naive_peak = max(naive_peak, naive.retained_count())
        if t % 10 == 0 or t == n:
            per_window = SieveStream(k, EPS, oracle)
            for mt in window_ids(t, w):
                per_window.step(mt)
                sieve_peak = max(sieve_peak, per_window.retained_count())
    ratio = naive_peak / sieve_peak

    # time: per live instance and item, the reduction pays at most one
    # marginal per threshold, and the live-instance count respects its cap;
    # both hold across the epsilon grid, i.e. per-instance cost is linear in
    # the threshold-grid size
    accounting_ok = True
    detail = []
    for eps in (0.1, 0.2, 0.4):
        grid = len(thresholds(SieveStream(k, eps, oracle)))
        cap = 2 * (ceil_log_ratio(m, eps) + 2)
        counting = CoverageOracle(store)
        swrd = sieve_reduction(k, w, eps, counting)
        fed_total = 0
        previous_starts: list[int] = []
        for t in range(1, n + 1):
            fed = sum(1 for s in previous_starts if s > t - w) + 1
            before = counting.calls
            swrd.step(t)
            if counting.calls - before > fed * grid:
                accounting_ok = False
            if len(swrd.instances) > cap:
                accounting_ok = False
            fed_total += fed
            previous_starts = instance_starts(swrd)
        per_unit = counting.calls / fed_total
        if per_unit > grid:
            accounting_ok = False
        detail.append(f"eps={eps}: {per_unit:.1f} calls/(instance*item) <= grid {grid}")
    ok = ratio <= 1.05 and accounting_ok
    _report(
        7,
        "cost accounting",
        ok,
        f"naive/sieve peak ratio {ratio:.3f} (<=1.05); " + "; ".join(detail),
    )


def test_criterion_8_determinism_and_io(tmp_path):
    config = RunConfig(
        objective="coverage",
        algorithm="sieve-greedy",
        k=4,
        window=25,
        epsilon=0.2,
        sample_c=6.0,
        format="synth-sets",
        synth_n=120,
        synth_universe=30,
        synth_mean_size=6.0,
        seed=5,
        query_every=15,
    )

    def masked(records):
        rows = render_metrics_csv(records).strip().split("\n")
        return [",".join(row.split(",")[:-1]) for row in rows]

    csv_ok = masked(run_benchmark(config)) == masked(run_benchmark(config))

    set_path = tmp_path / "sets.txt"
    original = gen_set_stream(80, 40, 7, seed=9)
    write_set_stream(original, set_path)
    loaded = load_set_stream(set_path)
    sets_ok = all(payload(loaded, t) == payload(original, t) for t in range(1, 81))

    dense_path = tmp_path / "dense.csv"
    rng = np.random.default_rng(3)
    matrix = rng.normal(size=(25, 4))
    with open(dense_path, "w") as fh:
        for row in matrix:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    dense = load_dense_csv(dense_path)
    dense_ok = np.array_equal(dense.vectors, matrix)

    ok = csv_ok and sets_ok and dense_ok
    _report(
        8,
        "determinism and io",
        ok,
        f"same-seed runs identical modulo wall_ms: {csv_ok}; "
        f"set-stream round-trip: {sets_ok}; dense round-trip: {dense_ok}",
    )
