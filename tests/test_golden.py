"""Golden regression: the metrics CSV of every algorithm on both objectives.

Each cell is one small seeded synthetic run; the pinned value is the SHA-256
of its CSV with the ``wall_ms`` column removed. Any change to a reported
utility, solution size, oracle-call count or peak-item count shows up here.
A hash is re-pinned only together with a stated reason for the changed
output.
"""

import hashlib

import pytest

from swmax.bench import ALGORITHMS, RunConfig, load_store, make_oracle, render_metrics_csv, run_benchmark
from swmax.sliding import SieveGreedy, SieveNaive, SlidingWindowDP, sieve_reduction

from reference import buffer_handles, runs, write_dense_csv, write_set_stream

CONFIGS = {
    "coverage": dict(format="synth-sets", synth_n=300, synth_universe=40, synth_mean_size=6.0, seed=3),
    "ivm": dict(format="synth-vec", synth_n=240, synth_d=4, synth_drift_period=60, normalize=True, seed=5),
}

GOLDEN = {
    ("coverage", "greedy"): "71ede0480bc4bd9efbf1e7e9c43c47f21435ff89f7030f65e712473ddff6bab9",
    ("coverage", "sieve"): "cbd14e482c8692b119c32bf56899b939e7eb683efebd4cc6f84d872c33a7a991",
    ("coverage", "sw-rd"): "8664455a4dcf51fe3e0ceaab2dcf6c0546d31ffbae80f79f885a89d6f6c747da",
    ("coverage", "sw-dp"): "2f97368089c3e5104a618bcf4cb75be24764222c777f995787123502e603965c",
    ("coverage", "sieve-naive"): "4fa87d5a2b718297a116650bcb2ef878d67cacf5f7ec26d2008a75d9fcb2db21",
    ("coverage", "sieve-greedy"): "f6ee62d03a63ae872b73928b8b29802f9e3d8b76de95cee0bf0e8f3ee5df789e",
    ("coverage", "random"): "e9c7120989beb1135df557b72ae35cb7057f73a8bfd11a245513214d5ef4e40d",
    ("ivm", "greedy"): "a6dddde0370f1d8fe719b3d2193959ea0a1741fa82360cc2cac226ebec33fa92",
    ("ivm", "sieve"): "a75eff56f12f05f6152699bb6a5054cc7254b133ba390470ceb729ce47c33ae4",
    ("ivm", "sw-rd"): "2a2c5454102bd45109cf75e6d8e721019211a7c3ae3d6123c7e42de4d6ba8375",
    ("ivm", "sw-dp"): "ca225a3e883dc58f0feba0d4ad2d88008a6c9f6ca92b13ee340d7d653793a10c",
    ("ivm", "sieve-naive"): "e1a3f15a8ca2453f71c92a2a453182cb037308c8ee5a1a852ac1634220adecac",
    ("ivm", "sieve-greedy"): "1d7dc3d16e3521c5115662b4b7c3520af8bed52c657e4a9f39fdbdc0909ca4b1",
    ("ivm", "random"): "c4b70a48968246041ccfb4c14109713bb0253480d2fd0163797ed84446f1c9ef",
}

# ivm cells at a larger k: their Cholesky factors reach order 12, where the
# rounding of the factor differs most between ways of growing it, so a
# changed admission or greedy choice on a deep factor shows here. Greedy
# grows each candidate's solve over 11 rounds against one growing factor.
GOLDEN_IVM_K12 = {
    "greedy": "170856c21fc8bd19c08bab427a25fb3be19347d6f13e306bd154b43794af7aba",
    "sw-rd": "d1276450a9f774da3d6e6209521526b6dbde8f60d7f8147d741dfdb15e50910e",
    "sw-dp": "b1e2ae981278c5a5367e788848102ae132be83293809a9f34ca3319b9f2bebc5",
    "sieve-greedy": "52ad9ecf2c3cdbad18cdf0d04ef920b8a727070d1eb60b034b9e5b1dc011aece",
}

# Coverage cells at the benchmark's coverage shape (universe 1000, mean set
# size 20, k=5), on a shorter stream: the grid has about 30 levels and
# buffers of different levels part and rejoin far more often than on the
# universe-40 stream above. At W=200 the random baseline keeps about 30
# priority-sample candidates, against a handful at W=50, and greedy scores
# up to 200 candidates a round.
WIDE_COVERAGE = dict(format="synth-sets", synth_n=600, synth_universe=1000, synth_mean_size=20.0, seed=0)
GOLDEN_WIDE_COVERAGE = {
    "greedy": "9d3e3a1441e0d77ba06d9461610131e24143da9b56467e2d0280201e5f0da693",
    "random": "6bfa80aef57a3a7c17e5a4818446288be4519fc2835357a63c8572cfb0f2822d",
    "sieve-greedy": "82720b072b1d32b3d7655e9fc0de15d3c72e774294d8dc40fb67ee00b5b78484",
    "sieve-naive": "81b3ad4d6becd74ffc2ebcb18c5562d6bbd95c48cb660cce37d620cc342005a8",
    "sw-dp": "a82526ee581ddacde37dd4979f4be6b851fdbaf76139421ecd39982ea0fd902b",
    "sw-rd": "9aff7b5ea30a137baec91f8025850cdf41cd4ecfec5365b6c9230c0062f0934f",
}

# The reduction at a small epsilon on the wide coverage stream: it keeps up
# to 11 live instances (8 at epsilon 0.2) and its sieves have about 100
# grid levels, so pruning decides between more, closer values.
GOLDEN_WIDE_COVERAGE_SW_RD_EPS005 = "abfda6e09e34c70d5037b36dad066ef941f1bb8b02868a71cb8c34b019396e7e"

# The ivm reduction queried after every arrival, as the benchmark's live ivm
# workload reads it: each row pins the oldest surviving instance's utility.
GOLDEN_IVM_SW_RD_EVERY_ARRIVAL = "87c1d883afabcbd1bf5db025ac2a2c23857a702629750ac7292b62fb4d7109bd"


# The golden ivm stream with every row written twice, read back through
# ``--format csv`` at sigma 1e-8, queried after every arrival. An item's
# twin makes its Schur complement vanish to rounding, so the pivot
# collapses and buffers hold skipped ids (``CholState.skipped_ids``).
GOLDEN_IVM_COLLAPSED_PIVOTS = {
    "sieve-naive": "3bae7d1a2fa4111805b70ade1e9cedf81857a7d9c4467733a6385a86fe1b837d",
    "sieve-greedy": "9cc83a209a084483b6be64b1dcc9aec92160409eba43ba5e26780ba0242f6463",
    "sw-rd": "fa5c547c628cd07d1c05c84c625ae2e473473c079316f6d4ee94a49e2f212875",
    "sw-dp": "009af9368e84b675381f729f2045c10c9fe88d945be845fd38df833e2543e703",
}


# The golden coverage stream queried after every arrival. Its universe of 40
# gives buffers of different sizes equal values, so these cells pin which
# buffer a query reports on a tie (the lowest level's: its size is in the
# CSV), and the random baseline's answer at every arrival.
GOLDEN_COVERAGE_EVERY_ARRIVAL = {
    "random": "14c15be4338a8c68a3ac751e9a8d4e04314e200931dd27384a12d47c475e6853",
    "sieve-greedy": "3759a85860963d2db91a3ed85e7accd6f1297e9a2ffe5039892b0736985630e7",
    "sieve-naive": "4fe5eecb3976a6143a055bf29be01abe8878543ab82cd8de4c552417458a0638",
    "sw-rd": "0add1ef9ae78abc1d199fca5e16cbd80c09b89c6feeee6f0be305a228b223a05",
}


def doubled_ivm_stream(path) -> dict:
    """Write the golden ivm stream with each row twice to ``path``; returns
    the run settings that read it back at sigma 1e-8."""
    store = load_store(RunConfig(objective="ivm", algorithm="sw-rd", k=4, window=50, **CONFIGS["ivm"]))
    write_dense_csv([row for row in store.vectors.tolist() for _ in range(2)], path)
    return dict(format="csv", input=str(path), sigma=1e-8)


def metrics_without_wall(
    objective: str, algorithm: str, k: int = 4, window: int = 50, data=None, epsilon: float = 0.2, query_every=None
) -> str:
    config = RunConfig(
        objective=objective, algorithm=algorithm, k=k, window=window, epsilon=epsilon,
        query_every=query_every, **(data or CONFIGS[objective]),
    )
    csv = render_metrics_csv(run_benchmark(config))
    return "\n".join(line.rsplit(",", 1)[0] for line in csv.splitlines()) + "\n"


@pytest.mark.parametrize("objective,algorithm", sorted(GOLDEN))
def test_metrics_csv_pinned(objective, algorithm):
    text = metrics_without_wall(objective, algorithm)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[objective, algorithm], text


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_IVM_K12))
def test_ivm_k12_metrics_csv_pinned(algorithm):
    text = metrics_without_wall("ivm", algorithm, k=12)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_IVM_K12[algorithm], text


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_WIDE_COVERAGE))
def test_wide_coverage_metrics_csv_pinned(algorithm):
    text = metrics_without_wall("coverage", algorithm, k=5, window=200, data=WIDE_COVERAGE)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_WIDE_COVERAGE[algorithm], text


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_WIDE_COVERAGE))
def test_wide_coverage_set_stream_file_pinned(algorithm, tmp_path):
    # The same store, written out and read back through ``--format sets``,
    # the path the benchmark's coverage workload reads.
    path = tmp_path / "sets.txt"
    synthetic = RunConfig(objective="coverage", algorithm=algorithm, k=5, window=200, **WIDE_COVERAGE)
    write_set_stream(load_store(synthetic), path)
    data = dict(format="sets", input=str(path), seed=WIDE_COVERAGE["seed"])
    text = metrics_without_wall("coverage", algorithm, k=5, window=200, data=data)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_WIDE_COVERAGE[algorithm], text


def test_wide_coverage_sw_rd_small_epsilon_pinned():
    text = metrics_without_wall("coverage", "sw-rd", k=5, window=200, data=WIDE_COVERAGE, epsilon=0.05)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_WIDE_COVERAGE_SW_RD_EPS005, text


def test_ivm_sw_rd_every_arrival_pinned():
    text = metrics_without_wall("ivm", "sw-rd", query_every=1)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_IVM_SW_RD_EVERY_ARRIVAL, text


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_COVERAGE_EVERY_ARRIVAL))
def test_coverage_every_arrival_pinned(algorithm):
    text = metrics_without_wall("coverage", algorithm, query_every=1)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_COVERAGE_EVERY_ARRIVAL[algorithm], text


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_IVM_COLLAPSED_PIVOTS))
def test_ivm_collapsed_pivots_pinned(algorithm, tmp_path):
    data = doubled_ivm_stream(tmp_path / "doubled.csv")
    text = metrics_without_wall("ivm", algorithm, data=data, query_every=1)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_IVM_COLLAPSED_PIVOTS[algorithm], text


COLLAPSED_PIVOT_ALGORITHMS = {
    "sieve-naive": lambda oracle: SieveNaive(4, 50, 0.2, oracle),
    "sieve-greedy": lambda oracle: SieveGreedy(4, 50, 0.2, oracle, sample_c=20.0),
    "sw-rd": lambda oracle: sieve_reduction(4, 50, 0.2, oracle),
    "sw-dp": lambda oracle: SlidingWindowDP(4, 50, 0.2, oracle),
}


@pytest.mark.parametrize("algorithm", sorted(COLLAPSED_PIVOT_ALGORITHMS))
def test_collapsed_pivot_goldens_reach_skipped_ids(algorithm, tmp_path):
    # The pinned cells above only guard the skipped-id path if some buffer
    # takes an item whose pivot collapsed. The sieves do; sw-dp never can,
    # as its pass test needs a gain of at least a positive threshold, and a
    # collapsed pivot gains 0.
    config = RunConfig(objective="ivm", algorithm=algorithm, k=4, window=50,
                       **doubled_ivm_stream(tmp_path / "doubled.csv"))
    store = load_store(config)
    alg = COLLAPSED_PIVOT_ALGORITHMS[algorithm](make_oracle(config, store))
    steps = 0
    for t in range(1, len(store) + 1):
        alg.step(t)
        steps += any(h.skipped_ids for h in buffer_handles(alg))
    assert (steps > 0) == (algorithm != "sw-dp"), steps


def test_every_cell_pinned():
    assert set(GOLDEN) == {(o, a) for o in CONFIGS for a in ALGORITHMS}


TIED_SIEVE_ALGORITHMS = {
    "sieve-naive": lambda oracle: SieveNaive(4, 50, 0.2, oracle),
    "sieve-greedy": lambda oracle: SieveGreedy(4, 50, 0.2, oracle, sample_c=20.0, seed=CONFIGS["coverage"]["seed"]),
    "sw-rd": lambda oracle: sieve_reduction(4, 50, 0.2, oracle),
}


@pytest.mark.parametrize("algorithm", sorted(TIED_SIEVE_ALGORITHMS))
def test_every_arrival_goldens_reach_size_ties(algorithm):
    # The every-arrival coverage cells only guard the sieves' tie rule if
    # some query finds buffers of different sizes at the best value. For
    # sw-rd the query reads the oldest instance's sieve.
    config = RunConfig(objective="coverage", algorithm=algorithm, k=4, window=50, **CONFIGS["coverage"])
    store = load_store(config)
    alg = TIED_SIEVE_ALGORITHMS[algorithm](make_oracle(config, store))
    ties = 0
    for t in range(1, len(store) + 1):
        alg.step(t)
        sieve = alg.instances[0].alg if algorithm == "sw-rd" else alg
        handles = [run.handle for run in runs(sieve)]
        best = max(h.value for h in handles)
        ties += len({len(h.ids) for h in handles if h.value == best}) > 1
    assert ties > 0, ties
