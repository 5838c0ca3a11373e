"""Maximize monotone submodular objectives over sliding windows of a stream."""

__version__ = "0.1.0"

from .core import (
    CountingOracle,
    OracleHandle,
    SubmodularOracle,
)
from .objectives import (
    CholState,
    CoverageOracle,
    IVMOracle,
    KernelParams,
)
from .streaming import SieveStream, greedy_select
from .sliding import (
    PrioritySample,
    SieveGreedy,
    SieveNaive,
    SlidingWindowDP,
    SlidingWindowReduction,
    sieve_reduction,
)
from .ingest import (
    DatasetStore,
    ParseError,
    gen_drift_vectors,
    gen_set_stream,
    load_dense_csv,
    load_set_stream,
    normalize_columns_then_rows,
)
from .bench import (
    MetricsRecord,
    RunConfig,
    parse_cli,
    run_benchmark,
    write_metrics_csv,
)

__all__ = [
    "CholState",
    "CountingOracle",
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
