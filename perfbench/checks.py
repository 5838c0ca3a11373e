"""Correctness gate: record invariants, the paper's guarantees against greedy,
determinism, and parity between the in-process harness and the shipped CLI."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

# Necessary conditions of the paper's guarantees: OPT >= greedy, so an
# algorithm guaranteed c * OPT must reach c * greedy on every window.
GUARANTEES = {
    "sw-dp": lambda eps: (1 - eps) / 2,
    "sw-rd": lambda eps: (1 - eps) / (2 * (2 + eps)),
}
# Relative slack for float rounding in the comparison only.
ROUNDING = 1e-9


class Gate:
    """Counts attempted and failed runs; a run fails if it raises or fails a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:5])
        return not problems

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def record_problems(records, k: int) -> list[str]:
    problems = []
    if not records:
        return ["no records"]
    prev = 0
    for r in records:
        if r.solution_size > k:
            problems.append(f"t={r.window_end}: solution size {r.solution_size} > k={k}")
        if not r.utility >= 0.0:
            problems.append(f"t={r.window_end}: utility {r.utility} < 0")
        if r.oracle_calls < prev:
            problems.append(f"t={r.window_end}: oracle calls fell from {prev} to {r.oracle_calls}")
        prev = r.oracle_calls
    return problems


def guarantee_problems(algorithm: str, records, greedy: dict[int, float], epsilon: float) -> list[str]:
    bound = GUARANTEES.get(algorithm)
    if bound is None:
        return []
    factor = bound(epsilon)
    problems = []
    for r in records:
        ref = greedy.get(r.window_end)
        if ref is not None and r.utility < factor * ref * (1 - ROUNDING):
            problems.append(f"t={r.window_end}: utility {r.utility:.6g} < {factor:.4f} x greedy {ref:.6g}")
    return problems


def strip_wall(csv_text: str) -> str:
    """The metrics CSV without its last column, ``wall_ms``."""
    return "\n".join(line.rsplit(",", 1)[0] for line in csv_text.splitlines())


def cli_problems(root: Path, config, expected_csv: str) -> list[str]:
    """Run the ``swmax-bench`` entry point (``swmax.bench:main``) in a subprocess
    on ``config`` and compare its CSV with the in-process one, bar ``wall_ms``."""
    argv = [
        "--objective", config.objective,
        "--algorithm", config.algorithm,
        "--k", str(config.k),
        "--window", str(config.window),
        "--epsilon", repr(config.epsilon),
        "--sample-c", repr(config.sample_c),
        "--format", config.format,
        "--input", config.input,
    ]
    if config.normalize:
        argv.append("--normalize")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "import sys; from swmax.bench import main; sys.exit(main(sys.argv[1:]))"
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
    except subprocess.TimeoutExpired:
        return ["CLI timed out"]
    if proc.returncode != 0:
        return [f"CLI exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    if strip_wall(proc.stdout) != strip_wall(expected_csv):
        return ["CLI CSV differs from render_metrics_csv(run_benchmark(...)) outside wall_ms"]
    return []
