"""Running the CLI in-process, and the warm-up op every run starts with.

Imports only the standard library at module level, so the set-up probe can
load it before its clock starts without paying for numpy.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass


def call_cli(argv: list[str], stdout_path: str) -> int:
    """Run the CLI in this process with stdout and stderr sent to a file."""
    import ambiq.cli

    saved = sys.stdout, sys.stderr
    with open(stdout_path, "w", encoding="utf-8") as handle:
        sys.stdout = sys.stderr = handle
        try:
            return ambiq.cli.main(argv)
        finally:
            sys.stdout, sys.stderr = saved


@dataclass
class WarmUp:
    """A small op that touches the same code as the workload's ops.

    The benchmark runs it before timing, and each set-up probe runs it in a
    fresh interpreter right after importing the program.
    """

    cli: list[list[str]]
    cdf: list | None = None  # [a, [n_plus, n_minus, n_cs], measure]


def run_warm_up(spec: WarmUp, stdout_path: str) -> None:
    import ambiq

    for argv in spec.cli:
        if call_cli(argv, stdout_path) != 0:
            raise RuntimeError(f"warm-up command failed: ambiq {' '.join(argv)}")
    if spec.cdf is not None:
        a, counts, measure = spec.cdf
        ambiq.posterior_cdf_binary(a, ambiq.BinaryCounts(*counts), 1.0, ambiq.MeasureKind(measure))
