"""Shared benchmark infrastructure.

Each benchmark regenerates one paper figure (or an ablation) exactly
once via ``benchmark.pedantic(rounds=1)`` — the output is the figure's
series, findings and claim verdicts; pytest-benchmark's timing table
only says how long each regeneration took (speed is measured by
``bench/run.py``).  :func:`emit` prints a regenerated figure to the
terminal and archives it under ``benchmarks/results/``; the
:func:`paper_claims` fixture runs a figure and asserts its claims.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.figures import ALL_FIGURES
from repro.experiments.report import render_result

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def emit(result, max_rows: int = 18) -> None:
    """Print a figure result and archive it under benchmarks/results/."""
    text = render_result(result, max_rows=max_rows)
    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{result.figure}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")


@pytest.fixture
def paper_claims(benchmark, capsys):
    """Run one figure once and assert that every claim its definition
    carries holds.  Reference-engine runs are the archived figures."""

    def check(figure: str, **overrides) -> None:
        run = ALL_FIGURES[figure]
        result = benchmark.pedantic(run, kwargs=overrides, rounds=1, iterations=1)
        if "backend" not in overrides:
            with capsys.disabled():
                emit(result)
        failed = [claim.name for claim, holds in result.verdicts if not holds]
        assert result.verdicts and not failed, failed

    return check
