"""Shared benchmark infrastructure.

Each benchmark regenerates one paper figure (or an ablation) exactly
once via ``benchmark.pedantic(rounds=1)`` — the output is the figure's
series and findings; pytest-benchmark's timing table only says how long
each regeneration took (speed is measured by ``bench/run.py``).  Every
regenerated figure is printed to the terminal and archived under
``benchmarks/results/``.
"""

from __future__ import annotations

import os

import pytest

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
def regenerate(benchmark, capsys):
    """Run a figure function once under pytest-benchmark and emit it."""

    def _run(figure_fn, max_rows: int = 18, **kwargs):
        result = benchmark.pedantic(
            lambda: figure_fn(**kwargs), rounds=1, iterations=1
        )
        with capsys.disabled():
            emit(result, max_rows=max_rows)
        return result

    return _run
