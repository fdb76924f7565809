"""The paper's claims on the bulk engine.

Every figure definition in ``repro.experiments.figures`` carries the
paper's claims about it as data, and every run judges them.  The
reference-engine runs are ``test_fig*.py`` and ``test_theory.py``; the
rows here run the concurrency figures on the vectorized engine
(n = 300, seed 3) and assert that all of their claims hold there too.
"""

import pytest

VECTORIZED = {"n": 300, "seed": 3, "backend": "vectorized"}


@pytest.mark.parametrize(
    "figure, overrides",
    [("fig4c", {**VECTORIZED, "cycles": 30}), ("fig4d", {**VECTORIZED, "cycles": 120})],
    ids=["fig4c-vectorized", "fig4d-vectorized"],
)
def test_paper_claims(paper_claims, figure, overrides):
    paper_claims(figure, **overrides)
