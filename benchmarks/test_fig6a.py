"""Figure 6(a): ranking vs ordering in a static system (Section 5.3.1).

The claims are stated once, on ``run_fig6a``; this runs the figure at
reduced scale, archives it and asserts that every claim holds.
"""


def test_fig6a_ranking_vs_ordering(paper_claims):
    paper_claims("fig6a", n=1000, cycles=400, seed=0)
