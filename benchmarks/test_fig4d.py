"""Figure 4(d): mod-JK under no vs full concurrency (Section 4.5.2).

The claims are stated once, on ``run_fig4d``; this runs the figure at
reduced scale, archives it and asserts that every claim holds.
"""


def test_fig4d_concurrency_impact(paper_claims):
    paper_claims("fig4d", n=1000, cycles=100, seed=0)
