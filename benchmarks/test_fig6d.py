"""Figure 6(d): low regular churn, ordering vs ranking vs sliding-window
ranking (Section 5.3.4).

The claims are stated once, on ``run_fig6d``; this runs the figure at
reduced scale, archives it and asserts that every claim holds.
"""


def test_fig6d_regular_churn(paper_claims):
    paper_claims("fig6d", n=1000, cycles=600, seed=0)
