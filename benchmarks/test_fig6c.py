"""Figure 6(c): churn burst correlated with the attribute, ranking vs JK
(Section 5.3.3).

The claims are stated once, on ``run_fig6c``; this runs the figure at
reduced scale, archives it and asserts that every claim holds.
"""


def test_fig6c_churn_burst(paper_claims):
    paper_claims("fig6c", n=1000, cycles=600, seed=0)
