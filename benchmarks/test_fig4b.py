"""Figure 4(b): SDM over time, JK vs mod-JK, 10 equal slices (Section 4.4).

The claims are stated once, on ``run_fig4b``; this runs the figure at
reduced scale, archives it and asserts that every claim holds.
"""


def test_fig4b_jk_vs_modjk(paper_claims):
    paper_claims("fig4b", n=1000, cycles=60, seed=0)
