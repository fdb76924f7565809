"""Figure 4(a): SDM vs GDM over one mod-JK run (Section 4.3).

The claims are stated once, on ``run_fig4a``; this runs the figure at
reduced scale, archives it and asserts that every claim holds.
"""


def test_fig4a_sdm_vs_gdm(paper_claims):
    paper_claims("fig4a", n=1000, cycles=100, seed=0)
