"""Figure 6(b): ranking on a uniform oracle vs on Cyclon-variant views
(Section 5.3.2).

The claims are stated once, on ``run_fig6b``; this runs the figure at
reduced scale, archives it and asserts that every claim holds.
"""


def test_fig6b_sampler_equivalence(paper_claims):
    paper_claims("fig6b", n=1000, cycles=400, seed=0)
