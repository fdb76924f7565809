"""Figure 4(c): percentage of unsuccessful swaps (Section 4.5.2).

The claims are stated once, on ``run_fig4c``; this runs the figure at
reduced scale, archives it and asserts that every claim holds.
"""


def test_fig4c_unsuccessful_swaps(paper_claims):
    paper_claims("fig4c", n=1000, cycles=100, seed=0)
