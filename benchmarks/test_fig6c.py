"""Figure 6(c): churn burst correlated with the attribute — ranking vs JK.

Paper claim: the burst (0.1% leave + 0.1% join per cycle, cycles
0-200; leavers have the lowest attributes, joiners exceed everyone)
drives the SDM up; when it stops, the ranking algorithm resumes
converging while JK's convergence is stuck.
"""

from repro.experiments.figures import run_fig6c


def test_fig6c_churn_burst(regenerate):
    result = regenerate(
        run_fig6c, n=1000, cycles=600, churn_burst_end=200, churn_rate=0.001, seed=0
    )

    # Ranking recovers after the burst: final well below its burst-end SDM.
    assert result.scalars["ranking_recovery_ratio"] < 0.8
    # JK recovers strictly less than ranking does.
    assert (
        result.scalars["ranking_recovery_ratio"]
        < result.scalars["jk_recovery_ratio"]
    )
    # And ranking's final slice assignment is better outright.
    assert result.scalars["ranking_final_sdm"] < result.scalars["jk_final_sdm"]
