"""One experiment per figure of the paper's evaluation.

Each ``run_figXY`` function regenerates the corresponding figure.  A
figure is a *definition* (:func:`figure`) — the paper's setup as
:class:`~repro.experiments.config.RunSpec` fields, and a body that
runs the simulation(s) through :func:`run_spec` and returns a
:class:`~repro.experiments.results.FigureResult` whose series are the
curves the paper plots.  Every runner is ``run_figXY(full_scale=False,
**overrides)`` where ``overrides`` are ``RunSpec`` fields, any of
them.  The *default* scale is reduced (n=1000-ish) so the whole suite
regenerates in minutes on a laptop; ``full_scale=True`` runs the
paper's exact parameters (n = 10^4 and each definition's full-scale
row).

Each definition carries the paper's claims about its figure as data
(:class:`~repro.experiments.results.Claim`: id, section, statement,
predicate over the result's scalars and series); every run judges
them, whatever its scale or backend, and the report prints one
verdict line per claim.
"""

from __future__ import annotations

import math
import random
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

from repro.analysis.binomial import expected_sdm_floor, sdm_floor_of_values
from repro.analysis.chernoff import cardinality_bounds
from repro.analysis.sample_size import required_samples
from repro.core.ranking import DEFAULT_WINDOW
from repro.core.slices import SlicePartition
from repro.experiments.config import RunSpec, build_simulation
from repro.experiments.results import Claim, FigureResult
from repro.metrics.collectors import (
    FunctionCollector,
    GlobalDisorderCollector,
    SliceDisorderCollector,
    TimeSeries,
    UnsuccessfulSwapCollector,
)

__all__ = [
    "figure",
    "simulation",
    "run_spec",
    "run_fig4a",
    "run_fig4b",
    "run_fig4c",
    "run_fig4d",
    "run_fig6a",
    "run_fig6b",
    "run_fig6c",
    "run_fig6d",
    "run_lemma41",
    "run_theorem51",
    "ALL_FIGURES",
]


#: Registry used by the CLI and the benchmark harness: every
#: :func:`figure` definition enters itself, the theory checks are added
#: at the bottom of the module.
ALL_FIGURES: Dict[str, Callable] = {}


@contextmanager
def simulation(spec: RunSpec):
    """The simulation ``spec`` describes, closed on exit: a
    parallel backend's worker threads or processes (and a
    telemetry sink the spec opened) are released before the caller
    builds its next run, not whenever the garbage collector gets to
    them."""
    sim = build_simulation(spec)
    try:
        yield sim
    finally:
        sim.close()
        sim.telemetry.close()


def run_spec(spec: RunSpec, extra_collectors=()) -> Tuple[TimeSeries, List[float]]:
    """Run one spec to completion.

    Returns ``(sdm_series, initial_values)`` where ``initial_values``
    are the nodes' ``r`` values *before* the first cycle — for ordering
    runs these are the drawn random values, whose realized SDM floor
    (Section 4.4) the run converges to.  The simulation is closed
    before this returns.
    """
    with simulation(spec) as sim:
        initial_values = [node.value for node in sim.live_nodes()]
        sdm = SliceDisorderCollector(name=spec.protocol)
        sim.run(spec.cycles, collectors=[sdm, *extra_collectors])
    return sdm.series, initial_values


def _claims(figure: str, section: str, table) -> Tuple[Claim, ...]:
    """``table``: short name -> (statement, predicate(scalars, series))."""
    return tuple(Claim(f"{figure}.{k}", section, *v) for k, v in table.items())


def figure(
    name, title, sweeps=(), full_scale=None, section="", claims=None, **defaults
):
    """Define a figure: decorate its body ``(base: RunSpec, result) ->
    FigureResult`` into the runner ``run(full_scale=False,
    **overrides)``, which judges the paper's ``claims`` (paper
    ``section``) on the body's result.

    ``defaults`` are the figure's ``RunSpec`` fields at the reduced
    scale (n = 1000 throughout), ``full_scale`` the fields the paper's
    exact scale replaces besides n = 10^4, ``sweeps`` the fields the
    body varies itself.  The base spec is built in that order —
    defaults < full-scale row < explicit overrides — so an explicit
    ``n`` survives ``full_scale=True``.  Overrides are checked by
    :func:`dataclasses.replace` (an unknown name is a ``TypeError``),
    and overriding a swept field is refused by name rather than
    silently ignored.  The body receives ``result`` empty but for
    ``name``, ``title`` and the ``params`` header derived from the
    base spec.
    """
    defaults = {"n": 1000, **defaults}
    claims = _claims(name, section, claims or {})
    scaled = {**defaults, "n": 10_000, **(full_scale or {})}

    def define(body):
        def run(full_scale: bool = False, **overrides) -> FigureResult:
            refused = sorted(set(overrides).intersection(sweeps))
            if refused:
                raise TypeError(
                    f"{name} sweeps {', '.join(refused)} itself; "
                    "the override would be ignored"
                )
            setup = RunSpec(**(scaled if full_scale else defaults))
            base = setup.with_overrides(**overrides)
            params = {
                "n": base.n,
                "cycles": base.cycles,
                "slices": base.slice_count,
                "view": base.view_size,
            }
            return body(base, FigureResult(name, title, params=params)).judge(claims)

        run.__name__ = run.__qualname__ = body.__name__
        run.__doc__ = body.__doc__
        run.sweeps = tuple(sweeps)
        ALL_FIGURES[name] = run
        return run

    return define


def _floor_note(
    result: FigureResult, spec: RunSpec, initial_values: List[float]
) -> float:
    """Attach the random-value SDM floor (Section 4.4): the *realized*
    floor of the run's initial random values — the exact plateau a
    perfectly ordering run ends at — beside its expectation over all
    draws, the paper's "inherent limitation"."""
    partition = spec.partition()
    expected = expected_sdm_floor(spec.n, partition)
    realized = sdm_floor_of_values(initial_values, partition)
    result.add_scalar("expected_sdm_floor", expected)
    result.add_scalar("realized_sdm_floor", realized)
    result.add_scalar("realized_over_expected", realized / expected)
    return realized


def _over_floor(scalars, name: str) -> float:
    return scalars[name] / max(scalars["realized_sdm_floor"], 1e-9)


def _hit(scalars, run: str) -> float:
    """``run``'s cycles to threshold; never (-1) is infinitely many."""
    cycles = scalars[f"{run}_cycles_to_threshold"]
    return math.inf if cycles == -1 else cycles


def _fell(factor: float, *series: TimeSeries) -> bool:
    """Every series ends over ``factor``-fold below its first value."""
    return all(s.final < s.values[0] / factor for s in series)


def _descending(values) -> bool:
    return list(values) == sorted(values, reverse=True)


def _mid(series: TimeSeries) -> float:
    """The series' value half-way through the run."""
    return series.value_at_or_before(series.times[-1] // 2)


def _early(scalars, run: str) -> float:
    """``run``'s cumulative percentage at fig4c's first checkpoint."""
    return next(v for name, v in scalars.items() if name.startswith(f"{run}@"))


def _fig4c_percentages(s, c) -> bool:
    runs = {f"{p}-{m}" for p in ("jk", "mod-jk") for m in ("half", "full")}
    return set(c) == runs and all(0 <= v <= 100 for v in s.values())


def _fig4d_same_speed(s, c) -> bool:
    settled = {name: x.first_time_below(1.1 * x.final) for name, x in c.items()}
    return settled["full-concurrency"] <= 3 * max(settled["no-concurrency"], 1)


def _window_over_ranking(scalars, name: str) -> float:
    return scalars[f"sliding_window_{name}"] / scalars[f"ranking_{name}"]


# ----------------------------------------------------------------------
# Figure 4 — the ordering algorithms
# ----------------------------------------------------------------------


@figure(
    "fig4a",
    "SDM vs GDM over one mod-JK run",
    section="§4.3",
    claims={
        "gdm-to-zero": (
            "GDM falls over 1000-fold: ordering sorts the random values",
            lambda s, c: _fell(1000, c["gdm"]),
        ),
        "sdm-floored": (
            "SDM plateaus at 0.99-1.5x the realized random-value floor",
            lambda s, c: 0.99 <= _over_floor(s, "final_sdm") <= 1.5,
        ),
        "early-descent": (
            "early on SDM and GDM fall together: both are lower at cycle 10",
            lambda s, c: all(
                x.value_at_or_before(10) < x.values[0] for x in c.values()
            ),
        ),
    },
    cycles=100,
    slice_count=100,
    view_size=20,
    protocol="mod-jk",
)
def run_fig4a(base: RunSpec, result: FigureResult) -> FigureResult:
    """Figure 4(a): SDM vs GDM along one mod-JK run."""
    sdm = SliceDisorderCollector(name="sdm")
    gdm = GlobalDisorderCollector(name="gdm")
    with simulation(base) as sim:
        initial_values = [node.value for node in sim.live_nodes()]
        sim.run(base.cycles, collectors=[sdm, gdm])

    result.add_series(sdm.series)
    result.add_series(gdm.series)
    result.add_scalar("final_gdm", gdm.series.final)
    result.add_scalar("final_sdm", sdm.series.final)
    _floor_note(result, base, initial_values)
    return result


@figure(
    "fig4b",
    "SDM over time: JK vs mod-JK",
    sweeps=("protocol",),
    section="§4.4",
    claims={
        "modjk-first": (
            "mod-JK reaches 2x the floor, strictly before JK if JK does",
            lambda s, c: _hit(s, "modjk") < _hit(s, "jk"),
        ),
        "modjk-ahead": (
            "mod-JK's SDM is at or below JK's at cycles 10, 20, 30 and 40",
            lambda s, c: all(
                c["mod-jk"].value_at_or_before(t) <= c["jk"].value_at_or_before(t)
                for t in (10, 20, 30, 40)
            ),
        ),
        "same-floor": (
            "mod-JK ends within 35% of the realized floor: both sort one draw",
            lambda s, c: 0.65 <= _over_floor(s, "modjk_final_sdm") <= 1.35,
        ),
        "jk-not-below": (
            "JK ends at or above mod-JK's final SDM",
            lambda s, c: s["modjk_final_sdm"] <= s["jk_final_sdm"],
        ),
    },
    cycles=60,
    slice_count=10,
    view_size=20,
)
def run_fig4b(base: RunSpec, result: FigureResult) -> FigureResult:
    """Figure 4(b): SDM over time — JK vs mod-JK, 10 equal slices.

    Both runs share the seed, so initial views, attribute values and
    initial random values coincide: both sort the same random values.
    """
    jk_series, initial_values = run_spec(base.with_overrides(protocol="jk"))
    mod_series, _ = run_spec(base.with_overrides(protocol="mod-jk"))

    result.add_series(jk_series, "jk")
    result.add_series(mod_series, "mod-jk")
    floor = _floor_note(result, base, initial_values)
    threshold = max(2.0 * floor, 1.0)
    jk_hit = jk_series.first_time_below(threshold)
    mod_hit = mod_series.first_time_below(threshold)
    result.add_scalar("threshold_2x_floor", threshold)
    result.add_scalar("jk_cycles_to_threshold", -1 if jk_hit is None else jk_hit)
    result.add_scalar("modjk_cycles_to_threshold", -1 if mod_hit is None else mod_hit)
    if jk_hit is not None and mod_hit is not None and mod_hit > 0:
        result.add_scalar("speedup_jk_over_modjk", jk_hit / mod_hit)
    result.add_scalar("jk_final_sdm", jk_series.final)
    result.add_scalar("modjk_final_sdm", mod_series.final)
    return result


@figure(
    "fig4c",
    "Percentage of unsuccessful swaps",
    sweeps=("protocol", "concurrency"),
    section="§4.5.2",
    claims={
        "full-over-half": (
            "full concurrency wastes more swaps than half, for JK and for mod-JK",
            lambda s, c: all(
                _early(s, f"{p}-full") > _early(s, f"{p}-half")
                for p in ("jk", "mod-jk")
            ),
        ),
        "modjk-collides": (
            "mod-JK's messages collide: its full-concurrency waste is >= 0.8x JK's",
            lambda s, c: _early(s, "mod-jk-full") >= 0.8 * _early(s, "jk-full"),
        ),
        "percentages": (
            "four runs, JK and mod-JK under half and full; values are percentages",
            _fig4c_percentages,
        ),
    },
    cycles=100,
    slice_count=10,
    view_size=20,
)
def run_fig4c(base: RunSpec, result: FigureResult) -> FigureResult:
    """Figure 4(c): percentage of unsuccessful swaps under half/full
    concurrency, for JK and mod-JK, sampled at cycles 10/50/90 (the
    claims read the first checkpoint, where swap traffic is heavy).

    The bulk backends run the same overlap regimes in batched form
    (:mod:`repro.bulk.concurrency`), so this study scales to millions
    of nodes with ``backend="vectorized"`` or ``"sharded"``.
    """
    checkpoints = [c for c in (10, 50, 90) if c < base.cycles] or [base.cycles - 1]
    for protocol in ("jk", "mod-jk"):
        for concurrency in ("half", "full"):
            label = f"{protocol}-{concurrency}"
            spec = base.with_overrides(protocol=protocol, concurrency=concurrency)
            per_cycle = UnsuccessfulSwapCollector(name=label)
            # Cumulative percentage: single-cycle ratios get noisy once
            # the system converges and few swaps are intended, so the
            # checkpoint values aggregate the run so far.
            cumulative = FunctionCollector(
                f"{label}-cum",
                lambda s: 100.0
                * s.bus_stats.unsuccessful_swaps
                / max(s.bus_stats.intended_swaps, 1),
            )
            with simulation(spec) as sim:
                sim.run(base.cycles, collectors=[per_cycle, cumulative])
            result.add_series(per_cycle.series)
            for checkpoint in checkpoints:
                result.add_scalar(
                    f"{label}@c{checkpoint}", cumulative.series.at(checkpoint)
                )
    return result


@figure(
    "fig4d",
    "mod-JK under no vs full concurrency",
    sweeps=("concurrency",),
    section="§4.5.2",
    claims={
        "both-converge": (
            "with and without concurrency SDM ends over 5-fold below its start",
            lambda s, c: _fell(5, *c.values()),
        ),
        "slight-at-end": (
            "full concurrency ends under 2x no concurrency's SDM",
            lambda s, c: s["full_over_none_final_ratio"] < 2,
        ),
        "slight-mid-run": (
            "full concurrency is under 2x no concurrency's SDM mid-run",
            lambda s, c: s["full_sdm_at_mid"] / max(s["none_sdm_at_mid"], 1e-9) < 2,
        ),
        "same-speed": (
            "full concurrency gets within 10% of its plateau in <= 3x the cycles",
            _fig4d_same_speed,
        ),
    },
    cycles=100,
    slice_count=100,
    view_size=20,
    protocol="mod-jk",
)
def run_fig4d(base: RunSpec, result: FigureResult) -> FigureResult:
    """Figure 4(d): mod-JK convergence, no concurrency vs full
    concurrency.  Runs on any backend; the bulk engines model the same
    overlap regimes in batched form.
    """
    none_series, initial_values = run_spec(base.with_overrides(concurrency="none"))
    full_series, _ = run_spec(base.with_overrides(concurrency="full"))

    result.add_series(none_series, "no-concurrency")
    result.add_series(full_series, "full-concurrency")
    _floor_note(result, base, initial_values)
    # Under full concurrency one-sided swaps can perturb the random-value
    # multiset, so the realized floor of the initial values no longer
    # binds exactly; compare the curves directly instead.
    result.add_scalar("none_sdm_at_mid", _mid(none_series))
    result.add_scalar("full_sdm_at_mid", _mid(full_series))
    result.add_scalar("none_final_sdm", none_series.final)
    result.add_scalar("full_final_sdm", full_series.final)
    result.add_scalar(
        "full_over_none_final_ratio",
        full_series.final / max(none_series.final, 1e-9),
    )
    return result


# ----------------------------------------------------------------------
# Figure 6 — the ranking algorithm
# ----------------------------------------------------------------------


@figure(
    "fig6a",
    "Ranking vs ordering, static system",
    sweeps=("protocol",),
    section="§5.3.1",
    claims={
        "ordering-floored": (
            "ordering is lower bounded: it ends at >= 0.9x the realized floor",
            lambda s, c: _over_floor(s, "ordering_final_sdm") >= 0.9,
        ),
        "ranking-below-ordering": (
            "ranking ends below ordering",
            lambda s, c: s["ranking_final_sdm"] < s["ordering_final_sdm"],
        ),
        "ranking-improving": (
            "ranking is not bounded: it ends below its own mid-run SDM",
            lambda s, c: c["ranking"].final < _mid(c["ranking"]),
        ),
    },
    cycles=400,
    slice_count=100,
    view_size=10,
    full_scale={"cycles": 1000},
)
def run_fig6a(base: RunSpec, result: FigureResult) -> FigureResult:
    """Figure 6(a): SDM over time — ranking vs ordering, static system."""
    ordering_series, initial_values = run_spec(base.with_overrides(protocol="mod-jk"))
    ranking_series, _ = run_spec(base.with_overrides(protocol="ranking"))

    result.add_series(ordering_series, "ordering")
    result.add_series(ranking_series, "ranking")
    _floor_note(result, base, initial_values)
    result.add_scalar("ordering_final_sdm", ordering_series.final)
    result.add_scalar("ranking_final_sdm", ranking_series.final)
    return result


@figure(
    "fig6b",
    "Ranking: uniform oracle vs Cyclon-variant views",
    sweeps=("sampler",),
    section="§5.3.2",
    claims={
        "both-converge": (
            "on either sampler SDM ends over 5-fold below its start",
            lambda s, c: _fell(5, c["sdm-uniform"], c["sdm-views"]),
        ),
        "curves-overlap": (
            "after warm-up the views' curve is within 40% of the oracle's",
            lambda s, c: s["max_abs_deviation_pct_after_warmup"] < 40,
        ),
    },
    cycles=400,
    slice_count=100,
    view_size=10,
    protocol="ranking",
    full_scale={"cycles": 1000},
)
def run_fig6b(base: RunSpec, result: FigureResult) -> FigureResult:
    """Figure 6(b): ranking on an idealized uniform sampler vs on the
    Cyclon-variant views, plus the percentage deviation between the
    two SDM curves (paper: within ±7% at n = 10^4).
    """
    uniform_series, _ = run_spec(base.with_overrides(sampler="uniform"))
    views_series, _ = run_spec(base.with_overrides(sampler="cyclon-variant"))

    deviation = TimeSeries("deviation_pct")
    for time, views_value in views_series:
        uniform_value = uniform_series.value_at_or_before(time)
        reference = max(uniform_value, 1e-9)
        deviation.append(time, 100.0 * (views_value - uniform_value) / reference)

    result.add_series(uniform_series, "sdm-uniform")
    result.add_series(views_series, "sdm-views")
    result.add_series(deviation)
    warmup = max(1, base.cycles // 10)
    late = [v for t, v in deviation if t >= warmup]
    result.add_scalar("max_abs_deviation_pct_after_warmup", max(abs(v) for v in late))
    return result


@figure(
    "fig6c",
    "Churn burst (correlated): ranking vs JK",
    sweeps=("protocol",),
    section="§5.3.3",
    claims={
        "ranking-recovers": (
            "after the burst ranking's SDM falls below 0.8x its burst-end value",
            lambda s, c: s["ranking_recovery_ratio"] < 0.8,
        ),
        "jk-stuck": (
            "JK's convergence gets stuck: it recovers less than ranking",
            lambda s, c: s["ranking_recovery_ratio"] < s["jk_recovery_ratio"],
        ),
        "ranking-ends-lower": (
            "ranking ends below JK",
            lambda s, c: s["ranking_final_sdm"] < s["jk_final_sdm"],
        ),
    },
    cycles=600,
    slice_count=100,
    view_size=10,
    churn="burst",
    churn_rate=0.001,
    churn_burst_end=200,
    full_scale={"cycles": 1000},
)
def run_fig6c(base: RunSpec, result: FigureResult) -> FigureResult:
    """Figure 6(c): churn burst — ``churn_rate`` of the nodes leave and
    join per cycle (paper: 0.1%) for the first ``churn_burst_end``
    cycles, correlated with the attribute (lowest leave, above-max
    join) — ranking vs JK.
    """
    burst_end = base.churn_burst_end
    result.params.update(churn_rate=base.churn_rate, burst_end=burst_end)
    jk_series, _ = run_spec(base.with_overrides(protocol="jk"))
    ranking_series, _ = run_spec(base.with_overrides(protocol="ranking"))

    result.add_series(jk_series, "jk")
    result.add_series(ranking_series, "ranking")
    jk_at_burst_end = jk_series.value_at_or_before(burst_end)
    ranking_at_burst_end = ranking_series.value_at_or_before(burst_end)
    result.add_scalar("jk_sdm_at_burst_end", jk_at_burst_end)
    result.add_scalar("ranking_sdm_at_burst_end", ranking_at_burst_end)
    result.add_scalar("jk_final_sdm", jk_series.final)
    result.add_scalar("ranking_final_sdm", ranking_series.final)
    result.add_scalar(
        "ranking_recovery_ratio",
        ranking_series.final / max(ranking_at_burst_end, 1e-9),
    )
    result.add_scalar("jk_recovery_ratio", jk_series.final / max(jk_at_burst_end, 1e-9))
    return result


@figure(
    "fig6d",
    "Regular churn: ordering vs ranking vs sliding-window",
    sweeps=("protocol",),
    section="§5.3.4",
    claims={
        "ranking-below-ordering": (
            "under correlated churn ranking ends below ordering",
            lambda s, c: s["ranking_final_sdm"] < s["ordering_final_sdm"],
        ),
        "window-below-ordering": (
            "under correlated churn the sliding window ends below ordering",
            lambda s, c: s["sliding_window_final_sdm"] < s["ordering_final_sdm"],
        ),
        "window-stable": (
            "the sliding window rises over its minimum <= 1.1x as much as ranking",
            lambda s, c: _window_over_ranking(s, "rise_ratio") <= 1.1,
        ),
        "window-near-ranking": (
            "the sliding window ends at <= 1.25x ranking's SDM",
            lambda s, c: _window_over_ranking(s, "final_sdm") <= 1.25,
        ),
    },
    cycles=600,
    slice_count=100,
    view_size=10,
    churn="regular",
    churn_rate=0.001,
    churn_period=10,
    window=2_000,
    full_scale={"cycles": 1000, "window": DEFAULT_WINDOW},
)
def run_fig6d(base: RunSpec, result: FigureResult) -> FigureResult:
    """Figure 6(d): low regular churn (``churn_rate`` every
    ``churn_period`` cycles, paper: 0.1% every 10, correlated) —
    ordering vs ranking vs sliding-window ranking (``window``
    observations; only that run reads it).  At paper scale ordering's
    SDM starts rising at cycle ~120, plain ranking's at ~730.
    """
    result.params.update(
        churn_rate=base.churn_rate, churn_period=base.churn_period, window=base.window
    )
    ordering_series, _ = run_spec(base.with_overrides(protocol="mod-jk"))
    ranking_series, _ = run_spec(base.with_overrides(protocol="ranking"))
    window_series, _ = run_spec(base.with_overrides(protocol="ranking-window"))

    result.add_series(ordering_series, "ordering")
    result.add_series(ranking_series, "ranking")
    result.add_series(window_series, "sliding-window")
    for label, series in (
        ("ordering", ordering_series),
        ("ranking", ranking_series),
        ("sliding_window", window_series),
    ):
        minimum = series.minimum
        result.add_scalar(f"{label}_min_sdm", minimum)
        result.add_scalar(f"{label}_final_sdm", series.final)
        result.add_scalar(f"{label}_rise_ratio", series.final / max(minimum, 1e-9))
    return result


# ----------------------------------------------------------------------
# Theory: Lemma 4.1 and Theorem 5.1
# ----------------------------------------------------------------------


def run_lemma41(
    n: int = 10_000,
    eps: float = 0.05,
    trials: int = 200,
    seed: int = 0,
) -> FigureResult:
    """Lemma 4.1 check: Chernoff slice-population bounds vs Monte Carlo.

    For a range of slice widths ``p``, draws ``n`` uniform values
    ``trials`` times and measures how often the slice population leaves
    the lemma's ``[(1-beta)np, (1+beta)np]`` interval — which must be
    at most ``eps`` (the bound is conservative, so typically far less).
    """
    rng = random.Random(seed)
    result = FigureResult(
        "lemma41",
        "Chernoff bound on slice populations vs Monte Carlo",
        params={"n": n, "eps": eps, "trials": trials},
    )
    widths = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5]
    bound_series = TimeSeries("beta_bound")
    violation_series = TimeSeries("violation_rate")
    for p in widths:
        bound = cardinality_bounds(n, p, eps)
        violations = 0
        for _ in range(trials):
            count = sum(1 for _ in range(n) if rng.random() < p)
            if not bound.low <= count <= bound.high:
                violations += 1
        rate = violations / trials
        bound_series.append(p, bound.beta)
        violation_series.append(p, rate)
        result.add_scalar(f"violation_rate@p={p}", rate)
    result.add_series(bound_series)
    result.add_series(violation_series)
    claims = {
        "within-eps": (
            "a slice population leaves its Chernoff interval <= eps of the time",
            lambda s, c: max(s.values()) <= eps,
        ),
        "beta-tightens": (
            "the guaranteed beta shrinks as slices widen",
            lambda s, c: _descending(c["beta_bound"].values),
        ),
    }
    return result.judge(_claims("lemma41", "§4.4", claims))


def run_theorem51(
    slice_count: int = 10,
    confidence: float = 0.95,
    trials: int = 300,
    seed: int = 0,
) -> FigureResult:
    """Theorem 5.1 check: required sample sizes vs empirical accuracy.

    For rank positions at varying distances from a slice boundary,
    draws the theorem's required number of Bernoulli(p) samples and
    measures how often the resulting estimate lands in the correct
    slice; the success rate should be >= the confidence coefficient
    (up to Monte-Carlo noise).
    """
    rng = random.Random(seed)
    partition = SlicePartition.equal(slice_count)
    result = FigureResult(
        "theorem51", "Sample-size bound of Theorem 5.1 vs Monte Carlo",
        params={
            "slices": slice_count,
            "confidence": confidence,
            "trials": trials,
        },
    )
    required_series = TimeSeries("required_samples")
    success_series = TimeSeries("success_rate")
    # Ranks at decreasing distance from the 0.5 boundary.
    ranks = [0.55, 0.56, 0.58, 0.62, 0.65]
    for p in ranks:
        margin = partition.slice_margin(p)
        needed = max(30, int(math.ceil(required_samples(p, margin, confidence))))
        correct_slice = partition.index_of(p)
        successes = 0
        for _ in range(trials):
            lower = sum(1 for _ in range(needed) if rng.random() < p)
            estimate = lower / needed
            if partition.index_of(estimate) == correct_slice:
                successes += 1
        rate = successes / trials
        required_series.append(p, needed)
        success_series.append(p, rate)
        result.add_scalar(f"required@rank={p}", needed)
        result.add_scalar(f"success@rank={p}", rate)
    result.add_series(required_series)
    result.add_series(success_series)

    def costlier_near_edges(s, c) -> bool:
        required = c["required_samples"]
        pairs = zip(required.times, required.values)
        by_margin = sorted(pairs, key=lambda pair: partition.slice_margin(pair[0]))
        return _descending([needed for _, needed in by_margin])

    claims = {
        "confident": (
            "with the required samples the slice is right >= 92% of the time",
            lambda s, c: min(c["success_rate"].values) >= 0.92,
        ),
        "costlier-near-edges": (
            "required samples grow as the rank nears its slice's edge (1/d^2)",
            costlier_near_edges,
        ),
    }
    return result.judge(_claims("theorem51", "§5.2", claims))


ALL_FIGURES.update(lemma41=run_lemma41, theorem51=run_theorem51)
