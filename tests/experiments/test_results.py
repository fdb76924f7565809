"""Unit tests for FigureResult and report rendering."""

from repro.experiments.report import format_table, render_result
from repro.experiments.results import Claim, FigureResult
from repro.metrics.collectors import TimeSeries


def make_result():
    result = FigureResult("figX", "A test figure", params={"n": 10})
    series = TimeSeries("sdm")
    for t in range(5):
        series.append(t, 100.0 - t)
    result.add_series(series)
    result.add_scalar("final", 96.0)
    result.add_note("shape holds")
    return result


class TestFigureResult:
    def test_add_series_custom_name(self):
        result = FigureResult("f", "t")
        series = TimeSeries("internal")
        result.add_series(series, "public")
        assert "public" in result.series

    def test_sample_times_subsamples(self):
        result = FigureResult("f", "t")
        series = TimeSeries("s")
        for t in range(100):
            series.append(t, float(t))
        result.add_series(series)
        times = result.sample_times(max_rows=10)
        assert len(times) <= 10
        assert times[0] == 0
        assert times[-1] == 99

    def test_rows_have_header_and_values(self):
        rows = make_result().rows(max_rows=10)
        assert rows[0] == ["time", "sdm"]
        assert rows[1] == ["0", "100"]

    def test_rows_merge_multiple_series(self):
        result = make_result()
        sparse = TimeSeries("gdm")
        sparse.append(2, 7.0)
        result.add_series(sparse)
        rows = result.rows()
        header = rows[0]
        assert header == ["time", "sdm", "gdm"]
        # Before time 2 the sparse series has no observation.
        assert rows[1][2] == "-"


class TestFormatTable:
    def test_empty(self):
        assert format_table([]) == ""

    def test_alignment(self):
        table = format_table([["a", "bb"], ["ccc", "d"]])
        lines = table.splitlines()
        assert len(lines) == 3  # header, rule, one data row
        assert len(lines[0]) == len(lines[2])


class TestRenderResult:
    def test_contains_all_sections(self):
        text = render_result(make_result())
        assert "figX: A test figure" in text
        assert "params: n=10" in text
        assert "final = 96" in text
        assert "note: shape holds" in text
        assert "time" in text

    def test_one_verdict_line_per_claim(self):
        falls = Claim("figX.falls", "§1", "SDM falls", lambda s, c: s["final"] < 100)
        zero = Claim("figX.zero", "§1", "SDM reaches 0", lambda s, c: s["final"] == 0)
        result = make_result().judge([falls, zero])
        lines = render_result(result).splitlines()
        assert "holds: figX.falls (§1) SDM falls" in lines
        assert "FAILS: figX.zero (§1) SDM reaches 0" in lines
