import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sshcsim import FiniteCap, run
from sshcsim.svg import Envelope, line_chart

from conftest import make_sim_config, make_source, make_stage

PLOT_WIDTH = 680  # pixel columns between the 60-px margins of an 800-px chart


def polylines(path):
    """The (x, y) pixel points of every polyline in an SVG file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return [
        np.array([[float(v) for v in p.split(",")] for p in points.split(" ")])
        for points in re.findall(r'<polyline [^>]*points="([^"]*)"', text)
    ]


def reference_envelope(ys, columns):
    """Loop form of the envelope: per run of points in one column, its first,
    lowest, highest and last point in index order, or its first and last if
    it holds a NaN; every point if no run holds more than four."""
    keep = []
    longest = 0
    start = 0
    for end in range(1, len(ys) + 1):
        if end == len(ys) or columns[end] != columns[start]:
            run_ys = list(ys[start:end])
            longest = max(longest, end - start)
            if any(np.isnan(run_ys)):
                picks = {start, end - 1}
            else:
                picks = {
                    start,
                    start + run_ys.index(min(run_ys)),
                    start + run_ys.index(max(run_ys)),
                    end - 1,
                }
            keep.extend(sorted(picks))
            start = end
    return keep if longest > 4 else list(range(len(ys)))


def envelope_indices(ys, columns, cuts=(), constant=()):
    """The indices Envelope keeps of ys, fed in chunks that end at `cuts`,
    with point k in pixel column columns[k]. The chunks numbered in
    `constant` are passed as the float of their first point."""
    x = np.asarray(columns) + 0.5  # on an x range of (0, 680), point k lands in column int(x[k])
    chart = Envelope(["y"], 0.0, float(PLOT_WIDTH))
    bounds = [0, *cuts, len(ys)]
    for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
        chart.add(x[a:b], [float(ys[a]) if k in constant else ys[a:b]])
    return chart.points(0)[0].tolist()


class TestEnvelope:
    def test_waveform_polylines_capped_with_full_extremes(self, tmp_path):
        wf = run(make_sim_config(n_cycles=10)).waveform
        assert len(wf) > 50 * PLOT_WIDTH
        path = str(tmp_path / "waveform.svg")
        line_chart(path, wf.t, {"vpt_V": wf.vpt, "vt_V": wf.vt})

        y_min = min(wf.vpt.min(), wf.vt.min())
        y_max = max(wf.vpt.max(), wf.vt.max())

        def sy(v):
            return float(f"{480 - 60 - (v - y_min) / (y_max - y_min) * (480 - 120):.2f}")

        for points, ys in zip(polylines(path), (wf.vpt, wf.vt)):
            assert len(points) <= 4 * PLOT_WIDTH
            assert points[:, 1].min() == sy(ys.max())
            assert points[:, 1].max() == sy(ys.min())
            assert points[0, 0] == 60.0 and points[-1, 0] == 60.0 + PLOT_WIDTH
            assert np.all(np.diff(points[:, 0]) >= 0)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(7)
        ys = rng.integers(0, 5, size=5000).astype(float)  # many ties
        columns = np.sort(rng.integers(0, PLOT_WIDTH, size=ys.size))
        assert envelope_indices(ys, columns) == reference_envelope(ys, columns)

    def test_nan_column_keeps_first_and_last_point(self):
        ys = np.sin(np.arange(100.0))
        ys[10] = np.nan
        columns = np.repeat([0, 1], 50)  # two pixel columns of 50 points each
        keep = envelope_indices(ys, columns)
        assert keep[:2] == [0, 49]
        assert keep[2:] == [50 + i for i in reference_envelope(ys[50:], np.zeros(50))]

    def test_sparse_series_drawn_point_for_point(self, tmp_path):
        x = np.linspace(0.0, 1.0, 4 * PLOT_WIDTH // 2)
        path = str(tmp_path / "sparse.svg")
        line_chart(path, x, {"y": np.sin(7 * x)})
        (points,) = polylines(path)
        assert len(points) == len(x)

    def test_accepts_numpy_arrays_and_lists_alike(self, tmp_path):
        x = [0.0, 0.5, 1.0, 1.5]
        y = [1.0, -2.0, 3.0, 0.25]
        a, b = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
        line_chart(a, np.array(x), {"y": np.array(y)})
        line_chart(b, x, {"y": y})
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_empty_x_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            line_chart(str(tmp_path / "e.svg"), np.array([]), {"y": np.array([])})
        # An x axis with no y values to plot against it.
        with pytest.raises(ValueError, match="series must be non-empty"):
            line_chart(str(tmp_path / "e.svg"), [1.0], {"y": []})

    @pytest.mark.parametrize("x", [[0.0, 1.0, 2.0], [5.0, 5.0, 5.0]], ids=["spread", "one_x"])
    def test_constant_series_has_finite_coordinates(self, tmp_path, x):
        # A zero y range (and a zero x range) is widened by one unit, so no
        # coordinate divides by zero.
        path = str(tmp_path / "flat.svg")
        line_chart(path, x, {"y": [0.25, 0.25, 0.25]})
        (points,) = polylines(path)
        assert points.shape == (3, 2) and np.all(np.isfinite(points))

    @pytest.mark.parametrize(
        "x",
        [[2.5], [-0.0], [-0.0, -0.0, -0.0], [0.0, 0.0, 0.0], [5.0, 5.0, 5.0], [-3.0, 0.5, 7.0]],
        ids=["one_point", "negative_zero", "all_negative_zero", "all_zero", "one_x", "spread"],
    )
    def test_x_range_is_the_ends_of_x(self, tmp_path, x):
        # x never decreases, so its first and last values are its extremes:
        # the chart has the bytes of one drawn over x.min() to x.max().
        ys = {"y": np.linspace(0.0, 1.0, len(x))}
        line_chart(str(tmp_path / "ends.svg"), x, ys)
        chart = Envelope(list(ys), float(np.min(x)), float(np.max(x)))
        chart.add(x, list(ys.values()))
        chart.write(str(tmp_path / "extremes.svg"))
        assert (tmp_path / "ends.svg").read_bytes() == (tmp_path / "extremes.svg").read_bytes()

    @pytest.mark.parametrize("ys", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0]], ids=["short", "long"])
    def test_series_length_must_match_x(self, tmp_path, ys):
        with pytest.raises(ValueError, match="series 'y' has"):
            line_chart(str(tmp_path / "bad.svg"), [0.0, 1.0, 2.0], {"y": ys})

    def test_decreasing_x_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="x must not decrease"):
            line_chart(str(tmp_path / "back.svg"), [0.0, 2.0, 1.0], {"y": [1.0, 2.0, 3.0]})

    @pytest.mark.parametrize(
        "chunks",
        [[[3.5, 2.5]], [[3.5], [2.5]], [[1.5, 3.5], [3.7, 2.5]]],
        ids=["within", "across", "across_then_within"],
    )
    def test_envelope_rejects_columns_that_step_back(self, chunks):
        chart = Envelope(["y"], 0.0, float(PLOT_WIDTH))
        *good, bad = chunks
        for x in good:
            chart.add(x, [np.ones(len(x))])
        with pytest.raises(ValueError, match="x must not decrease"):
            chart.add(bad, [np.ones(len(bad))])

    def test_equal_x_continues_a_column(self):
        chart = Envelope(["y"], 0.0, float(PLOT_WIDTH))
        for y in (1.0, 3.0, 2.0, 0.0, 5.0, 4.0):
            chart.add([7.5], [[y]])
        assert chart.points(0)[0].tolist() == [0, 3, 4, 5]

    @pytest.mark.parametrize("x", [[-3e9, -2.0, -1.0, -0.5, 0.5], [680.0, 700.0, 1e9, 3e9, 4e9]],
                             ids=["below", "above"])
    def test_columns_past_the_plot_are_clipped(self, x):
        # Every point falls in the nearest edge column: one column of five.
        chart = Envelope(["y"], 0.0, float(PLOT_WIDTH))
        chart.add(x, [[0.0, 5.0, 1.0, -5.0, 2.0]])
        assert chart.points(0)[0].tolist() == [0, 1, 3, 4]

    def test_every_point_list_dropped_at_a_fifth_point_in_a_column(self):
        # Four points in each column are all drawn and held; the fifth in
        # any column, here one fed in a later chunk, drops the list.
        chart = Envelope(["y"], 0.0, float(PLOT_WIDTH))
        for column in range(PLOT_WIDTH):
            chart.add(column + np.array([0.1, 0.2]), [np.array([1.0, 2.0])])
            chart.add(column + np.array([0.3, 0.4]), [np.array([0.0, 3.0])])
        assert sum(len(x) for x, _ in chart._all) == 4 * PLOT_WIDTH
        assert len(chart.points(0)[0]) == 4 * PLOT_WIDTH
        chart.add([PLOT_WIDTH - 0.5], [[1.5]])
        assert chart._all is None
        # Each column keeps its first, lowest and highest, which is its last,
        # point; the last column keeps its fifth point too.
        assert len(chart.points(0)[0]) == 3 * PLOT_WIDTH + 1

    def test_state_does_not_grow_with_chunks(self):
        # The Envelope's traced size after 100 or 10,000 chunks of 50 points.
        def size(chunks):
            x = np.linspace(0.0, 1.0, 50 * chunks)
            y = np.sin(x)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                chart = Envelope(["a", "b"], 0.0, 1.0)
                for a in range(0, len(x), 50):
                    chart.add(x[a : a + 50], [y[a : a + 50], 0.5])
                return tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()

        few, many = size(100), size(10_000)
        assert abs(many - few) < 4096, (few, many)

    def test_every_chunk_is_checked(self):
        chart = Envelope(["a", "b"], 0.0, 1.0)
        chart.add([0.0, 0.5], [[1.0, 2.0], 3.0])
        with pytest.raises(ValueError, match="series 'b' has 1 points for 2 x values"):
            chart.add([0.6, 0.7], [[1.0, 2.0], [3.0]])


# Ties (0.0 and -0.0 are equal), infinities and NaN.
VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan])


@st.composite
def chunked_series(draw):
    """(ys, columns, cuts, constant) for envelope_indices: runs of pixel
    columns that step forward by random strides, sometimes none longer than
    four points, cut into random chunks, so a column may span several, some
    of which are constant."""
    longest = draw(st.sampled_from([4, 9]))
    runs = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, longest)), min_size=1,
                         max_size=30))
    columns = np.repeat(np.cumsum([step for step, _ in runs]), [size for _, size in runs]).tolist()
    n = len(columns)
    ys = np.array(draw(st.lists(VALUES, min_size=n, max_size=n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    bounds = [0, *cuts, n]
    constant = draw(st.sets(st.integers(0, len(bounds) - 2)))
    for k in constant:
        ys[bounds[k] : bounds[k + 1]] = ys[bounds[k]]
    return ys, columns, cuts, constant


class TestChunkedEnvelope:
    @settings(max_examples=300, deadline=None)
    @given(chunked_series())
    # Column 1 spans four chunks, a constant NaN one among them; column 2
    # spans three, with a tie of 0.0 and -0.0 and a lower point in the last.
    @example(([1.0, 2.0, np.nan, 0.5, -1.0, 0.0, -0.0, 3.0, -2.0, 1.0],
              [1, 1, 1, 1, 1, 2, 2, 2, 2, 2], [1, 2, 3, 6, 8], {2}))
    # Column 1 spans three chunks, two of them constant, and the last of
    # those ends in column 3.
    @example(([1.0, np.inf, -np.inf, -np.inf, 5.0, 5.0, 5.0, 0.0, 0.0],
              [1, 1, 1, 1, 1, 1, 3, 3, 3], [2, 4, 7], {1, 2}))
    def test_chunks_keep_what_the_whole_series_keeps(self, case):
        # Any cut into chunks keeps the points the loop reference keeps of
        # the whole series, with their x and y.
        ys, columns, cuts, constant = case
        ys = np.asarray(ys)
        x = np.asarray(columns) + 0.5
        chart = Envelope(["y"], 0.0, float(PLOT_WIDTH))
        bounds = [0, *cuts, len(ys)]
        for k, (a, b) in enumerate(zip(bounds, bounds[1:])):
            chart.add(x[a:b], [float(ys[a]) if k in constant else ys[a:b]])
        index, kept_x, kept_y = chart.points(0)
        expected = reference_envelope(ys, columns)
        assert index.tolist() == expected
        assert np.array_equal(kept_x, x[expected])
        assert np.array_equal(kept_y, ys[expected], equal_nan=True)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"ct": None},
            {"src": make_source(rp=1e6)},
            {"stage": make_stage(storage=FiniteCap(1e-6, 2.0))},
            {"src": make_source(rp=1e6), "stage": make_stage(storage=FiniteCap(1e-6, 2.0))},
        ],
        ids=["ideal", "full_bridge", "leaky", "finite_storage", "leaky_finite_storage"],
    )
    def test_waveform_fed_by_the_csv_walk_draws_the_whole_columns(self, tmp_path, kwargs):
        # The chart that waveform.csv's walk feeds, a constant run as a
        # float, is byte for byte the chart of the whole columns.
        wf = run(make_sim_config(n_cycles=3, **kwargs)).waveform
        t = wf.t
        assert wf.t_span == (t.min(), t.max()) == (t[0], t[-1])
        whole, fed = str(tmp_path / "whole.svg"), str(tmp_path / "fed.svg")
        line_chart(whole, t, {"vpt_V": wf.vpt, "vt_V": wf.vt})
        chart = Envelope(["vpt_V", "vt_V"], *wf.t_span)
        wf.write_csv(io.StringIO(), chart)
        chart.write(fed)
        with open(whole, "rb") as fa, open(fed, "rb") as fb:
            assert fa.read() == fb.read()
