import re

import numpy as np
import pytest

from sshcsim import run
from sshcsim.svg import _envelope, line_chart

from conftest import make_sim_config

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
    """Loop form of the envelope: per column, its first, lowest, highest and
    last point in index order."""
    keep = []
    start = 0
    for end in range(1, len(ys) + 1):
        if end == len(ys) or columns[end] != columns[start]:
            run_ys = list(ys[start:end])
            picks = {
                start,
                start + run_ys.index(min(run_ys)),
                start + run_ys.index(max(run_ys)),
                end - 1,
            }
            keep.extend(sorted(picks))
            start = end
    return keep


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
        starts = np.flatnonzero(np.diff(columns, prepend=-1))
        assert _envelope(ys, starts).tolist() == reference_envelope(ys, columns)

    def test_nan_column_keeps_first_and_last_point(self):
        ys = np.sin(np.arange(100.0))
        ys[10] = np.nan
        starts = np.array([0, 50])  # two pixel columns of 50 points each
        keep = _envelope(ys, starts).tolist()
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
