"""Minimal deterministic SVG line charts. CSV is the full-resolution data
contract; these plots exist for quick visual inspection only.

A series is drawn from a per-pixel min/max envelope: its points are grouped by
the pixel column of the 680-px plot width they fall in, and each run of
points in one column keeps its first, lowest, highest and last point, in
order (the first of equal extremes; a run holding a NaN keeps its first and
last point). The drawn line has the same extremes in every column as the full
series, at no more than four points per column. A chart whose runs all hold
at most four points is drawn point for point.

One accumulator, Envelope, draws every chart. It takes the series in ordered
chunks over an x range stated up front, reduces each chunk to the four points
of its runs and merges them with the runs before, so it holds the kept points,
never a whole series. sy() is applied to the kept points only when the chart
is written. line_chart feeds it one chunk. simulate feeds waveform.svg from the
one walk that writes waveform.csv, a run's constant value as a float, so each
sample is evaluated once and the chart's memory is bounded by the plot, not
by the length of the run.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np

_WIDTH = 800
_HEIGHT = 480
_MARGIN = 60
_PLOT_WIDTH = _WIDTH - 2 * _MARGIN  # pixel columns of the plot area
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
_MERGE = 64  # blocks of runs that Envelope holds before it merges them into one


def _fmt(x: float) -> str:
    return format(x, ".6g")


def line_chart(
    path: str,
    x: Sequence[float],
    series: Mapping[str, Sequence[float]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> None:
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("x must be non-empty")
    ys = [np.asarray(y, dtype=np.float64) for y in series.values()]
    if not any(y.size for y in ys):
        raise ValueError("series must be non-empty")
    chart = Envelope(list(series), float(x.min()), float(x.max()))
    chart.add(x, ys)
    chart.write(path, title, xlabel, ylabel)


class Envelope:
    """The pixel envelope of named series over one x axis, fed in x order by
    add() and drawn by write(). x_min and x_max must bound every x that add()
    is given: they fix each point's pixel column when it arrives.

    A run of points in one column is held as its first, lowest, highest and
    last point per series: their indices, x and y, each a (runs, series, 4)
    array, where the lowest and highest y is the run's extreme, NaN if the run
    holds one. Two runs in the same column that meet at a chunk boundary
    merge by the rule that reduced them, since a run's extremes are those of
    its parts."""

    def __init__(self, names: Sequence[str], x_min: float, x_max: float):
        self.names = list(names)
        if x_max == x_min:
            x_max = x_min + 1.0
        self.x_min, self.x_max = x_min, x_max
        self._n = 0  # points added, so the index of the next chunk's first point
        # (column, count, index, x, y) blocks of runs, in index order.
        self._runs: List[tuple] = []
        # Every chunk, while no run holds more than four points.
        self._all: Optional[List[tuple]] = []

    def add(self, x, ys: Sequence) -> None:
        """Append the points (x[k], ys[s][k]) of every series s, in names
        order. A series given as a float is constant over the chunk, and its
        runs are kept without a pass over its points."""
        x = np.asarray(x, dtype=np.float64)
        ys = [np.asarray(y, dtype=np.float64) for y in ys]
        for name, y in zip(self.names, ys):
            if y.ndim and len(y) != len(x):
                raise ValueError(f"series {name!r} has {len(y)} points for {len(x)} x values")
        if not len(x):
            return
        # The operation order of a per-point scalar transform, as write()'s px.
        offset = x - self.x_min
        offset /= self.x_max - self.x_min
        offset *= _PLOT_WIDTH
        column = offset.astype(np.int64)
        np.minimum(column, _PLOT_WIDTH - 1, out=column)
        starts, count, at, extremes = _group(column, ys, ys)
        y = np.empty(at.shape)
        for s, v in enumerate(ys):
            y[:, s] = v[at[:, s]] if v.ndim else v
        y[:, :, 1:3] = extremes
        self._push(column[starts], count, at + self._n, x[at], y)
        if self._all is not None:
            self._all.append((x, [v if v.ndim else np.full(len(x), v) for v in ys]))
        self._n += len(x)

    def _push(self, *runs) -> None:
        """Hold this block of runs after the others, and merge the blocks
        once there are more than _MERGE: the merged block holds at most one
        run per pixel column on an x that never decreases."""
        if runs[1].max() > 4:
            self._all = None
        self._runs.append(runs)
        if len(self._runs) > _MERGE:
            self._merge()

    def _merge(self) -> None:
        """Merge neighbouring runs that share a pixel column into one."""
        column, count, index, x, y = (np.concatenate(f) for f in zip(*self._runs))
        starts, _, at, extremes = _group(column, y[:, :, 1].T, y[:, :, 2].T)
        pick = (at, np.arange(at.shape[1])[:, None], np.arange(4))
        y = y[pick]
        y[:, :, 1:3] = extremes
        count = np.add.reduceat(count, starts)
        if count.max() > 4:
            self._all = None
        self._runs = [(column[starts], count, index[pick], x[pick], y)]

    def points(self, s: int):
        """The index, x and y of the points drawn for series s, as arrays in
        index order."""
        _, _, index, x, y = self._merged_runs()
        if self._all is not None:  # no run holds more than four points: draw them all
            x = np.concatenate([cx for cx, _ in self._all])
            y = np.concatenate([cy[s] for _, cy in self._all])
            return np.arange(len(x)), x, y
        return _kept(index[:, s], x[:, s], y[:, s])

    def _merged_runs(self) -> tuple:
        """The runs as one merged block: a single block is, since the runs of
        one chunk never share a column with their neighbours."""
        if not self._n:
            raise ValueError("x must be non-empty")
        if len(self._runs) > 1:
            self._merge()
        return self._runs[0]

    def write(self, path: str, title: str = "", xlabel: str = "", ylabel: str = "") -> None:
        """Write the chart to path, with one polyline per series."""
        *_, y = self._merged_runs()
        x_min, x_max = self.x_min, self.x_max
        y_min, y_max = float(y[:, :, 1].min()), float(y[:, :, 2].max())
        if y_max == y_min:
            y_max = y_min + 1.0

        def sy(v):
            return _HEIGHT - _MARGIN - (v - y_min) / (y_max - y_min) * (_HEIGHT - 2 * _MARGIN)

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
            f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
            f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
            f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
            f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
            f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
            f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        ]
        if title:
            parts.append(
                f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
                f'font-family="sans-serif" font-size="16">{title}</text>'
            )
        if xlabel:
            parts.append(
                f'<text x="{_WIDTH // 2}" y="{_HEIGHT - 16}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="12">{xlabel}</text>'
            )
        if ylabel:
            parts.append(
                f'<text x="16" y="{_HEIGHT // 2}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="12" '
                f'transform="rotate(-90 16 {_HEIGHT // 2})">{ylabel}</text>'
            )
        # Axis range labels
        parts.append(
            f'<text x="{_MARGIN}" y="{_HEIGHT - _MARGIN + 16}" font-family="sans-serif" '
            f'font-size="10">{_fmt(x_min)}</text>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN}" y="{_HEIGHT - _MARGIN + 16}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_fmt(x_max)}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN - 4}" y="{_HEIGHT - _MARGIN}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_fmt(y_min)}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN - 4}" y="{_MARGIN + 4}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_fmt(y_max)}</text>'
        )
        for s, name in enumerate(self.names):
            color = _COLORS[s % len(_COLORS)]
            _, x, y = self.points(s)
            px = _MARGIN + (x - x_min) / (x_max - x_min) * _PLOT_WIDTH
            xy = np.column_stack((px, sy(y))).ravel().tolist()
            points = " ".join(["%.2f,%.2f"] * len(px)) % tuple(xy)
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{points}"/>'
            )
            parts.append(
                f'<text x="{_WIDTH - _MARGIN + 4}" y="{_MARGIN + 14 * s}" '
                f'font-family="sans-serif" font-size="11" fill="{color}">{name}</text>'
            )
        parts.append("</svg>")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(parts) + "\n")


def _group(column: np.ndarray, lows: Sequence[np.ndarray], highs: Sequence[np.ndarray]):
    """Group entries into runs of equal column. Per series s, lows[s] and
    highs[s] hold each entry's lowest and highest value, or one constant as a
    0-d array. Return each run's start and size, and per run and series the
    positions of its first, lowest, highest and last entry, (runs, series, 4),
    and its lowest and highest value, (runs, series, 2). An extreme is the
    first entry that holds it; a NaN extreme is held by none, and the run's
    last entry stands in."""
    n = len(column)
    change = np.empty(n + 1, dtype=bool)  # True where a run starts, and past the end
    change[0] = change[n] = True
    np.not_equal(column[1:], column[:-1], out=change[1:n])
    bounds = np.flatnonzero(change)
    starts, size, last = bounds[:-1], bounds[1:] - bounds[:-1], bounds[1:] - 1
    at = np.empty((len(starts), len(lows), 4), dtype=np.int64)
    at[:] = starts[:, None, None]
    at[:, :, 3] = last[:, None]
    extremes = np.empty((len(starts), len(lows), 2))
    for s, pair in enumerate(zip(lows, highs)):
        for k, (v, ufunc) in enumerate(zip(pair, (np.minimum, np.maximum))):
            if v.ndim and len(starts) < n:
                extremes[:, s, k] = extreme = ufunc.reduceat(v, starts)
                held = np.where(v == np.repeat(extreme, size), np.arange(n), n)
                at[:, s, k + 1] = np.minimum(np.minimum.reduceat(held, starts), last)
            else:  # a constant, or every run one entry: its start holds the extremes
                extremes[:, s, k] = v
    return starts, size, at, extremes


def _kept(index: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The (index, x, y) rows of a series' kept points, from its runs' first,
    lowest, highest and last points, (runs, 4) each: per run those points in
    index order, each once. A run whose extremes are NaN keeps its first and
    last point."""
    picks = np.stack((index, x, y), axis=-1)
    nan = np.isnan(y[:, 1])
    picks[nan, 1:3] = picks[nan, 3:]
    swap = picks[:, 1, 0] > picks[:, 2, 0]  # the highest point comes first
    picks[swap, 1:3] = picks[swap, 2:0:-1]
    fresh = np.ones(index.shape, dtype=bool)
    fresh[:, 1:] = picks[:, 1:, 0] != picks[:, :-1, 0]
    return picks[fresh].T
