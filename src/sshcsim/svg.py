"""Minimal deterministic SVG line charts. CSV is the full-resolution data
contract; these plots exist for quick visual inspection only.

A series is drawn from a per-pixel min/max envelope: its points are grouped by
the pixel column of the 680-px plot width they fall in, and each column keeps
its first, lowest, highest and last point, in order (the first of equal
extremes; a column holding a NaN keeps its first and last point). The drawn
line has the same extremes in every column as the full series, at no more
than four points per column. A chart whose columns all hold at most four
points is drawn point for point.

One accumulator, Envelope, draws every chart. It takes the series in chunks
over an x range stated up front, and x must never decrease: then the points
of each column arrive together, and one table indexed by pixel column holds
the four points of each, so the chart holds the table, never a whole series.
sy() is applied to the kept points only when the chart is written. line_chart
feeds it one chunk. simulate feeds waveform.svg from the one walk that writes
waveform.csv, each window of rows in one chunk, so each sample is evaluated
once and the chart's memory is bounded by the plot, not by the length of the
run.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np

_WIDTH = 800
_HEIGHT = 480
_MARGIN = 60
_PLOT_WIDTH = _WIDTH - 2 * _MARGIN  # pixel columns of the plot area
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


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
    if not (x[1:] >= x[:-1]).all():
        raise ValueError("x must not decrease")
    chart = Envelope(list(series), float(x[0]), float(x[-1]))  # x never decreases: its extremes
    chart.add(x, ys)
    chart.write(path, title, xlabel, ylabel)


class Envelope:
    """The pixel envelope of named series over one x axis, fed by add() in
    chunks whose x never decreases and drawn by write(). x_min and x_max fix
    each point's pixel column when it arrives; a column past the plot is
    clipped to its edge.

    One table, indexed by pixel column, holds each column's point count and,
    per series, its first, lowest, highest and last point as (index, x, y),
    the lowest and highest y being the column's extreme, NaN if it holds one.
    Entries are valid where the count is nonzero. As x never decreases, each
    chunk's runs of points in one column fill fresh columns, but its first
    run may continue the column the last chunk ended in. That run merges by
    the rule that reduced it, since a column's extremes are those of its parts."""

    def __init__(self, names: Sequence[str], x_min: float, x_max: float):
        self.names = list(names)
        if x_max == x_min:
            x_max = x_min + 1.0
        self.x_min, self.x_max = x_min, x_max
        self._n = 0  # points added, so the index of the next chunk's first point
        self._count = np.zeros(_PLOT_WIDTH, dtype=np.int64)
        # (column, series, first/lowest/highest/last, index/x/y), valid where counted.
        self._table = np.empty((_PLOT_WIDTH, len(self.names), 4, 3))
        self._column = 0  # the column the last chunk ended in
        # Every chunk, while no column holds more than four points.
        self._all: Optional[List[tuple]] = []

    def add(self, x, ys: Sequence) -> None:
        """Append the points (x[k], ys[s][k]) of every series s, in names
        order. A series given as a float is constant over the chunk, and its
        runs are kept without a pass over its points. Raise ValueError if the
        chunk's pixel columns step back, within it or from the last chunk."""
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
        np.maximum(column, 0, out=column)
        starts, count, at, extremes = _group(column, ys)
        columns = column[starts]
        if columns[0] < self._column or np.count_nonzero(columns[1:] < columns[:-1]):
            raise ValueError("x must not decrease")
        runs = np.empty(at.shape + (3,))
        runs[..., 0] = at + self._n
        runs[..., 1] = x[at]
        for s, v in enumerate(ys):
            runs[:, s, :, 2] = v[at[:, s]] if v.ndim else v
        runs[:, :, 1:3, 2] = extremes
        if self._n and columns[0] == self._column:  # the first run continues the column
            held, first = self._table[self._column], runs[0]
            first[:, 0] = held[:, 0]
            # A held extreme beyond the run's, or NaN, stays. On a tie its point
            # stays and the value is the run's, as a reduction over the column
            # gives it (the sign of a zero). A highest is compared negated.
            pairs = zip(held[:, 1:3, 2].tolist(), first[:, 1:3, 2].tolist())
            for s, ((low, high), (new_low, new_high)) in enumerate(pairs):
                for k, was, new in ((1, low, new_low), (2, -high, -new_high)):
                    if was < new or was != was:
                        first[s, k] = held[s, k]
                    elif was == new:
                        first[s, k, :2] = held[s, k, :2]
            count[0] += self._count[self._column]
        self._table[columns] = runs
        self._count[columns] = count
        self._column = columns[-1]
        if self._all is not None:
            if count.max() > 4:
                self._all = None
            else:
                self._all.append((x, [v if v.ndim else np.full(len(x), v) for v in ys]))
        self._n += len(x)

    def _columns(self) -> np.ndarray:
        """The table's counted columns, in index order."""
        if not self._n:
            raise ValueError("x must be non-empty")
        return self._table.compress(self._count, axis=0)

    def points(self, s: int):
        """The index, x and y of the points drawn for series s, as arrays in
        index order."""
        if self._all:  # no column holds more than four points: draw them all
            x = np.concatenate([cx for cx, _ in self._all])
            y = np.concatenate([cy[s] for _, cy in self._all])
            return np.arange(len(x)), x, y
        return _kept(self._columns()[:, s])

    def write(self, path: str, title: str = "", xlabel: str = "", ylabel: str = "") -> None:
        """Write the chart to path, with one polyline per series."""
        y = self._columns()[..., 2]
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
        end = ' text-anchor="end"'
        for label_x, label_y, anchor, value in (  # the axis ranges
            (_MARGIN, _HEIGHT - _MARGIN + 16, "", x_min),
            (_WIDTH - _MARGIN, _HEIGHT - _MARGIN + 16, end, x_max),
            (_MARGIN - 4, _HEIGHT - _MARGIN, end, y_min),
            (_MARGIN - 4, _MARGIN + 4, end, y_max),
        ):
            parts.append(
                f'<text x="{label_x}" y="{label_y}"{anchor} font-family="sans-serif" '
                f'font-size="10">{_fmt(value)}</text>'
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


def _group(column: np.ndarray, ys: Sequence[np.ndarray]):
    """Group points into runs of equal column. Per series s, ys[s] holds each
    point's value, or one constant as a 0-d array. Return each run's start and
    size, and per run and series the positions of its first, lowest, highest
    and last point, (runs, series, 4), and its lowest and highest value,
    (runs, series, 2). An extreme is the first point that holds it; a NaN
    extreme is held by none, and the run's last point stands in."""
    n = len(column)
    change = np.empty(n + 1, dtype=bool)  # True where a run starts, and past the end
    change[0] = change[n] = True
    np.not_equal(column[1:], column[:-1], out=change[1:n])
    bounds = np.flatnonzero(change)
    starts, size, last = bounds[:-1], bounds[1:] - bounds[:-1], bounds[1:] - 1
    at = np.empty((len(starts), len(ys), 4), dtype=np.int64)
    at[:] = starts[:, None, None]
    at[:, :, 3] = last[:, None]
    extremes = np.empty((len(starts), len(ys), 2))
    for s, v in enumerate(ys):
        for k, ufunc in enumerate((np.minimum, np.maximum)):
            if v.ndim and len(starts) < n:
                extremes[:, s, k] = extreme = ufunc.reduceat(v, starts)
                np.equal(v, np.repeat(extreme, size), out=change[:n])  # change[n] stays True
                held = np.flatnonzero(change)  # the points that hold their run's extreme, and n
                at[:, s, k + 1] = np.minimum(held[held.searchsorted(starts)], last)
            else:  # a constant, or every run one point: its start holds the extremes
                extremes[:, s, k] = v
    return starts, size, at, extremes


def _kept(picks: np.ndarray) -> np.ndarray:
    """The (index, x, y) rows of a series' kept points, from its columns'
    first, lowest, highest and last points as (index, x, y), (columns, 4, 3):
    per column those points in index order, each once. A column whose
    extremes are NaN keeps its first and last point."""
    nan = np.isnan(picks[:, 1, 2])
    picks[nan, 1:3] = picks[nan, 3:]
    swap = picks[:, 1, 0] > picks[:, 2, 0]  # the highest point comes first
    picks[swap, 1:3] = picks[swap, 2:0:-1]
    fresh = np.ones(picks.shape[:2], dtype=bool)
    fresh[:, 1:] = picks[:, 1:, 0] != picks[:, :-1, 0]
    return picks[fresh].T
