"""Minimal deterministic SVG line charts. CSV is the full-resolution data
contract; these plots exist for quick visual inspection only.

A series is drawn from a per-pixel min/max envelope: its points are grouped by
the pixel column of the 680-px plot width they fall in, and each column keeps
its first, lowest, highest and last point, in order. The drawn line has the
same extremes in every column as the full series, at no more than four points
per column. A series with at most four points in every column is drawn point
for point.
"""

from __future__ import annotations

from typing import Mapping, Sequence

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
    ys_all = {name: np.asarray(ys, dtype=np.float64) for name, ys in series.items()}
    all_y = np.concatenate([np.empty(0), *ys_all.values()])
    if all_y.size == 0:
        raise ValueError("series must be non-empty")
    x_min, x_max = float(x.min()), float(x.max())
    y_min, y_max = float(all_y.min()), float(all_y.max())
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    # Keep the operation order of a per-point scalar transform, so every
    # coordinate written is the one a point-by-point rendering would write.
    offset = (x - x_min) / (x_max - x_min) * _PLOT_WIDTH
    px = _MARGIN + offset
    column = np.minimum(offset.astype(np.int64), _PLOT_WIDTH - 1)
    starts = np.flatnonzero(np.diff(column, prepend=-1))

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
    for idx, (name, ys) in enumerate(ys_all.items()):
        color = _COLORS[idx % len(_COLORS)]
        keep = _envelope(ys, starts)
        xy = np.column_stack((px[keep], sy(ys[keep]))).ravel().tolist()
        points = " ".join(["%.2f,%.2f"] * len(keep)) % tuple(xy)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{points}"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN + 4}" y="{_MARGIN + 14 * idx}" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def _envelope(ys: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Indices of the points to draw: per run of points in one pixel column
    (runs begin at `starts`), its first, lowest, highest and last point, in
    index order; every index when no column holds more than four points."""
    n = len(ys)
    index = np.arange(n)
    ends = np.append(starts[1:], n)
    counts = ends - starts
    if counts.max() <= 4:
        return index
    # First index of each column's minimum and maximum: mask the points equal
    # to their column's extreme, then take the smallest masked index. A NaN
    # extreme matches no point, so its column keeps its last point instead.
    last = ends - 1
    lowest = np.minimum.reduceat(
        np.where(ys == np.repeat(np.minimum.reduceat(ys, starts), counts), index, n), starts
    )
    highest = np.minimum.reduceat(
        np.where(ys == np.repeat(np.maximum.reduceat(ys, starts), counts), index, n), starts
    )
    picks = np.sort(
        np.column_stack((starts, np.minimum(lowest, last), np.minimum(highest, last), last)), axis=1
    )
    fresh = np.ones(picks.shape, dtype=bool)
    fresh[:, 1:] = picks[:, 1:] != picks[:, :-1]
    return picks[fresh]
