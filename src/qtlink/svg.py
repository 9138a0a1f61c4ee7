"""SVG string builders behind ``emit.render_svg``: log-scale curves and filled grids.

Only ``emit.render_svg`` imports this module, so a CSV or JSON command never
compiles it.  Both plots share one page and one axes builder, and every
polyline, cell row and iso-line path is formatted from arrays.  The grid's
iso-lines are the (n, 4) array of ``emit.contour_segments``, read off the
``emit`` module on each call and mapped to pixels in place.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from . import emit
from .constants import FLOAT_MAX, require

if TYPE_CHECKING:
    from .sweep import SweepResult

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 30, 50
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _document(title: str, body: list) -> str:
    """A white page titled ``title`` holding the ``body`` elements, one per line."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="18" text-anchor="middle" font-size="14">{title}</text>',
        *body,
        "</svg>\n",
    ])


def _axes(x0: float, x1: float, x_name: str, y_ticks: list, marks: bool) -> list:
    """Frame, x ticks, ``(pixel, label)`` y ticks, x label; ``marks`` adds tick and grid lines."""
    parts = [
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>'
    ]
    for tick in np.linspace(x0, x1, 6).tolist():
        px = _x_to_px(tick, x0, x1)
        if marks:
            parts.append(
                f'<line x1="{px:.1f}" y1="{_H - _MB}" x2="{px:.1f}" '
                f'y2="{_H - _MB + 5}" stroke="black"/>'
            )
        parts.append(
            f'<text x="{px:.1f}" y="{_H - _MB + 18}" text-anchor="middle">{tick:.3g}</text>'
        )
    for py, label in y_ticks:
        if marks:
            parts.append(
                f'<line x1="{_ML - 5}" y1="{py:.1f}" x2="{_ML}" y2="{py:.1f}" stroke="black"/>'
            )
            parts.append(
                f'<line x1="{_ML}" y1="{py:.1f}" x2="{_W - _MR}" y2="{py:.1f}" '
                f'stroke="#dddddd"/>'
            )
        parts.append(f'<text x="{_ML - 8}" y="{py + 4:.1f}" text-anchor="end">{label}</text>')
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 12}" '
        f'text-anchor="middle">{x_name}</text>'
    )
    return parts


def _span(values: np.ndarray, name: str) -> tuple:
    """Least and greatest of column ``name``'s ``values``; they must differ by a finite width."""
    lo, hi = float(values.min()), float(values.max())
    ok = 0.0 < hi - lo <= FLOAT_MAX
    require(f"column {name!r}", [lo, hi], ok, "spread over a nonzero, finite width")
    return lo, hi


def _x_to_px(x, x0, x1):
    return _ML + (x - x0) / (x1 - x0) * (_W - _ML - _MR)


def _y_to_px(y, y0, y1):
    return _H - _MB - (y - y0) / (y1 - y0) * (_H - _MT - _MB)


def curves(result: SweepResult) -> str:
    """A 1-d result's ``du_`` columns (else all the rest) against its first, on a log axis."""
    x_name = result.columns[0]
    # dimensionless companion columns (e.g. ratios) stay out of the log plot
    y_names = [c for c in result.columns[1:] if c.startswith("du_")] or list(
        result.columns[1:]
    )
    require("columns", result.columns, len(y_names) > 0, f"{x_name!r} and at least one curve")
    xs = result.column(x_name)
    x0, x1 = _span(xs, x_name)
    all_y = np.concatenate([result.column(c) for c in y_names])
    if np.any(all_y <= 0):
        raise ValueError("log-scale curve plot needs strictly positive values")
    ly0 = math.floor(math.log10(all_y.min()))
    ly1 = math.ceil(math.log10(all_y.max()))
    if ly1 == ly0:
        ly1 += 1

    decades = [(_y_to_px(d, ly0, ly1), f"1e{d}") for d in range(ly0, ly1 + 1)]
    parts = _axes(x0, x1, x_name, decades, marks=True)
    points = np.empty((len(xs), 2))
    points[:, 0] = _x_to_px(xs, x0, x1)
    template = " ".join(["%.2f,%.2f"] * len(xs))
    for k, name in enumerate(y_names):
        color = _PALETTE[k % len(_PALETTE)]
        # math.log10, not np.log10: the two differ in the last bit on some values
        logs = np.fromiter(map(math.log10, result.column(name).tolist()), float, len(xs))
        points[:, 1] = _y_to_px(logs, ly0, ly1)
        parts.append(
            f'<polyline points="{template % tuple(points.ravel().tolist())}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MT + 16 + 16 * k
        parts.append(
            f'<line x1="{_W - _MR - 150}" y1="{ly}" x2="{_W - _MR - 125}" '
            f'y2="{ly}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{_W - _MR - 120}" y="{ly + 4}">{name}</text>')
    return _document(result.meta.get("preset", {}).get("name", "sweep"), parts)


def _cell_colors(z: np.ndarray, vmax: float) -> list:
    """Fill of each cell, by row: grey where z <= 0, else a blue ramp up to vmax.

    Each distinct fill is formatted once.
    """
    # grey cells ignore the ramp, so clipping them to it keeps every channel a byte
    frac = np.clip(z / vmax, 0.0, 1.0) if vmax > 0 else np.zeros_like(z)
    # rint rounds half to even, as round() does
    red = np.rint(235 - 185 * frac).astype(int)
    green = np.rint(242 - 130 * frac).astype(int)
    # one code per fill: -1 for grey, else the red and green bytes
    codes, index = np.unique(np.where(z <= 0.0, -1, 256 * red + green).ravel(), return_inverse=True)
    fills = ["#d9d9d9" if c < 0 else "#%02x%02xf0" % divmod(c, 256) for c in codes.tolist()]
    return np.array(fills, dtype=object)[index.reshape(z.shape)].tolist()


def grid(result: SweepResult, levels=None) -> str:
    """A grid result's third column as filled cells, with its iso-lines at ``levels``."""
    cube = result.rows.reshape(*result.grid_shape, -1)
    e1, e2, z = cube[:, 0, 0], cube[0, :, 1], cube[:, :, 2]
    x0, x1 = _span(e1, result.columns[0])
    y0, y1 = _span(e2, result.columns[1])
    vmax = float(z.max())
    if levels is None:
        # four evenly spaced iso-levels inside the positive range
        levels = [vmax * f for f in (0.25, 0.5, 0.75, 0.95)] if vmax > 0 else []

    half1 = 0.5 * (e1[1] - e1[0])
    half2 = 0.5 * (e2[1] - e2[0])
    # a cell's x and width depend on its column only, its y and height on its row
    px0, px1 = _x_to_px(e1 - half1, x0, x1), _x_to_px(e1 + half1, x0, x1)
    py0, py1 = _y_to_px(e2 + half2, y0, y1), _y_to_px(e2 - half2, y0, y1)
    # the cells at one eta1 share x and width and differ in y, height and
    # fill, so they are one join of six pieces per cell; the y and height
    # pieces are set once for every eta1
    n = len(e2)
    pieces = [None] * (6 * n)
    pieces[1::6] = map('" y="{:.2f}" width="'.format, py0.tolist())
    pieces[3::6] = map('" height="{:.2f}" fill="'.format, (py1 - py0).tolist())
    pieces[5::6] = ['"/>\n'] * n
    pieces[-1] = '"/>'
    parts = []
    for x_px, width, fills in zip(px0.tolist(), (px1 - px0).tolist(), _cell_colors(z, vmax)):
        pieces[0::6] = [f'<rect x="{x_px:.2f}'] * n
        pieces[2::6] = [f"{width:.2f}"] * n
        pieces[4::6] = fills
        parts.append("".join(pieces))
    for row, level in enumerate(levels):
        ends = emit.contour_segments(e1, e2, z, level)
        if len(ends):
            ends[:, 0::2] = _x_to_px(ends[:, 0::2], x0, x1)
            ends[:, 1::2] = _y_to_px(ends[:, 1::2], y0, y1)
            path = " ".join(["M %.2f %.2f L %.2f %.2f"] * len(ends)) % tuple(ends.ravel().tolist())
            parts.append(f'<path d="{path}" fill="none" stroke="black" stroke-width="1"/>')
            parts.append(
                f'<text x="{_W - _MR - 5}" y="{_MT + 14 + 14 * row}" '
                f'text-anchor="end">level {level:.3e}</text>'
            )
    y_ticks = [(_y_to_px(t, y0, y1), f"{t:.3g}") for t in np.linspace(y0, y1, 6).tolist()]
    parts += _axes(x0, x1, result.columns[0], y_ticks, marks=False)
    return _document(result.meta.get("preset", {}).get("name", "grid"), parts)
