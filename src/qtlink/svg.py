"""SVG string builders behind ``emit.render_svg``: log-scale curves and filled grids.

Only ``emit.render_svg`` imports this module, so a CSV or JSON command never
compiles it.  The grid's iso-lines come from ``emit.contour_segments``, read
off the ``emit`` module on each call.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from . import emit

if TYPE_CHECKING:
    from .sweep import SweepResult

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 30, 50
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_header(title: str) -> list:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="18" text-anchor="middle" font-size="14">{title}</text>',
    ]


def _x_to_px(x, x0, x1):
    return _ML + (x - x0) / (x1 - x0) * (_W - _ML - _MR)


def _y_to_px(y, y0, y1):
    return _H - _MB - (y - y0) / (y1 - y0) * (_H - _MT - _MB)


def _axis_ticks(lo: float, hi: float, n: int = 6) -> list:
    raw = np.linspace(lo, hi, n)
    return [float(v) for v in raw]


def curves(result: SweepResult) -> str:
    """A 1-d result's ``du_`` columns (else all the rest) against its first, on a log axis."""
    x_name = result.columns[0]
    # dimensionless companion columns (e.g. ratios) stay out of the log plot
    y_names = [c for c in result.columns[1:] if c.startswith("du_")] or list(
        result.columns[1:]
    )
    xs = result.column(x_name)
    x0, x1 = float(xs.min()), float(xs.max())
    all_y = np.concatenate([result.column(c) for c in y_names])
    if np.any(all_y <= 0):
        raise ValueError("log-scale curve plot needs strictly positive values")
    ly0 = math.floor(math.log10(all_y.min()))
    ly1 = math.ceil(math.log10(all_y.max()))
    if ly1 == ly0:
        ly1 += 1

    parts = _svg_header(result.meta.get("preset", {}).get("name", "sweep"))
    # frame and ticks
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>'
    )
    for tick in _axis_ticks(x0, x1):
        px = _x_to_px(tick, x0, x1)
        parts.append(
            f'<line x1="{px:.1f}" y1="{_H - _MB}" x2="{px:.1f}" '
            f'y2="{_H - _MB + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{_H - _MB + 18}" text-anchor="middle">{tick:.3g}</text>'
        )
    for decade in range(ly0, ly1 + 1):
        py = _y_to_px(decade, ly0, ly1)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{py:.1f}" x2="{_ML}" y2="{py:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{_ML}" y1="{py:.1f}" x2="{_W - _MR}" y2="{py:.1f}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{py + 4:.1f}" text-anchor="end">1e{decade}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 12}" '
        f'text-anchor="middle">{x_name}</text>'
    )
    for k, name in enumerate(y_names):
        color = _PALETTE[k % len(_PALETTE)]
        pts = []
        for x, y in zip(xs, result.column(name)):
            px = _x_to_px(float(x), x0, x1)
            py = _y_to_px(math.log10(float(y)), ly0, ly1)
            pts.append(f"{px:.2f},{py:.2f}")
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = _MT + 16 + 16 * k
        parts.append(
            f'<line x1="{_W - _MR - 150}" y1="{ly}" x2="{_W - _MR - 125}" '
            f'y2="{ly}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(f'<text x="{_W - _MR - 120}" y="{ly + 4}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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
    x0, x1 = float(e1.min()), float(e1.max())
    y0, y1 = float(e2.min()), float(e2.max())
    vmax = float(z.max())
    if levels is None:
        # four evenly spaced iso-levels inside the positive range
        levels = [vmax * f for f in (0.25, 0.5, 0.75, 0.95)] if vmax > 0 else []

    parts = _svg_header(result.meta.get("preset", {}).get("name", "grid"))
    half1 = 0.5 * (e1[1] - e1[0]) if len(e1) > 1 else 0.5
    half2 = 0.5 * (e2[1] - e2[0]) if len(e2) > 1 else 0.5
    # a cell's x and width depend on its column only, its y and height on its row
    xs = []
    for xv in e1:
        px0, px1 = _x_to_px(xv - half1, x0, x1), _x_to_px(xv + half1, x0, x1)
        xs.append((f"{px0:.2f}", f"{px1 - px0:.2f}"))
    # the cells at one eta1 share x and width and differ in y, height and
    # fill, so they are one join of six pieces per cell; the y and height
    # pieces are set once for every eta1
    n = len(e2)
    pieces = [None] * (6 * n)
    for k, yv in enumerate(e2):
        py0, py1 = _y_to_px(yv + half2, y0, y1), _y_to_px(yv - half2, y0, y1)
        pieces[6 * k + 1] = f'" y="{py0:.2f}" width="'
        pieces[6 * k + 3] = f'" height="{py1 - py0:.2f}" fill="'
    pieces[5::6] = ['"/>\n'] * n
    pieces[-1] = '"/>'
    for (x_str, width), fills in zip(xs, _cell_colors(z, vmax)):
        pieces[0::6] = [f'<rect x="{x_str}'] * n
        pieces[2::6] = [width] * n
        pieces[4::6] = fills
        parts.append("".join(pieces))
    for row, level in enumerate(levels):
        # one row (xa, ya, xb, yb) per segment, mapped to pixels in place
        ends = np.array(emit.contour_segments(e1, e2, z, level), dtype=float).reshape(-1, 4)
        if len(ends):
            ends[:, 0::2] = _x_to_px(ends[:, 0::2], x0, x1)
            ends[:, 1::2] = _y_to_px(ends[:, 1::2], y0, y1)
            path = " ".join(["M %.2f %.2f L %.2f %.2f"] * len(ends)) % tuple(ends.ravel().tolist())
            parts.append(f'<path d="{path}" fill="none" stroke="black" stroke-width="1"/>')
            parts.append(
                f'<text x="{_W - _MR - 5}" y="{_MT + 14 + 14 * row}" '
                f'text-anchor="end">level {level:.3e}</text>'
            )
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>'
    )
    for tick in _axis_ticks(x0, x1):
        px = _x_to_px(tick, x0, x1)
        parts.append(
            f'<text x="{px:.1f}" y="{_H - _MB + 18}" text-anchor="middle">{tick:.3g}</text>'
        )
    for tick in _axis_ticks(y0, y1):
        py = _y_to_px(tick, y0, y1)
        parts.append(
            f'<text x="{_ML - 8}" y="{py + 4:.1f}" text-anchor="end">{tick:.3g}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 12}" '
        f'text-anchor="middle">{result.columns[0]}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
