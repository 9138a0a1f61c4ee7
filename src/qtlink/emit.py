"""Deterministic file emission for sweep results: CSV, JSON, and plain SVG.

All renderers are pure string builders, so identical results give identical
bytes; the write wrapper refuses empty tables and surfaces I/O failures
with the offending path attached.  The SVG output needs no plotting
dependency: curves are drawn on a log-scale axis, grids as filled cells
with iso-lines extracted by marching squares.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # annotations only: delta-u --out writes through emit without sweep
    from .sweep import SweepResult

__all__ = [
    "render_csv",
    "render_json",
    "render_svg",
    "write_result",
    "write_text",
    "contour_segments",
]

_FORMATS = ("csv", "json", "svg")


def render_csv(result: SweepResult) -> str:
    """Header, one comment line echoing the config, 9-significant-digit rows.

    The ``sign`` column prints as an integer.  Every row comes from one
    %-format template, applied to the whole table in one call.
    """
    row = ",".join("%d" if c == "sign" else "%.8e" for c in result.columns) + "\n"
    head = f"# config: {json.dumps(result.meta, sort_keys=True)}\n{','.join(result.columns)}\n"
    return head + "".join([row] * len(result.rows)) % tuple(result.rows.ravel().tolist())


def render_json(result: SweepResult) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)`` of the result, plus a newline.

    With an indent, json falls back to its pure-Python encoder, so only the
    small part of the payload goes through it.  The rows are formatted with
    one %-format of a row template, at json's indentation, and spliced in at
    the "rows" key; a finite float prints as its repr, as json prints it.
    """
    rows = result.rows
    payload = {
        "columns": result.columns,
        # an empty table is small enough for json.dumps itself
        "rows": rows.tolist() if rows.size == 0 else None,
        "meta": result.meta,
    }
    if result.grid_shape is not None:
        payload["grid_shape"] = list(result.grid_shape)
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if rows.size == 0:
        return text
    # a row is at depth 2 and its values at depth 3; a raw newline cannot sit
    # inside a JSON string, so the top-level key is the only match
    row = "[\n      " + ",\n      ".join(["%r"] * rows.shape[1]) + "\n    ]"
    body = ",\n    ".join([row] * rows.shape[0]) % tuple(rows.ravel().tolist())
    head, _, tail = text.partition('\n  "rows": null')
    return head + '\n  "rows": [\n    ' + body + "\n  ]" + tail


def write_result(result: SweepResult, fmt: str, path: str, levels=None) -> None:
    """Render ``result`` in the requested format and write it to ``path``."""
    if fmt not in _FORMATS:
        raise ValueError(f"unknown output format {fmt!r}; pick one of {_FORMATS}")
    if len(result.rows) == 0:
        raise ValueError("refusing to emit an empty result")
    if fmt == "csv":
        text = render_csv(result)
    elif fmt == "json":
        text = render_json(result)
    else:
        text = render_svg(result, levels=levels)
    write_text(text, fmt, path)


def write_text(text: str, fmt: str, path: str) -> None:
    """Write already-rendered ``fmt`` output to ``path``, naming the path on failure."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise OSError(f"could not write {fmt} output to {path!r}: {err}") from err


# ----------------------------------------------------------------------
# SVG rendering
# ----------------------------------------------------------------------

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


def render_svg(result: SweepResult, levels=None) -> str:
    if result.grid_shape is not None:
        return _render_grid_svg(result, levels)
    return _render_curves_svg(result)


def _render_curves_svg(result: SweepResult) -> str:
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


def contour_segments(x: np.ndarray, y: np.ndarray, z: np.ndarray, level: float):
    """Iso-line segments of z(x, y) at ``level`` by marching squares.

    z is indexed [i, j] for (x[i], y[j]).  Saddle cells are disambiguated
    with the cell-center average.  Returns ((xa, ya), (xb, yb)) pairs in
    row-major cell order.  Cells are classified in one array pass; only
    those with corners on both sides of the level, the only ones that can
    hold a crossing, are walked.
    """
    # nudge exact level hits off the level so every crossing is a strict
    # sign change (degenerate corners would otherwise open gaps in the line)
    span = float(np.max(z) - np.min(z)) or 1.0
    z = np.where(z == level, level + 1e-12 * span, z)
    above = z > level
    n_above = above[:-1, :-1].astype(np.int8) + above[1:, :-1]
    n_above += above[1:, 1:]
    n_above += above[:-1, 1:]
    segments = []
    for i, j in zip(*np.nonzero((n_above > 0) & (n_above < 4))):
        corners = (
            (x[i], y[j], z[i, j]),
            (x[i + 1], y[j], z[i + 1, j]),
            (x[i + 1], y[j + 1], z[i + 1, j + 1]),
            (x[i], y[j + 1], z[i, j + 1]),
        )
        crossings = []
        for k in range(4):
            xa, ya, za = corners[k]
            xb, yb, zb = corners[(k + 1) % 4]
            if (za - level) * (zb - level) < 0.0:
                t = (level - za) / (zb - za)
                crossings.append((xa + t * (xb - xa), ya + t * (yb - ya)))
        if len(crossings) == 2:
            segments.append((crossings[0], crossings[1]))
        elif len(crossings) == 4:
            center = sum(c[2] for c in corners) / 4.0
            if (center - level) * (corners[0][2] - level) >= 0.0:
                segments.append((crossings[0], crossings[3]))
                segments.append((crossings[1], crossings[2]))
            else:
                segments.append((crossings[0], crossings[1]))
                segments.append((crossings[2], crossings[3]))
    return segments


_HEX = tuple(f"{i:02x}" for i in range(256))


def _cell_colors(z: np.ndarray, vmax: float) -> list:
    """Fill of each cell, by row: grey where z <= 0, else a blue ramp up to vmax."""
    # grey cells ignore the ramp, so clipping them to it keeps every channel a byte
    frac = np.clip(z / vmax, 0.0, 1.0) if vmax > 0 else np.zeros_like(z)
    # rint rounds half to even, as round() does
    red = np.rint(235 - 185 * frac).astype(int).tolist()
    green = np.rint(242 - 130 * frac).astype(int).tolist()
    grey = (z <= 0.0).tolist()
    return [
        ["#d9d9d9" if g else "#" + _HEX[r] + _HEX[gr] + "f0" for r, gr, g in zip(*cols)]
        for cols in zip(red, green, grey)
    ]


def _render_grid_svg(result: SweepResult, levels=None) -> str:
    grid = result.rows.reshape(*result.grid_shape, -1)
    e1, e2, z = grid[:, 0, 0], grid[0, :, 1], grid[:, :, 2]
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
    ys = []
    for yv in e2:
        py0, py1 = _y_to_px(yv + half2, y0, y1), _y_to_px(yv - half2, y0, y1)
        ys.append((f"{py0:.2f}", f"{py1 - py0:.2f}"))
    for (x_str, width), fills in zip(xs, _cell_colors(z, vmax)):
        for (y_str, height), fill in zip(ys, fills):
            parts.append(
                f'<rect x="{x_str}" y="{y_str}" width="{width}" '
                f'height="{height}" fill="{fill}"/>'
            )
    for row, level in enumerate(levels):
        path = []
        for (xa, ya), (xb, yb) in contour_segments(e1, e2, z, level):
            path.append(
                f"M {_x_to_px(xa, x0, x1):.2f} {_y_to_px(ya, y0, y1):.2f} "
                f"L {_x_to_px(xb, x0, x1):.2f} {_y_to_px(yb, y0, y1):.2f}"
            )
        if path:
            parts.append(
                f'<path d="{" ".join(path)}" fill="none" stroke="black" '
                f'stroke-width="1"/>'
            )
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
