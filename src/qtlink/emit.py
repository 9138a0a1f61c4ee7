"""Deterministic file emission for sweep results: CSV, JSON, and plain SVG.

All renderers are pure string builders, so identical results give identical
bytes; each table is one ``sweep.SweepResult``, which is built with at
least two rows and, for a grid, a shape that splits them, so no renderer
handles an empty or one-step table.  The write wrapper surfaces I/O
failures with the offending path attached.  The SVG output needs no plotting
dependency: curves are drawn on a log-scale axis, grids as filled cells
with iso-lines extracted by marching squares.  The SVG string builders live
in ``qtlink.svg``, loaded only when SVG is written, and ``json`` only when
CSV or JSON is.  numpy loads with the first table rendered, so ``write_text``
(``delta-u --out``) never loads it.  ``constants.format_rows`` fills the
CSV and JSON rows, as it fills the verify report's lines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .constants import FLOAT_MAX, format_rows

if TYPE_CHECKING:  # annotations only: delta-u --out writes through emit without sweep or numpy
    import numpy as np

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

    The ``sign`` column prints as an integer.
    """
    import json

    templates = ["%d" if c == "sign" else "%.8e" for c in result.columns]
    row = ",".join(["%s"] * len(templates)) + "\n"
    head = f"# config: {json.dumps(result.meta, sort_keys=True)}\n{','.join(result.columns)}\n"
    return head + format_rows(row, result.rows.T, templates)


def render_json(result: SweepResult) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2)`` of the result, plus a newline.

    With an indent, json falls back to its pure-Python encoder, so only the
    small part of the payload goes through it.  The rows are filled into a
    row template at json's indentation and spliced in at the "rows" key; a
    finite float prints as its repr, as json prints it.
    """
    import json

    rows = result.rows
    payload = {"columns": result.columns, "rows": None, "meta": result.meta}
    if result.grid_shape is not None:
        payload["grid_shape"] = list(result.grid_shape)
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    # a row is at depth 2 and its values at depth 3; a raw newline cannot sit
    # inside a JSON string, so the top-level key is the only match
    row = "[\n      " + ",\n      ".join(["%s"] * rows.shape[1]) + "\n    ]"
    body = format_rows(row, rows.T, ["%r"] * rows.shape[1], sep=",\n    ")
    head, _, tail = text.partition('\n  "rows": null')
    return head + '\n  "rows": [\n    ' + body + "\n  ]" + tail


def render_svg(result: SweepResult, levels=None) -> str:
    """A grid as filled cells with iso-lines at ``levels``, or the curves on a log axis."""
    from . import svg

    if result.grid_shape is not None:
        return svg.grid(result, levels)
    return svg.curves(result)


def write_result(result: SweepResult, fmt: str, path: str, levels=None) -> None:
    """Render ``result`` in the requested format and write it to ``path``."""
    if fmt not in _FORMATS:
        raise ValueError(f"unknown output format {fmt!r}; pick one of {_FORMATS}")
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


def contour_segments(x: np.ndarray, y: np.ndarray, z: np.ndarray, level: float) -> np.ndarray:
    """Iso-line segments of z(x, y) at ``level`` by marching squares.

    z is indexed [i, j] for (x[i], y[j]).  Saddle cells are disambiguated
    with the cell-center average.  Returns an (n, 4) float array with one
    (xa, ya, xb, yb) row per segment, in row-major cell order.  Cells are
    classified in one array pass, and the crossings of those with corners
    on both sides of the level, the only ones that can hold one, are
    computed together.
    """
    import numpy as np

    # Only comparisons and the ratio t below read z and level, so a scale by
    # a power of two leaves every segment as it is; near the float limit it
    # keeps the differences, the span and the saddle sum finite.
    if max(np.abs(z).max(), abs(level)) > FLOAT_MAX / 4.0:
        z, level = z / 4.0, level / 4.0
    # nudge exact level hits off the level so every crossing is a strict
    # sign change (degenerate corners would otherwise open gaps in the line)
    span = float(np.max(z) - np.min(z)) or 1.0
    z = np.where(z == level, level + 1e-12 * span, z)
    above = z > level
    n_above = above[:-1, :-1].astype(np.int8) + above[1:, :-1]
    n_above += above[1:, 1:]
    n_above += above[:-1, 1:]
    i, j = np.nonzero((n_above > 0) & (n_above < 4))
    # one row per straddling cell, its corners in walk order; edge k runs
    # from corner k to corner k + 1 (mod 4)
    za = np.stack([z[i, j], z[i + 1, j], z[i + 1, j + 1], z[i, j + 1]], axis=1)
    xa = np.stack([x[i], x[i + 1], x[i + 1], x[i]], axis=1)
    ya = np.stack([y[j], y[j], y[j + 1], y[j + 1]], axis=1)
    zb, xb, yb = (np.roll(a, -1, axis=1) for a in (za, xa, ya))
    # a strict sign change; a product of the two gaps could overflow
    crosses = ((za < level) & (level < zb)) | ((zb < level) & (level < za))
    t = (level - za[crosses]) / (zb[crosses] - za[crosses])
    cx = xa[crosses] + t * (xb[crosses] - xa[crosses])
    cy = ya[crosses] + t * (yb[crosses] - ya[crosses])
    # the crossings sit cell by cell in edge order; a cell's first is at start.
    # A corner left on the level (the nudge is below its precision) crosses
    # neither of its edges, which can leave a cell one crossing and no segment.
    count = crosses.sum(axis=1)
    start = np.cumsum(count) - count
    center = (za[:, 0] + za[:, 1] + za[:, 2] + za[:, 3]) / 4.0
    corner = za[:, 0]
    split = (center < level) & (level < corner) | (corner < level) & (level < center)
    # a saddle whose center sits with corner 0 joins crossings 0-3 and 1-2,
    # any other cell 0-1 (and 2-3)
    joined = (count == 4) & ~split
    halves = count // 2
    cell = np.repeat(np.arange(len(count)), halves)
    nth = np.arange(len(cell)) - np.repeat(np.cumsum(halves) - halves, halves)
    a = start[cell] + nth * np.where(joined[cell], 1, 2)
    b = a + np.where(joined[cell], 3 - 2 * nth, 1)
    return np.stack([cx[a], cy[a], cx[b], cy[b]], axis=1)
