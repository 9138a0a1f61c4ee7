import json
import xml.etree.ElementTree as ET
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtlink.constants import format_rows, replace
from qtlink.emit import (
    contour_segments,
    render_csv,
    render_json,
    render_svg,
    write_result,
)
from qtlink.sensing import MAX_R_DB, PAPER_SCALE_CONFIG
from qtlink.sweep import (
    VARIABLES,
    Range,
    SweepResult,
    preset_fig2,
    preset_fig3,
    preset_fig4,
    run_compare_smsv,
    run_grid,
    run_sweep,
)

FIG2_HEADER = "eta,du_sql,du_tmsv_3db,du_tmsv_7db,du_tmsv_11db,du_tmsv_15db"
FIG3_HEADER = "eta1,eta2,advantage,sign"
FIG4_HEADER = "eta,du_tmsv,du_smsv,du_sql,ratio"


@pytest.fixture(scope="module")
def small_fig2():
    return preset_fig2(eta_range=Range(0.01, 1.0, 12))


@pytest.fixture(scope="module")
def small_fig3():
    return preset_fig3(eta_range=Range(0.01, 1.0, 12))


@pytest.fixture(scope="module")
def small_fig4():
    return preset_fig4(eta_range=Range(0.01, 1.0, 12))


def test_csv_headers(small_fig2, small_fig3, small_fig4):
    assert render_csv(small_fig2).splitlines()[1] == FIG2_HEADER
    assert render_csv(small_fig3).splitlines()[1] == FIG3_HEADER
    assert render_csv(small_fig4).splitlines()[1] == FIG4_HEADER


def test_csv_config_echo_line(small_fig2):
    first = render_csv(small_fig2).splitlines()[0]
    assert first.startswith("# config: ")
    echoed = json.loads(first[len("# config: ") :])
    assert echoed["sensing"]["n_in"] == 1000.0
    assert echoed["preset"]["name"] == "fig2"


def test_csv_floats_nine_significant_digits(small_fig2):
    row = render_csv(small_fig2).splitlines()[2]
    first_value = row.split(",")[0]
    assert first_value == "1.00000000e-02"


def test_csv_sign_column_integer(small_fig3):
    row = render_csv(small_fig3).splitlines()[2]
    assert row.split(",")[3] in ("-1", "0", "1")


def test_csv_deterministic(small_fig2):
    again = preset_fig2(eta_range=Range(0.01, 1.0, 12))
    assert render_csv(small_fig2) == render_csv(again)


def test_json_round_trip(small_fig4):
    payload = json.loads(render_json(small_fig4))
    assert payload["columns"] == ["eta", "du_tmsv", "du_smsv", "du_sql", "ratio"]
    assert len(payload["rows"]) == 12
    assert payload["rows"][-1][0] == 1.0


def test_json_grid_shape(small_fig3):
    payload = json.loads(render_json(small_fig3))
    assert payload["grid_shape"] == [12, 12]


@pytest.mark.parametrize("kind", [np.float32, np.float16, np.longdouble])
def test_a_numpy_float_field_renders_to_json_and_csv(kind):
    # a float32 warned in the finite check's cast, then reached json.dumps
    config = replace(PAPER_SCALE_CONFIG, r_db=kind(3.0))
    for result in (run_sweep("eta1", Range(kind(0.1), 1.0, 5)),
                   preset_fig3(config, eta_range=Range(0.1, 1.0, 4))):
        assert json.loads(render_json(result))["rows"]
        assert render_csv(result).count("\n") == len(result.rows) + 2


def test_svg_curves_well_formed(small_fig2):
    text = render_svg(small_fig2)
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert text.count("<polyline") == 5  # SQL + four squeezing levels


def test_svg_curves_exclude_ratio_column(small_fig4):
    text = render_svg(small_fig4)
    assert text.count("<polyline") == 3
    assert ">ratio<" not in text


def test_svg_curves_reject_a_non_positive_value():
    result = SweepResult(["eta", "du_x"], [[0.1, 1e-18], [0.5, 0.0]])
    with pytest.raises(ValueError, match="^log-scale curve plot needs strictly positive values$"):
        render_svg(result)


@pytest.mark.parametrize(
    "columns, rows, grid_shape, message",
    [
        (["eta", "du_x"], [[0.5, 1e-3], [0.5, 2e-3]], None,
         "column 'eta' must be spread over a nonzero, finite width, got [0.5, 0.5]"),
        (["eta", "du_x"], [[-1e308, 1e-3], [1e308, 2e-3]], None,
         "column 'eta' must be spread over a nonzero, finite width, got [-1e+308, 1e+308]"),
        (["eta"], [[0.1], [0.5]], None,
         "columns must be 'eta' and at least one curve, got ['eta']"),
        (["eta1", "eta2", "a"], [[0.5, 0.1, 1.0], [0.5, 0.2, 2.0]] * 2, (2, 2),
         "column 'eta1' must be spread over a nonzero, finite width, got [0.5, 0.5]"),
        (["eta1", "eta2", "a"], [[0.1, 0.3, 1.0], [0.1, 0.3, 2.0]] + [[0.2, 0.3, 1.0]] * 2,
         (2, 2), "column 'eta2' must be spread over a nonzero, finite width, got [0.3, 0.3]"),
        # each axis spans a finite width, but a cell's edge half a step past it does not
        (["eta1", "eta2", "a"], [[0, 0, 1], [0, 1, 2], [1.7e308, 0, 1], [1.7e308, 1, 2]], (2, 2),
         "column 'eta1' must be within +-FLOAT_MAX half a step past each end, got [0.0, 1.7e+308]"),
        (["eta1", "eta2", "a"], [[1.7e308, 0, 1], [1.7e308, 1, 2], [0, 0, 1], [0, 1, 2]], (2, 2),
         "column 'eta1' must be within +-FLOAT_MAX half a step past each end, got [0.0, 1.7e+308]"),
        (["eta1", "eta2", "a"], [[0, -1.7e308, 1], [0, 0, 2], [1, -1.7e308, 1], [1, 0, 2]], (2, 2),
         "column 'eta2' must be within +-FLOAT_MAX half a step past each end, got [-1.7e+308, 0.0]"),
    ],
)
def test_svg_names_the_column_it_cannot_draw(columns, rows, grid_shape, message):
    # these ended in ZeroDivisionError, a RuntimeWarning (an overflow in the
    # cell edges among them) or numpy's "need at least one array to
    # concatenate"; CSV and JSON still render them
    result = SweepResult(columns, rows, grid_shape=grid_shape)
    render_csv(result), render_json(result)
    with pytest.raises(ValueError) as err:
        render_svg(result)
    assert str(err.value) == message


def test_svg_curves_of_one_power_of_ten_span_one_decade():
    text = render_svg(SweepResult(["eta", "du_x"], [[0.1, 1e-3], [0.5, 1e-3]]))
    labels = [node.text for node in ET.fromstring(text).iter() if node.text in ("1e-3", "1e-2")]
    assert labels == ["1e-3", "1e-2"]
    assert 'points="70.00,430.00 700.00,430.00"' in text  # on the lower decade line


def test_svg_grid_cells_and_contours(small_fig3):
    text = render_svg(small_fig3, levels=[0.5e-18, 1.0e-18, 1.5e-18, 1.9e-18])
    ET.fromstring(text)
    assert text.count("<rect") >= 12 * 12
    assert text.count("<path") == 4
    assert "level 1.900e-18" in text


def test_svg_grid_default_levels(small_fig3):
    ET.fromstring(render_svg(small_fig3))


def test_svg_grid_duplicate_levels_get_distinct_label_rows(small_fig3):
    root = ET.fromstring(render_svg(small_fig3, levels=[1e-18, 1e-18]))
    labels = [el for el in root.iter() if (el.text or "").startswith("level ")]
    assert len(labels) == 2
    assert labels[0].get("y") != labels[1].get("y")


def test_contour_segments_linear_field():
    x = np.linspace(0.0, 1.0, 11)
    y = np.linspace(0.0, 1.0, 11)
    z = x[:, None] + y[None, :]
    level = 0.73
    segments = contour_segments(x, y, z, level)
    assert segments.dtype == float and segments.shape[1:] == (4,) and len(segments)
    for xa, ya, xb, yb in segments.tolist():
        # every endpoint of a linear field's iso-line satisfies x + y = level
        assert xa + ya == pytest.approx(level, abs=1e-12)
        assert xb + yb == pytest.approx(level, abs=1e-12)


def test_contour_segments_circle_level_count():
    x = np.linspace(-1.0, 1.0, 41)
    y = np.linspace(-1.0, 1.0, 41)
    z = x[:, None] ** 2 + y[None, :] ** 2
    segments = contour_segments(x, y, z, 0.5)
    # total polyline length should approximate the circle circumference
    length = sum(np.hypot(xb - xa, yb - ya) for xa, ya, xb, yb in segments.tolist())
    assert length == pytest.approx(2 * np.pi * np.sqrt(0.5), rel=0.01)


def test_write_result_refuses_empty(tmp_path):
    # an empty table is refused where it is built, so it never reaches the writer
    with pytest.raises(ValueError, match=r"^rows must be of shape \(>= 2, 1\)"):
        write_result(SweepResult(["a"], []), "csv", str(tmp_path / "out.csv"))
    assert not (tmp_path / "out.csv").exists()


def test_write_result_unknown_format(tmp_path, small_fig2):
    with pytest.raises(ValueError):
        write_result(small_fig2, "png", str(tmp_path / "out.png"))


def test_write_result_io_error(small_fig2):
    with pytest.raises(OSError, match="no/such/dir"):
        write_result(small_fig2, "csv", "/no/such/dir/out.csv")


def test_write_result_files(tmp_path, small_fig2, small_fig3):
    for fmt, result in (("csv", small_fig2), ("json", small_fig2), ("svg", small_fig3)):
        path = tmp_path / f"out.{fmt}"
        write_result(result, fmt, str(path))
        assert path.stat().st_size > 0


def _contour_every_cell(x, y, z, level):
    # the marching-squares walk over every cell, as a reference for the
    # classified scan: one [xa, ya, xb, yb] row per segment
    span = float(np.max(z) - np.min(z)) or 1.0
    z = np.where(z == level, level + 1e-12 * span, z)
    segments = []
    for i in range(len(x) - 1):
        for j in range(len(y) - 1):
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
                segments.append([*crossings[0], *crossings[1]])
            elif len(crossings) == 4:
                center = sum(c[2] for c in corners) / 4.0
                if (center - level) * (corners[0][2] - level) >= 0.0:
                    segments.append([*crossings[0], *crossings[3]])
                    segments.append([*crossings[1], *crossings[2]])
                else:
                    segments.append([*crossings[0], *crossings[1]])
                    segments.append([*crossings[2], *crossings[3]])
    return segments


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_classified_contour_scan_equals_full_scan(seed):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, 23)
    y = np.linspace(-1.0, 1.0, 19)
    # a rough field full of saddles, with some corners exactly on the level
    z = np.round(rng.normal(size=(23, 19)), 1)
    for level in (0.0, 0.3, -0.5, 5.0):
        assert contour_segments(x, y, z, level).tolist() == _contour_every_cell(x, y, z, level)


def test_contour_segments_match_the_full_scan_on_a_saddle_rich_field():
    # a 100 x 100 checkerboard of bumps with noise: saddles at every level
    rng = np.random.default_rng(3)
    x = np.linspace(0.0, 1.0, 100)
    y = np.linspace(0.0, 1.0, 100)
    z = np.sin(20 * x)[:, None] * np.sin(20 * y)[None, :] + 0.05 * rng.normal(size=(100, 100))
    z[::7, ::5] = 0.0  # corners exactly on level 0
    for level in (0.0, 0.02, -0.3, 0.6):
        segments = contour_segments(x, y, z, level)
        assert segments.tolist() == _contour_every_cell(x, y, z, level)
    assert len(contour_segments(x, y, z, 0.0)) > 1000


def test_contour_segments_skip_cells_whose_corner_stays_on_the_level():
    # A span of three ulps makes the 1e-12 nudge a no-op, so corners equal to
    # the level stay on it and neither of their edges crosses strictly: a cell
    # left with one crossing yields no segment.
    rng = np.random.default_rng(4)
    x = np.linspace(0.0, 1.0, 30)
    y = np.linspace(0.0, 1.0, 25)
    z = rng.choice([np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)], size=(30, 25))
    level = 1.0
    assert level + 1e-12 * float(z.max() - z.min()) == level
    corners = np.stack([z[:-1, :-1], z[1:, :-1], z[1:, 1:], z[:-1, 1:]])
    edges = zip(corners, np.roll(corners, -1, axis=0))
    crossings = sum(((a < level) & (level < b)) | ((b < level) & (level < a)) for a, b in edges)
    assert (crossings == 1).any() and (crossings == 2).any()
    segments = contour_segments(x, y, z, level)
    assert segments.tolist() == _contour_every_cell(x, y, z, level)
    assert len(segments) == (crossings == 2).sum() + 2 * (crossings == 4).sum()


@pytest.mark.parametrize("scale", [2.0**900, 2.0**1023])
def test_contour_segments_keep_their_crossings_at_any_scale(scale):
    # A power-of-two scale leaves each crossing's ratio exact, so the segments
    # must not move.  At 2**900 the product of two gaps passes the largest
    # double; at 2**1023 so do the field's span and the gap between its ends.
    rng = np.random.default_rng(0)
    x = np.linspace(0.0, 1.0, 23)
    y = np.linspace(-1.0, 1.0, 19)
    z = np.clip(np.round(rng.normal(size=(23, 19)), 1), -1.0, 1.0)
    for level in (0.0, 0.3, -0.5):
        assert contour_segments(x, y, z * scale, level * scale).tolist() == contour_segments(
            x, y, z, level
        ).tolist()


# Each sweep variable's legal values; the eta and n_in floors keep every
# offset a finite double (an eta of 5e-324 makes the SMSV offset overflow,
# which the kernel names).
_DOMAINS = {"eta": (1e-6, 1.0), "r_db": (0.0, MAX_R_DB), "n_in": (1e-3, 1e12)}


@st.composite
def _ranges(draw, domain="eta", max_steps=40):
    """A legal Range over ``domain``, its steps a Python or a numpy integer."""
    start, stop = sorted(draw(st.lists(st.floats(*_DOMAINS[domain]), min_size=2, max_size=2,
                                       unique=True)))
    integer = draw(st.sampled_from([int, np.int64, np.int32]))
    return Range(start, stop, integer(draw(st.integers(2, max_steps))))


@st.composite
def _builds(draw):
    """(a call of one table builder on legal Ranges, the Ranges it takes)."""
    name = draw(st.sampled_from(["sweep", "grid", "compare", "fig2", "fig3", "fig4"]))
    if name == "sweep":
        variable = draw(st.sampled_from(list(VARIABLES)))
        rng = draw(_ranges("eta" if variable.startswith("eta") else variable))
        return partial(run_sweep, variable, rng), [rng]
    if name == "grid":
        axes = [draw(_ranges(max_steps=12)) for _ in range(2)]
        quantity = draw(st.sampled_from(["advantage", "delta_u"]))
        return partial(run_grid, *axes, quantity=quantity), axes
    if name == "fig3":  # one Range for both grid axes
        rng = draw(_ranges(max_steps=12))
        return partial(preset_fig3, eta_range=rng), [rng, rng]
    rng = draw(_ranges())
    if name == "compare":
        return partial(run_compare_smsv, rng), [rng]
    return partial(preset_fig2 if name == "fig2" else preset_fig4, eta_range=rng), [rng]


@settings(deadline=None, max_examples=120)
@given(build=_builds())
def test_every_builder_takes_any_legal_range_and_its_table_renders(build):
    call, ranges = build
    result = call()
    payload = json.loads(render_json(result))
    assert render_csv(result).count("\n") == len(result.rows) + 2
    ET.fromstring(render_svg(result))
    # a numpy integer of steps is stored as an int, so it echoes as a JSON number
    assert all(type(rng.steps) is int for rng in ranges)
    if result.grid_shape is not None:
        assert payload["grid_shape"] == [rng.steps for rng in ranges]


# Reference renderers: json.dumps with an indent (the pure-Python encoder) and
# one format call per CSV value.  The emitters must match them byte for byte.
def _json_reference(result):
    payload = {"columns": result.columns, "rows": result.rows.tolist(), "meta": result.meta}
    if result.grid_shape is not None:
        payload["grid_shape"] = list(result.grid_shape)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_reference(result):
    def fmt(value, column):
        return str(int(value)) if column == "sign" else f"{value:.8e}"

    lines = [f"# config: {json.dumps(result.meta, sort_keys=True)}", ",".join(result.columns)]
    for row in result.rows.tolist():
        lines.append(",".join(fmt(v, c) for v, c in zip(row, result.columns)))
    return "\n".join(lines) + "\n"


# finite doubles of every magnitude and sign, subnormals and -0.0 included
_values = st.floats(allow_nan=False, allow_infinity=False)
_json_leaves = st.none() | st.booleans() | st.integers() | _values | st.text(max_size=8)
# meta may nest a "rows" key of its own, and strings with newlines and quotes
_meta = st.dictionaries(
    st.sampled_from(["rows", "preset", "sensing", "a\nb", 'q"k']) | st.text(max_size=6),
    st.recursive(
        _json_leaves,
        lambda inner: (
            st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3)
        ),
        max_leaves=8,
    ),
    max_size=4,
)


@st.composite
def _column(draw):
    """The values of one column: any finite doubles, or a small pool that repeats.

    The pool holds 0.0 and -0.0, the smallest subnormal, and a drawn value
    with its neighbour one ulp nearer zero, so a renderer that formats each
    distinct value once must tell all of them apart.
    """
    if draw(st.booleans()):
        return _values
    x = draw(_values)
    return st.sampled_from([0.0, -0.0, 5e-324, x, float(np.nextafter(x, 0.0))])


@st.composite
def sweep_results(draw):
    """Any legal table: 2-12 rows, or a grid of 2-5 steps per axis over at least 3 columns."""
    if draw(st.booleans()):
        grid_shape = (draw(st.integers(2, 5)), draw(st.integers(2, 5)))
        n_rows = grid_shape[0] * grid_shape[1]
    else:
        grid_shape, n_rows = None, draw(st.integers(2, 12))
    names = draw(st.lists(st.sampled_from(["eta1", "eta2", "du_tmsv", "advantage", "ratio"]),
                          min_size=1 if grid_shape is None else 3, max_size=4, unique=True))
    columns = names + ["sign"] if draw(st.booleans()) else names
    cell = {
        c: st.sampled_from([-1.0, 0.0, -0.0, 1.0]) if c == "sign" else draw(_column())
        for c in columns
    }
    rows = draw(st.lists(st.tuples(*(cell[c] for c in columns)), min_size=n_rows, max_size=n_rows))
    return SweepResult(columns, np.array(rows, dtype=float).reshape(n_rows, len(columns)),
                       draw(_meta), grid_shape)


@settings(deadline=None, max_examples=200)
@given(result=sweep_results())
@example(result=SweepResult(["eta1", "eta2", "sign"], [[5e-324, 1.0, -1.0]] * 4, {"rows": [1]},
                            (2, 2)))
@example(result=SweepResult(["du_sql"], [[-1.7976931348623157e308], [1e16], [-0.0]], {}))
def test_renderers_match_the_reference_renderers(result):
    assert render_json(result) == _json_reference(result)
    assert render_csv(result) == _csv_reference(result)


def test_renderers_match_the_reference_renderers_on_fig3_at_100_steps():
    # 40,000 values, 5,252 distinct: the symmetric surface repeats each advantage
    result = preset_fig3(eta_range=Range(0.01, 1.0, 100))
    assert render_json(result) == _json_reference(result)
    assert render_csv(result) == _csv_reference(result)


# NaNs with a payload and with the sign bit set, besides the plain one
_NANS = [float(x) for x in np.array([0x7FF8000000000000, 0x7FF8000000000001, -0x0008000000000000,
                                     0x7FF0000000000001], dtype=np.int64).view(float)]


@st.composite
def _format_columns(draw):
    """(columns, templates): float columns from a small pool that repeats, or string columns."""
    n_rows = draw(st.integers(0, 8))
    columns, templates = [], []
    for _ in range(draw(st.integers(1, 4))):
        template = draw(st.sampled_from(["%r", "%.8e", "%.12e", "%.3e", "%-4g", None]))
        if template is None:
            cell = st.sampled_from(["ok", "FAIL", "", "%s", "a\nb"])
            values = np.array(draw(st.lists(cell, min_size=n_rows, max_size=n_rows)), dtype=str)
        else:
            x = draw(st.floats(allow_nan=False, allow_infinity=False))
            pool = [0.0, -0.0, 5e-324, x, float(np.nextafter(x, 0.0)), float("inf"), -float("inf")]
            cell = st.sampled_from([*pool, *_NANS])
            values = np.array(draw(st.lists(cell, min_size=n_rows, max_size=n_rows)), dtype=float)
        columns.append(values)
        templates.append(template)
    return columns, templates


@settings(deadline=None, max_examples=200)
@given(case=_format_columns(), sep=st.sampled_from(["", ",\n    "]))
def test_format_rows_equals_a_fill_of_each_value(case, sep):
    columns, templates = case
    line = "[" + "|".join(["%s"] * len(columns)) + "]\n"
    plain = "[" + "|".join(template or "%s" for template in templates) + "]\n"
    rows = zip(*(column.tolist() for column in columns))
    assert format_rows(line, columns, templates, sep) == sep.join(plain % row for row in rows)
