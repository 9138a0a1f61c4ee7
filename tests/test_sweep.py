import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtlink.constants import POLICIES, SWEEP_VARIABLES, replace
from qtlink.sensing import (
    SCHEMES,
    ChannelPair,
    SensingConfig,
    delta_u_smsv_real,
    delta_u_sql,
    delta_u_tmsv_ideal,
    delta_u_tmsv_real,
    evaluate,
)
from qtlink.sweep import (
    MAX_GRID_STEPS,
    MAX_STEPS,
    PAPER_SCALE_CONFIG,
    VARIABLES,
    Range,
    preset_fig2,
    preset_fig3,
    preset_fig4,
    run_compare_smsv,
    run_grid,
    run_sweep,
)
from qtlink.verify import run_verify


def test_fig2_preset_shape_and_schema():
    result = preset_fig2()
    assert result.columns == [
        "eta",
        "du_sql",
        "du_tmsv_3db",
        "du_tmsv_7db",
        "du_tmsv_11db",
        "du_tmsv_15db",
    ]
    assert len(result.rows) == 100
    assert all(len(row) == 6 for row in result.rows)


def test_fig2_lossless_endpoint_values():
    result = preset_fig2()
    last = result.rows[-1]
    assert last[0] == 1.0
    assert last[result.columns.index("du_tmsv_15db")] == pytest.approx(
        1.2165418169266646e-18, rel=1e-12
    )
    # agreement with the quoted 4-digit value
    assert last[result.columns.index("du_tmsv_15db")] == pytest.approx(
        1.2165e-18, rel=1e-3
    )


def test_sweep_r_zero_tmsv_equals_sql():
    result = run_sweep(
        "eta_symmetric",
        Range(0.05, 1.0, 25),
        replace(PAPER_SCALE_CONFIG, r_db=0.0),
        ChannelPair(1.0, 1.0),
        ("TMSV", "SQL"),
    )
    assert np.array_equal(result.column("du_tmsv"), result.column("du_sql"))


def test_sweep_photon_scaling_law():
    base = run_sweep(
        "eta_symmetric", Range(0.1, 1.0, 10), PAPER_SCALE_CONFIG, ChannelPair(1, 1)
    )
    scaled = run_sweep(
        "eta_symmetric",
        Range(0.1, 1.0, 10),
        replace(PAPER_SCALE_CONFIG, n_in=1e5),
        ChannelPair(1, 1),
    )
    assert np.allclose(
        scaled.column("du_tmsv") * 10.0, base.column("du_tmsv"), rtol=1e-12
    )


def test_sweep_over_r_db_and_n_in():
    result = run_sweep("r_db", Range(0.0, 15.0, 16), schemes=("TMSV",))
    du = result.column("du_tmsv")
    assert all(a > b for a, b in zip(du, du[1:]))  # more squeezing, finer offset
    assert len(run_sweep("n_in", Range(1e2, 1e6, 12), schemes=("SQL",)).rows) == 12


def test_sweep_validation():
    with pytest.raises(ValueError):
        run_sweep("eta_symmetric", Range(0.0, 1.0, 10))  # eta = 0 diverges
    with pytest.raises(ValueError):
        run_sweep("bogus", Range(0.1, 1.0, 10))
    with pytest.raises(ValueError):
        run_sweep("eta1", Range(0.1, 1.0, 10), schemes=("XYZ",))
    with pytest.raises(ValueError):
        Range(0.5, 0.1, 10)
    with pytest.raises(ValueError):
        Range(0.1, 0.5, 1)


def test_variable_table_names_the_parser_choices_and_legal_defaults():
    assert tuple(VARIABLES) == SWEEP_VARIABLES
    for variable, (_, default) in VARIABLES.items():
        assert len(run_sweep(variable, default).rows) == default.steps


@pytest.mark.parametrize("field", ["start", "stop"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -(10**400)])
def test_range_rejects_non_finite_bounds(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        Range(**{"start": 0.1, "stop": 0.5, "steps": 5, field: bad})


@pytest.mark.parametrize(
    "field, bad, kind",
    [("start", "0.1", "a real number"), ("stop", True, "a real number"),
     ("steps", 2.5, "an integer"), ("steps", 5.0, "an integer"), ("steps", True, "an integer"),
     ("steps", "5", "an integer")],
)
def test_range_rejects_a_wrong_type_naming_the_field(field, bad, kind):
    with pytest.raises(ValueError) as err:
        Range(**{"start": 0.1, "stop": 0.5, "steps": 5, field: bad})
    assert str(err.value) == f"{field} must be {kind}, got {bad!r}"
    assert Range(0.1, 0.5, np.int64(5)).steps == 5


def test_result_rows_are_a_2d_array_and_columns_are_slices():
    result = preset_fig3(eta_range=Range(0.1, 1.0, 4))
    assert isinstance(result.rows, np.ndarray)
    assert result.rows.shape == (16, 4)
    adv = result.column("advantage")
    assert np.shares_memory(adv, result.rows)
    assert np.array_equal(adv.reshape(result.grid_shape)[:, 0], result.rows[::4, 2])


def test_independent_sweep_uses_the_independent_radicand():
    ch = ChannelPair(0.6, 0.6, "independent")
    result = run_sweep("eta1", Range(0.2, 1.0, 5), PAPER_SCALE_CONFIG, ch)
    for eta1, du in zip(result.column("eta1"), result.column("du_tmsv")):
        pair = ChannelPair(float(eta1), 0.6, "independent")
        assert du == delta_u_tmsv_real(PAPER_SCALE_CONFIG, pair)


@pytest.mark.parametrize("steps", [MAX_STEPS + 1, 10**9, 10**400])
def test_range_rejects_steps_past_the_limit_naming_the_value(steps):
    with pytest.raises(ValueError) as err:
        Range(0.01, 1.0, steps)
    assert str(err.value) == f"steps must be <= {MAX_STEPS}, got {steps}"
    assert Range(0.01, 1.0, MAX_STEPS).steps == MAX_STEPS


@pytest.mark.parametrize("axis", [0, 1])
def test_grid_rejects_an_axis_past_the_grid_limit_before_evaluating(axis, monkeypatch):
    def no_evaluation(*args, **kwargs):
        raise AssertionError("evaluated")

    monkeypatch.setattr("qtlink.sensing.evaluate", no_evaluation)
    ranges = [Range(0.01, 1.0, 5), Range(0.01, 1.0, 5)]
    ranges[axis] = Range(0.01, 1.0, MAX_GRID_STEPS + 1)
    with pytest.raises(ValueError) as err:
        run_grid(*ranges)
    assert str(err.value) == f"steps must be <= {MAX_GRID_STEPS}, got {MAX_GRID_STEPS + 1}"


# every builder of a table with an eta axis, the axis given as ``rng``; the
# SMSV-only eta2 sweep reads no eta2 in the kernel, so only the rule stops it
_ETA_AXES = {
    "sweep-eta_symmetric": lambda rng: run_sweep("eta_symmetric", rng),
    "sweep-eta1": lambda rng: run_sweep("eta1", rng),
    "sweep-eta2-smsv": lambda rng: run_sweep("eta2", rng, schemes=("SMSV",)),
    "compare": run_compare_smsv,
    "grid-eta1": lambda rng: run_grid(rng, Range(0.1, 1.0, 3)),
    "grid-eta2": lambda rng: run_grid(Range(0.1, 1.0, 3), rng),
    "fig2": lambda rng: preset_fig2(eta_range=rng),
    "fig3": lambda rng: preset_fig3(eta_range=rng),
    "fig4": lambda rng: preset_fig4(eta_range=rng),
}


@pytest.mark.parametrize("rng", [Range(0.0, 1.0, 5), Range(0.5, 1.5, 5), Range(-0.5, 0.5, 5)])
@pytest.mark.parametrize("builder", list(_ETA_AXES))
def test_every_eta_axis_outside_the_unit_interval_names_the_bound(builder, rng):
    with pytest.raises(ValueError) as err:
        _ETA_AXES[builder](rng)
    assert str(err.value) == "eta sweeps must stay inside (0, 1]"


@pytest.mark.parametrize("start", [0.0, -5.0])
def test_n_in_sweep_must_stay_positive(start):
    # the kernel would name n1 + n2, or n1 at a value scaled by the split
    with pytest.raises(ValueError) as err:
        run_sweep("n_in", Range(start, 1e3, 5))
    assert str(err.value) == "n_in sweeps must stay positive"


def test_grid_rejects_an_unknown_quantity():
    with pytest.raises(ValueError) as err:
        run_grid(Range(0.1, 1.0, 3), Range(0.1, 1.0, 3), quantity="delta_u_smsv")
    assert str(err.value) == "unknown grid quantity 'delta_u_smsv'"


# kernel scheme -> its scalar wrapper, called with a config and a channel
WRAPPERS = {
    "TMSV_ideal": lambda cfg, ch: delta_u_tmsv_ideal(cfg),
    "TMSV_real": delta_u_tmsv_real,
    "SQL": delta_u_sql,
    "SMSV_real": lambda cfg, ch: delta_u_smsv_real(cfg, ch.eta1),
}


@settings(deadline=None, max_examples=25)
@given(
    r_db=st.floats(0.0, 15.0),
    eta1=st.floats(1e-6, 1.0),
    eta2=st.floats(0.0, 1.0),
    split=st.floats(0.05, 0.95),
)
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_wrappers_evaluate_and_tables_name_their_columns_from_the_scheme_table(
    scheme, policy, r_db, eta1, eta2, split
):
    cfg = replace(PAPER_SCALE_CONFIG, r_db=r_db, split=split)
    ch = ChannelPair(eta1, eta2, policy)
    # the etas and the policy a scheme ignores may take any value
    value = WRAPPERS[scheme](cfg, ch)
    assert type(value) is float
    assert value.hex() == float(evaluate(scheme, cfg, ch)).hex()
    assert value.hex() == float(evaluate(scheme, cfg, ch, n_in=np.array([cfg.n_in]))[0]).hex()
    alias, column = SCHEMES[scheme]
    if alias is None:
        return
    rng = Range(0.2, 1.0, 5)
    eta = rng.values()
    swept = run_sweep("eta1", rng, cfg, ch, (alias,))
    assert swept.columns == ["eta1", column]
    assert np.array_equal(swept.column(column), evaluate(scheme, cfg, ch, eta1=eta))
    compared = run_compare_smsv(rng, cfg, ch)
    names = [SCHEMES[s][1] for s in ("TMSV_real", "SMSV_real", "SQL")]
    assert compared.columns == ["eta", *names, "ratio"]
    assert np.array_equal(compared.column(column), evaluate(scheme, cfg, ch, eta1=eta, eta2=eta))
    fig2 = preset_fig2(cfg, (r_db,), rng)
    tmsv_level = f"{SCHEMES['TMSV_real'][1]}_{r_db:g}db"
    assert fig2.columns == ["eta", SCHEMES["SQL"][1], tmsv_level]
    if scheme != "SMSV_real":
        label = tmsv_level if scheme == "TMSV_real" else column
        assert np.array_equal(fig2.column(label), evaluate(scheme, cfg, eta1=eta, eta2=eta))


def test_grid_contour_points():
    result = run_grid(Range(0.585, 0.695, 2), Range(0.695, 0.825, 2), PAPER_SCALE_CONFIG)
    assert result.columns == ["eta1", "eta2", "advantage", "sign"]
    assert result.grid_shape == (2, 2)
    lookup = {(row[0], row[1]): row[2] for row in result.rows}
    adv_sym = lookup[(0.695, 0.695)]
    adv_asym = lookup[(0.585, 0.825)]
    assert adv_sym == pytest.approx(1.900e-18, rel=1e-2)
    assert adv_asym == pytest.approx(1.890e-18, rel=1e-2)
    assert abs(adv_sym - adv_asym) / adv_sym < 0.01


def test_grid_reports_negative_advantage_with_sign():
    result = run_grid(Range(0.02, 0.9, 2), Range(0.5, 1.0, 2), PAPER_SCALE_CONFIG)
    row = next(r for r in result.rows if r[0] == 0.02 and r[1] == 0.5)
    assert row[2] < 0.0
    assert row[3] == -1.0


def test_grid_delta_u_quantity():
    result = run_grid(Range(0.5, 1.0, 3), Range(0.5, 1.0, 3), PAPER_SCALE_CONFIG, "delta_u")
    assert result.columns == ["eta1", "eta2", "du_tmsv"]
    assert len(result.rows) == 9


def test_compare_endpoint_equivalence():
    result = run_compare_smsv(Range(0.01, 1.0, 100), PAPER_SCALE_CONFIG)
    last = result.rows[-1]
    cols = result.columns
    assert last[cols.index("du_tmsv")] == pytest.approx(3.847e-18, rel=1e-3)
    assert last[cols.index("du_smsv")] == pytest.approx(
        last[cols.index("du_tmsv")], rel=1e-12
    )


def test_compare_midpoint_and_ordering():
    result = run_compare_smsv(Range(0.01, 1.0, 100), PAPER_SCALE_CONFIG)
    cols = result.columns
    mid = next(r for r in result.rows if abs(r[0] - 0.5) < 1e-12)
    assert mid[cols.index("du_smsv")] == pytest.approx(7.848e-18, rel=1e-3)
    assert mid[cols.index("du_tmsv")] == pytest.approx(1.0412e-17, rel=1e-3)
    assert mid[cols.index("ratio")] == pytest.approx(0.7538, abs=1e-3)
    assert all(
        r[cols.index("du_smsv")] <= r[cols.index("du_tmsv")] for r in result.rows
    )


def test_fig3_preset_grid():
    result = preset_fig3(eta_range=Range(0.01, 1.0, 20))
    assert result.grid_shape == (20, 20)
    assert len(result.rows) == 400


def test_fig4_preset_columns():
    result = preset_fig4(eta_range=Range(0.01, 1.0, 25))
    assert result.columns == ["eta", "du_tmsv", "du_smsv", "du_sql", "ratio"]
    assert len(result.rows) == 25


def test_results_deterministic():
    a = preset_fig2(eta_range=Range(0.01, 1.0, 30))
    b = preset_fig2(eta_range=Range(0.01, 1.0, 30))
    assert np.array_equal(a.rows, b.rows)
    assert a.columns == b.columns


def test_verify_default_grid_passes():
    report = run_verify()
    assert report.passed
    assert report.max_rel_err < 1e-9
    assert report.gap is None  # set under independent ports only


def test_verify_independent_policy_diagnostic():
    report = run_verify(policy="independent")
    assert report.passed  # mismatch is expected and reported, not failed
    # the independent radicand is the shared one minus the cross term, to rounding
    assert type(report.gap) is float and 0.0 <= report.gap < 1e-12
    assert "sqrt((1-eta1)(1-eta2))" in report.text()


def test_verify_refined_grid():
    report = run_verify(eta_steps=4)
    assert report.passed
    assert {len(column) for column in report.two_mode.values()} == {4 * 16}


def test_verify_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        run_verify(tolerance=0.0)


def test_result_rejects_non_finite_rows():
    from qtlink.sweep import SweepResult

    with pytest.raises(ValueError, match="^non-finite value in sweep row"):
        SweepResult(["a"], [[math.inf], [1.0]])
    with pytest.raises(ValueError):
        SweepResult(["a", "b"], [[1.0]])


_ROW_RULE = "rows must be of shape (>= 2, {}), one value per column, got {}"
_GRID_RULE = "grid_shape must be two axes >= 2, {} cells, >= 3 columns, got {}"
_PAIR_RULE = "grid_shape must be a 2-tuple, got {}"


@pytest.mark.parametrize(
    "columns, rows, grid_shape, message",
    [
        (["a"], [], None, _ROW_RULE.format(1, "(0,)")),
        (["a", "b"], np.empty((0, 2)), None, _ROW_RULE.format(2, "(0, 2)")),
        (["a", "b"], [[0.5, 1.0]], None, _ROW_RULE.format(2, "(1, 2)")),
        (["a", "b", "c"], np.ones((6, 3)), (4, 4), _GRID_RULE.format(6, "(4, 4)")),
        (["a", "b", "c"], np.ones((2, 3)), (1, 2), _GRID_RULE.format(2, "(1, 2)")),
        (["a", "b", "c"], np.ones((3, 3)), (3, 1), _GRID_RULE.format(3, "(3, 1)")),
        (["a", "b"], np.ones((4, 2)), (2, 2), _GRID_RULE.format(4, "(2, 2)")),
        (["a", "b", "c"], np.ones((4, 3)), True, _PAIR_RULE.format(True)),
        (["a", "b", "c"], np.ones((4, 3)), 4.0, _PAIR_RULE.format(4.0)),
        (["a", "b", "c"], np.ones((4, 3)), np.int64(4), _PAIR_RULE.format(4)),
        (["a", "b", "c"], np.ones((4, 3)), [2, 2], _PAIR_RULE.format([2, 2])),
        (["a", "b", "c"], np.ones((4, 3)), (2, 2, 1), _PAIR_RULE.format((2, 2, 1))),
        (["a", "b", "c"], np.ones((4, 3)), (True, 4), "grid_shape must be an integer, got True"),
        (["a", "b", "c"], np.ones((4, 3)), (2.0, 2), "grid_shape must be an integer, got 2.0"),
    ],
    ids=["empty", "empty-2-d", "one-row", "product", "axis-of-1", "row-of-1", "two-columns",
         "bool", "float", "numpy-int", "list", "three-axes", "bool-axis", "float-axis"],
)
def test_a_table_no_renderer_can_draw_is_refused_where_it_is_built(
    columns, rows, grid_shape, message
):
    # each of these reached a renderer before, to fail there or write a
    # self-contradicting JSON file
    from qtlink.sweep import SweepResult

    with pytest.raises(ValueError) as err:
        SweepResult(columns, rows, {}, grid_shape)
    assert str(err.value) == message


def test_a_grid_shape_of_numpy_integers_is_stored_as_ints():
    from qtlink.emit import render_json
    from qtlink.sweep import SweepResult

    result = SweepResult(["a", "b", "c"], np.ones((6, 3)), {}, (np.int64(2), np.int32(3)))
    assert result.grid_shape == (2, 3) and all(type(n) is int for n in result.grid_shape)
    assert '"grid_shape": [\n    2,\n    3\n  ]' in render_json(result)


def test_grids_built_alike_compare_equal_and_a_changed_cell_does_not():
    axis = Range(0.2, 1.0, 3)
    one, other = run_grid(axis, axis), run_grid(axis, axis)
    assert one.rows is not other.rows and one == other and not one != other
    rows = other.rows.copy()
    rows[4, -1] *= 2
    changed = type(other)(other.columns, rows, other.meta, other.grid_shape)
    assert one != changed and changed != one
    # a changed value inside the meta dict counts too, and so does a shorter table
    meta = {**other.meta, "grid": {**other.meta["grid"], "quantity": "du_tmsv"}}
    assert one != type(other)(other.columns, other.rows, meta, other.grid_shape)
    assert one != type(other)(other.columns, other.rows[:6], other.meta, (2, 3))
    with pytest.raises(TypeError, match="unhashable"):
        hash(one)
