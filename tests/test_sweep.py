import math
from dataclasses import replace

import numpy as np
import pytest

from qtlink.constants import SWEEP_VARIABLES
from qtlink.sensing import ChannelPair, SensingConfig, delta_u_tmsv_real
from qtlink.sweep import (
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
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
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


def test_verify_independent_policy_diagnostic():
    report = run_verify(policy="independent")
    assert report.passed  # mismatch is expected and reported, not failed
    assert report.notes and "sqrt((1-eta1)(1-eta2))" in report.notes[0]


def test_verify_refined_grid():
    report = run_verify(eta_steps=4)
    assert report.passed
    assert len(report.two_mode_rows) == 4 * 16


def test_verify_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        run_verify(tolerance=0.0)


def test_result_rejects_non_finite_rows():
    from qtlink.sweep import SweepResult

    with pytest.raises(ValueError):
        SweepResult(["a"], [[math.inf]])
    with pytest.raises(ValueError):
        SweepResult(["a", "b"], [[1.0]])
