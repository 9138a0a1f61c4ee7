import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtlink import verify
from qtlink.cli import main
from qtlink.sensing import r_from_db

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("policy", ["shared", "independent"])
def test_verify_stdout_matches_golden(policy, capsys):
    # Goldens hold the default-grid `qtlink verify` stdout as first released;
    # a mismatch is a change in what the oracle reports, not a golden to refresh.
    assert main(["verify", "--policy", policy]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"verify_{policy}.txt").read_bytes()


@pytest.mark.parametrize("eta_steps", [30, 40])
@pytest.mark.parametrize("policy", ["shared", "independent"])
def test_stacked_oracle_equals_per_point_chains_on_dense_grid(policy, eta_steps):
    # The grid ends at eta = 1, where a scalar pure_loss skips the ancilla
    # while the stack grows one: the variances must still agree exactly.  Each
    # level's whole eta1 x eta2 mesh runs as one stack, and the one-mode chain
    # runs every level at once.
    report = verify.run_verify(policy=policy, eta_steps=eta_steps)
    two, one = report.two_mode, report.single_mode
    assert {len(column) for column in two.values()} == {4 * eta_steps**2}
    assert (two["eta1"] == 1.0).any()
    names = ("r_db", "eta1", "eta2", "oracle")
    for r_db, eta1, eta2, oracle in zip(*(two[name].tolist() for name in names)):
        scalar = verify.tmsv_chain_variance(r_from_db(r_db), eta1, eta2, policy)
        assert oracle == scalar / 2.0
    for r_db, eta, oracle in zip(*(one[name].tolist() for name in ("r_db", "eta", "oracle"))):
        assert oracle == verify.smsv_chain_variance(r_from_db(r_db), eta, policy)


def test_chain_variances_broadcast_over_eta_arrays():
    etas = np.linspace(0.1, 1.0, 7)
    e1, e2 = np.meshgrid(etas, etas, indexing="ij")
    stacked = verify.tmsv_chain_variance(0.4, e1, e2, "independent")
    assert stacked.shape == (7, 7)
    assert stacked[2, 5] == verify.tmsv_chain_variance(0.4, etas[2], etas[5], "independent")
    single = verify.smsv_chain_variance(0.4, etas)
    assert single.shape == (7,)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9, True, "1e-9"])
def test_run_verify_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        verify.run_verify(tolerance=tol)


@pytest.mark.parametrize(
    "steps, message",
    [
        (1, "eta_steps must be >= 2, got 1"),
        (2.5, "eta_steps must be an integer, got 2.5"),
        (True, "eta_steps must be an integer, got True"),
        (201, "eta_steps must be <= 200, got 201"),
        # 10**5 steps used to ask numpy for ~75 GiB
        (10**5, "eta_steps must be <= 200, got 100000"),
    ],
)
def test_run_verify_rejects_bad_eta_steps_naming_the_value(steps, message):
    with pytest.raises(ValueError) as err:
        verify.run_verify(eta_steps=steps)
    assert str(err.value) == message


@pytest.mark.parametrize("grid", [{"r_dbs": (3.0,)}, {"etas": (0.5, 1.0)}])
def test_run_verify_grid_is_fixed(grid):
    # the grid is DEFAULT_R_DBS x DEFAULT_ETAS, refined only by eta_steps
    with pytest.raises(TypeError):
        verify.run_verify(**grid)


def test_chain_variances_reject_unknown_policy():
    with pytest.raises(ValueError, match="unknown vacuum policy"):
        verify.tmsv_chain_variance(0.4, 0.5, 0.5, "bogus")
    with pytest.raises(ValueError, match="unknown vacuum policy"):
        verify.smsv_chain_variance(0.4, 1.0, "bogus")


def _reference_text(policy, tolerance, two_rows, one_rows, gap):
    """The report as the per-row formatter printed it, one format call per line."""
    rows = two_rows + one_rows
    max_rel_err = max(row["rel_err"] for row in rows) if rows else 0.0
    passed = all(row["ok"] for row in rows)
    lines = [
        f"verify: policy={policy} tolerance={tolerance:g} "
        f"points={len(two_rows)}+{len(one_rows)}"
    ]
    for row in two_rows:
        lines.append(
            "  two-mode  r_db={r_db:<4g} eta1={eta1:<4g} eta2={eta2:<4g} "
            "formula={formula:.12e} oracle={oracle:.12e} "
            "rel_err={rel_err:.3e} {verdict}".format(verdict="ok" if row["ok"] else "FAIL", **row)
        )
    for row in one_rows:
        lines.append(
            "  one-mode  r_db={r_db:<4g} eta={eta:<4g} "
            "formula={formula:.12e} oracle={oracle:.12e} "
            "rel_err={rel_err:.3e} {verdict}".format(verdict="ok" if row["ok"] else "FAIL", **row)
        )
    if gap is not None:
        lines.append(
            "  note: independent ports sit below the shared closed form by exactly "
            f"sqrt((1-eta1)(1-eta2)) in the radicand; max deviation from that prediction {gap:.3e}"
        )
    lines.append(f"verify: max_rel_err={max_rel_err:.3e} passed={passed}")
    return "".join(line + "\n" for line in lines)


# r_db wider than the 4-character column (15 already is, with its padding
# gone), etas with long reprs and eta = 1, and -0.0, which compares equal to
# 0.0 but prints as -0
_r_dbs = st.sampled_from([0.0, -0.0, 3.0, 5.0, 15.0, 123.456, 1e-7, 2.5e6]) | st.floats(0.0, 1e7)
_etas = (
    st.sampled_from([1.0, 0.1, 0.1 + 0.2, 0.15517241379310345, 1 / 3, 0.0, -0.0])
    | st.floats(0.0, 1.0)
)
_values = st.floats(1e-300, 1e300)
_NAN_SIGNED = float(np.array([-0x0008000000000000], dtype=np.int64).view(float)[0])


@st.composite
def _reports(draw):
    """(policy, tolerance, two-mode rows, one-mode rows, gap), rows as old-style dicts."""
    tolerance = draw(st.sampled_from([1e-9, 1e-15]) | st.floats(1e-16, 1.0))
    # rel_err of 0, at the tolerance, just past it and well past it
    errs = (
        st.sampled_from([0.0, tolerance, float(np.nextafter(tolerance, 2.0)), 10.0 * tolerance])
        | st.floats(0.0, 2.0 * tolerance)
    )
    # formula and oracle: any magnitude, or a pool that repeats one drawn value
    # beside -0.0, NaN with and without its sign bit, and the infinities
    x = draw(_values)
    values = _values | st.sampled_from(
        [x, 0.0, -0.0, float("nan"), _NAN_SIGNED, float("inf"), -float("inf")]
    )

    def rows(eta_names):
        out = []
        for _ in range(draw(st.integers(0, 6))):
            row = {"r_db": draw(_r_dbs)}
            row.update((name, draw(_etas)) for name in eta_names)
            row.update(formula=draw(values), oracle=draw(values), rel_err=draw(errs))
            row["ok"] = row["rel_err"] <= tolerance
            out.append(row)
        return out

    policy = draw(st.sampled_from(["shared", "independent"]))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    gap = draw(st.none() | st.sampled_from([0.0, -0.0, 2.442e-15]) | finite)
    return policy, tolerance, rows(("eta1", "eta2")), rows(("eta",)), gap


def _bits(rows):
    """``rows`` with each float as its bytes, so that a NaN equals itself and -0.0 is not 0.0."""
    return [{k: v if type(v) is bool else struct.pack("d", v) for k, v in row.items()}
            for row in rows]


def _rows(columns, tolerance):
    """The old-style dicts of a chain's points, read from its columns."""
    points = zip(*(column.tolist() for column in columns.values()))
    return [dict(zip(columns, point), ok=point[-1] <= tolerance) for point in points]


def _columns(rows, eta_names):
    names = ("r_db", *eta_names, "formula", "oracle", "rel_err")
    return {name: np.array([row[name] for row in rows], dtype=float) for name in names}


@settings(deadline=None, max_examples=200)
@given(case=_reports())
@example(case=("shared", 1e-9, [{"r_db": 15.0, "eta1": 1.0, "eta2": 0.1 + 0.2, "formula": 1.5,
                                 "oracle": 1.5, "rel_err": 2e-9, "ok": False}], [],
               2.442e-15))
def test_report_text_matches_the_per_row_formatter(case):
    policy, tolerance, two_rows, one_rows, gap = case
    report = verify.VerifyReport(
        policy, tolerance, _columns(two_rows, ("eta1", "eta2")), _columns(one_rows, ("eta",)),
        gap,
    )
    assert report.text() == _reference_text(policy, tolerance, two_rows, one_rows, gap)
    rows = two_rows + one_rows
    assert report.passed is all(row["ok"] for row in rows)
    assert report.max_rel_err == (max(row["rel_err"] for row in rows) if rows else 0.0)
    # the derived views equal the old rows: same values, keys in the same order
    for view, old in ((report.two_mode_rows, two_rows), (report.single_mode_rows, one_rows)):
        assert _bits(view) == _bits(old)
        assert [list(row) for row in view] == [list(row) for row in old]
        assert all(type(row["ok"]) is bool for row in view)


@pytest.mark.parametrize("policy", ["shared", "independent"])
def test_report_text_matches_the_per_row_formatter_on_the_dense_grid(policy):
    # 3,720 points, most of them distinct: the bench's verify-dense report
    report = verify.run_verify(policy=policy, eta_steps=30)
    assert (report.gap is None) is (policy == "shared")
    two_rows, one_rows = (_rows(chain, report.tolerance)
                          for chain in (report.two_mode, report.single_mode))
    assert report.text() == _reference_text(
        policy, report.tolerance, two_rows, one_rows, report.gap
    )


_TWO = ("r_db", "eta1", "eta2", "formula", "oracle", "rel_err")
_ONE = ("r_db", "eta", "formula", "oracle", "rel_err")
_TWO_NEEDS = ("two_mode must map r_db, eta1, eta2, formula, oracle, rel_err, in that order, "
              "to aligned 1-d float arrays, got ")


def _chain(names, n=2):
    return {name: np.full(n, 0.5) for name in names}


@pytest.mark.parametrize(
    "two_mode, got",
    [
        ({}, "{}"),
        ({"rel_err": np.ones(2)}, "{'rel_err': ('float64', (2,))}"),
        (dict(reversed(_chain(_TWO).items())), None),
        ({**_chain(_TWO), "extra": np.ones(2)}, None),
        ({**_chain(_TWO), "rel_err": np.ones(3)}, None),
        ({**_chain(_TWO), "oracle": np.ones((2, 1))}, None),
        ({**_chain(_TWO), "formula": [0.5, 0.5]}, None),
        ({**_chain(_TWO), "formula": np.ones(2, dtype=int)}, None),
        ({**_chain(_TWO), "formula": np.array(["0.5", "0.5"])}, None),
        ({name: np.float64(0.5) for name in _TWO}, None),
        (None, "None"),
        ([np.ones(2)] * 6, None),
    ],
)
def test_report_rejects_a_chain_that_is_not_its_aligned_columns(two_mode, got):
    # each was accepted, and text() or passed then raised a KeyError or TypeError
    with pytest.raises(ValueError) as err:
        verify.VerifyReport("shared", 1e-9, two_mode, _chain(_ONE))
    assert str(err.value).startswith(_TWO_NEEDS)
    if got is not None:
        assert str(err.value) == _TWO_NEEDS + got
    with pytest.raises(ValueError, match="^single_mode must map r_db, eta, formula, oracle, rel_err"):
        verify.VerifyReport("shared", 1e-9, _chain(_TWO), two_mode)


def test_report_rejects_an_unknown_policy():
    with pytest.raises(ValueError) as err:
        verify.VerifyReport("bogus", 1e-9, _chain(_TWO), _chain(_ONE))
    assert str(err.value) == "unknown vacuum policy 'bogus'"


@pytest.mark.parametrize("n", [0, 1, 3])
@pytest.mark.parametrize("value", [0.5, np.nan, np.inf])
def test_report_takes_any_number_of_points_and_any_float(n, value):
    two, one = ({name: np.full(n, value) for name in names} for names in (_TWO, _ONE))
    report = verify.VerifyReport("independent", 1e-9, two, one)
    assert report.text().count("\n") == 2 + 2 * n
    assert report.passed is (n == 0)


def test_dense_grid_note_keeps_the_computed_gap(capsys):
    # The golden pins the default grid only.  On this grid the largest
    # |formula - oracle| of the report's columns prints 5.163e-15: the gap is
    # read off the shared closed form and the cross term, not off the columns.
    assert main(["verify", "--eta-steps", "30", "--policy", "independent"]) == 0
    notes = [line for line in capsys.readouterr().out.splitlines() if line.startswith("  note:")]
    assert len(notes) == 1
    assert notes[0].endswith("max deviation from that prediction 5.176e-15")
