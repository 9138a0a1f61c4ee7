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


@pytest.mark.parametrize("policy", ["shared", "independent"])
def test_stacked_oracle_equals_per_point_chains_on_dense_grid(policy):
    # The 30-step grid ends at eta = 1, where a scalar pure_loss skips the
    # ancilla while the stack grows one: the variances must still agree exactly.
    report = verify.run_verify(policy=policy, eta_steps=30)
    assert len(report.two_mode_rows) == 4 * 30 * 30
    assert any(row["eta1"] == 1.0 for row in report.two_mode_rows)
    for row in report.two_mode_rows:
        r = r_from_db(row["r_db"])
        scalar = verify.tmsv_chain_variance(r, row["eta1"], row["eta2"], policy)
        assert row["oracle"] == scalar / 2.0
    for row in report.single_mode_rows:
        r = r_from_db(row["r_db"])
        assert row["oracle"] == verify.smsv_chain_variance(r, row["eta"], policy)


def test_chain_variances_broadcast_over_eta_arrays():
    etas = np.linspace(0.1, 1.0, 7)
    e1, e2 = np.meshgrid(etas, etas, indexing="ij")
    stacked = verify.tmsv_chain_variance(0.4, e1, e2, "independent")
    assert stacked.shape == (7, 7)
    assert stacked[2, 5] == verify.tmsv_chain_variance(0.4, etas[2], etas[5], "independent")
    single = verify.smsv_chain_variance(0.4, etas)
    assert single.shape == (7,)


@pytest.mark.parametrize("policy", ["shared", "independent"])
def test_chunked_run_matches_single_stack(policy, monkeypatch):
    whole = verify.run_verify(policy=policy)
    # 36 two-mode and 6 one-mode points in stacks of 5: the last stack of
    # each chain holds only eta = 1 points and comes back unbatched.
    monkeypatch.setattr(verify, "_MAX_STACK", 5)
    chunked = verify.run_verify(policy=policy)
    assert chunked.two_mode_rows == whole.two_mode_rows
    assert chunked.single_mode_rows == whole.single_mode_rows
    assert chunked.notes == whole.notes


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
def test_run_verify_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        verify.run_verify(tolerance=tol)


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


def _reference_text(policy, tolerance, two_rows, one_rows, notes):
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
    lines += [f"  note: {note}" for note in notes]
    lines.append(f"verify: max_rel_err={max_rel_err:.3e} passed={passed}")
    return "".join(line + "\n" for line in lines)


# r_db wider than the 4-character column (15 already is, with its padding
# gone), etas with long reprs and eta = 1
_r_dbs = st.sampled_from([0.0, 3.0, 5.0, 15.0, 123.456, 1e-7, 2.5e6]) | st.floats(0.0, 1e7)
_etas = st.sampled_from([1.0, 0.1, 0.1 + 0.2, 0.15517241379310345, 1 / 3]) | st.floats(0.0, 1.0)
_values = st.floats(1e-300, 1e300)


@st.composite
def _reports(draw):
    """(policy, tolerance, two-mode rows, one-mode rows, notes), rows as old-style dicts."""
    tolerance = draw(st.sampled_from([1e-9, 1e-15]) | st.floats(1e-16, 1.0))
    # rel_err of 0, at the tolerance, just past it and well past it
    errs = (
        st.sampled_from([0.0, tolerance, float(np.nextafter(tolerance, 2.0)), 10.0 * tolerance])
        | st.floats(0.0, 2.0 * tolerance)
    )

    def rows(eta_names):
        out = []
        for _ in range(draw(st.integers(0, 6))):
            row = {"r_db": draw(_r_dbs)}
            row.update((name, draw(_etas)) for name in eta_names)
            row.update(formula=draw(_values), oracle=draw(_values), rel_err=draw(errs))
            row["ok"] = row["rel_err"] <= tolerance
            out.append(row)
        return out

    policy = draw(st.sampled_from(["shared", "independent"]))
    notes = draw(st.lists(st.text(max_size=12), max_size=3))
    return policy, tolerance, rows(("eta1", "eta2")), rows(("eta",)), notes


def _columns(rows, eta_names):
    names = ("r_db", *eta_names, "formula", "oracle", "rel_err")
    return {name: np.array([row[name] for row in rows], dtype=float) for name in names}


@settings(deadline=None, max_examples=200)
@given(case=_reports())
@example(case=("shared", 1e-9, [{"r_db": 15.0, "eta1": 1.0, "eta2": 0.1 + 0.2, "formula": 1.5,
                                 "oracle": 1.5, "rel_err": 2e-9, "ok": False}], [],
               ["50% of the gap", ""]))
def test_report_text_matches_the_per_row_formatter(case):
    policy, tolerance, two_rows, one_rows, notes = case
    report = verify.VerifyReport(
        policy, tolerance, _columns(two_rows, ("eta1", "eta2")), _columns(one_rows, ("eta",)),
        notes,
    )
    assert report.text() == _reference_text(policy, tolerance, two_rows, one_rows, notes)
    rows = two_rows + one_rows
    assert report.passed is all(row["ok"] for row in rows)
    assert report.max_rel_err == (max(row["rel_err"] for row in rows) if rows else 0.0)
    # the derived views equal the old rows: same values, keys in the same order
    for view, old in ((report.two_mode_rows, two_rows), (report.single_mode_rows, one_rows)):
        assert view == old
        assert [list(row) for row in view] == [list(row) for row in old]
        assert all(type(row["ok"]) is bool for row in view)
