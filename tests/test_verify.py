from pathlib import Path

import numpy as np
import pytest

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
