"""The broadcasting offset kernel: exactness against the scalar API, the
paper's limit identities and advantage boundary as properties, and
element-wise validation."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtlink.sensing import (
    ChannelPair,
    SensingConfig,
    advantage_boundary_eta1,
    delta_u,
    delta_u_smsv_real,
    delta_u_sql,
    delta_u_tmsv_ideal,
    delta_u_tmsv_real,
    evaluate,
    quantum_advantage,
    r_from_db,
    radicand,
)
from qtlink.verify import tmsv_chain_variance

LEO = SensingConfig(r_db=5.0, n_in=1e3, lambda0=815e-9, delta_omega=2 * math.pi * 1e6)

r_dbs = st.floats(0.0, 20.0)
etas = st.floats(0.0, 1.0)
open_etas = st.floats(1e-6, 1.0)
policies = st.sampled_from(["shared", "independent"])
splits = st.floats(0.05, 0.95)

# no deadline: a shared host can stall any single example
checked = settings(deadline=None, max_examples=60)


@checked
@given(
    r_db=r_dbs,
    e1=st.lists(open_etas, min_size=1, max_size=6),
    e2=st.lists(etas, min_size=1, max_size=6),
    policy=policies,
    split=splits,
)
def test_kernel_on_a_mesh_equals_scalar_wrappers_exactly(r_db, e1, e2, policy, split):
    cfg = replace(LEO, r_db=r_db, split=split)
    mesh1, mesh2 = np.array(e1)[:, None], np.array(e2)[None, :]
    tmsv = evaluate("TMSV_real", cfg, mesh1, mesh2, policy)
    sql = evaluate("SQL", cfg, mesh1, mesh2, policy)
    smsv = evaluate("SMSV_real", cfg, mesh1)
    assert tmsv.shape == sql.shape == (len(e1), len(e2))
    for i, a in enumerate(e1):
        assert smsv[i, 0] == delta_u_smsv_real(cfg, a)
        for j, b in enumerate(e2):
            ch = ChannelPair(a, b, policy)
            assert tmsv[i, j] == delta_u_tmsv_real(cfg, ch)
            assert sql[i, j] == delta_u_sql(cfg, ch)
            assert sql[i, j] - tmsv[i, j] == quantum_advantage(cfg, ch)


@checked
@given(levels=st.lists(r_dbs, min_size=1, max_size=8), eta1=open_etas, eta2=etas)
def test_array_of_squeezing_levels_matches_per_level_configs(levels, eta1, eta2):
    # An r array is evaluated with math per element, so it must agree with
    # one scalar config per level to the last bit.
    column = np.array(levels)[:, None]
    grid = evaluate("TMSV_real", LEO, eta1, eta2, r_db=column)
    ideal = evaluate("TMSV_ideal", LEO, r_db=column)
    smsv = evaluate("SMSV_real", LEO, eta1, r_db=column)
    for k, r_db in enumerate(levels):
        cfg = replace(LEO, r_db=r_db)
        assert grid[k, 0] == delta_u_tmsv_real(cfg, ChannelPair(eta1, eta2))
        assert ideal[k, 0] == delta_u_tmsv_ideal(cfg)
        assert smsv[k, 0] == delta_u_smsv_real(cfg, eta1)


@checked
@given(r_db=r_dbs, split=splits, policy=policies)
def test_lossless_real_scheme_is_the_ideal_scheme(r_db, split, policy):
    cfg = replace(LEO, r_db=r_db, split=split)
    real = delta_u_tmsv_real(cfg, ChannelPair(1.0, 1.0, policy))
    assert real == pytest.approx(delta_u_tmsv_ideal(cfg), rel=1e-9)


@checked
@given(eta1=open_etas, eta2=etas, split=splits, policy=policies)
def test_unsqueezed_real_scheme_is_the_baseline(eta1, eta2, split, policy):
    cfg = replace(LEO, r_db=0.0, split=split)
    ch = ChannelPair(eta1, eta2, policy)
    assert delta_u_tmsv_real(cfg, ch) == delta_u_sql(cfg, ch)


@checked
@given(r_db=st.floats(1.0, 15.0), eta2=st.floats(0.05, 1.0))
def test_advantage_changes_sign_at_the_boundary(r_db, eta2):
    r = r_from_db(r_db)
    boundary = advantage_boundary_eta1(r, eta2)
    cfg = replace(LEO, r_db=r_db)
    below = quantum_advantage(cfg, ChannelPair(0.95 * boundary, eta2))
    above = quantum_advantage(cfg, ChannelPair(1.05 * boundary, eta2))
    assert below < 0.0 < above
    # the same flip on a grid row evaluated in one kernel call
    row = np.array([0.95 * boundary, 1.05 * boundary])
    adv = evaluate("SQL", cfg, row, eta2) - evaluate("TMSV_real", cfg, row, eta2)
    assert np.array_equal(np.sign(adv), [-1.0, 1.0])


@checked
@given(r_db=r_dbs, eta1=etas, eta2=etas, policy=policies)
def test_radicand_is_the_oracle_variance(r_db, eta1, eta2, policy):
    r = r_from_db(r_db)
    q = radicand("TMSV_real", r, eta1, eta2, policy)
    oracle = tmsv_chain_variance(r, eta1, eta2, policy) / 2.0
    assert q == pytest.approx(oracle, rel=1e-9, abs=1e-12)
    shared = radicand("TMSV_real", r, eta1, eta2)
    gap = shared - radicand("TMSV_real", r, eta1, eta2, "independent")
    assert gap == pytest.approx(math.sqrt((1 - eta1) * (1 - eta2)), abs=1e-12)


def test_scalar_inputs_give_zero_d_values_and_arrays_broadcast():
    args = (0.5, 0.5, 0.5, 500.0, 500.0, 1e15, 1.0)
    assert np.ndim(delta_u("TMSV_real", *args)) == 0
    out = delta_u("TMSV_real", np.array([0.1, 0.5]), np.ones((3, 1)), *args[2:])
    assert out.shape == (3, 2)


@pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
@pytest.mark.parametrize("scheme", ["TMSV_real", "SQL", "SMSV_real"])
def test_kernel_rejects_any_bad_eta_element(scheme, bad):
    eta = np.array([0.2, 0.5, bad, 0.9])
    with pytest.raises(ValueError, match="eta1 must be in"):
        evaluate(scheme, LEO, eta, 0.5)
    if scheme != "SMSV_real":
        with pytest.raises(ValueError, match="eta2 must be in"):
            evaluate(scheme, LEO, 0.5, eta)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_kernel_rejects_bad_squeezing(bad):
    with pytest.raises(ValueError, match="squeezing"):
        evaluate("TMSV_real", LEO, 0.5, 0.5, r_db=np.array([3.0, bad]))
    with pytest.raises(ValueError, match="squeezing"):
        delta_u("TMSV_ideal", bad, 1.0, 1.0, 500.0, 500.0, 1e15, 1.0)


def test_kernel_checks_every_result():
    with pytest.raises(ValueError, match="diverges"):
        evaluate("TMSV_real", LEO, np.array([0.5, 0.0]), np.array([0.5, 0.0]))
    with pytest.raises(ValueError, match="diverges"):
        evaluate("SMSV_real", LEO, np.array([0.5, 0.0]))
    with pytest.raises(ValueError, match="delta_u must be finite and > 0"):
        # valid arguments whose second offset underflows to 0
        delta_u("TMSV_real", 0.5, 0.5, 0.5, 500.0, 500.0, np.array([1e15, 1e300]), 1e-30)
    with pytest.raises(ValueError, match="unknown scheme"):
        delta_u("TMSV", 0.5, 0.5, 0.5, 500.0, 500.0, 1e15, 1.0)
    with pytest.raises(ValueError, match="policy"):
        radicand("TMSV_real", 0.5, 0.5, 0.5, "other")


@pytest.mark.parametrize(
    "name, bad, requirement",
    [
        ("n1", -1.0, ">= 0"),
        ("n1", float("nan"), ">= 0"),
        ("n2", float("inf"), ">= 0"),
        ("n2", np.array([500.0, -1.0]), ">= 0"),
        ("omega_rss", 0.0, "> 0"),
        ("omega_rss", float("inf"), "> 0"),
        ("snr", -2.0, "> 0"),
        ("snr", float("nan"), "> 0"),
    ],
)
@pytest.mark.parametrize("scheme", ["TMSV_ideal", "TMSV_real", "SQL", "SMSV_real"])
def test_kernel_rejects_bad_photon_counts_and_scales(scheme, name, bad, requirement):
    args = dict(n1=500.0, n2=500.0, omega_rss=1e15, snr=1.0)
    args[name] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be finite and {requirement}"):
            delta_u(scheme, 0.5, 0.5, 0.5, **args)
