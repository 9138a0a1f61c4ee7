"""The broadcasting offset kernel: exactness against the scalar API, the
paper's limit identities and advantage boundary as properties, element-wise
validation, and the math path for Python reals against the numpy path."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtlink.constants import replace
from qtlink.sensing import (
    MAX_R_DB,
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
    ch = ChannelPair(1.0, 1.0, policy)
    tmsv = evaluate("TMSV_real", cfg, ch, eta1=mesh1, eta2=mesh2)
    sql = evaluate("SQL", cfg, ch, eta1=mesh1, eta2=mesh2)
    smsv = evaluate("SMSV_real", cfg, eta1=mesh1)
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
    grid = evaluate("TMSV_real", LEO, eta1=eta1, eta2=eta2, r_db=column)
    ideal = evaluate("TMSV_ideal", LEO, r_db=column)
    smsv = evaluate("SMSV_real", LEO, eta1=eta1, r_db=column)
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
    axes = dict(eta1=row, eta2=eta2)
    adv = evaluate("SQL", cfg, **axes) - evaluate("TMSV_real", cfg, **axes)
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
    # the shape of an argument the scheme does not read is kept
    assert evaluate("TMSV_ideal", LEO, eta1=np.array([0.5, 0.6])).shape == (2,)
    assert delta_u("SMSV_real", *args[:2], np.ones(3), *args[3:]).shape == (3,)


@pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
@pytest.mark.parametrize("scheme", ["TMSV_real", "SQL", "SMSV_real"])
def test_kernel_rejects_any_bad_eta_element(scheme, bad):
    eta = np.array([0.2, 0.5, bad, 0.9])
    with pytest.raises(ValueError, match="eta1 must be in"):
        evaluate(scheme, LEO, eta1=eta, eta2=0.5)
    if scheme != "SMSV_real":
        with pytest.raises(ValueError, match="eta2 must be in"):
            evaluate(scheme, LEO, eta1=0.5, eta2=eta)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_kernel_rejects_bad_squeezing(bad):
    with pytest.raises(ValueError, match="squeezing"):
        evaluate("TMSV_real", LEO, eta1=0.5, eta2=0.5, r_db=np.array([3.0, bad]))
    with pytest.raises(ValueError, match="squeezing"):
        delta_u("TMSV_ideal", bad, 1.0, 1.0, 500.0, 500.0, 1e15, 1.0)


def test_kernel_checks_every_result():
    with pytest.raises(ValueError, match="diverges"):
        evaluate("TMSV_real", LEO, eta1=np.array([0.5, 0.0]), eta2=np.array([0.5, 0.0]))
    with pytest.raises(ValueError, match="diverges"):
        evaluate("SMSV_real", LEO, eta1=np.array([0.5, 0.0]))
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


# ----------------------------------------------------------------------
# Python reals go through math, arrays through numpy: same bits, same errors
# ----------------------------------------------------------------------

SCHEMES = ["TMSV_ideal", "TMSV_real", "SQL", "SMSV_real"]
TINY = [0.0, -0.0, 5e-324, 1e-310, 1e-300]
BAD = [float("nan"), float("inf"), -float("inf"), -1.0]
# valid values most of the time, the edges and the invalid ones often enough
squeezings = st.floats(0.0, 3.5) | st.sampled_from([r_from_db(MAX_R_DB), 3.46, *BAD])
levels_db = st.floats(0.0, 31.0) | st.sampled_from([30.0, *BAD])
transmissivities = st.floats(0.0, 1.0) | st.sampled_from([*TINY, 1.0, 1.1, *BAD])
counts = st.floats(0.0, 1e6) | st.floats() | st.sampled_from([*TINY, 1e308, *BAD])
scales = st.floats(1e13, 1e17) | st.floats() | st.sampled_from([*TINY, 1e-200, 1e300, *BAD])


def _outcome(fn, *args):
    """("value", bits) of ``fn(*args)``, element 0 for an array, or ("error", message)."""
    try:
        value = fn(*args)
    except ValueError as err:
        return "error", str(err)
    if isinstance(value, np.ndarray):
        assert value.shape == (1,)
        value = value[0]
    else:
        assert type(value) is float
    return "value", np.float64(value).tobytes()


def _same_on_reals_and_arrays(fn, *args):
    assert all(type(a) is float for a in args)
    reals = _outcome(fn, *args)
    assert reals == _outcome(fn, *(np.array([a]) for a in args))
    return reals


@settings(deadline=None, max_examples=300)
@given(r=squeezings, eta1=transmissivities, eta2=transmissivities, n1=counts, n2=counts,
       omega_rss=scales, snr=scales)
@pytest.mark.parametrize("policy", ["shared", "independent"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_delta_u_on_python_floats_is_element_zero_of_the_array_call(
    scheme, policy, r, eta1, eta2, n1, n2, omega_rss, snr
):
    def offset(*args):
        return delta_u(scheme, *args, policy)

    args = (r, eta1, eta2, n1, n2, omega_rss, snr)
    reals = _same_on_reals_and_arrays(offset, *args)
    # each argument twice along an axis of its own: the result spans all
    # seven axes, those of the arguments the scheme does not read included
    spread = [np.full((1,) * k + (2,) + (1,) * (6 - k), a) for k, a in enumerate(args)]
    try:
        value = offset(*spread)
    except ValueError as err:
        assert reals == ("error", str(err))
        return
    assert reals[0] == "value" and value.shape == (2,) * 7 and value.flags.writeable
    assert (value.view(np.int64) == np.frombuffer(reals[1], np.int64)).all()


@settings(deadline=None, max_examples=200)
@given(r=squeezings, eta1=transmissivities, eta2=transmissivities)
@pytest.mark.parametrize("policy", ["shared", "independent"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_radicand_on_python_floats_is_element_zero_of_the_array_call(
    scheme, policy, r, eta1, eta2
):
    _same_on_reals_and_arrays(lambda *args: radicand(scheme, *args, policy), r, eta1, eta2)


@settings(deadline=None, max_examples=200)
@given(r_db=levels_db)
def test_r_from_db_on_a_python_float_is_element_zero_of_the_array_call(r_db):
    _same_on_reals_and_arrays(r_from_db, r_db)


# TMSV_real's and SQL's error when each path has no photons or no transmission
NO_AMPLITUDE_ERROR = "sqrt(eta1*n1) + sqrt(eta2*n2) must be > 0, got 0.0"

# (r, eta1, eta2, n1, n2, omega_rss) at which every scheme's denominator is 0 or subnormal
DENOMINATORS = {
    "underflow to 0": (0.5, 0.5, 0.5, 5e-324, 5e-324, 1e-300),
    "subnormal": (0.5, 0.5, 0.5, 1e-200, 1e-200, 1e-210),
}


@pytest.mark.parametrize("case", list(DENOMINATORS))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_zero_or_underflowing_denominator_ends_in_the_array_error(scheme, case):
    outcome = _same_on_reals_and_arrays(lambda *a: delta_u(scheme, *a), *DENOMINATORS[case], 1.0)
    if case == "underflow to 0" and scheme in ("TMSV_real", "SQL"):
        # 0.5 * 5e-324 rounds to 0, so the two-path amplitude is 0 before any division
        assert outcome == ("error", NO_AMPLITUDE_ERROR)
    else:
        assert outcome == ("error", "delta_u must be finite and > 0, got inf")


# (r, eta1, eta2, n1, n2) where each path has either no photons or no transmission
NO_AMPLITUDE = [
    (0.5, 0.0, 0.5, 500.0, 0.0),
    (0.5, 0.5, 0.0, 0.0, 500.0),
    (0.0, 0.0, 1.0, 1e308, -0.0),
]


@pytest.mark.parametrize("args", NO_AMPLITUDE)
@pytest.mark.parametrize("policy", ["shared", "independent"])
@pytest.mark.parametrize("scheme", ["TMSV_real", "SQL"])
def test_no_amplitude_on_either_path_is_rejected_by_name_on_both_paths(scheme, policy, args):
    outcome = _same_on_reals_and_arrays(lambda *a: delta_u(scheme, *a, policy), *args, 1e15, 1.0)
    assert outcome == ("error", NO_AMPLITUDE_ERROR)
    # one such element among valid ones is named as that element
    eta1, n2 = np.array([0.5, 0.0]), np.array([500.0, 0.0])
    with pytest.raises(ValueError, match=f"^{re.escape(NO_AMPLITUDE_ERROR)}$"):
        delta_u(scheme, 0.5, eta1, 0.5, 500.0, n2, 1e15, 1.0, policy)


def test_smsv_real_denominator_of_exactly_zero_ends_in_the_array_error():
    # eta1 * (n1 + n2) underflows to 0 past the photon check, so the math path
    # divides by an exact zero; the other schemes stay finite here
    outcome = _same_on_reals_and_arrays(
        lambda *a: delta_u("SMSV_real", *a), 0.5, 5e-324, 0.5, 0.05, 0.05, 1e15, 1.0
    )
    assert outcome == ("error", "delta_u must be finite and > 0, got inf")


# (r, eta1, eta2, omega_rss, snr) of one case per scheme; without the photon
# check, SMSV_real's ended in nan and every other in inf
NO_PHOTONS = {
    "TMSV_ideal": (0.5, 0.5, 0.5, 1e15, 1.0),
    "TMSV_real": (0.5, 0.5, 0.5, 1e15, 1.0),
    "SQL": (0.5, 0.5, 0.5, 1e15, 1.0),
    "SMSV_real": (0.0, 1.0, 0.0, 1e13, 1e13),
}


@pytest.mark.parametrize("n1, n2, total", [(0.0, 0.0, "0.0"), (0.0, -0.0, "0.0"),
                                           (-0.0, -0.0, "-0.0")])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_no_photons_at_all_are_rejected_on_both_paths(scheme, n1, n2, total):
    r, eta1, eta2, omega_rss, snr = NO_PHOTONS[scheme]
    outcome = _same_on_reals_and_arrays(
        lambda *a: delta_u(scheme, *a), r, eta1, eta2, n1, n2, omega_rss, snr
    )
    assert outcome == ("error", f"n1 + n2 must be > 0, got {total}")


@pytest.mark.parametrize("scheme", SCHEMES)
def test_no_photons_in_one_element_names_that_element(scheme):
    r, eta1, eta2, omega_rss, snr = NO_PHOTONS[scheme]
    n1, n2 = np.array([500.0, 0.0, 1e308]), np.array([0.0, 0.0, 1e308])
    with pytest.raises(ValueError, match=r"^n1 \+ n2 must be > 0, got 0.0$"):
        delta_u(scheme, r, eta1, eta2, n1, n2, omega_rss, snr)
