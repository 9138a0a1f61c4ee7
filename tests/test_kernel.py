"""The broadcasting offset kernel: exactness against the scalar API, the
paper's limit identities and advantage boundary as properties, element-wise
validation, and the math path for Python reals against the numpy path."""

import math
import re
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtlink.constants import replace
from qtlink.sensing import (
    MAX_R_DB,
    PAPER_SCALE_CONFIG,
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
from qtlink.sweep import Range, run_grid
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


def _slack(r_db):
    """Relative rounding of an offset at ``r_db``: a few ulps of the radicand's
    cancelling terms, which grow as sinh(2r) (~500 at 30 dB)."""
    return 8 * np.finfo(float).eps * (1.0 + math.sinh(2.0 * r_from_db(r_db)))


@st.composite
def eta_axes(draw, max_steps=40):
    start, stop = sorted(draw(st.lists(open_etas, min_size=2, max_size=2, unique=True)))
    return Range(start, stop, draw(st.integers(2, max_steps)))


@checked
@given(r_db=st.floats(0.01, MAX_R_DB), split=splits, policy=policies, axis1=eta_axes(),
       axis2=eta_axes())
def test_advantage_region_lies_between_the_two_roots(r_db, split, policy, axis1, axis2):
    # tanh r < 2*sqrt(eta1*eta2)/(eta1+eta2) exactly for eta2*t^2 < eta1 < eta2/t^2,
    # t = tanh(r/2); both schemes share a denominator and the cross term
    # cancels, so neither the split nor the policy moves the region
    cfg = replace(LEO, r_db=r_db, split=split)
    grid = run_grid(axis1, axis2, cfg)
    eta1, eta2 = grid.column("eta1"), grid.column("eta2")
    t2 = math.tanh(r_from_db(r_db) / 2.0) ** 2
    inside = (eta2 * t2 < eta1) & (eta1 < eta2 / t2)
    ch = ChannelPair(1.0, 1.0, policy)
    sql = evaluate("SQL", cfg, ch, eta1=eta1, eta2=eta2)
    adv = sql - evaluate("TMSV_real", cfg, ch, eta1=eta1, eta2=eta2)
    # run_grid's sign (shared ports), then the drawn policy's: only a cell whose
    # two offsets agree to rounding, one on a root, may differ from the region
    for sign, gap in ((grid.column("sign"), grid.column("advantage")), (np.sign(adv), adv)):
        off = (sign > 0) != inside
        assert np.all(np.abs(gap[off]) <= _slack(r_db) * sql[off])


# sorted etas at least 1e-6 apart in (0, 1]
eta_rows = st.lists(st.integers(1, 10**6), min_size=2, max_size=30, unique=True).map(
    lambda ks: np.array(sorted(ks)) / 1e6
)


@checked
@given(r_db=st.floats(0.0, MAX_R_DB), other=open_etas, etas=eta_rows, split=splits,
       policy=policies)
def test_sql_and_smsv_offsets_fall_strictly_in_each_eta(r_db, other, etas, split, policy):
    cfg, ch = replace(LEO, r_db=r_db, split=split), ChannelPair(other, other, policy)
    for du in (evaluate("SQL", cfg, ch, eta1=etas), evaluate("SQL", cfg, ch, eta2=etas),
               evaluate("SMSV_real", cfg, eta1=etas)):
        assert np.all(np.diff(du) < 0.0)


@checked
@given(r_db=st.floats(0.0, MAX_R_DB), eta2=open_etas, etas=eta_rows, split=splits,
       policy=policies)
def test_tmsv_offset_falls_along_balanced_paths_and_in_the_weaker_eta1(
    r_db, eta2, etas, split, policy
):
    # the TMSV_real offset falls as both paths clear together, and as eta1
    # rises up to eta2; above eta2 it need not (see the next test)
    cfg, ch = replace(LEO, r_db=r_db, split=split), ChannelPair(1.0, 1.0, policy)
    balanced = evaluate("TMSV_real", cfg, ch, eta1=etas, eta2=etas)
    weaker = evaluate("TMSV_real", cfg, ch, eta1=eta2 * etas, eta2=eta2)
    for du in (balanced, weaker):
        assert np.all(du[1:] <= du[:-1] * (1.0 + _slack(r_db)))


def test_tmsv_offset_is_not_monotone_in_eta1_above_eta2():
    # the model's physics, not a bug: at high squeezing the offset is least
    # near balanced paths, and clearing path 1 alone past that costs more
    cfg = replace(LEO, r_db=15.0)
    eta1 = np.linspace(0.5, 1.0, 50001)
    du = evaluate("TMSV_real", cfg, ChannelPair(1.0, 1.0, "independent"), eta1=eta1, eta2=0.5)
    best = int(du.argmin())
    assert eta1[best] == pytest.approx(0.64, abs=0.005)
    assert du[-1] / du[best] == pytest.approx(1.20, abs=0.005)


# The paper's second claim at r = 0.  Under independent ports both radicands
# are 1 there, so at an even split TMSV_real's offset over SMSV_real's is
# 2*sqrt(eta1)/(sqrt(eta1) + sqrt(eta2)): two modes win exactly when eta1 < eta2.
# Where the two offsets agree to rounding (eta1 = eta2 and its neighbours),
# rounding may decide; each offset rounds a handful of times, eps/2 each, so
# there the two differ by less than 16 eps.
_TIE = 16 * np.finfo(float).eps
_EVEN_UNSQUEEZED = replace(LEO, r_db=0.0, split=0.5)


@st.composite
def _eta_pairs(draw):
    eta1 = draw(open_etas)
    near = [eta1, float(np.nextafter(eta1, 0.0)), float(np.nextafter(eta1, 2.0))]
    return eta1, min(1.0, draw(open_etas | st.sampled_from(near)))


@checked
@given(pair=_eta_pairs())
def test_two_modes_beat_one_at_zero_squeezing_exactly_when_eta1_is_below_eta2(pair):
    eta1, eta2 = pair
    ch = ChannelPair(eta1, eta2, "independent")
    tmsv = evaluate("TMSV_real", _EVEN_UNSQUEEZED, ch)
    smsv = evaluate("SMSV_real", _EVEN_UNSQUEEZED, ch)
    if (tmsv < smsv) != (eta1 < eta2):
        assert abs(tmsv - smsv) <= _TIE * smsv


def test_two_modes_beat_one_at_zero_squeezing_on_a_grid():
    eta = np.linspace(0.01, 1.0, 200)
    ch = ChannelPair(1.0, 1.0, "independent")
    axes = dict(eta1=eta[:, None], eta2=eta[None, :])
    tmsv = evaluate("TMSV_real", _EVEN_UNSQUEEZED, ch, **axes)
    smsv = evaluate("SMSV_real", _EVEN_UNSQUEEZED, ch, **axes)
    off = ~np.eye(eta.size, dtype=bool)
    assert np.array_equal((tmsv < smsv)[off], (eta[:, None] < eta[None, :])[off])
    # on the diagonal the offsets tie to an ulp or two, and rounding picks the side
    assert np.all(np.abs(np.diag(tmsv) / np.diag(smsv) - 1.0) <= 2 * np.finfo(float).eps)


# The paper's second claim at 15 dB, split 0.5 and eta2 = 0.9: the eta1 at which
# the winner of TMSV_real against SMSV_real changes, two modes winning below
# the first.  Under independent ports the two radicands are equal on
# eta1 = eta2, so the last switch is an exact tie there.
_SWITCHES_AT_15_DB = {"independent": (0.0960, 0.5911, 0.9), "shared": (0.0816,)}


@pytest.mark.parametrize("policy", list(_SWITCHES_AT_15_DB))
def test_two_modes_beat_one_at_15_db_in_the_pinned_bands(policy):
    switches = np.array(_SWITCHES_AT_15_DB[policy])
    cfg, ch = replace(LEO, r_db=15.0, split=0.5), ChannelPair(1.0, 0.9, policy)
    eta1 = np.linspace(1e-4, 1.0, 20000)
    wins = evaluate("TMSV_real", cfg, ch, eta1=eta1) < evaluate("SMSV_real", cfg, ch, eta1=eta1)
    # away from each switch by a margin, the band's parity says who wins
    clear = np.abs(eta1[:, None] - switches).min(axis=1) > 1e-3
    expected = np.searchsorted(switches, eta1) % 2 == 0
    assert np.array_equal(wins[clear], expected[clear])
    # and the winner changes exactly once near each switch, within 2e-4 of it
    flips = eta1[1:][wins[1:] != wins[:-1]]
    assert flips == pytest.approx(switches, abs=2e-4)


def _offsets_to_60_digits(r, eta1, eta2, n1, n2, policy):
    """SMSV_real's and TMSV_real's offsets times omega_rss/snr, to 60 digits.

    The doubles given are taken exactly; SMSV_real sends n1 + n2 through channel 1."""
    with localcontext() as ctx:
        ctx.prec = 60
        r, e1, e2, n1, n2 = map(Decimal, (r, eta1, eta2, n1, n2))
        sh, ch = (r.exp() - (-r).exp()) / 2, (r.exp() + (-r).exp()) / 2
        cross = ((1 - e1) * (1 - e2)).sqrt() if policy == "shared" else 0
        q_tmsv = 1 + cross + (e1 + e2) * sh * sh - 2 * (e1 * e2).sqrt() * sh * ch
        q_smsv = e1 * (-2 * r).exp() + 1 - e1
        tmsv = q_tmsv.sqrt() / (Decimal(2).sqrt() * ((e1 * n1).sqrt() + (e2 * n2).sqrt()))
        smsv = (q_smsv / (e1 * (n1 + n2))).sqrt() / 2
    return smsv, tmsv


@st.composite
def _unit_eta_pairs(draw):
    # (0, 1] without subnormals, and eta2 often at or next to eta1, where the offsets tie
    unit = st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False)
    eta1 = draw(unit)
    near = [eta1, float(np.nextafter(eta1, 0.0)), min(1.0, float(np.nextafter(eta1, 2.0)))]
    return eta1, draw(unit | st.sampled_from(near))


def _cancellation(r, eta1, eta2, policy):
    """The sum of the magnitudes of TMSV_real's radicand terms, as the kernel
    adds them, over the radicand: 1 where nothing cancels, up to e^4r (1e6 at
    30 dB) with both etas at 1, where the radicand is e^-2r out of terms near e^2r."""
    sh, ch = math.sinh(r), math.cosh(r)
    cross = math.sqrt((1.0 - eta1) * (1.0 - eta2)) if policy == "shared" else 0.0
    plus, minus = (eta1 + eta2) * sh, 2.0 * math.sqrt(eta1 * eta2) * ch
    return (1.0 + cross + sh * (plus + minus)) / (1.0 + cross + sh * (plus - minus))


# The paper's second claim over the whole legal domain at an even split: two
# modes beat one wherever the 60-digit reference says so, except where the two
# offsets agree to rounding.  That is _TIE where the kernel's radicand cancels
# nothing, and _TIE times its cancellation where it does: at high r with both
# etas near 1 the kernel's offsets lose up to ~1e-11 to it, and 16 eps alone
# let rounding decide 93 of 2,866 random cells (a quarter drawn next to eta = 1)
# against the reference.
@settings(deadline=None, max_examples=300)
@given(r_db=st.floats(0.0, MAX_R_DB), pair=_unit_eta_pairs(), policy=policies)
def test_two_modes_beat_one_where_the_60_digit_reference_says(r_db, pair, policy):
    cfg, ch = replace(LEO, r_db=r_db, split=0.5), ChannelPair(*pair, policy)
    kernel = np.sign(evaluate("SMSV_real", cfg, ch) - evaluate("TMSV_real", cfg, ch))
    half = cfg.n_in / 2
    smsv, tmsv = _offsets_to_60_digits(cfg.r, *pair, half, half, policy)
    if abs(smsv - tmsv) > Decimal(_TIE * _cancellation(cfg.r, *pair, policy)) * smsv:
        assert kernel == (1 if smsv > tmsv else -1)


@checked
@given(r_db=st.floats(0.0, MAX_R_DB), eta1=etas, eta2=etas, policy=policies)
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


# ----------------------------------------------------------------------
# The kernel's intake: every argument once, in one order, whatever the scheme
# ----------------------------------------------------------------------

MAX_R = r_from_db(MAX_R_DB)
# one bad value of each argument that radicand checks, every other one valid
below_zero = st.floats(max_value=-5e-324)
intake_bad = {
    "policy": st.sampled_from(["bogus", "Shared", "", "independent "]),
    "r": st.sampled_from([*BAD, 3.46]) | below_zero | st.floats(min_value=MAX_R, exclude_min=True),
    "eta1": st.sampled_from(BAD) | below_zero | st.floats(min_value=1.0, exclude_min=True),
    "eta2": st.sampled_from(BAD) | below_zero | st.floats(min_value=1.0, exclude_min=True),
}


def _intake_error(name, bad):
    if name == "policy":
        return f"unknown vacuum policy {bad!r}"
    if name != "r":
        return f"{name} must be in [0, 1], got {bad}"
    if 0.0 <= bad < math.inf:
        return f"squeezing magnitude must be at most {MAX_R} ({MAX_R_DB:g} dB), got {bad}"
    return f"squeezing magnitude must be finite and >= 0, got {bad}"


@settings(deadline=None, max_examples=60)
@given(r=st.floats(0.0, MAX_R), eta1=etas, eta2=etas, policy=policies, n1=st.floats(1.0, 1e6),
       n2=st.floats(0.0, 1e6), omega_rss=st.floats(1e13, 1e17), snr=st.floats(0.1, 10.0),
       data=st.data())
@pytest.mark.parametrize("name", list(intake_bad))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_scheme_names_a_bad_policy_r_or_eta_whether_or_not_it_reads_it(
    scheme, name, r, eta1, eta2, policy, n1, n2, omega_rss, snr, data
):
    args = dict(r=r, eta1=eta1, eta2=eta2, policy=policy)
    bad = args[name] = data.draw(intake_bad[name])
    policy = args.pop("policy")
    # an eta of 0 would diverge, but only past the intake, which rejects the bad value first
    outcome = _same_on_reals_and_arrays(
        lambda *a: delta_u(scheme, *a, policy), *args.values(), n1, n2, omega_rss, snr
    )
    assert outcome == ("error", _intake_error(name, bad))
    if scheme != "TMSV_ideal":
        on_radicand = _same_on_reals_and_arrays(lambda *a: radicand(scheme, *a, policy),
                                                *args.values())
        assert on_radicand == outcome


ALL_BAD = dict(r=-1.0, eta1=1.5, eta2=math.nan, n1=-1.0, n2=-1.0, omega_rss=0.0, snr=math.nan)
# in the intake's order: the error while this and every later argument is bad,
# and the valid value that then replaces it
INTAKE_ORDER = [
    ("n1", "n1 must be finite and >= 0, got -1.0", 0.0),
    ("n2", "n2 must be finite and >= 0, got -1.0", 0.0),
    ("n1", "n1 + n2 must be > 0, got 0.0", 500.0),
    ("omega_rss", "omega_rss must be finite and > 0, got 0.0", 1e15),
    ("snr", "snr must be finite and > 0, got nan", 1.0),
    ("policy", "unknown vacuum policy 'bogus'", "shared"),
    ("eta1", "eta1 must be in [0, 1], got 1.5", 0.5),
    ("r", "squeezing magnitude must be finite and >= 0, got -1.0", 0.5),
    ("eta2", "eta2 must be in [0, 1], got nan", 0.5),
]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_the_intake_checks_every_argument_in_one_order_whatever_the_scheme(scheme):
    args, policy = dict(ALL_BAD), "bogus"
    for name, message, valid in INTAKE_ORDER:
        outcome = _same_on_reals_and_arrays(
            lambda *a: delta_u(scheme, *a, policy), *args.values()
        )
        assert outcome == ("error", message)
        if name == "policy":
            policy = valid
        else:
            args[name] = valid
    assert delta_u(scheme, **args, policy=policy) > 0.0


@pytest.mark.parametrize("name", list(ALL_BAD))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_list_argument_is_taken_as_an_array(scheme, name):
    # a list omega_rss or snr once reached the formula unconverted and raised
    # an unnamed TypeError for TMSV_real and SQL
    args = dict(r=0.5, eta1=0.5, eta2=0.5, n1=500.0, n2=500.0, omega_rss=1e15, snr=1.0)
    scalar = delta_u(scheme, **args)
    args[name] = [args[name]]
    out = delta_u(scheme, **args)
    assert isinstance(out, np.ndarray) and out.shape == (1,) and out[0] == scalar


A = (500.0, 500.0, 1e15, 1.0)  # n1, n2, omega_rss, snr


@pytest.mark.parametrize(
    "call, message",
    [
        # each returned a number: an argument or a policy the scheme does not read was unchecked
        (lambda: delta_u("SMSV_real", 0.5, 0.5, 0.5, *A, "bogus"), "unknown vacuum policy 'bogus'"),
        (lambda: delta_u("TMSV_ideal", 0.5, 0.5, 0.5, *A, "bogus"),
         "unknown vacuum policy 'bogus'"),
        (lambda: delta_u("TMSV_ideal", 0.5, 5.0, 0.5, *A), "eta1 must be in [0, 1], got 5.0"),
        (lambda: delta_u("TMSV_ideal", 0.5, "abc", None, *A),
         "eta1 must be a real number, got 'abc'"),
        (lambda: delta_u("TMSV_ideal", 0.5, 0.5, None, *A), "eta2 must be a real number, got None"),
        (lambda: delta_u("SMSV_real", 0.5, 0.5, math.nan, *A), "eta2 must be in [0, 1], got nan"),
        (lambda: delta_u("SQL", "x", 0.5, 0.5, *A),
         "squeezing magnitude must be a real number, got 'x'"),
        (lambda: delta_u("SQL", 4.0, 0.5, 0.5, *A),
         f"squeezing magnitude must be at most {MAX_R} (30 dB), got 4.0"),
        (lambda: radicand("SMSV_real", 0.5, 0.5, 7.0), "eta2 must be in [0, 1], got 7.0"),
        (lambda: radicand("SQL", math.nan, 0.5, 0.5),
         "squeezing magnitude must be finite and >= 0, got nan"),
        (lambda: radicand("SMSV_real", 0.5, 0.5, 0.5, "bogus"), "unknown vacuum policy 'bogus'"),
        # radicand names its scheme before any argument
        (lambda: radicand("TMSV_ideal", math.nan, 0.5, 0.5, "bogus"),
         "no radicand for scheme 'TMSV_ideal'"),
        # each named n1, a value the caller never passed
        (lambda: evaluate("SQL", PAPER_SCALE_CONFIG, n_in=np.array([-1.0])),
         "n_in must be finite and > 0, got -1.0"),
        (lambda: evaluate("SMSV_real", PAPER_SCALE_CONFIG, n_in=math.nan),
         "n_in must be finite and > 0, got nan"),
        (lambda: evaluate("TMSV_real", PAPER_SCALE_CONFIG, n_in=np.array([1e3, math.inf])),
         "n_in must be finite and > 0, got inf"),
        (lambda: evaluate("TMSV_ideal", PAPER_SCALE_CONFIG, n_in=0.0),
         "n_in must be finite and > 0, got 0.0"),
    ],
    ids=lambda value: value[:40] if isinstance(value, str) else "",
)
def test_each_argument_is_rejected_by_name_where_the_kernel_takes_it(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            call()
    assert str(err.value) == message
