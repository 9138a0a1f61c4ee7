import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qtlink.constants import REQUIRED, asdict, replace
from qtlink.gaussian import GaussianState
from qtlink.link import LinkGeometry
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
    photocurrent_mean_single,
    photocurrent_variance_single,
    post_variance_ideal,
    quantum_advantage,
    r_from_db,
    radicand,
)
from qtlink.sweep import Range, SweepResult
from qtlink.temporal import (
    ModeFunction,
    SpectralProfile,
    shift_coefficients,
    shift_expansion_check,
)
from qtlink.verify import VerifyReport, tmsv_chain_variance

LEO = SensingConfig(r_db=5.0, n_in=1e3, lambda0=815e-9, delta_omega=2 * math.pi * 1e6)
NATURAL = SpectralProfile(omega0=10.0, delta_omega=1.0)


def test_r_from_db_values():
    assert r_from_db(0.0) == 0.0
    assert r_from_db(5.0) == pytest.approx(0.575646, rel=1e-6)
    assert math.exp(-2 * r_from_db(5.0)) == pytest.approx(0.316228, rel=1e-6)
    assert math.exp(-2 * r_from_db(15.0)) == pytest.approx(0.0316228, rel=1e-6)


def test_r_from_db_round_trip():
    for r_db in (0.0, 1.0, 3.0, 5.0, 7.5, 15.0):
        r = r_from_db(r_db)
        assert -10.0 * math.log10(math.exp(-2 * r)) == pytest.approx(r_db, abs=1e-12)


def test_r_from_db_rejects_negative():
    with pytest.raises(ValueError):
        r_from_db(-1.0)


def test_photocurrent_mean_vanishes_at_matched_phase_zero_offset():
    assert photocurrent_mean_single(LEO, 1, 0.0) == 0.0


def test_photocurrent_mean_plugin():
    cfg = replace(LEO, n_in=1e3, n_lo=1e6)
    mean = photocurrent_mean_single(cfg, 1, 1e-3 * cfg.u0)
    assert mean == pytest.approx(2 * math.sqrt(500 * 1e6) * 1e-3, rel=1e-9)


def test_photocurrent_mean_quadrature_phase_saturates():
    cfg = replace(LEO, theta1=math.pi / 2.0, n_lo=1e6)
    mean = photocurrent_mean_single(cfg, 1, 0.0)
    assert mean == pytest.approx(2 * math.sqrt(cfg.n1 * cfg.n_lo), rel=1e-9)


def test_photocurrent_mean_of_path_two_reads_its_own_photons_and_phase():
    cfg = replace(LEO, split=0.2, theta2=math.pi / 2.0, n_lo=1e6)
    expected = 2 * math.sqrt(800 * 1e6)  # N_2 = (1 - split) * N_in
    assert photocurrent_mean_single(cfg, 2, 0.0) == pytest.approx(expected, rel=1e-9)
    assert photocurrent_mean_single(cfg, 1, 0.0) == 0.0


def test_photocurrent_mean_rejects_bad_path():
    with pytest.raises(ValueError):
        photocurrent_mean_single(LEO, 3, 0.0)


def test_photocurrent_variance_unsqueezed():
    assert photocurrent_variance_single(replace(LEO, r_db=0.0, n_lo=7.0)) == 7.0


def test_photocurrent_variance_5db():
    assert photocurrent_variance_single(replace(LEO, n_lo=1.0)) == pytest.approx(
        1.739254, rel=1e-6
    )


def test_photocurrent_variance_matches_oracle_arm():
    # one arm of the entangled pair carries variance cosh(2r) in every quadrature
    from qtlink.gaussian import beam_splitter, homodyne_variance, squeeze_single, vacuum

    r = LEO.r
    st = vacuum(2)
    st = squeeze_single(st, 0, r, 0.0)
    st = squeeze_single(st, 1, r, np.pi / 2.0)
    st = beam_splitter(st, 0, 1, 0.5)
    arm = homodyne_variance(st, (1.0,))
    assert photocurrent_variance_single(replace(LEO, n_lo=1.0)) == pytest.approx(
        arm, rel=1e-9
    )


def test_post_variance_unsqueezed_is_phase_insensitive():
    for theta in (0.0, 0.4, math.pi / 4.0):
        cfg = replace(LEO, r_db=0.0, n_lo=3.0, theta_lo=theta)
        assert post_variance_ideal(cfg) == pytest.approx(6.0, rel=1e-12)


def test_post_variance_minimized_at_x_quadrature():
    cfg = replace(LEO, n_lo=1.0, theta_lo=0.0)
    assert post_variance_ideal(cfg) == pytest.approx(
        2 * 0.31622776601683794, rel=1e-7
    )


def test_post_variance_diagonal_phase():
    cfg = replace(LEO, n_lo=1.0, theta_lo=math.pi / 4.0)
    assert post_variance_ideal(cfg) == pytest.approx(3.478508, rel=1e-6)


def test_delta_u_ideal_values():
    assert delta_u_tmsv_ideal(replace(LEO, r_db=0.0)) == pytest.approx(
        6.841117374800159e-18, rel=1e-12
    )
    assert delta_u_tmsv_ideal(LEO) == pytest.approx(
        3.8470430103278435e-18, rel=1e-12
    )
    # agreement with the 4-digit quoted numbers
    assert delta_u_tmsv_ideal(replace(LEO, r_db=0.0)) == pytest.approx(
        6.841e-18, rel=1e-3
    )
    assert delta_u_tmsv_ideal(LEO) == pytest.approx(3.847e-18, rel=1e-3)


def test_delta_u_ideal_photon_scaling():
    base = delta_u_tmsv_ideal(LEO)
    assert delta_u_tmsv_ideal(replace(LEO, n_in=4e3)) == pytest.approx(
        base / 2.0, rel=1e-12
    )


def test_q_factor_limits():
    r = r_from_db(5.0)
    assert radicand("TMSV_real", r, 1.0, 1.0) == pytest.approx(
        math.exp(-2 * r), rel=1e-12
    )
    assert radicand("TMSV_real", 0.0, 0.3, 0.8) == pytest.approx(
        1.0 + math.sqrt(0.7 * 0.2), rel=1e-12
    )
    assert radicand("TMSV_real", r, 0.5, 0.5) == pytest.approx(
        1.158113883008419, rel=1e-12
    )


def test_q_factor_positive_on_grid():
    for r_db in (0.0, 3.0, 5.0, 15.0, 30.0):
        r = r_from_db(r_db)
        for eta1 in np.linspace(0.0, 1.0, 11):
            for eta2 in np.linspace(0.0, 1.0, 11):
                assert radicand("TMSV_real", r, eta1, eta2) > 0.0


def test_q_factor_matches_textbook_expansion():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = rng.uniform(0.0, 1.8)
        e1, e2 = rng.uniform(0, 1, size=2)
        direct = (
            (e1 + e2) * math.sinh(r) ** 2
            + 1.0
            + math.sqrt((1 - e1) * (1 - e2))
            - math.sqrt(e1 * e2) * math.sinh(2 * r)
        )
        assert radicand("TMSV_real", r, e1, e2) == pytest.approx(direct, rel=1e-12)


def test_delta_u_real_reduces_to_ideal():
    res = delta_u_tmsv_real(LEO, ChannelPair(1.0, 1.0))
    assert res == pytest.approx(delta_u_tmsv_ideal(LEO), rel=1e-12)


def test_delta_u_real_symmetric_half():
    assert delta_u_tmsv_real(LEO, ChannelPair(0.5, 0.5)) == pytest.approx(
        1.0411604765591977e-17, rel=1e-12
    )


def test_delta_u_real_rejects_opaque_channels():
    with pytest.raises(ValueError):
        delta_u_tmsv_real(LEO, ChannelPair(0.0, 0.0))


def test_delta_u_sql_values():
    assert delta_u_sql(LEO, ChannelPair(1.0, 1.0)) == pytest.approx(
        6.841117374800159e-18, rel=1e-12
    )
    assert delta_u_sql(LEO, ChannelPair(0.5, 0.5)) == pytest.approx(
        1.1849162873696092e-17, rel=1e-12
    )


def test_delta_u_sql_is_unsqueezed_offset():
    rng = np.random.default_rng(5)
    for _ in range(20):
        ch = ChannelPair(rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0))
        sql = delta_u_sql(LEO, ch)
        tmsv_r0 = delta_u_tmsv_real(replace(LEO, r_db=0.0), ch)
        assert sql == tmsv_r0


def test_delta_u_smsv_values():
    assert delta_u_smsv_real(LEO, 1.0) == pytest.approx(
        delta_u_tmsv_ideal(LEO), rel=1e-12
    )
    assert delta_u_smsv_real(LEO, 0.5) == pytest.approx(
        7.84860668266062e-18, rel=1e-12
    )
    assert delta_u_smsv_real(replace(LEO, r_db=0.0), 1.0) == pytest.approx(
        6.841117374800159e-18, rel=1e-12
    )


def test_delta_u_smsv_rejects_opaque_channel():
    with pytest.raises(ValueError):
        delta_u_smsv_real(LEO, 0.0)


def test_quantum_advantage_zero_without_squeezing():
    assert quantum_advantage(replace(LEO, r_db=0.0), ChannelPair(0.6, 0.8)) == 0.0


def test_quantum_advantage_contour_points():
    adv_sym = quantum_advantage(LEO, ChannelPair(0.695, 0.695))
    adv_asym = quantum_advantage(LEO, ChannelPair(0.585, 0.825))
    assert adv_sym == pytest.approx(1.8992455279469075e-18, rel=1e-12)
    assert adv_asym == pytest.approx(1.8900960473141046e-18, rel=1e-12)
    assert abs(adv_sym - adv_asym) / adv_sym < 0.01


def test_quantum_advantage_negative_below_boundary():
    assert quantum_advantage(LEO, ChannelPair(0.02, 0.5)) < 0.0


def test_boundary_closed_form_values():
    r = r_from_db(5.0)
    assert advantage_boundary_eta1(r, 0.5) == pytest.approx(0.0392, abs=1e-3)
    assert advantage_boundary_eta1(r, 1.0) == pytest.approx(0.0785, abs=1e-3)


def test_boundary_sign_change_and_bisection():
    r = r_from_db(5.0)
    for eta2 in (0.3, 0.5, 0.8, 1.0):
        threshold = advantage_boundary_eta1(r, eta2)
        assert quantum_advantage(LEO, ChannelPair(threshold * 0.99, eta2)) < 0.0
        assert quantum_advantage(LEO, ChannelPair(threshold * 1.01, eta2)) > 0.0
        # independent bisection on the advantage sign
        lo, hi = 1e-6, eta2
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if quantum_advantage(LEO, ChannelPair(mid, eta2)) > 0.0:
                hi = mid
            else:
                lo = mid
        assert hi == pytest.approx(threshold, abs=1e-9)


def test_boundary_symmetric_channels_always_gain():
    # equal transmissivities put 2*sqrt(e1*e2)/(e1+e2) at its maximum of 1,
    # so any squeezing beats the baseline at any symmetric eta > threshold*eta
    for r_db in (1.0, 3.0, 5.0, 15.0):
        cfg = replace(LEO, r_db=r_db)
        for eta in (0.05, 0.2, 0.5, 0.9):
            assert quantum_advantage(cfg, ChannelPair(eta, eta)) > 0.0


def test_boundary_validation():
    with pytest.raises(ValueError):
        advantage_boundary_eta1(0.0, 0.5)
    with pytest.raises(ValueError):
        advantage_boundary_eta1(0.3, 0.0)


def test_offsets_independent_of_lo_strength():
    ch = ChannelPair(0.4, 0.9)
    for n_lo in (1.0, 1e6):
        cfg = replace(LEO, n_lo=n_lo)
        assert delta_u_tmsv_real(cfg, ch) == pytest.approx(
            delta_u_tmsv_real(LEO, ch), rel=1e-12
        )
        assert delta_u_smsv_real(cfg, 0.4) == pytest.approx(
            delta_u_smsv_real(LEO, 0.4), rel=1e-12
        )


def test_single_mode_beats_two_mode_under_symmetric_loss():
    for eta in np.arange(0.1, 0.95, 0.1):
        du_smsv = delta_u_smsv_real(LEO, eta)
        du_tmsv = delta_u_tmsv_real(LEO, ChannelPair(eta, eta))
        assert du_smsv < du_tmsv


def test_offset_monotonic_in_eta_and_photons():
    etas = np.linspace(0.05, 1.0, 40)
    offsets = [delta_u_tmsv_real(LEO, ChannelPair(e, e)) for e in etas]
    assert all(a > b for a, b in zip(offsets, offsets[1:]))
    base = delta_u_tmsv_real(LEO, ChannelPair(0.7, 0.7))
    for k in (4.0, 100.0):
        scaled = delta_u_tmsv_real(replace(LEO, n_in=k * 1e3), ChannelPair(0.7, 0.7))
        assert scaled * math.sqrt(k) == pytest.approx(base, rel=1e-12)


def test_snr_threshold_scales_linearly():
    assert delta_u_tmsv_real(replace(LEO, snr=3.0), ChannelPair(0.5, 0.5)) == (
        pytest.approx(3 * delta_u_tmsv_real(LEO, ChannelPair(0.5, 0.5)), rel=1e-12)
    )


def test_radicand_matches_oracle_grid():
    for r_db in (0.0, 3.0, 5.0, 15.0):
        r = r_from_db(r_db)
        for eta1 in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            for eta2 in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
                oracle = tmsv_chain_variance(r, eta1, eta2, "shared") / 2.0
                assert radicand("TMSV_real", r, eta1, eta2) == pytest.approx(
                    oracle, rel=1e-9
                )


def test_config_validation():
    with pytest.raises(ValueError):
        SensingConfig(r_db=-1.0)
    with pytest.raises(ValueError):
        SensingConfig(n_in=0.0)
    with pytest.raises(ValueError):
        SensingConfig(split=1.0)
    with pytest.raises(ValueError):
        SensingConfig(lambda0=815e-9, omega0=2e15)
    with pytest.raises(ValueError):
        SensingConfig(lambda0=None, omega0=None)
    with pytest.raises(ValueError):
        ChannelPair(1.2, 0.5)
    with pytest.raises(ValueError):
        ChannelPair(0.5, 0.5, policy="other")


def test_config_rejects_squeezing_past_the_level_bound_where_it_is_built():
    # such a config used to build and fail only once an evaluation read cfg.r
    with pytest.raises(ValueError, match=r"^squeezing level in dB must be at most 30, got 30\.5$"):
        SensingConfig(r_db=30.5)
    with pytest.raises(ValueError, match=r"^squeezing level in dB must be at most 30, got 31\.0$"):
        replace(PAPER_SCALE_CONFIG, r_db=31.0)
    assert SensingConfig(r_db=30.0).r == r_from_db(MAX_R_DB)


def test_config_accepts_omega0_directly():
    cfg = SensingConfig(lambda0=None, omega0=2.31136e15)
    assert cfg.carrier_omega == 2.31136e15
    assert cfg.u0 == pytest.approx(4.32647e-16, rel=1e-5)


@pytest.mark.parametrize(
    "field",
    ["r_db", "n_in", "n_lo", "theta1", "theta2", "theta_lo", "lambda0",
     "delta_omega", "split", "snr"],
)
# an int too large for a double, as a JSON config may hold, is not finite either
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400, Fraction(10**400, 3)])
def test_config_rejects_non_finite_fields(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SensingConfig(**{field: bad})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_config_rejects_non_finite_omega0(bad):
    with pytest.raises(ValueError, match="omega0 must be finite"):
        SensingConfig(lambda0=None, omega0=bad)


@pytest.mark.parametrize(
    "carrier, name",
    [({"lambda0": 1e-309}, "carrier_omega"), ({"lambda0": None, "omega0": 1.5e308}, "omega_rss")],
)
def test_config_rejects_a_carrier_that_overflows_naming_it(carrier, name):
    # these used to pass the build and fail in the kernel, naming omega_rss
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got inf$"):
        SensingConfig(**carrier, delta_omega=1.5e308)


@pytest.mark.parametrize("field", ["eta1", "eta2"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_channel_pair_rejects_non_finite_etas(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be in"):
        ChannelPair(**{"eta1": 0.5, "eta2": 0.5, field: bad})


@pytest.mark.parametrize("bad", ["x", True, None, [1.0]])
@pytest.mark.parametrize("field", ["r_db", "n_in", "snr", "lambda0", "eta1", "eta2"])
def test_config_and_channel_reject_a_wrong_type_naming_the_field(field, bad):
    build = ChannelPair if field.startswith("eta") else SensingConfig
    args = {"eta1": 0.5, "eta2": 0.5} if build is ChannelPair else {}
    if bad is None and field == "lambda0":
        args["omega0"] = "x"  # lambda0 may be None when omega0 is given
        field, bad = "omega0", "x"
    with pytest.raises(ValueError) as err:
        build(**{**args, field: bad})
    assert str(err.value) == f"{field} must be a real number, got {bad!r}"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 7000.0])
def test_r_from_db_rejects_bad_levels(bad):
    with pytest.raises(ValueError, match="squeezing level"):
        r_from_db(bad)
    with pytest.raises(ValueError, match="squeezing level"):
        r_from_db(np.array([1.0, bad]))


def test_squeezing_past_the_overflow_bound_is_rejected():
    # at the bound every scheme's math stays finite; past it sinh/cosh would overflow
    r_max = r_from_db(MAX_R_DB)
    for scheme in ("TMSV_real", "SMSV_real"):
        assert math.isfinite(radicand(scheme, r_max, 0.5, 0.5))
    with pytest.raises(ValueError, match="squeezing magnitude must be at most .*, got 800.0"):
        delta_u("TMSV_real", 800.0, 0.5, 0.5, 500.0, 500.0, 1.0, 1.0)


@pytest.mark.parametrize("policy", ["shared", "independent"])
def test_radicand_keeps_nine_digits_at_the_level_bound(policy):
    # The factored TMSV radicand cancels near eta = 1 as r grows (at 200 dB
    # it returned the unsqueezed value); MAX_R_DB is where it still agrees
    # with a 50-digit reference to 1e-9 over every pair of these etas.
    r = r_from_db(MAX_R_DB)
    etas = np.append(np.linspace(0.01, 1.0, 100), [0.999, 0.9999])
    got = radicand("TMSV_real", r, etas[:, None], etas[None, :], policy)
    worst = Decimal(0)
    with localcontext() as ctx:
        ctx.prec = 50
        grow = Decimal(r).exp()
        sh, sh2 = (grow - 1 / grow) / 2, (grow * grow - 1 / (grow * grow)) / 2
        exact = [Decimal(e) for e in etas.tolist()]
        for i, e1 in enumerate(exact):
            for j, e2 in enumerate(exact):
                cross = ((1 - e1) * (1 - e2)).sqrt() if policy == "shared" else 0
                ref = (e1 + e2) * sh * sh + 1 + cross - (e1 * e2).sqrt() * sh2
                worst = max(worst, abs(Decimal(float(got[i, j])) / ref - 1))
    assert worst < Decimal("1e-9")


def _radicand_exact(r, eta1, eta2, policy):
    """The TMSV radicand (eta1+eta2) sinh^2 r + 1 + c - sqrt(eta1 eta2) sinh 2r to 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        r, e1, e2 = Decimal(r), Decimal(eta1), Decimal(eta2)
        grow = r.exp()
        sh, sh2 = (grow - 1 / grow) / 2, (grow * grow - 1 / (grow * grow)) / 2
        cross = ((1 - e1) * (1 - e2)).sqrt() if policy == "shared" else 0
        return (e1 + e2) * sh * sh + 1 + cross - (e1 * e2).sqrt() * sh2


def _radicand_reference(r, eta1, eta2, policy):
    """The same radicand as a sum of non-negative terms, so that nothing cancels."""
    cross = math.sqrt((1 - eta1) * (1 - eta2)) if policy == "shared" else 0.0
    return (((1 - eta1) + (1 - eta2)) / 2 + cross
            + (math.sqrt(eta1) - math.sqrt(eta2)) ** 2 * math.cosh(2 * r) / 2
            + math.sqrt(eta1 * eta2) * math.exp(-2 * r))


@st.composite
def _radicand_points(draw):
    """(r, eta1, eta2, policy) at any legal level, the etas often near 1 and near each other."""
    r = r_from_db(draw(st.floats(0.0, MAX_R_DB)))
    etas = st.floats(0.0, 1.0) | st.floats(0.0, 1e-3).map(lambda d: 1.0 - d)
    eta1 = draw(etas)
    # sqrt(eta2) = sqrt(eta1) - t e^-2r is where the reference's one difference weighs most
    root = st.floats(-4.0, 4.0).map(lambda t: math.sqrt(eta1) - t * math.exp(-2 * r))
    eta2 = draw(etas | root.map(lambda s: min(1.0, max(0.0, s)) ** 2))
    return r, eta1, eta2, draw(st.sampled_from(["shared", "independent"]))


@settings(deadline=None, max_examples=300)
@given(point=_radicand_points())
@example(point=(r_from_db(MAX_R_DB), 1.0, 0.996, "independent"))
@example(point=(r_from_db(MAX_R_DB), 1.0, 1.0, "shared"))
def test_radicand_keeps_its_digits_against_a_reference_at_every_level(point):
    # The all-positive form keeps all but ~e^2r/2 ulps, where its one
    # difference sqrt(eta1) - sqrt(eta2) weighs most; the kernel's factored
    # form cancels down to e^-2r near eta = 1 and keeps all but ~e^4r ulps.
    r, eta1, eta2, policy = point
    grow, eps = math.exp(2 * r), np.finfo(float).eps
    exact = _radicand_exact(r, eta1, eta2, policy)
    reference = _radicand_reference(r, eta1, eta2, policy)
    assert abs(Decimal(reference) / exact - 1) <= Decimal((4 + grow / 2) * eps)
    kernel = radicand("TMSV_real", r, eta1, eta2, policy)
    assert abs(kernel / reference - 1) <= (8 + 4 * grow**2) * eps



@pytest.mark.parametrize(
    "fn, args, message",
    [
        (advantage_boundary_eta1, (math.nan, 0.5), "r must be finite and > 0, got nan"),
        (advantage_boundary_eta1, (math.inf, 0.5), "r must be finite and > 0, got inf"),
        (advantage_boundary_eta1, (0.0, 0.5), "r must be finite and > 0, got 0.0"),
        (photocurrent_mean_single, (LEO, 1, math.nan), "delta_u must be finite, got nan"),
        (photocurrent_mean_single, (LEO, 2, -math.inf), "delta_u must be finite, got -inf"),
        (photocurrent_mean_single, (LEO, 1, True), "delta_u must be a real number, got True"),
        (photocurrent_mean_single, (LEO, 3, 0.0), "path must be 1 or 2, got 3"),
        (photocurrent_mean_single, (LEO, True, 0.0), "path must be an integer, got True"),
        (photocurrent_mean_single, (LEO, 1.0, 0.0), "path must be an integer, got 1.0"),
        (photocurrent_mean_single, (LEO, 2.0, 0.0), "path must be an integer, got 2.0"),
        # eta2 used to fail in `<` without its name, or pass as True
        (advantage_boundary_eta1, (0.3, "x"), "eta2 must be a real number, got 'x'"),
        (advantage_boundary_eta1, (0.3, None), "eta2 must be a real number, got None"),
        (advantage_boundary_eta1, (0.3, True), "eta2 must be a real number, got True"),
        (shift_coefficients, (NATURAL, math.nan, 0, 0), "photon number must be finite, got nan"),
        (shift_coefficients, (NATURAL, math.inf, 0, 0), "photon number must be finite, got inf"),
        (shift_coefficients, (NATURAL, -1.0, 0.0, 0.0), "photon number must be >= 0, got -1.0"),
        (shift_coefficients, (NATURAL, 1.0, math.nan, 0.0), "theta must be finite, got nan"),
        (shift_coefficients, (NATURAL, 1.0, 0.0, math.nan), "delta_u must be finite, got nan"),
        (shift_expansion_check, (NATURAL, math.nan), "delta_u must be finite, got nan"),
        (shift_expansion_check, (NATURAL, math.inf), "delta_u must be finite, got inf"),
        (shift_expansion_check, (NATURAL, [0.0, math.nan]), "delta_u must be finite, got nan"),
        (shift_expansion_check, (NATURAL, "0"), "delta_u must be a real number, got '0'"),
    ],
)
def test_non_finite_scalar_inputs_are_rejected_naming_the_field(fn, args, message):
    # each non-finite input here returned nan, or eta2 for r = inf, instead of an error
    with pytest.raises(ValueError) as err:
        fn(*args)
    assert str(err.value) == message


# record type -> (every field's value in declared order, a change its checks
# reject and their error); ModeFunction and VerifyReport check nothing
_ARRAY = np.ones((2, 2))
_RECORDS = {
    SensingConfig: (
        dict(r_db=5.0, n_in=1e3, n_lo=1.0, theta1=0.0, theta2=0.0, theta_lo=0.0,
             lambda0=815e-9, omega0=None, delta_omega=2e6, split=0.5, snr=1.0),
        {"n_in": 0.0}, "n_in must be > 0, got 0.0"),
    ChannelPair: (dict(eta1=0.6, eta2=0.8, policy="shared"),
                  {"eta1": 1.5}, "eta1 must be in [0, 1], got 1.5"),
    LinkGeometry: (
        dict(range_m=5e5, tx_waist_m=0.1, rx_aperture_m=0.5, wavelength_m=815e-9,
             pointing_jitter_rad=1e-7),
        {"range_m": -1.0}, "range_m must be > 0, got -1.0"),
    Range: (dict(start=0.0, stop=1.0, steps=5), {"steps": 1}, "steps must be >= 2, got 1"),
    SweepResult: (dict(columns=["a", "b", "c"], rows=np.ones((4, 3)), meta={"k": 1},
                       grid_shape=(2, 2)),
                  {"columns": ["a"]}, "rows must be of shape (>= 2, 1), one value per column, "
                                      "got (4, 3)"),
    GaussianState: (dict(n_modes=1, cov=np.eye(2), shared_port=None),
                    {"n_modes": 0}, "n_modes must be >= 1, got 0"),
    SpectralProfile: (dict(omega0=10.0, delta_omega=1.0, grid_points=64, grid_span=8.0),
                      {"grid_points": 8}, "grid_points must be >= 16, got 8"),
    ModeFunction: (dict(u=_ARRAY[0], samples=_ARRAY[1]), None, None),
    VerifyReport: (
        dict(policy="shared", tolerance=1e-9, two_mode={"rel_err": _ARRAY[0]},
             single_mode={"rel_err": _ARRAY[1]}, notes=["n"]),
        None, None),
}


@pytest.mark.parametrize("cls", list(_RECORDS), ids=lambda cls: cls.__name__)
def test_every_value_type_keeps_the_record_contract(cls):
    values, bad, message = _RECORDS[cls]
    record = cls(**values)
    assert list(asdict(record)) == list(values) == list(cls.FIELDS)
    assert cls(*values.values()) == record
    assert replace(record) == record
    first = next(iter(values))
    for change in (lambda: setattr(record, first, values[first]),
                   lambda: delattr(record, first), lambda: setattr(record, "extra", 1)):
        with pytest.raises(AttributeError):
            change()
    if bad is not None:
        with pytest.raises(ValueError) as built:
            cls(**{**values, **bad})
        with pytest.raises(ValueError) as replaced:
            replace(record, **bad)
        assert str(built.value) == str(replaced.value) == message
    required = {key: values[key] for key, default in cls.FIELDS.items() if default is REQUIRED}
    # an unknown, a repeated, one too many, and (where a field has no default) a missing argument
    calls = [((), {**values, "extra": 1}), ((values[first],), values), ((*values.values(), 1), {})]
    if required:
        calls.append(((), dict(list(required.items())[1:])))
    for args, kwargs in calls:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    # a list or dict left to its default is each record's own
    for key in ("meta", "notes"):
        if key in cls.FIELDS:
            own = [getattr(cls(**required), key) for _ in range(2)]
            assert own[0] == type(own[0])() and own[0] is not own[1]


@pytest.mark.parametrize("kind", [np.float32, np.float64, np.longdouble])
@pytest.mark.parametrize(
    "cls", [SensingConfig, ChannelPair, LinkGeometry, Range, SpectralProfile],
    ids=lambda cls: cls.__name__,
)
def test_a_numpy_float_field_is_stored_as_the_python_float_it_equals(cls, kind):
    values = _RECORDS[cls][0]
    reals = [key for key, value in values.items() if type(value) is float]
    record = cls(**{**values, **{key: kind(values[key]) for key in reals}})
    for key in reals:
        assert type(getattr(record, key)) is float
        assert getattr(record, key) == float(kind(values[key]))
    # a Python int or float is stored as given
    assert all(getattr(cls(**values), key) is value for key, value in values.items())
    assert type(Range(0, 1, 5).start) is int


def test_records_hash_by_value_and_never_equal_another_type():
    one, other = ChannelPair(0.6, 0.8), ChannelPair(0.6, 0.8)
    assert one is not other and hash(one) == hash(other) == hash((0.6, 0.8, "shared"))
    assert len({one, other, ChannelPair(0.6, 0.9)}) == 2
    assert one.__eq__((0.6, 0.8, "shared")) is NotImplemented
    assert one != (0.6, 0.8, "shared") and one != Range(0.6, 0.8, 2)
