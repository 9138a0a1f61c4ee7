import numpy as np
import pytest

from qtlink.temporal import (
    SpectralProfile,
    inner_product,
    mode_functions,
    shift_coefficients,
    shift_expansion_check,
)

NATURAL = SpectralProfile(omega0=10.0, delta_omega=1.0)


def test_timing_params_leo_scale():
    # values quoted for the 815 nm / 2*pi MHz operating point
    profile = SpectralProfile(2.31136e15, 6.28319e6)
    assert profile.u0 == pytest.approx(4.32647e-16, rel=1e-5)
    assert profile.big_omega == pytest.approx(3.6786e8, rel=1e-4)


def test_timing_params_symmetric_case():
    profile = SpectralProfile(5.0, 5.0)
    assert profile.u0 == pytest.approx(1.0 / (np.sqrt(2) * 5.0), rel=1e-12)
    assert profile.big_omega == pytest.approx(1.0, rel=1e-12)


def test_timing_params_natural_units():
    assert NATURAL.u0 == pytest.approx(1.0 / np.sqrt(101.0), rel=1e-12)


def test_timing_params_consistency_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        w0 = 10.0 ** rng.uniform(0, 15)
        dw = w0 * 10.0 ** rng.uniform(-9, 0)
        profile = SpectralProfile(w0, dw)
        assert profile.u0**2 * (w0**2 + dw**2) == pytest.approx(1.0, rel=1e-12)


def test_mode_functions_orthonormal():
    y0, y1, z1 = mode_functions(NATURAL)
    assert abs(y0.norm() - 1.0) < 1e-8
    assert abs(y1.norm() - 1.0) < 1e-8
    assert abs(z1.norm() - 1.0) < 1e-8
    assert abs(inner_product(y0, y1)) < 1e-8


def test_timing_mode_overlap_with_fundamental():
    y0, _, z1 = mode_functions(NATURAL)
    big = NATURAL.big_omega
    assert abs(inner_product(z1, y0)) == pytest.approx(
        big / np.sqrt(big**2 + 1.0), abs=1e-8
    )


def test_profile_validation():
    with pytest.raises(ValueError):
        SpectralProfile(-1.0, 1.0)
    with pytest.raises(ValueError):
        SpectralProfile(10.0, 0.0)


@pytest.mark.parametrize(
    "args, message",
    [
        ((True, 1.0), "omega0 must be a real number, got True"),
        (("x", 1.0), "omega0 must be a real number, got 'x'"),
        ((10.0, None), "delta_omega must be a real number, got None"),
        ((10.0, 1.0, 16.5), "grid_points must be an integer, got 16.5"),
        ((10.0, 1.0, False), "grid_points must be an integer, got False"),
        ((10.0, 1.0, 4096, "8"), "grid_span must be a real number, got '8'"),
        ((10.0, 1.0, 8), "grid_points must be >= 16, got 8"),
        ((10.0, 1.0, 4096, 0.0), "grid_span must be > 0, got 0.0"),
        ((10 ** 400, 1.0), f"omega0 must be finite, got {10 ** 400}"),
    ],
)
def test_profile_rejects_a_bad_field_naming_it_and_its_value(args, message):
    # these were accepted (and failed when sampled), or raised numpy's TypeError
    with pytest.raises(ValueError) as err:
        SpectralProfile(*args)
    assert str(err.value) == message


def test_profile_bounds_grid_points_where_it_is_built():
    # the grid is sampled lazily, so building a profile allocates no samples
    assert SpectralProfile(10.0, 1.0, grid_points=2**20).grid_points == 2**20
    with pytest.raises(ValueError, match=r"^grid_points must be <= 1048576, got 1048577$"):
        SpectralProfile(10.0, 1.0, grid_points=2**20 + 1)
    with pytest.raises(ValueError, match="grid_points"):
        SpectralProfile(10.0, 1.0, grid_points=100_000_000)


def test_shift_coefficients_zero_offset():
    c0, c1 = shift_coefficients(NATURAL, 4.0, 0.3, 0.0)
    assert c0 == pytest.approx(2.0 * np.exp(0.3j), rel=1e-12)
    assert c1 == 0.0


def test_shift_coefficients_natural_units():
    c0, c1 = shift_coefficients(NATURAL, 1.0, 0.0, 1e-3)
    assert c0 == pytest.approx(1.0 + 0.01j, rel=1e-12)
    assert c1 == pytest.approx(1e-3, rel=1e-12)


def test_shift_coefficients_leo_scale():
    _, c1 = shift_coefficients(SpectralProfile(2.31136e15, 6.28319e6), 1e3, 0.0, 1e-17)
    assert c1 == pytest.approx(1.9870e-9, rel=1e-4)


def test_shift_coefficient_magnitude_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(30):
        w0 = 10.0 ** rng.uniform(0, 12)
        dw = w0 * 10.0 ** rng.uniform(-6, 0)
        profile = SpectralProfile(w0, dw)
        du = profile.u0 * rng.uniform(1e-6, 0.05)
        n = rng.uniform(1, 1e6)
        _, c1 = shift_coefficients(profile, n, rng.uniform(0, 2 * np.pi), du)
        assert abs(c1) / np.sqrt(n) == pytest.approx(dw * du, rel=1e-9)


def test_shift_coefficients_warn_outside_validity():
    with pytest.warns(UserWarning):
        shift_coefficients(NATURAL, 1.0, 0.0, 0.2 * NATURAL.u0)


def test_expansion_residual_zero_offset():
    assert shift_expansion_check(NATURAL, 0.0) < 1e-8


def test_expansion_residual_small_offset():
    u0 = NATURAL.u0
    assert shift_expansion_check(NATURAL, 1e-3 * u0) <= 1e-5


def test_expansion_residual_quadratic_ratio():
    u0 = NATURAL.u0
    res_full = shift_expansion_check(NATURAL, 2e-3 * u0)
    res_half = shift_expansion_check(NATURAL, 1e-3 * u0)
    assert 3.5 <= res_full / res_half <= 4.5


def test_expansion_residual_loglog_slope_two():
    u0 = NATURAL.u0
    ratios = np.logspace(-4, -2, 9)
    residuals = [shift_expansion_check(NATURAL, r * u0) for r in ratios]
    slope = np.polyfit(np.log(ratios), np.log(residuals), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_expansion_check_rejects_coarse_grid():
    coarse = SpectralProfile(10.0, 1.0, grid_points=64, grid_span=8.0)
    with pytest.raises(ValueError, match="grid too coarse"):
        shift_expansion_check(coarse, 1e-4)


def test_inner_product_requires_matching_grids():
    y0a, _, _ = mode_functions(NATURAL)
    y0b, _, _ = mode_functions(SpectralProfile(10.0, 1.0, grid_points=2048))
    with pytest.raises(ValueError):
        inner_product(y0a, y0b)
