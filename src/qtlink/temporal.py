"""Pulse temporal modes and the first-order response to a timing offset.

A transform-limited Gaussian pulse of carrier ``omega0`` and rms spectral
spread ``delta_omega`` is described by the fundamental envelope mode y0.
Delaying the pulse by a small du populates, to first order, the orthogonal
companion y1 together with a phase rotation of y0; the specific unit-norm
superposition excited by the delay is

    z1(u) = (y1(u) + i*Omega*y0(u)) / sqrt(Omega^2 + 1),   Omega = omega0/delta_omega,

with weight du/u0 where u0 = 1/sqrt(omega0^2 + delta_omega^2).  Everything
here is expressed in the light-cone coordinate u = t - z/c (seconds).

The grid must resolve the envelope, not the carrier.  A paper-scale
carrier (Omega ~ 1e8) aliases on any practical sample grid, but every
integrand here multiplies the conjugate of one mode by another on the same
carrier, so the carrier cancels up to the rounding of its phase, leaving at
most the constant phase exp(i*omega0*du) of a delayed pulse.  The tm-check
report therefore passes at paper-scale carriers on any grid that resolves
the envelope, and does not test carrier sampling.  On the default grid it
passes up to Omega = 1e9 and fails from Omega ~ 1e10, where the rounding of
the carrier phase dominates the residual.  The closed-form helpers accept
any scale.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .constants import FLOAT_MAX, Record, real_array, require, require_finite

__all__ = [
    "SpectralProfile",
    "ModeFunction",
    "mode_functions",
    "shift_coefficients",
    "shift_expansion_check",
    "inner_product",
    "report",
]

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

# Grid adequacy limits for quadrature-based checks: envelope decays as
# exp(-(delta_omega*u)^2), so +-5/delta_omega already reaches ~1e-11.
_MIN_SPAN = 5.0
_MIN_POINTS_PER_WIDTH = 16.0
# tm-check samples two mode-function sets; at 2**20 points it peaks near 142 MB
_MAX_GRID_POINTS = 2**20


class SpectralProfile(Record):
    """Carrier, spectral spread and sampling grid of a pulsed mode.

    ``grid_span`` is measured in units of 1/delta_omega, i.e. samples cover
    u in [-grid_span/delta_omega, +grid_span/delta_omega].  The derived
    offset-expansion scales are ``u0`` (s) and ``big_omega``.
    """

    omega0: float
    delta_omega: float
    grid_points: int = 4096
    grid_span: float = 8.0

    def __post_init__(self):
        require("omega0", self.omega0, self.omega0 > 0, "> 0")
        require("delta_omega", self.delta_omega, self.delta_omega > 0, "> 0")
        points = self.grid_points
        require("grid_points", points, points >= 16, ">= 16")
        # each mode function holds several complex arrays of this length
        require("grid_points", points, points <= _MAX_GRID_POINTS, f"<= {_MAX_GRID_POINTS}")
        require("grid_span", self.grid_span, self.grid_span > 0, "> 0")
        big_omega = self.big_omega
        require("big_omega", big_omega, 0.0 < big_omega <= FLOAT_MAX, "finite and > 0")
        # Omega and delta_omega are squared as Python floats, which raise
        # OverflowError past ~1.3e154.  Within these bounds every square stays
        # finite, and u0 lies in (1e-301, 1e150], finite and > 0.
        require("big_omega", big_omega, big_omega <= 1e150, "<= 1e150")
        dw = self.delta_omega
        require("delta_omega", dw, 1e-150 <= dw <= 1e150, "in [1e-150, 1e150]")

    @property
    def u0(self) -> float:
        """Offset scale u0 = 1/sqrt(omega0^2 + delta_omega^2), in seconds."""
        return 1.0 / np.hypot(self.omega0, self.delta_omega)

    @property
    def big_omega(self) -> float:
        """Omega = omega0/delta_omega, the carrier in units of the spread."""
        return self.omega0 / self.delta_omega

    def u_grid(self) -> np.ndarray:
        half = self.grid_span / self.delta_omega
        return np.linspace(-half, half, self.grid_points)


class ModeFunction(Record):
    """Complex mode amplitudes sampled on a uniform u grid."""

    u: np.ndarray
    samples: np.ndarray

    def norm(self) -> float:
        return float(np.sqrt(_trapezoid(np.abs(self.samples) ** 2, self.u).real))


def inner_product(a: ModeFunction, b: ModeFunction) -> complex:
    """Trapezoidal <a, b> = integral of conj(a(u)) * b(u) du."""
    if a.u.shape != b.u.shape or not np.array_equal(a.u, b.u):
        raise ValueError("mode functions live on different grids")
    return complex(_trapezoid(np.conj(a.samples) * b.samples, a.u))


def _envelope(profile: SpectralProfile, u: np.ndarray) -> np.ndarray:
    # Unit-norm Gaussian whose intensity spectrum has rms width delta_omega.
    dw = profile.delta_omega
    return (2.0 * dw**2 / np.pi) ** 0.25 * np.exp(-(dw * u) ** 2)


def _sampled_fundamental(profile: SpectralProfile, u: np.ndarray, du: float = 0.0):
    shifted = u - du
    return _envelope(profile, shifted) * np.exp(-1j * profile.omega0 * shifted)


def mode_functions(
    profile: SpectralProfile,
) -> tuple[ModeFunction, ModeFunction, ModeFunction]:
    """Sample the fundamental mode y0, its companion y1, and the offset mode z1.

    y0 is the carrier-modulated Gaussian envelope; y1 is the first
    Hermite-Gauss mode on the same carrier, fixed so that
    -d(y0)/du = i*omega0*y0 + delta_omega*y1.  z1 is the unit-norm
    combination (y1 + i*Omega*y0)/sqrt(Omega^2 + 1).
    """
    u = profile.u_grid()
    carrier = np.exp(-1j * profile.omega0 * u)
    g0 = _envelope(profile, u)
    g1 = 2.0 * profile.delta_omega * u * g0
    y0 = ModeFunction(u, g0 * carrier)
    y1 = ModeFunction(u, g1 * carrier)
    big_omega = profile.big_omega
    z1_samples = (y1.samples + 1j * big_omega * y0.samples) / np.sqrt(
        big_omega**2 + 1.0
    )
    return y0, y1, ModeFunction(u, z1_samples)


def shift_coefficients(
    profile: SpectralProfile, n_photons: float, theta: float, delta_u: float
) -> tuple[complex, complex]:
    """First-order mode amplitudes of a pulse delayed by delta_u.

    Returns (c0, c1) with c0 = (1 + i*omega0*du)*sqrt(N)*e^{i theta} on the
    fundamental mode and c1 = (delta_omega*du)*sqrt(N)*e^{i theta} on the
    companion.  Valid for |du| << u0; a warning is raised past du/u0 = 0.1.
    """
    for name, value in (("photon number", n_photons), ("theta", theta), ("delta_u", delta_u)):
        require_finite(name, value)
    require("photon number", n_photons, n_photons >= 0, ">= 0")
    ratio = abs(delta_u) / profile.u0
    if ratio > 0.1:
        warnings.warn(
            f"first-order expansion is dubious at |delta_u|/u0 = {ratio:.3g}",
            stacklevel=2,
        )
    amp = np.sqrt(n_photons) * np.exp(1j * theta)
    return (1.0 + 1j * profile.omega0 * delta_u) * amp, (profile.delta_omega * delta_u) * amp


def shift_expansion_check(profile: SpectralProfile, delta_u):
    """Residual of the first-order delay expansion, measured on the grid.

    Shifts y0 by delta_u, projects onto {y0, y1}, and returns the larger
    deviation of the two projections from the first-order coefficients
    (1 + i*omega0*du, delta_omega*du).  The basis is orthonormal, so the
    deviations are relative to the unit pulse norm; the residual shrinks
    quadratically in delta_u.  An array of shifts gives an array of their
    residuals; y0 and y1 are sampled once for all, then each shift in turn.
    """
    shifts = real_array("delta_u", delta_u)
    require("delta_u", delta_u, abs(shifts) <= FLOAT_MAX, "finite")
    points_per_width = profile.grid_points / (2.0 * profile.grid_span)
    if profile.grid_span < _MIN_SPAN or points_per_width < _MIN_POINTS_PER_WIDTH:
        raise ValueError(
            f"grid too coarse for the expansion check: span {profile.grid_span} "
            f"widths at {points_per_width:.1f} points/width "
            f"(need >= {_MIN_SPAN} and >= {_MIN_POINTS_PER_WIDTH})"
        )
    # z1 is dropped at once: held through the loop it adds 16 MB to the peak at 2**20 points
    y0, y1 = mode_functions(profile)[:2]
    residuals = np.empty(shifts.shape)
    for index, du in np.ndenumerate(shifts):
        shifted = ModeFunction(y0.u, _sampled_fundamental(profile, y0.u, du))
        p0 = inner_product(y0, shifted)
        p1 = inner_product(y1, shifted)
        c0 = 1.0 + 1j * profile.omega0 * du
        c1 = profile.delta_omega * du
        residuals[index] = max(abs(p0 - c0), abs(p1 - c1))
    return float(residuals) if residuals.ndim == 0 else residuals


def report(profile: SpectralProfile) -> tuple[str, bool]:
    """The tm-check report on ``profile`` and whether it passed; a coarse grid raises first."""
    ratios = np.logspace(-4, -2, 9)
    residuals = shift_expansion_check(profile, ratios * profile.u0)
    slope = float(np.polyfit(np.log(ratios), np.log(residuals), 1)[0])
    y0, y1, z1 = mode_functions(profile)
    e0, e1, ez = (abs(mode.norm() - 1.0) for mode in (y0, y1, z1))
    overlap01 = abs(inner_product(y0, y1))
    big_omega = profile.big_omega
    overlap_error = abs(inner_product(z1, y0)) - big_omega / math.sqrt(big_omega**2 + 1.0)
    ok = overlap01 < 1e-8 and e0 < 1e-8 and ez < 1e-8 and abs(slope - 2.0) < 0.1
    return "".join(f"{line}\n" for line in [
        f"u0 = {profile.u0:.12e} s, Omega = {big_omega:.6f}",
        f"carrier/spread ratio (monochromaticity): {profile.delta_omega / profile.omega0:.3e}",
        f"|<y0,y0>-1| = {e0:.3e}",
        f"|<y1,y1>-1| = {e1:.3e}",
        f"|<z1,z1>-1| = {ez:.3e}",
        f"|<y0,y1>|   = {overlap01:.3e}",
        f"|<z1,y0>| - Omega/sqrt(Omega^2+1) = {overlap_error:.3e}",
        *(f"du/u0 = {ratio:.3e} -> residual {res:.6e}" for ratio, res in zip(ratios, residuals)),
        f"log-log residual slope = {slope:.4f} (expect 2)",
        f"tm-check {'passed' if ok else 'FAILED'}",
    ]), ok
