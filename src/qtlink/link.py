"""Effective channel transmissivity from physical loss contributors.

The sensing formulas only ever see a single eta per path; this module
composes that eta from diffraction, pointing and detector factors.  The
parametric beam models are deliberately simple placeholders (far-field
Gaussian beam, quadratic jitter averaging) -- every downstream result takes
eta directly, so nothing here gates the physics.
"""

from __future__ import annotations

import math
from .constants import FLOAT_MAX, Record, require, require_real

__all__ = [
    "LinkGeometry",
    "compose_eta",
    "diffraction_eta",
    "pointing_eta",
    "beam_radius",
]


class LinkGeometry(Record):
    """Geometry of one free-space path."""

    range_m: float
    tx_waist_m: float
    rx_aperture_m: float
    wavelength_m: float
    pointing_jitter_rad: float = 0.0

    def __post_init__(self):
        for name in ("range_m", "tx_waist_m", "rx_aperture_m", "wavelength_m"):
            require(name, getattr(self, name), getattr(self, name) > 0, "> 0")
        jitter = self.pointing_jitter_rad
        require("pointing_jitter_rad", jitter, jitter >= 0, ">= 0")


def compose_eta(
    eta_diffraction: float = 1.0, eta_pointing: float = 1.0, eta_detector: float = 1.0
) -> float:
    """Total path transmissivity: the product of the three loss factors, each in [0, 1]."""
    factors = {
        "eta_diffraction": eta_diffraction,
        "eta_pointing": eta_pointing,
        "eta_detector": eta_detector,
    }
    for name, value in factors.items():
        require_real(name, value)
        require(name, value, 0.0 <= value <= 1.0, "in [0, 1]")
    return eta_diffraction * eta_pointing * eta_detector


def _overflow(quantity: str, geometry: LinkGeometry, *names: str) -> ValueError:
    """The error for a ``quantity`` that overflows a double at the named geometry fields."""
    values = ", ".join(f"{name}={getattr(geometry, name)!r}" for name in names)
    return ValueError(f"link geometry {quantity} overflows a double at {values}")


def beam_radius(geometry: LinkGeometry) -> float:
    """1/e^2 Gaussian beam radius after propagating range_m from the waist.

    Raises ValueError naming the fields when a term overflows a double.
    """
    w0 = geometry.tx_waist_m
    try:
        # w0**2 underflows to 0 for a waist below ~1e-162: the ratio is then infinite
        rayleigh_ratio = geometry.wavelength_m * geometry.range_m / (math.pi * w0**2)
        radius = w0 * math.sqrt(1.0 + rayleigh_ratio**2)
    except (OverflowError, ZeroDivisionError):
        radius = math.inf
    if radius > FLOAT_MAX:
        raise _overflow("beam radius", geometry, "range_m", "tx_waist_m", "wavelength_m")
    return radius


def diffraction_eta(geometry: LinkGeometry) -> float:
    """Fraction of far-field beam power captured by the receive aperture.

    1 - exp(-2*(a/w(L))^2) for aperture radius a and beam radius w(L).
    """
    ratio = geometry.rx_aperture_m / beam_radius(geometry)
    try:
        eta = 1.0 - math.exp(-2.0 * ratio**2)
    except OverflowError:
        raise _overflow("aperture-to-beam ratio", geometry, "rx_aperture_m") from None
    return min(max(eta, 0.0), 1.0)


def pointing_eta(geometry: LinkGeometry) -> float:
    """Mean capture factor under Gaussian pointing jitter of rms sigma.

    1 / (1 + 2*(sigma*L/w(L))^2); unity at zero jitter.
    """
    wander = geometry.pointing_jitter_rad * geometry.range_m / beam_radius(geometry)
    try:
        return 1.0 / (1.0 + 2.0 * wander**2)
    except OverflowError:
        raise _overflow("pointing wander", geometry, "pointing_jitter_rad", "range_m") from None
