"""Effective channel transmissivity from physical loss contributors.

The sensing formulas only ever see a single eta per path; this module
composes that eta from diffraction, pointing and detector factors.  The
parametric beam models are deliberately simple placeholders (far-field
Gaussian beam, quadratic jitter averaging) -- every downstream result takes
eta directly, so nothing here gates the physics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .sensing import require_real

__all__ = [
    "LinkGeometry",
    "compose_eta",
    "diffraction_eta",
    "pointing_eta",
    "beam_radius",
]


@dataclass(frozen=True)
class LinkGeometry:
    """Geometry of one free-space path."""

    range_m: float
    tx_waist_m: float
    rx_aperture_m: float
    wavelength_m: float
    pointing_jitter_rad: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            require_real(f.name, value)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in ("range_m", "tx_waist_m", "rx_aperture_m", "wavelength_m"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.pointing_jitter_rad < 0:
            raise ValueError(
                f"pointing_jitter_rad must be >= 0, got {self.pointing_jitter_rad}"
            )


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
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    return eta_diffraction * eta_pointing * eta_detector


def beam_radius(geometry: LinkGeometry) -> float:
    """1/e^2 Gaussian beam radius after propagating range_m from the waist."""
    w0 = geometry.tx_waist_m
    rayleigh_ratio = geometry.wavelength_m * geometry.range_m / (math.pi * w0**2)
    return w0 * math.sqrt(1.0 + rayleigh_ratio**2)


def diffraction_eta(geometry: LinkGeometry) -> float:
    """Fraction of far-field beam power captured by the receive aperture.

    1 - exp(-2*(a/w(L))^2) for aperture radius a and beam radius w(L).
    """
    ratio = geometry.rx_aperture_m / beam_radius(geometry)
    eta = 1.0 - math.exp(-2.0 * ratio**2)
    return min(max(eta, 0.0), 1.0)


def pointing_eta(geometry: LinkGeometry) -> float:
    """Mean capture factor under Gaussian pointing jitter of rms sigma.

    1 / (1 + 2*(sigma*L/w(L))^2); unity at zero jitter.
    """
    wander = geometry.pointing_jitter_rad * geometry.range_m / beam_radius(geometry)
    return 1.0 / (1.0 + 2.0 * wander**2)
