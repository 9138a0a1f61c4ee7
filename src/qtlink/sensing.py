"""Closed-form photocurrent statistics and minimum measurable timing offsets.

Covers four measurement schemes at a fixed photon budget N_in:

* ``TMSV_ideal``  -- entangled two-mode probe over lossless paths,
* ``TMSV_real``   -- the same probe through channels of transmissivity
  (eta1, eta2) whose vacuum ports follow the shared-port model,
* ``SQL``         -- the r = 0 (unentangled) baseline of the same setup,
* ``SMSV_real``   -- a single squeezed mode through one channel.

The minimum offset is the delta_u at which the post-processed homodyne
signal equals its own noise (SNR = 1); it scales linearly with any other
SNR threshold.  All photocurrent expressions are in normalized units
(FIELD_SCALE = 1); local-oscillator photons and the field scale cancel in
every delta_u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .constants import SPEED_OF_LIGHT

__all__ = [
    "SensingConfig",
    "ChannelPair",
    "OffsetResult",
    "r_from_db",
    "photocurrent_mean_single",
    "photocurrent_variance_single",
    "post_variance_ideal",
    "delta_u_tmsv_ideal",
    "q_factor",
    "delta_u_tmsv_real",
    "delta_u_sql",
    "delta_u_smsv_real",
    "quantum_advantage",
    "advantage_boundary_eta1",
]


def r_from_db(r_db: float) -> float:
    """Squeezing magnitude from decibels: r_db = -10*log10(e^-2r)."""
    if r_db < 0:
        raise ValueError(f"squeezing level in dB must be >= 0, got {r_db}")
    return r_db * math.log(10.0) / 20.0


@dataclass(frozen=True)
class SensingConfig:
    """Scalar parameters of one timing measurement.

    Exactly one of ``lambda0`` (m) or ``omega0`` (rad/s) must be given.
    ``split`` is the fraction of the N_in source photons sent down path 1.
    ``snr`` rescales the detection threshold (1 = signal equals noise).
    """

    r_db: float = 0.0
    n_in: float = 1e3
    n_lo: float = 1.0
    theta1: float = 0.0
    theta2: float = 0.0
    theta_lo: float = 0.0
    lambda0: float | None = 815e-9
    omega0: float | None = None
    delta_omega: float = 2.0 * math.pi * 1e6
    split: float = 0.5
    snr: float = 1.0

    def __post_init__(self):
        if self.r_db < 0:
            raise ValueError(f"r_db must be >= 0, got {self.r_db}")
        if self.n_in <= 0:
            raise ValueError(f"n_in must be > 0, got {self.n_in}")
        if self.n_lo <= 0:
            raise ValueError(f"n_lo must be > 0, got {self.n_lo}")
        if not 0.0 < self.split < 1.0:
            raise ValueError(f"split must lie in (0, 1), got {self.split}")
        if self.delta_omega <= 0:
            raise ValueError(f"delta_omega must be > 0, got {self.delta_omega}")
        if self.snr <= 0:
            raise ValueError(f"snr must be > 0, got {self.snr}")
        if (self.lambda0 is None) == (self.omega0 is None):
            raise ValueError("give exactly one of lambda0 or omega0")
        if self.lambda0 is not None and self.lambda0 <= 0:
            raise ValueError(f"lambda0 must be > 0, got {self.lambda0}")
        if self.omega0 is not None and self.omega0 <= 0:
            raise ValueError(f"omega0 must be > 0, got {self.omega0}")

    @property
    def r(self) -> float:
        return r_from_db(self.r_db)

    @property
    def carrier_omega(self) -> float:
        if self.omega0 is not None:
            return self.omega0
        return 2.0 * math.pi * SPEED_OF_LIGHT / self.lambda0

    @property
    def omega_rss(self) -> float:
        """sqrt(omega0^2 + delta_omega^2), the inverse of the offset scale u0."""
        return math.hypot(self.carrier_omega, self.delta_omega)

    @property
    def u0(self) -> float:
        return 1.0 / self.omega_rss

    @property
    def big_omega(self) -> float:
        return self.carrier_omega / self.delta_omega

    @property
    def n1(self) -> float:
        return self.split * self.n_in

    @property
    def n2(self) -> float:
        return (1.0 - self.split) * self.n_in

    def with_(self, **changes) -> "SensingConfig":
        return replace(self, **changes)


@dataclass(frozen=True)
class ChannelPair:
    """Effective transmissivities of the two paths and their vacuum-port policy."""

    eta1: float
    eta2: float
    policy: str = "shared"

    def __post_init__(self):
        for name, eta in (("eta1", self.eta1), ("eta2", self.eta2)):
            if not 0.0 <= eta <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {eta}")
        if self.policy not in ("shared", "independent"):
            raise ValueError(f"unknown vacuum policy {self.policy!r}")


@dataclass(frozen=True)
class OffsetResult:
    """Minimum measurable offset for one scheme, with the inputs that produced it."""

    delta_u: float
    scheme: str
    config: SensingConfig
    channel: ChannelPair | None = None

    def __post_init__(self):
        if not math.isfinite(self.delta_u) or self.delta_u <= 0:
            raise ValueError(f"delta_u must be finite and > 0, got {self.delta_u}")


def photocurrent_mean_single(
    cfg: SensingConfig, path: int, delta_u: float
) -> float:
    """Mean homodyne photocurrent of one path, in normalized units.

    2*sqrt(N_path*N_lo) * [ (du/u0)*cos(th_p - th_lo)
                            + (Omega/sqrt(Omega^2+1))*sin(th_p - th_lo) ].
    """
    if path == 1:
        n_path, theta = cfg.n1, cfg.theta1
    elif path == 2:
        n_path, theta = cfg.n2, cfg.theta2
    else:
        raise ValueError(f"path must be 1 or 2, got {path}")
    rel = theta - cfg.theta_lo
    big = cfg.big_omega
    return 2.0 * math.sqrt(n_path * cfg.n_lo) * (
        (delta_u / cfg.u0) * math.cos(rel)
        + big / math.sqrt(big**2 + 1.0) * math.sin(rel)
    )


def photocurrent_variance_single(cfg: SensingConfig) -> float:
    """Per-path photocurrent variance N_lo*cosh(2r), in normalized units."""
    return cfg.n_lo * math.cosh(2.0 * cfg.r)


def post_variance_ideal(cfg: SensingConfig) -> float:
    """Variance of the summed photocurrent over lossless paths.

    2*N_lo*( cosh 2r - ((Omega^2-1)/(Omega^2+1)) * cos(2 th_lo) * sinh 2r );
    minimized to 2*N_lo*e^-2r at th_lo = n*pi for a near-monochromatic
    carrier (Omega >> 1).
    """
    big2 = cfg.big_omega**2
    anisotropy = (big2 - 1.0) / (big2 + 1.0)
    return 2.0 * cfg.n_lo * (
        math.cosh(2.0 * cfg.r)
        - anisotropy * math.cos(2.0 * cfg.theta_lo) * math.sinh(2.0 * cfg.r)
    )


def _offset(cfg, value, scheme, channel=None) -> OffsetResult:
    return OffsetResult(cfg.snr * value, scheme, cfg, channel)


def delta_u_tmsv_ideal(cfg: SensingConfig) -> OffsetResult:
    """Minimum offset of the lossless entangled scheme.

    e^-r / (sqrt(2)*(sqrt(N1)+sqrt(N2))*sqrt(omega0^2+delta_omega^2));
    reduces to e^-r/(2*sqrt(N_in)*...) at the default even split.
    """
    denom = math.sqrt(2.0) * (math.sqrt(cfg.n1) + math.sqrt(cfg.n2)) * cfg.omega_rss
    return _offset(cfg, math.exp(-cfg.r) / denom, "TMSV_ideal")


def q_factor(r: float, ch: ChannelPair) -> float:
    """Noise radicand of the lossy entangled scheme.

    (eta1+eta2)*sinh^2 r + 1 + sqrt((1-eta1)(1-eta2)) - sqrt(eta1*eta2)*sinh 2r,
    evaluated in the algebraically equal factored form
    1 + sqrt((1-eta1)(1-eta2)) + sinh r*((eta1+eta2)*sinh r - 2*sqrt(eta1*eta2)*cosh r),
    which avoids the cosh/sinh cancellation at high transmissivity.
    Always positive; e^-2r at eta1 = eta2 = 1 and the unentangled radicand
    1 + sqrt((1-eta1)(1-eta2)) at r = 0.
    """
    if r < 0:
        raise ValueError(f"squeezing magnitude must be >= 0, got {r}")
    sh = math.sinh(r)
    cross = math.sqrt((1.0 - ch.eta1) * (1.0 - ch.eta2))
    return 1.0 + cross + sh * (
        (ch.eta1 + ch.eta2) * sh - 2.0 * math.sqrt(ch.eta1 * ch.eta2) * math.cosh(r)
    )


def delta_u_tmsv_real(cfg: SensingConfig, ch: ChannelPair) -> OffsetResult:
    """Minimum offset of the entangled scheme through lossy channels.

    sqrt(Q) / ((sqrt(eta1)+sqrt(eta2))*sqrt(N_in*(omega0^2+delta_omega^2)))
    at the even split; the general split replaces the denominator with
    sqrt(2)*(sqrt(eta1*N1)+sqrt(eta2*N2))/sqrt(...).  Recovers the ideal
    value at eta1 = eta2 = 1 and the unentangled baseline at r = 0.
    """
    if ch.eta1 + ch.eta2 <= 0.0:
        raise ValueError("delta_u diverges with both channels fully opaque")
    q = q_factor(cfg.r, ch)
    denom = (
        math.sqrt(2.0)
        * (math.sqrt(ch.eta1 * cfg.n1) + math.sqrt(ch.eta2 * cfg.n2))
        * cfg.omega_rss
    )
    return _offset(cfg, math.sqrt(q) / denom, "TMSV_real", ch)


def delta_u_sql(cfg: SensingConfig, ch: ChannelPair) -> OffsetResult:
    """Unentangled baseline: the lossy-scheme offset at r = 0."""
    res = delta_u_tmsv_real(cfg.with_(r_db=0.0), ch)
    return OffsetResult(res.delta_u, "SQL", cfg, ch)


def delta_u_smsv_real(cfg: SensingConfig, eta1: float) -> OffsetResult:
    """Minimum offset of a single squeezed mode through one lossy channel.

    (1/2)*sqrt((eta1*e^-2r + (1-eta1)) / (eta1*N_in*(omega0^2+delta_omega^2))).
    Equals the ideal entangled value at eta1 = 1.
    """
    if not 0.0 <= eta1 <= 1.0:
        raise ValueError(f"eta1 must be in [0, 1], got {eta1}")
    if eta1 == 0.0:
        raise ValueError("delta_u diverges with the channel fully opaque")
    noise = eta1 * math.exp(-2.0 * cfg.r) + (1.0 - eta1)
    value = 0.5 * math.sqrt(noise / (eta1 * cfg.n_in)) / cfg.omega_rss
    return _offset(cfg, value, "SMSV_real", ChannelPair(eta1, 1.0))


def quantum_advantage(cfg: SensingConfig, ch: ChannelPair) -> float:
    """Offset gained over the unentangled baseline: du_SQL - du_TMSV (can be <= 0)."""
    return delta_u_sql(cfg, ch).delta_u - delta_u_tmsv_real(cfg, ch).delta_u


def advantage_boundary_eta1(r: float, eta2: float) -> float:
    """Smallest eta1 at which the entangled scheme beats the baseline.

    The advantage condition tanh r < 2*sqrt(eta1*eta2)/(eta1+eta2) turns into
    a quadratic in sqrt(eta1) whose lower root is eta2*tanh^2(r/2); the
    advantage switches on as eta1 crosses it from below.  (The quadratic's
    upper root eta2/tanh^2(r/2) only re-enters [0, 1] for eta2 below
    tanh^2(r/2), where the advantage window closes again.)
    """
    if r <= 0:
        raise ValueError(f"boundary needs r > 0, got {r}")
    if not 0.0 < eta2 <= 1.0:
        raise ValueError(f"eta2 must be in (0, 1], got {eta2}")
    return eta2 * math.tanh(0.5 * r) ** 2
