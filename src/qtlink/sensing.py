"""Closed-form photocurrent statistics and minimum measurable timing offsets.

Covers four measurement schemes at a fixed photon budget N_in:

* ``TMSV_ideal``  -- entangled two-mode probe over lossless paths,
* ``TMSV_real``   -- the same probe through channels of transmissivity
  (eta1, eta2) whose vacuum ports follow the shared or the independent
  port policy,
* ``SQL``         -- the r = 0 (unentangled) baseline of the same setup,
* ``SMSV_real``   -- a single squeezed mode through one channel.

:data:`SCHEMES` names them, with their sweep aliases and table columns.  One
broadcasting kernel, :func:`delta_u`, evaluates every scheme over numpy
arrays; :func:`evaluate` is the one adapter from a config, its channel and
any array axes to it; the scalar ``delta_u_*`` functions call it.  The kernel
computes Python floats and ints with ``math`` and anything else with numpy,
through the few primitives that :func:`_xp` picks, so a command that
evaluates one point never loads numpy.  Both paths give the same bits: the
square roots are correctly rounded either way, and sinh/cosh/exp always go
through ``math``.

The minimum offset is the delta_u at which the post-processed homodyne
signal equals its own noise (SNR = 1); it scales linearly with any other
SNR threshold.  All photocurrent expressions are in normalized units
(FIELD_SCALE = 1); local-oscillator photons and the field scale cancel in
every delta_u.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from types import SimpleNamespace

from .constants import (
    FLOAT_MAX, SPEED_OF_LIGHT, Record, real_array, require, require_finite, require_policy,
    require_real,
)

__all__ = [
    "SensingConfig",
    "ChannelPair",
    "PAPER_SCALE_CONFIG",
    "MAX_R_DB",
    "r_from_db",
    "SCHEMES",
    "SWEPT",
    "radicand",
    "delta_u",
    "evaluate",
    "photocurrent_mean_single",
    "photocurrent_variance_single",
    "post_variance_ideal",
    "delta_u_tmsv_ideal",
    "delta_u_tmsv_real",
    "delta_u_sql",
    "delta_u_smsv_real",
    "quantum_advantage",
    "advantage_boundary_eta1",
]


# kernel scheme -> (its sweep alias, its table column); no table holds TMSV_ideal
SCHEMES = {
    "TMSV_ideal": (None, None),
    "TMSV_real": ("TMSV", "du_tmsv"),
    "SQL": ("SQL", "du_sql"),
    "SMSV_real": ("SMSV", "du_smsv"),
}
# sweep alias -> kernel scheme, in the table's order
SWEPT = {alias: scheme for scheme, (alias, _) in SCHEMES.items() if alias}

# The largest squeezing level accepted, in dB.  The factored TMSV radicand
# (see radicand) still cancels between its sinh^2 r and sinh r*cosh r terms
# near eta = 1: against a 50-digit reference its worst relative error is
# ~2e-11 at 30 dB, passes 1e-9 by 40 dB and reaches 0.7 at 80 dB, where a
# squeezed offset prints as the unsqueezed one.
MAX_R_DB = 30.0
_MAX_R = MAX_R_DB * math.log(10.0) / 20.0


# numpy's names for the operations the kernel uses, over Python reals.  Where
# math raises, these give what numpy gives: NaN for the square root of a
# negative, the signed infinity (or NaN) for a zero denominator, so no float
# error needs an errstate.
_REALS = SimpleNamespace(
    isfinite=math.isfinite,
    any=bool,
    sqrt=lambda x: math.sqrt(x) if x >= 0.0 else math.nan,
    divide=lambda a, b: a / b if b else a * math.copysign(math.inf, b),
    errstate=lambda **_: nullcontext(),
)


def _xp(*values):
    """_REALS when every value is a Python float or int, else numpy.

    The type must match exactly: an np.float64 is a float, and a bool an
    int, but both take numpy's path, as every array does.
    """
    if all(type(value) in (float, int) for value in values):
        return _REALS
    import numpy

    return numpy


def _floats(xp, name: str, value):
    """``value`` as a float, or on numpy's path as a float array, by :func:`real_array`'s rule."""
    if xp is not _REALS:
        return real_array(name, value)
    try:
        return float(value)
    except OverflowError:  # an int past the double range
        raise ValueError(f"{name} must be finite, got {value}") from None


def _finite(name: str, value, low: str):
    """``value`` by :func:`_floats`; ValueError unless it is finite and ``low``, "> 0" or ">= 0"."""
    value = _floats(_xp(value), name, value)
    above = value > 0.0 if low == "> 0" else value >= 0.0
    require(name, value, above & (value <= FLOAT_MAX), f"finite and {low}")
    return value


def r_from_db(r_db):
    """Squeezing magnitude from decibels: r_db = -10*log10(e^-2r), elementwise.

    Each level must be finite and in [0, MAX_R_DB].
    """
    level = _finite("squeezing level in dB", r_db, ">= 0")
    require("squeezing level in dB", level, level <= MAX_R_DB, f"at most {MAX_R_DB:g}")
    return level * math.log(10.0) / 20.0


class SensingConfig(Record):
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
        r_from_db(self.r_db)
        require("n_in", self.n_in, self.n_in > 0, "> 0")
        require("n_lo", self.n_lo, self.n_lo > 0, "> 0")
        require("split", self.split, 0.0 < self.split < 1.0, "in (0, 1)")
        require("delta_omega", self.delta_omega, self.delta_omega > 0, "> 0")
        require("snr", self.snr, self.snr > 0, "> 0")
        if (self.lambda0 is None) == (self.omega0 is None):
            raise ValueError("give exactly one of lambda0 or omega0")
        given = "lambda0" if self.omega0 is None else "omega0"
        require(given, getattr(self, given), getattr(self, given) > 0, "> 0")
        # a subnormal lambda0 or a carrier near the double range overflows these
        for name in ("carrier_omega", "omega_rss"):
            value = getattr(self, name)
            require(name, value, 0.0 < value <= FLOAT_MAX, "finite and > 0")

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


class ChannelPair(Record):
    """Effective transmissivities of the two paths and their vacuum-port policy."""

    eta1: float
    eta2: float
    policy: str = "shared"

    def __post_init__(self):
        for name, eta in (("eta1", self.eta1), ("eta2", self.eta2)):
            require(name, eta, 0.0 <= eta <= 1.0, "in [0, 1]")
        require_policy(self.policy)


# LEO-link scale used by the CLI defaults and all figure presets: 815 nm
# carrier, 2*pi MHz spectral spread, a 1000-photon budget.
PAPER_SCALE_CONFIG = SensingConfig(
    r_db=5.0, n_in=1e3, lambda0=815e-9, delta_omega=2.0 * math.pi * 1e6
)


def photocurrent_mean_single(
    cfg: SensingConfig, path: int, delta_u: float
) -> float:
    """Mean homodyne photocurrent of one path, in normalized units.

    2*sqrt(N_path*N_lo) * [ (du/u0)*cos(th_p - th_lo)
                            + (Omega/sqrt(Omega^2+1))*sin(th_p - th_lo) ].
    """
    require_real("path", path, integer=True)
    require("path", path, path in (1, 2), "1 or 2")
    require_finite("delta_u", delta_u)
    n_path, theta = (cfg.n1, cfg.theta1) if path == 1 else (cfg.n2, cfg.theta2)
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


def _unit(name: str, eta):
    eta = _floats(_xp(eta), name, eta)
    require(name, eta, (eta >= 0.0) & (eta <= 1.0), "in [0, 1]")
    return eta


def _squeezing(r):
    level = _finite("squeezing magnitude", r, ">= 0")
    require("squeezing magnitude", level, level <= _MAX_R, f"at most {_MAX_R} ({MAX_R_DB:g} dB)")
    return level


def _math(fn, r):
    """``fn`` (a math function) of every element of ``r``.

    numpy's vectorized sinh/cosh/exp can differ from math's in the last bit,
    which would move emitted bytes; r holds one value per squeezing level,
    so the elementwise loop is cheap.
    """
    xp = _xp(r)
    if xp is _REALS or xp.ndim(r) == 0:
        return fn(float(r))
    return xp.fromiter(map(fn, r.flat), float, r.size).reshape(r.shape)


def radicand(scheme: str, r, eta1, eta2=1.0, policy: str = "shared"):
    """Noise radicand of a lossy scheme, broadcast over array arguments.

    TMSV_real: (eta1+eta2)*sinh^2 r + 1 + c - sqrt(eta1*eta2)*sinh 2r with
    the vacuum cross term c = sqrt((1-eta1)(1-eta2)) under the shared port
    policy and c = 0 under independent ports, evaluated in the algebraically
    equal factored form
    1 + c + sinh r*((eta1+eta2)*sinh r - 2*sqrt(eta1*eta2)*cosh r),
    which avoids the cosh/sinh cancellation at high transmissivity.  Always
    positive; e^-2r at eta1 = eta2 = 1 and 1 + c at r = 0.
    SQL: the TMSV_real radicand at r = 0.  SMSV_real: eta1*e^-2r + (1-eta1).
    The scheme is checked first, then policy, eta1, r and eta2, whatever it reads.
    """
    if scheme not in ("TMSV_real", "SQL", "SMSV_real"):
        raise ValueError(f"no radicand for scheme {scheme!r}")
    require_policy(policy)
    e1, r, e2 = _unit("eta1", eta1), _squeezing(r), _unit("eta2", eta2)
    if scheme == "SMSV_real":
        return e1 * _math(math.exp, -2.0 * r) + (1.0 - e1)
    r = 0.0 if scheme == "SQL" else r
    xp = _xp(r, e1, e2)
    sh, ch = _math(math.sinh, r), _math(math.cosh, r)
    cross = xp.sqrt((1.0 - e1) * (1.0 - e2)) if policy == "shared" else 0.0
    return 1.0 + cross + sh * ((e1 + e2) * sh - 2.0 * xp.sqrt(e1 * e2) * ch)


def delta_u(
    scheme: str, r, eta1, eta2, n1, n2, omega_rss, snr, policy: str = "shared"
):
    """Minimum measurable offset of ``scheme``, broadcast over array arguments.

    Any argument but ``scheme`` and ``policy`` may be an array; the result
    has the broadcast shape of them all, those the scheme does not read
    included (a 0-d value when all are scalars).  n1 and n2
    are the photons sent down paths 1 and 2, omega_rss = 1/u0.

    * TMSV_ideal: e^-r / (sqrt(2)*(sqrt(n1)+sqrt(n2))*omega_rss); the etas
      play no part.
    * TMSV_real:  sqrt(Q) / (sqrt(2)*(sqrt(eta1*n1)+sqrt(eta2*n2))*omega_rss)
      with Q from :func:`radicand`; recovers TMSV_ideal at eta1 = eta2 = 1
      and SQL at r = 0.
    * SQL:        TMSV_real at r = 0.
    * SMSV_real:  (1/2)*sqrt((eta1*e^-2r + 1-eta1) / (eta1*(n1+n2))) / omega_rss,
      the whole budget n1 + n2 in one mode through channel 1.

    Each value is scaled by ``snr``.  Whatever the scheme reads, each argument
    is converted and checked once, element by element, NaN included, in this
    order: n1, n2 (finite, >= 0), n1 + n2 (> 0), omega_rss, snr (finite, > 0),
    policy, eta1, r, eta2 (in range); then, for TMSV_real and SQL,
    sqrt(eta1*n1) + sqrt(eta2*n2) > 0, and the result finite and > 0.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; pick one of {tuple(SCHEMES)}")
    xp = _xp(r, eta1, eta2, n1, n2, omega_rss, snr)
    n1, n2 = _finite("n1", n1, ">= 0"), _finite("n2", n2, ">= 0")
    with xp.errstate(over="ignore"):  # a sum past the largest double is still > 0
        total = n1 + n2
    require("n1 + n2", total, total > 0.0, "> 0")
    omega_rss, snr = _finite("omega_rss", omega_rss, "> 0"), _finite("snr", snr, "> 0")
    require_policy(policy)
    eta1, r, eta2 = _unit("eta1", eta1), _squeezing(r), _unit("eta2", eta2)
    # an overflow or a zero denominator reaches the final check as inf or nan
    # instead of a warning or an exception
    with xp.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if scheme == "TMSV_ideal":
            denom = math.sqrt(2.0) * (xp.sqrt(n1) + xp.sqrt(n2)) * omega_rss
            value = xp.divide(_math(math.exp, -r), denom)
        elif scheme == "SMSV_real":
            noise = radicand(scheme, r, eta1, eta2, policy)
            if xp.any(eta1 == 0.0):
                raise ValueError("delta_u diverges with the channel fully opaque")
            value = 0.5 * xp.sqrt(xp.divide(noise, eta1 * total)) / omega_rss
        else:
            q = radicand(scheme, r, eta1, eta2, policy)
            if xp.any(eta1 + eta2 <= 0.0):
                raise ValueError("delta_u diverges with both channels fully opaque")
            amplitude = xp.sqrt(eta1 * n1) + xp.sqrt(eta2 * n2)
            require("sqrt(eta1*n1) + sqrt(eta2*n2)", amplitude, amplitude > 0.0, "> 0")
            value = xp.divide(xp.sqrt(q), math.sqrt(2.0) * amplitude * omega_rss)
        out = snr * value
    require("delta_u", out, xp.isfinite(out) & (out > 0.0), "finite and > 0")
    if xp is _REALS:
        return out
    # a scheme that ignores an argument still takes its shape
    shape = xp.broadcast_shapes(*map(xp.shape, (r, eta1, eta2, n1, n2, omega_rss, snr)))
    return out if xp.shape(out) == shape else xp.broadcast_to(out, shape).copy()


def evaluate(
    scheme: str,
    cfg: SensingConfig,
    ch: ChannelPair = ChannelPair(1.0, 1.0),
    *,
    eta1=None,
    eta2=None,
    r_db=None,
    n_in=None,
):
    """:func:`delta_u` of ``scheme`` at ``cfg`` and ``ch``, with any of eta1, eta2,
    r_db and n_in given replaced by arrays, which broadcast against each other."""
    eta1 = ch.eta1 if eta1 is None else eta1
    eta2 = ch.eta2 if eta2 is None else eta2
    r = cfg.r if r_db is None else r_from_db(r_db)
    n_in = cfg.n_in if n_in is None else _finite("n_in", n_in, "> 0")
    if scheme == "SMSV_real":
        n1, n2 = n_in, 0.0
    else:
        n1, n2 = cfg.split * n_in, (1.0 - cfg.split) * n_in
    return delta_u(scheme, r, eta1, eta2, n1, n2, cfg.omega_rss, cfg.snr, ch.policy)


def delta_u_tmsv_ideal(cfg: SensingConfig) -> float:
    """Minimum offset of the lossless entangled scheme (reduces to
    e^-r/(2*sqrt(N_in)*sqrt(omega0^2+delta_omega^2)) at the even split)."""
    return float(evaluate("TMSV_ideal", cfg))


def delta_u_tmsv_real(cfg: SensingConfig, ch: ChannelPair) -> float:
    """Minimum offset of the entangled scheme through lossy channels."""
    return float(evaluate("TMSV_real", cfg, ch))


def delta_u_sql(cfg: SensingConfig, ch: ChannelPair) -> float:
    """Unentangled baseline: the lossy-scheme offset at r = 0."""
    return float(evaluate("SQL", cfg, ch))


def delta_u_smsv_real(cfg: SensingConfig, eta1: float) -> float:
    """Minimum offset of a single squeezed mode through one lossy channel.

    Equals the ideal entangled value at eta1 = 1.
    """
    return float(evaluate("SMSV_real", cfg, ChannelPair(eta1, 1.0)))


def quantum_advantage(cfg: SensingConfig, ch: ChannelPair) -> float:
    """Offset gained over the unentangled baseline: du_SQL - du_TMSV (can be <= 0)."""
    return delta_u_sql(cfg, ch) - delta_u_tmsv_real(cfg, ch)


def advantage_boundary_eta1(r: float, eta2: float) -> float:
    """Smallest eta1 at which the entangled scheme beats the baseline.

    The advantage condition tanh r < 2*sqrt(eta1*eta2)/(eta1+eta2) turns into
    a quadratic in sqrt(eta1) whose lower root is eta2*tanh^2(r/2); the
    advantage switches on as eta1 crosses it from below.  (The quadratic's
    upper root eta2/tanh^2(r/2) only re-enters [0, 1] for eta2 below
    tanh^2(r/2), where the advantage window closes again.)
    """
    require_real("r", r)
    require("r", r, 0 < r <= FLOAT_MAX, "finite and > 0")
    require_real("eta2", eta2)
    require("eta2", eta2, 0.0 < eta2 <= 1.0, "in (0, 1]")
    return eta2 * math.tanh(0.5 * r) ** 2
