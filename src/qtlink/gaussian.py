"""Gaussian-state engine: covariances under symplectic maps and homodyne readout.

Works in the hbar = 2 convention (x = a + a^dag, p = -i(a - a^dag)), so the
vacuum covariance matrix is the identity.  Quadratures are ordered
(x1, p1, x2, p2, ...).  Every operation returns a new state; nothing is
mutated in place.  Every map is linear and every chain starts from vacuum,
so the quadrature means stay zero and a state is its covariance alone.

States and operations broadcast over leading batch axes: a state may hold a
stack of covariances of shape (..., 2n, 2n), and ``r``/``eta`` may be arrays,
so one chain of operations carries many parameter points at once.  A scalar
call is the 0-d case of the same code.

Every covariance must be finite, and a squeezing magnitude ``r`` at most
ln(FLOAT_MAX)/2, where e^(2r) overflows a double.  An operation whose
product overflows all the same (two large squeezes of one mode) is rejected
by the new state, which names ``cov``.

This module is the brute-force cross-check for the closed-form photocurrent
variances in :mod:`qtlink.sensing`: build the state by explicit matrix
algebra, read the homodyne variance off the covariance matrix, and compare.
"""

from __future__ import annotations

import numpy as np

from .constants import FLOAT_MAX, Record, require, require_finite, require_policy, require_real

__all__ = [
    "GaussianState",
    "vacuum",
    "squeeze_single",
    "beam_splitter",
    "pure_loss",
    "homodyne_variance",
    "symplectic_form",
    "min_physicality_eigenvalue",
]


class GaussianState(Record):
    """Covariance matrix of n zero-mean optical modes, or a stack of them.

    Attributes:
        n_modes: number of modes.
        cov: finite real symmetric covariance matrices, shape (..., 2n, 2n);
            identity for vacuum.  Leading axes are batch axes.
        shared_port: index of the vacuum mode that every shared-policy loss
            reads (see pure_loss), or None before the first such loss.
    """

    n_modes: int
    cov: np.ndarray
    shared_port: int | None = None

    def __post_init__(self):
        _require_count(self.n_modes)
        port = self.shared_port
        if port is not None:
            require_real("shared_port", port, integer=True)
            require("shared_port", port, 0 <= port < self.n_modes, f"in [0, {self.n_modes})")
        cov = _floats("cov", self.cov)
        d = 2 * self.n_modes
        if cov.shape[-2:] != (d, d):
            raise ValueError(f"cov must have shape (..., {d}, {d}), got {cov.shape}")
        require("cov", cov, np.isfinite(cov), "finite")
        with np.errstate(over="ignore"):  # a gap past FLOAT_MAX is inf, and not close
            if not _symmetric(cov):
                raise ValueError("covariance matrix must be symmetric")
        object.__setattr__(self, "cov", cov)

    @property
    def batch_shape(self) -> tuple:
        """Leading batch axes; () for a single state."""
        return self.cov.shape[:-2]

    def _check_mode(self, mode: int) -> None:
        require_real("mode", mode, integer=True)
        require("mode", mode, 0 <= mode < self.n_modes, f"in [0, {self.n_modes})")


def _require_count(n_modes) -> None:
    """Raise ValueError unless ``n_modes`` is an integer >= 1, a bool not included."""
    require_real("n_modes", n_modes, integer=True)
    require("n_modes", n_modes, n_modes >= 1, ">= 1")


def _floats(name: str, value) -> np.ndarray:
    """``value`` as a float array; an int past the double range is named as not finite."""
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got {value}") from None


def _symmetric(cov: np.ndarray) -> bool:
    """``np.allclose(cov, transpose, rtol=1e-12, atol=1e-12)`` for a finite ``cov``.

    The gap is symmetric, so every entry is measured against its own magnitude,
    not its transpose's: the same test over the whole matrix.
    """
    gap = np.abs(cov - np.swapaxes(cov, -1, -2))
    return bool((gap <= 1e-12 + 1e-12 * np.abs(cov)).all())


def symplectic_form(n_modes: int) -> np.ndarray:
    """Standard symplectic form Omega for (x1, p1, x2, p2, ...) ordering."""
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for i in range(n_modes):
        omega[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = j
    return omega


def min_physicality_eigenvalue(state: GaussianState) -> float:
    """Smallest eigenvalue of cov + i*Omega over the whole stack.

    >= 0 (to tolerance) when every state in the stack is physical.
    """
    omega = symplectic_form(state.n_modes)
    h = state.cov + 1j * omega
    return float(np.linalg.eigvalsh(h).min())


def vacuum(n_modes: int) -> GaussianState:
    """n-mode vacuum: identity covariance."""
    _require_count(n_modes)  # before np.eye, which takes neither a float nor a count < 0
    return GaussianState(n_modes, np.eye(2 * n_modes))


def _identity(batch: tuple, d: int) -> np.ndarray:
    """Writable stack of d x d identities with leading shape ``batch``."""
    return np.tile(np.eye(d), batch + (1, 1))


def _apply_linear(state: GaussianState, m: np.ndarray) -> GaussianState:
    """Map cov -> M cov M^T; a stack of M broadcasts against the state's.

    A product that overflows leaves inf or NaN, which the new state rejects.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cov = m @ state.cov @ np.swapaxes(m, -1, -2)
    return GaussianState(state.n_modes, cov, state.shared_port)


def _rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def squeeze_single(
    state: GaussianState, mode: int, r: float | np.ndarray, angle: float = 0.0
) -> GaussianState:
    """Squeeze one mode by r in [0, ln(FLOAT_MAX)/2] along the quadrature at ``angle``.

    angle = 0 squeezes x (block becomes diag(e^-2r, e^+2r)); angle = pi/2
    squeezes p.  Direction is carried entirely by the angle, so negative r
    is rejected.  An array ``r`` squeezes a stack, one element per state.
    """
    state._check_mode(mode)
    require_finite("angle", angle)
    r = _floats("squeezing magnitude", r)
    r_max = np.log(FLOAT_MAX) / 2  # e^(2r) overflows past it
    require("squeezing magnitude", r, (r >= 0) & (r <= r_max), f"in [0, {r_max}]")
    rot = _rotation(angle)
    diag = np.zeros(r.shape + (2, 2))
    diag[..., 0, 0] = np.exp(-r)
    diag[..., 1, 1] = np.exp(r)
    m = _identity(r.shape, 2 * state.n_modes)
    i = 2 * mode
    m[..., i : i + 2, i : i + 2] = rot @ diag @ rot.T
    return _apply_linear(state, m)


def _bs_rows(n_modes: int, m1: int, m2: int, eta: np.ndarray) -> np.ndarray:
    # Transmitted output: sqrt(eta)*m1 - sqrt(1-eta)*m2, identically on x and p.
    t, rfl = np.sqrt(eta), np.sqrt(1.0 - eta)
    m = _identity(eta.shape, 2 * n_modes)
    for off in (0, 1):
        a, b = 2 * m1 + off, 2 * m2 + off
        m[..., a, a] = t
        m[..., a, b] = -rfl
        m[..., b, a] = rfl
        m[..., b, b] = t
    return m


def beam_splitter(
    state: GaussianState, m1: int, m2: int, eta: float | np.ndarray
) -> GaussianState:
    """Mix two modes on a beam splitter of transmissivity eta in [0, 1].

    Output mode m1 = sqrt(eta)*m1 - sqrt(1-eta)*m2, output mode m2 the
    orthogonal combination; eta = 1 is the identity, eta = 0 swaps the
    modes up to sign.  An array ``eta`` acts on a stack, one element per state.
    """
    state._check_mode(m1)
    state._check_mode(m2)
    if m1 == m2:
        raise ValueError("beam splitter needs two distinct modes")
    eta = _floats("transmissivity", eta)
    require("transmissivity", eta, (eta >= 0.0) & (eta <= 1.0), "in [0, 1]")
    return _apply_linear(state, _bs_rows(state.n_modes, m1, m2, eta))


def _append_vacuum(state: GaussianState, as_port: bool) -> GaussianState:
    """Add one vacuum mode; with ``as_port`` it becomes the state's shared port."""
    d = 2 * state.n_modes
    cov = _identity(state.batch_shape, d + 2)
    cov[..., :d, :d] = state.cov
    port = state.n_modes if as_port else state.shared_port
    return GaussianState(state.n_modes + 1, cov, port)


def pure_loss(
    state: GaussianState, mode: int, eta: float | np.ndarray, policy: str = "shared"
) -> GaussianState:
    """Attenuate one mode to transmissivity eta against a vacuum port.

    The ancilla is appended to the state (never traced out) so that
    correlations introduced by shared ports stay visible downstream.  For an
    input uncorrelated with the port, the mode variance maps to
    eta*Var + (1 - eta).

    ``"independent"``: every loss couples to its own fresh vacuum mode, a
    genuine two-mode beam-splitter unitary.

    ``"shared"``: every shared loss reads the state's one shared port
    (``state.shared_port``, appended by the first such loss) without writing
    it back, so all shared channels see the identical, still-vacuum port.
    A chain of true beam splitters through one ancilla would feed the second
    channel the *already-mixed* port and produce different cross terms; the
    read-only coupling is what the shared closed forms assume, so distinct
    channels' vacuum contributions add coherently.  It is not a unitary map,
    and the resulting global state may violate the uncertainty relation.

    Args:
        state: input state.
        mode: index of the lossy mode.
        eta: transmissivity in [0, 1], or an array of them acting on a stack.
        policy: vacuum-port policy, ``"shared"`` (default) or ``"independent"``.

    Returns:
        New state with one more mode for every independent loss and for the
        first shared one.  Only when every eta is 1 is the state returned
        unchanged, without an ancilla; a stack mixing eta = 1 with eta < 1
        grows for all.
    """
    state._check_mode(mode)
    require_policy(policy)
    eta = _floats("transmissivity", eta)
    require("transmissivity", eta, (eta >= 0.0) & (eta <= 1.0), "in [0, 1]")
    if np.all(eta == 1.0):
        return state

    shared = policy == "shared"
    grown = state if shared and state.shared_port is not None else _append_vacuum(state, shared)
    port = grown.shared_port if shared else grown.n_modes - 1
    m = _bs_rows(grown.n_modes, mode, port, eta)
    if shared:
        # Read-only coupling: the lossy mode picks up the port with
        # beam-splitter weights, the port's own rows stay the identity.
        i = 2 * port
        m[..., i : i + 2, :] = np.eye(2 * grown.n_modes)[i : i + 2]
    return _apply_linear(grown, m)


def homodyne_variance(
    state: GaussianState, coefficients, phase: float = 0.0
) -> float | np.ndarray:
    """Variance of a weighted multi-mode quadrature sum.

    ``coefficients[i]`` weights mode i's measured quadrature
    x_i cos(phase) + p_i sin(phase); phase = 0 measures X, pi/2 measures P.
    A float for a single state; an array of shape ``state.batch_shape``
    for a stack.  A variance past the largest double is rejected by name.
    """
    require_finite("phase", phase)
    coeffs = np.atleast_1d(_floats("coefficients", coefficients))
    if coeffs.ndim != 1:
        raise ValueError("coefficients must be a 1-d vector")
    require("coefficients", coeffs, np.isfinite(coeffs), "finite")
    if not np.any(coeffs != 0.0):
        raise ValueError("homodyne pattern needs at least one nonzero coefficient")
    if len(coeffs) > state.n_modes:
        raise ValueError(
            f"pattern addresses {len(coeffs)} modes, state has {state.n_modes}"
        )
    v = np.zeros(2 * state.n_modes)
    v[: 2 * len(coeffs) : 2] = coeffs * np.cos(phase)
    v[1 : 2 * len(coeffs) : 2] = coeffs * np.sin(phase)
    with np.errstate(over="ignore", invalid="ignore"):
        variance = v @ state.cov @ v
    require("homodyne variance", variance, np.isfinite(variance), "finite")
    return variance
