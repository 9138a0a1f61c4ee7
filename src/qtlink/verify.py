"""Cross-check of the closed-form noise terms against the covariance engine.

The two-mode chain prepares the entangled probe from scratch (two squeezed
vacua on a 50:50 splitter), pushes both modes through lossy channels, and
reads the summed-X homodyne variance straight off the covariance matrix.
Under the shared vacuum-port policy that variance must equal 2*Q with Q the
closed-form radicand; under independent ports it must fall short of 2*Q by
exactly twice the sqrt((1-eta1)(1-eta2)) cross term.  The single-mode chain
checks the squeezed-mode radicand eta*e^-2r + (1-eta) the same way.

Both chains take eta arrays and run as one stacked chain per squeezing
level, so the oracle costs a handful of broadcast matrix products per r
rather than a chain of validated states per (r, eta1, eta2) point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gaussian import (
    HomodynePattern,
    beam_splitter,
    homodyne_variance,
    pure_loss,
    squeeze_single,
    vacuum,
)
from .sensing import r_from_db, radicand

__all__ = [
    "VerifyReport",
    "tmsv_chain_variance",
    "smsv_chain_variance",
    "run_verify",
    "DEFAULT_R_DBS",
    "DEFAULT_ETAS",
]

DEFAULT_R_DBS = (0.0, 3.0, 5.0, 15.0)
DEFAULT_ETAS = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)

# Most points one stacked chain carries: bounds memory at any eta_steps while
# keeping a 30 x 30 eta grid in a single stack.
_MAX_STACK = 1024

_SUM_X = HomodynePattern([1.0, 1.0], 0.0)
_SINGLE_X = HomodynePattern([1.0], 0.0)


def tmsv_chain_variance(
    r: float, eta1: float | np.ndarray, eta2: float | np.ndarray, policy: str = "shared"
) -> float | np.ndarray:
    """Summed-X variance of the lossy entangled probe, by explicit matrix algebra.

    ``eta1`` and ``eta2`` may be arrays; they broadcast against each other
    and the result holds one variance per point.
    """
    state = vacuum(2)
    state = squeeze_single(state, 0, r, 0.0)
    state = squeeze_single(state, 1, r, np.pi / 2.0)
    state = beam_splitter(state, 0, 1, 0.5)
    state = pure_loss(state, 0, eta1, policy)
    state = pure_loss(state, 1, eta2, policy)
    return homodyne_variance(state, _SUM_X)


def smsv_chain_variance(
    r: float, eta: float | np.ndarray, policy: str = "shared"
) -> float | np.ndarray:
    """X variance of a lossy squeezed mode, by explicit matrix algebra (eta may be an array)."""
    state = vacuum(1)
    state = squeeze_single(state, 0, r, 0.0)
    state = pure_loss(state, 0, eta, policy)
    return homodyne_variance(state, _SINGLE_X)


@dataclass
class VerifyReport:
    """Point-by-point comparison of oracle variances with the closed forms."""

    policy: str
    tolerance: float
    two_mode_rows: list = field(default_factory=list)
    single_mode_rows: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        errs = [row["rel_err"] for row in self.two_mode_rows + self.single_mode_rows]
        return max(errs) if errs else 0.0

    @property
    def passed(self) -> bool:
        return all(
            row["ok"] for row in self.two_mode_rows + self.single_mode_rows
        )

    def summary_lines(self):
        yield (
            f"verify: policy={self.policy} tolerance={self.tolerance:g} "
            f"points={len(self.two_mode_rows)}+{len(self.single_mode_rows)}"
        )
        for row in self.two_mode_rows:
            yield (
                "  two-mode  r_db={r_db:<4g} eta1={eta1:<4g} eta2={eta2:<4g} "
                "formula={formula:.12e} oracle={oracle:.12e} "
                "rel_err={rel_err:.3e} {verdict}".format(
                    verdict="ok" if row["ok"] else "FAIL", **row
                )
            )
        for row in self.single_mode_rows:
            yield (
                "  one-mode  r_db={r_db:<4g} eta={eta:<4g} "
                "formula={formula:.12e} oracle={oracle:.12e} "
                "rel_err={rel_err:.3e} {verdict}".format(
                    verdict="ok" if row["ok"] else "FAIL", **row
                )
            )
        for note in self.notes:
            yield f"  note: {note}"
        yield f"verify: max_rel_err={self.max_rel_err:.3e} passed={self.passed}"


def _stacked(chain, *etas: np.ndarray) -> np.ndarray:
    """Run ``chain`` over aligned eta vectors, at most _MAX_STACK points per stack."""
    out = np.empty(len(etas[0]))
    for lo in range(0, len(out), _MAX_STACK):
        # A chunk whose losses are all eta = 1 yields one unbatched variance;
        # the slice assignment broadcasts it.
        out[lo : lo + _MAX_STACK] = chain(*(e[lo : lo + _MAX_STACK] for e in etas))
    return out


def _rows(
    r_db: float, etas: dict, formula: np.ndarray, oracle: np.ndarray, tolerance: float
) -> list:
    """One row dict per point: r_db, the named eta columns, formula, oracle, rel_err, ok."""
    err = np.abs(oracle - formula) / np.maximum(np.abs(formula), 1e-300)
    keys = ("r_db", *etas, "formula", "oracle", "rel_err")
    columns = (*etas.values(), formula, oracle, err)
    return [
        dict(zip(keys, (r_db, *point)), ok=point[-1] <= tolerance)
        for point in zip(*(c.tolist() for c in columns))
    ]


def run_verify(
    tolerance: float = 1e-9, policy: str = "shared", eta_steps: int | None = None
) -> VerifyReport:
    """Sweep the cross-check grid and report per-point pass/fail.

    The grid is DEFAULT_R_DBS by DEFAULT_ETAS, or by ``eta_steps`` etas
    evenly spaced over the same span.  With the independent policy the
    oracle is compared against the independent-port radicand; the gap to
    the shared closed form is checked against its predicted value and
    recorded as a diagnostic note rather than a failure.
    """
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance}")
    eta_vec = np.asarray(DEFAULT_ETAS, dtype=float)
    if eta_steps is not None:
        if eta_steps < 2:
            raise ValueError("eta_steps must be >= 2")
        eta_vec = np.linspace(eta_vec.min(), eta_vec.max(), eta_steps)
    report = VerifyReport(policy=policy, tolerance=tolerance)

    n = len(eta_vec)
    eta1_vec, eta2_vec = np.repeat(eta_vec, n), np.tile(eta_vec, n)
    cross = np.sqrt((1.0 - eta1_vec) * (1.0 - eta2_vec))
    max_gap_err = 0.0
    for r_db in DEFAULT_R_DBS:
        r = r_from_db(r_db)
        # Closed forms over the whole eta mesh.  The independent radicand is
        # the shared one minus the cross term, so the gap check below reads
        # both off one evaluation.
        q_shared = radicand("TMSV_real", r, eta1_vec, eta2_vec)
        expected = q_shared if policy == "shared" else q_shared - cross
        oracle = _stacked(
            lambda e1, e2: tmsv_chain_variance(r, e1, e2, policy), eta1_vec, eta2_vec
        ) / 2.0
        report.two_mode_rows += _rows(
            r_db, {"eta1": eta1_vec, "eta2": eta2_vec}, expected, oracle, tolerance
        )
        if policy == "independent":
            gap = np.abs((q_shared - oracle) - cross).max()
            max_gap_err = max(max_gap_err, float(gap))
        oracle = _stacked(lambda e: smsv_chain_variance(r, e, policy), eta_vec)
        report.single_mode_rows += _rows(
            r_db, {"eta": eta_vec}, radicand("SMSV_real", r, eta_vec), oracle, tolerance
        )
    if policy == "independent":
        report.notes.append(
            "independent ports sit below the shared closed form by exactly "
            "sqrt((1-eta1)(1-eta2)) in the radicand; max deviation from that "
            f"prediction {max_gap_err:.3e}"
        )
    return report
