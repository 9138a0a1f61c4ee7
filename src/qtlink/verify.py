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

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .gaussian import beam_splitter, homodyne_variance, pure_loss, squeeze_single, vacuum
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
    return homodyne_variance(state, (1.0, 1.0))


def smsv_chain_variance(
    r: float, eta: float | np.ndarray, policy: str = "shared"
) -> float | np.ndarray:
    """X variance of a lossy squeezed mode, by explicit matrix algebra (eta may be an array)."""
    state = vacuum(1)
    state = squeeze_single(state, 0, r, 0.0)
    state = pure_loss(state, 0, eta, policy)
    return homodyne_variance(state, (1.0,))


# One report line per point, filled from a chain's columns in order plus its verdict.
_LINES = {
    "two_mode": "  two-mode  r_db=%-4g eta1=%-4g eta2=%-4g "
    "formula=%.12e oracle=%.12e rel_err=%.3e %s\n",
    "single_mode": "  one-mode  r_db=%-4g eta=%-4g "
    "formula=%.12e oracle=%.12e rel_err=%.3e %s\n",
}


@dataclass
class VerifyReport:
    """Oracle variances against the closed forms, one array per column per chain.

    ``two_mode`` maps r_db, eta1, eta2, formula, oracle and rel_err, in that
    order, to aligned 1-d arrays with one element per point; ``single_mode``
    does the same with one eta column.  A point passes when its rel_err is
    at most ``tolerance``.
    """

    policy: str
    tolerance: float
    two_mode: dict
    single_mode: dict
    notes: list = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        errs = np.concatenate([self.two_mode["rel_err"], self.single_mode["rel_err"]])
        return float(errs.max()) if errs.size else 0.0

    @property
    def passed(self) -> bool:
        return bool(
            np.all(self.two_mode["rel_err"] <= self.tolerance)
            and np.all(self.single_mode["rel_err"] <= self.tolerance)
        )

    @property
    def two_mode_rows(self) -> list:
        """One dict per two-mode point: its columns and ``ok``, built on each read."""
        return self._rows(self.two_mode)

    @property
    def single_mode_rows(self) -> list:
        """One dict per one-mode point: its columns and ``ok``, built on each read."""
        return self._rows(self.single_mode)

    def _rows(self, columns: dict) -> list:
        points = zip(*(c.tolist() for c in columns.values()))
        # rel_err is the last column
        return [dict(zip(columns, point), ok=point[-1] <= self.tolerance) for point in points]

    def text(self) -> str:
        """The whole report: a header, one line per point, the notes, a verdict line.

        Each chain's lines come from one %-format of its line template over
        the whole chain.
        """
        parts = [
            f"verify: policy={self.policy} tolerance={self.tolerance:g} "
            f"points={self.two_mode['rel_err'].size}+{self.single_mode['rel_err'].size}\n"
        ]
        for name in ("two_mode", "single_mode"):
            columns = getattr(self, name)
            verdicts = np.where(columns["rel_err"] <= self.tolerance, "ok", "FAIL").tolist()
            cells = zip(*(c.tolist() for c in columns.values()), verdicts)
            values = tuple(itertools.chain.from_iterable(cells))
            parts.append("".join([_LINES[name]] * len(verdicts)) % values)
        parts += [f"  note: {note}\n" for note in self.notes]
        parts.append(f"verify: max_rel_err={self.max_rel_err:.3e} passed={self.passed}\n")
        return "".join(parts)


def _stacked(chain, *etas: np.ndarray) -> np.ndarray:
    """Run ``chain`` over aligned eta vectors, at most _MAX_STACK points per stack."""
    out = np.empty(len(etas[0]))
    for lo in range(0, len(out), _MAX_STACK):
        # A chunk whose losses are all eta = 1 yields one unbatched variance;
        # the slice assignment broadcasts it.
        out[lo : lo + _MAX_STACK] = chain(*(e[lo : lo + _MAX_STACK] for e in etas))
    return out


def _columns(levels: list) -> dict:
    """Concatenate per-level column dicts (r_db, etas, formula, oracle) and add rel_err."""
    columns = {key: np.concatenate([level[key] for level in levels]) for key in levels[0]}
    formula = columns["formula"]
    columns["rel_err"] = np.abs(columns["oracle"] - formula) / np.maximum(np.abs(formula), 1e-300)
    return columns


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
    n = len(eta_vec)
    eta1_vec, eta2_vec = np.repeat(eta_vec, n), np.tile(eta_vec, n)
    cross = np.sqrt((1.0 - eta1_vec) * (1.0 - eta2_vec))
    max_gap_err = 0.0
    two_mode, single_mode = [], []
    for r_db in DEFAULT_R_DBS:
        r = r_from_db(r_db)
        # Closed forms over the whole eta mesh.  The independent radicand is
        # the shared one minus the cross term, so the gap check below reads
        # both off one evaluation.
        q_shared = radicand("TMSV_real", r, eta1_vec, eta2_vec)
        oracle = _stacked(
            lambda e1, e2: tmsv_chain_variance(r, e1, e2, policy), eta1_vec, eta2_vec
        ) / 2.0
        two_mode.append({
            "r_db": np.full(n * n, r_db), "eta1": eta1_vec, "eta2": eta2_vec,
            "formula": q_shared if policy == "shared" else q_shared - cross, "oracle": oracle,
        })
        if policy == "independent":
            gap = np.abs((q_shared - oracle) - cross).max()
            max_gap_err = max(max_gap_err, float(gap))
        single_mode.append({
            "r_db": np.full(n, r_db), "eta": eta_vec,
            "formula": radicand("SMSV_real", r, eta_vec),
            "oracle": _stacked(lambda e: smsv_chain_variance(r, e, policy), eta_vec),
        })
    notes = []
    if policy == "independent":
        notes.append(
            "independent ports sit below the shared closed form by exactly "
            "sqrt((1-eta1)(1-eta2)) in the radicand; max deviation from that "
            f"prediction {max_gap_err:.3e}"
        )
    return VerifyReport(policy, tolerance, _columns(two_mode), _columns(single_mode), notes)
