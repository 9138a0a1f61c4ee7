"""Cross-check of the closed-form noise terms against the covariance engine.

The two-mode chain prepares the entangled probe from scratch (two squeezed
vacua on a 50:50 splitter), pushes both modes through lossy channels, and
reads the summed-X homodyne variance straight off the covariance matrix.
Under the shared vacuum-port policy that variance must equal 2*Q with Q the
closed-form radicand; under independent ports it must fall short of 2*Q by
exactly twice the sqrt((1-eta1)(1-eta2)) cross term.  The single-mode chain
checks the squeezed-mode radicand eta*e^-2r + (1-eta) the same way.

Both chains take whole-grid arrays, so the oracle costs a handful of
broadcast matrix products rather than a chain of validated states per
(r, eta1, eta2) point.  The closed forms and the one-mode chain run over
every squeezing level at once.  The two-mode chain runs once per level: it
takes the eta axis as a column (eta1) and a row (eta2), so the first loss
runs once per eta1 and only the second loss and the readout carry the
eta1 x eta2 mesh, whose size MAX_ETA_STEPS bounds.  The report's lines are
filled by ``constants.format_rows``, the formatter of the CSV and JSON rows.
"""

from __future__ import annotations

import numpy as np

from .constants import FLOAT_MAX, Record, format_rows, require, require_real
from .gaussian import beam_splitter, homodyne_variance, pure_loss, squeeze_single, vacuum
from .sensing import r_from_db, radicand

__all__ = [
    "VerifyReport",
    "tmsv_chain_variance",
    "smsv_chain_variance",
    "run_verify",
    "DEFAULT_R_DBS",
    "DEFAULT_ETAS",
    "MAX_ETA_STEPS",
]

DEFAULT_R_DBS = (0.0, 3.0, 5.0, 15.0)
DEFAULT_ETAS = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)

# Largest eta_steps: its report holds 4 * 200**2 = 160,000 two-mode lines of
# ~124 bytes, ~20 MB of text.
MAX_ETA_STEPS = 200


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


# One report line per point, filled from a chain's columns in order plus its
# verdict; a grid column (r_db or an eta) prints as %-4g.
_LINES = {
    "two_mode": "  two-mode  r_db=%s eta1=%s eta2=%s formula=%s oracle=%s rel_err=%s %s\n",
    "single_mode": "  one-mode  r_db=%s eta=%s formula=%s oracle=%s rel_err=%s %s\n",
}
_TEMPLATES = {"formula": "%.12e", "oracle": "%.12e", "rel_err": "%.3e"}


class VerifyReport(Record):
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
    notes: list | None = None

    def __post_init__(self):
        object.__setattr__(self, "notes", [] if self.notes is None else self.notes)

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

        Each chain's lines are filled by :func:`format_rows`, which formats
        each distinct value of a column once.
        """
        parts = [
            f"verify: policy={self.policy} tolerance={self.tolerance:g} "
            f"points={self.two_mode['rel_err'].size}+{self.single_mode['rel_err'].size}\n"
        ]
        for name in ("two_mode", "single_mode"):
            columns = getattr(self, name)
            # two shared strings, not one string object per point
            ok = columns["rel_err"] <= self.tolerance
            verdicts = np.array(["FAIL", "ok"], dtype=object)[ok.astype(int)]
            templates = [*(_TEMPLATES.get(key, "%-4g") for key in columns), None]
            parts.append(format_rows(_LINES[name], [*columns.values(), verdicts], templates))
        parts += [f"  note: {note}\n" for note in self.notes]
        parts.append(f"verify: max_rel_err={self.max_rel_err:.3e} passed={self.passed}\n")
        return "".join(parts)


def _chain(grid: dict, formula: np.ndarray, oracle: np.ndarray) -> dict:
    """A chain's columns: the ``grid`` columns, formula, oracle and rel_err.

    Every array is broadcast to the chain's grid and flattened, last axis fastest.
    """
    arrays = np.broadcast_arrays(*grid.values(), formula, oracle)
    columns = dict(zip([*grid, "formula", "oracle"], (a.ravel() for a in arrays)))
    formula, oracle = columns["formula"], columns["oracle"]
    columns["rel_err"] = np.abs(oracle - formula) / np.maximum(np.abs(formula), 1e-300)
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
    require_real("tolerance", tolerance)
    require("tolerance", tolerance, 0.0 < tolerance <= FLOAT_MAX, "finite and > 0")
    eta_vec = np.asarray(DEFAULT_ETAS, dtype=float)
    if eta_steps is not None:
        require_real("eta_steps", eta_steps, integer=True)
        require("eta_steps", eta_steps, eta_steps >= 2, ">= 2")
        require("eta_steps", eta_steps, eta_steps <= MAX_ETA_STEPS, f"<= {MAX_ETA_STEPS}")
        eta_vec = np.linspace(eta_vec.min(), eta_vec.max(), eta_steps)
    r_db = np.array(DEFAULT_R_DBS)
    r = r_from_db(r_db)
    eta1, eta2 = eta_vec[:, None], eta_vec[None, :]
    # Closed forms over every level and the whole eta mesh at once, levels on
    # the first axis.  The independent radicand is the shared one minus the
    # cross term, so the gap check below reads both off one evaluation.
    q_shared = radicand("TMSV_real", r[:, None, None], eta1, eta2)
    cross = np.sqrt((1.0 - eta1) * (1.0 - eta2))
    # One two-mode chain per level: one chain over every level would hold all
    # the levels' covariance meshes at once.
    oracle = np.stack([tmsv_chain_variance(level, eta1, eta2, policy) for level in r.tolist()])
    oracle /= 2.0
    two_mode = _chain(
        {"r_db": r_db[:, None, None], "eta1": eta1, "eta2": eta2},
        q_shared if policy == "shared" else q_shared - cross, oracle,
    )
    single_mode = _chain(
        {"r_db": r_db[:, None], "eta": eta_vec},
        radicand("SMSV_real", r[:, None], eta_vec),
        smsv_chain_variance(r[:, None], eta_vec, policy),
    )
    notes = []
    if policy == "independent":
        gap = np.abs((q_shared - oracle) - cross).max()
        notes.append(
            "independent ports sit below the shared closed form by exactly "
            "sqrt((1-eta1)(1-eta2)) in the radicand; max deviation from that "
            f"prediction {gap:.3e}"
        )
    return VerifyReport(policy, tolerance, two_mode, single_mode, notes)
