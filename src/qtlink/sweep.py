"""Parameter sweeps, figure presets, and tabulated results.

Everything downstream of :mod:`qtlink.sensing` is deterministic: a given
spec always produces the identical table, so emitted CSV/JSON files are
byte-stable and can be golden-tested.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import sensing
from .sensing import ChannelPair, SensingConfig

__all__ = [
    "Range",
    "SweepSpec",
    "GridSpec",
    "SweepResult",
    "run_sweep",
    "run_grid",
    "run_compare_smsv",
    "preset_fig2",
    "preset_fig3",
    "preset_fig4",
    "PAPER_SCALE_CONFIG",
    "ETA_RANGE",
]

SWEEP_VARIABLES = ("eta_symmetric", "eta1", "eta2", "r_db", "n_in")
SCHEMES = ("TMSV", "SQL", "SMSV")

# LEO-link scale used by all figure presets: 815 nm carrier, 2*pi MHz
# spectral spread, a 1000-photon budget.
PAPER_SCALE_CONFIG = SensingConfig(
    r_db=5.0, n_in=1e3, lambda0=815e-9, delta_omega=2.0 * math.pi * 1e6
)


@dataclass(frozen=True)
class Range:
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        for name in ("start", "stop"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if not self.start < self.stop:
            raise ValueError(f"need start < stop, got [{self.start}, {self.stop}]")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


# Default transmissivity axis of the eta sweeps, the grid and the presets.
ETA_RANGE = Range(0.01, 1.0, 100)


@dataclass(frozen=True)
class SweepSpec:
    """One-dimensional sweep of a single variable at fixed everything-else."""

    variable: str
    range: Range
    config: SensingConfig = PAPER_SCALE_CONFIG
    channel: ChannelPair = ChannelPair(1.0, 1.0)
    schemes: tuple = SCHEMES

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(
                f"unknown sweep variable {self.variable!r}; pick one of {SWEEP_VARIABLES}"
            )
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown or not self.schemes:
            raise ValueError(f"schemes must be a nonempty subset of {SCHEMES}")
        if self.variable.startswith("eta"):
            if self.range.start <= 0 or self.range.stop > 1.0:
                raise ValueError("eta sweeps must stay inside (0, 1]")
        elif self.variable == "r_db":
            if self.range.start < 0:
                raise ValueError("r_db sweeps must start at >= 0")
        elif self.range.start <= 0:
            raise ValueError("n_in sweeps must stay positive")


@dataclass(frozen=True)
class GridSpec:
    """Two-dimensional (eta1, eta2) grid at fixed squeezing."""

    eta1_range: Range
    eta2_range: Range
    config: SensingConfig = PAPER_SCALE_CONFIG
    quantity: str = "advantage"

    def __post_init__(self):
        for rng in (self.eta1_range, self.eta2_range):
            if rng.start <= 0 or rng.stop > 1.0:
                raise ValueError("eta grids must stay inside (0, 1]")
        if self.quantity not in ("advantage", "delta_u"):
            raise ValueError(f"unknown grid quantity {self.quantity!r}")


@dataclass
class SweepResult:
    """Tabulated sweep output: column names, a 2-D float array of rows, config echo.

    Grid results set ``grid_shape`` = (n_eta1, n_eta2); their rows run over
    eta2 fastest, so any column reshapes straight to the grid.
    """

    columns: list
    rows: np.ndarray
    meta: dict = field(default_factory=dict)
    grid_shape: tuple | None = None

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.size == 0:
            rows = rows.reshape(0, len(self.columns))
        if rows.ndim != 2 or rows.shape[1] != len(self.columns):
            raise ValueError("row width does not match column count")
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            bad = rows[~finite][0].tolist()
            raise ValueError(f"non-finite value in sweep row {bad}")
        self.rows = rows

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]


def _echo(config: SensingConfig, channel: ChannelPair | None = None) -> dict:
    out = {"sensing": asdict(config)}
    if channel is not None:
        out["channel"] = asdict(channel)
    return out


_SCHEME_COLUMNS = {"TMSV": "du_tmsv", "SQL": "du_sql", "SMSV": "du_smsv"}
_KERNEL_SCHEMES = {"TMSV": "TMSV_real", "SQL": "SQL", "SMSV": "SMSV_real"}


def _mesh(scheme: str, cfg: SensingConfig, ch: ChannelPair, **axes) -> np.ndarray:
    """One scheme's offsets with any of eta1, eta2, r_db, n_in replaced by arrays.

    The arrays broadcast against each other; every other input comes from
    ``cfg`` and ``ch``.
    """
    axes = {"eta1": ch.eta1, "eta2": ch.eta2, **axes}
    return sensing.evaluate(_KERNEL_SCHEMES[scheme], cfg, policy=ch.policy, **axes)


def _table(*columns) -> np.ndarray:
    """Broadcast the columns to one shape and lay them out as rows (C order)."""
    return np.stack([c.ravel() for c in np.broadcast_arrays(*columns)], axis=1)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the requested schemes at every point of a one-variable sweep."""
    schemes = [s for s in SCHEMES if s in spec.schemes]
    values = spec.range.values()
    if spec.variable == "eta_symmetric":
        axes = {"eta1": values, "eta2": values}
    else:
        axes = {spec.variable: values}
    du = [_mesh(s, spec.config, spec.channel, **axes) for s in schemes]
    columns = [spec.variable] + [_SCHEME_COLUMNS[s] for s in schemes]
    meta = _echo(spec.config, spec.channel)
    meta["sweep"] = {"variable": spec.variable, **asdict(spec.range)}
    return SweepResult(columns, _table(values, *du), meta)


def run_grid(spec: GridSpec) -> SweepResult:
    """Evaluate the advantage (or the lossy offset) over an (eta1, eta2) grid.

    Advantage rows carry the signed value plus a sign column so that
    no-advantage regions can be extracted without re-deriving them.
    """
    cfg, ch = spec.config, ChannelPair(1.0, 1.0)
    e1 = spec.eta1_range.values()[:, None]
    e2 = spec.eta2_range.values()[None, :]
    du_tmsv = _mesh("TMSV", cfg, ch, eta1=e1, eta2=e2)
    if spec.quantity == "advantage":
        columns = ["eta1", "eta2", "advantage", "sign"]
        adv = _mesh("SQL", cfg, ch, eta1=e1, eta2=e2) - du_tmsv
        rows = _table(e1, e2, adv, np.sign(adv))
    else:
        columns = ["eta1", "eta2", "du_tmsv"]
        rows = _table(e1, e2, du_tmsv)
    meta = _echo(cfg)
    meta["grid"] = {
        "eta1": asdict(spec.eta1_range),
        "eta2": asdict(spec.eta2_range),
        "quantity": spec.quantity,
    }
    return SweepResult(
        columns, rows, meta, grid_shape=(spec.eta1_range.steps, spec.eta2_range.steps)
    )


def run_compare_smsv(spec: SweepSpec) -> SweepResult:
    """Single-mode vs two-mode comparison along a symmetric-loss sweep."""
    if spec.variable != "eta_symmetric":
        raise ValueError("the comparison sweep runs over eta_symmetric only")
    eta = spec.range.values()
    du = {s: _mesh(s, spec.config, spec.channel, eta1=eta, eta2=eta) for s in SCHEMES}
    rows = _table(eta, du["TMSV"], du["SMSV"], du["SQL"], du["SMSV"] / du["TMSV"])
    meta = _echo(spec.config)
    # the etas are swept: echo the policy alone, and only when not the default
    if spec.channel.policy != "shared":
        meta["channel"] = {"policy": spec.channel.policy}
    meta["sweep"] = {"variable": spec.variable, **asdict(spec.range)}
    return SweepResult(["eta", "du_tmsv", "du_smsv", "du_sql", "ratio"], rows, meta)


def _label_db(r_db: float) -> str:
    return f"du_tmsv_{r_db:g}db"


def preset_fig2(
    config: SensingConfig | None = None,
    r_dbs: tuple = (3.0, 7.0, 11.0, 15.0),
    eta_range: Range = ETA_RANGE,
) -> SweepResult:
    """Offset-vs-transmissivity curves for several squeezing levels plus the baseline.

    Each level labels its column ``du_tmsv_{r_db:g}db``; levels whose labels
    repeat (3 and 3.0, or 3 and 3.0000001) are rejected.
    """
    columns = ["eta"] + ["du_sql"] + [_label_db(r) for r in r_dbs]
    repeated = [c for c in columns if columns.count(c) > 1]
    if repeated:
        raise ValueError(f"r_dbs repeat the column label {repeated[0]}")
    cfg, ch = config or PAPER_SCALE_CONFIG, ChannelPair(1.0, 1.0)
    eta = eta_range.values()
    du_sql = _mesh("SQL", cfg, ch, eta1=eta, eta2=eta)
    # one row of offsets per squeezing level; each becomes a column
    levels = np.array(r_dbs, dtype=float)[:, None]
    du_tmsv = _mesh("TMSV", cfg, ch, eta1=eta, eta2=eta, r_db=levels)
    rows = _table(eta, du_sql, *du_tmsv)
    meta = _echo(cfg)
    meta["preset"] = {"name": "fig2", "r_dbs": list(r_dbs), **asdict(eta_range)}
    return SweepResult(columns, rows, meta)


def preset_fig3(
    config: SensingConfig | None = None,
    eta_range: Range = ETA_RANGE,
) -> SweepResult:
    """Advantage surface over asymmetric (eta1, eta2) at fixed 5 dB squeezing."""
    cfg = config or PAPER_SCALE_CONFIG
    result = run_grid(GridSpec(eta_range, eta_range, cfg, "advantage"))
    result.meta["preset"] = {"name": "fig3", **asdict(eta_range)}
    return result


def preset_fig4(
    config: SensingConfig | None = None,
    eta_range: Range = ETA_RANGE,
) -> SweepResult:
    """Single-mode vs two-mode offset curves over symmetric loss at 5 dB."""
    cfg = config or PAPER_SCALE_CONFIG
    result = run_compare_smsv(SweepSpec("eta_symmetric", eta_range, cfg))
    result.meta["preset"] = {"name": "fig4", **asdict(eta_range)}
    return result
