"""Parameter sweeps, figure presets, and tabulated results.

Everything downstream of :mod:`qtlink.sensing` is deterministic: the same
inputs always produce the identical table, so emitted CSV/JSON files are
byte-stable and can be golden-tested.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from . import sensing
from .constants import SWEEP_VARIABLES
from .sensing import PAPER_SCALE_CONFIG, ChannelPair, SensingConfig, require_real

__all__ = [
    "Range",
    "SweepResult",
    "run_sweep",
    "run_grid",
    "run_compare_smsv",
    "preset_fig2",
    "preset_fig3",
    "preset_fig4",
    "PAPER_SCALE_CONFIG",
    "ETA_RANGE",
    "VARIABLES",
]

SCHEMES = ("TMSV", "SQL", "SMSV")


def require_variable(variable) -> None:
    """Raise ValueError unless ``variable`` names a sweep variable.

    Membership compares by equality, so a value that cannot be hashed (a
    JSON list, say) is rejected here rather than failing as a dict key.
    """
    if variable not in SWEEP_VARIABLES:
        raise ValueError(f"unknown sweep variable {variable!r}; pick one of {SWEEP_VARIABLES}")


@dataclass(frozen=True)
class Range:
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        for name in ("start", "stop"):
            value = getattr(self, name)
            require_real(name, value)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if isinstance(self.steps, bool) or not isinstance(self.steps, numbers.Integral):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")
        if not self.start < self.stop:
            raise ValueError(f"need start < stop, got [{self.start}, {self.stop}]")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


# Default transmissivity axis of the eta sweeps, the grid and the presets.
ETA_RANGE = Range(0.01, 1.0, 100)


# sweep variable -> (the config fields it sets, its default range); the keys
# are constants.SWEEP_VARIABLES in order
VARIABLES = {
    "eta_symmetric": (("eta1", "eta2"), ETA_RANGE),
    "eta1": (("eta1",), ETA_RANGE),
    "eta2": (("eta2",), ETA_RANGE),
    "r_db": (("r_db",), Range(0.0, 15.0, 100)),
    "n_in": (("n_in",), Range(1e2, 1e6, 100)),
}


def _require_domain(variable: str, rng: Range) -> None:
    """Raise ValueError unless every value of ``rng`` is a legal ``variable``."""
    if variable.startswith("eta"):
        if rng.start <= 0 or rng.stop > 1.0:
            raise ValueError("eta sweeps must stay inside (0, 1]")
    elif variable == "r_db":
        if rng.start < 0:
            raise ValueError("r_db sweeps must start at >= 0")
    elif rng.start <= 0:
        raise ValueError("n_in sweeps must stay positive")


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


def run_sweep(
    variable: str,
    rng: Range,
    config: SensingConfig = PAPER_SCALE_CONFIG,
    channel: ChannelPair = ChannelPair(1.0, 1.0),
    schemes: tuple = SCHEMES,
) -> SweepResult:
    """Evaluate the requested schemes at every point of a one-variable sweep.

    ``variable`` sets the config fields that :data:`VARIABLES` maps it to;
    every other input comes from ``config`` and ``channel``.
    """
    require_variable(variable)
    unknown = set(schemes) - set(SCHEMES)
    if unknown or not schemes:
        raise ValueError(f"schemes must be a nonempty subset of {SCHEMES}")
    _require_domain(variable, rng)
    kept = [s for s in SCHEMES if s in schemes]
    values = rng.values()
    axes = dict.fromkeys(VARIABLES[variable][0], values)
    du = [_mesh(s, config, channel, **axes) for s in kept]
    columns = [variable] + [_SCHEME_COLUMNS[s] for s in kept]
    meta = _echo(config, channel)
    meta["sweep"] = {"variable": variable, **asdict(rng)}
    return SweepResult(columns, _table(values, *du), meta)


def run_grid(
    eta1_range: Range,
    eta2_range: Range,
    config: SensingConfig = PAPER_SCALE_CONFIG,
    quantity: str = "advantage",
) -> SweepResult:
    """Evaluate the advantage (or the lossy offset) over an (eta1, eta2) grid.

    Advantage rows carry the signed value plus a sign column so that
    no-advantage regions can be extracted without re-deriving them.
    """
    for rng in (eta1_range, eta2_range):
        if rng.start <= 0 or rng.stop > 1.0:
            raise ValueError("eta grids must stay inside (0, 1]")
    if quantity not in ("advantage", "delta_u"):
        raise ValueError(f"unknown grid quantity {quantity!r}")
    ch = ChannelPair(1.0, 1.0)
    e1 = eta1_range.values()[:, None]
    e2 = eta2_range.values()[None, :]
    du_tmsv = _mesh("TMSV", config, ch, eta1=e1, eta2=e2)
    if quantity == "advantage":
        columns = ["eta1", "eta2", "advantage", "sign"]
        adv = _mesh("SQL", config, ch, eta1=e1, eta2=e2) - du_tmsv
        rows = _table(e1, e2, adv, np.sign(adv))
    else:
        columns = ["eta1", "eta2", "du_tmsv"]
        rows = _table(e1, e2, du_tmsv)
    meta = _echo(config)
    meta["grid"] = {
        "eta1": asdict(eta1_range),
        "eta2": asdict(eta2_range),
        "quantity": quantity,
    }
    return SweepResult(
        columns, rows, meta, grid_shape=(eta1_range.steps, eta2_range.steps)
    )


def run_compare_smsv(
    rng: Range,
    config: SensingConfig = PAPER_SCALE_CONFIG,
    channel: ChannelPair = ChannelPair(1.0, 1.0),
) -> SweepResult:
    """Single-mode vs two-mode comparison along a symmetric-loss (eta_symmetric) sweep."""
    _require_domain("eta_symmetric", rng)
    eta = rng.values()
    du = {s: _mesh(s, config, channel, eta1=eta, eta2=eta) for s in SCHEMES}
    rows = _table(eta, du["TMSV"], du["SMSV"], du["SQL"], du["SMSV"] / du["TMSV"])
    meta = _echo(config)
    # the etas are swept: echo the policy alone, and only when not the default
    if channel.policy != "shared":
        meta["channel"] = {"policy": channel.policy}
    meta["sweep"] = {"variable": "eta_symmetric", **asdict(rng)}
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
    result = run_grid(eta_range, eta_range, cfg, "advantage")
    result.meta["preset"] = {"name": "fig3", **asdict(eta_range)}
    return result


def preset_fig4(
    config: SensingConfig | None = None,
    eta_range: Range = ETA_RANGE,
) -> SweepResult:
    """Single-mode vs two-mode offset curves over symmetric loss at 5 dB."""
    cfg = config or PAPER_SCALE_CONFIG
    result = run_compare_smsv(eta_range, cfg)
    result.meta["preset"] = {"name": "fig4", **asdict(eta_range)}
    return result
