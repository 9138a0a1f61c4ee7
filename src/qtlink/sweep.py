"""Parameter sweeps, figure presets, and tabulated results.

Everything downstream of :mod:`qtlink.sensing` is deterministic: the same
inputs always produce the identical table, so emitted CSV/JSON files are
byte-stable and can be golden-tested.
"""

from __future__ import annotations

import numpy as np

from . import sensing
from .constants import SWEEP_VARIABLES, Record, asdict, require, require_real
from .sensing import PAPER_SCALE_CONFIG, ChannelPair, SensingConfig

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
    "MAX_STEPS",
    "MAX_GRID_STEPS",
]


def require_variable(variable) -> None:
    """Raise ValueError unless ``variable`` names a sweep variable.

    Membership compares by equality, so a value that cannot be hashed (a
    JSON list, say) is rejected here rather than failing as a dict key.
    """
    if variable not in SWEEP_VARIABLES:
        raise ValueError(f"unknown sweep variable {variable!r}; pick one of {SWEEP_VARIABLES}")


# Most points on one axis: a 1-d table of 10**5 rows is ~15 MB of JSON.
MAX_STEPS = 10**5
# Most points on each axis of a grid: 500 x 500 = 250,000 cells, ~26 MB of JSON.
MAX_GRID_STEPS = 500


class Range(Record):
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        require("steps", self.steps, self.steps >= 2, ">= 2")
        require("steps", self.steps, self.steps <= MAX_STEPS, f"<= {MAX_STEPS}")
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
    """Raise ValueError unless every value of ``rng`` is a legal ``variable``: every eta
    axis is checked here, as a scheme may read no eta2, and the kernel bounds r_db."""
    if variable.startswith("eta"):
        if rng.start <= 0 or rng.stop > 1.0:
            raise ValueError("eta sweeps must stay inside (0, 1]")
    elif variable == "n_in" and rng.start <= 0:
        raise ValueError("n_in sweeps must stay positive")


class SweepResult(Record):
    """Tabulated sweep output: column names, a 2-D float array of rows, config echo.

    At least two rows.  A grid sets ``grid_shape`` = (n_eta1, n_eta2), integers >= 2
    whose product is the row count, over >= 3 columns (two axes and a value); its
    rows run over eta2 fastest, so any column reshapes straight to the grid.
    """

    columns: list
    rows: np.ndarray
    meta: dict | None = None
    grid_shape: tuple | None = None

    def __post_init__(self):
        rows, width, shape = np.asarray(self.rows, dtype=float), len(self.columns), self.grid_shape
        ok = rows.ndim == 2 and rows.shape[0] >= 2 and rows.shape[1] == width
        require("rows", rows.shape, ok, f"of shape (>= 2, {width}), one value per column")
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            bad = rows[~finite][0].tolist()
            raise ValueError(f"non-finite value in sweep row {bad}")
        if shape is not None:
            require("grid_shape", shape, type(shape) is tuple and len(shape) == 2, "a 2-tuple")
            for n in shape:
                require_real("grid_shape", n, integer=True)
            shape = (int(shape[0]), int(shape[1]))
            ok = min(shape) >= 2 and shape[0] * shape[1] == len(rows) and width >= 3
            require("grid_shape", shape, ok, f"two axes >= 2, {len(rows)} cells, >= 3 columns")
            object.__setattr__(self, "grid_shape", shape)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "meta", {} if self.meta is None else self.meta)

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]


def _echo(config: SensingConfig, channel: ChannelPair | None = None) -> dict:
    out = {"sensing": asdict(config)}
    if channel is not None:
        out["channel"] = asdict(channel)
    return out


def _table(*columns) -> np.ndarray:
    """Broadcast the columns to one shape and lay them out as rows (C order)."""
    return np.stack([c.ravel() for c in np.broadcast_arrays(*columns)], axis=1)


def run_sweep(
    variable: str,
    rng: Range,
    config: SensingConfig = PAPER_SCALE_CONFIG,
    channel: ChannelPair = ChannelPair(1.0, 1.0),
    schemes: tuple = tuple(sensing.SWEPT),
) -> SweepResult:
    """Evaluate the requested schemes at every point of a one-variable sweep.

    ``schemes`` holds aliases of :data:`sensing.SWEPT`.  ``variable`` sets
    the config fields that :data:`VARIABLES` maps it to; every other input
    comes from ``config`` and ``channel``.
    """
    require_variable(variable)
    unknown = set(schemes) - set(sensing.SWEPT)
    if unknown or not schemes:
        raise ValueError(f"schemes must be a nonempty subset of {tuple(sensing.SWEPT)}")
    _require_domain(variable, rng)
    kept = [scheme for alias, scheme in sensing.SWEPT.items() if alias in schemes]
    values = rng.values()
    axes = dict.fromkeys(VARIABLES[variable][0], values)
    du = [sensing.evaluate(scheme, config, channel, **axes) for scheme in kept]
    columns = [variable] + [sensing.SCHEMES[scheme][1] for scheme in kept]
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
    for variable, rng in (("eta1", eta1_range), ("eta2", eta2_range)):
        _require_domain(variable, rng)
        require("steps", rng.steps, rng.steps <= MAX_GRID_STEPS, f"<= {MAX_GRID_STEPS}")
    if quantity not in ("advantage", "delta_u"):
        raise ValueError(f"unknown grid quantity {quantity!r}")
    mesh = {"eta1": eta1_range.values()[:, None], "eta2": eta2_range.values()[None, :]}
    du_tmsv = sensing.evaluate("TMSV_real", config, **mesh)
    if quantity == "advantage":
        columns = ["eta1", "eta2", "advantage", "sign"]
        adv = sensing.evaluate("SQL", config, **mesh) - du_tmsv
        rows = _table(*mesh.values(), adv, np.sign(adv))
    else:
        columns = ["eta1", "eta2", sensing.SCHEMES["TMSV_real"][1]]
        rows = _table(*mesh.values(), du_tmsv)
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
    shown = ("TMSV_real", "SMSV_real", "SQL")
    du = {s: sensing.evaluate(s, config, channel, eta1=eta, eta2=eta) for s in shown}
    rows = _table(eta, *du.values(), du["SMSV_real"] / du["TMSV_real"])
    meta = _echo(config)
    # the etas are swept: echo the policy alone, and only when not the default
    if channel.policy != "shared":
        meta["channel"] = {"policy": channel.policy}
    meta["sweep"] = {"variable": "eta_symmetric", **asdict(rng)}
    columns = ["eta", *(sensing.SCHEMES[s][1] for s in shown), "ratio"]
    return SweepResult(columns, rows, meta)


def preset_fig2(
    config: SensingConfig = PAPER_SCALE_CONFIG,
    r_dbs: tuple = (3.0, 7.0, 11.0, 15.0),
    eta_range: Range = ETA_RANGE,
) -> SweepResult:
    """Offset-vs-transmissivity curves for several squeezing levels plus the baseline.

    Each level labels its column ``du_tmsv_{r_db:g}db``; levels whose labels
    repeat (3 and 3.0, or 3 and 3.0000001) are rejected.
    """
    tmsv, sql = sensing.SCHEMES["TMSV_real"][1], sensing.SCHEMES["SQL"][1]
    columns = ["eta", sql] + [f"{tmsv}_{r:g}db" for r in r_dbs]
    repeated = [c for c in columns if columns.count(c) > 1]
    if repeated:
        raise ValueError(f"r_dbs repeat the column label {repeated[0]}")
    _require_domain("eta_symmetric", eta_range)
    eta = eta_range.values()
    du_sql = sensing.evaluate("SQL", config, eta1=eta, eta2=eta)
    # one row of offsets per squeezing level; each becomes a column
    levels = np.array(r_dbs, dtype=float)[:, None]
    du_tmsv = sensing.evaluate("TMSV_real", config, eta1=eta, eta2=eta, r_db=levels)
    rows = _table(eta, du_sql, *du_tmsv)
    meta = _echo(config)
    meta["preset"] = {"name": "fig2", "r_dbs": list(r_dbs), **asdict(eta_range)}
    return SweepResult(columns, rows, meta)


def preset_fig3(
    config: SensingConfig = PAPER_SCALE_CONFIG,
    eta_range: Range = ETA_RANGE,
) -> SweepResult:
    """Advantage surface over asymmetric (eta1, eta2) at fixed 5 dB squeezing."""
    result = run_grid(eta_range, eta_range, config, "advantage")
    result.meta["preset"] = {"name": "fig3", **asdict(eta_range)}
    return result


def preset_fig4(
    config: SensingConfig = PAPER_SCALE_CONFIG,
    eta_range: Range = ETA_RANGE,
) -> SweepResult:
    """Single-mode vs two-mode offset curves over symmetric loss at 5 dB."""
    result = run_compare_smsv(eta_range, config)
    result.meta["preset"] = {"name": "fig4", **asdict(eta_range)}
    return result
