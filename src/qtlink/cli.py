"""Command-line front end.

Subcommands: delta-u, sweep, grid, compare, verify, tm-check, and the
figure presets fig2/fig3/fig4.  Parameters come from an optional JSON
config file (sections "sensing", "channel", "link", "sweep") with any flag
overriding the file.  Each subcommand accepts only the flags it reads; any
other flag is a usage error.  Exit codes: 0 success, 1 validation error,
2 verify failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields

import numpy as np

from . import emit, link, sensing, sweep, temporal, verify
from .sensing import ChannelPair, SensingConfig


class VerifyFailure(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; keep 2 reserved for verify failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"argument error: {message}")


def _flag(*names, **kwargs):
    return names, kwargs


# Flag groups, declared once; each command takes the groups it reads.
CONFIG = (_flag("--config", help="JSON config file"),)
SENSING = (
    _flag("--r-db", type=float, help="squeezing level in dB"),
    _flag("--n-in", type=float, help="source photon budget"),
    _flag("--n-lo", type=float, help="local-oscillator photons"),
    _flag("--lambda0-nm", type=float, help="carrier wavelength in nm"),
    _flag("--delta-omega", type=float, help="spectral spread in rad/s"),
    _flag("--split", type=float, help="fraction of photons to path 1"),
    _flag("--snr", type=float, help="detection threshold (default 1)"),
)
ETAS = (
    _flag("--eta", type=float, help="symmetric transmissivity (both paths)"),
    _flag("--eta1", type=float, help="path-1 transmissivity"),
    _flag("--eta2", type=float, help="path-2 transmissivity"),
)
POLICY = (_flag("--policy", choices=("shared", "independent"), help="vacuum-port policy"),)
TABLE = CONFIG + SENSING + POLICY + (
    _flag("--steps", type=int, help="sweep/grid steps"),
    _flag("--format", choices=("csv", "json", "svg"), default="csv",
          help="output format (default csv)"),
    _flag("--out", help="output path (default derived from command)"),
)
LEVELS = (_flag("--levels", help="comma list of iso-levels for SVG output"),)

# flag -> the config fields it sets; a later flag overrides an earlier one
_FLAG_FIELDS = {
    "r_db": ("r_db",), "n_in": ("n_in",), "n_lo": ("n_lo",), "lambda0_nm": ("lambda0",),
    "delta_omega": ("delta_omega",), "split": ("split",), "snr": ("snr",),
    "eta": ("eta1", "eta2"), "eta1": ("eta1",), "eta2": ("eta2",), "policy": ("policy",),
}
_SENSING_FIELDS = {f.name for f in fields(SensingConfig)}
# default ranges of the non-eta sweep variables; the eta ones sweep sweep.ETA_RANGE
_SWEEP_RANGES = {"r_db": sweep.Range(0.0, 15.0, 100), "n_in": sweep.Range(1e2, 1e6, 100)}


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as err:
        raise OSError(f"could not read config file {path!r}: {err}") from err
    except json.JSONDecodeError as err:
        raise ValueError(f"config file {path!r} is not valid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ValueError(f"config file {path!r} must hold a JSON object")
    return data


def _budget_eta(entry: dict) -> float:
    if "geometry" in entry:
        geom = link.LinkGeometry(**entry["geometry"])
        budget = link.budget_from_geometry(
            geom, entry.get("eta_detector", 1.0)
        )
    else:
        budget = link.LinkBudget(
            **{k: v for k, v in entry.items() if k.startswith("eta_")}
        )
    return link.compose_eta(budget)


def _resolve(args):
    """Merge config file and flags into a SensingConfig + ChannelPair + sweep section."""
    file_cfg = _load_config_file(args.config)
    given = {}
    for name, targets in _FLAG_FIELDS.items():
        if getattr(args, name, None) is not None:
            given.update(dict.fromkeys(targets, getattr(args, name)))
    sensing_cfg = dict(file_cfg.get("sensing", {}))
    if "lambda0" in given:
        given["lambda0"] *= 1e-9
        sensing_cfg.pop("omega0", None)
    sensing_cfg.update((k, v) for k, v in given.items() if k in _SENSING_FIELDS)
    defaults = asdict(sweep.PAPER_SCALE_CONFIG)
    if "omega0" in sensing_cfg and sensing_cfg.get("omega0") is not None:
        defaults["lambda0"] = None
    defaults.update(sensing_cfg)
    cfg = SensingConfig(**defaults)

    channel_cfg = dict(file_cfg.get("channel", {}))
    link_cfg = file_cfg.get("link", {})
    if link_cfg:
        if "path1" in link_cfg or "path2" in link_cfg:
            if "path1" in link_cfg:
                channel_cfg.setdefault("eta1", _budget_eta(link_cfg["path1"]))
            if "path2" in link_cfg:
                channel_cfg.setdefault("eta2", _budget_eta(link_cfg["path2"]))
        else:
            eta = _budget_eta(link_cfg)
            channel_cfg.setdefault("eta1", eta)
            channel_cfg.setdefault("eta2", eta)
    channel_cfg.update((k, v) for k, v in given.items() if k not in _SENSING_FIELDS)
    channel_cfg.setdefault("eta1", 1.0)
    channel_cfg.setdefault("eta2", 1.0)
    ch = ChannelPair(**channel_cfg)
    return cfg, ch, file_cfg.get("sweep", {})


def _comma_list(args, name: str, convert=float):
    """The parts of comma-list flag ``name`` as a tuple; None when the flag is absent.

    An empty part, or with ``convert=float`` a part that is not a finite
    number, is rejected naming the flag.
    """
    text = getattr(args, name, None)
    if text is None:
        return None
    parts = [part.strip() for part in text.split(",")]
    try:
        values = tuple(map(convert, parts))
        ok = all(parts) and (convert is not float or all(map(math.isfinite, values)))
    except ValueError:
        ok = False
    if not ok:
        flag = "--" + name.replace("_", "-")
        raise ValueError(f"{flag} has an empty or non-finite part in {text!r}")
    return values


def _range(args, file_sweep: dict, default: sweep.Range = sweep.ETA_RANGE) -> sweep.Range:
    """Each of start/stop/steps from its flag, else the file's sweep section, else ``default``."""
    bounds = {}
    for key in ("start", "stop", "steps"):
        value = getattr(args, key, None)
        bounds[key] = value if value is not None else file_sweep.get(key, getattr(default, key))
    return sweep.Range(**bounds)


def _sweep(args, cfg, ch, file_sweep) -> sweep.SweepResult:
    variable = args.variable or file_sweep.get("variable", "eta_symmetric")
    swept = {"eta_symmetric": {"eta1", "eta2"}}.get(variable, {variable})
    clash = [
        "--" + name.replace("_", "-")
        for name, targets in _FLAG_FIELDS.items()
        if getattr(args, name) is not None and swept & set(targets)
    ]
    if clash:
        raise ValueError(f"{', '.join(clash)} sets {variable}, the swept variable")
    rng = _range(args, file_sweep, _SWEEP_RANGES.get(variable, sweep.ETA_RANGE))
    schemes = _comma_list(args, "schemes", str.upper)
    return sweep.run_sweep(sweep.SweepSpec(variable, rng, cfg, ch, schemes))


def _grid(args, cfg, ch, file_sweep) -> sweep.SweepResult:
    rng = _range(args, file_sweep)
    return sweep.run_grid(sweep.GridSpec(rng, rng, cfg, args.quantity))


# table command -> builder of its SweepResult from (args, config, channel,
# the config file's sweep section)
_BUILDERS = {
    "sweep": _sweep,
    "grid": _grid,
    "compare": lambda a, cfg, ch, fs: sweep.run_compare_smsv(
        sweep.SweepSpec("eta_symmetric", _range(a, fs), cfg, ch)
    ),
    "fig2": lambda a, cfg, ch, fs: sweep.preset_fig2(cfg, _comma_list(a, "r_dbs"), _range(a, fs)),
    "fig3": lambda a, cfg, ch, fs: sweep.preset_fig3(cfg, _range(a, fs)),
    "fig4": lambda a, cfg, ch, fs: sweep.preset_fig4(cfg, _range(a, fs)),
}
# the grid and the figure presets fix their own channels to the shared model
_SHARED_ONLY = ("grid", "fig2", "fig3", "fig4")


def _cmd_table(args) -> int:
    """Every table command: resolve, build its SweepResult, emit it."""
    cfg, ch, file_sweep = _resolve(args)
    if args.command in _SHARED_ONLY and ch.policy != "shared":
        raise ValueError(
            f"{args.command} supports only the shared vacuum policy, got {ch.policy!r}"
        )
    result = _BUILDERS[args.command](args, cfg, ch, file_sweep)
    path = args.out or f"{args.command}.{args.format}"
    emit.write_result(result, args.format, path, levels=_comma_list(args, "levels"))
    print(f"wrote {path}")
    return 0


def _cmd_delta_u(args) -> int:
    cfg, ch, _ = _resolve(args)
    values = {
        "TMSV_ideal": sensing.delta_u_tmsv_ideal(cfg).delta_u,
        "TMSV_real": sensing.delta_u_tmsv_real(cfg, ch).delta_u,
        "SQL": sensing.delta_u_sql(cfg, ch).delta_u,
        "SMSV_real": sensing.delta_u_smsv_real(cfg, ch.eta1).delta_u,
    }
    if args.format == "json":
        text = json.dumps(values, sort_keys=True, indent=2) + "\n"
    else:
        text = "scheme,delta_u_s\n" + "".join(f"{k},{v:.8e}\n" for k, v in values.items())
    if args.out:
        emit.write_text(text, args.format, args.out)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    print(
        f"# advantage (SQL - TMSV): {sensing.quantum_advantage(cfg, ch):.8e} s",
        file=sys.stderr,
    )
    return 0


def _cmd_verify(args) -> int:
    # the oracle reads only the vacuum policy: the flag, else the file's channel section
    channel = _load_config_file(args.config).get("channel", {})
    if not isinstance(channel, dict):
        raise ValueError("config section 'channel' must be a JSON object")
    policy = args.policy or channel.get("policy", "shared")
    report = verify.run_verify(tolerance=args.tol, policy=policy, eta_steps=args.eta_steps)
    for line in report.summary_lines():
        print(line)
    if not report.passed:
        raise VerifyFailure(
            f"oracle cross-check failed: max relative error {report.max_rel_err:.3e}"
        )
    return 0


def _cmd_tm_check(args) -> int:
    profile = temporal.SpectralProfile(
        args.omega0, args.spread, grid_points=args.points, grid_span=args.span
    )
    params = temporal.timing_params(profile)
    y0, y1, z1 = temporal.mode_functions(profile)
    overlap01 = abs(temporal.inner_product(y0, y1))
    overlap_z0 = abs(temporal.inner_product(z1, y0))
    expected_overlap = params.big_omega / math.sqrt(params.big_omega**2 + 1.0)
    print(f"u0 = {params.u0:.12e} s, Omega = {params.big_omega:.6f}")
    print(f"carrier/spread ratio (monochromaticity): {args.spread / args.omega0:.3e}")
    print(f"|<y0,y0>-1| = {abs(y0.norm() - 1.0):.3e}")
    print(f"|<y1,y1>-1| = {abs(y1.norm() - 1.0):.3e}")
    print(f"|<z1,z1>-1| = {abs(z1.norm() - 1.0):.3e}")
    print(f"|<y0,y1>|   = {overlap01:.3e}")
    print(f"|<z1,y0>| - Omega/sqrt(Omega^2+1) = {overlap_z0 - expected_overlap:.3e}")
    ratios = np.logspace(-4, -2, 9)
    residuals = [
        temporal.shift_expansion_check(profile, ratio * params.u0) for ratio in ratios
    ]
    slope = float(np.polyfit(np.log(ratios), np.log(residuals), 1)[0])
    for ratio, res in zip(ratios, residuals):
        print(f"du/u0 = {ratio:.3e} -> residual {res:.6e}")
    print(f"log-log residual slope = {slope:.4f} (expect 2)")
    ok = (
        overlap01 < 1e-8
        and abs(y0.norm() - 1.0) < 1e-8
        and abs(z1.norm() - 1.0) < 1e-8
        and abs(slope - 2.0) < 0.1
    )
    print(f"tm-check {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


# command -> (help, flags, handler of the parsed args)
COMMANDS = {
    "delta-u": ("evaluate all schemes at one point", CONFIG + SENSING + ETAS + POLICY + (
        _flag("--format", choices=("csv", "json"), default="csv",
              help="output format (default csv)"),
        _flag("--out", help="write the table to this path instead of stdout"),
    ), _cmd_delta_u),
    "sweep": ("sweep one variable", TABLE + ETAS + (
        _flag("--variable", choices=sweep.SWEEP_VARIABLES),
        _flag("--start", type=float),
        _flag("--stop", type=float),
        _flag("--schemes", default="TMSV,SQL,SMSV", help="comma list from TMSV,SQL,SMSV"),
    ), _cmd_table),
    "grid": ("advantage over an (eta1, eta2) grid", TABLE + LEVELS + (
        _flag("--quantity", choices=("advantage", "delta_u"), default="advantage"),
    ), _cmd_table),
    "compare": ("single-mode vs two-mode comparison sweep", TABLE, _cmd_table),
    "verify": ("cross-check closed forms against the oracle", CONFIG + POLICY + (
        _flag("--tol", type=float, default=1e-9),
        _flag("--eta-steps", type=int, help="refine the eta grid"),
    ), _cmd_verify),
    "tm-check": ("temporal-mode diagnostics (natural units)", (
        _flag("--omega0", type=float, default=10.0),
        _flag("--spread", type=float, default=1.0, help="spectral spread"),
        _flag("--points", type=int, default=4096),
        _flag("--span", type=float, default=8.0),
    ), _cmd_tm_check),
    "fig2": ("reproduce the fig2 preset", TABLE + (
        _flag("--r-dbs", default="3,7,11,15", help="comma list of squeezing levels"),
    ), _cmd_table),
    "fig3": ("reproduce the fig3 preset", TABLE + LEVELS, _cmd_table),
    "fig4": ("reproduce the fig4 preset", TABLE, _cmd_table),
}


def build_parser() -> _Parser:
    # no prefix matching: verify --eta would otherwise set --eta-steps
    parser = _Parser(prog="qtlink", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, run) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for names, kwargs in flags:
            p.add_argument(*names, **kwargs)
        p.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (VerifyFailure, ValueError, TypeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, VerifyFailure) else 3 if isinstance(err, OSError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
