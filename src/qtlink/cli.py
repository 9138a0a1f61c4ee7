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
import math
import sys
from dataclasses import asdict, fields

import numpy as np

# every layer is registered lazily by the package: binding one here loads nothing
from . import emit, link, sensing, sweep, temporal, verify
from .constants import SWEEP_VARIABLES


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


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    import json

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


def _section(parent: dict, key: str, name: str | None = None) -> dict:
    """``parent[key]`` (an empty dict when absent), which must be a JSON object.

    ``name`` is how an error names the entry; it defaults to ``key``.
    """
    value = parent.get(key, {})
    if not isinstance(value, dict):
        raise ValueError(f"config section {name or key!r} must be a JSON object")
    return value


def _require_keys(entry: dict, allowed: tuple, name: str) -> None:
    """Reject a key of config entry ``name`` that is not in ``allowed``, naming both."""
    unknown = [key for key in entry if key not in allowed]
    if unknown:
        raise ValueError(
            f"config entry {name!r} has unknown key {unknown[0]!r}; "
            f"it may hold {', '.join(allowed)}"
        )


def _budget_eta(parent: dict, key: str, name: str) -> float:
    """Composed eta of the link entry ``parent[key]``, called ``name`` in errors.

    The entry holds a geometry block with an optional detector factor, or
    the three loss factors themselves.
    """
    entry = _section(parent, key, name)
    if "geometry" in entry:
        _require_keys(entry, ("geometry", "eta_detector"), name)
        geom = link.LinkGeometry(**_section(entry, "geometry", f"{name}.geometry"))
        return link.compose_eta(
            link.diffraction_eta(geom), link.pointing_eta(geom), entry.get("eta_detector", 1.0)
        )
    _require_keys(entry, ("eta_diffraction", "eta_pointing", "eta_detector"), name)
    return link.compose_eta(**entry)


def _resolve(args):
    """Merge config file and flags into a SensingConfig + ChannelPair + sweep section."""
    file_cfg = _load_config_file(args.config)
    sensing_fields = {f.name for f in fields(sensing.SensingConfig)}
    given = {}
    for name, targets in _FLAG_FIELDS.items():
        if getattr(args, name, None) is not None:
            given.update(dict.fromkeys(targets, getattr(args, name)))
    sensing_cfg = dict(_section(file_cfg, "sensing"))
    if "lambda0" in given:
        given["lambda0"] *= 1e-9
        sensing_cfg.pop("omega0", None)
    sensing_cfg.update((k, v) for k, v in given.items() if k in sensing_fields)
    defaults = asdict(sensing.PAPER_SCALE_CONFIG)
    if "omega0" in sensing_cfg and sensing_cfg.get("omega0") is not None:
        defaults["lambda0"] = None
    defaults.update(sensing_cfg)
    cfg = sensing.SensingConfig(**defaults)

    channel_cfg = dict(_section(file_cfg, "channel"))
    link_cfg = _section(file_cfg, "link")
    if link_cfg:
        if "path1" in link_cfg or "path2" in link_cfg:
            _require_keys(link_cfg, ("path1", "path2"), "link")
            if "path1" in link_cfg:
                channel_cfg.setdefault("eta1", _budget_eta(link_cfg, "path1", "link.path1"))
            if "path2" in link_cfg:
                channel_cfg.setdefault("eta2", _budget_eta(link_cfg, "path2", "link.path2"))
        else:
            eta = _budget_eta(file_cfg, "link", "link")
            channel_cfg.setdefault("eta1", eta)
            channel_cfg.setdefault("eta2", eta)
    channel_cfg.update((k, v) for k, v in given.items() if k not in sensing_fields)
    channel_cfg.setdefault("eta1", 1.0)
    channel_cfg.setdefault("eta2", 1.0)
    ch = sensing.ChannelPair(**channel_cfg)
    return cfg, ch, _section(file_cfg, "sweep")


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


def _range(args, file_sweep: dict, default: sweep.Range | None = None) -> sweep.Range:
    """Each of start/stop/steps from its flag, else the file's sweep section, else ``default``.

    ``default`` is ``sweep.ETA_RANGE`` when None.
    """
    default = default or sweep.ETA_RANGE
    bounds = {}
    for key in ("start", "stop", "steps"):
        value = getattr(args, key, None)
        bounds[key] = value if value is not None else file_sweep.get(key, getattr(default, key))
    return sweep.Range(**bounds)


def _sweep(args, cfg, ch, file_sweep) -> sweep.SweepResult:
    variable = args.variable or file_sweep.get("variable", "eta_symmetric")
    sweep.require_variable(variable)
    swept, default = sweep.VARIABLES[variable]
    clash = [
        "--" + name.replace("_", "-")
        for name, targets in _FLAG_FIELDS.items()
        if getattr(args, name) is not None and set(swept) & set(targets)
    ]
    if clash:
        raise ValueError(f"{', '.join(clash)} sets {variable}, the swept variable")
    rng = _range(args, file_sweep, default)
    schemes = _comma_list(args, "schemes", str.upper)
    return sweep.run_sweep(variable, rng, cfg, ch, schemes)


def _grid(args, cfg, ch, file_sweep) -> sweep.SweepResult:
    rng = _range(args, file_sweep)
    return sweep.run_grid(rng, rng, cfg, args.quantity)


# table command -> builder of its SweepResult from (args, config, channel,
# the config file's sweep section)
_BUILDERS = {
    "sweep": _sweep,
    "grid": _grid,
    "compare": lambda a, cfg, ch, fs: sweep.run_compare_smsv(_range(a, fs), cfg, ch),
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
        "TMSV_ideal": sensing.delta_u_tmsv_ideal(cfg),
        "TMSV_real": sensing.delta_u_tmsv_real(cfg, ch),
        "SQL": sensing.delta_u_sql(cfg, ch),
        "SMSV_real": sensing.delta_u_smsv_real(cfg, ch.eta1),
    }
    if args.format == "json":
        import json

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
    channel = _section(_load_config_file(args.config), "channel")
    policy = args.policy or channel.get("policy", "shared")
    report = verify.run_verify(tolerance=args.tol, policy=policy, eta_steps=args.eta_steps)
    sys.stdout.write(report.text())
    if not report.passed:
        raise VerifyFailure(
            f"oracle cross-check failed: max relative error {report.max_rel_err:.3e}"
        )
    return 0


def _cmd_tm_check(args) -> int:
    profile = temporal.SpectralProfile(
        args.omega0, args.spread, grid_points=args.points, grid_span=args.span
    )
    # shift_expansion_check tests the grid before it samples, so a grid too
    # coarse for the check exits before any report line is printed
    ratios = np.logspace(-4, -2, 9)
    residuals = [
        temporal.shift_expansion_check(profile, ratio * profile.u0) for ratio in ratios
    ]
    slope = float(np.polyfit(np.log(ratios), np.log(residuals), 1)[0])
    y0, y1, z1 = temporal.mode_functions(profile)
    overlap01 = abs(temporal.inner_product(y0, y1))
    overlap_z0 = abs(temporal.inner_product(z1, y0))
    big_omega = profile.big_omega
    expected_overlap = big_omega / math.sqrt(big_omega**2 + 1.0)
    print(f"u0 = {profile.u0:.12e} s, Omega = {big_omega:.6f}")
    print(f"carrier/spread ratio (monochromaticity): {args.spread / args.omega0:.3e}")
    print(f"|<y0,y0>-1| = {abs(y0.norm() - 1.0):.3e}")
    print(f"|<y1,y1>-1| = {abs(y1.norm() - 1.0):.3e}")
    print(f"|<z1,z1>-1| = {abs(z1.norm() - 1.0):.3e}")
    print(f"|<y0,y1>|   = {overlap01:.3e}")
    print(f"|<z1,y0>| - Omega/sqrt(Omega^2+1) = {overlap_z0 - expected_overlap:.3e}")
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
        _flag("--variable", choices=SWEEP_VARIABLES),
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


def build_parser(command: str | None = None) -> _Parser:
    """The parser of every command, or of ``command`` alone when it names one.

    Parsing a command's argv needs only its own subparser; usage lines, help
    and errors read the same either way.
    """
    # no prefix matching: verify --eta would otherwise set --eta-steps
    parser = _Parser(prog="qtlink", description=__doc__, allow_abbrev=False)
    built = [command] if command in COMMANDS else list(COMMANDS)
    # the usage line lists every command even when one subparser is built
    metavar = "{" + ",".join(COMMANDS) + "}" if len(built) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in built:
        help_text, flags, run = COMMANDS[name]
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for names, kwargs in flags:
            p.add_argument(*names, **kwargs)
        p.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        return args.run(args)
    except (VerifyFailure, ValueError, TypeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2 if isinstance(err, VerifyFailure) else 3 if isinstance(err, OSError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
