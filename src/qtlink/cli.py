"""Command-line front end.

Subcommands: delta-u, sweep, grid, compare, verify, tm-check, and the
figure presets fig2/fig3/fig4.  Parameters come from an optional JSON
config file (sections "sensing", "channel", "link", "sweep") with any flag
overriding the file.  Each subcommand accepts only the flags and config
keys its COMMANDS entry declares; anything else exits 1.  Exit codes:
0 success, 1 validation or usage error, 2 verify failure, 3 I/O error.
"""

from __future__ import annotations

import gc

# Collection is paused while this module runs: what numpy's import and these
# definitions build lives until the process ends, so a collection would walk
# it and free nothing, and run() freezes it.  The caller's setting comes back
# at the end of the module, or at once if an import fails.
_GC_WAS_ENABLED = gc.isenabled()
gc.disable()
try:
    import argparse
    import math
    import sys
    from dataclasses import MISSING, asdict, fields, replace

    # every layer is registered lazily by the package: binding one here loads nothing
    from . import emit, link, sensing, sweep, temporal, verify
    from .constants import POLICIES, SWEEP_VARIABLES
except BaseException:
    if _GC_WAS_ENABLED:
        gc.enable()
    raise


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
POLICY = (_flag("--policy", choices=POLICIES, help="vacuum-port policy"),)
OUTPUT = (
    _flag("--steps", type=int, help="sweep/grid steps"),
    _flag("--format", choices=("csv", "json", "svg"), default="csv",
          help="output format (default csv)"),
    _flag("--out", help="output path (default derived from command)"),
)
TABLE = CONFIG + SENSING + OUTPUT
LEVELS = (_flag("--levels", help="comma list of iso-levels for SVG output"),)

# flag -> (the config section it sets, its fields there); a later flag
# overrides an earlier one, so --eta1/--eta2 beat --eta
_FLAG_FIELDS = {
    **{name: ("sensing", (name,)) for name in ("r_db", "n_in", "delta_omega", "split", "snr")},
    "lambda0_nm": ("sensing", ("lambda0",)), "eta": ("channel", ("eta1", "eta2")),
    **{name: ("channel", (name,)) for name in ("eta1", "eta2", "policy")},
    **{name: ("sweep", (name,)) for name in ("variable", "start", "stop", "steps")},
}
# Config keys, "section.field", declared once; each command reads the groups
# it lists.  "link" is read whole: its entries are checked where they compose.
SENSING_KEYS = ("sensing.r_db", "sensing.n_in", "sensing.lambda0", "sensing.omega0",
                "sensing.delta_omega", "sensing.split", "sensing.snr")
CHANNEL_KEYS = ("channel.eta1", "channel.eta2", "channel.policy", "link")
RANGE_KEYS = ("sweep.start", "sweep.stop", "sweep.steps")


def _load_config_file(path: str | None) -> dict:
    """The JSON object in file ``path``, {} without one; a repeated key is rejected."""
    if not path:
        return {}
    import json

    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"config file {path!r} repeats key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle, object_pairs_hook=unique)
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


def _require_keys(entry: dict, allowed: tuple, name: str, required: tuple = ()) -> None:
    """Reject a key of config entry ``name`` not in ``allowed``, or a missing ``required`` key.

    The error names the entry, the key and the allowed keys.
    """
    unknown = [key for key in entry if key not in allowed]
    missing = [key for key in required if key not in entry]
    if unknown or missing:
        fault = f"has unknown key {unknown[0]!r}" if unknown else f"is missing key {missing[0]!r}"
        raise ValueError(f"config entry {name!r} {fault}; it may hold {', '.join(allowed)}")


def _budget_eta(parent: dict, key: str, name: str) -> float:
    """Composed eta of the link entry ``parent[key]``, called ``name`` in errors.

    The entry holds a geometry block with an optional detector factor, or
    the three loss factors themselves.
    """
    entry = _section(parent, key, name)
    if "geometry" in entry:
        _require_keys(entry, ("geometry", "eta_detector"), name)
        block = _section(entry, "geometry", f"{name}.geometry")
        geometry_fields = fields(link.LinkGeometry)
        _require_keys(
            block,
            tuple(f.name for f in geometry_fields),
            f"{name}.geometry",
            tuple(f.name for f in geometry_fields if f.default is MISSING),
        )
        geom = link.LinkGeometry(**block)
        return link.compose_eta(
            link.diffraction_eta(geom), link.pointing_eta(geom), entry.get("eta_detector", 1.0)
        )
    _require_keys(entry, ("eta_diffraction", "eta_pointing", "eta_detector"), name)
    return link.compose_eta(**entry)


def _link_etas(file_cfg: dict) -> dict:
    """Each entry of the config "link" section by name, to {eta it sets: its composed eta}."""
    link_cfg = _section(file_cfg, "link")
    if link_cfg and "path1" not in link_cfg and "path2" not in link_cfg:
        return {"link": dict.fromkeys(("eta1", "eta2"), _budget_eta(file_cfg, "link", "link"))}
    _require_keys(link_cfg, ("path1", "path2"), "link")
    return {
        f"link.{path}": {eta: _budget_eta(link_cfg, path, f"link.{path}")}
        for path, eta in (("path1", "eta1"), ("path2", "eta2")) if path in link_cfg
    }


def _layer(args, file_cfg: dict, section: str, allowed: tuple) -> dict:
    """The file's ``section``, its keys checked against ``allowed``, under the flags setting it."""
    merged = dict(_section(file_cfg, section))
    _require_keys(merged, allowed, section)
    for name, (target, keys) in _FLAG_FIELDS.items():
        value = getattr(args, name, None)
        if target == section and value is not None:
            merged.update(dict.fromkeys(keys, value))
    return merged


def _resolve(args):
    """Merge config file and flags into a SensingConfig + ChannelPair + sweep section.

    A key its command does not read (``COMMANDS``), at the top level or in a section, is rejected.
    """
    reads = {}
    for section, _, name in (key.partition(".") for key in COMMANDS[args.command][2]):
        reads.setdefault(section, []).append(name)
    file_cfg = _load_config_file(args.config)
    _require_keys(file_cfg, tuple(reads), args.config)
    sensing_cfg = _layer(args, file_cfg, "sensing", reads.get("sensing", ()))
    if getattr(args, "lambda0_nm", None) is not None:
        sensing_cfg["lambda0"] *= 1e-9
        sensing_cfg.pop("omega0", None)
    defaults = asdict(sensing.PAPER_SCALE_CONFIG)
    if sensing_cfg.get("omega0") is not None:
        defaults["lambda0"] = None
    defaults.update(sensing_cfg)
    cfg = sensing.SensingConfig(**defaults)

    channel_cfg = _layer(args, file_cfg, "channel", reads.get("channel", ()))
    links = _link_etas(file_cfg)
    for etas in links.values():
        channel_cfg = {**etas, **channel_cfg}
    ch = sensing.ChannelPair(**{"eta1": 1.0, "eta2": 1.0, **channel_cfg})
    bounds = _layer(args, file_cfg, "sweep", reads.get("sweep", ()))
    if args.command == "sweep":
        _require_unset_swept(args, file_cfg, links, bounds.setdefault("variable", "eta_symmetric"))
    return cfg, ch, bounds


def _require_unset_swept(args, file_cfg: dict, links: dict, variable: str) -> None:
    """Reject ``variable`` unless it names a sweep variable that no flag or config entry sets.

    The error names each flag (``--eta1``) and entry (``channel.eta1``,
    ``link.path1``) that sets one of its fields.
    """
    sweep.require_variable(variable)
    swept = set(sweep.VARIABLES[variable][0])
    setters = [
        "--" + name.replace("_", "-")
        for name, (_, targets) in _FLAG_FIELDS.items()
        if getattr(args, name) is not None and swept & set(targets)
    ]
    for section in ("sensing", "channel"):
        setters += [f"{section}.{key}" for key in file_cfg.get(section, {}) if key in swept]
    setters += [name for name, etas in links.items() if swept & etas.keys()]
    if setters:
        raise ValueError(f"{', '.join(setters)} sets {variable}, the swept variable")


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


def _range(bounds: dict, default: sweep.Range | None = None) -> sweep.Range:
    """Each of start/stop/steps from ``bounds``, else ``default``, else ``sweep.ETA_RANGE``."""
    bounds = {k: v for k, v in bounds.items() if k != "variable"}
    return replace(default or sweep.ETA_RANGE, **bounds)


def _sweep(args, cfg, ch, bounds) -> sweep.SweepResult:
    variable = bounds["variable"]
    rng = _range(bounds, sweep.VARIABLES[variable][1])
    schemes = _comma_list(args, "schemes", str.upper)
    return sweep.run_sweep(variable, rng, cfg, ch, schemes)


# table command -> builder of its SweepResult from (args, config, channel,
# the merged sweep section)
_BUILDERS = {
    "sweep": _sweep,
    "grid": lambda a, cfg, ch, sw: sweep.run_grid(_range(sw), _range(sw), cfg, a.quantity),
    "compare": lambda a, cfg, ch, sw: sweep.run_compare_smsv(_range(sw), cfg, ch),
    "fig2": lambda a, cfg, ch, sw: sweep.preset_fig2(cfg, _comma_list(a, "r_dbs"), _range(sw)),
    "fig3": lambda a, cfg, ch, sw: sweep.preset_fig3(cfg, _range(sw)),
    "fig4": lambda a, cfg, ch, sw: sweep.preset_fig4(cfg, _range(sw)),
}


def _cmd_table(args) -> int:
    """Every table command: resolve, build its SweepResult, emit it."""
    cfg, ch, bounds = _resolve(args)
    result = _BUILDERS[args.command](args, cfg, ch, bounds)
    levels = _comma_list(args, "levels")
    if levels is not None and args.format != "svg":
        raise ValueError("--levels needs --format svg")
    path = args.out or f"{args.command}.{args.format}"
    emit.write_result(result, args.format, path, levels=levels)
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
    advantage = values["SQL"] - values["TMSV_real"]
    print(f"# advantage (SQL - TMSV): {advantage:.8e} s", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    _, ch, _ = _resolve(args)
    report = verify.run_verify(tolerance=args.tol, policy=ch.policy, eta_steps=args.eta_steps)
    sys.stdout.write(report.text())
    if not report.passed:
        raise VerifyFailure(
            f"oracle cross-check failed: max relative error {report.max_rel_err:.3e}"
        )
    return 0


def _cmd_tm_check(args) -> int:
    profile = temporal.SpectralProfile(args.omega0, args.spread, args.points, args.span)
    text, passed = temporal.report(profile)
    sys.stdout.write(text)
    return 0 if passed else 1


# command -> (help, flags, config keys, handler of the parsed args); grid and
# the figures fix their channels to the shared model, verify reads the policy
COMMANDS = {
    "delta-u": ("evaluate all schemes at one point", CONFIG + SENSING + ETAS + POLICY + (
        _flag("--format", choices=("csv", "json"), default="csv",
              help="output format (default csv)"),
        _flag("--out", help="write the table to this path instead of stdout"),
    ), SENSING_KEYS + CHANNEL_KEYS, _cmd_delta_u),
    "sweep": ("sweep one variable", CONFIG + SENSING + POLICY + OUTPUT + ETAS + (
        _flag("--variable", choices=SWEEP_VARIABLES),
        _flag("--start", type=float),
        _flag("--stop", type=float),
        _flag("--schemes", default="TMSV,SQL,SMSV", help="comma list from TMSV,SQL,SMSV"),
    ), SENSING_KEYS + CHANNEL_KEYS + ("sweep.variable",) + RANGE_KEYS, _cmd_table),
    "grid": ("advantage over an (eta1, eta2) grid", TABLE + LEVELS + (
        _flag("--quantity", choices=("advantage", "delta_u"), default="advantage"),
    ), SENSING_KEYS + RANGE_KEYS, _cmd_table),
    "compare": ("single-mode vs two-mode comparison sweep", CONFIG + SENSING + POLICY + OUTPUT,
                SENSING_KEYS + ("channel.policy",) + RANGE_KEYS, _cmd_table),
    "verify": ("cross-check closed forms against the oracle", CONFIG + POLICY + (
        _flag("--tol", type=float, default=1e-9),
        _flag("--eta-steps", type=int, help="refine the eta grid"),
    ), ("channel.policy",), _cmd_verify),
    "tm-check": ("temporal-mode diagnostics (natural units)", (
        _flag("--omega0", type=float, default=10.0),
        _flag("--spread", type=float, default=1.0, help="spectral spread"),
        _flag("--points", type=int, default=4096),
        _flag("--span", type=float, default=8.0),
    ), (), _cmd_tm_check),
    "fig2": ("reproduce the fig2 preset", TABLE + (
        _flag("--r-dbs", default="3,7,11,15", help="comma list of squeezing levels"),
    ), SENSING_KEYS + RANGE_KEYS, _cmd_table),
    "fig3": ("reproduce the fig3 preset", TABLE + LEVELS, SENSING_KEYS + RANGE_KEYS, _cmd_table),
    "fig4": ("reproduce the fig4 preset", TABLE, SENSING_KEYS + RANGE_KEYS, _cmd_table),
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
        help_text, flags, _, run = COMMANDS[name]
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


def run() -> int:
    """Process entry of ``qtlink`` and ``python -m qtlink.cli``: ``main()`` on a frozen heap.

    Everything the imports built lives until the process ends, so freezing it
    moves it to the permanent generation, which no collection walks (the ones
    at interpreter exit included).  ``main`` itself never freezes: tests and
    the bench tracer call it in a process whose heap is theirs.
    """
    gc.freeze()
    return main()


# the pause opened before the imports ends here
if _GC_WAS_ENABLED:
    gc.enable()

if __name__ == "__main__":
    raise SystemExit(run())
