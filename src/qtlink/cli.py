"""Command-line front end.

Subcommands: delta-u, sweep, grid, compare, verify, tm-check, and the
figure presets fig2/fig3/fig4.  Parameters come from an optional JSON
config file (sections "sensing", "channel", "link", "sweep") with any flag
overriding the file.  Each subcommand accepts only the flags and config
keys its COMMANDS entry declares; anything else exits 1.  Exit codes:
0 success, 1 validation or usage error or a tm-check FAILED report (printed
on stdout), 2 verify failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import math
import os
import sys

# every layer is registered lazily by the package: binding one here loads nothing
from . import emit, link, sensing, sweep, temporal, verify
from .constants import POLICIES, REQUIRED, SWEEP_VARIABLES, replace


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
        geometry = link.LinkGeometry.FIELDS
        required = tuple(key for key, default in geometry.items() if default is REQUIRED)
        _require_keys(block, tuple(geometry), f"{name}.geometry", required)
        geom = link.LinkGeometry(**block)
        return link.compose_eta(
            link.diffraction_eta(geom), link.pointing_eta(geom), entry.get("eta_detector", 1.0)
        )
    _require_keys(entry, ("eta_diffraction", "eta_pointing", "eta_detector"), name)
    return link.compose_eta(**entry)


def _sources(args, file_cfg: dict, reads: dict) -> list:
    """Every setting given, lowest precedence first, as (its name, its section, {field: value}).

    The "link" entries come first (as channel etas), then each key of the
    file's sensing, channel and sweep sections, then each flag set, in
    ``_FLAG_FIELDS`` order.  Every key is checked against ``reads`` here.
    """
    link_cfg = _section(file_cfg, "link")
    if link_cfg and "path1" not in link_cfg and "path2" not in link_cfg:
        eta = _budget_eta(file_cfg, "link", "link")
        sources = [("link", "channel", {"eta1": eta, "eta2": eta})]
    else:
        _require_keys(link_cfg, ("path1", "path2"), "link")
        sources = [(f"link.{path}", "channel", {eta: _budget_eta(link_cfg, path, f"link.{path}")})
                   for path, eta in (("path1", "eta1"), ("path2", "eta2")) if path in link_cfg]
    for section in ("sensing", "channel", "sweep"):
        entry = _section(file_cfg, section)
        _require_keys(entry, reads.get(section, ()), section)
        sources += [(f"{section}.{key}", section, {key: value}) for key, value in entry.items()]
    return sources + [
        ("--" + name.replace("_", "-"), section, dict.fromkeys(fields, value))
        for name, (section, fields) in _FLAG_FIELDS.items()
        if (value := getattr(args, name, None)) is not None
    ]


def _resolve(args):
    """Merge config file and flags into a SensingConfig + ChannelPair + sweep section.

    A key its command does not read (``COMMANDS``), at the top level or in a section, is rejected,
    as is a flag or config entry that sets the swept variable.
    """
    reads = {}
    for section, _, name in (key.partition(".") for key in COMMANDS[args.command][2]):
        reads.setdefault(section, []).append(name)
    file_cfg = _load_config_file(args.config)
    _require_keys(file_cfg, tuple(reads), args.config)
    sources = _sources(args, file_cfg, reads)
    merged = {"sensing": {}, "channel": {"eta1": 1.0, "eta2": 1.0}, "sweep": {}}
    for _, section, fields in sources:
        merged[section].update(fields)
    sensing_cfg, bounds = merged["sensing"], merged["sweep"]
    if getattr(args, "lambda0_nm", None) is not None:
        sensing_cfg["lambda0"] *= 1e-9
        sensing_cfg.pop("omega0", None)
    if sensing_cfg.get("omega0") is not None:
        sensing_cfg.setdefault("lambda0", None)
    cfg = replace(sensing.PAPER_SCALE_CONFIG, **sensing_cfg)
    ch = sensing.ChannelPair(**merged["channel"])
    if "variable" in reads.get("sweep", ()):
        variable = bounds.setdefault("variable", "eta_symmetric")
        sweep.require_variable(variable)
        swept = set(sweep.VARIABLES[variable][0])
        # the error names the flags, then the file keys, then the link entries
        setters = sorted((name for name, _, fields in sources if swept & fields.keys()),
                         key=lambda name: (not name.startswith("--"), name.startswith("link")))
        if setters:
            raise ValueError(f"{', '.join(setters)} sets {variable}, the swept variable")
    return cfg, ch, bounds


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


def _table(build):
    """Handler of a table command: check --levels, resolve, emit build(args, cfg, ch, bounds)."""
    def handle(args) -> int:
        levels = _comma_list(args, "levels")
        if levels is not None and args.format != "svg":
            raise ValueError("--levels needs --format svg")
        cfg, ch, bounds = _resolve(args)
        result = build(args, cfg, ch, bounds)
        path = args.out or f"{args.command}.{args.format}"
        emit.write_result(result, args.format, path, levels=levels)
        print(f"wrote {path}")
        return 0

    return handle


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
    if report.passed:
        return 0
    print(f"error: oracle cross-check failed: max relative error {report.max_rel_err:.3e}",
          file=sys.stderr)
    return 2


def _cmd_tm_check(args) -> int:
    profile = temporal.SpectralProfile(args.omega0, args.spread, args.points, args.span)
    text, passed = temporal.report(profile)
    sys.stdout.write(text)
    return 0 if passed else 1


# command -> (help, flags, config keys, handler that runs it and returns its exit code),
# the whole command; grid and the figures fix the shared channel model, verify reads the policy
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
        _flag("--schemes", default=lambda: ",".join(sensing.SWEPT),
              help="comma list from %(default)s"),
    ), SENSING_KEYS + CHANNEL_KEYS + ("sweep.variable",) + RANGE_KEYS, _table(
        lambda a, cfg, ch, sw: sweep.run_sweep(
            sw["variable"], _range(sw, sweep.VARIABLES[sw["variable"]][1]), cfg, ch,
            _comma_list(a, "schemes", str.upper)))),
    "grid": ("advantage over an (eta1, eta2) grid", TABLE + LEVELS + (
        _flag("--quantity", choices=("advantage", "delta_u"), default="advantage"),
    ), SENSING_KEYS + RANGE_KEYS, _table(
        lambda a, cfg, ch, sw: sweep.run_grid(_range(sw), _range(sw), cfg, a.quantity))),
    "compare": ("single-mode vs two-mode comparison sweep", CONFIG + SENSING + POLICY + OUTPUT,
                SENSING_KEYS + ("channel.policy",) + RANGE_KEYS,
                _table(lambda a, cfg, ch, sw: sweep.run_compare_smsv(_range(sw), cfg, ch))),
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
    ), SENSING_KEYS + RANGE_KEYS, _table(
        lambda a, cfg, ch, sw: sweep.preset_fig2(cfg, _comma_list(a, "r_dbs"), _range(sw)))),
    "fig3": ("reproduce the fig3 preset", TABLE + LEVELS, SENSING_KEYS + RANGE_KEYS, _table(
        lambda a, cfg, ch, sw: sweep.preset_fig3(cfg, _range(sw)))),
    "fig4": ("reproduce the fig4 preset", TABLE, SENSING_KEYS + RANGE_KEYS, _table(
        lambda a, cfg, ch, sw: sweep.preset_fig4(cfg, _range(sw)))),
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
            # a default that reads a layer is a function, so only its command loads the layer
            if callable(kwargs.get("default")):
                kwargs = {**kwargs, "default": kwargs["default"]()}
            p.add_argument(*names, **kwargs)
        p.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        return args.run(args)
    except (ValueError, TypeError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3 if isinstance(err, OSError) else 1


def run() -> int:
    """Process entry of ``qtlink`` and ``python -m qtlink.cli``: ``main()`` with collection paused.

    What the layers and numpy build as they load lives until the process
    ends, so a collection would walk it and free almost nothing: collection
    stays off.  ``run`` returns ``main``'s code, so what runs after it
    (``raise SystemExit``, cProfile, runpy) runs as before; at interpreter
    exit ``_end`` then skips module teardown and the exit collections, and
    keeps every atexit handler, flushed streams and the exit status.
    ``main`` itself never touches the collector or the exit: tests and the
    bench tracer call it in a process that is theirs.
    """
    gc.disable()
    code = main()
    atexit.register(_end, code, atexit._ncallbacks() + 1)
    return code


def _end(code: int, registered: int) -> None:
    # runs first at exit, as the last handler registered, unless one was
    # registered after it: that one has run, so the interpreter's exit runs the rest
    if atexit._ncallbacks() != registered:
        return
    atexit.unregister(_end)
    atexit._run_exitfuncs()  # the handlers registered before this one
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # its fd was closed at start
                stream.flush()
    except (OSError, ValueError):  # the interpreter's exit flushes again and reports it
        return
    os._exit(code)


if __name__ == "__main__":
    raise SystemExit(run())
