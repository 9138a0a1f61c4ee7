"""Command-line front end.

Subcommands: delta-u, sweep, grid, compare, verify, tm-check, and the
figure presets fig2/fig3/fig4.  Parameters come from an optional JSON
config file (sections "sensing", "channel", "link", "sweep") with any flag
overriding the file.  Exit codes: 0 success, 1 validation error, 2 verify
failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import emit, link, sensing, sweep, temporal, verify
from .sensing import ChannelPair, SensingConfig


class UsageError(ValueError):
    pass


class VerifyFailure(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; keep 2 reserved for verify failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"argument error: {message}")


def _add_common(parser: _Parser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--r-db", type=float, help="squeezing level in dB")
    parser.add_argument("--n-in", type=float, help="source photon budget")
    parser.add_argument("--n-lo", type=float, help="local-oscillator photons")
    parser.add_argument("--lambda0-nm", type=float, help="carrier wavelength in nm")
    parser.add_argument("--delta-omega", type=float, help="spectral spread in rad/s")
    parser.add_argument("--eta", type=float, help="symmetric transmissivity (both paths)")
    parser.add_argument("--eta1", type=float, help="path-1 transmissivity")
    parser.add_argument("--eta2", type=float, help="path-2 transmissivity")
    parser.add_argument("--split", type=float, help="fraction of photons to path 1")
    parser.add_argument(
        "--policy", choices=("shared", "independent"), help="vacuum-port policy"
    )
    parser.add_argument("--snr", type=float, help="detection threshold (default 1)")
    parser.add_argument("--steps", type=int, help="sweep/grid steps")
    parser.add_argument(
        "--format", choices=("csv", "json", "svg"), help="output format (default csv)"
    )
    parser.add_argument("--out", help="output path (default derived from command)")


def build_parser() -> _Parser:
    parser = _Parser(prog="qtlink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("delta-u", help="evaluate all schemes at one point")
    _add_common(p)

    p = sub.add_parser("sweep", help="sweep one variable")
    _add_common(p)
    p.add_argument("--variable", choices=sweep.SWEEP_VARIABLES)
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument(
        "--schemes", default="TMSV,SQL,SMSV", help="comma list from TMSV,SQL,SMSV"
    )

    p = sub.add_parser("grid", help="advantage over an (eta1, eta2) grid")
    _add_common(p)
    p.add_argument("--quantity", choices=("advantage", "delta_u"), default="advantage")
    p.add_argument("--levels", help="comma list of iso-levels for SVG output")

    p = sub.add_parser("compare", help="single-mode vs two-mode comparison sweep")
    _add_common(p)

    p = sub.add_parser("verify", help="cross-check closed forms against the oracle")
    _add_common(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--eta-steps", type=int, help="refine the eta grid")

    p = sub.add_parser("tm-check", help="temporal-mode diagnostics (natural units)")
    p.add_argument("--omega0", type=float, default=10.0)
    p.add_argument("--spread", type=float, default=1.0, help="spectral spread")
    p.add_argument("--points", type=int, default=4096)
    p.add_argument("--span", type=float, default=8.0)

    for name in ("fig2", "fig3", "fig4"):
        p = sub.add_parser(name, help=f"reproduce the {name} preset")
        _add_common(p)
        if name == "fig2":
            p.add_argument(
                "--r-dbs", default="3,7,11,15", help="comma list of squeezing levels"
            )
        if name == "fig3":
            p.add_argument("--levels", help="comma list of iso-levels for SVG output")
    return parser


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


def _resolve(args, file_cfg: dict):
    """Merge config file and flags into a SensingConfig + ChannelPair."""
    sensing_cfg = dict(file_cfg.get("sensing", {}))
    if args.r_db is not None:
        sensing_cfg["r_db"] = args.r_db
    if args.n_in is not None:
        sensing_cfg["n_in"] = args.n_in
    if args.n_lo is not None:
        sensing_cfg["n_lo"] = args.n_lo
    if args.lambda0_nm is not None:
        sensing_cfg["lambda0"] = args.lambda0_nm * 1e-9
        sensing_cfg.pop("omega0", None)
    if args.delta_omega is not None:
        sensing_cfg["delta_omega"] = args.delta_omega
    if args.split is not None:
        sensing_cfg["split"] = args.split
    if args.snr is not None:
        sensing_cfg["snr"] = args.snr
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
    if args.eta is not None:
        channel_cfg["eta1"] = args.eta
        channel_cfg["eta2"] = args.eta
    if args.eta1 is not None:
        channel_cfg["eta1"] = args.eta1
    if args.eta2 is not None:
        channel_cfg["eta2"] = args.eta2
    if args.policy is not None:
        channel_cfg["policy"] = args.policy
    channel_cfg.setdefault("eta1", 1.0)
    channel_cfg.setdefault("eta2", 1.0)
    ch = ChannelPair(**channel_cfg)
    return cfg, ch, file_cfg.get("sweep", {})


def _emit_or_print(result, args, default_stem: str, levels=None) -> None:
    fmt = args.format or "csv"
    path = args.out or f"{default_stem}.{fmt}"
    emit.write_result(result, fmt, path, levels=levels)
    print(f"wrote {path}")


def _parse_levels(text: str | None):
    if not text:
        return None
    return [float(part) for part in text.split(",") if part.strip()]


def _cmd_delta_u(args, cfg, ch) -> int:
    rows = [
        ["TMSV_ideal", sensing.delta_u_tmsv_ideal(cfg).delta_u],
        ["TMSV_real", sensing.delta_u_tmsv_real(cfg, ch).delta_u],
        ["SQL", sensing.delta_u_sql(cfg, ch).delta_u],
        ["SMSV_real", sensing.delta_u_smsv_real(cfg, ch.eta1).delta_u],
    ]
    if (args.format or "csv") == "json":
        print(json.dumps({name: value for name, value in rows}, sort_keys=True, indent=2))
    else:
        print("scheme,delta_u_s")
        for name, value in rows:
            print(f"{name},{value:.8e}")
    print(
        f"# advantage (SQL - TMSV): {sensing.quantum_advantage(cfg, ch):.8e} s",
        file=sys.stderr,
    )
    return 0


def _range_from(args, file_sweep: dict, default: sweep.Range) -> sweep.Range:
    start = getattr(args, "start", None)
    stop = getattr(args, "stop", None)
    return sweep.Range(
        start if start is not None else file_sweep.get("start", default.start),
        stop if stop is not None else file_sweep.get("stop", default.stop),
        args.steps if args.steps is not None else file_sweep.get("steps", default.steps),
    )


def _cmd_sweep(args, cfg, ch, file_sweep) -> int:
    variable = args.variable or file_sweep.get("variable", "eta_symmetric")
    if variable.startswith("eta"):
        default = sweep.Range(0.01, 1.0, 100)
    elif variable == "r_db":
        default = sweep.Range(0.0, 15.0, 100)
    else:
        default = sweep.Range(1e2, 1e6, 100)
    rng = _range_from(args, file_sweep, default)
    schemes = tuple(s.strip().upper() for s in args.schemes.split(",") if s.strip())
    spec = sweep.SweepSpec(variable, rng, cfg, ch, schemes)
    _emit_or_print(sweep.run_sweep(spec), args, "sweep")
    return 0


def _require_shared(ch: ChannelPair, command: str) -> None:
    # the grid and the figure presets fix their own channels to the shared model
    if ch.policy != "shared":
        raise ValueError(
            f"{command} supports only the shared vacuum policy, got {ch.policy!r}"
        )


def _cmd_grid(args, cfg, ch, file_sweep) -> int:
    _require_shared(ch, "grid")
    rng = _range_from(args, file_sweep, sweep.Range(0.01, 1.0, 100))
    spec = sweep.GridSpec(rng, rng, cfg, args.quantity)
    _emit_or_print(sweep.run_grid(spec), args, "grid", levels=_parse_levels(args.levels))
    return 0


def _cmd_compare(args, cfg, ch, file_sweep) -> int:
    rng = _range_from(args, file_sweep, sweep.Range(0.01, 1.0, 100))
    spec = sweep.SweepSpec("eta_symmetric", rng, cfg, ch)
    _emit_or_print(sweep.run_compare_smsv(spec), args, "compare")
    return 0


def _cmd_verify(args, cfg, ch) -> int:
    report = verify.run_verify(
        tolerance=args.tol,
        policy=ch.policy,
        eta_steps=args.eta_steps,
    )
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


def _cmd_fig2(args, cfg, ch, file_sweep) -> int:
    _require_shared(ch, "fig2")
    rng = _range_from(args, file_sweep, sweep.Range(0.01, 1.0, 100))
    r_dbs = tuple(float(v) for v in args.r_dbs.split(","))
    _emit_or_print(sweep.preset_fig2(cfg, r_dbs, rng), args, "fig2")
    return 0


def _cmd_fig3(args, cfg, ch, file_sweep) -> int:
    _require_shared(ch, "fig3")
    rng = _range_from(args, file_sweep, sweep.Range(0.01, 1.0, 100))
    _emit_or_print(
        sweep.preset_fig3(cfg, rng), args, "fig3", levels=_parse_levels(args.levels)
    )
    return 0


def _cmd_fig4(args, cfg, ch, file_sweep) -> int:
    _require_shared(ch, "fig4")
    rng = _range_from(args, file_sweep, sweep.Range(0.01, 1.0, 100))
    _emit_or_print(sweep.preset_fig4(cfg, rng), args, "fig4")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "tm-check":
            return _cmd_tm_check(args)
        cfg, ch, file_sweep = _resolve(args, _load_config_file(args.config))
        if args.command == "delta-u":
            return _cmd_delta_u(args, cfg, ch)
        if args.command == "sweep":
            return _cmd_sweep(args, cfg, ch, file_sweep)
        if args.command == "grid":
            return _cmd_grid(args, cfg, ch, file_sweep)
        if args.command == "compare":
            return _cmd_compare(args, cfg, ch, file_sweep)
        if args.command == "verify":
            return _cmd_verify(args, cfg, ch)
        if args.command == "fig2":
            return _cmd_fig2(args, cfg, ch, file_sweep)
        if args.command == "fig3":
            return _cmd_fig3(args, cfg, ch, file_sweep)
        return _cmd_fig4(args, cfg, ch, file_sweep)
    except VerifyFailure as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
