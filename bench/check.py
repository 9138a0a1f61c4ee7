"""Output checks against the independent reference, and a self-test of the checks.

``check_op`` returns the list of problems found in one command's outputs; an
empty list means the operation succeeded.  Offsets are compared within TOL
of the offset's own scale: CSV prints 9 significant digits, and the fig3
advantage passes through zero, so its scale is the baseline offset du_SQL
at the same point rather than the advantage itself.
"""

from __future__ import annotations

import json
import math
import os
import re
import xml.etree.ElementTree as ET

import numpy as np

import reference as ref
from workloads import Op, contour_levels, verify_op

TOL = 2e-8
VERIFY_TEXT_TOL = 1e-10  # verify prints 13 significant digits
SVG_PX_TOL = 0.011       # SVG coordinates carry 2 decimals
_SVG = "{http://www.w3.org/2000/svg}"
# Plot frame of the SVG renderer: canvas size comes from the file, margins are fixed.
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _compare(label, got, want, scale, errors, limit=3):
    got, want, scale = (np.asarray(a, dtype=float) for a in (got, want, scale))
    if got.shape != want.shape:
        errors.append(f"{label}: shape {got.shape}, expected {want.shape}")
        return
    bad = np.flatnonzero(~(np.abs(got - want) <= TOL * np.abs(scale)))
    for k in bad[:limit]:
        errors.append(f"{label}[{k}]: {float(got.flat[k])!r} vs reference {float(want.flat[k])!r}")
    if len(bad) > limit:
        errors.append(f"{label}: {len(bad) - limit} more mismatches")


def _grid(check):
    etas = np.linspace(check["start"], check["stop"], check["steps"])
    e1, e2 = np.meshgrid(etas, etas, indexing="ij")
    return etas, e1, e2


def expected_table(check):
    """Column names, values (rows x columns) and per-value scales of a table."""
    p = check["params"]
    table = check["table"]
    if table in ("fig2", "compare"):
        x = np.linspace(check["start"], check["stop"], check["steps"])
        sql = ref.du_sql(p, x, x)
        if table == "fig2":
            names = ["eta", "du_sql"] + [f"du_tmsv_{float(r):g}db" for r in check["r_dbs"]]
            cols = [x, sql] + [ref.du_tmsv(p, x, x, r_db=r) for r in check["r_dbs"]]
        else:
            tmsv, smsv = ref.du_tmsv(p, x, x), ref.du_smsv(p, x)
            names = ["eta", "du_tmsv", "du_smsv", "du_sql", "ratio"]
            cols = [x, tmsv, smsv, sql, smsv / tmsv]
        values = np.column_stack(cols)
        return names, values, values
    if table == "sweep_r_db":
        r_db = np.linspace(check["start"], check["stop"], check["steps"])
        e1, e2 = check["eta1"], check["eta2"]
        sql = np.broadcast_to(ref.du_sql(p, e1, e2), r_db.shape)
        values = np.column_stack([
            r_db, ref.du_tmsv(p, e1, e2, r_db=r_db), sql, ref.du_smsv(p, e1, r_db=r_db),
        ])
        return ["r_db", "du_tmsv", "du_sql", "du_smsv"], values, values
    if table == "fig3":
        _, e1, e2 = _grid(check)
        e1, e2 = e1.ravel(), e2.ravel()
        adv = ref.advantage(p, e1, e2)
        values = np.column_stack([e1, e2, adv, np.sign(adv)])
        scales = np.column_stack([e1, e2, ref.du_sql(p, e1, e2), np.ones_like(adv)])
        return ["eta1", "eta2", "advantage", "sign"], values, scales
    raise ValueError(f"unknown table {table!r}")


def _check_table(check, columns, rows, errors):
    names, values, scales = expected_table(check)
    if columns != names:
        errors.append(f"columns {columns}, expected {names}")
        return
    got = np.asarray(rows, dtype=float)
    if got.shape != values.shape:
        errors.append(f"table shape {got.shape}, expected {values.shape}")
        return
    for k, name in enumerate(names):
        if name == "sign":
            # the sign may only differ where the advantage is rounding noise
            noise = np.abs(values[:, 2]) < 1e-12 * scales[:, 2]
            bad = np.flatnonzero((got[:, k] != values[:, k]) & ~noise)
            if len(bad):
                errors.append(f"sign differs from the reference at {len(bad)} points")
        else:
            _compare(name, got[:, k], values[:, k], scales[:, k], errors)


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _check_csv(check, stdout, stderr, errors):
    lines = _read(check["path"]).splitlines()
    if len(lines) < 2 or not lines[0].startswith("# config: "):
        errors.append("CSV lacks its '# config:' line")
        return
    json.loads(lines[0][len("# config: "):])
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    _check_table(check, lines[1].split(","), rows, errors)


def _check_grid_json(check, stdout, stderr, errors):
    payload = json.loads(_read(check["path"]))
    if payload.get("grid_shape") != [check["steps"], check["steps"]]:
        errors.append(f"grid_shape {payload.get('grid_shape')}")
    _check_table(dict(check, table="fig3"), payload["columns"], payload["rows"], errors)


def contour_segment_counts(z, levels):
    """Marching-squares segments per level: one per cell with two edge crossings, two per saddle."""
    span = float(z.max() - z.min()) or 1.0
    counts = []
    for level in levels:
        above = np.where(z == level, level + 1e-12 * span, z) > level
        a, b, c, d = above[:-1, :-1], above[1:, :-1], above[1:, 1:], above[:-1, 1:]
        crossings = (a != b).astype(int) + (b != c) + (c != d) + (d != a)
        counts.append(int((crossings // 2).sum()))
    return counts


def _check_grid_svg(check, stdout, stderr, errors):
    root = ET.fromstring(_read(check["path"]))
    _, e1, e2 = _grid(check)
    p = check["params"]
    adv = ref.advantage(p, e1, e2)
    cells = [r.get("fill") for r in root.iter(f"{_SVG}rect") if r.get("fill", "").startswith("#")]
    if len(cells) != adv.size:
        errors.append(f"{len(cells)} cell rects, expected {adv.size}")
    else:
        gray = np.array([fill == "#d9d9d9" for fill in cells]).reshape(adv.shape)
        noise = np.abs(adv) < 1e-12 * ref.du_sql(p, e1, e2)
        bad = int(((gray != (adv <= 0.0)) & ~noise).sum())
        if bad:
            errors.append(f"{bad} cells shaded against the sign of the advantage")
    levels = check["levels"]
    expected = [(lv, n) for lv, n in zip(levels, contour_segment_counts(adv, levels)) if n]
    paths = [path.get("d", "") for path in root.iter(f"{_SVG}path")]
    got = [d.count("M ") for d in paths]
    if got != [n for _, n in expected]:
        errors.append(f"contour segments per path {got}, expected {[n for _, n in expected]}")
    labels = [t.text for t in root.iter(f"{_SVG}text") if (t.text or "").startswith("level ")]
    if labels != [f"level {lv:.3e}" for lv, _ in expected]:
        errors.append(f"contour labels {labels}")


def _check_curves_svg(check, stdout, stderr, errors):
    root = ET.fromstring(_read(check["path"]))
    width, height = float(root.get("width")), float(root.get("height"))
    _, values, _ = expected_table(dict(check, table="compare"))
    x, curves = values[:, 0], values[:, [1, 2, 3]]  # du_tmsv, du_smsv, du_sql; ratio is not drawn
    ly0 = math.floor(math.log10(curves.min()))
    ly1 = math.ceil(math.log10(curves.max()))
    ly1 += ly1 == ly0
    want_x = _ML + (x - x.min()) / (x.max() - x.min()) * (width - _ML - _MR)
    lines = list(root.iter(f"{_SVG}polyline"))
    if len(lines) != curves.shape[1]:
        errors.append(f"{len(lines)} curves, expected {curves.shape[1]}")
        return
    for k, line in enumerate(lines):
        pts = np.array([[float(v) for v in pt.split(",")] for pt in line.get("points").split()])
        want_y = height - _MB - (np.log10(curves[:, k]) - ly0) / (ly1 - ly0) * (height - _MT - _MB)
        if pts.shape != (len(x), 2):
            errors.append(f"curve {k}: {pts.shape[0]} points, expected {len(x)}")
            continue
        bad = int((np.abs(pts - np.column_stack([want_x, want_y])) > SVG_PX_TOL).sum())
        if bad:
            errors.append(f"curve {k}: {bad} coordinates off the reference")


_ADVANTAGE = re.compile(r"^# advantage \(SQL - TMSV\): (\S+) s$", re.M)


def _check_delta_u(check, stdout, stderr, errors):
    p, e1, e2 = check["params"], check["eta1"], check["eta2"]
    sql = float(ref.du_sql(p, e1, e2))
    want = {
        "TMSV_ideal": float(ref.du_tmsv_ideal(p)),
        "TMSV_real": float(ref.du_tmsv(p, e1, e2)),
        "SQL": sql,
        "SMSV_real": float(ref.du_smsv(p, e1)),
    }
    if check["format"] == "json":
        got = json.loads(stdout)
    else:
        lines = stdout.splitlines()
        if not lines or lines[0] != "scheme,delta_u_s":
            errors.append("delta-u CSV header missing")
            return
        got = {name: float(v) for name, v in (line.split(",") for line in lines[1:])}
    if sorted(got) != sorted(want):
        errors.append(f"schemes {sorted(got)}, expected {sorted(want)}")
        return
    for name, value in want.items():
        _compare(name, got[name], value, value, errors)
    match = _ADVANTAGE.search(stderr)
    if not match:
        errors.append("advantage line missing on stderr")
    else:
        _compare("advantage", float(match.group(1)), float(ref.advantage(p, e1, e2)), sql, errors)


_TWO_MODE = re.compile(
    r"two-mode\s+r_db=(\S+)\s+eta1=(\S+)\s+eta2=(\S+)\s+formula=(\S+) oracle=(\S+) "
    r"rel_err=\S+ (ok|FAIL)$"
)
_ONE_MODE = re.compile(
    r"one-mode\s+r_db=(\S+)\s+eta=(\S+)\s+formula=(\S+) oracle=(\S+) rel_err=\S+ (ok|FAIL)$"
)


def _check_rows(label, rows, coords, formula, oracle_tol, errors):
    if len(rows) != len(formula):
        errors.append(f"{label}: {len(rows)} rows, expected {len(formula)}")
        return
    if not rows:
        return
    got = np.array([[float(v) for v in row[:-1]] for row in rows])
    n = coords.shape[1]
    # verify prints coordinates with 6 significant digits
    if np.any(np.abs(got[:, :n] - coords) > 1e-5 * np.maximum(np.abs(coords), 1.0)):
        errors.append(f"{label}: rows are not in the expected grid order")
    for what, col, tol in (("formula", n, VERIFY_TEXT_TOL), ("oracle", n + 1, oracle_tol)):
        bad = int((~(np.abs(got[:, col] - formula) <= tol * np.abs(formula))).sum())
        if bad:
            errors.append(f"{label}: {bad} {what} values off the reference radicand")
    failed = sum(row[-1] != "ok" for row in rows)
    if failed:
        errors.append(f"{label}: {failed} rows marked FAIL")


def _check_verify(check, stdout, stderr, errors):
    lines = stdout.splitlines()
    r_dbs, etas = check["r_dbs"], np.array(check["etas"])
    n2, n1 = len(r_dbs) * len(etas) ** 2, len(r_dbs) * len(etas)
    head = f"verify: policy={check['policy']} tolerance={check['tol']:g} points={n2}+{n1}"
    if not lines or lines[0] != head:
        errors.append(f"verify header {lines[:1]}, expected {head!r}")
    if not lines or not re.fullmatch(r"verify: max_rel_err=\S+ passed=True", lines[-1]):
        errors.append(f"verify did not report passed=True: {lines[-1:]}")
    two = [m.groups() for m in map(_TWO_MODE.search, lines) if m]
    one = [m.groups() for m in map(_ONE_MODE.search, lines) if m]
    r = np.repeat(r_dbs, len(etas) ** 2)
    e1 = np.tile(np.repeat(etas, len(etas)), len(r_dbs))
    e2 = np.tile(etas, len(etas) * len(r_dbs))
    q = ref.radicand_tmsv(ref.squeeze_r(r), e1, e2)
    if check["policy"] == "independent":
        q = q - ref.cross_term(e1, e2)
    tol = check["tol"]
    _check_rows("two-mode", two, np.column_stack([r, e1, e2]), q, tol, errors)
    r1, eta = np.repeat(r_dbs, len(etas)), np.tile(etas, len(r_dbs))
    _check_rows("one-mode", one, np.column_stack([r1, eta]),
                ref.radicand_smsv(ref.squeeze_r(r1), eta), tol, errors)


def _check_tm(check, stdout, stderr, errors):
    if stdout.splitlines()[-1:] != ["tm-check passed"]:
        errors.append("tm-check did not print 'tm-check passed'")


_CHECKS = {
    "csv": _check_csv,
    "grid_json": _check_grid_json,
    "grid_svg": _check_grid_svg,
    "curves_svg": _check_curves_svg,
    "delta_u": _check_delta_u,
    "verify": _check_verify,
    "tm_check": _check_tm,
}


def check_op(op: Op, rc: int, stdout: str, stderr: str) -> list:
    """Problems with one command's exit status and outputs; empty when it is correct."""
    if rc != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {rc}: {tail[0]}"]
    checker, errors = _CHECKS[op.check["kind"]], []
    try:
        checker(op.check, stdout, stderr, errors)
    except (OSError, ValueError, KeyError, IndexError, TypeError, ET.ParseError) as err:
        errors.append(f"unreadable output: {type(err).__name__}: {err}")
    return errors


# ----------------------------------------------------------------------
# Self-test: each deliberately broken output must count as a failure.
# ----------------------------------------------------------------------

def _scale_one_value(path):
    def damage(rc, stdout, stderr):
        """one du_sql value of the CSV scaled by 1 + 1e-6"""
        lines = _read(path).split("\n")
        fields = lines[7].split(",")  # a data row; column 1 is du_sql
        fields[1] = f"{float(fields[1]) * (1.0 + 1e-6):.8e}"
        lines[7] = ",".join(fields)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines))
        return rc, stdout, stderr
    return damage


def _drop_one_path(path):
    def damage(rc, stdout, stderr):
        """the first contour path of the SVG removed"""
        lines = _read(path).split("\n")
        k = next(i for i, line in enumerate(lines) if line.startswith("<path"))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines[:k] + lines[k + 1:]))
        return rc, stdout, stderr
    return damage


def _report_failed(rc, stdout, stderr):
    """the verify log reads passed=False"""
    return rc, stdout.replace("passed=True", "passed=False"), stderr


def selftest(run, out: str) -> dict:
    """Run three small commands, check them, break each output, and check again.

    ``run(args)`` executes one qtlink command and returns (rc, stdout, stderr).
    A case passes only if the clean output is accepted and the broken one is
    counted as a failed operation.
    """
    steps = 20
    base = {"params": dict(ref.PAPER), "start": 0.01, "stop": 1.0, "steps": steps}
    csv_path, svg_path = os.path.join(out, "selftest.csv"), os.path.join(out, "selftest.svg")
    levels = contour_levels(ref.PAPER, steps, (0.3, 0.6))
    cases = [
        (Op("selftest-csv", ["fig2", "--steps", str(steps), "--out", csv_path],
            dict(base, kind="csv", table="fig2", r_dbs=[3.0, 7.0, 11.0, 15.0], path=csv_path)),
         _scale_one_value(csv_path)),
        (Op("selftest-svg", ["fig3", "--steps", str(steps), "--format", "svg",
                             "--levels", ",".join(map(repr, levels)), "--out", svg_path],
            dict(base, kind="grid_svg", levels=levels, path=svg_path)),
         _drop_one_path(svg_path)),
        (verify_op("selftest-verify", "shared"), _report_failed),
    ]
    report = {}
    for op, damage in cases:
        outputs = run(op.args)
        clean = check_op(op, *outputs)
        broken = [] if clean else check_op(op, *damage(*outputs))
        report[op.name] = {
            "damage": damage.__doc__.strip(),
            "clean_errors": clean,
            "broken_errors": broken,
            "ok": not clean and bool(broken),
        }
    return report
