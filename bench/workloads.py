"""Seeded workload plans: the workload name and the seed give the exact argv list.

The seed picks operating points (squeezing levels, transmissivities, photon
budgets, link geometry, contour levels).  It never changes sizes such as
``--steps`` or ``--eta-steps``, so the work of one pass is the same for
every seed and counts repeat exactly.  Why each workload exists is written
down in NOTES.md next to this file.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import numpy as np

import reference as ref

WORKLOADS = ("figures", "verify-dense", "point-queries")

FIGURE_STEPS = 100          # the presets' default grid, left implicit in argv
VERIFY_R_DBS = (0.0, 3.0, 5.0, 15.0)
VERIFY_ETAS = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
VERIFY_DENSE_STEPS = 30
QUERY_STEPS = 50


@dataclass
class Op:
    """One qtlink command and what its output must satisfy."""

    name: str
    args: list
    check: dict


@dataclass
class Plan:
    workload: str
    seed: int
    ops: list
    files: dict = field(default_factory=dict)  # path -> text, written before the first pass

    def argv_list(self) -> list:
        return [["qtlink", *op.args] for op in self.ops]


def _verify_etas(eta_steps):
    if eta_steps is None:
        return list(VERIFY_ETAS)
    return [float(v) for v in np.linspace(min(VERIFY_ETAS), max(VERIFY_ETAS), eta_steps)]


def verify_op(name, policy, eta_steps=None) -> Op:
    args = ["verify"]
    if eta_steps is not None:
        args += ["--eta-steps", str(eta_steps)]
    if policy != "shared":
        args += ["--policy", policy]
    return Op(name, args, {
        "kind": "verify",
        "policy": policy,
        "r_dbs": list(VERIFY_R_DBS),
        "etas": _verify_etas(eta_steps),
        "tol": 1e-9,
    })


def contour_levels(params: dict, steps: int, fractions) -> list:
    """Iso-levels at the given fractions of the grid's largest advantage."""
    etas = np.linspace(0.01, 1.0, steps)
    vmax = float(ref.advantage(params, etas[:, None], etas[None, :]).max())
    return [float(f"{f * vmax:.6e}") for f in fractions]


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _figures(rng: random.Random, out: str):
    r_db = round(rng.uniform(2.0, 12.0), 2)
    r_dbs = sorted(rng.sample(range(10, 151), 4))
    r_dbs = [v / 10.0 for v in r_dbs]
    params = dict(ref.PAPER, r_db=r_db)
    fractions = sorted(rng.sample(range(100, 950), 3))
    levels = contour_levels(params, FIGURE_STEPS, [f / 1000.0 for f in fractions])
    common = ["--r-db", repr(r_db)]
    base = {"params": params, "start": 0.01, "stop": 1.0, "steps": FIGURE_STEPS}
    ops = [
        Op("fig2-csv", ["fig2", *common, "--r-dbs", _fmt(r_dbs), "--out", f"{out}/fig2.csv"],
           dict(base, kind="csv", table="fig2", r_dbs=r_dbs, path=f"{out}/fig2.csv")),
        Op("fig3-svg", ["fig3", *common, "--format", "svg", "--levels", _fmt(levels),
                        "--out", f"{out}/fig3.svg"],
           dict(base, kind="grid_svg", levels=levels, path=f"{out}/fig3.svg")),
        Op("fig3-json", ["fig3", *common, "--format", "json", "--out", f"{out}/fig3.json"],
           dict(base, kind="grid_json", path=f"{out}/fig3.json")),
        Op("fig4-svg", ["fig4", *common, "--format", "svg", "--out", f"{out}/fig4.svg"],
           dict(base, kind="curves_svg", path=f"{out}/fig4.svg")),
    ]
    return ops, {}


def _verify_dense(rng: random.Random, out: str):
    # verify runs a fixed grid; the seed has no operating point to pick here.
    ops = [
        verify_op("verify-shared", "shared", VERIFY_DENSE_STEPS),
        verify_op("verify-independent", "independent", VERIFY_DENSE_STEPS),
    ]
    return ops, {}


def _eta(rng: random.Random) -> float:
    return round(rng.uniform(0.05, 1.0), 4)


def _point_queries(rng: random.Random, out: str):
    ops = []
    r_db, eta1, eta2 = round(rng.uniform(0.5, 15.0), 2), _eta(rng), _eta(rng)
    ops.append(Op(
        "delta-u-csv",
        ["delta-u", "--r-db", repr(r_db), "--eta1", repr(eta1), "--eta2", repr(eta2)],
        {"kind": "delta_u", "format": "csv", "params": dict(ref.PAPER, r_db=r_db),
         "eta1": eta1, "eta2": eta2},
    ))
    r_db, eta, n_in = round(rng.uniform(0.5, 15.0), 2), _eta(rng), float(rng.randrange(100, 100_000))
    ops.append(Op(
        "delta-u-json",
        ["delta-u", "--r-db", repr(r_db), "--eta", repr(eta), "--n-in", repr(n_in),
         "--format", "json"],
        {"kind": "delta_u", "format": "json", "params": dict(ref.PAPER, r_db=r_db, n_in=n_in),
         "eta1": eta, "eta2": eta},
    ))
    r_db = round(rng.uniform(0.5, 15.0), 2)
    link = {
        "path1": {
            "geometry": {
                "range_m": round(rng.uniform(2e5, 8e5), 1),
                "tx_waist_m": round(rng.uniform(0.05, 0.3), 4),
                "rx_aperture_m": round(rng.uniform(0.2, 1.0), 4),
                "wavelength_m": 815e-9,
                "pointing_jitter_rad": round(rng.uniform(0.0, 1e-6), 10),
            },
            "eta_detector": round(rng.uniform(0.8, 0.99), 3),
        },
        "path2": {key: round(rng.uniform(0.5, 1.0), 3)
                  for key in ("eta_diffraction", "eta_pointing", "eta_detector")},
    }
    config_path = f"{out}/link.json"
    config_text = json.dumps({"sensing": {"r_db": r_db}, "link": link}, indent=2) + "\n"
    ops.append(Op(
        "delta-u-link", ["delta-u", "--config", config_path],
        {"kind": "delta_u", "format": "csv", "params": dict(ref.PAPER, r_db=r_db),
         "eta1": ref.path_eta(link["path1"]), "eta2": ref.path_eta(link["path2"])},
    ))
    r_db = round(rng.uniform(0.5, 15.0), 2)
    ops.append(Op(
        "compare", ["compare", "--r-db", repr(r_db), "--steps", str(QUERY_STEPS),
                    "--out", f"{out}/compare.csv"],
        {"kind": "csv", "table": "compare", "params": dict(ref.PAPER, r_db=r_db),
         "start": 0.01, "stop": 1.0, "steps": QUERY_STEPS, "path": f"{out}/compare.csv"},
    ))
    eta1, eta2 = _eta(rng), _eta(rng)
    ops.append(Op(
        "sweep-r-db", ["sweep", "--variable", "r_db", "--eta1", repr(eta1), "--eta2", repr(eta2),
                       "--steps", str(QUERY_STEPS), "--out", f"{out}/sweep.csv"],
        {"kind": "csv", "table": "sweep_r_db", "params": dict(ref.PAPER), "eta1": eta1,
         "eta2": eta2, "start": 0.0, "stop": 15.0, "steps": QUERY_STEPS,
         "path": f"{out}/sweep.csv"},
    ))
    ops.append(verify_op("verify", "shared"))
    ops.append(Op("tm-check", ["tm-check"], {"kind": "tm_check"}))
    return ops, {config_path: config_text}


_BUILDERS = {"figures": _figures, "verify-dense": _verify_dense, "point-queries": _point_queries}


def plan(workload: str, seed: int, out: str) -> Plan:
    """The commands of one pass of ``workload``; ``out`` is a directory relative to the root."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
    ops, files = _BUILDERS[workload](random.Random(f"{workload}/{seed}"), out)
    return Plan(workload, seed, ops, files)
