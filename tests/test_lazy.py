"""Layers load on first use.

Importing the CLI executes no layer, and each command executes only the
layers it runs: the others stay registered but never executed, while every
name the package re-exports still resolves.  Each check runs in a fresh
interpreter, since this test process has long since loaded them all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# module -> the names the package has always re-exported from it
EXPORTED = {
    "constants": ["FIELD_SCALE", "HBAR", "SPEED_OF_LIGHT"],
    "gaussian": ["GaussianState", "beam_splitter", "homodyne_variance",
                 "min_physicality_eigenvalue", "pure_loss", "squeeze_single",
                 "symplectic_form", "vacuum"],
    "link": ["LinkGeometry", "beam_radius", "compose_eta", "diffraction_eta", "pointing_eta"],
    "sensing": ["ChannelPair", "SensingConfig", "advantage_boundary_eta1",
                "delta_u", "delta_u_smsv_real", "delta_u_sql", "delta_u_tmsv_ideal",
                "delta_u_tmsv_real", "photocurrent_mean_single", "photocurrent_variance_single",
                "post_variance_ideal", "quantum_advantage", "r_from_db", "radicand"],
    "sweep": ["Range", "SweepResult", "preset_fig2", "preset_fig3", "preset_fig4",
              "run_compare_smsv", "run_grid", "run_sweep"],
    "temporal": ["ModeFunction", "SpectralProfile", "inner_product", "mode_functions",
                 "shift_coefficients", "shift_expansion_check"],
    "verify": ["run_verify", "smsv_chain_variance", "tmsv_chain_variance"],
}

UNUSED_BY_FIG3 = ("verify", "gaussian", "temporal", "link")
LAYERS = ("sensing", "sweep", "emit", "gaussian", "link", "temporal", "verify")
# command -> the layers it never executes
UNUSED_BY = {
    "delta-u": ("sweep", "emit", "gaussian", "link", "temporal", "verify"),
    "verify": ("sweep", "emit", "link", "temporal"),
    "tm-check": ("sensing", "sweep", "emit", "gaussian", "link", "verify"),
}

# type() reads no attribute, so it does not trigger a lazy module's load
PROBE_CLI = """
import json, sys, types
import qtlink.cli

def unloaded():
    return {n: f"qtlink.{n}" in sys.modules
               and type(sys.modules[f"qtlink.{n}"]) is not types.ModuleType
            for n in json.loads(sys.argv[1])}

after_import = unloaded()
rc = qtlink.cli.main(sys.argv[2:])
print(json.dumps({"import": after_import, "main": unloaded(), "rc": rc}))
"""

# json is left out of this probe's own imports, so it shows whether qtlink loaded it
PROBE_JSON = """
import sys
import qtlink.cli

after_import = "json" in sys.modules
rc = qtlink.cli.main(sys.argv[1:])
print('{"import": %d, "main": %d, "rc": %d}' % (after_import, "json" in sys.modules, rc))
"""

PROBE_NAMES = """
import importlib, json, sys
import qtlink

exported = json.loads(sys.argv[1])
listed = set(dir(qtlink))
star = {}
exec("from qtlink import *", star)
result = {"missing_from_dir": [], "missing_from_star": [], "wrong_object": []}
for module, names in exported.items():
    source = importlib.import_module(f"qtlink.{module}")
    for name in names:
        if name not in listed:
            result["missing_from_dir"].append(name)
        if star.get(name) is not getattr(source, name):
            result["missing_from_star"].append(name)
        if getattr(qtlink, name) is not getattr(source, name):
            result["wrong_object"].append(name)
try:
    qtlink.no_such_name
except AttributeError as err:
    result["unknown"] = str(err)
print(json.dumps(result))
"""


def _python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_leaves_the_layers_it_does_not_run_unloaded(tmp_path):
    out = tmp_path / "fig3.json"
    argv = ["fig3", "--steps", "5", "--format", "json", "--out", str(out)]
    record = _python(PROBE_CLI, json.dumps(UNUSED_BY_FIG3), *argv)
    assert record["rc"] == 0
    assert out.exists()
    expected = dict.fromkeys(UNUSED_BY_FIG3, True)
    assert record["import"] == expected
    assert record["main"] == expected


@pytest.mark.parametrize("command", list(UNUSED_BY))
def test_each_command_executes_only_the_layers_it_runs(command):
    record = _python(PROBE_CLI, json.dumps(LAYERS), command)
    assert record["rc"] == 0
    assert record["import"] == dict.fromkeys(LAYERS, True)
    assert record["main"] == {name: name in UNUSED_BY[command] for name in LAYERS}


def test_delta_u_out_writes_through_emit_without_the_sweep_layer(tmp_path):
    out = tmp_path / "du.csv"
    record = _python(PROBE_CLI, json.dumps(LAYERS), "delta-u", "--out", str(out))
    assert record["rc"] == 0
    assert out.exists()
    assert record["main"] == {name: name not in ("sensing", "emit") for name in LAYERS}


@pytest.mark.parametrize(
    "argv, loaded",
    [(["delta-u"], 0), (["delta-u", "--format", "json"], 1), (["tm-check"], 0), (["verify"], 0)],
)
def test_json_loads_only_to_read_a_config_file_or_write_json(argv, loaded):
    assert _python(PROBE_JSON, *argv) == {"import": 0, "main": loaded, "rc": 0}


def test_every_exported_name_resolves():
    record = _python(PROBE_NAMES, json.dumps(EXPORTED))
    assert record["missing_from_dir"] == []
    assert record["missing_from_star"] == []
    assert record["wrong_object"] == []
    assert record["unknown"] == "module 'qtlink' has no attribute 'no_such_name'"
