"""Layers load on first use.

Importing the CLI executes no layer, and each command executes only the
layers it runs: the others stay registered but never executed, while every
name the package re-exports still resolves.  numpy loads only with the first
array: delta-u never loads it.  Each check runs in a fresh
interpreter, since this test process has long since loaded them all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qtlink.cli import COMMANDS

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

# the module named first (json, numpy) is left out of this probe's own
# imports, so it shows whether qtlink loaded it
PROBE_LOADED = """
import sys
import qtlink.cli

name = sys.argv[1]
after_import = name in sys.modules
rc = qtlink.cli.main(sys.argv[2:])
print('{"import": %d, "main": %d, "rc": %d}' % (after_import, name in sys.modules, rc))
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


def test_delta_u_out_writes_through_emit_without_the_sweep_layer_or_numpy(tmp_path):
    out = tmp_path / "du.csv"
    record = _python(PROBE_CLI, json.dumps(LAYERS), "delta-u", "--out", str(out))
    assert record["rc"] == 0
    assert out.exists()
    assert record["main"] == {name: name not in ("sensing", "emit") for name in LAYERS}
    loaded = _python(PROBE_LOADED, "numpy", "delta-u", "--out", str(out))
    assert loaded == {"import": 0, "main": 0, "rc": 0}


LINK_CONFIG = {
    "sensing": {"r_db": 7.0},
    "link": {
        "path1": {
            "geometry": {"range_m": 5e5, "tx_waist_m": 0.1, "rx_aperture_m": 0.5,
                         "wavelength_m": 815e-9, "pointing_jitter_rad": 1e-7},
            "eta_detector": 0.9,
        },
        "path2": {"eta_diffraction": 0.8, "eta_pointing": 0.9, "eta_detector": 0.95},
    },
}


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["delta-u"], 0),
        (["delta-u", "--r-db", "9", "--eta", "0.7", "--format", "json"], 0),
        (["delta-u", "--config", "{config}"], 0),
        (["compare", "--steps", "5", "--out", "{out}/compare.csv"], 1),
        (["verify"], 1),
        (["tm-check"], 1),
        (["fig3", "--steps", "5", "--format", "svg", "--out", "{out}/fig3.svg"], 1),
    ],
    ids=["delta-u", "delta-u-json", "delta-u-link", "compare", "verify", "tm-check", "fig3"],
)
def test_numpy_loads_only_for_commands_that_build_arrays(argv, loaded, tmp_path):
    config = tmp_path / "link.json"
    config.write_text(json.dumps(LINK_CONFIG))
    argv = [arg.format(config=config, out=tmp_path) for arg in argv]
    assert _python(PROBE_LOADED, "numpy", *argv) == {"import": 0, "main": loaded, "rc": 0}


@pytest.mark.parametrize(
    "argv, loaded",
    [(["delta-u"], 0), (["delta-u", "--format", "json"], 1), (["tm-check"], 0), (["verify"], 0)],
)
def test_json_loads_only_to_read_a_config_file_or_write_json(argv, loaded):
    assert _python(PROBE_LOADED, "json", *argv) == {"import": 0, "main": loaded, "rc": 0}


# the value types are Records, so no command loads dataclasses; numpy imports
# inspect itself, so only delta-u, which never loads numpy, shows that saving
@pytest.mark.parametrize("name", ["dataclasses", "inspect"])
@pytest.mark.parametrize(
    "argv",
    [["delta-u"], ["delta-u", "--format", "json"], ["delta-u", "--config", "{config}"],
     ["delta-u", "--out", "{out}/du.csv"]],
    ids=["csv", "json", "link", "out"],
)
def test_delta_u_imports_neither_dataclasses_nor_inspect(name, argv, tmp_path):
    config = tmp_path / "link.json"
    config.write_text(json.dumps(LINK_CONFIG))
    argv = [arg.format(config=config, out=tmp_path) for arg in argv]
    assert _python(PROBE_LOADED, name, *argv) == {"import": 0, "main": 0, "rc": 0}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_no_command_imports_dataclasses(command, tmp_path):
    flags = {names[0] for names, _ in COMMANDS[command][1]}
    argv = [command]
    if "--steps" in flags:
        argv += ["--steps", "5"]
    if "--out" in flags:
        argv += ["--out", str(tmp_path / f"{command}.out")]
    assert _python(PROBE_LOADED, "dataclasses", *argv) == {"import": 0, "main": 0, "rc": 0}


def test_every_exported_name_resolves():
    record = _python(PROBE_NAMES, json.dumps(EXPORTED))
    assert record["missing_from_dir"] == []
    assert record["missing_from_star"] == []
    assert record["wrong_object"] == []
    assert record["unknown"] == "module 'qtlink' has no attribute 'no_such_name'"


# the SVG builders and json, each loaded or not once main has run
PROBE_EMIT = """
import sys
import qtlink.cli

rc = qtlink.cli.main(sys.argv[1:])
print('{"svg": %d, "json": %d, "rc": %d}' % ("qtlink.svg" in sys.modules, "json" in sys.modules, rc))
"""


@pytest.mark.parametrize(
    "argv, svg",
    [
        (["fig3", "--format", "svg"], 1),
        (["fig4", "--format", "svg"], 1),
        (["grid", "--format", "svg"], 1),
        (["fig3", "--format", "json"], 0),
        (["fig2", "--format", "csv"], 0),
        (["sweep", "--format", "json"], 0),
    ],
)
def test_svg_commands_skip_json_and_tables_skip_the_svg_builders(argv, svg, tmp_path):
    out = tmp_path / f"out.{argv[-1]}"
    record = _python(PROBE_EMIT, *argv, "--steps", "5", "--out", str(out))
    assert record == {"svg": svg, "json": 1 - svg, "rc": 0}
    assert out.exists()
