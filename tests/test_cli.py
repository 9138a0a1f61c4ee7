import argparse
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.strategies import (
    booleans,
    composite,
    data,
    dictionaries,
    fixed_dictionaries,
    floats,
    integers,
    just,
    lists,
    none,
    recursive,
    sampled_from,
    text,
)

from qtlink import cli
from qtlink.cli import COMMANDS, build_parser, main
from qtlink.constants import REQUIRED, SWEEP_VARIABLES, asdict
from qtlink.link import LinkGeometry
from qtlink.sensing import PAPER_SCALE_CONFIG, SCHEMES, SWEPT, ChannelPair, SensingConfig
from qtlink.sweep import MAX_GRID_STEPS, MAX_STEPS
from qtlink.verify import MAX_ETA_STEPS

FIG2_HEADER = "eta,du_sql,du_tmsv_3db,du_tmsv_7db,du_tmsv_11db,du_tmsv_15db"


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_delta_u_table(capsys):
    code, out, _ = run(["delta-u", "--eta", "0.5", "--r-db", "5"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "scheme,delta_u_s"
    values = dict(line.split(",") for line in lines[1:5])
    assert float(values["TMSV_real"]) == pytest.approx(1.0412e-17, rel=1e-3)
    assert float(values["SQL"]) == pytest.approx(1.1849e-17, rel=1e-3)


def test_delta_u_json_format(capsys):
    code, out, _ = run(
        ["delta-u", "--eta", "0.5", "--r-db", "5", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["SMSV_real"] == pytest.approx(7.8486e-18, rel=1e-3)


def test_fig2_writes_golden_header(tmp_path, capsys):
    out_path = tmp_path / "fig2.csv"
    code, _, _ = run(["fig2", "--steps", "10", "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[1] == FIG2_HEADER
    assert len(lines) == 12  # comment + header + 10 rows


def test_fig2_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["fig2", "--steps", "25", "--out", str(a)], capsys)
    run(["fig2", "--steps", "25", "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_fig3_svg_with_levels(tmp_path, capsys):
    out_path = tmp_path / "fig3.svg"
    code, _, _ = run(
        [
            "fig3",
            "--steps",
            "12",
            "--format",
            "svg",
            "--levels",
            "0.5e-18,1.0e-18,1.5e-18,1.9e-18",
            "--out",
            str(out_path),
        ],
        capsys,
    )
    assert code == 0
    assert out_path.read_text().startswith("<svg")


def test_fig4_and_compare_match(tmp_path, capsys):
    fig4, cmp_ = tmp_path / "f.csv", tmp_path / "c.csv"
    run(["fig4", "--steps", "15", "--out", str(fig4)], capsys)
    run(["compare", "--steps", "15", "--r-db", "5", "--out", str(cmp_)], capsys)
    # identical physics; only the config echo differs
    assert fig4.read_text().splitlines()[1:] == cmp_.read_text().splitlines()[1:]


def test_sweep_subcommand(tmp_path, capsys):
    out_path = tmp_path / "s.csv"
    code, _, _ = run(
        [
            "sweep",
            "--variable",
            "r_db",
            "--start",
            "0",
            "--stop",
            "15",
            "--steps",
            "6",
            "--schemes",
            "TMSV",
            "--eta",
            "0.8",
            "--out",
            str(out_path),
        ],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[1] == "r_db,du_tmsv"
    assert len(lines) == 8


def test_schemes_flag_accepts_exactly_the_table_aliases_in_any_case(tmp_path, capsys):
    aliases = ",".join(SWEPT)
    assert build_parser("sweep").parse_args(["sweep"]).schemes == aliases
    code, out, _ = _exit(["sweep", "--help"], capsys)
    assert code == 0 and f"comma list from {aliases}" in out
    out_path = tmp_path / "s.csv"
    base = ["sweep", "--steps", "3", "--out", str(out_path)]
    for alias, scheme in SWEPT.items():
        for spelled in (alias, alias.lower(), alias.capitalize()):
            assert run([*base, "--schemes", spelled], capsys)[0] == 0
            assert out_path.read_text().splitlines()[1] == f"eta_symmetric,{SCHEMES[scheme][1]}"
    assert run([*base, "--schemes", aliases.lower()], capsys)[0] == 0
    header = ",".join(["eta_symmetric", *(SCHEMES[s][1] for s in SWEPT.values())])
    assert out_path.read_text().splitlines()[1] == header
    # kernel names and columns that are not aliases (SQL is both), and anything else
    names = [*SCHEMES, *(column for _, column in SCHEMES.values() if column), "X"]
    for other in [name for name in names if name.upper() not in SWEPT]:
        code, stdout, err = run([*base, "--schemes", other], capsys)
        assert (code, stdout) == (1, "")
        assert err == "error: schemes must be a nonempty subset of ('TMSV', 'SQL', 'SMSV')\n"


def test_verify_passes(capsys):
    code, out, _ = run(["verify"], capsys)
    assert code == 0
    assert "passed=True" in out


def test_verify_impossible_tolerance_exits_2(capsys):
    code, _, err = run(["verify", "--tol", "1e-16"], capsys)
    assert code == 2
    assert "cross-check failed" in err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_verify_rejects_non_finite_tolerance(tol, capsys):
    code, out, err = run(["verify", "--tol", tol], capsys)
    assert code == 1
    assert "tolerance" in err
    assert out == ""


def test_verify_independent_policy(capsys):
    code, out, _ = run(["verify", "--policy", "independent"], capsys)
    assert code == 0
    assert "note:" in out


def test_tm_check(capsys):
    code, out, _ = run(["tm-check"], capsys)
    assert code == 0
    assert "tm-check passed" in out


@pytest.mark.parametrize(
    "args, code, verdict",
    [
        (["--omega0", "1e9"], 0, "passed"),
        (["--omega0", "2.31e15", "--spread", "6.28e6"], 0, "passed"),
        (["--omega0", "1e10"], 1, "FAILED"),
    ],
    ids=["omega-1e9", "paper-scale", "omega-1e10"],
)
def test_tm_check_passes_up_to_an_omega_of_1e9(args, code, verdict, capsys):
    # from Omega = omega0/spread ~ 1e10 the rounding of the carrier phase
    # dominates the residual, and a FAILED report exits 1 with nothing on stderr
    got, out, err = run(["tm-check", *args], capsys)
    assert (got, out.splitlines()[-1], err) == (code, f"tm-check {verdict}", "")


def test_invalid_flag_value_exits_1(capsys):
    code, _, err = run(["delta-u", "--eta", "1.5"], capsys)
    assert code == 1
    assert "error" in err


def test_unknown_argument_exits_1(capsys):
    code, _, _ = run(["delta-u", "--bogus"], capsys)
    assert code == 1


def test_unwritable_output_exits_3(capsys):
    code, _, err = run(["fig2", "--steps", "5", "--out", "/no/dir/fig2.csv"], capsys)
    assert code == 3
    assert "could not write" in err


def test_config_file_sections(tmp_path, capsys):
    config = {
        "sensing": {"r_db": 5.0, "n_in": 1000.0},
        "channel": {"eta1": 0.5, "eta2": 0.5},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(["delta-u", "--config", str(path)], capsys)
    assert code == 0
    values = dict(line.split(",") for line in out.splitlines()[1:5])
    assert float(values["TMSV_real"]) == pytest.approx(1.0412e-17, rel=1e-3)


def test_flags_override_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sensing": {"r_db": 5.0}, "channel": {"eta1": 0.2}}))
    code, out, _ = run(
        ["delta-u", "--config", str(path), "--eta", "0.5", "--r-db", "5"], capsys
    )
    assert code == 0
    values = dict(line.split(",") for line in out.splitlines()[1:5])
    assert float(values["TMSV_real"]) == pytest.approx(1.0412e-17, rel=1e-3)


def _sweep_meta(tmp_path, capsys, args, config=None):
    """The meta that ``sweep --format json`` echoes for ``args`` and ``config``."""
    out_path = tmp_path / "s.json"
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        args = [*args, "--config", str(path)]
    assert run(["sweep", "--format", "json", "--out", str(out_path), *args], capsys)[0] == 0
    return json.loads(out_path.read_text())["meta"]


_PAPER = asdict(PAPER_SCALE_CONFIG)
# flag -> (its argument, the config section it sets, and each field it sets
# with the field's value under the flag, in the file, and by default)
_PRECEDENCE = {
    "--r-db": ("9", "sensing", {"r_db": (9.0, 7.0, _PAPER["r_db"])}),
    "--n-in": ("2000", "sensing", {"n_in": (2000.0, 500.0, _PAPER["n_in"])}),
    "--lambda0-nm": ("1310", "sensing", {"lambda0": (1310 * 1e-9, 1.55e-6, _PAPER["lambda0"])}),
    "--delta-omega": ("2e6", "sensing", {"delta_omega": (2e6, 1e6, _PAPER["delta_omega"])}),
    "--split": ("0.7", "sensing", {"split": (0.7, 0.3, _PAPER["split"])}),
    "--snr": ("3", "sensing", {"snr": (3.0, 2.0, _PAPER["snr"])}),
    "--eta": ("0.6", "channel", {"eta1": (0.6, 0.4, 1.0), "eta2": (0.6, 0.3, 1.0)}),
    "--eta1": ("0.6", "channel", {"eta1": (0.6, 0.4, 1.0)}),
    "--eta2": ("0.6", "channel", {"eta2": (0.6, 0.3, 1.0)}),
    "--policy": ("shared", "channel", {"policy": ("shared", "independent", "shared")}),
    "--variable": ("r_db", "sweep", {"variable": ("r_db", "n_in", "eta_symmetric")}),
    "--start": ("0.2", "sweep", {"start": (0.2, 0.3, 0.01)}),
    "--stop": ("0.8", "sweep", {"stop": (0.8, 0.9, 1.0)}),
    "--steps": ("4", "sweep", {"steps": (4, 3, 100)}),
}


@pytest.mark.parametrize("layer", ["flag", "file", "default"])
@pytest.mark.parametrize("flag", list(_PRECEDENCE))
def test_each_setting_is_its_flag_else_the_file_else_the_default(flag, layer, tmp_path, capsys):
    value, section, expected = _PRECEDENCE[flag]
    args = [flag, value] if layer == "flag" else []
    # the channel flags set every eta, so their cases sweep r_db
    if section == "channel":
        args += ["--variable", "r_db"]
    config = {section: {key: values[1] for key, values in expected.items()}}
    column = ("flag", "file", "default").index(layer)
    meta = _sweep_meta(tmp_path, capsys, args, None if layer == "default" else config)
    assert {key: meta[section][key] for key in expected} == {
        key: values[column] for key, values in expected.items()
    }


@pytest.mark.parametrize(
    "args, lambda0, omega0",
    [([], None, 2.3e15), (["--lambda0-nm", "1310"], 1310 * 1e-9, None)],
)
def test_lambda0_nm_replaces_a_file_omega0(args, lambda0, omega0, tmp_path, capsys):
    meta = _sweep_meta(tmp_path, capsys, args, {"sensing": {"omega0": 2.3e15}})
    assert (meta["sensing"]["lambda0"], meta["sensing"]["omega0"]) == (lambda0, omega0)


@pytest.mark.parametrize(
    "args, channel, eta1, eta2",
    [
        ([], {}, 0.3, 1.0),
        ([], {"eta1": 0.4}, 0.4, 1.0),
        (["--eta1", "0.5"], {"eta1": 0.4}, 0.5, 1.0),
        (["--eta", "0.6"], {"eta1": 0.4}, 0.6, 0.6),
    ],
)
def test_a_link_path_eta_lies_under_the_file_channel_under_the_flags(
    args, channel, eta1, eta2, tmp_path, capsys
):
    config = {"link": {"path1": {"eta_detector": 0.3}}, "channel": channel}
    meta = _sweep_meta(tmp_path, capsys, [*args, "--variable", "r_db"], config)
    assert meta["channel"] == {"eta1": eta1, "eta2": eta2, "policy": "shared"}


@pytest.mark.parametrize(
    "args", [["--eta1", "0.2", "--eta", "0.9"], ["--eta", "0.9", "--eta1", "0.2"]]
)
def test_eta1_beats_eta_in_either_order(args, tmp_path, capsys):
    meta = _sweep_meta(tmp_path, capsys, [*args, "--variable", "r_db"])
    assert meta["channel"] == {"eta1": 0.2, "eta2": 0.9, "policy": "shared"}


def test_config_file_link_section(tmp_path, capsys):
    config = {
        "sensing": {"r_db": 5.0},
        "link": {
            "path1": {"eta_diffraction": 0.8, "eta_pointing": 0.9, "eta_detector": 0.7},
            "path2": {"eta_detector": 0.504},
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(["delta-u", "--config", str(path)], capsys)
    assert code == 0
    values = dict(line.split(",") for line in out.splitlines()[1:5])
    # both paths compose to eta = 0.504
    expected = run(["delta-u", "--eta", "0.504", "--r-db", "5"], capsys)[1]
    expected_values = dict(line.split(",") for line in expected.splitlines()[1:5])
    assert values["TMSV_real"] == expected_values["TMSV_real"]


def test_config_file_link_geometry(tmp_path, capsys):
    config = {
        "link": {
            "geometry": {
                "range_m": 1.0,
                "tx_waist_m": 0.01,
                "rx_aperture_m": 10.0,
                "wavelength_m": 815e-9,
            },
            "eta_detector": 0.9,
        }
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(["delta-u", "--config", str(path)], capsys)
    assert code == 0


def test_missing_config_file_exits_3(capsys):
    code, _, _ = run(["delta-u", "--config", "/no/such.json"], capsys)
    assert code == 3


def test_bad_config_json_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, _ = run(["delta-u", "--config", str(path)], capsys)
    assert code == 1


@pytest.mark.parametrize("config", [[1, 2], "sensing", 5, None])
def test_config_file_whose_top_level_is_not_an_object_exits_1(config, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert run(["delta-u", "--config", str(path)], capsys) == (
        1, "", f"error: config file {str(path)!r} must hold a JSON object\n"
    )


@pytest.mark.parametrize(
    "args",
    [["delta-u", "--r-db", "-1"], ["compare", "--r-db", "-1"],
     ["sweep", "--variable", "r_db", "--start", "-1", "--steps", "3"]],
)
def test_a_negative_squeezing_level_is_named_by_the_kernel(args, tmp_path, monkeypatch, capsys):
    # the kernel's bound names it, as it names a level past 30 dB, whether set or swept
    monkeypatch.chdir(tmp_path)
    assert run(args, capsys) == (
        1, "", "error: squeezing level in dB must be finite and >= 0, got -1.0\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["sweep", "compare", "grid", "fig2", "fig3", "fig4"])
def test_an_eta_axis_past_one_exits_1_naming_the_bound(command, tmp_path, monkeypatch, capsys):
    # fig2 used to fail in the kernel, naming a sample: eta1 ... got 1.1275
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"sweep": {"stop": 1.5, "steps": 5}}))
    assert run([command, "--config", "cfg.json"], capsys) == (
        1, "", "error: eta sweeps must stay inside (0, 1]\n"
    )
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize(
    "args, config, name",
    [
        (["fig4", "--steps", "3"], {"sweep": [1, 2]}, "sweep"),
        (["sweep", "--steps", "3"], {"sweep": None}, "sweep"),
        (["delta-u"], {"link": {"path1": 5}}, "link.path1"),
        (["delta-u"], {"link": {"path2": [0.5]}}, "link.path2"),
        (["delta-u"], {"link": [0.5]}, "link"),
        (["delta-u"], {"link": {"geometry": [1.0, 1.0]}}, "link.geometry"),
        (["delta-u"], {"link": {"path1": {"geometry": "x"}}}, "link.path1.geometry"),
        (["delta-u"], {"channel": [["eta1", 0.5], ["eta2", 0.5]]}, "channel"),
        (["delta-u"], {"sensing": [["r_db", 3]]}, "sensing"),
        (["grid", "--steps", "3"], {"sensing": "r_db"}, "sensing"),
    ],
)
def test_non_object_config_section_exits_1_naming_it(args, config, name, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out_path = tmp_path / "out.csv"
    code, out, err = run([*args, "--config", str(path), "--out", str(out_path)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: config section {name!r} must be a JSON object\n"
    assert not out_path.exists()


_GEOMETRY = {"range_m": 1.0, "tx_waist_m": 0.01, "rx_aperture_m": 10.0, "wavelength_m": 815e-9}
_GEOMETRY_KEYS = "range_m, tx_waist_m, rx_aperture_m, wavelength_m, pointing_jitter_rad"
_FACTORS = "eta_diffraction, eta_pointing, eta_detector"


@pytest.mark.parametrize(
    "link, entry, key, allowed",
    [
        ({"eta_foo": 0.5}, "link", "eta_foo", _FACTORS),
        ({"detector": 0.5}, "link", "detector", _FACTORS),
        ({"geometry": _GEOMETRY, "eta_pointing": 0.5}, "link", "eta_pointing",
         "geometry, eta_detector"),
        ({"path1": {"eta_detector": 0.9}, "eta_detector": 0.9}, "link", "eta_detector",
         "path1, path2"),
        ({"path2": {"eta_foo": 0.5}}, "link.path2", "eta_foo", _FACTORS),
        ({"path1": {"geometry": _GEOMETRY, "eta_diffraction": 0.5}}, "link.path1",
         "eta_diffraction", "geometry, eta_detector"),
        ({"path1": {"geometry": {**_GEOMETRY, "foo": 1}}}, "link.path1.geometry", "foo",
         _GEOMETRY_KEYS),
    ],
    ids=["unknown-factor", "bare-detector", "factor-beside-geometry", "factor-beside-paths",
         "path-unknown-factor", "path-factor-beside-geometry", "unknown-geometry-key"],
)
def test_link_key_the_loader_never_reads_exits_1_naming_it(
    link, entry, key, allowed, tmp_path, capsys
):
    # these used to be ignored, or to fail with a dataclass's keyword-argument error
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"link": link}))
    assert run(["delta-u", "--config", str(path)], capsys) == (
        1, "", f"error: config entry {entry!r} has unknown key {key!r}; it may hold {allowed}\n"
    )


# the sensing fields an offset reads: n_lo and the phases cancel in each
_SENSING_KEYS = "r_db, n_in, lambda0, omega0, delta_omega, split, snr"


@pytest.mark.parametrize(
    "args, config, entry, key, allowed",
    [
        (["fig2"], {"sweep": {"step": 20}}, "sweep", "step", "start, stop, steps"),
        (["delta-u"], {"Sensing": {"r_db": 10}}, None, "Sensing", "sensing, channel, link"),
        (["delta-u"], {"sensing": {"rdb": 10}}, "sensing", "rdb", _SENSING_KEYS),
        (["compare"], {"channel": {"eta": 0.5}}, "channel", "eta", "policy"),
        # the whole file is checked before any value is built
        (["sweep"], {"sensing": {"r_db": 99}, "link": {"bogus": 1}}, "link", "bogus", _FACTORS),
        (["sweep"], {"channel": {"eta1": 2}, "sweep": {"bogus": 1}}, "sweep", "bogus",
         "variable, start, stop, steps"),
    ],
    ids=["sweep-step", "top-level-Sensing", "sensing-rdb", "channel-eta",
         "link-beside-a-bad-r_db", "sweep-beside-a-bad-eta1"],
)
def test_a_config_key_the_loader_never_reads_exits_1_naming_it(
    args, config, entry, key, allowed, tmp_path, capsys
):
    # these used to run with the key ignored (fig2 wrote its 100 default rows,
    # delta-u ran at 5 dB), or to print a dataclass's keyword-argument error
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out_path = tmp_path / "out.csv"
    entry = entry or str(path)
    assert run([*args, "--config", str(path), "--out", str(out_path)], capsys) == (
        1, "", f"error: config entry {entry!r} has unknown key {key!r}; it may hold {allowed}\n"
    )
    assert not out_path.exists()


# every key of the four config sections, with two values that each command
# reading the key accepts ("link" is one key: its entry is read whole)
_PERTURBED = {
    "sensing.r_db": (3.0, 9.0),
    "sensing.n_in": (500.0, 2000.0),
    "sensing.n_lo": (1.0, 4.0),
    "sensing.theta1": (0.0, 0.5),
    "sensing.theta2": (0.0, 0.5),
    "sensing.theta_lo": (0.0, 0.5),
    "sensing.lambda0": (815e-9, 1550e-9),
    "sensing.omega0": (2.3e15, 1.2e15),
    "sensing.delta_omega": (6e6, 1e15),
    "sensing.split": (0.5, 0.3),
    "sensing.snr": (1.0, 2.0),
    "channel.eta1": (0.5, 0.6),
    "channel.eta2": (0.7, 0.8),
    "channel.policy": ("shared", "independent"),
    "link": ({"eta_detector": 0.5}, {"eta_detector": 0.6}),
    "sweep.variable": ("r_db", "n_in"),
    "sweep.start": (0.2, 0.3),
    "sweep.stop": (0.8, 0.9),
    "sweep.steps": (3, 4),
}
# a config under which each key can act: lossy etas, so that the policy
# shows, swept over r_db, so that the etas are not the swept variable
_PERTURBED_BASE = {
    "delta-u": {"channel": {"eta1": 0.5, "eta2": 0.7}},
    "sweep": {"channel": {"eta1": 0.5, "eta2": 0.7}, "sweep": {"variable": "r_db", "steps": 3}},
    **dict.fromkeys(("grid", "compare", "fig2", "fig3", "fig4"), {"sweep": {"steps": 3}}),
    "verify": {},
}
# fig2 takes its squeezing levels from --r-dbs: sensing.r_db changes only
# the echoed config line, and is kept so that `fig2 --r-db` still runs
_PERTURBED_EXEMPT = {("fig2", "sensing.r_db")}


def _perturbed_outcome(command, key, value, tmp_path, capsys):
    """(exit code, stdout, stderr, output rows) of ``command`` with ``key`` set to ``value``.

    The rows are the written table without its echoed config line, else stdout.
    """
    config = json.loads(json.dumps(_PERTURBED_BASE[command]))
    if key == "link":
        # a link entry's etas lie under the file's channel etas
        config.pop("channel", None)
    section, _, name = key.partition(".")
    if name:
        config.setdefault(section, {})[name] = value
    else:
        config[section] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    args = [command, "--config", str(path)]
    if command not in ("delta-u", "verify"):
        args += ["--out", str(out)]
    code, stdout, err = run(args, capsys)
    rows = stdout
    if out.exists():
        rows = out.read_text().split("\n", 1)[1]
        out.unlink()
    return code, stdout, err, rows


@pytest.mark.parametrize(
    "command, key",
    [
        (command, key)
        for command in _PERTURBED_BASE
        for key in _PERTURBED
        if (command, key) not in _PERTURBED_EXEMPT
    ],
)
def test_a_changed_config_key_changes_the_rows_or_exits_1(command, key, tmp_path, capsys):
    # every key used to be accepted by every command, read or not: a key a
    # command never read ran to the same rows
    outcomes = [
        _perturbed_outcome(command, key, value, tmp_path, capsys) for value in _PERTURBED[key]
    ]
    for code, stdout, err, rows in outcomes:
        assert code in (0, 1), (code, err)
        if code == 1:
            assert (stdout, rows) == ("", "")
            assert err.startswith("error: ") and err.count("\n") == 1
    if all(outcome[0] == 0 for outcome in outcomes):
        assert outcomes[0][3] != outcomes[1][3]


def test_the_perturbed_keys_cover_every_config_key():
    keys = {f"sensing.{name}" for name in SensingConfig.FIELDS}
    keys |= {f"channel.{name}" for name in ChannelPair.FIELDS}
    keys |= {"link", "sweep.variable", "sweep.start", "sweep.stop", "sweep.steps"}
    assert set(_PERTURBED) == keys
    assert set(_PERTURBED_BASE) == {
        command for command, entry in COMMANDS.items() if ("--config",) in [f[0] for f in entry[1]]
    }


def test_each_flag_sets_config_keys_its_commands_read():
    # a flag is a named source of the config keys it sets, so each command
    # declaring the flag must read them, and each entry must be a flag
    declared = set()
    for command, (_, flags, keys, _) in COMMANDS.items():
        for names, _ in flags:
            name = names[0].removeprefix("--").replace("-", "_")
            if name in cli._FLAG_FIELDS:
                section, fields = cli._FLAG_FIELDS[name]
                assert {f"{section}.{field}" for field in fields} <= set(keys), (command, name)
                declared.add(name)
    assert declared == set(cli._FLAG_FIELDS)


def test_each_command_declares_only_the_config_keys_it_reads():
    reads = {command: entry[2] for command, entry in COMMANDS.items()}
    assert sum(map(len, reads.values())) <= 78
    assert reads["verify"] == ("channel.policy",)
    assert not any(
        key.startswith(("channel.", "link"))
        for command in ("grid", "fig2", "fig3", "fig4")
        for key in reads[command]
    )


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"sensing": {"r_db": 3}, "sensing": {"n_in": 50}}', "sensing"),
        ('{"sensing": {"r_db": 3, "n_in": 50, "r_db": 9}}', "r_db"),
    ],
    ids=["top-level", "nested"],
)
def test_a_repeated_config_key_exits_1_naming_it(text, key, tmp_path, capsys):
    # json.load kept only the last of them: the top-level case ran at the default 5 dB
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert run(["delta-u", "--config", str(path)], capsys) == (
        1, "", f"error: config file {str(path)!r} repeats key {key!r}\n"
    )


def test_a_missing_geometry_key_exits_1_naming_the_block(tmp_path, capsys):
    # this used to fail with LinkGeometry's missing-argument error, naming no entry
    geometry = {k: v for k, v in _GEOMETRY.items() if k != "tx_waist_m"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"link": {"path1": {"geometry": geometry}}}))
    assert run(["delta-u", "--config", str(path)], capsys) == (
        1, "", "error: config entry 'link.path1.geometry' is missing key 'tx_waist_m'; "
               f"it may hold {_GEOMETRY_KEYS}\n"
    )


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("fig4", {"sensing": {"r_db": "x"}}, "r_db must be a real number, got 'x'"),
        ("fig4", {"sweep": {"steps": 2.5}}, "steps must be an integer, got 2.5"),
        ("delta-u", {"link": {"eta_detector": "x"}},
         "eta_detector must be a real number, got 'x'"),
    ],
)
def test_config_field_of_the_wrong_type_exits_1_naming_it(
    command, config, message, tmp_path, capsys
):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out_path = tmp_path / "out.csv"
    code, out, err = run([command, "--config", str(path), "--out", str(out_path)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"
    assert not out_path.exists()


@pytest.mark.parametrize(
    "args, config, field",
    [
        (["delta-u"], {"sensing": {"split": math.nan}}, "split"),
        (["delta-u", "--n-in", "inf"], None, "n_in"),
        (["delta-u", "--r-db", "nan"], None, "r_db"),
        (["delta-u", "--delta-omega", "inf"], None, "delta_omega"),
        (["delta-u", "--eta1", "nan"], None, "eta1"),
        (["sweep", "--stop", "inf"], None, "stop"),
        (["sweep", "--variable", "r_db", "--start", "nan"], None, "start"),
    ],
)
def test_non_finite_inputs_exit_1_naming_the_field(args, config, field, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        args = [*args, "--config", str(path)]
    code, out, err = run([*args, "--out", str(tmp_path / "o.csv")], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {field} must be")


def _delta_u_values(capsys, *extra):
    args = ["delta-u", "--eta1", "0.4", "--eta2", "0.7", "--r-db", "5", *extra]
    code, out, _ = run(args, capsys)
    assert code == 0
    return {k: float(v) for k, v in (line.split(",") for line in out.splitlines()[1:5])}


def test_delta_u_honours_the_independent_policy(capsys):
    shared = _delta_u_values(capsys)
    independent = _delta_u_values(capsys, "--policy", "independent")
    # independent ports drop the vacuum cross term, lowering both lossy offsets
    assert independent["TMSV_real"] < shared["TMSV_real"]
    assert independent["SQL"] < shared["SQL"]
    # the lossless and single-mode schemes have no cross term
    assert independent["TMSV_ideal"] == shared["TMSV_ideal"]
    assert independent["SMSV_real"] == shared["SMSV_real"]


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_sweep_and_compare_honour_the_policy(command, tmp_path, capsys):
    texts = {}
    for policy in ("shared", "independent"):
        out = tmp_path / f"{policy}.csv"
        args = [command, "--steps", "5", "--r-db", "5", "--policy", policy]
        args += ["--out", str(out)]
        assert run(args, capsys)[0] == 0
        texts[policy] = out.read_text().splitlines()[2:]
    assert texts["shared"] != texts["independent"]


@pytest.mark.parametrize("command", ["grid", "fig2", "fig3", "fig4"])
def test_fixed_channel_commands_reject_independent_policy(command, tmp_path, capsys):
    # these fix their channels to the shared model, so they take no --policy
    out = tmp_path / "o.csv"
    args = [command, "--steps", "4", "--policy", "independent", "--out", str(out)]
    assert run(args, capsys) == (
        1, "", build_parser().format_usage()
        + "error: argument error: unrecognized arguments: --policy independent\n"
    )
    assert not out.exists()


def test_fixed_channel_commands_reject_independent_policy_from_config(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    Path("cfg.json").write_text(json.dumps({"channel": {"policy": "independent"}}))
    assert run(["fig3", "--config", "cfg.json", "--steps", "4"], capsys) == (
        1, "", "error: config entry 'cfg.json' has unknown key 'channel'; "
        "it may hold sensing, sweep\n"
    )
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"]


# A value each flag accepts, so a rejection is about the flag, not its value.
FLAG_VALUES = {
    "--r-db": "5", "--n-in": "1000", "--n-lo": "1", "--lambda0-nm": "815",
    "--delta-omega": "6e6", "--split": "0.5", "--snr": "1", "--eta": "0.5",
    "--eta1": "0.5", "--eta2": "0.5", "--steps": "5", "--format": "csv", "--out": "o.csv",
    "--policy": "shared",
}
# (command, flag) pairs that were accepted but read by nothing
DROPPED = [
    *(("verify", flag) for flag in FLAG_VALUES if flag != "--policy"),
    *((command, flag) for command in ("grid", "compare", "fig2", "fig3", "fig4")
      for flag in ("--eta", "--eta1", "--eta2")),
    ("delta-u", "--steps"),
    # the local-oscillator photon number cancels in every offset a command prints
    *((command, "--n-lo") for command in ("delta-u", "sweep", "grid", "compare", "fig2", "fig3",
                                          "fig4")),
    # these fix their channels to the shared model
    *((command, "--policy") for command in ("grid", "fig2", "fig3", "fig4")),
]


def command_flags():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {a.option_strings[-1] for a in p._actions if not isinstance(a, argparse._HelpAction)}
        for name, p in sub.choices.items()
    }


def _exit(argv, capsys):
    """Exit code, stdout and stderr of ``qtlink ARGV``, --help's SystemExit included."""
    try:
        code = main(argv)
    except SystemExit as exit_:
        code = exit_.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("command", list(COMMANDS))
def test_one_command_parser_reads_as_the_full_parser(command, monkeypatch, capsys):
    argvs = ([command, "--help"], [command, "--bogus", "1"], [command, "fig2"])
    one = [_exit(argv, capsys) for argv in argvs]
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
    assert [_exit(argv, capsys) for argv in argvs] == one
    assert one[0][0] == 0 and one[0][1].startswith(f"usage: qtlink {command} [-h]")
    assert one[1][0] == 1 and "unrecognized arguments: --bogus 1" in one[1][2]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        ([], 1, "error: argument error: the following arguments are required: command\n"),
        (["--help"], 0, ""),
        (["bogus"], 1, "error: argument error: argument command: invalid choice: 'bogus'"),
    ],
)
def test_top_level_usage_lists_every_command(argv, code, message, capsys):
    assert len(COMMANDS) == 9
    got, out, err = _exit(argv, capsys)
    assert got == code
    assert "{" + ",".join(COMMANDS) + "}" in out + err
    assert message in err


def test_each_command_declares_only_the_flags_it_reads():
    flags = command_flags()
    assert sum(map(len, flags.values())) <= 94
    assert flags["verify"] == {"--config", "--policy", "--tol", "--eta-steps"}
    assert len(DROPPED) == 40
    assert not any(flag in flags[command] for command, flag in DROPPED)


# README's shorthand in its flags table and in its config keys table: the
# prose that defines each term, the term, and what it stands for
_README_FLAG_TERMS = {
    '"sensing" stands for `--r-db --n-in --lambda0-nm --delta-omega --split --snr`':
        ("sensing", ["--r-db", "--n-in", "--lambda0-nm", "--delta-omega", "--split", "--snr"]),
    '"etas" for `--eta --eta1 --eta2`': ("etas", ["--eta", "--eta1", "--eta2"]),
    '"table" for `--config`, sensing, `--steps`, `--format csv|json|svg` and `--out`':
        ("table", ["--config", "sensing", "--steps", "--format csv|json|svg", "--out"]),
}
_README_KEY_TERMS = {
    '"sensing" stands for the `sensing` keys `r_db`, `n_in`, `lambda0`, `omega0`, '
    '`delta_omega`, `split` and `snr`':
        ("sensing", [f"sensing.{key}" for key in (
            "r_db", "n_in", "lambda0", "omega0", "delta_omega", "split", "snr")]),
    '"range" for the `sweep` keys `start`, `stop` and `steps`':
        ("range", ["sweep.start", "sweep.stop", "sweep.steps"]),
}


def _readme_table(header):
    """Each command of README's table under ``header`` to the parts of its second cell."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    rows = {}
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            return rows
        first, second = re.split(r"(?<!\\)\|", line)[1:-1]
        for command in first.split(","):
            rows[command.strip(" `")] = [
                part.strip(" `").replace("\\|", "|") for part in second.split(", ")
            ]


def _readme_terms(terms):
    """Each shorthand term of ``terms`` to what it stands for, once its prose is in README."""
    prose = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    assert [text for text in terms if text not in prose] == []
    return dict(terms.values())


def _expand(parts, terms):
    """``parts`` with each shorthand term replaced, recursively, by what it stands for."""
    return [
        word for part in parts
        for word in (_expand(terms[part], terms) if part in terms else [part])
    ]


def test_readme_flags_table_matches_the_commands():
    terms = _readme_terms(_README_FLAG_TERMS)
    rows = _readme_table("| Command | Flags |")
    assert sorted(rows) == sorted(COMMANDS)
    for command, parts in rows.items():
        declared = {names[0]: kwargs.get("choices") for names, kwargs in COMMANDS[command][1]}
        written = [part.split(" ") for part in _expand(parts, terms)]
        assert sorted(flag for flag, *_ in written) == sorted(declared), command
        # a flag written with its choices, as `--format csv|json`, lists all of them
        for flag, *choices in written:
            assert not choices or choices[0].split("|") == list(declared[flag]), command


def test_readme_config_keys_table_matches_the_commands():
    terms = _readme_terms(_README_KEY_TERMS)
    rows = _readme_table("| Command | Config keys read |")
    assert sorted(rows) == sorted(COMMANDS)
    for command, parts in rows.items():
        if parts[0].startswith("none:"):
            parts = []
        elif parts[0].startswith("as "):  # as `delta-u`, plus `sweep.variable` and range
            extra = parts[1].removeprefix("plus ").replace("`", "").split(" and ")
            parts = rows[parts[0].removeprefix("as ").strip("`")] + extra
        assert sorted(_expand(parts, terms)) == sorted(COMMANDS[command][2]), command


@pytest.mark.parametrize("command, flag", DROPPED)
def test_dropped_flag_exits_1_writing_nothing(command, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run([command, flag, FLAG_VALUES[flag]], capsys)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err
    assert list(tmp_path.iterdir()) == []


def test_delta_u_rejects_svg(capsys):
    code, out, err = run(["delta-u", "--format", "svg"], capsys)
    assert code == 1
    assert out == ""
    assert "invalid choice: 'svg'" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_delta_u_out_writes_the_bytes_it_would_print(fmt, tmp_path, capsys):
    args = ["delta-u", "--eta1", "0.4", "--eta2", "0.7", "--format", fmt]
    code, printed, err = run(args, capsys)
    path = tmp_path / f"d.{fmt}"
    assert code == 0
    assert run([*args, "--out", str(path)], capsys) == (0, f"wrote {path}\n", err)
    assert path.read_bytes() == printed.encode()


@pytest.mark.parametrize(
    "variable, flag",
    [
        ("eta_symmetric", "--eta"),
        ("eta_symmetric", "--eta2"),
        ("eta1", "--eta1"),
        ("eta1", "--eta"),
        ("eta2", "--eta2"),
        ("r_db", "--r-db"),
        ("n_in", "--n-in"),
    ],
)
def test_sweep_rejects_a_flag_that_sets_the_swept_variable(variable, flag, tmp_path, capsys):
    out = tmp_path / "s.csv"
    args = ["sweep", "--variable", variable, flag, FLAG_VALUES[flag], "--out", str(out)]
    code, stdout, err = run(args, capsys)
    assert code == 1
    assert stdout == ""
    assert err.startswith(f"error: {flag} sets {variable}")
    assert not out.exists()


@pytest.mark.parametrize(
    "args, config, entry, variable",
    [
        (["--variable", "eta1"], {"channel": {"eta1": 0.3}}, "channel.eta1", "eta1"),
        (["--variable", "eta2"], {"channel": {"eta2": 0.3}}, "channel.eta2", "eta2"),
        ([], {"channel": {"eta2": 0.3}}, "channel.eta2", "eta_symmetric"),
        (["--variable", "r_db"], {"sensing": {"r_db": 9.0}}, "sensing.r_db", "r_db"),
        ([], {"sweep": {"variable": "n_in"}, "sensing": {"n_in": 500.0}}, "sensing.n_in", "n_in"),
        (["--variable", "eta1"], {"link": {"path1": {"eta_detector": 0.3}}}, "link.path1", "eta1"),
        ([], {"link": {"path2": {"eta_detector": 0.3}}}, "link.path2", "eta_symmetric"),
        (["--variable", "eta2"], {"link": {"eta_detector": 0.3}}, "link", "eta2"),
        (["--eta", "0.4"], {"channel": {"eta1": 0.3}}, "--eta, channel.eta1", "eta_symmetric"),
        (["--variable", "eta1", "--eta", "0.4", "--eta1", "0.3"], {}, "--eta, --eta1", "eta1"),
        (["--variable", "eta1", "--eta1", "0.2"],
         {"channel": {"eta1": 0.3}, "link": {"path1": {"eta_detector": 0.5}}},
         "--eta1, channel.eta1, link.path1", "eta1"),
    ],
)
def test_sweep_rejects_a_config_entry_that_sets_the_swept_variable(
    args, config, entry, variable, tmp_path, capsys
):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "s.csv"
    code, stdout, err = run(["sweep", *args, "--config", str(path), "--out", str(out)], capsys)
    assert (code, stdout, err) == (1, "", f"error: {entry} sets {variable}, the swept variable\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "args, flag",
    [
        (["fig3", "--levels", "nan"], "--levels"),
        (["grid", "--levels", "1e-18,inf"], "--levels"),
        (["grid", "--levels", "1e-18,"], "--levels"),
        (["fig2", "--r-dbs", "3,,7"], "--r-dbs"),
        (["fig2", "--r-dbs", "3,x"], "--r-dbs"),
        (["sweep", "--schemes", "TMSV,"], "--schemes"),
    ],
)
def test_comma_lists_reject_empty_or_non_finite_parts(args, flag, tmp_path, capsys):
    out = tmp_path / "o.svg"
    code, stdout, err = run([*args, "--steps", "4", "--out", str(out)], capsys)
    assert code == 1
    assert stdout == ""
    assert err.startswith(f"error: {flag} has an empty or non-finite part")
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--omega0", "nan", "omega0"),
        ("--spread", "inf", "delta_omega"),
        ("--span", "nan", "grid_span"),
    ],
)
def test_tm_check_rejects_non_finite_profile(flag, value, field, capsys):
    code, out, err = run(["tm-check", flag, value], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {field} must be finite")


@pytest.mark.parametrize(
    "args, message",
    [
        (["--spread", "1e-200"], "big_omega must be <= 1e150, got 1e+201"),
        (["--omega0", "1e160"], "big_omega must be <= 1e150, got 1e+160"),
        (["--omega0", "1e300"], "big_omega must be <= 1e150, got 1e+300"),
        (["--spread", "1e300"], "delta_omega must be in [1e-150, 1e150], got 1e+300"),
        (["--omega0", "5e-324", "--spread", "1e-320"],
         "delta_omega must be in [1e-150, 1e150], got 1e-320"),
    ],
)
def test_tm_check_rejects_a_scale_whose_square_overflows(args, message, capsys):
    # Omega and delta_omega are squared as Python floats, which raise OverflowError
    assert run(["tm-check", *args], capsys) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "args", [["--points", "16"], ["--span", "1e300"], ["--span", "1.3e263", "--points", "3736"]]
)
def test_tm_check_rejects_a_coarse_grid_before_printing(args, capsys):
    code, out, err = run(["tm-check", *args], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: grid too coarse for the expansion check: span ")
    assert err.count("\n") == 1


_EDGE_FLOATS = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, -5e-324, 2.2e-308, 1e-200, 1e300,
    1e308, -1e308,
)
# the values drawn for each integer flag: tm-check's grid holds --points
# samples per mode, a table holds --steps rows and verify checks --eta-steps
# squared points, so each is drawn small, or past its limit where it has one
_INTS = {
    "--points": integers(-5, 8192),
    "--steps": integers(-5, 300) | integers(MAX_STEPS + 1, 10**12),
    "--eta-steps": integers(-5, 12) | integers(MAX_ETA_STEPS + 1, 10**12),
}
# a grid holds --steps squared cells, so its axis is drawn smaller, or past
# the grid limit
_GRID_STEPS = integers(-5, 40) | integers(MAX_GRID_STEPS + 1, 10**12)
_GRID_COMMANDS = ("grid", "fig3")
# any float, the edge values, and often one in [0, 1], legal for every field
_FLOATS = floats() | sampled_from(_EDGE_FLOATS) | floats(0.0, 1.0)
_JSON_SCALARS = none() | booleans() | integers() | _FLOATS | text(max_size=8)
# any JSON value: a scalar, or small lists and objects of them
_JSON_VALUES = recursive(
    _JSON_SCALARS,
    lambda inner: lists(inner, max_size=3) | dictionaries(text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
# often a float, so that a budget or a range can be legal
_NUMBERS = _FLOATS | _JSON_VALUES
_GEOMETRY_FIELDS = LinkGeometry.FIELDS
# a geometry block with every required field, or any subset of its fields
_GEOMETRY_BLOCKS = fixed_dictionaries(
    {name: _NUMBERS for name, default in _GEOMETRY_FIELDS.items() if default is REQUIRED},
    optional={
        name: _NUMBERS for name, default in _GEOMETRY_FIELDS.items() if default is not REQUIRED
    },
) | dictionaries(sampled_from(list(_GEOMETRY_FIELDS)), _NUMBERS, max_size=5)
# one path's budget: its loss factors, or a geometry block and a detector factor
_BUDGET = dictionaries(
    sampled_from(["eta_diffraction", "eta_pointing", "eta_detector"]), _NUMBERS, max_size=3
) | fixed_dictionaries({"geometry": _GEOMETRY_BLOCKS}, optional={"eta_detector": _NUMBERS})
# the link section: one budget for both paths, a budget per path, or any JSON value
_LINK = (
    _BUDGET
    | fixed_dictionaries({}, optional={"path1": _BUDGET | _JSON_VALUES, "path2": _BUDGET})
    | _JSON_VALUES
)
# sweep-section key -> the values drawn for it
_SWEEP_FIELDS = {
    "variable": sampled_from(SWEEP_VARIABLES) | _JSON_VALUES,
    "start": _NUMBERS,
    "stop": _NUMBERS,
    "steps": integers(-5, 40) | _JSON_VALUES,
}


def _comma_lists(parts):
    """A comma list of 0 to 4 of ``parts``, or any short text."""
    return lists(parts, max_size=4).map(",".join) | text(max_size=8)


# values of the flags that take text: the config and output files, and comma lists
_TEXT_FLAGS = {
    "--config": just("config.json"),
    "--out": just("out.dat"),
    "--levels": _comma_lists(_FLOATS.map(repr) | sampled_from(["1e-17", "1e-18", "x", ""])),
    "--r-dbs": _comma_lists(_FLOATS.map(repr) | sampled_from(["3", "7", "3.0", "31", ""])),
    "--schemes": _comma_lists(sampled_from(["TMSV", "SQL", "SMSV", "smsv", "X", ""])),
}


@composite
def _argv(draw, command):
    """(argv, config): ``command`` with random values for a random subset of its flags.

    The flags and config keys are the command's own entry in the command
    table.  A --config flag names ``config.json``, which holds ``config``:
    random JSON values under the sensing and channel keys the command reads,
    and random link and sweep sections where it reads them.
    """
    argv = [command]
    for names, kwargs in COMMANDS[command][1]:
        if not draw(booleans()):
            continue
        flag = names[0]
        if "choices" in kwargs:
            value = draw(sampled_from(kwargs["choices"]))
        elif flag == "--steps" and command in _GRID_COMMANDS:
            value = draw(_GRID_STEPS)
        elif kwargs.get("type") is int:
            value = draw(_INTS[flag])
        elif kwargs.get("type") is float:
            value = draw(_FLOATS)
        else:
            value = draw(_TEXT_FLAGS[flag])
        # --flag=value, so that a negative value parses as a value
        argv.append(f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}")
    reads = {}
    for section, _, name in (key.partition(".") for key in COMMANDS[command][2]):
        reads.setdefault(section, []).append(name)
    config = {
        section: draw(dictionaries(sampled_from(reads[section]), _JSON_VALUES, max_size=4))
        for section in ("sensing", "channel")
        if section in reads
    }
    if "link" in reads and draw(booleans()):
        config["link"] = draw(_LINK)
    if "sweep" in reads and draw(booleans()):
        keys = {key: _SWEEP_FIELDS[key] for key in reads["sweep"]}
        config["sweep"] = draw(fixed_dictionaries({}, optional=keys) | _JSON_VALUES)
    return argv, config


def _assert_exits_cleanly(argv, config):
    """Run ``argv`` in a fresh directory holding ``config.json``; allow only clean outcomes.

    Exit 0, a tm-check FAILED report, a verify report that failed its
    tolerance (exit 2), or exit 1 with empty stdout and one ``error:`` line;
    never a warning, and never an exception past main.
    """
    home = os.getcwd()
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as folder:
        Path(folder, "config.json").write_text(json.dumps(config))
        os.chdir(folder)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv)
        finally:
            os.chdir(home)
    out, err = out.getvalue(), err.getvalue()
    assert [str(w.message) for w in caught] == []
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    # delta-u's one stderr line on success
    advantage = argv[0] == "delta-u" and err.startswith("# advantage") and err.count("\n") == 1
    # a --tol tighter than the oracle's rounding is a legal, failing run
    failed_check = err.startswith("error: oracle cross-check failed") and err.count("\n") == 1
    assert (
        (code == 0 and (err == "" or advantage))
        or (code == 1 and out.endswith("tm-check FAILED\n") and err == "")
        or (code == 2 and out.endswith(" passed=False\n") and failed_check)
        or (code == 1 and out == "" and len(errors) == 1)
    ), (argv, config, code, out, err)


@settings(deadline=None, max_examples=150)
@given(case=_argv("tm-check"))
def test_tm_check_exits_cleanly_on_any_flag_values(case):
    _assert_exits_cleanly(*case)


@pytest.mark.parametrize("command", ["delta-u", "compare"])
@settings(deadline=None, max_examples=150)
@given(data=data())
def test_delta_u_and_compare_exit_cleanly_on_any_flags_and_config(command, data):
    _assert_exits_cleanly(*data.draw(_argv(command)))


@settings(deadline=None, max_examples=150)
@given(case=_argv("verify"))
def test_verify_exits_cleanly_on_any_flags_and_config(case):
    _assert_exits_cleanly(*case)


@pytest.mark.parametrize("command", ["sweep", "grid", "fig2", "fig3", "fig4"])
@settings(deadline=None, max_examples=100)
@given(data=data())
def test_table_commands_exit_cleanly_on_any_flags_and_config(command, data):
    _assert_exits_cleanly(*data.draw(_argv(command)))


def test_compare_echoes_a_non_shared_policy(tmp_path, capsys):
    metas = {}
    for policy in ("shared", "independent"):
        out = tmp_path / f"{policy}.json"
        args = ["compare", "--steps", "5", "--policy", policy, "--format", "json"]
        assert run([*args, "--out", str(out)], capsys)[0] == 0
        metas[policy] = json.loads(out.read_text())["meta"]
    assert "channel" not in metas["shared"]
    assert metas["independent"] == {**metas["shared"], "channel": {"policy": "independent"}}


def _verify_with_config(tmp_path, capsys, config, *flags):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return run(["verify", "--config", str(path), *flags], capsys)


@pytest.mark.parametrize(
    "config, entry, key, allowed",
    [
        ({"sensing": {"r_db": -1}}, None, "sensing", "channel"),
        ({"sensing": {"no_such_field": 1.0}}, None, "sensing", "channel"),
        ({"link": {"eta_detector": 2.0}}, None, "link", "channel"),
        ({"channel": {"eta1": 7.0}}, "channel", "eta1", "policy"),
        ({"channel": {"eta1": "x", "policy": "shared"}, "sweep": {"steps": -3}}, None, "sweep",
         "channel"),
    ],
)
def test_verify_rejects_each_non_policy_key_naming_it(
    config, entry, key, allowed, tmp_path, capsys
):
    # the oracle reads only the vacuum policy; these used to be ignored
    entry = entry or str(tmp_path / "cfg.json")
    assert _verify_with_config(tmp_path, capsys, config) == (
        1, "", f"error: config entry {entry!r} has unknown key {key!r}; it may hold {allowed}\n"
    )


def test_verify_takes_the_policy_from_config(tmp_path, capsys):
    config = {"channel": {"policy": "independent"}}
    flagged = run(["verify", "--policy", "independent"], capsys)
    assert _verify_with_config(tmp_path, capsys, config) == flagged
    # the flag overrides the file
    plain = run(["verify"], capsys)
    assert _verify_with_config(tmp_path, capsys, config, "--policy", "shared") == plain


@pytest.mark.parametrize(
    "config, message",
    [
        ({"channel": {"policy": "bogus"}}, "unknown vacuum policy 'bogus'"),
        ({"channel": ["policy", "independent"]}, "'channel' must be a JSON object"),
        ({"channel": "independent"}, "'channel' must be a JSON object"),
    ],
)
def test_verify_rejects_a_bad_channel_policy(config, message, tmp_path, capsys):
    code, out, err = _verify_with_config(tmp_path, capsys, config)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("r_dbs", ["3,3.0", "3,3.0000001", "7,3,7"])
def test_fig2_rejects_repeated_column_labels(r_dbs, tmp_path, capsys):
    out_path = tmp_path / "fig2.csv"
    code, out, err = run(["fig2", "--r-dbs", r_dbs, "--out", str(out_path)], capsys)
    assert code == 1
    assert out == ""
    assert "r_dbs repeat the column label du_tmsv_" in err
    assert not out_path.exists()



@pytest.mark.parametrize(
    "args, bad",
    [
        (["fig2", "--r-dbs", "7000"], "7000.0"),
        (["compare", "--r-db", "7000"], "7000.0"),
        (["sweep", "--variable", "r_db", "--stop", "1e9"], "10101010.1010101"),
        # the radicand had lost all squeezing here: the column equalled du_sql
        (["fig2", "--r-dbs", "15,200"], "200.0"),
    ],
)
def test_squeezing_past_the_overflow_bound_exits_1_naming_it(args, bad, tmp_path, capsys):
    # sinh and cosh of these levels overflow a double; they used to traceback.
    # The bound is now the radicand's precision limit, far below the overflow.
    out_path = tmp_path / "out.csv"
    code, out, err = run([*args, "--out", str(out_path)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: squeezing level in dB must be at most 30, got {bad}\n"
    assert not out_path.exists()


def test_sweep_rejects_a_non_string_variable_from_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"sweep": {"variable": ["a"]}}))
    out_path = tmp_path / "out.csv"
    code, out, err = run(["sweep", "--config", str(path), "--out", str(out_path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: unknown sweep variable ['a']; pick one of (")
    assert not out_path.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        # 5000 dB used to overflow the radicand; the level bound now stops it first
        (["sweep", "--variable", "r_db", "--stop", "5000", "--steps", "3", "--eta1", "0.5",
          "--eta2", "0.9"], "squeezing level in dB must be at most 30, got 2500.0"),
        (["delta-u", "--n-in", "1e-320"], "delta_u must be finite and > 0, got inf"),
        # this used to name omega_rss, a kernel-internal value
        (["delta-u", "--lambda0-nm", "1e-300"], "carrier_omega must be finite and > 0, got inf"),
        (["tm-check", "--omega0", "1e300", "--spread", "1e-300"],
         "big_omega must be finite and > 0, got inf"),
    ],
    ids=["sweep", "delta-u", "delta-u-carrier", "tm-check"],
)
def test_an_overflow_exits_1_with_one_error_line(args, message, tmp_path, monkeypatch, capsys):
    # numpy's overflow warnings used to print ahead of the error, or instead of it
    monkeypatch.chdir(tmp_path)
    assert run(args, capsys) == (1, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args, message",
    [
        # verify checks eta_steps**2 points per level: 10**5 used to ask for ~75 GiB
        (["verify", "--eta-steps", "100000"], "eta_steps must be <= 200, got 100000"),
        (["fig3", "--steps", "501"], "steps must be <= 500, got 501"),
        (["grid", "--steps", "501", "--format", "json"], "steps must be <= 500, got 501"),
        (["sweep", "--steps", "100001"], "steps must be <= 100000, got 100001"),
        (["fig2", "--steps", "1000000000"], "steps must be <= 100000, got 1000000000"),
        # iso-levels are drawn only on an SVG; they used to be ignored
        (["grid", "--steps", "5", "--format", "csv", "--levels", "1e-18"],
         "--levels needs --format svg"),
        (["fig3", "--steps", "5", "--format", "json", "--levels", "1e-18"],
         "--levels needs --format svg"),
    ],
)
def test_a_step_count_past_its_limit_exits_1_writing_nothing(
    args, message, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert run(args, capsys) == (1, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args, builder",
    [
        (["grid", "--steps", "500", "--format", "csv"], "run_grid"),
        (["fig3", "--format", "json"], "preset_fig3"),
        # a bad range too: the --levels error is the one reported
        (["grid", "--steps", "1", "--format", "csv"], "run_grid"),
    ],
)
def test_levels_off_svg_exit_1_before_the_table_is_built(
    args, builder, tmp_path, monkeypatch, capsys
):
    # a 500-step grid used to be built, ~0.16 s, before --levels was checked
    def no_table(*args, **kwargs):
        raise AssertionError("the table was built")

    monkeypatch.setattr(f"qtlink.sweep.{builder}", no_table)
    monkeypatch.chdir(tmp_path)
    assert run([*args, "--levels", "1e-18"], capsys) == (
        1, "", "error: --levels needs --format svg\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "geometry, named",
    [
        ({"range_m": 1.0, "tx_waist_m": 1e200}, "range_m=1.0, tx_waist_m=1e+200"),
        ({"range_m": 1e300, "tx_waist_m": 0.1}, "range_m=1e+300, tx_waist_m=0.1"),
    ],
)
def test_an_overflowing_link_geometry_exits_1_naming_its_fields(
    geometry, named, tmp_path, capsys
):
    # squaring these used to raise OverflowError past main
    geometry.update(rx_aperture_m=0.1, wavelength_m=1e-6)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"link": {"geometry": geometry}}))
    assert run(["delta-u", "--config", str(path)], capsys) == (
        1, "", f"error: link geometry beam radius overflows a double at {named}, "
        "wavelength_m=1e-06\n",
    )


def test_sweep_tabulates_the_default_n_in_range(tmp_path, capsys):
    out_path = tmp_path / "s.json"
    args = ["sweep", "--variable", "n_in", "--format", "json", "--out", str(out_path)]
    assert run(args, capsys)[0] == 0
    payload = json.loads(out_path.read_text())
    sweep = payload["meta"]["sweep"]
    assert sweep == {"start": 100.0, "stop": 1000000.0, "steps": 100, "variable": "n_in"}
    assert [row[0] for row in payload["rows"]] == np.linspace(1e2, 1e6, 100).tolist()


# ----------------------------------------------------------------------
# the process entry: main() with collection paused, the process ended after
# the atexit handlers
# ----------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]

# runs qtlink.cli as "python -m qtlink.cli" would, counting gc.freeze calls and
# the collections that start once main is entered, and recording the
# collector's state when main is entered and when the module exits; the
# record is printed after the module has run, so it must outlive the entry
_ENTRY_PROBE = """
import gc, json, runpy, sys
freezes = []
freeze = gc.freeze
gc.freeze = lambda: (freezes.append(1), freeze())[1]
seen = {}
def probe(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "main" and "qtlink" in frame.f_code.co_filename:
        seen.update(freezes=len(freezes), enabled=gc.isenabled(), collections=0)
        gc.callbacks.append(lambda phase, info: phase == "start" and seen.update(
            collections=seen["collections"] + 1))
        sys.setprofile(None)
sys.setprofile(probe)
try:
    runpy.run_module("qtlink.cli", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    seen.update(rc=exit.code, total_freezes=len(freezes), enabled_after=gc.isenabled())
    seen["frozen_after"] = gc.get_freeze_count() > 0
print(json.dumps(seen))
"""


def _python(*args, shell=None):
    """Run this interpreter on ``args`` from the repository root with block-buffered stdout.

    With ``shell``, the command runs as ``sh -c shell python args...``, so
    the shell script can redirect or close its streams.
    """
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, *args]
    proc = subprocess.run(
        argv if shell is None else ["sh", "-c", shell, *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_main_in_process_freezes_nothing(capsys):
    before = gc.get_freeze_count()
    assert run(["delta-u", "--eta", "0.5"], capsys)[0] == 0
    assert run(["tm-check", "--points", "8"], capsys)[0] == 1
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize(
    "argv, code",
    [
        (["delta-u", "--eta", "0.5"], 0),
        (["fig3", "--format", "svg"], 0),
        (["tm-check", "--points", "8"], 1),
    ],
    ids=["delta-u", "fig3-svg", "tm-check-validation"],
)
def test_module_entry_pauses_collection_across_main_and_freezes_nothing(argv, code, tmp_path):
    rc, out, err = _python("-c", _ENTRY_PROBE, *argv, *(
        ["--out", str(tmp_path / "fig3.svg")] if argv[0] == "fig3" else []))
    assert rc == code, err
    seen = json.loads(out.splitlines()[-1])
    # main starts with collection off and nothing frozen, and no collection
    # runs from there to the exit; nothing is ever frozen, and the exit
    # status is main's code
    assert seen == {"freezes": 0, "enabled": False, "collections": 0, "rc": code,
                    "total_freezes": 0, "enabled_after": False, "frozen_after": False}


# imports qtlink.cli with collection on or off, then allocates twice the young
# generation's threshold; records the young generation's size at the start of
# each collection, and whether collection is left as found
_IMPORT_GC_PROBE = """
import gc, json, sys

young = []
gc.callbacks.append(lambda phase, info: phase == "start" and young.append(len(gc.get_objects(0))))
if sys.argv[1] == "off":
    gc.disable()
from qtlink.cli import run
enabled = gc.isenabled()
junk = [[] for _ in range(2 * gc.get_threshold()[0])]
print(json.dumps({"young": young, "enabled": enabled, "threshold": gc.get_threshold()[0]}))
"""


@pytest.mark.parametrize("state", ["on", "off"])
def test_cli_import_runs_no_collection_over_the_import_heap(state):
    rc, out, err = _python("-c", _IMPORT_GC_PROBE, state)
    assert rc == 0, err
    seen = json.loads(out)
    assert seen["enabled"] == (state == "on")
    # each collection the import or the allocations after it start walks an
    # ordinary young generation, not a backlog of the import's objects
    assert all(size <= 2 * seen["threshold"] for size in seen["young"]), seen
    if state == "off":
        assert seen["young"] == []


def test_console_script_names_the_pausing_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["qtlink"]
    module, _, name = target.partition(":")
    # the script target, called in a fresh process with main patched, runs main
    # with collection off and nothing frozen and returns its code; the caller
    # then prints and exits normally, and the process still exits with that code
    code = (
        f"import gc, importlib; entry = importlib.import_module({module!r}); "
        f"entry.main = lambda: 7 if not gc.isenabled() and gc.get_freeze_count() == 0 else 9; "
        f"rc = getattr(entry, {name!r})(); "
        f"print(rc, gc.isenabled(), gc.get_freeze_count())"
    )
    assert _python("-c", code) == (7, "7 False 0\n", "")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["delta-u", "--eta", "0.5", "--r-db", "5"], 0),
        (["tm-check", "--points", "8"], 1),
        (["verify", "--tol", "1e-17"], 2),
        (["delta-u", "--config", "/no/such.json"], 3),
        (["fig4", "--steps", "9", "--out", "{tmp}/f.csv"], 0),
        (["grid", "--format", "csv", "--levels", "1e-18"], 1),
        (["compare", "--steps", "5", "--out", "/no/such/dir/c.csv"], 3),
        (["tm-check"], 0),
        (["verify", "--eta-steps", "30"], 0),
    ],
    ids=["ok", "validation", "verify-failure", "io", "table", "table-validation", "table-io",
         "tm-check", "verify-dense"],
)
def test_module_entry_prints_and_exits_as_main(argv, code, tmp_path, capsys):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    expected = run(argv, capsys)
    assert expected[0] == code
    assert _python("-m", "qtlink.cli", *argv) == expected


# registers a handler before the entry and, with after=True, one once the
# entry has returned; the caller then exits normally, with status 0
_ATEXIT_PROBE = """
import atexit, runpy
atexit.register(print, "registered before the entry")
try:
    runpy.run_module("qtlink.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
if {after}:
    atexit.register(print, "registered after the entry")
"""


@pytest.mark.parametrize("after", [False, True])
def test_module_entry_runs_every_atexit_handler_once_and_keeps_its_output(after, capsys):
    expected = run(["tm-check", "--points", "8"], capsys)
    rc, out, err = _python("-c", _ATEXIT_PROBE.format(after=after), "tm-check", "--points", "8")
    # the handlers run last in, first out, each once, and what they print
    # lands after the command's output.  The process ends with main's code;
    # with a handler registered after the entry, the interpreter's own exit
    # runs the rest and the caller's status stands.
    handlers = ["registered after the entry\n"] * after + ["registered before the entry\n"]
    assert (rc, out, err) == (0 if after else 1, expected[1] + "".join(handlers), expected[2])


def test_module_entry_under_cprofile_prints_the_profile(capsys):
    expected = run(["delta-u"], capsys)
    rc, out, err = _python("-m", "cProfile", "-m", "qtlink.cli", "delta-u")
    assert (rc, err) == (0, expected[2])
    command, _, profile = out.partition(expected[1])
    assert command == "" and "function calls" in profile and "Ordered by" in profile


def test_module_entry_with_stdout_closed_writes_and_exits_cleanly(tmp_path, capsys):
    expected = tmp_path / "expected.csv"
    assert run(["fig2", "--out", str(expected)], capsys) == (0, f"wrote {expected}\n", "")
    out_path = tmp_path / "f.csv"
    # the "wrote" line goes nowhere, and no flush of the missing stdout is tried at exit
    assert _python("-m", "qtlink.cli", "fig2", "--out", str(out_path), shell='"$0" "$@" >&-') == (
        0, "", "")
    assert out_path.read_bytes() == expected.read_bytes()
    # the process still ends early, with main's code where the caller exits 0
    expected = run(["tm-check", "--points", "8"], capsys)
    assert _python("-c", _ATEXIT_PROBE.format(after=False), "tm-check", "--points", "8",
                   shell='"$0" "$@" >&-') == (1, "", expected[2])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_module_entry_leaves_a_failing_flush_to_the_interpreter(capsys):
    expected = run(["delta-u"], capsys)
    # stdout is block-buffered, so the write fails only when it is flushed at
    # exit; the interpreter reports it and exits 120, as it does without the entry's handler
    rc, out, err = _python("-m", "qtlink.cli", "delta-u", shell='"$0" "$@" >/dev/full')
    assert (rc, out) == (120, "")
    command, _, report = err.partition(expected[2])
    assert command == ""
    assert report.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
    assert report.splitlines()[1:] == ["OSError: [Errno 28] No space left on device"]
