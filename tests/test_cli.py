import argparse
import io
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.strategies import booleans, composite, floats, integers, sampled_from

from qtlink import cli
from qtlink.cli import COMMANDS, build_parser, main

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
    ],
    ids=["unknown-factor", "bare-detector", "factor-beside-geometry", "factor-beside-paths",
         "path-unknown-factor", "path-factor-beside-geometry"],
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


@pytest.mark.parametrize(
    "config, message",
    [
        ({"sensing": {"r_db": "x"}}, "r_db must be a real number, got 'x'"),
        ({"sweep": {"steps": 2.5}}, "steps must be an integer, got 2.5"),
        ({"link": {"eta_detector": "x"}}, "eta_detector must be a real number, got 'x'"),
    ],
)
def test_config_field_of_the_wrong_type_exits_1_naming_it(config, message, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out_path = tmp_path / "out.csv"
    code, out, err = run(["fig4", "--config", str(path), "--out", str(out_path)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"
    assert not out_path.exists()


@pytest.mark.parametrize(
    "args, field",
    [
        (["delta-u", "--n-lo", "nan"], "n_lo"),
        (["delta-u", "--n-in", "inf"], "n_in"),
        (["delta-u", "--r-db", "nan"], "r_db"),
        (["delta-u", "--delta-omega", "inf"], "delta_omega"),
        (["delta-u", "--eta1", "nan"], "eta1"),
        (["sweep", "--stop", "inf"], "stop"),
        (["sweep", "--variable", "r_db", "--start", "nan"], "start"),
    ],
)
def test_non_finite_inputs_exit_1_naming_the_field(args, field, tmp_path, capsys):
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
    out = tmp_path / "o.csv"
    args = [command, "--steps", "4", "--policy", "independent", "--out", str(out)]
    code, _, err = run(args, capsys)
    assert code == 1
    assert "shared vacuum policy" in err
    assert not out.exists()


def test_fixed_channel_commands_reject_independent_policy_from_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"channel": {"policy": "independent"}}))
    code, _, err = run(["fig3", "--config", str(path), "--steps", "4"], capsys)
    assert code == 1
    assert "shared vacuum policy" in err


# A value each flag accepts, so a rejection is about the flag, not its value.
FLAG_VALUES = {
    "--r-db": "5", "--n-in": "1000", "--n-lo": "1", "--lambda0-nm": "815",
    "--delta-omega": "6e6", "--split": "0.5", "--snr": "1", "--eta": "0.5",
    "--eta1": "0.5", "--eta2": "0.5", "--steps": "5", "--format": "csv", "--out": "o.csv",
}
# (command, flag) pairs that were accepted but read by nothing
DROPPED = [
    *(("verify", flag) for flag in FLAG_VALUES),
    *((command, flag) for command in ("grid", "compare", "fig2", "fig3", "fig4")
      for flag in ("--eta", "--eta1", "--eta2")),
    ("delta-u", "--steps"),
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
    assert sum(map(len, flags.values())) <= 105
    assert flags["verify"] == {"--config", "--policy", "--tol", "--eta-steps"}
    assert len(DROPPED) == 29
    assert not any(flag in flags[command] for command, flag in DROPPED)


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


# tm-check's flags as its entry in the command table declares them
_TM_CHECK_FLAGS = COMMANDS["tm-check"][1]
_EDGE_FLOATS = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324, -5e-324, 2.2e-308, 1e-200, 1e300,
    1e308, -1e308,
)


@composite
def _tm_check_argv(draw):
    argv = ["tm-check"]
    for names, kwargs in _TM_CHECK_FLAGS:
        if not draw(booleans()):
            continue
        if kwargs["type"] is int:
            # the grid holds --points samples per mode, so its memory grows with
            # the count: draw at most 8192
            value = draw(integers(-5, 8192))
        else:
            value = draw(floats() | sampled_from(_EDGE_FLOATS))
        # --flag=value, so that a negative value parses as a value
        argv.append(f"{names[0]}={value!r}")
    return argv


@settings(deadline=None, max_examples=150)
@given(argv=_tm_check_argv())
def test_tm_check_exits_cleanly_on_any_flag_values(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert [str(w.message) for w in caught] == []
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert (
        (code == 0 and err == "")
        or (code == 1 and out.endswith("tm-check FAILED\n") and err == "")
        or (code == 1 and out == "" and len(errors) == 1)
    ), (argv, code, out, err)


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
    "config",
    [
        {"sensing": {"r_db": -1}},
        {"sensing": {"no_such_field": 1.0}},
        {"link": {"eta_detector": 2.0}},
        {"channel": {"eta1": 7.0}},
        {"channel": {"eta1": "x", "policy": "shared"}, "sweep": {"steps": -3}},
    ],
)
def test_verify_reads_only_the_policy_from_config(config, tmp_path, capsys):
    plain = run(["verify"], capsys)
    assert _verify_with_config(tmp_path, capsys, config) == plain


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
    ],
)
def test_squeezing_past_the_overflow_bound_exits_1_naming_it(args, bad, tmp_path, capsys):
    # sinh and cosh of these levels overflow a double; they used to traceback
    out_path = tmp_path / "out.csv"
    code, out, err = run([*args, "--out", str(out_path)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: squeezing level in dB must be at most 6165, got {bad}\n"
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
        (["sweep", "--variable", "r_db", "--stop", "5000", "--steps", "3", "--eta1", "0.5",
          "--eta2", "0.9"], "delta_u must be finite and > 0, got inf"),
        (["delta-u", "--n-in", "1e-320"], "delta_u must be finite and > 0, got inf"),
        (["tm-check", "--omega0", "1e300", "--spread", "1e-300"],
         "big_omega must be finite and > 0, got inf"),
    ],
    ids=["sweep", "delta-u", "tm-check"],
)
def test_an_overflow_exits_1_with_one_error_line(args, message, tmp_path, monkeypatch, capsys):
    # numpy's overflow warnings used to print ahead of the error, or instead of it
    monkeypatch.chdir(tmp_path)
    assert run(args, capsys) == (1, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_sweep_tabulates_the_default_n_in_range(tmp_path, capsys):
    out_path = tmp_path / "s.json"
    args = ["sweep", "--variable", "n_in", "--format", "json", "--out", str(out_path)]
    assert run(args, capsys)[0] == 0
    payload = json.loads(out_path.read_text())
    sweep = payload["meta"]["sweep"]
    assert sweep == {"start": 100.0, "stop": 1000000.0, "steps": 100, "variable": "n_in"}
    assert [row[0] for row in payload["rows"]] == np.linspace(1e2, 1e6, 100).tolist()
