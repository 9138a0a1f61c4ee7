"""The benchmark's tracer must keep working against the package.

bench/tracer.py wraps qtlink's public layer functions by name and reads
sweep results and contour calls; a refactor that renames one of them, or
changes what they return, breaks the traced benchmark without failing any
other test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _trace(tmp_path, *argv):
    """Run ``argv`` under bench/tracer.py and return its trace record."""
    trace = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(trace), *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(trace.read_text())


def test_tracer_runs_fig3_and_counts_points_and_cells(tmp_path):
    argv = ["fig3", "--steps", "12", "--format", "svg"]
    record = _trace(tmp_path, *argv, "--out", str(tmp_path / "fig3.svg"))
    assert record["rc"] == 0
    assert record["sweep_points"] == 144
    assert record["contour_cells"] > 0
    assert record["contour_hits"] > 0


def test_tracer_counts_the_scalar_calls_of_delta_u(tmp_path):
    # four delta_u_* wrappers plus quantum_advantage, whose inner calls are not recounted
    record = _trace(tmp_path, "delta-u", "--r-db", "5", "--eta", "0.5")
    assert record["rc"] == 0
    assert record["counts"]["sensing"] == 5


def test_tracer_spans_the_temporal_checks_of_tm_check(tmp_path):
    # one mode_functions call for the report, one inside each of the nine residuals
    record = _trace(tmp_path, "tm-check")
    assert record["rc"] == 0
    names = [span[0] for span in record["spans"]]
    assert names.count("temporal.mode_functions") == 10
    assert names.count("temporal.shift_expansion_check") == 9


def test_tracer_counts_the_scalar_calls_of_a_link_config(tmp_path):
    geometry = {"range_m": 4e5, "tx_waist_m": 0.1, "rx_aperture_m": 0.5,
                "wavelength_m": 815e-9, "pointing_jitter_rad": 1e-7}
    link = {"path1": {"geometry": geometry, "eta_detector": 0.9},
            "path2": {"eta_diffraction": 0.8, "eta_pointing": 0.9, "eta_detector": 0.7}}
    config = tmp_path / "link.json"
    config.write_text(json.dumps({"link": link}))
    record = _trace(tmp_path, "delta-u", "--config", str(config))
    assert record["rc"] == 0
    assert record["counts"]["sensing"] == 5


@pytest.mark.parametrize(
    "argv, points",
    [
        # 4 levels x (N**2 two-mode + N one-mode points), N etas
        (["verify"], 168),
        (["verify", "--eta-steps", "30"], 3720),
    ],
    ids=["default-grid", "eta-steps-30"],
)
def test_tracer_counts_the_oracle_ops_and_points_of_verify(argv, points, tmp_path):
    # six ops per two-mode chain, one chain per squeezing level (24), plus
    # three for the one-mode chain, which runs every level at once
    record = _trace(tmp_path, *argv)
    assert record["rc"] == 0
    assert record["counts"]["gaussian"] == 27
    assert record["verify_points"] == points


@pytest.mark.parametrize(
    "argv, points",
    [
        (["sweep", "--variable", "n_in", "--steps", "7"], 7),
        (["compare", "--steps", "5"], 5),
        # fig4's inner run_compare_smsv call is not counted a second time
        (["fig4", "--steps", "9"], 9),
    ],
)
def test_tracer_counts_the_points_of_each_sweep_entry_point(argv, points, tmp_path):
    record = _trace(tmp_path, *argv, "--out", str(tmp_path / "out.csv"))
    assert record["rc"] == 0
    assert record["sweep_points"] == points


@pytest.mark.parametrize(
    "fmt, spans",
    [
        ("json", ["emit.write_result", "emit.render_json"]),
        # the SVG builders call contour_segments through the emit module
        ("svg", ["emit.write_result", "emit.render_svg", *["emit.contour_segments"] * 4]),
    ],
)
def test_tracer_spans_the_emit_layer_of_fig3(fmt, spans, tmp_path):
    out = tmp_path / f"fig3.{fmt}"
    record = _trace(tmp_path, "fig3", "--steps", "12", "--format", fmt, "--out", str(out))
    assert record["rc"] == 0
    assert [span[0] for span in record["spans"] if span[0].startswith("emit.")] == spans
    assert record["emit_bytes"] == out.stat().st_size
