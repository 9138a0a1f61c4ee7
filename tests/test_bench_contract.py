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

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_runs_fig3_and_counts_points_and_cells(tmp_path):
    trace = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    argv = ["fig3", "--steps", "12", "--format", "svg"]
    argv += ["--out", str(tmp_path / "fig3.svg")]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(trace), *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(trace.read_text())
    assert record["rc"] == 0
    assert record["sweep_points"] == 144
    assert record["contour_cells"] > 0
    assert record["contour_hits"] > 0
