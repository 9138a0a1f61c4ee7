"""Byte-level goldens for the emitted figure, sweep, grid and comparison files.

Each golden was written by the release that first shipped these formats and
is never regenerated: a mismatch means an emitted number or string changed,
which is a finding to explain, not a file to refresh.  The r_db sweep is the
one that catches last-bit drift in sinh/cosh/exp of an array of r values.
tm_check.txt is the default tm-check report, written before the report
moved from the CLI into the temporal layer.
"""

from pathlib import Path

import pytest

from qtlink.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "fig2.csv": ["fig2"],
    "fig3_steps20.json": ["fig3", "--steps", "20", "--format", "json"],
    "fig3_steps20.svg": ["fig3", "--steps", "20", "--format", "svg"],
    "fig4.csv": ["fig4"],
    "fig4.svg": ["fig4", "--format", "svg"],
    "sweep_r_db.json": ["sweep", "--variable", "r_db", "--format", "json"],
    "grid_delta_u_steps15.csv": ["grid", "--quantity", "delta_u", "--steps", "15"],
    "compare.json": ["compare", "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_emitted_bytes_match_golden(name, tmp_path, capsys):
    out = tmp_path / name
    assert main([*CASES[name], "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_tm_check_report_matches_golden(capsys):
    assert main(["tm-check"]) == 0
    out, err = capsys.readouterr()
    assert (out.encode(), err) == ((GOLDEN / "tm_check.txt").read_bytes(), "")
