"""Byte-level goldens for the emitted figure, sweep, grid and comparison files.

Each golden was written by the release that first shipped these formats and
is never regenerated: a mismatch means an emitted number or string changed,
which is a finding to explain, not a file to refresh.  The r_db sweep is the
one that catches last-bit drift in sinh/cosh/exp of an array of r values.
tm_check.txt is the default tm-check report, written before the report
moved from the CLI into the temporal layer.  delta_u.csv and delta_u.json
are delta-u's stdout at one operating point each, written while the kernel
still computed a single point with numpy: the math path must print the
same bytes.  fig2.svg, compare.svg, sweep_r_db_eta1_0.3.svg and
grid_delta_u_steps37_levels.svg were written before the SVG builders moved
to arrays: the array code must draw the same bytes.  verify_shared.txt and
verify_independent.txt are the verify report's stdout under each policy.
"""

from pathlib import Path

import pytest

from qtlink.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "fig2.csv": ["fig2"],
    "fig2.svg": ["fig2", "--format", "svg"],
    "fig3_steps20.json": ["fig3", "--steps", "20", "--format", "json"],
    "fig3_steps20.svg": ["fig3", "--steps", "20", "--format", "svg"],
    "fig4.csv": ["fig4"],
    "fig4.svg": ["fig4", "--format", "svg"],
    "sweep_r_db.json": ["sweep", "--variable", "r_db", "--format", "json"],
    "grid_delta_u_steps15.csv": ["grid", "--quantity", "delta_u", "--steps", "15"],
    "compare.json": ["compare", "--format", "json"],
    # the ratio column stays out of the log plot
    "compare.svg": ["compare", "--format", "svg"],
    # an x axis that is not an eta
    "sweep_r_db_eta1_0.3.svg": ["sweep", "--variable", "r_db", "--eta1", "0.3", "--format", "svg"],
    # explicit levels on a delta_u surface: two iso-line paths
    "grid_delta_u_steps37_levels.svg": ["grid", "--quantity", "delta_u", "--steps", "37",
                                        "--format", "svg", "--levels", "5e-18,2e-17"],
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


DELTA_U_CASES = {
    "delta_u.csv": ["delta-u", "--r-db", "7.5", "--eta1", "0.6", "--eta2", "0.85",
                    "--policy", "independent"],
    "delta_u.json": ["delta-u", "--r-db", "11.2", "--eta", "0.73", "--n-in", "4321",
                     "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(DELTA_U_CASES))
def test_delta_u_stdout_matches_golden(name, capsys):
    assert main(DELTA_U_CASES[name]) == 0
    out, _ = capsys.readouterr()
    assert out.encode() == (GOLDEN / name).read_bytes()


VERIFY_CASES = {
    "verify_shared.txt": ["verify"],
    "verify_independent.txt": ["verify", "--policy", "independent"],
}


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_verify_report_matches_golden(name, capsys):
    assert main(VERIFY_CASES[name]) == 0
    out, err = capsys.readouterr()
    assert (out.encode(), err) == ((GOLDEN / name).read_bytes(), "")


def test_every_golden_is_read_by_a_case():
    read = {*CASES, "tm_check.txt", *DELTA_U_CASES, *VERIFY_CASES}
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(read)
