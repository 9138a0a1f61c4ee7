"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Tolerances are fixed here, not tuned elsewhere.
"""

import contextlib
import io
import math

import numpy as np
import pytest

from qtlink.cli import main as cli_main
from qtlink.constants import replace
from qtlink.emit import render_csv
from qtlink.sensing import (
    ChannelPair,
    SensingConfig,
    advantage_boundary_eta1,
    delta_u_smsv_real,
    delta_u_sql,
    delta_u_tmsv_ideal,
    delta_u_tmsv_real,
    quantum_advantage,
    r_from_db,
    radicand,
)
from qtlink.sweep import preset_fig2, preset_fig3, preset_fig4
from qtlink.temporal import (
    SpectralProfile,
    inner_product,
    mode_functions,
    shift_expansion_check,
)
from qtlink.verify import run_verify, smsv_chain_variance, tmsv_chain_variance

LEO = SensingConfig(r_db=5.0, n_in=1e3, lambda0=815e-9, delta_omega=2 * math.pi * 1e6)

R_DB_GRID = (0.0, 3.0, 5.0, 15.0)
ETA_GRID = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)


def report(number: int, passed: bool, detail: str):
    print(f"criterion {number:02d} {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number:02d}: {detail}"


def random_configs(n: int):
    rng = np.random.default_rng(2024)
    configs = []
    for _ in range(n):
        configs.append(
            SensingConfig(
                r_db=rng.uniform(0.0, 15.0),
                n_in=10.0 ** rng.uniform(0.0, 6.0),
                n_lo=10.0 ** rng.uniform(0.0, 6.0),
                lambda0=rng.uniform(400e-9, 1600e-9),
                delta_omega=10.0 ** rng.uniform(4.0, 9.0),
                split=rng.uniform(0.1, 0.9),
            )
        )
    return configs, rng


def test_criterion_1_limit_identities():
    configs, rng = random_configs(100)
    worst = 0.0
    for cfg in configs:
        ideal = delta_u_tmsv_ideal(cfg)
        lossless = delta_u_tmsv_real(cfg, ChannelPair(1.0, 1.0))
        worst = max(worst, abs(lossless - ideal) / ideal)
        ch = ChannelPair(rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0))
        sql = delta_u_sql(cfg, ch)
        unsqueezed = delta_u_tmsv_real(replace(cfg, r_db=0.0), ch)
        worst = max(worst, abs(unsqueezed - sql) / sql)
    report(1, worst < 1e-12, f"limit identities over 100 random configs, max rel err {worst:.2e}")


def test_criterion_2_ideal_equivalence_single_vs_two_mode():
    worst = 0.0
    for r_db in R_DB_GRID:
        cfg = replace(LEO, r_db=r_db)
        ideal = delta_u_tmsv_ideal(cfg)
        smsv = delta_u_smsv_real(cfg, 1.0)
        worst = max(worst, abs(smsv - ideal) / ideal)
    report(2, worst < 1e-12, f"lossless single-mode equals two-mode, max rel err {worst:.2e}")


def test_criterion_3_oracle_equivalence():
    worst = 0.0
    for r_db in R_DB_GRID:
        r = r_from_db(r_db)
        for eta1 in ETA_GRID:
            for eta2 in ETA_GRID:
                formula = radicand("TMSV_real", r, eta1, eta2)
                oracle = tmsv_chain_variance(r, eta1, eta2, "shared") / 2.0
                worst = max(worst, abs(oracle - formula) / formula)
            single = eta1 * math.exp(-2.0 * r) + (1.0 - eta1)
            oracle1 = smsv_chain_variance(r, eta1, "shared")
            worst = max(worst, abs(oracle1 - single) / single)
    with contextlib.redirect_stdout(io.StringIO()):
        verify_exit = cli_main(["verify"])
    ok = worst < 1e-9 and verify_exit == 0 and run_verify().passed
    report(3, ok, f"covariance oracle matches closed forms, max rel err {worst:.2e}, verify exit {verify_exit}")


def test_criterion_4_equal_advantage_pairing():
    adv_sym = quantum_advantage(LEO, ChannelPair(0.695, 0.695))
    adv_asym = quantum_advantage(LEO, ChannelPair(0.585, 0.825))
    gap = abs(adv_sym - adv_asym) / adv_sym
    ok = (
        gap < 0.01
        and abs(adv_sym - 1.900e-18) / 1.900e-18 < 0.01
        and abs(adv_asym - 1.890e-18) / 1.890e-18 < 0.01
    )
    report(
        4,
        ok,
        f"equal-advantage pairing {adv_sym:.4e} vs {adv_asym:.4e} s (gap {gap:.2%}); "
        "absolute contour scale is the computed e-18 one",
    )


def test_criterion_5_asymmetric_boundary():
    threshold = advantage_boundary_eta1(r_from_db(5.0), 0.5)
    below = quantum_advantage(LEO, ChannelPair(threshold * 0.995, 0.5))
    above = quantum_advantage(LEO, ChannelPair(threshold * 1.005, 0.5))
    ok = abs(threshold - 0.0392) <= 1e-3 and below < 0.0 < above and threshold < 0.05
    report(5, ok, f"advantage boundary eta1* = {threshold:.5f} (sign change verified, below 0.05)")


def test_criterion_6_single_mode_ordering():
    etas = np.round(np.arange(0.05, 0.951, 0.05), 10)
    strict = all(
        delta_u_smsv_real(LEO, float(e))
        < delta_u_tmsv_real(LEO, ChannelPair(float(e), float(e)))
        for e in etas
    )
    eq_err = abs(
        delta_u_smsv_real(LEO, 1.0)
        - delta_u_tmsv_real(LEO, ChannelPair(1.0, 1.0))
    ) / delta_u_tmsv_real(LEO, ChannelPair(1.0, 1.0))
    ratio = (
        delta_u_smsv_real(LEO, 0.5)
        / delta_u_tmsv_real(LEO, ChannelPair(0.5, 0.5))
    )
    ok = strict and eq_err < 1e-12 and abs(ratio - 0.7538) <= 1e-3
    report(6, ok, f"single-mode strictly finer on eta in [0.05, 0.95], ratio(0.5) = {ratio:.4f}")


def test_criterion_7_curve_shape_and_endpoints():
    result = preset_fig2()
    etas = result.column("eta")
    monotone = True
    for name in result.columns[1:]:
        du = result.column(name)
        monotone = monotone and bool(np.all(np.diff(du) < 0.0))

    cfg3 = replace(LEO, r_db=3.0)
    rel_04 = 1.0 - (
        delta_u_tmsv_real(cfg3, ChannelPair(0.4, 0.4))
        / delta_u_sql(cfg3, ChannelPair(0.4, 0.4))
    )
    rel_03 = 1.0 - (
        delta_u_tmsv_real(cfg3, ChannelPair(0.3, 0.3))
        / delta_u_sql(cfg3, ChannelPair(0.3, 0.3))
    )

    end = {name: result.column(name)[-1] for name in result.columns[1:]}
    endpoint_err = abs(end["du_sql"] - delta_u_sql(LEO, ChannelPair(1, 1))) / end["du_sql"]
    literal_err = 0.0
    for r_db in (3.0, 7.0, 11.0, 15.0):
        ideal = delta_u_tmsv_ideal(replace(LEO, r_db=r_db))
        value = end[f"du_tmsv_{r_db:g}db"]
        endpoint_err = max(endpoint_err, abs(value - ideal) / ideal)
        literal = 6.841e-18 * math.exp(-r_from_db(r_db))
        literal_err = max(literal_err, abs(value - literal) / literal)
    ok = (
        bool(etas[0] > 0.0)
        and monotone
        and abs(rel_04 - 0.064) <= 0.002
        and abs(rel_03 - 0.045) <= 0.002
        and endpoint_err < 1e-9
        and literal_err < 1e-3
    )
    report(
        7,
        ok,
        f"curves strictly decreasing; relative gain {rel_04:.2%} @ eta=0.4, "
        f"{rel_03:.2%} @ eta=0.3 (3 dB); lossless endpoints match ideal to {endpoint_err:.1e}",
    )


def test_criterion_8_photon_scaling():
    worst = 0.0
    ch = ChannelPair(0.6, 0.8)
    for k in (4.0, 100.0):
        scaled = replace(LEO, n_in=k * LEO.n_in)
        pairs = (
            (delta_u_tmsv_ideal(LEO), delta_u_tmsv_ideal(scaled)),
            (
                delta_u_tmsv_real(LEO, ch),
                delta_u_tmsv_real(scaled, ch),
            ),
            (delta_u_sql(LEO, ch), delta_u_sql(scaled, ch)),
            (
                delta_u_smsv_real(LEO, 0.6),
                delta_u_smsv_real(scaled, 0.6),
            ),
        )
        for base, small in pairs:
            worst = max(worst, abs(small * math.sqrt(k) - base) / base)
    report(8, worst < 1e-12, f"1/sqrt(N) scaling exact for k in (4, 100), max rel err {worst:.2e}")


def test_criterion_9_temporal_mode_properties():
    profile = SpectralProfile(10.0, 1.0)
    y0, y1, z1 = mode_functions(profile)
    ortho = max(
        abs(y0.norm() - 1.0),
        abs(y1.norm() - 1.0),
        abs(z1.norm() - 1.0),
        abs(inner_product(y0, y1)),
    )
    big = profile.big_omega
    overlap_err = abs(abs(inner_product(z1, y0)) - big / math.sqrt(big**2 + 1.0))
    ratios = np.logspace(-4, -2, 9)
    residuals = [shift_expansion_check(profile, r * profile.u0) for r in ratios]
    slope = float(np.polyfit(np.log(ratios), np.log(residuals), 1)[0])
    ok = ortho < 1e-8 and overlap_err < 1e-8 and abs(slope - 2.0) <= 0.1
    report(
        9,
        ok,
        f"mode overlaps within 1e-8 (worst {ortho:.1e}); residual log-log slope {slope:.3f}",
    )


def test_criterion_10_determinism_and_schema():
    goldens = {
        "fig2": "eta,du_sql,du_tmsv_3db,du_tmsv_7db,du_tmsv_11db,du_tmsv_15db",
        "fig3": "eta1,eta2,advantage,sign",
        "fig4": "eta,du_tmsv,du_smsv,du_sql,ratio",
    }
    presets = {
        "fig2": preset_fig2,
        "fig3": preset_fig3,
        "fig4": preset_fig4,
    }
    ok = True
    for name, build in presets.items():
        first = render_csv(build())
        second = render_csv(build())
        ok = ok and first == second and first.splitlines()[1] == goldens[name]
    report(10, ok, "fig2/fig3/fig4 CSVs byte-identical across runs and match golden headers")
