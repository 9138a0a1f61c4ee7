import math

import numpy as np
import pytest

from qtlink.link import (
    LinkGeometry,
    beam_radius,
    compose_eta,
    diffraction_eta,
    pointing_eta,
)


def test_compose_passthrough():
    assert compose_eta(1.0, 1.0, 1.0) == 1.0
    assert compose_eta(0.5, 1.0, 1.0) == 0.5


def test_compose_product():
    assert compose_eta(0.8, 0.9, 0.7) == pytest.approx(0.504, rel=1e-12)


def test_compose_commutative_and_monotone():
    assert compose_eta(0.8, 0.9, 0.7) == pytest.approx(compose_eta(0.9, 0.7, 0.8), rel=1e-12)
    assert compose_eta(0.6, 0.9, 0.7) < compose_eta(0.8, 0.9, 0.7)


def test_budget_validation():
    with pytest.raises(ValueError):
        compose_eta(1.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        compose_eta(0.5, -0.1, 1.0)


def _geom(**kw):
    base = dict(
        range_m=1000e3, tx_waist_m=0.01, rx_aperture_m=0.05, wavelength_m=815e-9
    )
    base.update(kw)
    return LinkGeometry(**base)


def test_diffraction_full_capture():
    # aperture far wider than the beam
    geom = _geom(range_m=1.0, rx_aperture_m=10.0)
    assert diffraction_eta(geom) == pytest.approx(1.0, abs=1e-12)


def test_diffraction_aperture_equal_to_beam():
    geom = _geom()
    matched = _geom(rx_aperture_m=beam_radius(geom))
    assert diffraction_eta(matched) == pytest.approx(1.0 - math.exp(-2.0), rel=1e-12)


def test_diffraction_leo_regime():
    geom = _geom()
    assert beam_radius(geom) == pytest.approx(25.94, rel=1e-3)
    assert diffraction_eta(geom) == pytest.approx(7.43e-6, rel=1e-2)


def test_diffraction_monotonicity():
    near, far = _geom(range_m=500e3), _geom(range_m=2000e3)
    assert diffraction_eta(near) > diffraction_eta(far)
    small, big = _geom(rx_aperture_m=0.02), _geom(rx_aperture_m=0.2)
    assert diffraction_eta(big) > diffraction_eta(small)


def test_pointing_no_jitter():
    assert pointing_eta(_geom(pointing_jitter_rad=0.0)) == 1.0


def test_pointing_wander_equal_to_beam():
    geom = _geom()
    jitter = beam_radius(geom) / geom.range_m
    assert pointing_eta(_geom(pointing_jitter_rad=jitter)) == pytest.approx(
        1.0 / 3.0, rel=1e-12
    )


def test_pointing_small_wander():
    geom = _geom()
    jitter = beam_radius(geom) / (10.0 * geom.range_m)
    assert pointing_eta(_geom(pointing_jitter_rad=jitter)) == pytest.approx(
        0.9804, abs=1e-4
    )


def test_outputs_stay_in_unit_interval():
    rng = np.random.default_rng(19)
    for _ in range(100):
        geom = LinkGeometry(
            range_m=10.0 ** rng.uniform(3, 7),
            tx_waist_m=10.0 ** rng.uniform(-3, 0),
            rx_aperture_m=10.0 ** rng.uniform(-3, 1),
            wavelength_m=10.0 ** rng.uniform(-7, -5),
            pointing_jitter_rad=10.0 ** rng.uniform(-9, -3),
        )
        assert 0.0 <= diffraction_eta(geom) <= 1.0
        assert 0.0 <= pointing_eta(geom) <= 1.0
        eta = compose_eta(diffraction_eta(geom), pointing_eta(geom), rng.uniform(0, 1))
        assert 0.0 <= eta <= 1.0


def test_geometry_validation():
    with pytest.raises(ValueError):
        _geom(range_m=0.0)
    with pytest.raises(ValueError):
        _geom(pointing_jitter_rad=-1e-6)


@pytest.mark.parametrize(
    "field",
    ["range_m", "tx_waist_m", "rx_aperture_m", "wavelength_m", "pointing_jitter_rad"],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, 10**400])
def test_geometry_rejects_non_finite_fields(field, bad):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        _geom(**{field: bad})


@pytest.mark.parametrize("bad", ["0.5", False, None])
@pytest.mark.parametrize(
    "build, field",
    # "LinkBudget": one loss factor of the link budget, passed to compose_eta
    [pytest.param(compose_eta, "eta_diffraction", id="LinkBudget-eta_diffraction"),
     pytest.param(compose_eta, "eta_detector", id="LinkBudget-eta_detector"),
     (_geom, "range_m"), (_geom, "pointing_jitter_rad")],
)
def test_budget_and_geometry_reject_a_wrong_type_naming_the_field(build, field, bad):
    with pytest.raises(ValueError) as err:
        build(**{field: bad})
    assert str(err.value) == f"{field} must be a real number, got {bad!r}"


@pytest.mark.parametrize(
    "fields, term, named",
    [
        # the beam terms square a waist or a Rayleigh ratio past a double
        ({"range_m": 1.0, "tx_waist_m": 1e200, "rx_aperture_m": 0.1, "wavelength_m": 1e-6},
         "beam radius", "tx_waist_m=1e+200"),
        ({"range_m": 1e300, "tx_waist_m": 0.1, "rx_aperture_m": 0.1, "wavelength_m": 1e-6},
         "beam radius", "range_m=1e+300"),
        # the waist squares to 0, so the Rayleigh ratio divides by zero
        ({"range_m": 1.0, "tx_waist_m": 1e-200, "rx_aperture_m": 0.1, "wavelength_m": 1e-6},
         "beam radius", "tx_waist_m=1e-200"),
        ({"range_m": 1.0, "tx_waist_m": 1e-100, "rx_aperture_m": 1e200, "wavelength_m": 1e-300},
         "aperture-to-beam ratio", "rx_aperture_m=1e+200"),
        ({"range_m": 1e10, "tx_waist_m": 1.0, "rx_aperture_m": 1.0, "wavelength_m": 1e-6,
          "pointing_jitter_rad": 1e200}, "pointing wander", "pointing_jitter_rad=1e+200"),
    ],
)
def test_an_overflowing_geometry_raises_naming_the_fields(fields, term, named):
    geom = LinkGeometry(**fields)
    with pytest.raises(ValueError) as err:
        compose_eta(diffraction_eta(geom), pointing_eta(geom))
    message = str(err.value)
    assert message.startswith(f"link geometry {term} overflows a double at ")
    assert named in message
