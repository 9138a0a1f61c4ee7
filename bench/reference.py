"""Independent numpy reference for the qtlink closed forms.

Written from the published formulas, not from the package: nothing here
imports ``qtlink``.  Every function broadcasts over numpy arrays, so a whole
figure table is one call.  Conventions follow the package: hbar = 2,
r_db = -10*log10(e^-2r), SNR threshold 1, even photon split by default.
"""

from __future__ import annotations

import math

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0

# The LEO-link operating point every figure preset starts from.
PAPER = {
    "r_db": 5.0,
    "n_in": 1e3,
    "lambda0": 815e-9,
    "delta_omega": 2.0 * math.pi * 1e6,
    "split": 0.5,
    "snr": 1.0,
}


def squeeze_r(r_db):
    return np.asarray(r_db, dtype=float) * math.log(10.0) / 20.0


def omega_rss(params: dict) -> float:
    """sqrt(omega0^2 + delta_omega^2), the inverse offset scale."""
    omega0 = 2.0 * math.pi * SPEED_OF_LIGHT / params["lambda0"]
    return math.hypot(omega0, params["delta_omega"])


def _photons(params: dict):
    return params["split"] * params["n_in"], (1.0 - params["split"]) * params["n_in"]


def radicand_tmsv(r, eta1, eta2):
    """(eta1+eta2) sinh^2 r + 1 + sqrt((1-eta1)(1-eta2)) - sqrt(eta1 eta2) sinh 2r."""
    r, eta1, eta2 = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (r, eta1, eta2)))
    return (
        (eta1 + eta2) * np.sinh(r) ** 2
        + 1.0
        + np.sqrt((1.0 - eta1) * (1.0 - eta2))
        - np.sqrt(eta1 * eta2) * np.sinh(2.0 * r)
    )


def cross_term(eta1, eta2):
    """The shared-vacuum-port term sqrt((1-eta1)(1-eta2)) of the radicand."""
    return np.sqrt((1.0 - np.asarray(eta1, dtype=float)) * (1.0 - np.asarray(eta2, dtype=float)))


def radicand_smsv(r, eta):
    eta = np.asarray(eta, dtype=float)
    return eta * np.exp(-2.0 * np.asarray(r, dtype=float)) + (1.0 - eta)


def du_tmsv_ideal(params: dict):
    r = squeeze_r(params["r_db"])
    n1, n2 = _photons(params)
    denom = math.sqrt(2.0) * (math.sqrt(n1) + math.sqrt(n2)) * omega_rss(params)
    return params["snr"] * np.exp(-r) / denom


def du_tmsv(params: dict, eta1, eta2, r_db=None):
    """Lossy entangled offset; r_db defaults to the operating point's."""
    r = squeeze_r(params["r_db"] if r_db is None else r_db)
    n1, n2 = _photons(params)
    eta1 = np.asarray(eta1, dtype=float)
    eta2 = np.asarray(eta2, dtype=float)
    denom = math.sqrt(2.0) * (np.sqrt(eta1 * n1) + np.sqrt(eta2 * n2)) * omega_rss(params)
    return params["snr"] * np.sqrt(radicand_tmsv(r, eta1, eta2)) / denom


def du_sql(params: dict, eta1, eta2):
    """Unentangled baseline: the lossy entangled offset at zero squeezing."""
    return du_tmsv(params, eta1, eta2, r_db=0.0)


def du_smsv(params: dict, eta1, r_db=None):
    r = squeeze_r(params["r_db"] if r_db is None else r_db)
    eta1 = np.asarray(eta1, dtype=float)
    noise = radicand_smsv(r, eta1)
    return params["snr"] * 0.5 * np.sqrt(noise / (eta1 * params["n_in"])) / omega_rss(params)


def advantage(params: dict, eta1, eta2):
    """du_SQL - du_TMSV; positive where the entangled probe wins."""
    return du_sql(params, eta1, eta2) - du_tmsv(params, eta1, eta2)


def path_eta(entry: dict) -> float:
    """Transmissivity of one path from its loss factors or its geometry.

    Far-field Gaussian beam radius w = w0*sqrt(1 + (lambda L/(pi w0^2))^2),
    aperture capture 1 - exp(-2 (a/w)^2), jitter capture 1/(1 + 2 (sigma L/w)^2).
    """
    if "geometry" in entry:
        g = entry["geometry"]
        w0, length = g["tx_waist_m"], g["range_m"]
        w = w0 * math.sqrt(1.0 + (g["wavelength_m"] * length / (math.pi * w0**2)) ** 2)
        capture = min(max(1.0 - math.exp(-2.0 * (g["rx_aperture_m"] / w) ** 2), 0.0), 1.0)
        jitter = 1.0 / (1.0 + 2.0 * (g.get("pointing_jitter_rad", 0.0) * length / w) ** 2)
        return capture * jitter * entry.get("eta_detector", 1.0)
    eta = 1.0
    for key in ("eta_diffraction", "eta_pointing", "eta_detector"):
        eta *= entry.get(key, 1.0)
    return eta
