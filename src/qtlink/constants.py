"""Physical constants, normalization choices and the input-field checks.

HBAR = 2 fixes the vacuum quadrature variance to 1.  FIELD_SCALE is the
squared single-photon field amplitude |E|^2 appearing in raw photocurrent
expressions; the minimum-offset results are independent of it (and of the
local-oscillator photon number), so it is normalized to 1 and photocurrents
are reported in these normalized units.  Recovering physical current units
would additionally need the detector's electrical gain, which is outside
this model.

SWEEP_VARIABLES names the variables a sweep may run over, and POLICIES the
vacuum-port policies of a channel pair; they live here so the CLI can offer
them as choices without loading the sweep or sensing layer.

Every value type and kernel checks its inputs where they are built with
:func:`require_real` and :func:`require`, so each bad field is rejected
with one message shape, ``<field> must be <requirement>, got <value>``.
FLOAT_MAX bounds a finite field: ``abs(value) <= FLOAT_MAX`` fails for NaN,
for an infinity and for an int too large for a double, where
``math.isfinite`` would raise OverflowError on that int.

:func:`format_distinct` formats an array's values with one %-template,
each distinct value once; the table emitters and the verify report use it.
"""

import numbers
import sys

import numpy as np

SPEED_OF_LIGHT = 299792458.0  # m/s
HBAR = 2.0
FIELD_SCALE = 1.0
FLOAT_MAX = sys.float_info.max

SWEEP_VARIABLES = ("eta_symmetric", "eta1", "eta2", "r_db", "n_in")
POLICIES = ("shared", "independent")


def require_real(name: str, value, integer: bool = False) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a real number.

    With ``integer`` it must be an integer.  A bool is neither.
    """
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if integer else "a real number"
        raise ValueError(f"{name} must be {noun}, got {value!r}")


def require(name: str, values, ok, requirement: str) -> None:
    """Raise ``<name> must be <requirement>, got <value>`` unless ``ok`` holds everywhere.

    ``values`` is a scalar, named as given, or an array, named by its first
    element (as a float) where ``ok`` is False.  NaN fails every comparison,
    so a range test written as ``ok`` rejects it.
    """
    ok = np.asarray(ok)
    if not ok.all():
        if np.ndim(values):
            values = np.asarray(values, dtype=float)[~ok].flat[0]
        raise ValueError(f"{name} must be {requirement}, got {values}")


def require_policy(policy) -> None:
    """Raise ValueError unless ``policy`` is one of POLICIES."""
    if policy not in POLICIES:
        raise ValueError(f"unknown vacuum policy {policy!r}")


def format_distinct(template: str, values) -> np.ndarray:
    """``template % v`` for each value of 1-d ``values``, formatting each distinct value once.

    Values are told apart by their bits, so -0.0 and 0.0 keep their own
    strings, as does every NaN payload.  Returns an object array of the strings.
    """
    bits = np.ascontiguousarray(values, dtype=float).view(np.int64)
    bits, index = np.unique(bits, return_inverse=True)
    strings = np.array([template % v for v in bits.view(float).tolist()], dtype=object)
    return strings[index]
