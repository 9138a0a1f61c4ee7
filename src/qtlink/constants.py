"""Physical constants and normalization choices shared across the package.

HBAR = 2 fixes the vacuum quadrature variance to 1.  FIELD_SCALE is the
squared single-photon field amplitude |E|^2 appearing in raw photocurrent
expressions; the minimum-offset results are independent of it (and of the
local-oscillator photon number), so it is normalized to 1 and photocurrents
are reported in these normalized units.  Recovering physical current units
would additionally need the detector's electrical gain, which is outside
this model.

SWEEP_VARIABLES names the variables a sweep may run over; it lives here so
the CLI can offer them as choices without loading the sweep layer.
"""

SPEED_OF_LIGHT = 299792458.0  # m/s
HBAR = 2.0
FIELD_SCALE = 1.0

SWEEP_VARIABLES = ("eta_symmetric", "eta1", "eta2", "r_db", "n_in")
