"""qtlink: sensitivity toolkit for squeezed-light timing transfer over lossy links.

Computes the minimum measurable pulse offset for entangled (two-mode
squeezed), single-mode squeezed, and unentangled probes at a fixed photon
budget, cross-checks every closed form against a Gaussian covariance-matrix
engine, and ships a sweep/plotting CLI.

Layers load on first use, so a command pays only for the layers it runs:
``emit``, ``gaussian``, ``link``, ``sensing``, ``sweep``, ``temporal`` and
``verify`` are registered in ``sys.modules`` at import but compiled and run
only when one of their attributes is first read, and each re-exported name
is looked up in its module on first access (PEP 562).  Importing the CLI
runs only this package, ``constants`` and ``cli`` itself.
"""

import importlib.util
import sys

# module -> the names the package re-exports from it
_EXPORTS = {
    "constants": ("FIELD_SCALE", "HBAR", "SPEED_OF_LIGHT"),
    "gaussian": (
        "GaussianState", "beam_splitter", "homodyne_variance", "min_physicality_eigenvalue",
        "pure_loss", "squeeze_single", "symplectic_form", "vacuum"
    ),
    "link": ("LinkGeometry", "beam_radius", "compose_eta", "diffraction_eta", "pointing_eta"),
    "sensing": (
        "ChannelPair", "SensingConfig", "advantage_boundary_eta1", "delta_u",
        "delta_u_smsv_real", "delta_u_sql", "delta_u_tmsv_ideal", "delta_u_tmsv_real",
        "photocurrent_mean_single", "photocurrent_variance_single", "post_variance_ideal",
        "quantum_advantage", "r_from_db", "radicand"
    ),
    "sweep": (
        "Range", "SweepResult", "preset_fig2", "preset_fig3", "preset_fig4",
        "run_compare_smsv", "run_grid", "run_sweep"
    ),
    "temporal": (
        "ModeFunction", "SpectralProfile", "inner_product", "mode_functions",
        "shift_coefficients", "shift_expansion_check"
    ),
    "verify": ("run_verify", "smsv_chain_variance", "tmsv_chain_variance"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_LAZY = ("emit", "gaussian", "link", "sensing", "sweep", "temporal", "verify")

__all__ = list(_ORIGIN)
__version__ = "0.1.0"

for _name in _LAZY:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    # bound as the import system would bind a loaded submodule; binding does not load it
    globals()[_name] = _module
del _name, _spec, _module


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
