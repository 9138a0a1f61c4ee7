"""qtlink: sensitivity toolkit for squeezed-light timing transfer over lossy links.

Computes the minimum measurable pulse offset for entangled (two-mode
squeezed), single-mode squeezed, and unentangled probes at a fixed photon
budget, cross-checks every closed form against a Gaussian covariance-matrix
engine, and ships a sweep/plotting CLI.
"""

from .constants import FIELD_SCALE, HBAR, SPEED_OF_LIGHT
from .gaussian import (
    GaussianState,
    HomodynePattern,
    LossPolicy,
    beam_splitter,
    homodyne_variance,
    independent_vacuum,
    min_physicality_eigenvalue,
    pure_loss,
    shared_vacuum,
    squeeze_single,
    symplectic_form,
    vacuum,
)
from .link import (
    LinkBudget,
    LinkGeometry,
    beam_radius,
    budget_from_geometry,
    compose_eta,
    diffraction_eta,
    pointing_eta,
)
from .sensing import (
    ChannelPair,
    OffsetResult,
    SensingConfig,
    advantage_boundary_eta1,
    delta_u,
    delta_u_smsv_real,
    delta_u_sql,
    delta_u_tmsv_ideal,
    delta_u_tmsv_real,
    photocurrent_mean_single,
    photocurrent_variance_single,
    post_variance_ideal,
    q_factor,
    quantum_advantage,
    r_from_db,
    radicand,
)
from .sweep import (
    GridSpec,
    Range,
    SweepResult,
    SweepSpec,
    preset_fig2,
    preset_fig3,
    preset_fig4,
    run_compare_smsv,
    run_grid,
    run_sweep,
)
from .temporal import (
    ModeFunction,
    SpectralProfile,
    TimingModeParams,
    inner_product,
    mode_functions,
    shift_coefficients,
    shift_expansion_check,
    timing_params,
)
from .verify import run_verify, smsv_chain_variance, tmsv_chain_variance

__version__ = "0.1.0"
