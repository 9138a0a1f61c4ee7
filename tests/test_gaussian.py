import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.strategies import (
    composite,
    data,
    floats,
    integers,
    just,
    lists,
    sampled_from,
)

from qtlink.gaussian import (
    GaussianState,
    beam_splitter,
    homodyne_variance,
    min_physicality_eigenvalue,
    pure_loss,
    squeeze_single,
    symplectic_form,
    vacuum,
)
from qtlink.sensing import r_from_db
from qtlink.verify import smsv_chain_variance, tmsv_chain_variance

R_5DB = 5.0 * np.log(10.0) / 20.0
SUM_X = (1.0, 1.0)


def tmsv(r):
    """Entangled pair from two orthogonally squeezed vacua on a 50:50 splitter."""
    st = vacuum(2)
    st = squeeze_single(st, 0, r, 0.0)
    st = squeeze_single(st, 1, r, np.pi / 2.0)
    return beam_splitter(st, 0, 1, 0.5)


def test_vacuum_single_mode():
    assert np.array_equal(vacuum(1).cov, np.eye(2))


def test_vacuum_two_modes():
    assert np.array_equal(vacuum(2).cov, np.eye(4))


def test_vacuum_homodyne_variance_is_one():
    assert homodyne_variance(vacuum(1), (1.0,)) == pytest.approx(1.0)


def test_vacuum_rejects_nonpositive_mode_count():
    with pytest.raises(ValueError):
        vacuum(0)
    with pytest.raises(ValueError):
        vacuum(-3)


@pytest.mark.parametrize(
    "fn, args, message",
    [
        (vacuum, (True,), "n_modes must be an integer, got True"),
        (vacuum, (2.5,), "n_modes must be an integer, got 2.5"),
        (GaussianState, (True, np.eye(2)), "n_modes must be an integer, got True"),
        (GaussianState, (1.0, np.eye(2)), "n_modes must be an integer, got 1.0"),
        (GaussianState, (2, np.eye(4), 1.0), "shared_port must be an integer, got 1.0"),
        (GaussianState, (2, np.eye(4), True), "shared_port must be an integer, got True"),
        (GaussianState, (2, np.eye(4), 2), "shared_port must be in [0, 2), got 2"),
        (pure_loss, (vacuum(2), 1.5, 0.5), "mode must be an integer, got 1.5"),
        (pure_loss, (vacuum(2), -1, 0.5), "mode must be in [0, 2), got -1"),
        (squeeze_single, (vacuum(2), True, 0.3), "mode must be an integer, got True"),
        (beam_splitter, (vacuum(2), 0, 1.0, 0.5), "mode must be an integer, got 1.0"),
        (homodyne_variance, (vacuum(1), (np.nan,)), "coefficients must be finite, got nan"),
        (homodyne_variance, (vacuum(2), (1.0, -np.inf)), "coefficients must be finite, got -inf"),
        (homodyne_variance, (vacuum(1), (1.0,), np.inf), "phase must be finite, got inf"),
        (homodyne_variance, (vacuum(1), (1.0,), np.nan), "phase must be finite, got nan"),
        (homodyne_variance, (vacuum(1), (1.0,), "0"), "phase must be a real number, got '0'"),
        (squeeze_single, (vacuum(1), 0, [1, "a"]),
         "squeezing magnitude must be a real number, got [1, 'a']"),
        (pure_loss, (vacuum(1), 0, "x"), "transmissivity must be a real number, got 'x'"),
        (homodyne_variance, (vacuum(1), ("a",)), "coefficients must be a real number, got ('a',)"),
        (homodyne_variance, (vacuum(2), [[1.0], [1.0, 2.0]]),
         "coefficients must be a real number, got [[1.0], [1.0, 2.0]]"),
        (GaussianState, (1, "x"), "cov must be a real number, got 'x'"),
        # a numeric string, a bool or None is no real number, alone or in a list
        (pure_loss, (vacuum(1), 0, "0.5", "independent"),
         "transmissivity must be a real number, got '0.5'"),
        (squeeze_single, (vacuum(1), 0, "1.0"),
         "squeezing magnitude must be a real number, got '1.0'"),
        (beam_splitter, (vacuum(2), 0, 1, True), "transmissivity must be a real number, got True"),
        (homodyne_variance, (vacuum(1), ["1"]), "coefficients must be a real number, got ['1']"),
        (homodyne_variance, (vacuum(2), [1.0, False]),
         "coefficients must be a real number, got [1.0, False]"),
        (pure_loss, (vacuum(1), 0, None), "transmissivity must be a real number, got None"),
        (pure_loss, (vacuum(1), 0, np.array([0.5, 1.0]) > 0.7),
         "transmissivity must be a real number, got array([False,  True])"),
        (GaussianState, (1, [[True, 0.0], [0.0, 1.0]]),
         "cov must be a real number, got [[True, 0.0], [0.0, 1.0]]"),
        # bounded before np.eye allocates; a state past 64 modes, grown or built, is named
        (vacuum, (10**30,), f"n_modes must be <= 64, got {10**30}"),
        (vacuum, (65,), "n_modes must be <= 64, got 65"),
        (GaussianState, (65, np.eye(2)), "n_modes must be <= 64, got 65"),
        (pure_loss, (vacuum(64), 0, 0.5, "independent"), "n_modes must be <= 64, got 65"),
        (pure_loss, (vacuum(64), 0, 0.5, "shared"), "n_modes must be <= 64, got 65"),
    ],
)
def test_integer_and_finite_fields_are_named_where_they_are_taken(fn, args, message):
    # each returned nan, ran on a numeric string or a bool, built a state of
    # True modes, or raised an unnamed TypeError, an IndexError, a
    # RuntimeWarning or numpy's "could not convert string to float" or
    # "Maximum allowed dimension exceeded"
    with pytest.raises(ValueError) as err:
        fn(*args)
    assert str(err.value) == message


def test_numpy_integer_mode_counts_and_indices_are_accepted():
    st = squeeze_single(vacuum(np.int64(2)), np.int64(1), R_5DB)
    assert st.n_modes == 2
    assert pure_loss(st, np.int32(0), 0.5, "independent").shared_port is None


def test_squeeze_zero_is_identity():
    st = squeeze_single(vacuum(1), 0, 0.0, 0.0)
    assert np.allclose(st.cov, np.eye(2))


@pytest.mark.parametrize(
    "r_db, var_x",
    [(5.0, 0.31622776601683794), (3.0, 0.5011872336272722)],
)
def test_squeeze_variances_in_db(r_db, var_x):
    r = r_db * np.log(10.0) / 20.0
    st = squeeze_single(vacuum(1), 0, r, 0.0)
    assert st.cov[0, 0] == pytest.approx(var_x, rel=1e-12)
    assert st.cov[1, 1] == pytest.approx(1.0 / var_x, rel=1e-12)


def test_squeeze_angle_rotates_squeezed_quadrature():
    st = squeeze_single(vacuum(1), 0, R_5DB, np.pi / 2.0)
    assert st.cov[1, 1] == pytest.approx(np.exp(-2 * R_5DB), rel=1e-12)
    assert st.cov[0, 0] == pytest.approx(np.exp(2 * R_5DB), rel=1e-12)


def test_squeeze_preserves_pure_state_determinant():
    st = squeeze_single(vacuum(1), 0, 1.3, 0.7)
    assert np.linalg.det(st.cov) == pytest.approx(1.0, rel=1e-9)


def test_squeeze_rejects_negative_r():
    with pytest.raises(ValueError):
        squeeze_single(vacuum(1), 0, -0.1, 0.0)


def test_beam_splitter_eta_one_is_identity():
    st = squeeze_single(vacuum(2), 0, 0.8, 0.3)
    out = beam_splitter(st, 0, 1, 1.0)
    assert np.allclose(out.cov, st.cov, atol=1e-14)


def test_beam_splitter_eta_zero_swaps_modes():
    st = squeeze_single(vacuum(2), 0, 0.8, 0.0)
    out = beam_splitter(st, 0, 1, 0.0)
    # squeezed block moves to mode 1; sign flip is irrelevant for covariances
    assert np.allclose(out.cov[2:4, 2:4], st.cov[0:2, 0:2], atol=1e-14)
    assert np.allclose(out.cov[0:2, 0:2], np.eye(2), atol=1e-14)


def test_balanced_splitter_builds_entangled_pair():
    st = tmsv(R_5DB)
    ch2r, sh2r = np.cosh(2 * R_5DB), np.sinh(2 * R_5DB)
    assert st.cov[0, 0] == pytest.approx(ch2r, rel=1e-12)
    assert st.cov[2, 2] == pytest.approx(ch2r, rel=1e-12)
    # orientation pinned so that the summed X pattern is the squeezed one
    assert st.cov[0, 2] == pytest.approx(-sh2r, rel=1e-12)
    assert homodyne_variance(st, SUM_X) == pytest.approx(
        2 * np.exp(-2 * R_5DB), rel=1e-12
    )


def test_beam_splitter_preserves_symplectic_form():
    st = tmsv(0.9)
    omega = symplectic_form(2)
    # pure-state check: cov of a symplectically evolved vacuum obeys S Omega S^T = Omega,
    # equivalently det(cov) = 1 and physicality is tight
    assert np.linalg.det(st.cov) == pytest.approx(1.0, rel=1e-9)
    assert min_physicality_eigenvalue(st) >= -1e-9
    assert np.allclose(omega, -omega.T)


def test_beam_splitter_validation():
    st = vacuum(2)
    with pytest.raises(ValueError):
        beam_splitter(st, 0, 0, 0.5)
    with pytest.raises(ValueError):
        beam_splitter(st, 0, 1, 1.2)
    with pytest.raises(ValueError):
        beam_splitter(st, 0, 3, 0.5)


def test_pure_loss_eta_one_unchanged():
    st = squeeze_single(vacuum(1), 0, R_5DB, 0.0)
    out = pure_loss(st, 0, 1.0)
    assert out.n_modes == 1
    assert np.allclose(out.cov, st.cov)


def test_pure_loss_mixes_in_vacuum():
    st = squeeze_single(vacuum(1), 0, R_5DB, 0.0)
    out = pure_loss(st, 0, 0.5, "independent")
    assert out.cov[0, 0] == pytest.approx(0.658113883008419, rel=1e-12)
    assert out.n_modes == 2  # ancilla retained


def test_pure_loss_variance_rule_any_policy():
    st = squeeze_single(vacuum(1), 0, 0.7, 0.0)
    for policy in ("independent", "shared"):
        out = pure_loss(st, 0, 0.3, policy)
        assert out.cov[0, 0] == pytest.approx(
            0.3 * np.exp(-1.4) + 0.7, rel=1e-12
        )


def test_shared_policy_reproduces_summed_variance_closed_form():
    # the key cross-check: summed-X variance after shared-port losses
    r, eta1, eta2 = R_5DB, 0.7, 0.4
    st = tmsv(r)
    policy = "shared"
    st = pure_loss(st, 0, eta1, policy)
    st = pure_loss(st, 1, eta2, policy)
    q = (
        (eta1 + eta2) * np.sinh(r) ** 2
        + 1.0
        + np.sqrt((1 - eta1) * (1 - eta2))
        - np.sqrt(eta1 * eta2) * np.sinh(2 * r)
    )
    assert homodyne_variance(st, SUM_X) == pytest.approx(2 * q, rel=1e-12)
    assert st.n_modes == 3  # one common ancilla for both channels


def test_independent_policy_drops_cross_term():
    r, eta1, eta2 = R_5DB, 0.7, 0.4
    st = tmsv(r)
    st = pure_loss(st, 0, eta1, "independent")
    st = pure_loss(st, 1, eta2, "independent")
    q_indep = (
        (eta1 + eta2) * np.sinh(r) ** 2 + 1.0 - np.sqrt(eta1 * eta2) * np.sinh(2 * r)
    )
    assert homodyne_variance(st, SUM_X) == pytest.approx(2 * q_indep, rel=1e-12)
    assert st.n_modes == 4  # two separate ancillas


@pytest.mark.parametrize("r_db", [0.0, 3.0, 5.0, 15.0])
@pytest.mark.parametrize("eta1", [0.1, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("eta2", [0.3, 0.7, 1.0])
def test_oracle_formula_equivalence_grid(r_db, eta1, eta2):
    r = r_db * np.log(10.0) / 20.0
    st = tmsv(r)
    policy = "shared"
    st = pure_loss(st, 0, eta1, policy)
    st = pure_loss(st, 1, eta2, policy)
    q = (
        (eta1 + eta2) * np.sinh(r) ** 2
        + 1.0
        + np.sqrt((1 - eta1) * (1 - eta2))
        - np.sqrt(eta1 * eta2) * np.sinh(2 * r)
    )
    assert homodyne_variance(st, SUM_X) == pytest.approx(2 * q, rel=1e-9)


def test_lossless_chain_reproduces_ideal_variance():
    st = tmsv(R_5DB)
    policy = "shared"
    st = pure_loss(st, 0, 1.0, policy)
    st = pure_loss(st, 1, 1.0, policy)
    assert homodyne_variance(st, SUM_X) == pytest.approx(
        2 * np.exp(-2 * R_5DB), rel=1e-12
    )


def test_homodyne_vacuum_sum():
    assert homodyne_variance(vacuum(2), SUM_X) == pytest.approx(2.0)


def test_homodyne_orthogonal_phase_antisqueezed():
    st = tmsv(R_5DB)
    assert homodyne_variance(st, (1.0, 1.0), np.pi / 2.0) == (
        pytest.approx(2 * np.exp(2 * R_5DB), rel=1e-12)
    )


def test_homodyne_pattern_validation():
    with pytest.raises(ValueError, match="at least one nonzero coefficient"):
        homodyne_variance(vacuum(2), (0.0, 0.0))
    with pytest.raises(ValueError, match="pattern addresses 2 modes, state has 1"):
        homodyne_variance(vacuum(1), (1.0, 1.0))
    with pytest.raises(ValueError, match="^coefficients must be a 1-d vector$"):
        homodyne_variance(vacuum(2), [[1.0], [1.0]])


@pytest.mark.parametrize("shape", [(2, 2), (4, 2), (3, 3, 4), (4,)])
def test_state_rejects_a_cov_of_the_wrong_shape(shape):
    with pytest.raises(ValueError) as err:
        GaussianState(2, np.zeros(shape))
    assert str(err.value) == f"cov must have shape (..., 4, 4), got {shape}"


def test_state_validation_rejects_asymmetric_cov():
    cov = np.eye(2)
    cov[0, 1] = 0.5
    with pytest.raises(ValueError, match="symmetric"):
        GaussianState(1, cov)


def test_physicality_under_random_unitaries_and_independent_loss():
    rng = np.random.default_rng(42)
    for _ in range(25):
        st = vacuum(2)
        for _ in range(rng.integers(1, 6)):
            op = rng.integers(0, 3)
            if op == 0:
                st = squeeze_single(
                    st, int(rng.integers(0, st.n_modes)), rng.uniform(0, 1.5),
                    rng.uniform(0, np.pi),
                )
            elif op == 1 and st.n_modes >= 2:
                m1, m2 = rng.choice(st.n_modes, size=2, replace=False)
                st = beam_splitter(st, int(m1), int(m2), rng.uniform(0, 1))
            else:
                st = pure_loss(
                    st, int(rng.integers(0, st.n_modes)), rng.uniform(0, 1),
                    "independent",
                )
        assert min_physicality_eigenvalue(st) >= -1e-9


@settings(deadline=None, max_examples=60)
@given(r_db=floats(0.0, 20.0), eta1=floats(0.0, 1.0), eta2=floats(0.0, 1.0))
def test_independent_ports_keep_the_lossy_pair_physical(r_db, eta1, eta2):
    # the two-mode chain verify runs, at random (r, eta1, eta2)
    state = tmsv(r_from_db(r_db))
    state = pure_loss(state, 0, eta1, "independent")
    state = pure_loss(state, 1, eta2, "independent")
    assert min_physicality_eigenvalue(state) >= -1e-9


def test_shared_policy_is_not_a_physical_map():
    # both channels reading one vacuum port is exactly the idealization the
    # closed forms assume; the resulting joint state can violate cov + i*Omega >= 0
    st = tmsv(0.0)
    policy = "shared"
    st = pure_loss(st, 0, 0.5, policy)
    st = pure_loss(st, 1, 0.5, policy)
    assert min_physicality_eigenvalue(st) < -1e-6


# Stacked states: every op broadcasts over leading batch axes.

STACK_ETAS = np.array([0.0, 0.2, 0.55, 0.9, 1.0])


@pytest.mark.parametrize("policy", ["independent", "shared"])
def test_stacked_chain_matches_per_point_chains(policy):
    eta1 = np.repeat(STACK_ETAS, len(STACK_ETAS))
    eta2 = np.tile(STACK_ETAS, len(STACK_ETAS))
    st = pure_loss(pure_loss(tmsv(R_5DB), 0, eta1, policy), 1, eta2, policy)
    assert st.batch_shape == (eta1.size,)
    stacked = homodyne_variance(st, SUM_X)
    assert stacked.shape == (eta1.size,)
    for k, (e1, e2) in enumerate(zip(eta1, eta2)):
        one = pure_loss(pure_loss(tmsv(R_5DB), 0, float(e1), policy), 1, float(e2), policy)
        assert stacked[k] == homodyne_variance(one, SUM_X)


def test_stacked_squeeze_and_splitter_match_scalar_calls():
    rs = np.array([0.0, 0.3, 1.1])
    etas = np.array([0.1, 0.5, 1.0])
    st = beam_splitter(squeeze_single(vacuum(2), 0, rs, 0.4), 0, 1, etas)
    assert st.cov.shape == (3, 4, 4)
    assert st.cov[..., 2:4, 2:4].shape == (3, 2, 2)
    for k in range(3):
        one = beam_splitter(squeeze_single(vacuum(2), 0, float(rs[k]), 0.4), 0, 1, float(etas[k]))
        assert np.array_equal(st.cov[k], one.cov)


def test_stacked_pure_loss_grows_all_points_when_any_eta_below_one():
    st = squeeze_single(vacuum(1), 0, R_5DB, 0.0)
    assert pure_loss(st, 0, np.ones(3)) is st
    grown = pure_loss(st, 0, np.array([1.0, 0.5]), "independent")
    assert grown.n_modes == 2
    assert np.array_equal(grown.cov[0, :2, :2], st.cov)


def test_stacked_physicality_spans_the_stack():
    policy = "shared"
    st = pure_loss(pure_loss(tmsv(0.0), 0, np.array([1.0, 0.5]), policy), 1, 0.5, policy)
    assert min_physicality_eigenvalue(st) < -1e-6


@pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan])
def test_stacked_eta_with_one_bad_element_rejected(bad):
    etas = np.array([0.2, 0.7, bad, 1.0])
    with pytest.raises(ValueError, match="transmissivity"):
        pure_loss(vacuum(1), 0, etas, "independent")
    with pytest.raises(ValueError, match="transmissivity"):
        pure_loss(vacuum(1), 0, etas, "shared")
    with pytest.raises(ValueError, match="transmissivity"):
        beam_splitter(vacuum(2), 0, 1, etas)


def test_stacked_r_with_one_negative_element_rejected():
    with pytest.raises(ValueError, match="squeezing magnitude"):
        squeeze_single(vacuum(1), 0, np.array([0.0, 0.5, -1e-3]), 0.0)


def test_state_symmetry_check_covers_whole_stack():
    cov = np.tile(np.eye(2), (4, 1, 1))
    cov[3, 0, 1] = 0.5
    with pytest.raises(ValueError, match="symmetric"):
        GaussianState(1, cov)


# (entry, its transpose) pairs that sit at the symmetry tolerance's edges or
# are not finite; "inside"/"edge"/"outside" scale the tolerance 1e-12 + 1e-12*|b|,
# and "exact edge" puts 1e-12 against 0, a gap equal to the tolerance
_ENTRY_EDITS = ("inside", "edge", "outside", "exact edge", "nan", "inf", "-inf", "matching inf",
                "opposite inf")


@composite
def _covariances(draw):
    """A symmetric matrix or stack with a few entries edited, one stack member or more."""
    d = 2 * draw(integers(1, 3))
    batch = draw(sampled_from([(), (1,), (3,), (2, 2)]))
    rng = np.random.default_rng(draw(integers(0, 2**32 - 1)))
    base = rng.normal(scale=10.0 ** draw(integers(-3, 6)), size=batch + (d, d))
    cov = base + np.swapaxes(base, -1, -2)  # exactly symmetric: a + b == b + a
    for _ in range(draw(integers(0, 3))):
        member = tuple(draw(integers(0, n - 1)) for n in batch)
        i, j = draw(integers(0, d - 1)), draw(integers(0, d - 1))
        kind = draw(sampled_from(_ENTRY_EDITS))
        b = float(cov[member + (j, i)])  # Python floats: inf - inf warns nowhere
        if kind in ("inside", "edge", "outside"):
            scale = {"inside": 0.999, "edge": 1.0, "outside": 1.001}[kind]
            value = b + draw(sampled_from([1.0, -1.0])) * scale * (1e-12 + 1e-12 * abs(b))
        elif kind == "exact edge":
            cov[member + (j, i)] = 0.0
            value = draw(sampled_from([1e-12, -1e-12]))
        elif kind in ("matching inf", "opposite inf"):
            value = draw(sampled_from([np.inf, -np.inf]))
            cov[member + (j, i)] = value if kind == "matching inf" else -value
        else:
            value = float(kind)
        cov[member + (i, j)] = value
    return cov


@settings(deadline=None, max_examples=300)
@given(cov=_covariances())
def test_symmetry_check_accepts_exactly_what_allclose_accepts(cov):
    # a non-finite entry is rejected by name before the symmetry test;
    # a finite stack passes exactly when allclose passes it
    n_modes = cov.shape[-1] // 2
    if not np.isfinite(cov).all():
        with pytest.raises(ValueError, match="^cov must be finite, got -?(nan|inf)$"):
            GaussianState(n_modes, cov)
    elif np.allclose(cov, np.swapaxes(cov, -1, -2), rtol=1e-12, atol=1e-12):
        GaussianState(n_modes, cov)
    else:
        with pytest.raises(ValueError, match="^covariance matrix must be symmetric$"):
            GaussianState(n_modes, cov)


# The vacuum-port policy is the same string the closed forms take.


@pytest.mark.parametrize("eta", [1.0, np.ones(3), 0.5, np.array([1.0, 0.5])])
def test_pure_loss_rejects_unknown_policy_at_any_eta(eta):
    # checked before the all-eta-1 early return, so a typo never passes silently
    with pytest.raises(ValueError, match="unknown vacuum policy 'bogus'"):
        pure_loss(vacuum(1), 0, eta, "bogus")


@pytest.mark.parametrize("port", [-1, 2, 5])
def test_state_rejects_out_of_range_shared_port(port):
    with pytest.raises(ValueError, match="shared_port"):
        GaussianState(2, np.eye(4), port)


def test_shared_loss_after_independent_loss_reuses_the_first_port():
    r, eta1, eta2, eta3 = R_5DB, 0.7, 0.4, 0.6
    st = pure_loss(tmsv(r), 0, eta1, "shared")
    st = pure_loss(st, 1, eta2, "independent")
    st = pure_loss(st, 1, eta3, "shared")
    assert st.n_modes == 4
    assert st.shared_port == 2
    # the port is read, never written: it is still vacuum
    assert np.array_equal(st.cov[4:6, 4:6], np.eye(2))
    # X0 = sqrt(eta1) a - sqrt(1-eta1) v, and
    # X1 = sqrt(eta3 eta2) b - sqrt(eta3 (1-eta2)) w - sqrt(1-eta3) v,
    # with v the original vacuum port and w the independent one
    c, s, e23 = np.cosh(2 * r), np.sinh(2 * r), eta2 * eta3
    var = (
        (eta1 + e23) * c
        - 2 * np.sqrt(eta1 * e23) * s
        + (1 - eta1)
        + eta3 * (1 - eta2)
        + (1 - eta3)
        + 2 * np.sqrt((1 - eta1) * (1 - eta3))
    )
    assert homodyne_variance(st, SUM_X) == pytest.approx(var, rel=1e-12)


# Every engine call returns finite numbers or raises an error naming what it
# rejects; under tier-1's filterwarnings = error a float warning fails too.
_NAMES = ("n_modes", "shared_port", "mode", "cov", "squeezing magnitude", "angle",
          "transmissivity", "policy", "coefficient", "phase", "homodyne variance")
_REALS = floats(0.0, 1.0) | floats(0.0, 360.0) | floats() | sampled_from([
    np.nan, np.inf, -np.inf, 1e308, -1e308, 1e200, 10**400, -(10**400), 800.0, 400.0, 354.9,
    300.0, 200.0, True, False, 0, 1, 0.5, -0.5, 5e-324, np.float32(0.25), np.float32(np.inf),
    "x", "0.5", ["1"], [1, "a"], ("a",), [0.5, [0.5]], None,
])
_MODES = integers(-1, 3) | sampled_from([True, False, 1.0, 1.5, np.nan, np.int64(1), 10**30])
_POLICIES = sampled_from(["shared", "independent", "bogus"])


def _call(draw):
    """Build a state, apply a few drawn operations and read it out, all from drawn arguments."""
    kind = draw(sampled_from(["tmsv", "smsv", "chain"]))
    if kind == "tmsv":
        return tmsv_chain_variance(draw(_REALS), draw(_REALS), draw(_REALS), draw(_POLICIES))
    if kind == "smsv":
        return smsv_chain_variance(draw(_REALS), draw(_REALS), draw(_POLICIES))
    if draw(sampled_from([True, False])):
        state = vacuum(draw(integers(1, 3) | integers(65, 2**70)
                            | sampled_from([0, -1, True, 2.5, np.int64(2), 64, 10**30])))
    else:
        a, b, d = draw(_REALS), draw(_REALS), draw(_REALS)
        cov = [[a, b], [draw(just(b) | _REALS), d]]
        state = GaussianState(draw(_MODES), cov, draw(just(None) | _MODES))
    assert np.isfinite(state.cov).all()
    for op in draw(lists(sampled_from(["squeeze", "split", "loss"]), max_size=4)):
        if op == "squeeze":
            state = squeeze_single(state, draw(_MODES), draw(_REALS), draw(_REALS))
        elif op == "split":
            state = beam_splitter(state, draw(_MODES), draw(_MODES), draw(_REALS))
        else:
            state = pure_loss(state, draw(_MODES), draw(_REALS), draw(_POLICIES))
        assert np.isfinite(state.cov).all()
    return homodyne_variance(state, draw(lists(_REALS, max_size=3)), draw(_REALS))


@settings(deadline=None, max_examples=400)
@given(data=data())
def test_every_engine_call_returns_a_finite_value_or_names_a_field(data):
    try:
        value = _call(data.draw)
    except (ValueError, TypeError) as err:
        assert any(name in str(err) for name in _NAMES), err
    else:
        assert np.isfinite(value)


# e^(2r) overflows a double past this r
_R_RULE = f"squeezing magnitude must be in [0, {np.log(np.finfo(float).max) / 2}], got "
_HUGE_COV = [[1.0, 10**400], [0.0, 1.0]]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: GaussianState(1, np.full((2, 2), np.nan)), "cov must be finite, got nan"),
        (lambda: GaussianState(1, np.full((2, 2), -np.inf)), "cov must be finite, got -inf"),
        (lambda: GaussianState(1, _HUGE_COV), f"cov must be finite, got {_HUGE_COV}"),
        (lambda: GaussianState(1, [[0.0, 1e308], [-1e308, 0.0]]),
         "covariance matrix must be symmetric"),
        (lambda: squeeze_single(vacuum(1), 0, np.inf), _R_RULE + "inf"),
        (lambda: squeeze_single(vacuum(1), 0, 400.0), _R_RULE + "400.0"),
        (lambda: squeeze_single(vacuum(1), 0, np.nan), _R_RULE + "nan"),
        (lambda: tmsv_chain_variance(800.0, 0.5, 0.5), _R_RULE + "800.0"),
        (lambda: squeeze_single(vacuum(1), 0, 1.0, np.nan), "angle must be finite, got nan"),
        (lambda: squeeze_single(vacuum(1), 0, 1.0, True), "angle must be a real number, got True"),
        # the second squeeze overflows in the product, and the new state rejects it
        (lambda: squeeze_single(squeeze_single(vacuum(1), 0, 300.0), 0, 300.0),
         "cov must be finite, got nan"),
        (lambda: pure_loss(vacuum(1), 0, 10**400),
         f"transmissivity must be finite, got {10**400}"),
        (lambda: homodyne_variance(vacuum(1), (1e200,)),
         "homodyne variance must be finite, got inf"),
    ],
    ids=lambda value: value[-36:] if isinstance(value, str) else "",
)
def test_non_finite_and_overflowing_inputs_are_named(call, message):
    # each ended in a RuntimeWarning, an unnamed OverflowError, or named the symmetry
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
