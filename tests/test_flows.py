import numpy as np
import pytest
from numpy.testing import assert_allclose

from flowfilt import (
    AdmissibilityError,
    GaussianPrior,
    LinearMeasurement,
    affine_coefficients,
    affine_tables,
    diffusion_factor,
    drift,
    exact_flow_coefficients,
    homotopy_derivatives,
    is_admissible,
    k_from_q,
    preset,
    q_from_k,
)
from flowfilt.flows import PRESET_KINDS, constant_q, diagnostic_noise, k_schedule


def _derivs(prior, meas, lam=0.5, x=None):
    x = np.zeros(prior.n) if x is None else x
    return homotopy_derivatives(x, lam, prior, meas)


def test_q_k_round_trip(make_model):
    rng = np.random.default_rng(10)
    for n, d in [(1, 1), (2, 2), (3, 1), (4, 3), (5, 2)]:
        prior, meas = make_model(rng, n, d)
        derivs = _derivs(prior, meas, lam=float(rng.uniform(0, 1)))
        c = rng.standard_normal((n, n))
        q = c @ c.T
        k = k_from_q(q, derivs)
        assert_allclose(q_from_k(k, derivs), q, atol=1e-10)


def test_scalar_schedule_formulas(canonical):
    prior, meas = canonical
    derivs = _derivs(prior, meas, lam=0.5)
    # M = 1.5 here, so K = 0 induces Q = 1 / M^2 and the inverse map
    # recovers K = (M^2 Q - 1) / 2.
    assert_allclose(q_from_k(np.zeros((1, 1)), derivs), [[1.0 / 1.5**2]])
    assert_allclose(k_from_q(np.array([[1.0]]), derivs), [[0.5 * 1.5**2 - 0.5]])


def test_is_admissible_boundary(canonical):
    prior, meas = canonical
    derivs = _derivs(prior, meas, lam=0.0)
    assert is_admissible(np.zeros((1, 1)), derivs)
    # K = -1 makes K + K^T - hess_log_h = -1, strictly indefinite.
    assert not is_admissible(np.array([[-1.0]]), derivs)
    # The boundary case K = -1/2 has T = 0 exactly and stays admissible.
    assert is_admissible(np.array([[-0.5]]), derivs)


def test_drift_frozen_value(canonical):
    prior, meas = canonical
    # At the prior mean with lam = 0 the drift equals the full data pull.
    f = drift(np.zeros(1), 0.0, np.zeros((1, 1)), prior, meas)
    assert_allclose(f, [2.0])


def test_affine_coefficients_reproduce_drift(make_model):
    rng = np.random.default_rng(11)
    prior, meas = make_model(rng, 3, 2)
    derivs = _derivs(prior, meas, lam=0.3)
    c = rng.standard_normal((3, 3))
    k = k_from_q(c @ c.T, derivs)
    params = preset("k_schedule", prior, meas, k_fn=lambda lam: k)
    coeffs = affine_coefficients(0.3, params, prior, meas)
    for _ in range(5):
        x = rng.standard_normal(3)
        assert_allclose(coeffs.A @ x + coeffs.b, drift(x, 0.3, k, prior, meas),
                        atol=1e-10)


def test_exact_flow_matches_generic_path(canonical, make_model):
    rng = np.random.default_rng(12)
    for prior, meas in (canonical, make_model(rng, 3, 2)):
        params = preset("exact", prior, meas)
        for lam in np.linspace(0.0, 1.0, 11):
            got = affine_coefficients(lam, params, prior, meas)
            ref = exact_flow_coefficients(lam, prior, meas)
            assert_allclose(got.A, ref.A, atol=1e-10)
            assert_allclose(got.b, ref.b, atol=1e-10)
            # K + K^T + H^T R^-1 H cancels exactly, so Q is exactly zero.
            assert (got.Q == 0.0).all()


def test_exact_flow_scalar_closed_form(canonical):
    prior, meas = canonical
    for lam in (0.0, 0.25, 0.5, 1.0):
        ref = exact_flow_coefficients(lam, prior, meas)
        assert_allclose(ref.A, [[-0.5 / (1.0 + lam)]], atol=1e-14)
        assert_allclose(ref.b, [(2.0 + lam) / (1.0 + lam) ** 2], atol=1e-14)


def test_fixed_q_scalar_closed_form(canonical):
    prior, meas = canonical
    params = preset("fixed_q", prior, meas)
    lams = np.linspace(0.0, 1.0, 5)
    qs = params.q_stack(lams, prior, meas)
    for lam, q in zip(lams, qs):
        assert_allclose(q, [[1.0 / (1.0 + lam) ** 2]], atol=1e-14)
    a, b, _ = affine_tables(params, prior, meas, lams)
    for lam, ai, bi in zip(lams, a, b):
        assert_allclose(ai, [[-1.0 / (1.0 + lam)]], atol=1e-14)
        assert_allclose(bi, [2.0 / (1.0 + lam)], atol=1e-14)


def test_diagnostic_scalar_schedule(canonical):
    prior, meas = canonical
    params = preset("diagnostic", prior, meas, alpha=1.0)
    k0 = params.k_stack(np.array([0.0]), prior, meas)[0]
    # K(0) = alpha M^2 + A1^T M = 1 - 1/2.
    assert_allclose(k0, [[0.5]], atol=1e-14)
    q = params.q_stack(np.array([0.0, 0.5, 1.0]), prior, meas)
    assert_allclose(q, np.full((3, 1, 1), 2.0), atol=1e-12)


def test_diagnostic_preset_holds_no_model_state(make_model):
    rng = np.random.default_rng(17)
    prior_a, meas_a = make_model(rng, 3, 2)
    prior_b, meas_b = make_model(rng, 3, 2)
    built_on_a = preset("diagnostic", prior_a, meas_a, alpha=0.5)
    built_on_b = preset("diagnostic", prior_b, meas_b, alpha=0.5)
    lams = np.linspace(0.0, 1.0, 11)
    moved = affine_tables(built_on_a, prior_b, meas_b, lams)
    native = affine_tables(built_on_b, prior_b, meas_b, lams)
    for got, want in zip(moved, native):
        assert np.array_equal(got, want)
    # The induced diffusion is 2 alpha I on the model the flow meets.
    assert_allclose(moved[2], np.broadcast_to(np.eye(3), (11, 3, 3)), atol=1e-10)


def test_diagnostic_diffusion_is_two_alpha_on_every_model(make_model):
    rng = np.random.default_rng(18)
    prior_a, meas_a = make_model(rng, 3, 2)
    flow = preset("diagnostic", prior_a, meas_a, alpha=0.7)
    lams = np.linspace(0.0, 1.0, 21)
    # Admissible by construction: K + K^T + H^T R^-1 H = 2 alpha M^2 on
    # whichever model the schedule meets, so Q = 2 alpha I.
    for n, d in [(3, 1), (4, 2)]:
        prior, meas = make_model(rng, n, d)
        q = flow.q_stack(lams, prior, meas)
        assert np.abs(q - 1.4 * np.eye(n)).max() <= 1e-10 * 1.4


def test_diagnostic_schedule_matches_the_per_lam_formula(make_model):
    rng = np.random.default_rng(19)
    alpha = 0.7
    flow = diagnostic_noise(alpha)
    lams = np.linspace(0.0, 1.0, 21)
    for n, d in [(1, 1), (3, 2), (4, 2)]:
        prior, meas = make_model(rng, n, d)
        hph = meas.H @ prior.P_g @ meas.H.T
        want = []
        for lam in lams:
            m = prior.precision + lam * meas.info_matrix
            gram = lam * hph + meas.R
            a1 = -0.5 * prior.P_g @ (meas.H.T @ np.linalg.solve(gram, meas.H))
            want.append((m @ (alpha * np.eye(n)) + a1.T) @ m)
        want = np.array(want)
        assert_allclose(flow.k_stack(lams, prior, meas), want, rtol=0,
                        atol=1e-14 * np.abs(want).max())


def test_constant_q_round_trips_through_schedule(make_model):
    rng = np.random.default_rng(13)
    prior, meas = make_model(rng, 3, 2)
    c = rng.standard_normal((3, 3))
    q0 = c @ c.T + np.eye(3)
    params = preset("constant_q", prior, meas, Q0=q0)
    lams = np.linspace(0.0, 1.0, 7)
    qs = params.q_stack(lams, prior, meas)
    for q in qs:
        assert_allclose(q, q0, atol=1e-10)
    # The stored schedule must regenerate exactly that diffusion.
    ks = params.k_stack(lams, prior, meas)
    for lam, k in zip(lams, ks):
        derivs = _derivs(prior, meas, lam=lam)
        assert_allclose(q_from_k(k, derivs), q0, atol=1e-9)


def test_gain_term_shifts_leave_diffusion_invariant(make_model):
    rng = np.random.default_rng(14)
    prior, meas = make_model(rng, 3, 2)
    lam = 0.4
    derivs = _derivs(prior, meas, lam=lam)
    c = rng.standard_normal((3, 3))
    k1 = k_from_q(c @ c.T, derivs)
    w = rng.standard_normal((3, 3))
    w = w - w.T
    k2 = k1 + w
    assert_allclose(q_from_k(k1, derivs), q_from_k(k2, derivs), atol=1e-10)
    # The M-weighted drift difference is antisymmetric, so both flows
    # transport the same density.
    p1 = preset("k_schedule", prior, meas, k_fn=lambda l: k1)
    p2 = preset("k_schedule", prior, meas, k_fn=lambda l: k2)
    a1 = affine_coefficients(lam, p1, prior, meas).A
    a2 = affine_coefficients(lam, p2, prior, meas).A
    skew = derivs.M @ (a2 - a1)
    assert_allclose(skew, -skew.T, atol=1e-10)


def test_preset_rejects_inadmissible_schedule(canonical):
    prior, meas = canonical
    with pytest.raises(AdmissibilityError) as info:
        preset("k_schedule", prior, meas, k_fn=lambda lam: np.array([[-1.0]]))
    # K + K^T + H^T R^-1 H = -1 at every node, so the first node fails.
    assert info.value.lam == 0.0


def test_affine_tables_names_the_first_inadmissible_lam(canonical):
    prior, meas = canonical
    # K + K^T + 1 = 1 - 4 lam turns negative past lam = 1/4.
    flow = k_schedule(lambda lam: np.array([[-2.0 * lam]]))
    lambdas = np.linspace(0.0, 1.0, 11)
    with pytest.raises(AdmissibilityError, match="lam=0.300000") as info:
        affine_tables(flow, prior, meas, lambdas)
    assert info.value.lam == lambdas[3]


def test_positivity_failures_carry_the_margin():
    prior = GaussianPrior(np.zeros(2), np.eye(2))
    meas = LinearMeasurement(np.eye(2), np.eye(2), np.zeros(2))
    # K + K^T + H^T R^-1 H = diag(-1, 3): margin -1/3 at every node.
    flow = k_schedule(lambda lam: np.diag([-1.0, 1.0]))
    with pytest.raises(AdmissibilityError) as info:
        affine_tables(flow, prior, meas, np.linspace(0.0, 1.0, 5))
    assert info.value.margin == pytest.approx(-1.0 / 3.0, rel=1e-12)
    with pytest.raises(AdmissibilityError) as info:
        preset("k_schedule", prior, meas, k_fn=lambda lam: np.diag([-1.0, 1.0]))
    assert info.value.margin == pytest.approx(-1.0 / 3.0, rel=1e-12)

    indefinite = np.diag([4.0, -1.0])
    with pytest.raises(AdmissibilityError) as info:
        k_from_q(indefinite, _derivs(prior, meas))
    assert info.value.margin == pytest.approx(-0.25, rel=1e-12)
    with pytest.raises(AdmissibilityError) as info:
        constant_q(indefinite)
    assert info.value.margin == pytest.approx(-0.25, rel=1e-12)
    with pytest.raises(AdmissibilityError) as info:
        diffusion_factor(indefinite)
    assert info.value.margin == pytest.approx(-0.25, rel=1e-12)
    # A failure that is not a positivity test has no margin.
    with pytest.raises(AdmissibilityError) as info:
        constant_q(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert info.value.margin is None


def test_preset_rejects_indefinite_constant_q(canonical):
    prior, meas = canonical
    with pytest.raises(AdmissibilityError):
        preset("constant_q", prior, meas, Q0=np.array([[-1.0]]))


def test_preset_rejects_unknown_kind(canonical):
    prior, meas = canonical
    with pytest.raises(ValueError, match="kind"):
        preset("bogus", prior, meas)


def test_preset_kinds_exposed():
    assert set(PRESET_KINDS) == {"exact", "fixed_q", "constant_q", "diagnostic"}


def test_nondeterministic_schedule_is_rejected(canonical):
    prior, meas = canonical
    state = {"calls": 0}

    def flaky(lam):
        state["calls"] += 1
        return np.array([[0.0 if state["calls"] % 2 else 1e-3]])

    with pytest.raises(ValueError, match="deterministic"):
        preset("k_schedule", prior, meas, k_fn=flaky)


def test_diagnostic_requires_positive_alpha(canonical):
    prior, meas = canonical
    with pytest.raises(ValueError, match="positive"):
        preset("diagnostic", prior, meas, alpha=0.0)


def test_affine_tables_rejects_lam_outside_unit_interval(canonical):
    prior, meas = canonical
    params = preset("exact", prior, meas)
    with pytest.raises(ValueError):
        affine_tables(params, prior, meas, np.array([0.0, 1.2]))


def test_nan_lam_is_rejected(canonical):
    prior, meas = canonical
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        diagnostic_noise(1.0).k_stack(np.array([np.nan]), prior, meas)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        affine_tables(preset("exact", prior, meas), prior, meas, np.array([0.5, np.nan]))


def test_diffusion_factor_ranks():
    rng = np.random.default_rng(15)
    c = rng.standard_normal((3, 2))
    q = c @ c.T  # rank 2
    f = diffusion_factor(q)
    assert f.shape == (3, 2)
    assert_allclose(f @ f.T, q, atol=1e-10)

    full = c @ c.T + np.eye(3)
    f = diffusion_factor(full)
    assert f.shape == (3, 3)
    assert_allclose(f @ f.T, full, atol=1e-10)

    f = diffusion_factor(np.zeros((2, 2)))
    assert f.shape == (2, 0)


def test_diffusion_factor_rejects_indefinite():
    with pytest.raises(AdmissibilityError):
        diffusion_factor(np.array([[1.0, 0.0], [0.0, -1.0]]))


def _factor_one(q):
    """Reference: one matrix's factor from its own eigendecomposition."""
    w, vecs = np.linalg.eigh(0.5 * (q + q.T))
    scale = np.abs(w).max()
    w = np.maximum(w, 0.0)
    keep = w > 1e-12 * scale
    f = vecs[:, keep] * np.sqrt(w[keep])
    for j in range(f.shape[1]):
        if f[np.argmax(np.abs(f[:, j])), j] < 0.0:
            f[:, j] = -f[:, j]
    return f


def test_stacked_diffusion_factor_matches_each_matrix_bitwise():
    rng = np.random.default_rng(16)
    n = 4
    c2 = rng.standard_normal((n, 2))
    c1 = rng.standard_normal((n, 1))
    full = rng.standard_normal((n, n))
    stack = np.stack([full @ full.T + np.eye(n), c2 @ c2.T, np.zeros((n, n)),
                      c1 @ c1.T])
    out = diffusion_factor(stack)
    assert out.shape == (4, n, n)
    for k, q in enumerate(stack):
        alone = diffusion_factor(q)
        m_k = alone.shape[1]
        assert m_k == (n, 2, 0, 1)[k]
        assert alone.tobytes() == _factor_one(q).tobytes()
        assert out[k, :, :m_k].tobytes() == alone.tobytes()
        assert np.all(out[k, :, m_k:] == 0.0)
        assert not np.signbit(out[k, :, m_k:]).any()


def test_stacked_diffusion_factor_of_zero_stack_is_empty():
    assert diffusion_factor(np.zeros((5, 3, 3))).shape == (5, 3, 0)


def test_stacked_diffusion_factor_names_first_indefinite_matrix():
    stack = np.stack([np.eye(2), np.diag([4.0, -1.0]), np.diag([1.0, -1.0])])
    with pytest.raises(AdmissibilityError, match="index 1") as info:
        diffusion_factor(stack)
    assert info.value.margin == pytest.approx(-0.25, rel=1e-12)
    assert info.value.lam is None
    with pytest.raises(AdmissibilityError, match="lam=0.250000") as info:
        diffusion_factor(stack, lambdas=np.array([0.0, 0.25, 0.5]))
    assert info.value.lam == 0.25


# A rank-2 fixed_q diffusion of a position-only tracking update.  Under
# one-ulp changes of single entries, LAPACK flips the sign of one of its
# eigenvectors in 7 of 20 cases.
TRACK_Q = np.array([
    [1.3765256126810497, -0.15783879832548964, 0.49892135983680197,
     -0.06588424100732364],
    [-0.15783879832548964, 1.5593294629888619, -0.10617850614172451,
     0.6150034085468175],
    [0.49892135983680197, -0.10617850614172451, 0.18238985126411472,
     -0.04318033295737525],
    [-0.06588424100732364, 0.6150034085468175, -0.04318033295737525,
     0.24256856689324727]])


def test_diffusion_factor_follows_the_sign_rule_and_q_continuously():
    rng = np.random.default_rng(17)
    stacks = [TRACK_Q[None]]
    for n in (2, 3, 4, 6):
        c = rng.standard_normal((n, n))
        r = rng.standard_normal((7, n, n - 1))
        stacks.append(np.concatenate([(c @ c.T)[None], r @ np.swapaxes(r, 1, 2)]))
    for stack in stacks:
        n = stack.shape[1]
        base = diffusion_factor(stack)
        top = np.take_along_axis(base, np.abs(base).argmax(axis=1)[:, None, :],
                                 axis=1)[:, 0]
        kept = base.any(axis=1)  # padding columns are exactly 0.0
        assert np.all(top[kept] > 0.0) and np.all(top[~kept] == 0.0)
        assert_allclose(base @ np.swapaxes(base, 1, 2), stack,
                        atol=1e-12 * np.abs(stack).max())
        for i in range(n):
            for j in range(i, n):
                for direction in (np.inf, -np.inf):
                    moved = stack.copy()
                    moved[:, i, j] = np.nextafter(moved[:, i, j], direction)
                    moved[:, j, i] = moved[:, i, j]
                    got = diffusion_factor(moved)
                    assert got.shape == base.shape
                    change = np.abs(got - base).max() / np.abs(base).max()
                    assert change < 1e-12, (n, i, j, change)


def test_positivity_tests_reject_non_finite_matrices(make_model):
    # A NaN or infinite entry gives NaN eigenvalues, which no comparison
    # accepts: every positivity test fails them, with no finite margin.
    from flowfilt import FlowParameterization, LambdaGrid
    from flowfilt.integrate import build_tables
    from flowfilt.stability import classify_regime, contraction_rate

    prior, meas = make_model(np.random.default_rng(31), 2, 1)
    nan = np.full((2, 2), np.nan)
    assert not is_admissible(nan, _derivs(prior, meas))
    with pytest.raises(AdmissibilityError, match="semidefinite") as info:
        constant_q(nan)
    assert info.value.margin is None
    for q in (nan, np.diag([np.inf, 1.0])):
        with pytest.raises(AdmissibilityError) as info:
            diffusion_factor(q)
        assert info.value.margin is None
    with pytest.raises(AdmissibilityError) as info:
        diffusion_factor(np.stack([np.eye(2), nan]), lambdas=np.array([0.0, 0.5]))
    assert (info.value.lam, info.value.margin) == (0.5, None)

    nan_q = FlowParameterization(
        "nan_q",
        k_builder=lambda lambdas, prior, meas: np.zeros((lambdas.size, 2, 2)),
        q_builder=lambda lambdas, prior, meas: np.full((lambdas.size, 2, 2), np.nan),
        analytic_admissible=True)
    grid = LambdaGrid.uniform(8)
    with pytest.raises(AdmissibilityError):
        classify_regime(nan_q, prior, meas, grid)
    with pytest.raises(AdmissibilityError):
        contraction_rate(nan_q, prior, meas, grid)

    # NaN only at lam = 0.375, between the validation nodes: the grid
    # that reaches it names it.
    params = preset("k_schedule", prior, meas,
                    k_fn=lambda lam: nan if lam == 0.375 else np.zeros((2, 2)))
    with pytest.raises(AdmissibilityError) as info:
        build_tables(params, grid, prior, meas)
    assert (info.value.lam, info.value.margin) == (0.375, None)


def test_an_overflowing_model_is_named_not_finite():
    # P_g = 1e300 I overflows the induced diffusion M^-1 J M^-1 at lam 0.
    prior = GaussianPrior(np.zeros(2), 1e300 * np.eye(2))
    meas = LinearMeasurement(np.array([[1.0, 0.5]]), np.eye(1), np.array([1.0]))
    for kind in ("fixed_q", "diagnostic"):
        with pytest.raises(AdmissibilityError, match="finite") as info:
            preset(kind, prior, meas)
        assert "indefinite" not in str(info.value)
        assert (info.value.lam, info.value.margin) == (0.0, None)


def test_no_inverse_or_solve_is_batched_over_lam(monkeypatch, make_model):
    # Every M(lam)^-1 comes from the pencil's one n x n eigh.
    prior, meas = make_model(np.random.default_rng(41), 4, 2)
    flows = [preset(kind, prior, meas, Q0=np.eye(4)) for kind in PRESET_KINDS]
    shapes = []
    for name in ("inv", "solve"):
        def spy(a, *args, _real=getattr(np.linalg, name), **kwargs):
            shapes.append((name, np.shape(a)))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    lams = np.linspace(0.0, 1.0, 11)
    for flow in flows:
        affine_tables(flow, prior, meas, lams)
        flow.q_stack(lams, prior, meas)
        flow.k_stack(lams, prior, meas)
    assert shapes and all(len(shape) < 3 for _, shape in shapes), shapes


def _unit_model():
    """n = 2 with unit prior, measurement and noise: H^T R^-1 H = I."""
    return (GaussianPrior(np.zeros(2), np.eye(2)),
            LinearMeasurement(np.eye(2), np.eye(2), np.zeros(2)))


def _spectrum_flow(t):
    """A flow whose diffusion is ``t`` at every lam, with the fixed_q drift."""
    from flowfilt import FlowParameterization

    return FlowParameterization(
        "spectrum", k_builder=lambda lambdas, prior, meas: np.zeros((lambdas.size, 2, 2)),
        q_builder=lambda lambdas, prior, meas: np.broadcast_to(t, (lambdas.size, 2, 2)),
        analytic_admissible=True)


def _flow_of(t):
    """A schedule whose admissibility matrix ``K + K^T + I`` is ``t``."""
    return k_schedule(lambda lam: 0.5 * (t - np.eye(2)))


def _reject_if_false(accepted):
    if not accepted:
        raise AdmissibilityError("rejected")


def _entry_points():
    from flowfilt import LambdaGrid, build_stability_report
    from flowfilt.stability import classify_regime, contraction_rate

    prior, meas = _unit_model()
    derivs = _derivs(prior, meas)  # hess_log_h = -I
    grid = LambdaGrid.uniform(10)
    return {
        "is_admissible": lambda t: _reject_if_false(
            is_admissible(0.5 * (t - np.eye(2)), derivs)),
        "k_from_q": lambda t: k_from_q(t, derivs),
        "constant_q": constant_q,
        "validate": lambda t: _flow_of(t).validate(prior, meas),
        "affine_tables": lambda t: affine_tables(_flow_of(t), prior, meas,
                                                 np.linspace(0.0, 1.0, 5)),
        "diffusion_factor": diffusion_factor,
        "classify_regime": lambda t: classify_regime(_spectrum_flow(t), prior, meas, grid),
        "contraction_rate": lambda t: contraction_rate(_spectrum_flow(t), prior, meas, grid),
        "build_stability_report": lambda t: build_stability_report(
            _spectrum_flow(t), prior, meas, grid, n_mc=200),
    }


@pytest.mark.parametrize("entry", sorted(_entry_points()))
def test_every_positivity_site_applies_one_tolerance(entry):
    # The indefiniteness tolerance is 1e-10 times the largest eigenvalue
    # magnitude, here 1, wherever a flow meets a semidefiniteness test.
    check = _entry_points()[entry]
    check(np.diag([1.0, -0.5e-10]))
    with pytest.raises(AdmissibilityError) as info:
        check(np.diag([1.0, -2e-10]))
    if entry != "is_admissible":
        assert info.value.margin == pytest.approx(-2e-10, rel=1e-4)
