import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from flowfilt import stability
from flowfilt import (
    AdmissibilityError,
    GaussianPrior,
    LambdaGrid,
    LinearMeasurement,
    ParticleEnsemble,
    Regime,
    build_stability_report,
    check_fts,
    check_ftcs,
    check_ftss,
    classify_regime,
    contraction_rate,
    ellipsoid_invariance_check,
    error_trajectory,
    homotopy_derivatives,
    linear_error_trajectory,
    lyapunov_derivative,
    preset,
    propagate_ensemble,
)
from flowfilt.flows import k_schedule

GRID = LambdaGrid.uniform(800)


def test_exact_flow_error_decays_like_closed_form(canonical):
    prior, meas = canonical
    params = preset("exact", prior, meas)
    x0 = np.array([0.8])
    traj = error_trajectory(x0, np.zeros(1), params, GRID, prior, meas)
    # dxtilde = -xtilde / (2 (1 + lam)) integrates to (1 + lam)^{-1/2}.
    assert_allclose(traj.errors[:, 0], 0.8 / np.sqrt(1.0 + GRID.nodes),
                    atol=1e-9)
    # V_M is exactly conserved along the zero-diffusion flow.
    assert np.abs(traj.v_m - traj.v_m[0]).max() < 1e-10
    assert_allclose(traj.v_s, traj.errors[:, 0] ** 2, atol=1e-12)


def test_noise_cancels_in_the_error_dynamics(canonical):
    # The trajectory is deterministic even for a stochastic flow: only
    # the drift difference enters.
    prior, meas = canonical
    params = preset("fixed_q", prior, meas)
    t1 = error_trajectory(np.array([0.5]), np.zeros(1), params, GRID, prior, meas)
    t2 = error_trajectory(np.array([0.5]), np.zeros(1), params, GRID, prior, meas)
    assert np.array_equal(t1.errors, t2.errors)
    assert np.all(np.diff(t1.v_m) <= 1e-12)


def test_lyapunov_derivative_formula(make_model):
    rng = np.random.default_rng(50)
    prior, meas = make_model(rng, 3, 2)
    derivs = homotopy_derivatives(np.zeros(3), 0.4, prior, meas)
    x = rng.standard_normal(3)
    c = rng.standard_normal((3, 3))
    q = c @ c.T
    got = lyapunov_derivative(x, 0.4, q, derivs)
    v = derivs.M @ x
    assert_allclose(got, -v @ q @ v, atol=1e-12)
    assert got <= 0.0
    assert lyapunov_derivative(x, 0.4, np.zeros((3, 3)), derivs) == 0.0


def test_check_fts_verdicts(canonical):
    prior, meas = canonical
    s = prior.precision
    params = preset("fixed_q", prior, meas)
    inside = error_trajectory(np.array([np.sqrt(0.999)]), np.zeros(1), params,
                              GRID, prior, meas)
    assert check_fts(inside, 1.0, 2.0, s).verdict

    outside = error_trajectory(np.array([2.0]), np.zeros(1), params, GRID,
                               prior, meas)
    # Premise fails, so the definition holds vacuously.
    assert check_fts(outside, 1.0, 2.0, s).verdict

    with pytest.raises(ValueError, match="alpha"):
        check_fts(inside, 2.0, 1.0, s)
    with pytest.raises(ValueError, match="alpha"):
        check_fts(inside, -1.0, 1.0, s)


def test_check_fts_flags_unstable_system():
    grid = LambdaGrid.uniform(600)
    s = np.eye(1)
    traj = linear_error_trajectory(np.array([np.sqrt(0.98)]),
                                   lambda lam: np.eye(1), grid, s)
    # xtilde(1) = xtilde(0) e, so V_S(1) = 0.98 e^2 > 2.
    assert not check_fts(traj, 1.0, 2.0, s).verdict
    assert_allclose(traj.errors[-1, 0], np.sqrt(0.98) * np.e, rtol=1e-10)


def test_check_ftcs_verdicts(canonical):
    prior, meas = canonical
    s = prior.precision
    params = preset("constant_q", prior, meas, Q0=np.eye(1))
    traj = error_trajectory(np.array([np.sqrt(0.999)]), np.zeros(1), params,
                            GRID, prior, meas)

    res = check_ftcs(traj, alpha=1.0, beta=0.6, gamma=2.0, s_weight=s)
    assert res.verdict
    assert res.lambda1 is not None and 0.0 < res.lambda1 < 1.0
    at_entry = np.searchsorted(GRID.nodes, res.lambda1)
    assert traj.v_s[at_entry] < 0.6

    # The canonical contraction floor sits near 0.11, so 0.02 is
    # unreachable and the tighter verdict must be false.
    assert not check_ftcs(traj, alpha=1.0, beta=0.02, gamma=2.0,
                          s_weight=s).verdict

    zero = error_trajectory(np.zeros(1), np.zeros(1), params, GRID, prior, meas)
    res0 = check_ftcs(zero, alpha=1.0, beta=0.6, gamma=2.0, s_weight=s)
    assert res0.verdict and res0.lambda1 == GRID.nodes[1]

    with pytest.raises(ValueError, match="beta"):
        check_ftcs(traj, alpha=1.0, beta=1.5, gamma=2.0, s_weight=s)
    with pytest.raises(ValueError, match="beta"):
        check_ftcs(traj, alpha=1.0, beta=0.6, gamma=0.8, s_weight=s)


def test_check_ftcs_lambda1_is_the_earliest_interior_entry():
    rng = np.random.default_rng(56)
    nodes = np.linspace(0.0, 1.0, 41)
    s = np.eye(1)
    for _ in range(200):
        v = rng.uniform(0.0, 0.9, nodes.size)
        v[: rng.integers(0, nodes.size + 1)] += rng.uniform(0.0, 1.0)
        traj = stability.ErrorTrajectory(nodes=nodes, errors=np.sqrt(v)[:, None],
                                         v_m=v, v_s=v)
        res = check_ftcs(traj, alpha=1.0, beta=0.6, gamma=2.0, s_weight=s)
        w = np.einsum("ki,ij,kj->k", traj.errors, s, traj.errors)
        want = None
        if w[0] < 1.0:
            for j in range(1, nodes.size - 1):
                if (w[j:] < 0.6).all():
                    want = float(nodes[j])
                    break
        assert res.lambda1 == want
        assert res.verdict == (w[0] >= 1.0 or want is not None)


def test_ftcs_crossing_inside_the_last_step_is_located():
    # dx = -x dlam from x0 = 1: v = exp(-2 lam) crosses beta = exp(-1.86)
    # at lam 0.93, inside the last step (0.9, 1) of a 10-step grid.  Only
    # the last node is below beta, yet the verdict must not depend on
    # whether a node falls after the crossing.
    s = np.eye(1)
    beta = np.exp(-1.86)
    verdicts = []
    for steps in (10, 20, 40):
        grid = LambdaGrid.uniform(steps)
        traj = linear_error_trajectory(np.ones(1), lambda lam: -np.eye(1), grid, s)
        res = check_ftcs(traj, alpha=2.0, beta=beta, gamma=4.0, s_weight=s)
        verdicts.append(res.verdict)
        assert 0.0 < res.lambda1 < 1.0
        if steps == 10:
            assert traj.v_s[-2] >= beta > traj.v_s[-1]
            assert res.lambda1 == pytest.approx(0.93, abs=1e-6)
    assert verdicts == [True, True, True]
    # Without a crossing the verdict stays false: v ends at exp(-2) above
    # a beta of exp(-2.1).
    traj = linear_error_trajectory(np.ones(1), lambda lam: -np.eye(1),
                                   LambdaGrid.uniform(10), s)
    res = check_ftcs(traj, alpha=2.0, beta=np.exp(-2.1), gamma=4.0, s_weight=s)
    assert not res.verdict and res.lambda1 is None


def test_check_ftss_stable_flow(canonical):
    prior, meas = canonical
    params = preset("fixed_q", prior, meas)
    res = check_ftss(params, prior, meas, GRID, alpha=1.0, beta=4.0,
                     epsilon=0.25, n_mc=2000, seed=0)
    assert res.verdict
    # Initial energies are chi-square with one degree of freedom and the
    # S-norm never grows, so the stay-below probability is about 0.954.
    assert 0.93 <= res.empirical_prob <= 0.98
    assert res.threshold < res.empirical_prob

    again = check_ftss(params, prior, meas, GRID, alpha=1.0, beta=4.0,
                       epsilon=0.25, n_mc=2000, seed=0)
    assert again.empirical_prob == res.empirical_prob


def test_check_ftss_unstable_system(canonical):
    prior, meas = canonical
    res = check_ftss(None, prior, meas, GRID, alpha=1.0, beta=4.0,
                     epsilon=0.25, n_mc=2000, seed=0,
                     system_a_fn=lambda lam: np.eye(1))
    assert not res.verdict
    # P(chi2_1 <= 4 / e^2) is about 0.54, far below the 0.737 threshold.
    assert res.empirical_prob < 0.6


def test_check_ftss_parameter_validation(canonical):
    prior, meas = canonical
    params = preset("fixed_q", prior, meas)
    with pytest.raises(ValueError, match="epsilon"):
        check_ftss(params, prior, meas, GRID, alpha=1.0, beta=4.0,
                   epsilon=0.1, n_mc=2000, seed=0)
    with pytest.raises(ValueError, match="n_mc"):
        check_ftss(params, prior, meas, GRID, alpha=1.0, beta=4.0,
                   epsilon=0.25, n_mc=50, seed=0)
    with pytest.raises(ValueError, match="params"):
        check_ftss(None, prior, meas, GRID, alpha=1.0, beta=4.0,
                   epsilon=0.25, n_mc=2000, seed=0)


def test_contraction_rate_by_regime(canonical):
    prior, meas = canonical
    assert contraction_rate(preset("exact", prior, meas), prior, meas, GRID) == 0.0
    # Q0 = I and S = I give sigma = 1.
    assert_allclose(contraction_rate(preset("constant_q", prior, meas,
                                            Q0=np.eye(1)), prior, meas, GRID),
                    1.0, atol=1e-12)
    rate = contraction_rate(preset("fixed_q", prior, meas), prior, meas, GRID)
    # Q(lam) = (1 + lam)^{-2} stays positive; the floor is at lam = 1.
    assert_allclose(rate, 0.25, atol=1e-12)


def test_contraction_rate_vanishes_for_rank_deficient_diffusion(make_model):
    rng = np.random.default_rng(51)
    prior, meas = make_model(rng, 2, 1)
    # One measurement cannot excite both directions: Q has rank 1.
    rate = contraction_rate(preset("fixed_q", prior, meas), prior, meas, GRID)
    assert rate == 0.0


def test_classify_regime(canonical, make_model):
    prior, meas = canonical
    assert classify_regime(preset("exact", prior, meas), prior, meas,
                           GRID) is Regime.CONSTANT_V
    assert classify_regime(preset("constant_q", prior, meas, Q0=np.eye(1)),
                           prior, meas, GRID) is Regime.EXPONENTIAL_DECAY
    rng = np.random.default_rng(52)
    prior2, meas2 = make_model(rng, 2, 1)
    assert classify_regime(preset("fixed_q", prior2, meas2), prior2, meas2,
                           GRID) is Regime.NON_INCREASING


def test_classify_regime_rejects_indefinite_diffusion(canonical):
    prior, meas = canonical
    # Bypass preset validation to hand the classifier a broken schedule.
    bad = k_schedule(lambda lam: np.array([[-1.0]]))
    with pytest.raises(AdmissibilityError):
        classify_regime(bad, prior, meas, GRID)


def test_spectrum_failures_name_lam_and_margin():
    prior = GaussianPrior(np.zeros(2), np.eye(2))
    meas = LinearMeasurement(np.eye(2), np.eye(2), np.zeros(2))
    # K + K^T + I = diag(-1, 1) only at lam = 0.375, between the
    # validation nodes, so the preset passes and the grid that reaches
    # that node must name it.
    params = preset("k_schedule", prior, meas,
                    k_fn=lambda lam: np.diag([-1.0, 0.0]) if lam == 0.375
                    else np.zeros((2, 2)))
    grid = LambdaGrid.uniform(8)
    for check in (classify_regime, contraction_rate, build_stability_report):
        with pytest.raises(AdmissibilityError) as info:
            check(params, prior, meas, grid)
        assert info.value.lam == 0.375
        assert info.value.margin == pytest.approx(-1.0, rel=1e-12)


def test_ellipsoid_invariance(canonical, make_model):
    prior, meas = canonical
    dev = ellipsoid_invariance_check(prior, meas, LambdaGrid.uniform(2000),
                                     8, seed=0)
    assert dev < 1e-10
    rng = np.random.default_rng(53)
    prior2, meas2 = make_model(rng, 3, 2)
    dev = ellipsoid_invariance_check(prior2, meas2, LambdaGrid.uniform(2000),
                                     8, seed=0)
    assert dev < 1e-9
    assert ellipsoid_invariance_check(prior, meas, GRID, 0, seed=0) == 0.0
    with pytest.raises(ValueError):
        ellipsoid_invariance_check(prior, meas, GRID, -1, seed=0)


def test_ftss_beta_is_the_smallest_that_check_ftss_admits():
    rng = np.random.default_rng(58)
    stepped = 0
    for alpha, epsilon in zip(10.0 ** rng.uniform(-3.0, 3.0, 2000),
                              rng.uniform(0.01, 0.99, 2000)):
        beta = stability._ftss_beta(alpha, epsilon)
        assert alpha < beta and alpha / beta <= epsilon, (alpha, epsilon)
        assert beta >= alpha / epsilon
        if beta != alpha / epsilon:
            # Stepped up past rounding, and no further.
            stepped += 1
            assert alpha / np.nextafter(beta, 0.0) > epsilon, (alpha, epsilon)
    assert stepped > 0
    # The defaults give the beta of 4 that FTSS always used.
    assert stability._ftss_beta(1.0, 0.25) == 4.0
    for alpha, epsilon in ((0.0, 0.25), (np.nan, 0.25), (np.inf, 0.25),
                           (1.0, 0.0), (1.0, 1.0), (1.0, np.nan)):
        with pytest.raises(ValueError, match="need alpha > 0 and 0 < epsilon < 1"):
            stability._ftss_beta(alpha, epsilon)


def test_build_stability_report(canonical):
    prior, meas = canonical
    params = preset("constant_q", prior, meas, Q0=np.eye(1))
    report = build_stability_report(params, prior, meas, GRID, n_mc=500, seed=1)
    assert report.regime is Regime.EXPONENTIAL_DECAY
    assert_allclose(report.sigma, 1.0, atol=1e-12)
    assert report.fts.verdict
    assert report.ftcs.verdict and report.ftcs.lambda1 is not None
    assert report.ftss.verdict
    payload = report.to_dict()
    assert payload["regime"] == "ExponentialDecay"
    assert set(payload) == {"fts", "ftcs", "ftss", "sigma", "regime"}


def test_refinement_guard_names_the_verdict_that_changed(monkeypatch):
    # V_S = 0.999 / (1 + lam / 2.99) drops below beta_c = 0.75 at lam 0.9927,
    # between the last two coarse nodes.  The crossing is located inside
    # that step, so both grids agree.
    prior = GaussianPrior(np.zeros(1), np.eye(1))
    meas = LinearMeasurement(np.eye(1), np.array([[2.99]]), np.array([1.0]))
    params = preset("exact", prior, meas)
    report = build_stability_report(params, prior, meas, LambdaGrid.uniform(100),
                                    n_mc=200, seed=0)
    assert report.ftcs.verdict
    assert report.ftcs.lambda1 == pytest.approx(2.99 * (0.999 / 0.75 - 1.0), abs=1e-6)
    # Judged at the nodes alone, the coarse grid sees the entry only at
    # lam 1, which is not interior, and the refined grid at lam 0.995:
    # the guard names that change.
    monkeypatch.setattr(stability, "_last_step_crossing", lambda *args: None)
    with pytest.raises(RuntimeError) as info:
        build_stability_report(params, prior, meas, LambdaGrid.uniform(100),
                               n_mc=200, seed=0)
    message = str(info.value)
    assert "changed under grid refinement (ftcs False -> True;" in message
    assert "fts " not in message and "ftss False" not in message
    assert "ftcs lambda1 None -> 0.995" in message
    assert "ftss empirical_prob 0.95 -> 0.95" in message


def test_report_builds_each_grids_transition_once(monkeypatch, make_model):
    prior, meas = make_model(np.random.default_rng(55), 2, 1)
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(100)
    built, ftss_phis, drift_nodes = [], [], []
    phi_of, ftss, flow_a = stability._phi, stability.check_ftss, stability._flow_a

    def counting_phi(a_nodes, a_mids, g):
        built.append(g.steps)
        return phi_of(a_nodes, a_mids, g)

    def recording_ftss(*args, **kwargs):
        ftss_phis.append(kwargs["phi"])
        return ftss(*args, **kwargs)

    def counting_flow_a(*args):
        a_of = flow_a(*args)

        def counted(lams):
            drift_nodes.append(len(lams))
            return a_of(lams)

        return counted

    monkeypatch.setattr(stability, "_phi", counting_phi)
    monkeypatch.setattr(stability, "check_ftss", recording_ftss)
    monkeypatch.setattr(stability, "_flow_a", counting_flow_a)
    report = build_stability_report(params, prior, meas, grid, n_mc=200, seed=2)
    assert built == [100, 200]
    # The drift is evaluated once, at the refined grid's nodes and midpoints.
    assert drift_nodes == [201, 200]
    assert [phi.shape[0] for phi in ftss_phis] == [101, 201]
    monkeypatch.undo()
    # The shared Phi is the one check_ftss would build itself.
    alone = check_ftss(params, prior, meas, grid, 1.0, 4.0, 0.25, 200, 2)
    assert report.ftss == alone


@pytest.mark.parametrize("kind", ["exact", "fixed_q", "constant_q", "diagnostic"])
def test_coarse_transition_from_the_refined_tables_is_bitwise(kind, make_model):
    rng = np.random.default_rng(56)
    for n, d, steps in [(4, 2, 1000), (3, 1, 37), (1, 1, 5)]:
        prior, meas = make_model(rng, n, d)
        kwargs = {"Q0": np.eye(n)} if kind == "constant_q" else {}
        a_of = stability._flow_a(preset(kind, prior, meas, **kwargs), prior, meas)
        grid = LambdaGrid.uniform(steps)
        a_fine = a_of(stability._refine(grid).nodes)
        sliced = stability._phi(np.ascontiguousarray(a_fine[::2]),
                                np.ascontiguousarray(a_fine[1::2]), grid)
        assert sliced.tobytes() == stability._transition(a_of, grid).tobytes()


def test_error_trajectory_rejects_wrong_shapes(canonical):
    prior, meas = canonical
    params = preset("exact", prior, meas)
    with pytest.raises(ValueError, match="shape"):
        error_trajectory(np.zeros(2), np.zeros(1), params, GRID, prior, meas)


def _stagewise_rk4(a_of, grid, x0):
    """RK4 of ``dx = A(lam) x dlam`` applied stage by stage to row states."""
    a_nodes, a_mids = a_of(grid.nodes), a_of(grid.midpoints)
    paths = [x0]
    for k, h in enumerate(grid.dlam):
        x = paths[-1]
        k1 = x @ a_nodes[k].T
        k2 = (x + 0.5 * h * k1) @ a_mids[k].T
        k3 = (x + 0.5 * h * k2) @ a_mids[k].T
        k4 = (x + h * k3) @ a_nodes[k + 1].T
        paths.append(x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.stack(paths, axis=1)


def test_transition_matrices_match_direct_propagation():
    rng = np.random.default_rng(54)
    coeffs = rng.standard_normal((3, 3, 3))
    grid = LambdaGrid.uniform(50)

    def a_of(lams):
        return coeffs[0] + lams[:, None, None] * coeffs[1] + np.sin(
            3.0 * lams)[:, None, None] * coeffs[2]

    phi = stability._transition(a_of, grid)
    assert phi.shape == (51, 3, 3)
    assert np.array_equal(phi[0], np.eye(3))
    block = rng.standard_normal((5, 3))
    paths = _stagewise_rk4(a_of, grid, block)
    via_phi = np.einsum("kij,pj->pki", phi, block)
    assert_allclose(via_phi, paths, rtol=1e-12,
                    atol=1e-12 * np.abs(paths).max())


def _pencil_phi(prior, meas, lams, power):
    """Closed-form ``Phi(lam) = T diag((1 + lam mu)^-power) T^-1``, with
    ``P_g = C C^T``, ``C^T H^T R^-1 H C = V diag(mu) V^T`` and ``T = C V``:
    ``power`` 1/2 for the exact flow, 1 for fixed_q."""
    c = np.linalg.cholesky(prior.P_g)
    mu, v = np.linalg.eigh(c.T @ meas.H.T @ np.linalg.solve(meas.R, meas.H) @ c)
    t = c @ v
    return (t * (1.0 + lams[:, None, None] * mu) ** -power) @ np.linalg.inv(t)


def _rel_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def test_transition_matrices_match_the_pencil_closed_form(make_model):
    prior, meas = make_model(np.random.default_rng(43), 4, 2)
    exact, fixed = preset("exact", prior, meas), preset("fixed_q", prior, meas)
    # Classic RK4 is exact, to rounding, on fixed_q's y' = -mu y / (1 + lam mu).
    for steps in (50, 100, 200, 1000):
        grid = LambdaGrid.uniform(steps)
        got = stability._transition(stability._flow_a(fixed, prior, meas), grid)
        assert _rel_gap(got, _pencil_phi(prior, meas, grid.nodes, 1.0)) <= 1e-12
    # The exact flow's Phi converges at fourth order, read off the step
    # transitions and off the RK4 ensemble's columns x(e_i) - x(0).
    phi_gaps, ens_gaps = [], []
    for steps in (50, 100, 200):
        grid = LambdaGrid.uniform(steps, scheme="rk4")
        want = _pencil_phi(prior, meas, grid.nodes, 0.5)
        phi_gaps.append(_rel_gap(
            stability._transition(stability._flow_a(exact, prior, meas), grid), want))
        start = ParticleEnsemble(np.vstack([np.zeros(4), np.eye(4)]), lam=0.0, seed=0)
        end = propagate_ensemble(start, exact, grid, prior, meas).particles
        ens_gaps.append(_rel_gap((end[1:] - end[0]).T, want[-1]))
    for gaps in (phi_gaps, ens_gaps):
        for coarse, fine in zip(gaps, gaps[1:]):
            assert abs(np.log2(coarse / fine) - 4.0) < 0.1, gaps


def test_linear_error_trajectory_names_the_lam_where_phi_leaves_the_range():
    grid = LambdaGrid.uniform(999)  # 1000 nodes
    # Phi = exp(40 lam) I passes the 1e12 state limit past ln(1e12) / 40.
    first = grid.nodes[np.argmax(40.0 * grid.nodes > np.log(1e12))]
    assert 0.69 < first < 0.693
    with pytest.raises(AdmissibilityError, match="trusted range") as info:
        linear_error_trajectory(np.array([1e-6, 0.0]),
                                lambda lam: 40.0 * np.eye(2), grid, np.eye(2))
    assert info.value.lam == first
    assert f"lam {first:.6g}" in str(info.value)


def test_transition_stops_at_the_first_step_past_the_trusted_range():
    grid = LambdaGrid.uniform(999)
    # One RK4 step of A = 1e4 I multiplies Phi by about 644, so step 4
    # takes it past 1e12.  Chaining on would overflow into a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AdmissibilityError, match="step 4, lam 0.00500501") as info:
            linear_error_trajectory(np.array([1.0, 0.0]),
                                    lambda lam: 1e4 * np.eye(2), grid, np.eye(2))
    assert info.value.lam == grid.nodes[5]
    assert info.value.margin is None


def test_transition_overflow_is_reported_as_the_diverged_step():
    grid = LambdaGrid.uniform(999)
    cases = [
        # The RK4 map of step 0 already overflows.
        (lambda lam: 1e200 * lam * np.eye(2), "step 0, lam 0.001001", 1),
        # The chain stops at step 4; the maps past lam 0.5 overflow unused.
        (lambda lam: (1e4 + 1e200 * max(lam - 0.5, 0.0)) * np.eye(2),
         "step 4, lam 0.00500501", 5),
    ]
    for a_fn, where, node in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AdmissibilityError, match=where) as info:
                linear_error_trajectory(np.array([1.0, 0.0]), a_fn, grid, np.eye(2))
        assert info.value.lam == grid.nodes[node]


def test_transition_names_the_first_step_that_reads_a_nan_drift():
    grid = LambdaGrid.uniform(100)

    def a_fn(lam):
        return np.full((2, 2), np.nan) if lam >= 0.503 else -np.eye(2)

    # Step 50 is the first to read A past 0.503: at its midpoint 0.505.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AdmissibilityError, match="step 50, lam 0.51") as info:
            linear_error_trajectory(np.ones(2), a_fn, grid, np.eye(2))
    assert info.value.lam == grid.nodes[51]


def test_check_ftss_does_not_hold_the_monte_carlo_paths(make_model):
    rng = np.random.default_rng(55)
    prior, meas = make_model(rng, 4, 2)
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(1000)
    n_mc = 2000
    tracemalloc.start()
    try:
        res = check_ftss(params, prior, meas, grid, alpha=1.0, beta=4.0,
                         epsilon=0.25, n_mc=n_mc, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.verdict
    # The recorded (n_mc, steps+1, n) paths alone would take 64 MB.
    assert peak < 2 * n_mc * (grid.steps + 1) * 8


def test_check_ftss_forms_only_the_points_the_lyapunov_bound_cannot_clear(make_model):
    rng = np.random.default_rng(55)
    prior, meas = make_model(rng, 4, 2)
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(1000)
    n_mc = 2000
    tracemalloc.start()
    try:
        res = check_ftss(params, prior, meas, grid, alpha=1.0, beta=4.0,
                         epsilon=0.25, n_mc=n_mc, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.verdict
    # The (n_mc, steps+1) node forms of every point alone would take 16 MB.
    assert peak < n_mc * (grid.steps + 1) * 8 / 4


def test_failed_ftcs_verdict_reports_no_lambda1(monkeypatch):
    # The observed direction contracts below beta_c; the unobserved one
    # keeps its S-norm, never enters, and makes the verdict False.
    prior = GaussianPrior(np.zeros(2), np.eye(2))
    meas = LinearMeasurement(np.array([[1.0, 0.0]]), np.array([[0.01]]),
                             np.array([0.5]))
    params = preset("exact", prior, meas)
    monkeypatch.setattr(stability, "_ellipsoid_points",
                        lambda count, s_weight, seed: np.eye(2))
    grid = LambdaGrid.uniform(100)
    report = build_stability_report(params, prior, meas, grid, n_mc=200,
                                    n_directions=2, seed=0)
    alpha = report.ftcs.alpha
    entered = [check_ftcs(error_trajectory(np.sqrt(0.999 * alpha) * e,
                                           np.zeros(2), params, grid, prior, meas),
                          alpha, report.ftcs.beta, report.ftcs.gamma, prior.precision)
               for e in np.eye(2)]
    assert entered[0].verdict and entered[0].lambda1 is not None
    assert not entered[1].verdict
    assert report.ftcs.verdict is False
    assert report.ftcs.lambda1 is None
