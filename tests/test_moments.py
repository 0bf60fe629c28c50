import numpy as np
import pytest
from numpy.testing import assert_allclose

from flowfilt import (
    DivergenceError,
    LambdaGrid,
    closed_form_posterior,
    lmv_estimate,
    preset,
    solve_moment_odes,
)


def test_posterior_at_lambda_zero_is_the_prior(make_model):
    rng = np.random.default_rng(30)
    prior, meas = make_model(rng, 3, 2)
    mean, cov = closed_form_posterior(0.0, prior, meas)
    assert np.array_equal(mean, prior.x_prior)
    assert np.array_equal(cov, prior.P_g)


def test_posterior_canonical_values(canonical):
    prior, meas = canonical
    mean, cov = closed_form_posterior(1.0, prior, meas)
    assert_allclose(mean, [1.0], atol=1e-14)
    assert_allclose(cov, [[0.5]], atol=1e-14)
    mean, cov = closed_form_posterior(0.5, prior, meas)
    assert_allclose(cov, [[1.0 / 1.5]], atol=1e-14)
    assert_allclose(mean, [1.0 / 1.5], atol=1e-14)


def test_posterior_matches_information_form(make_model):
    rng = np.random.default_rng(31)
    prior, meas = make_model(rng, 4, 2)
    lam = 0.73
    s = np.linalg.inv(prior.P_g)
    g = meas.H.T @ np.linalg.inv(meas.R) @ meas.H
    u = meas.H.T @ np.linalg.inv(meas.R) @ meas.z
    cov_ref = np.linalg.inv(s + lam * g)
    mean_ref = cov_ref @ (s @ prior.x_prior + lam * u)
    mean, cov = closed_form_posterior(lam, prior, meas)
    assert_allclose(mean, mean_ref, atol=1e-10)
    assert_allclose(cov, cov_ref, atol=1e-10)


def test_lmv_estimate_equals_posterior_mean(make_model):
    rng = np.random.default_rng(32)
    prior, meas = make_model(rng, 3, 1)
    mean, _ = closed_form_posterior(1.0, prior, meas)
    assert_allclose(lmv_estimate(prior, meas), mean, atol=1e-12)


@pytest.mark.parametrize("kind", ["exact", "fixed_q", "constant_q", "diagnostic"])
def test_moment_path_hits_oracle(kind, make_model):
    rng = np.random.default_rng(33)
    prior, meas = make_model(rng, 2, 2)
    kwargs = {"Q0": np.eye(2)} if kind == "constant_q" else {}
    params = preset(kind, prior, meas, **kwargs)
    grid = LambdaGrid.uniform(400)
    path = solve_moment_odes(params, grid, prior, meas)
    for lam_idx in (0, 200, 400):
        lam = grid.nodes[lam_idx]
        mean_ref, cov_ref = closed_form_posterior(lam, prior, meas)
        assert_allclose(path.means[lam_idx], mean_ref, atol=1e-7)
        assert_allclose(path.covariances[lam_idx], cov_ref, atol=1e-7)


def test_moment_path_covariances_stay_symmetric(canonical, make_model):
    rng = np.random.default_rng(34)
    prior, meas = make_model(rng, 3, 2)
    params = preset("fixed_q", prior, meas)
    path = solve_moment_odes(params, LambdaGrid.uniform(100), prior, meas)
    for cov in path.covariances[::10]:
        assert np.array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() > 0.0


def test_moment_path_starts_at_prior(make_model):
    rng = np.random.default_rng(35)
    prior, meas = make_model(rng, 2, 1)
    params = preset("exact", prior, meas)
    path = solve_moment_odes(params, LambdaGrid.uniform(50), prior, meas)
    assert_allclose(path.means[0], prior.x_prior)
    assert_allclose(path.covariances[0], prior.P_g)
    assert np.array_equal(path.terminal_mean, path.means[-1])
    assert np.array_equal(path.terminal_covariance, path.covariances[-1])


def test_different_gains_share_one_moment_path(canonical):
    prior, meas = canonical
    grid = LambdaGrid.uniform(300)
    reference = solve_moment_odes(preset("exact", prior, meas), grid, prior, meas)
    other = solve_moment_odes(preset("fixed_q", prior, meas), grid, prior, meas)
    assert_allclose(other.means, reference.means, atol=1e-9)
    assert_allclose(other.covariances, reference.covariances, atol=1e-9)


def test_closed_form_posterior_rejects_bad_lam(canonical):
    prior, meas = canonical
    with pytest.raises(ValueError):
        closed_form_posterior(1.5, prior, meas)


def test_moment_divergence_names_step_and_lam(canonical):
    prior, meas = canonical
    params = preset("constant_q", prior, meas, Q0=np.array([[1e300]]))
    grid = LambdaGrid.uniform(50)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        solve_moment_odes(params, grid, prior, meas)
    assert info.value.step == 0
    assert info.value.lam == grid.nodes[1]
    assert "lam" in str(info.value)
