import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from flowfilt import (
    GaussianPrior,
    LambdaGrid,
    ParticleEnsemble,
    consistency_sweep,
    covariance_estimate,
    estimator_report,
    mean_estimate,
    preset,
    propagate_ensemble,
    sample_prior,
)


def test_sample_prior_is_reproducible(make_model):
    rng = np.random.default_rng(40)
    prior, _ = make_model(rng, 3, 1)
    a = sample_prior(50, prior, seed=11)
    b = sample_prior(50, prior, seed=11)
    assert np.array_equal(a.particles, b.particles)
    assert a.lam == 0.0 and a.seed == 11
    c = sample_prior(50, prior, seed=12)
    assert not np.array_equal(a.particles, c.particles)


def test_sample_prior_matches_moments(make_model):
    rng = np.random.default_rng(41)
    prior, _ = make_model(rng, 2, 1)
    ens = sample_prior(200000, prior, seed=1)
    scale = np.sqrt(np.trace(prior.P_g) / 200000)
    assert np.linalg.norm(mean_estimate(ens) - prior.x_prior) < 5 * scale
    assert np.linalg.norm(covariance_estimate(ens) - prior.P_g, ord="fro") < 0.05 * np.linalg.norm(prior.P_g)


def test_sample_prior_tight_covariance_pins_draws():
    prior = GaussianPrior(np.array([3.0, -1.0]), 1e-12 * np.eye(2))
    ens = sample_prior(100, prior, seed=2)
    assert np.abs(ens.particles - prior.x_prior).max() < 1e-4


def test_estimates_are_stable_under_large_offsets():
    rng = np.random.default_rng(42)
    base = rng.standard_normal((500, 2))
    offset = 1e8
    ens = ParticleEnsemble(base + offset, 0.0, 0)
    mean = mean_estimate(ens)
    cov = covariance_estimate(ens)
    # fsum-based reference, one coordinate at a time.
    ref_mean = np.array([math.fsum(base[:, j] + offset) / 500 for j in range(2)])
    centered = (base + offset) - ref_mean
    ref_cov = np.array([[math.fsum(centered[:, i] * centered[:, j]) / 499
                         for j in range(2)] for i in range(2)])
    assert_allclose(mean, ref_mean, rtol=1e-12)
    assert_allclose(cov, ref_cov, rtol=1e-9, atol=1e-9)


def test_covariance_requires_two_particles():
    ens = ParticleEnsemble(np.zeros((1, 2)), 0.0, 0)
    with pytest.raises(ValueError, match="insufficient sample"):
        covariance_estimate(ens)


def test_ensemble_validation():
    with pytest.raises(ValueError, match="non-finite"):
        ParticleEnsemble(np.array([[np.nan]]), 0.0, 0)
    with pytest.raises(ValueError, match="lam"):
        ParticleEnsemble(np.zeros((2, 1)), 1.5, 0)
    with pytest.raises(ValueError, match="shape"):
        ParticleEnsemble(np.zeros(3), 0.0, 0)


def test_estimator_report_compares_to_oracle(canonical):
    prior, meas = canonical
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(500)
    ens = propagate_ensemble(sample_prior(4000, prior, seed=8), params, grid,
                             prior, meas)
    report = estimator_report(ens, prior, meas)
    assert report.n_particles == 4000
    assert_allclose(report.oracle_mean, [1.0])
    assert_allclose(report.oracle_covariance, [[0.5]])
    assert report.mean_error < 0.1
    assert report.covariance_error < 0.1


def test_consistency_sweep_slope_is_near_half(canonical):
    prior, meas = canonical
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(300)
    table = consistency_sweep(params, prior, meas, grid,
                              n_list=[25, 100, 400, 1600],
                              seeds=list(range(8)))
    assert table.n_particles.tolist() == [25, 100, 400, 1600]
    assert table.seed_count == 8
    assert np.all(np.diff(table.mean_errors) < 0.0)
    assert -0.85 <= table.slope <= -0.25


def test_consistency_sweep_keeps_each_ensembles_mean(make_model):
    rng = np.random.default_rng(16)
    prior, meas = make_model(rng, 2, 1)
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(15)
    n_list, seeds = [3, 7], [5, 9, 11]
    table = consistency_sweep(params, prior, meas, grid, n_list, seeds)
    assert table.mean_estimates.shape == (2, 3, 2)
    for r, n in enumerate(n_list):
        for s, seed in enumerate(seeds):
            ens = propagate_ensemble(sample_prior(n, prior, seed), params, grid,
                                     prior, meas)
            assert table.mean_estimates[r, s].tobytes() == mean_estimate(ens).tobytes()


def test_consistency_sweep_rejects_singleton_ensembles(canonical):
    prior, meas = canonical
    params = preset("fixed_q", prior, meas)
    with pytest.raises(ValueError, match="insufficient sample"):
        consistency_sweep(params, prior, meas, LambdaGrid.uniform(20),
                          n_list=[1, 10], seeds=[0])
    with pytest.raises(ValueError, match="seed"):
        consistency_sweep(params, prior, meas, LambdaGrid.uniform(20),
                          n_list=[10], seeds=[])
