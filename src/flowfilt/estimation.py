"""Particle ensembles and the estimators evaluated on them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flows import FlowParameterization
from .grid import LambdaGrid
from .integrate import PRIOR_STREAM, make_generator, propagate_ensemble
from .model import GaussianPrior, LinearMeasurement
from .moments import closed_form_posterior


@dataclass(frozen=True)
class ParticleEnsemble:
    """A set of particles sharing one lam value.

    ``seed`` records the sampling seed so downstream propagation can
    derive its noise streams from it.
    """

    particles: np.ndarray
    lam: float
    seed: int

    def __post_init__(self):
        particles = np.asarray(self.particles, dtype=float)
        if particles.ndim != 2 or particles.shape[0] < 1:
            raise ValueError(
                f"particles must be a (N, n) array with N >= 1, got shape {particles.shape}"
            )
        if not np.all(np.isfinite(particles)):
            raise ValueError("particles contain non-finite entries")
        lam = float(self.lam)
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lam must lie in [0, 1], got {lam}")
        object.__setattr__(self, "particles", np.ascontiguousarray(particles))
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def n_particles(self) -> int:
        return self.particles.shape[0]

    @property
    def n(self) -> int:
        return self.particles.shape[1]


@dataclass(frozen=True)
class EstimatorReport:
    """Ensemble estimates next to the closed-form posterior."""

    n_particles: int
    mean: np.ndarray
    covariance: np.ndarray
    oracle_mean: np.ndarray
    oracle_covariance: np.ndarray
    mean_error: float
    covariance_error: float


@dataclass(frozen=True)
class ConsistencyTable:
    """Seed-averaged estimator errors per ensemble size, with a fitted rate."""

    n_particles: np.ndarray
    seed_count: int
    mean_errors: np.ndarray
    cov_errors: np.ndarray
    slope: float
    mean_estimates: np.ndarray  # (sizes, seeds, n): each ensemble's mean


def sample_prior(n_particles: int, prior: GaussianPrior, seed: int) -> ParticleEnsemble:
    """Draw an i.i.d. ensemble from the prior at lam 0.

    Uses a dedicated counter-based stream, so the draw commutes with any
    later propagation noise regardless of ensemble size.
    """
    n_particles = int(n_particles)
    if n_particles < 1:
        raise ValueError(f"n_particles must be >= 1, got {n_particles}")
    gen = make_generator(seed, PRIOR_STREAM)
    z = gen.standard_normal((n_particles, prior.n))
    particles = prior.x_prior + z @ prior.chol.T
    return ParticleEnsemble(particles=particles, lam=0.0, seed=int(seed))


def mean_estimate(ensemble: ParticleEnsemble) -> np.ndarray:
    """Ensemble mean."""
    return np.mean(ensemble.particles, axis=0)


def covariance_estimate(ensemble: ParticleEnsemble) -> np.ndarray:
    """Unbiased two-pass sample covariance with 1/(N-1) normalization.

    Raises ValueError for ensembles with fewer than two particles, where
    the estimator is undefined.
    """
    n = ensemble.n_particles
    if n < 2:
        raise ValueError(
            f"covariance needs at least 2 particles, got {n} (insufficient sample)"
        )
    centered = ensemble.particles - mean_estimate(ensemble)
    # einsum keeps the reduction single-threaded and deterministic.
    cov = np.einsum("ki,kj->ij", centered, centered) / (n - 1)
    return 0.5 * (cov + cov.T)


def estimator_report(ensemble: ParticleEnsemble, prior: GaussianPrior,
                     meas: LinearMeasurement) -> EstimatorReport:
    """Compare ensemble estimates at the ensemble's lam with the oracle."""
    mean = mean_estimate(ensemble)
    cov = covariance_estimate(ensemble)
    oracle_mean, oracle_cov = closed_form_posterior(ensemble.lam, prior, meas)
    return EstimatorReport(
        n_particles=ensemble.n_particles,
        mean=mean,
        covariance=cov,
        oracle_mean=oracle_mean,
        oracle_covariance=oracle_cov,
        mean_error=float(np.linalg.norm(mean - oracle_mean)),
        covariance_error=float(np.linalg.norm(cov - oracle_cov, ord="fro")),
    )


def consistency_sweep(params: FlowParameterization, prior: GaussianPrior,
                      meas: LinearMeasurement, grid: LambdaGrid,
                      n_list, seeds) -> ConsistencyTable:
    """Estimator error versus ensemble size, averaged over seeds.

    For each N, samples the prior, propagates to lam 1 and measures the
    distance of the ensemble estimates from the closed-form posterior.
    The fitted slope of log mean-error against log N should sit near
    -1/2 for a consistent estimator.
    """
    n_list = [int(n) for n in n_list]
    seeds = [int(s) for s in seeds]
    if min(n_list) < 2:
        raise ValueError(
            "consistency sweep needs at least 2 particles per ensemble "
            "(insufficient sample for the covariance)"
        )
    if len(seeds) < 1:
        raise ValueError("consistency sweep needs at least one seed")
    oracle_mean, oracle_cov = closed_form_posterior(1.0, prior, meas)
    mean_errors = np.empty(len(n_list))
    cov_errors = np.empty(len(n_list))
    mean_estimates = np.empty((len(n_list), len(seeds), prior.n))
    for row, n in enumerate(n_list):
        acc_mean = 0.0
        acc_cov = 0.0
        for col, seed in enumerate(seeds):
            ens = sample_prior(n, prior, seed)
            ens = propagate_ensemble(ens, params, grid, prior, meas)
            mean_estimates[row, col] = mean_estimate(ens)
            acc_mean += np.linalg.norm(mean_estimates[row, col] - oracle_mean)
            acc_cov += np.linalg.norm(covariance_estimate(ens) - oracle_cov, ord="fro")
        mean_errors[row] = acc_mean / len(seeds)
        cov_errors[row] = acc_cov / len(seeds)
    if len(n_list) >= 2:
        slope = float(np.polyfit(np.log(n_list), np.log(mean_errors), 1)[0])
    else:
        slope = float("nan")
    return ConsistencyTable(
        n_particles=np.array(n_list),
        seed_count=len(seeds),
        mean_errors=mean_errors,
        cov_errors=cov_errors,
        slope=slope,
        mean_estimates=mean_estimates,
    )
