"""Multi-step filtering: flow updates chained through a linear dynamic model.

Between measurements the particles move through the dynamics with
process noise; a Gaussian is refit to the ensemble and the next flow
update starts from it.  An exact Kalman filter runs alongside as the
oracle for both the state estimate and the covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimation import (ParticleEnsemble, covariance_estimate, mean_estimate,
                         sample_prior)
from .flows import FlowParameterization
from .grid import LambdaGrid
from .integrate import (PROCESS_STREAM, TRUTH_STREAM, make_generator,
                        propagate_ensemble)
from .model import GaussianPrior, LinearMeasurement, _ingest_covariance


def derive_seed(base: int, tag: int) -> int:
    """Stable 64-bit sub-seed for (base, tag); used to key per-step noise."""
    seq = np.random.SeedSequence([int(base), int(tag)])
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class SequentialScenario:
    """Linear dynamics ``x_{k+1} = F x_k + w`` with ``w ~ N(0, W)``.

    Measurements reuse the model's H and R at every step; the data are
    simulated from a truth trajectory started at a prior draw and keyed
    entirely by ``truth_seed``.
    """

    F: np.ndarray
    W: np.ndarray
    n_steps: int
    truth_seed: int

    def __post_init__(self):
        f = np.asarray(self.F, dtype=float)
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise ValueError(f"F must be square, got shape {f.shape}")
        w = _ingest_covariance(self.W, "W")
        if w.shape != f.shape:
            raise ValueError(f"W has shape {w.shape}, expected {f.shape}")
        if int(self.n_steps) < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        object.__setattr__(self, "F", f)
        object.__setattr__(self, "W", w)
        object.__setattr__(self, "n_steps", int(self.n_steps))
        object.__setattr__(self, "truth_seed", int(self.truth_seed))


class KalmanFilter:
    """Textbook linear-Gaussian filter used as the sequential oracle."""

    def __init__(self, mean, cov):
        self.mean = np.asarray(mean, dtype=float).copy()
        self.cov = np.asarray(cov, dtype=float).copy()

    def predict(self, f, w):
        self.mean = f @ self.mean
        self.cov = f @ self.cov @ f.T + w
        self.cov = 0.5 * (self.cov + self.cov.T)

    def update(self, h, r, z):
        innov = z - h @ self.mean
        gram = h @ self.cov @ h.T + r
        gain = np.linalg.solve(gram, h @ self.cov).T
        self.mean = self.mean + gain @ innov
        eye = np.eye(self.cov.shape[0])
        joseph = eye - gain @ h
        self.cov = joseph @ self.cov @ joseph.T + gain @ r @ gain.T
        self.cov = 0.5 * (self.cov + self.cov.T)


@dataclass(frozen=True)
class SequentialResult:
    """Per-step error norms of the flow filter and the Kalman oracle."""

    steps: np.ndarray
    rmse_flow: np.ndarray
    rmse_kalman: np.ndarray
    cov_gap: np.ndarray

    @property
    def rmse_ratio(self) -> float:
        """Mean flow error over mean oracle error across all steps."""
        return float(self.rmse_flow.mean() / self.rmse_kalman.mean())


def _simulate_truth(prior: GaussianPrior, meas: LinearMeasurement,
                    scenario: SequentialScenario):
    """Truth trajectory and measurements, all keyed by the truth seed."""
    gen = make_generator(scenario.truth_seed, TRUTH_STREAM)
    n = prior.n
    x = prior.x_prior + prior.chol @ gen.standard_normal(n)
    chol_w = np.linalg.cholesky(scenario.W)
    truth = np.empty((scenario.n_steps, n))
    zs = np.empty((scenario.n_steps, meas.d))
    for k in range(scenario.n_steps):
        x = scenario.F @ x + chol_w @ gen.standard_normal(n)
        zs[k] = meas.H @ x + meas.chol_r @ gen.standard_normal(meas.d)
        truth[k] = x
    return truth, zs


def run_sequential(prior: GaussianPrior, meas: LinearMeasurement,
                   params: FlowParameterization, grid: LambdaGrid,
                   scenario: SequentialScenario, n_particles: int,
                   ensemble_seed: int) -> SequentialResult:
    """Run the flow filter and the Kalman oracle over a simulated track.

    Each step: push particles through the dynamics with process noise,
    refit a Gaussian to the ensemble, run the flow update against the
    new measurement, and advance the oracle.  Flow-update noise for step
    k is keyed by a sub-seed derived from (ensemble_seed, k), so the
    whole run is a pure function of the two seeds.

    Returns per-step root-mean-square errors (normalized by sqrt(n)) and
    the Frobenius gap between the ensemble covariance and the oracle's.
    Raises ValueError for fewer than two particles, which cannot be refit.
    """
    n_particles = int(n_particles)
    if n_particles < 2:
        raise ValueError("the ensemble needs at least 2 particles to refit a "
                         f"Gaussian, got {n_particles}")
    truth, zs = _simulate_truth(prior, meas, scenario)
    ensemble = sample_prior(n_particles, prior, ensemble_seed)
    x = np.array(ensemble.particles)
    kf = KalmanFilter(prior.x_prior, prior.P_g)
    chol_w = np.linalg.cholesky(scenario.W)
    sqrt_n = np.sqrt(prior.n)

    steps = np.arange(1, scenario.n_steps + 1)
    rmse_flow = np.empty(scenario.n_steps)
    rmse_kalman = np.empty(scenario.n_steps)
    cov_gap = np.empty(scenario.n_steps)

    for k in range(scenario.n_steps):
        process_gen = make_generator(derive_seed(ensemble_seed, k), PROCESS_STREAM)
        x = x @ scenario.F.T + process_gen.standard_normal(x.shape) @ chol_w.T

        staged = ParticleEnsemble(particles=x, lam=0.0, seed=ensemble_seed)
        step_prior = GaussianPrior(mean_estimate(staged), covariance_estimate(staged))
        step_meas = LinearMeasurement(meas.H, meas.R, zs[k])
        updated = propagate_ensemble(staged, params, grid, step_prior, step_meas,
                                     noise_seed=derive_seed(ensemble_seed, 2**32 + k))
        x = np.array(updated.particles)

        kf.predict(scenario.F, scenario.W)
        kf.update(meas.H, meas.R, zs[k])

        flow_mean = mean_estimate(updated)
        flow_cov = covariance_estimate(updated)
        rmse_flow[k] = np.linalg.norm(flow_mean - truth[k]) / sqrt_n
        rmse_kalman[k] = np.linalg.norm(kf.mean - truth[k]) / sqrt_n
        cov_gap[k] = np.linalg.norm(flow_cov - kf.cov, ord="fro")

    return SequentialResult(steps=steps, rmse_flow=rmse_flow,
                            rmse_kalman=rmse_kalman, cov_gap=cov_gap)
