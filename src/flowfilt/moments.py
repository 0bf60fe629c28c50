"""Ensemble-free propagation of mean and covariance, plus exact oracles.

For affine flows the first two moments obey linear ODEs in lam:
``dxbar = A xbar + b`` and ``dP = A P + P A^T + Q``.  Their solutions
must agree with the closed-form Gaussian posterior interpolation for
every admissible schedule K, which is the backbone of the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DivergenceError
from .flows import FlowParameterization, affine_tables
from .grid import LambdaGrid
from .model import GaussianPrior, LinearMeasurement, _check_lambda


@dataclass(frozen=True)
class MomentPath:
    """Mean and covariance at every grid node."""

    nodes: np.ndarray
    means: np.ndarray        # (steps + 1, n)
    covariances: np.ndarray  # (steps + 1, n, n)

    @property
    def terminal_mean(self) -> np.ndarray:
        return self.means[-1]

    @property
    def terminal_covariance(self) -> np.ndarray:
        return self.covariances[-1]


def closed_form_posterior(lam, prior: GaussianPrior,
                          meas: LinearMeasurement) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean and covariance of the homotopy density at lam.

    ``P(lam) = (P_g^{-1} + lam H^T R^{-1} H)^{-1}`` and the mean is the
    matching precision-weighted combination of prior mean and data.
    Solved via Cholesky factorization, never by explicit inversion.
    """
    lam = _check_lambda(lam)
    if lam == 0.0:
        return prior.x_prior.copy(), prior.P_g.copy()
    j = prior.precision + lam * meas.info_matrix
    j_fac = cho_factor(j, lower=True)
    rhs = cho_solve((prior.chol, True), prior.x_prior) + lam * meas.info_vector
    mean = cho_solve(j_fac, rhs)
    cov = cho_solve(j_fac, np.eye(prior.n))
    return mean, 0.5 * (cov + cov.T)


def lmv_estimate(prior: GaussianPrior, meas: LinearMeasurement) -> np.ndarray:
    """Linear minimum-variance estimate given the measurement.

    ``x_prior + P_g H^T (H P_g H^T + R)^{-1} (z - H x_prior)``; for this
    model it coincides with the posterior mean at lam 1.
    """
    h = meas.H
    innov = meas.z - h @ prior.x_prior
    gram = h @ prior.P_g @ h.T + meas.R
    gain = prior.P_g @ h.T
    return prior.x_prior + gain @ np.linalg.solve(gram, innov)


def solve_moment_odes(params: FlowParameterization, grid: LambdaGrid,
                      prior: GaussianPrior, meas: LinearMeasurement) -> MomentPath:
    """Integrate the moment ODEs with the classic fourth-order scheme.

    The grid supplies the nodes only; moments always use the
    deterministic scheme regardless of ``grid.scheme``.  The covariance
    is re-symmetrized after every step.

    Raises DivergenceError if the moments leave the trusted range.
    """
    nodes = grid.nodes
    a_nodes, b_nodes, q_nodes = affine_tables(params, prior, meas, nodes)
    a_mids, b_mids, q_mids = affine_tables(params, prior, meas, grid.midpoints)

    n = prior.n
    steps = grid.steps
    means = np.empty((steps + 1, n))
    covs = np.empty((steps + 1, n, n))
    means[0] = prior.x_prior
    covs[0] = prior.P_g

    def rhs(a, b, q, mean, cov):
        dmean = a @ mean + b
        dcov = a @ cov + cov @ a.T + q
        return dmean, dcov

    mean = means[0].copy()
    cov = covs[0].copy()
    dlam = grid.dlam
    for k in range(steps):
        h = dlam[k]
        am, bm, qm = a_mids[k], b_mids[k], q_mids[k]
        d1m, d1c = rhs(a_nodes[k], b_nodes[k], q_nodes[k], mean, cov)
        d2m, d2c = rhs(am, bm, qm, mean + 0.5 * h * d1m, cov + 0.5 * h * d1c)
        d3m, d3c = rhs(am, bm, qm, mean + 0.5 * h * d2m, cov + 0.5 * h * d2c)
        d4m, d4c = rhs(a_nodes[k + 1], b_nodes[k + 1], q_nodes[k + 1],
                       mean + h * d3m, cov + h * d3c)
        mean = mean + (h / 6.0) * (d1m + 2.0 * d2m + 2.0 * d3m + d4m)
        cov = cov + (h / 6.0) * (d1c + 2.0 * d2c + 2.0 * d3c + d4c)
        cov = 0.5 * (cov + cov.T)
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise DivergenceError(
                f"moment propagation diverged at step {k} (lam {nodes[k + 1]:.6g})",
                step=k, lam=nodes[k + 1])
        means[k + 1] = mean
        covs[k + 1] = cov
    return MomentPath(nodes=nodes.copy(), means=means, covariances=covs)
