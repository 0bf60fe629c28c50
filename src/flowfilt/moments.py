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

from . import kernels
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
    deterministic scheme regardless of ``grid.scheme``.  The mean ODE is
    affine, so each RK4 step is the map ``xbar -> T_k xbar + c_k``, built
    for every step in one batched pass (``kernels._rk4_maps``).  The
    covariance takes the four RK4 stages directly; each stage evaluates
    ``A P + P A^T`` as ``X + X^T`` with ``X = A P``, so every stage input,
    and every covariance, is exactly symmetric.

    Raises DivergenceError at the first step whose moments leave the
    trusted range.
    """
    nodes = grid.nodes
    a_nodes, b_nodes, q_nodes = affine_tables(params, prior, meas, nodes)
    a_mids, b_mids, q_mids = affine_tables(params, prior, meas, grid.midpoints)
    dlam = grid.dlam
    t, c = kernels._rk4_maps(a_nodes, a_mids, dlam, b_nodes, b_mids)

    n = prior.n
    steps = grid.steps
    means = np.empty((steps + 1, n))
    covs = np.empty((steps + 1, n, n))
    means[0] = prior.x_prior
    covs[0] = prior.P_g

    mean, cov = means[0], covs[0]
    # Step sizes as Python floats and the stacks as per-step views, made
    # once: indexing inside the loop costs more than the 4x4 arithmetic.
    hs = dlam.tolist()
    halves = (0.5 * dlam).tolist()
    sixths = (dlam / 6.0).tolist()
    for k, (t_k, c_k, a0, q0, am, qm, a1, q1) in enumerate(zip(
            t, c, a_nodes, q_nodes, a_mids, q_mids, a_nodes[1:], q_nodes[1:])):
        mean = t_k @ mean + c_k
        x = a0 @ cov
        d1 = x + x.T + q0
        x = am @ (cov + halves[k] * d1)
        d2 = x + x.T + qm
        x = am @ (cov + halves[k] * d2)
        d3 = x + x.T + qm
        x = a1 @ (cov + hs[k] * d3)
        d4 = x + x.T + q1
        cov = cov + sixths[k] * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise DivergenceError(
                f"moment propagation diverged at step {k} (lam {nodes[k + 1]:.6g})",
                step=k, lam=nodes[k + 1])
        means[k + 1] = mean
        covs[k + 1] = cov
    return MomentPath(nodes=nodes.copy(), means=means, covariances=covs)
