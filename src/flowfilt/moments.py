"""Ensemble-free propagation of mean and covariance, plus exact oracles.

For affine flows the first two moments obey linear ODEs in lam:
``dxbar = A xbar + b`` and ``dP = A P + P A^T + Q``.  Both are the prior
pushed through the flow's affine transition: ``m_k = Phi_k m_0 + d_k``
and ``P_k = Phi_k P_0 Phi_k^T + Sigma_k``, whose per-step elements
compose associatively, so one log-depth scan gives every node.  The
solutions must agree with the closed-form Gaussian posterior
interpolation for every admissible schedule K, which is the backbone of
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DivergenceError
from .flows import FlowParameterization, affine_tables
from .grid import LambdaGrid
from .model import GaussianPrior, LinearMeasurement, _check_lambda, _check_model


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
    Both are linear solves against the posterior information ``J(lam)``,
    the matrix inverted above: ``J m = P_g^{-1} x_prior + lam H^T R^{-1} z``
    and ``J P = I``.
    """
    lam = _check_lambda(lam)
    _check_model(prior, meas)
    if lam == 0.0:
        return prior.x_prior.copy(), prior.P_g.copy()
    j = prior.precision + lam * meas.info_matrix
    rhs = np.linalg.solve(prior.P_g, prior.x_prior) + lam * meas.info_vector
    mean = np.linalg.solve(j, rhs)
    cov = np.linalg.solve(j, np.eye(prior.n))
    return mean, 0.5 * (cov + cov.T)


def lmv_estimate(prior: GaussianPrior, meas: LinearMeasurement) -> np.ndarray:
    """Linear minimum-variance estimate given the measurement.

    ``x_prior + P_g H^T (H P_g H^T + R)^{-1} (z - H x_prior)``; for this
    model it coincides with the posterior mean at lam 1.
    """
    _check_model(prior, meas)
    h = meas.H
    innov = meas.z - h @ prior.x_prior
    gram = h @ prior.P_g @ h.T + meas.R
    gain = prior.P_g @ h.T
    return prior.x_prior + gain @ np.linalg.solve(gram, innov)


def solve_moment_odes(params: FlowParameterization, grid: LambdaGrid,
                      prior: GaussianPrior, meas: LinearMeasurement) -> MomentPath:
    """Integrate the moment ODEs with the classic fourth-order scheme.

    The grid supplies the nodes only; moments always use the
    deterministic scheme regardless of ``grid.scheme``.  Step k of the
    mean's ODE is the RK4 map ``m -> T_k m + c_k``
    (``kernels._rk4_maps``), and of the covariance's ``P -> T_k P T_k^T +
    S_k``, with ``S_k`` the RK4 step of ``dS = (A S + S A^T + Q) dlam``
    from ``S = 0`` (``kernels._rk4_noise``).  One scan of the elements
    ``(T_k, c_k, S_k)`` (``kernels._scan``) gives every prefix
    ``(Phi_k, d_k, Sigma_k)``, so the prior pushed through it is
    ``m_k = Phi_k m_0 + d_k`` and ``P_k = Phi_k P_0 Phi_k^T + Sigma_k``,
    which is symmetrised here, once.

    Raises DivergenceError at the first step whose moments are not
    finite.
    """
    nodes = grid.nodes
    a_nodes, b_nodes, q_nodes = affine_tables(params, prior, meas, nodes)
    a_mids, b_mids, q_mids = affine_tables(params, prior, meas, grid.midpoints)
    finite = np.finfo(float).max

    t, c = kernels._rk4_maps(a_nodes, a_mids, grid.dlam, b_nodes, b_mids)
    s = kernels._rk4_noise(a_nodes, a_mids, grid.dlam, q_nodes, q_mids)
    phi, d, sigma, _ = kernels._scan(t, c, s, finite)
    with np.errstate(over="ignore", invalid="ignore"):
        means = phi @ prior.x_prior + d
        covs = phi @ prior.P_g @ np.swapaxes(phi, 1, 2) + sigma
        covs = 0.5 * covs + 0.5 * np.swapaxes(covs, 1, 2)
    # P grows as Phi squared, so the moments can leave the range before
    # the scanned prefixes do: the range test reads the moments.
    code, row = kernels._first_bad(kernels._rows([means, covs]), finite)
    if code:
        k = row - 1
        raise DivergenceError(
            f"moment propagation diverged at step {k} (lam {nodes[k + 1]:.6g})",
            step=k, lam=nodes[k + 1])
    return MomentPath(nodes=nodes.copy(), means=means, covariances=covs)
