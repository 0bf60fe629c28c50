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


def _lyapunov_vech(a: np.ndarray) -> np.ndarray:
    """``L(A)`` with ``vech(A P + P A^T) = L(A) vech(P)``, for a stack of A.

    vech lists the upper triangle row by row (``np.triu_indices``).  Entry
    (i, j) of ``A P + P A^T`` is ``sum_k A[i,k] P[k,j] + A[j,k] P[k,i]``,
    so row (i, j) of L takes ``A[i,k]`` at the column of ``P[k,j]`` and
    ``A[j,k]`` at the column of ``P[k,i]``; both land on one column when
    i == j.  Returns (L, p, p) with p = n(n+1)/2.
    """
    n = a.shape[1]
    iu, ju = np.triu_indices(n)
    col = np.empty((n, n), dtype=np.intp)
    col[iu, ju] = col[ju, iu] = np.arange(iu.size)
    rows = np.arange(iu.size)[:, None]
    op = np.zeros((a.shape[0], iu.size, iu.size))
    op[:, rows, col[ju]] += a[:, iu]
    op[:, rows, col[iu]] += a[:, ju]
    return op


def solve_moment_odes(params: FlowParameterization, grid: LambdaGrid,
                      prior: GaussianPrior, meas: LinearMeasurement) -> MomentPath:
    """Integrate the moment ODEs with the classic fourth-order scheme.

    The grid supplies the nodes only; moments always use the
    deterministic scheme regardless of ``grid.scheme``.  Both moment ODEs
    are affine: the mean's, and ``d vech(P) = L(A) vech(P) + vech(Q)``
    for the covariance (see :func:`_lyapunov_vech`).  Each is stepped as
    its own chain of RK4 maps (``kernels._rk4_maps``, ``kernels._chain``),
    and every covariance is rebuilt from its vech, so it is exactly
    symmetric.

    Raises DivergenceError at the first step whose moments are not
    finite.
    """
    nodes = grid.nodes
    a_nodes, b_nodes, q_nodes = affine_tables(params, prior, meas, nodes)
    a_mids, b_mids, q_mids = affine_tables(params, prior, meas, grid.midpoints)
    iu = np.triu_indices(prior.n)
    finite = np.finfo(float).max

    t, c = kernels._rk4_maps(a_nodes, a_mids, grid.dlam, b_nodes, b_mids)
    means, bad_mean = kernels._chain(t, prior.x_prior, c, finite)
    t, c = kernels._rk4_maps(_lyapunov_vech(a_nodes), _lyapunov_vech(a_mids),
                             grid.dlam, q_nodes[:, iu[0], iu[1]],
                             q_mids[:, iu[0], iu[1]])
    vechs, bad_cov = kernels._chain(t, prior.P_g[iu], c, finite)
    if max(bad_mean, bad_cov) >= 0:
        k = min(bad for bad in (bad_mean, bad_cov) if bad >= 0)
        raise DivergenceError(
            f"moment propagation diverged at step {k} (lam {nodes[k + 1]:.6g})",
            step=k, lam=nodes[k + 1])
    covs = np.empty((grid.steps + 1, prior.n, prior.n))
    covs[:, iu[0], iu[1]] = vechs
    covs[:, iu[1], iu[0]] = vechs
    return MomentPath(nodes=nodes.copy(), means=means, covariances=covs)
