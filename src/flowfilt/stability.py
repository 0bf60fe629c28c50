"""Finite-time stability diagnostics for the error dynamics of a flow.

Two particles driven by the same noise differ by an error obeying the
deterministic ODE ``dxtilde = A(lam) xtilde dlam``: the diffusion term
cancels.  The natural Lyapunov weights are ``S`` (the prior precision)
and ``M(lam) = S + lam H^T R^{-1} H``; along admissible flows
``V_M = xtilde^T M xtilde`` never increases and decays exponentially at
rate ``sigma = min_eig(Q0) * min_eig(S)`` whenever the diffusion is
uniformly positive definite.

The ODE is linear with no offset, so one RK4 step is a linear map
``T_k`` and the RK4 solution is ``xtilde_k = Phi_k xtilde_0`` with
``Phi_{k+1} = T_k Phi_k``.  The maps of all steps are built in one batched
pass and chained into the transition matrices ``Phi_k``; every check reads
trajectories and Lyapunov traces (``xtilde_0^T Phi_k^T W Phi_k xtilde_0``)
off them.  The trusted-range check therefore applies to Phi, not to each
trajectory, whatever the size of the initial errors.

The Monte Carlo FTSS check counts the initial errors whose S-norm stays
at or below beta.  Since ``x^T Phi_k^T S Phi_k x <= rho x^T S x`` with
``rho`` the largest squared S-norm gain of the ``Phi_k`` (1 along an
admissible flow, where ``V_S <= V_M`` never increases, up to the RK4
error), a point with ``rho x0^T S x0`` clearly below beta is counted
without forming its node forms; only the rest are formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_triangular

from . import kernels
from .errors import AdmissibilityError
from .flows import FlowParameterization, affine_tables, exact_flow
from .grid import LambdaGrid
from .integrate import ELLIPSOID_STREAM, FTSS_STREAM, make_generator
from .model import GaussianPrior, HomotopyDerivatives, LinearMeasurement


class Regime(Enum):
    """Qualitative behavior of V_M along the flow."""

    CONSTANT_V = "ConstantV"
    NON_INCREASING = "NonIncreasing"
    EXPONENTIAL_DECAY = "ExponentialDecay"


@dataclass(frozen=True)
class ErrorTrajectory:
    """Error states and Lyapunov traces at every grid node."""

    nodes: np.ndarray
    errors: np.ndarray  # (steps + 1, n)
    v_m: np.ndarray
    v_s: np.ndarray


@dataclass(frozen=True)
class FtsResult:
    verdict: bool
    alpha: float
    beta: float


@dataclass(frozen=True)
class FtcsResult:
    verdict: bool
    alpha: float
    beta: float
    gamma: float
    lambda1: Optional[float]


@dataclass(frozen=True)
class FtssResult:
    verdict: bool
    alpha: float
    beta: float
    epsilon: float
    n_mc: int
    empirical_prob: float
    threshold: float


@dataclass(frozen=True)
class StabilityReport:
    fts: FtsResult
    ftcs: FtcsResult
    ftss: FtssResult
    sigma: float
    regime: Regime

    def to_dict(self) -> dict:
        return {
            "fts": {"verdict": self.fts.verdict, "alpha": self.fts.alpha,
                    "beta": self.fts.beta},
            "ftcs": {"verdict": self.ftcs.verdict, "alpha": self.ftcs.alpha,
                     "beta": self.ftcs.beta, "gamma": self.ftcs.gamma,
                     "lambda1": self.ftcs.lambda1},
            "ftss": {"verdict": self.ftss.verdict, "alpha": self.ftss.alpha,
                     "beta": self.ftss.beta, "epsilon": self.ftss.epsilon,
                     "n_mc": self.ftss.n_mc,
                     "empirical_prob": self.ftss.empirical_prob,
                     "threshold": self.ftss.threshold},
            "sigma": self.sigma,
            "regime": self.regime.value,
        }


def _flow_a(params, prior, meas):
    """``lams -> A`` stack of a flow's drift: its error ODE."""
    return lambda lams: affine_tables(params, prior, meas, lams, want_q=False)[0]


def _system_a(a_fn: Callable[[float], np.ndarray]):
    """``lams -> A`` stack of a hand-supplied system ``dx = A(lam) x dlam``."""
    return lambda lams: np.stack([np.asarray(a_fn(float(l)), dtype=float) for l in lams])


def _transition(a_of, grid: LambdaGrid) -> np.ndarray:
    """RK4 transition matrices ``Phi`` of ``dx = A(lam) x dlam``, (steps+1, n, n).

    ``a_of`` maps lam values to stacked A matrices; it is evaluated at the
    nodes and at the midpoints.  Each RK4 step is the linear map ``T_k``
    of ``kernels._rk4_maps``, and ``kernels._chain`` forms
    ``Phi[k+1] = T_k Phi[k]`` from ``Phi[0] = I``, testing the trusted
    range per block of steps and naming the first step that leaves it.
    """
    t, _ = kernels._rk4_maps(a_of(grid.nodes), a_of(grid.midpoints), grid.dlam)
    phi, bad = kernels._chain(t, np.eye(t.shape[1]))
    if bad >= 0:
        lam = grid.nodes[bad + 1]
        raise AdmissibilityError(
            f"error dynamics left the trusted range at step {bad}, lam {lam:.6g}",
            lam=lam)
    return phi


def _node_quad(phi: np.ndarray, weight: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """``x0_p^T (Phi_k^T W_k Phi_k) x0_p`` for every (point, node); W may be
    one matrix or one per node."""
    forms = np.swapaxes(phi, 1, 2) @ weight @ phi
    outer = x0[:, :, None] * x0[:, None, :]
    # einsum without optimization never calls BLAS, so it stays deterministic
    # and each point's row does not depend on the other points.
    return np.einsum("pij,kij->pk", outer, forms, optimize=False)


# Relative margin below beta that the Lyapunov screen of _count_bounded
# keeps.  Rounding moves a node form from its bound by a few ulps times the
# conditioning of S, many orders of magnitude less.
SCREEN_SLACK = 1e-6


def _s_gain(phi: np.ndarray, s_weight: np.ndarray) -> float:
    """``rho = max_k lambda_max(S^-1 Phi_k^T S Phi_k)``, the largest squared
    S-norm gain of the transition matrices."""
    chol_inv = solve_triangular(np.linalg.cholesky(s_weight),
                                np.eye(s_weight.shape[0]), lower=True)
    # With S = L L^T, L^-1 Phi_k^T S Phi_k L^-T is symmetric and similar to
    # S^-1 Phi_k^T S Phi_k.
    gram = chol_inv @ np.swapaxes(phi, 1, 2) @ s_weight @ phi @ chol_inv.T
    return float(np.linalg.eigvalsh(gram)[:, -1].max())


def _count_bounded(phi: np.ndarray, s_weight: np.ndarray, x0: np.ndarray,
                   beta: float) -> int:
    """How many points keep ``x0^T Phi_k^T S Phi_k x0 <= beta`` at every node.

    Equal to counting over :func:`_node_quad`, which forms every (point,
    node) value, but a point with ``rho x0^T S x0`` below beta by
    ``SCREEN_SLACK`` is counted unformed.  Nothing is screened when rho
    is not finite.
    """
    rho = _s_gain(phi, s_weight)
    if np.isfinite(rho):
        s0 = np.einsum("pi,ij,pj->p", x0, s_weight, x0)
        safe = rho * s0 < (1.0 - SCREEN_SLACK) * beta
    else:
        safe = np.zeros(x0.shape[0], dtype=bool)
    v = _node_quad(phi, s_weight, x0[~safe])
    return int(np.count_nonzero(safe) + np.count_nonzero(np.all(v <= beta, axis=1)))


def _ellipsoid_points(count: int, s_weight: np.ndarray, seed: int) -> np.ndarray:
    """``count`` points on the ellipsoid ``x^T S x = 1``, one per row."""
    gen = make_generator(seed, ELLIPSOID_STREAM)
    z = gen.standard_normal((count, s_weight.shape[0]))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("degenerate direction draw")
    chol_s = np.linalg.cholesky(s_weight)
    return solve_triangular(chol_s.T, (z / norms).T, lower=False).T


def _trajectory_from_paths(nodes, path, s_weight, g_weight):
    u = path @ s_weight * path
    v_s = u.sum(axis=1)
    if g_weight is None:
        v_m = v_s.copy()
    else:
        w = path @ g_weight * path
        v_m = v_s + nodes * w.sum(axis=1)
    return ErrorTrajectory(nodes=nodes.copy(), errors=path, v_m=v_m, v_s=v_s)


def error_trajectory(x1_0, x2_0, params: FlowParameterization, grid: LambdaGrid,
                     prior: GaussianPrior, meas: LinearMeasurement) -> ErrorTrajectory:
    """Propagate the difference of two flow solutions through the error ODE.

    Args:
        x1_0, x2_0: the two initial states whose difference is tracked.
        params: flow parameterization (only its drift matters here).
        grid: pseudo-time grid; the solve always uses the deterministic
            fourth-order scheme.
        prior, meas: the model.

    Returns:
        ErrorTrajectory with V_M and V_S recorded at every node.
    """
    x1_0 = np.asarray(x1_0, dtype=float)
    x2_0 = np.asarray(x2_0, dtype=float)
    if x1_0.shape != (prior.n,) or x2_0.shape != (prior.n,):
        raise ValueError(f"initial states must have shape {(prior.n,)}")
    phi = _transition(_flow_a(params, prior, meas), grid)
    return _trajectory_from_paths(grid.nodes, phi @ (x1_0 - x2_0), prior.precision,
                                  meas.info_matrix)


def linear_error_trajectory(xtilde0, a_fn: Callable[[float], np.ndarray],
                            grid: LambdaGrid, s_weight) -> ErrorTrajectory:
    """Error trajectory for an arbitrary linear system ``dx = A(lam) x dlam``.

    This is the hook used to exercise the definition checkers on known
    unstable dynamics; V_M is reported with the constant weight S.
    """
    xtilde0 = np.asarray(xtilde0, dtype=float)
    s_weight = np.asarray(s_weight, dtype=float)
    phi = _transition(_system_a(a_fn), grid)
    return _trajectory_from_paths(grid.nodes, phi @ xtilde0, s_weight, None)


def lyapunov_derivative(xtilde, lam, Q, derivs: HomotopyDerivatives) -> float:
    """Exact dV_M/dlam along the flow: ``-(M xtilde)^T Q (M xtilde)``."""
    xtilde = np.asarray(xtilde, dtype=float)
    v = derivs.M @ xtilde
    return -float(v @ np.asarray(Q, dtype=float) @ v)


def _check_fts_params(alpha: float, beta: float) -> None:
    if not 0.0 < alpha < beta:
        raise ValueError(f"need 0 < alpha < beta, got alpha={alpha}, beta={beta}")


def check_fts(traj: ErrorTrajectory, alpha: float, beta: float, s_weight) -> FtsResult:
    """Finite-time stability of one sampled trajectory.

    True iff ``xtilde0^T S xtilde0 < alpha`` implies
    ``xtilde^T S xtilde < beta`` at every node (vacuously true when the
    premise fails).  Requires ``0 < alpha < beta``.
    """
    alpha, beta = float(alpha), float(beta)
    _check_fts_params(alpha, beta)
    s_weight = np.asarray(s_weight, dtype=float)
    v = np.einsum("ki,ij,kj->k", traj.errors, s_weight, traj.errors)
    verdict = bool(v[0] >= alpha or np.all(v < beta))
    return FtsResult(verdict=verdict, alpha=alpha, beta=beta)


def check_ftcs(traj: ErrorTrajectory, alpha: float, beta: float, gamma: float,
               s_weight) -> FtcsResult:
    """Contractive finite-time stability of one sampled trajectory.

    Requires ``0 < beta < alpha < gamma``.  True iff the trajectory is
    finite-time stable for (alpha, gamma) and the S-norm drops below
    beta at some interior node and stays there through lam 1.  The
    returned lambda1 is the earliest such node.
    """
    alpha, beta, gamma = float(alpha), float(beta), float(gamma)
    if not 0.0 < beta < alpha < gamma:
        raise ValueError(
            f"need 0 < beta < alpha < gamma, got beta={beta}, alpha={alpha}, gamma={gamma}"
        )
    s_weight = np.asarray(s_weight, dtype=float)
    v = np.einsum("ki,ij,kj->k", traj.errors, s_weight, traj.errors)
    if v[0] >= alpha:
        return FtcsResult(verdict=True, alpha=alpha, beta=beta, gamma=gamma,
                          lambda1=None)
    if not np.all(v < gamma):
        return FtcsResult(verdict=False, alpha=alpha, beta=beta, gamma=gamma,
                          lambda1=None)
    # holds[j]: the bound holds from node j through lam 1.  lambda1 is the
    # earliest interior such node.
    holds = np.logical_and.accumulate((v < beta)[::-1])[::-1]
    entry = np.flatnonzero(holds[1:-1])
    lambda1 = float(traj.nodes[entry[0] + 1]) if entry.size else None
    return FtcsResult(verdict=lambda1 is not None, alpha=alpha, beta=beta,
                      gamma=gamma, lambda1=lambda1)


def check_ftss(params: Optional[FlowParameterization], prior: GaussianPrior,
               meas: LinearMeasurement, grid: LambdaGrid, alpha: float,
               beta: float, epsilon: float, n_mc: int, seed: int,
               system_a_fn: Optional[Callable[[float], np.ndarray]] = None,
               *, phi: Optional[np.ndarray] = None) -> FtssResult:
    """Monte Carlo check of finite-time stochastic stability.

    Draws ``n_mc`` initial errors as scaled differences of prior samples
    with ``E[xtilde0^T S xtilde0] = alpha`` exactly, propagates each
    through the error ODE and measures the fraction whose S-norm stays
    at or below beta on the whole grid.  The verdict compares that
    fraction against ``1 - epsilon`` minus a three-sigma binomial margin.

    When ``system_a_fn`` is given the error dynamics come from that
    linear system instead of the flow (params may then be None), which
    lets the checker run against known unstable dynamics.  ``phi``, when
    given, is the dynamics' transition matrices on ``grid`` (as built by
    ``_transition``), reused instead of being built again.

    Requires ``alpha < beta``, ``alpha/beta <= epsilon < 1`` and
    ``n_mc >= 100``.
    """
    alpha, beta, epsilon = float(alpha), float(beta), float(epsilon)
    n_mc = int(n_mc)
    _check_fts_params(alpha, beta)
    if not alpha / beta <= epsilon < 1.0:
        raise ValueError(
            f"need alpha/beta <= epsilon < 1, got epsilon={epsilon}, "
            f"alpha/beta={alpha / beta}"
        )
    if n_mc < 100:
        raise ValueError(f"n_mc must be at least 100, got {n_mc}")
    if params is None and system_a_fn is None:
        raise ValueError("params is required unless system_a_fn is given")
    s_weight = prior.precision
    # Difference of two prior draws has covariance 2 P_g, so the expected
    # S-norm is tr(S * 2 P_g) = 2n; rescale to hit alpha exactly.
    tau = 2.0 * float(np.trace(s_weight @ prior.P_g))
    scale = np.sqrt(alpha / tau)
    gen = make_generator(seed, FTSS_STREAM)
    z = gen.standard_normal((n_mc, prior.n)) - gen.standard_normal((n_mc, prior.n))
    x0 = scale * (z @ prior.chol.T)

    if phi is None:
        a_of = _flow_a(params, prior, meas) if system_a_fn is None else _system_a(system_a_fn)
        phi = _transition(a_of, grid)
    empirical = _count_bounded(phi, s_weight, x0, beta) / n_mc
    margin = 3.0 * np.sqrt(epsilon * (1.0 - epsilon) / n_mc)
    threshold = (1.0 - epsilon) - margin
    return FtssResult(verdict=bool(empirical >= threshold), alpha=alpha,
                      beta=beta, epsilon=epsilon, n_mc=n_mc,
                      empirical_prob=float(empirical), threshold=float(threshold))


def contraction_rate(params: FlowParameterization, prior: GaussianPrior,
                     meas: LinearMeasurement, grid: LambdaGrid) -> float:
    """Guaranteed decay rate ``sigma = min_eig(Q0) * min_eig(S)``.

    Q0 is inferred as the smallest diffusion eigenvalue over the grid
    nodes, clipped at zero; sigma is zero whenever the diffusion loses
    rank somewhere.
    """
    qs = params.q_stack(grid.nodes, prior, meas)
    w = np.linalg.eigvalsh(0.5 * (qs + np.swapaxes(qs, 1, 2)))
    q_floor = max(float(w.min()), 0.0)
    s_min = float(np.linalg.eigvalsh(prior.precision).min())
    return q_floor * s_min


def classify_regime(params: FlowParameterization, prior: GaussianPrior,
                    meas: LinearMeasurement, grid: LambdaGrid) -> Regime:
    """Qualitative V_M behavior implied by the diffusion on the grid.

    Zero diffusion everywhere preserves V_M exactly; semidefinite
    diffusion makes it non-increasing; uniformly positive definite
    diffusion forces exponential decay.  An indefinite diffusion raises
    AdmissibilityError.
    """
    qs = params.q_stack(grid.nodes, prior, meas)
    scale = float(np.abs(qs).max())
    if scale == 0.0:
        return Regime.CONSTANT_V
    w = np.linalg.eigvalsh(0.5 * (qs + np.swapaxes(qs, 1, 2)))
    min_eig = float(w.min())
    if min_eig < -1e-10 * scale:
        raise AdmissibilityError(
            f"diffusion is indefinite on the grid (min eigenvalue {min_eig:.3e})"
        )
    if min_eig <= 1e-12 * scale:
        return Regime.NON_INCREASING
    return Regime.EXPONENTIAL_DECAY


def ellipsoid_invariance_check(prior: GaussianPrior, meas: LinearMeasurement,
                               grid: LambdaGrid, n_particles: int,
                               seed: int) -> float:
    """Max relative drift of V_M along the zero-diffusion flow.

    Places ``n_particles`` error vectors on the ellipsoid
    ``xtilde^T S xtilde = 1``, propagates them with the deterministic
    flow and returns ``max |V_M - 1|`` over all particles and nodes.
    The exact flow keeps V_M constant, so small values certify the
    integrator as much as the flow.
    """
    n_particles = int(n_particles)
    if n_particles < 0:
        raise ValueError(f"n_particles must be >= 0, got {n_particles}")
    if n_particles == 0:
        return 0.0
    x0 = _ellipsoid_points(n_particles, prior.precision, seed)
    phi = _transition(_flow_a(exact_flow(), prior, meas), grid)
    m_stack = prior.precision + grid.nodes[:, None, None] * meas.info_matrix
    v_m = _node_quad(phi, m_stack, x0)
    return float(np.abs(v_m - 1.0).max())


def _refine(grid: LambdaGrid) -> LambdaGrid:
    nodes = np.sort(np.concatenate([grid.nodes, grid.midpoints]))
    return LambdaGrid(nodes, grid.scheme)


def build_stability_report(params: FlowParameterization, prior: GaussianPrior,
                           meas: LinearMeasurement, grid: LambdaGrid,
                           alpha: float = 1.0, beta: float = 2.0,
                           gamma: float = 4.0, beta_ss: float = 4.0,
                           epsilon: float = 0.25, n_mc: int = 2000,
                           n_directions: int = 8, seed: int = 0) -> StabilityReport:
    """Run all stability checks for a flow and summarize the verdicts.

    Deterministic verdicts (finite-time and contractive) are evaluated on
    ``n_directions`` boundary trajectories with ``xtilde0^T S xtilde0``
    just under alpha.  Every verdict is recomputed on a once-refined grid
    and must agree, guarding against sampling artifacts; disagreement
    raises RuntimeError.
    """
    sigma = contraction_rate(params, prior, meas, grid)
    regime = classify_regime(params, prior, meas, grid)
    if sigma > 0.0:
        beta_c = alpha * 0.5 * (np.exp(-sigma) + 1.0)
    else:
        beta_c = 0.75 * alpha
    s_weight = prior.precision
    x0 = _ellipsoid_points(n_directions, s_weight, seed) * np.sqrt(0.999 * alpha)

    def deterministic_verdicts(g: LambdaGrid, phi: np.ndarray):
        paths = np.einsum("kij,pj->pki", phi, x0)
        fts_ok = True
        ftcs_ok = True
        lambda1 = None
        for p in range(paths.shape[0]):
            traj = _trajectory_from_paths(g.nodes, paths[p], s_weight,
                                          meas.info_matrix)
            fts_ok &= check_fts(traj, alpha, beta, s_weight).verdict
            res = check_ftcs(traj, alpha=alpha, beta=beta_c, gamma=gamma,
                             s_weight=s_weight)
            ftcs_ok &= res.verdict
            if res.lambda1 is not None:
                lambda1 = res.lambda1 if lambda1 is None else max(lambda1, res.lambda1)
        # A lambda1 is reported only when every direction has entered.
        return bool(fts_ok), bool(ftcs_ok), lambda1 if ftcs_ok else None

    # Each grid's transition matrices serve both its deterministic
    # verdicts and its Monte Carlo check.
    fine = _refine(grid)
    a_of = _flow_a(params, prior, meas)
    phi, phi_fine = _transition(a_of, grid), _transition(a_of, fine)
    fts_ok, ftcs_ok, lambda1 = deterministic_verdicts(grid, phi)
    fts_ok2, ftcs_ok2, lambda1_fine = deterministic_verdicts(fine, phi_fine)
    ftss = check_ftss(params, prior, meas, grid, alpha, beta_ss, epsilon,
                      n_mc, seed, phi=phi)
    ftss2 = check_ftss(params, prior, meas, fine, alpha, beta_ss,
                       epsilon, n_mc, seed, phi=phi_fine)
    coarse = {"fts": fts_ok, "ftcs": ftcs_ok, "ftss": ftss.verdict}
    refined = {"fts": fts_ok2, "ftcs": ftcs_ok2, "ftss": ftss2.verdict}
    if coarse != refined:
        changed = ", ".join(f"{name} {coarse[name]} -> {refined[name]}"
                            for name in coarse if coarse[name] != refined[name])
        raise RuntimeError(
            f"stability verdicts changed under grid refinement ({changed}; "
            f"coarse -> refined: ftcs lambda1 {lambda1} -> {lambda1_fine}, "
            f"ftss empirical_prob {ftss.empirical_prob} -> {ftss2.empirical_prob}); "
            "use a finer grid"
        )
    return StabilityReport(
        fts=FtsResult(verdict=fts_ok, alpha=alpha, beta=beta),
        ftcs=FtcsResult(verdict=ftcs_ok, alpha=alpha, beta=beta_c,
                        gamma=gamma, lambda1=lambda1),
        ftss=ftss,
        sigma=float(sigma),
        regime=regime,
    )
