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
``Phi_k = T_{k-1} ... T_0``.  The maps of all steps are built in one
batched pass and scanned into the transition matrices ``Phi_k``
(``kernels._scan``); every check reads
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

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import kernels
from .errors import AdmissibilityError
from .flows import (FlowParameterization, _diffusion_spectrum, _m_stack,
                    affine_tables, exact_flow)
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
    """Error states and Lyapunov traces at every grid node.

    ``a_of``, when known, maps lam values to the stacked A matrices of the
    error dynamics, so a check can follow the trajectory between nodes.
    """

    nodes: np.ndarray
    errors: np.ndarray  # (steps + 1, n)
    v_m: np.ndarray
    v_s: np.ndarray
    a_of: Optional[Callable] = field(default=None, repr=False, compare=False)


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
    nodes and at the midpoints, and :func:`_phi` builds Phi from them.
    """
    return _phi(a_of(grid.nodes), a_of(grid.midpoints), grid)


def _phi(a_nodes, a_mids, grid: LambdaGrid) -> np.ndarray:
    """``Phi`` from the drift at the nodes and midpoints of the grid.

    Each RK4 step is the linear map ``T_k`` of ``kernels._rk4_maps``, and
    ``kernels._scan`` forms every ``Phi_k = T_{k-1} ... T_0``, testing the
    trusted range and naming the first step that leaves it.
    """
    t, _ = kernels._rk4_maps(a_nodes, a_mids, grid.dlam)
    phi, _, _, bad = kernels._scan(t)
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
    chol_inv = np.linalg.inv(np.linalg.cholesky(s_weight))
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
    return np.linalg.solve(np.linalg.cholesky(s_weight).T, (z / norms).T).T


def _trajectory_from_paths(nodes, path, s_weight, g_weight, a_of=None):
    u = path @ s_weight * path
    v_s = u.sum(axis=1)
    if g_weight is None:
        v_m = v_s.copy()
    else:
        w = path @ g_weight * path
        v_m = v_s + nodes * w.sum(axis=1)
    return ErrorTrajectory(nodes=nodes.copy(), errors=path, v_m=v_m, v_s=v_s,
                           a_of=a_of)


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
    a_of = _flow_a(params, prior, meas)
    phi = _transition(a_of, grid)
    return _trajectory_from_paths(grid.nodes, phi @ (x1_0 - x2_0), prior.precision,
                                  meas.info_matrix, a_of)


def linear_error_trajectory(xtilde0, a_fn: Callable[[float], np.ndarray],
                            grid: LambdaGrid, s_weight) -> ErrorTrajectory:
    """Error trajectory for an arbitrary linear system ``dx = A(lam) x dlam``.

    This is the hook used to exercise the definition checkers on known
    unstable dynamics; V_M is reported with the constant weight S.
    """
    xtilde0 = np.asarray(xtilde0, dtype=float)
    s_weight = np.asarray(s_weight, dtype=float)
    a_of = _system_a(a_fn)
    phi = _transition(a_of, grid)
    return _trajectory_from_paths(grid.nodes, phi @ xtilde0, s_weight, None, a_of)


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


# Bisection steps of _last_step_crossing: the crossing is located to
# 2**-50 of the step.
_CROSSING_STEPS = 50


def _last_step_crossing(traj: ErrorTrajectory, s_weight, beta: float):
    """A lam inside the last step where the S-norm crosses below beta.

    The S-norm is at or above beta at the node before the last and below
    it at the last.  Bisection keeps that bracket, evaluating the state
    at ``lam0 + h`` by one partial RK4 step of size h from the node
    before (``kernels._rk4_maps`` builds it for any h).  Returns the
    upper end of the final bracket, or None when it never moves below
    the last node.
    """
    lam0, size = traj.nodes[-2], traj.nodes[-1] - traj.nodes[-2]
    x = traj.errors[-2]
    lo, hi = 0.0, size
    for _ in range(_CROSSING_STEPS):
        mid = 0.5 * (lo + hi)
        a = traj.a_of(np.array([lam0, lam0 + mid, lam0 + 0.5 * mid]))
        t, _ = kernels._rk4_maps(a[:2], a[2:], np.array([mid]))
        y = t[0] @ x
        if y @ s_weight @ y < beta:
            hi = mid
        else:
            lo = mid
    lam = float(lam0 + hi)
    return lam if hi < size and lam < traj.nodes[-1] else None


def check_ftcs(traj: ErrorTrajectory, alpha: float, beta: float, gamma: float,
               s_weight) -> FtcsResult:
    """Contractive finite-time stability of one sampled trajectory.

    Requires ``0 < beta < alpha < gamma``.  True iff the trajectory is
    finite-time stable for (alpha, gamma) and the S-norm drops below
    beta at some lam1 < 1 and stays there through lam 1.  The returned
    lambda1 is the earliest interior node from which the bound holds.
    When it holds at lam 1 but not at the node before, the crossing lies
    inside the last step; with the trajectory's dynamics known
    (``traj.a_of``), lambda1 is that crossing, located by
    :func:`_last_step_crossing`, so the verdict does not hinge on whether
    a node falls after it.
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
    if lambda1 is None and holds[-1] and traj.a_of is not None:
        lambda1 = _last_step_crossing(traj, s_weight, beta)
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


def _rate_and_regime(params: FlowParameterization, prior: GaussianPrior,
                     meas: LinearMeasurement, grid: LambdaGrid):
    """``(sigma, regime)``: two readings of the diffusion's clamped spectrum
    on the grid nodes (``flows._psd_spectrum``)."""
    w, rank = _diffusion_spectrum(params, prior, meas, grid.nodes)
    sigma = float(w.min()) * float(np.linalg.eigvalsh(prior.precision).min())
    if not rank.any():
        return sigma, Regime.CONSTANT_V
    return sigma, Regime.EXPONENTIAL_DECAY if sigma > 0.0 else Regime.NON_INCREASING


def contraction_rate(params: FlowParameterization, prior: GaussianPrior,
                     meas: LinearMeasurement, grid: LambdaGrid) -> float:
    """Guaranteed decay rate ``sigma = min_eig(Q0) * min_eig(S)``.

    Q0 is the smallest clamped diffusion eigenvalue over the grid nodes:
    with ``s`` a matrix's largest eigenvalue magnitude, eigenvalues at or
    below ``1e-12 s`` count as zero.  So sigma is zero whenever the
    diffusion loses rank somewhere, and positive exactly when
    :func:`classify_regime` gives ExponentialDecay.  A diffusion that is
    not finite, or has an eigenvalue below ``-1e-10 s``, raises
    AdmissibilityError naming the first such lam and its margin.
    """
    return _rate_and_regime(params, prior, meas, grid)[0]


def classify_regime(params: FlowParameterization, prior: GaussianPrior,
                    meas: LinearMeasurement, grid: LambdaGrid) -> Regime:
    """Qualitative V_M behavior implied by the diffusion on the grid.

    Zero diffusion everywhere preserves V_M exactly; semidefinite
    diffusion makes it non-increasing; a diffusion of full rank at every
    node forces exponential decay.  Rank counts the eigenvalues above
    ``1e-12 s``, with ``s`` the matrix's largest eigenvalue magnitude, so
    the regime is ExponentialDecay exactly when :func:`contraction_rate`
    is positive.  A diffusion that is not finite, or has an eigenvalue
    below ``-1e-10 s``, raises AdmissibilityError naming the first such
    lam and its margin.
    """
    return _rate_and_regime(params, prior, meas, grid)[1]


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
    v_m = _node_quad(phi, _m_stack(grid.nodes, prior, meas), x0)
    return float(np.abs(v_m - 1.0).max())


def _refine(grid: LambdaGrid) -> LambdaGrid:
    nodes = np.sort(np.concatenate([grid.nodes, grid.midpoints]))
    return LambdaGrid(nodes, grid.scheme)


def _ftss_beta(alpha: float, epsilon: float) -> float:
    """``alpha / epsilon``, the smallest beta that :func:`check_ftss`'s
    ``alpha/beta <= epsilon`` admits, stepped up past rounding."""
    if not (0.0 < alpha < np.inf and 0.0 < epsilon < 1.0):
        raise ValueError(f"need alpha > 0 and 0 < epsilon < 1, got alpha={alpha}, "
                         f"epsilon={epsilon}")
    beta = alpha / epsilon
    while not alpha / beta <= epsilon:
        beta = float(np.nextafter(beta, np.inf))
    return beta


def build_stability_report(params: FlowParameterization, prior: GaussianPrior,
                           meas: LinearMeasurement, grid: LambdaGrid,
                           alpha: float = 1.0, beta: float = 2.0, gamma: float = 4.0,
                           epsilon: float = 0.25, n_mc: int = 2000,
                           n_directions: int = 8, seed: int = 0) -> StabilityReport:
    """Run all stability checks for a flow and summarize the verdicts.

    Deterministic verdicts (finite-time and contractive) are evaluated on
    ``n_directions`` boundary trajectories with ``xtilde0^T S xtilde0``
    just under alpha.  FTSS uses ``beta = alpha / epsilon``
    (:func:`_ftss_beta`), the smallest beta its check admits.  Every
    verdict is recomputed on a once-refined grid and must agree, guarding
    against sampling artifacts; disagreement raises RuntimeError.
    """
    beta_ss = _ftss_beta(alpha, epsilon)
    sigma, regime = _rate_and_regime(params, prior, meas, grid)
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
                                          meas.info_matrix, a_of)
            fts_ok &= check_fts(traj, alpha, beta, s_weight).verdict
            res = check_ftcs(traj, alpha=alpha, beta=beta_c, gamma=gamma,
                             s_weight=s_weight)
            ftcs_ok &= res.verdict
            if res.lambda1 is not None:
                lambda1 = res.lambda1 if lambda1 is None else max(lambda1, res.lambda1)
        # A lambda1 is reported only when every direction has entered.
        return bool(fts_ok), bool(ftcs_ok), lambda1 if ftcs_ok else None

    # Each grid's transition matrices serve both its deterministic
    # verdicts and its Monte Carlo check.  The refined grid's even nodes
    # are the coarse nodes and its odd nodes the coarse midpoints, so the
    # drift is evaluated once, on the refined grid.
    fine = _refine(grid)
    a_of = _flow_a(params, prior, meas)
    a_fine = a_of(fine.nodes)
    phi = _phi(np.ascontiguousarray(a_fine[::2]),
               np.ascontiguousarray(a_fine[1::2]), grid)
    phi_fine = _phi(a_fine, a_of(fine.midpoints), fine)
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
        sigma=sigma,
        regime=regime,
    )
