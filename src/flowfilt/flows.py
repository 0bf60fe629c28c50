"""Parameterized family of particle flows for the homotopy update.

A flow moves particles in pseudo-time lam so that their density tracks
the homotopy between prior and posterior.  For linear-Gaussian models
every member of the family has an affine drift ``f(x, lam) = A x + b``
and a state-independent diffusion ``Q(lam)``, and the whole family is
indexed by a matrix-valued schedule ``K(lam)``.  Different K give
different particle trajectories but identical marginal densities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import AdmissibilityError
from .model import GaussianPrior, HomotopyDerivatives, LinearMeasurement, _check_lambda

# Eigenvalues of the admissibility test matrix below -tol * norm mean the
# requested K has no valid diffusion; slightly negative values are noise.
_ADMISSIBILITY_TOL = 1e-10
# Hard failure threshold for a requested diffusion matrix.
_INDEFINITE_TOL = 1e-8
# Number of lam nodes used to vet a parameterization at construction.
_VALIDATION_GRID = 101

PRESET_KINDS = ("exact", "fixed_q", "constant_q", "diagnostic")


@dataclass(frozen=True)
class AffineFlowCoefficients:
    """Affine drift ``f(x) = A x + b`` and diffusion Q at one lam."""

    lam: float
    A: np.ndarray
    b: np.ndarray
    Q: np.ndarray


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _first_indefinite(t: np.ndarray) -> tuple[int, Optional[float]]:
    """First matrix of ``t`` (one matrix or a stack) that is not positive
    semidefinite up to a scaled eigenvalue tolerance, as ``(index, margin)``
    with margin its smallest eigenvalue over its largest magnitude;
    ``(-1, None)`` when every matrix passes."""
    w = np.linalg.eigvalsh(_sym(t).reshape(-1, *t.shape[-2:]))
    scale = np.maximum(np.abs(w).max(axis=1), 1e-300)
    w_min = w.min(axis=1)
    bad = np.nonzero(w_min < -_ADMISSIBILITY_TOL * scale)[0]
    if not bad.size:
        return -1, None
    i = int(bad[0])
    return i, float(w_min[i] / scale[i])


def is_admissible(K, derivs: HomotopyDerivatives) -> bool:
    """Whether K admits a positive semidefinite diffusion at this lam.

    The test matrix is ``K + K^T - hess_log_h``; the flow family requires
    it to be positive semidefinite.
    """
    K = np.asarray(K, dtype=float)
    n = derivs.M.shape[0]
    if K.shape != (n, n):
        raise ValueError(f"K must have shape {(n, n)}, got {K.shape}")
    return _first_indefinite(K + K.T - derivs.hess_log_h)[0] < 0


def q_from_k(K, derivs: HomotopyDerivatives) -> np.ndarray:
    """Diffusion matrix induced by K: ``M^{-1} (K + K^T - hess_log_h) M^{-1}``."""
    K = np.asarray(K, dtype=float)
    m_fac = cho_factor(derivs.M, lower=True)
    num = K + K.T - derivs.hess_log_h
    q = cho_solve(m_fac, cho_solve(m_fac, num).T)
    return _sym(q)


def k_from_q(Q, derivs: HomotopyDerivatives) -> np.ndarray:
    """Schedule matrix whose induced diffusion is the given symmetric PSD Q."""
    Q = np.asarray(Q, dtype=float)
    n = derivs.M.shape[0]
    if Q.shape != (n, n):
        raise ValueError(f"Q must have shape {(n, n)}, got {Q.shape}")
    if np.abs(Q - Q.T).max() > 1e-12 * max(np.abs(Q).max(), 1e-300):
        raise AdmissibilityError("Q must be symmetric")
    bad, margin = _first_indefinite(Q)
    if bad >= 0:
        raise AdmissibilityError("Q must be positive semidefinite", margin=margin)
    return 0.5 * (derivs.M @ Q @ derivs.M) + 0.5 * derivs.hess_log_h


def drift(x, lam, K, prior: GaussianPrior, meas: LinearMeasurement) -> np.ndarray:
    """Flow drift at (x, lam) for schedule matrix K.

    Implements ``f = L^{-1} [-grad_log_h + K L^{-1} grad_log_p]`` with
    ``L = hess_log_p``, using Cholesky solves against ``M = -L``.
    """
    from .model import homotopy_derivatives

    derivs = homotopy_derivatives(x, lam, prior, meas)
    K = np.asarray(K, dtype=float)
    m_fac = cho_factor(derivs.M, lower=True)
    w = -cho_solve(m_fac, derivs.grad_log_p)
    inner = -derivs.grad_log_h + K @ w
    return -cho_solve(m_fac, inner)


class FlowParameterization:
    """A member of the flow family, defined by its schedule K(lam).

    Instances are immutable descriptors: they hold no model state and can
    be reused across models.  ``k_stack``/``q_stack`` evaluate the
    schedule and its induced diffusion on a batch of lam values.
    """

    def __init__(self, kind: str, description: str, k_builder, q_builder=None,
                 analytic_admissible: bool = False, descriptor: Optional[dict] = None):
        self.kind = kind
        self.description = description
        self._k_builder = k_builder
        self._q_builder = q_builder
        self.analytic_admissible = analytic_admissible
        self.descriptor = dict(descriptor or {"flow": kind})

    def __repr__(self):
        return f"FlowParameterization({self.kind!r})"

    def k_stack(self, lambdas, prior: GaussianPrior, meas: LinearMeasurement) -> np.ndarray:
        """Evaluate K on a batch of lam values; returns shape (L, n, n)."""
        lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
        ks = self._k_builder(lambdas, prior, meas)
        n = prior.n
        if ks.shape != (lambdas.size, n, n):
            raise ValueError(
                f"schedule produced shape {ks.shape}, expected {(lambdas.size, n, n)}"
            )
        return ks

    def q_stack(self, lambdas, prior: GaussianPrior, meas: LinearMeasurement) -> np.ndarray:
        """Induced diffusion on a batch of lam values; returns (L, n, n)."""
        lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
        if self._q_builder is not None:
            return self._q_builder(lambdas, prior, meas)
        return _induced_q(np.linalg.inv(_m_stack(lambdas, prior, meas)),
                          self.k_stack(lambdas, prior, meas), meas.info_matrix)

    def validate(self, prior: GaussianPrior, meas: LinearMeasurement,
                 grid_points: int = _VALIDATION_GRID) -> None:
        """Check admissibility and diffusion positivity on a lam grid.

        Also evaluates the schedule twice at one probe node to catch
        stateful callables, which would break reproducibility.
        """
        lambdas = np.linspace(0.0, 1.0, grid_points)
        ks = self.k_stack(lambdas, prior, meas)
        bad, margin = _first_indefinite(ks + np.swapaxes(ks, 1, 2) + meas.info_matrix)
        if bad >= 0:
            raise AdmissibilityError(
                f"flow {self.kind!r} is inadmissible at lam={lambdas[bad]:.4f}",
                lam=lambdas[bad], margin=margin)
        bad, margin = _first_indefinite(self.q_stack(lambdas, prior, meas))
        if bad >= 0:
            raise AdmissibilityError(
                f"flow {self.kind!r} has an indefinite diffusion at lam={lambdas[bad]:.4f}",
                lam=lambdas[bad], margin=margin)
        probe = lambdas[[grid_points // 2]]
        k1 = self.k_stack(probe, prior, meas)
        k2 = self.k_stack(probe, prior, meas)
        if not np.array_equal(k1, k2):
            raise ValueError(f"flow {self.kind!r} schedule is not deterministic")


def _check_lambdas(lambdas: np.ndarray) -> None:
    # Written so that NaN fails it too.
    if not ((lambdas >= 0.0) & (lambdas <= 1.0)).all():
        raise ValueError("lam values must lie in [0, 1]")


def _m_stack(lambdas: np.ndarray, prior: GaussianPrior, meas: LinearMeasurement) -> np.ndarray:
    return prior.precision[None, :, :] + lambdas[:, None, None] * meas.info_matrix[None, :, :]


def _induced_q(m_inv: np.ndarray, ks: np.ndarray, g_info: np.ndarray) -> np.ndarray:
    """Diffusion ``M^{-1} (K + K^T + H^T R^{-1} H) M^{-1}`` induced by a
    stack of K, given the stack of ``M(lam)^{-1}``."""
    return _sym(m_inv @ (ks + np.swapaxes(ks, 1, 2) + g_info) @ m_inv)


def affine_tables(params: FlowParameterization, prior: GaussianPrior,
                  meas: LinearMeasurement, lambdas, want_q: bool = True):
    """Batch-evaluate (A, b, Q) for a flow on a vector of lam values.

    This is the workhorse used by the integrators and the moment solver.
    Returns arrays of shape (L, n, n), (L, n) and (L, n, n); Q is None
    when ``want_q`` is false.  ``M(lam)`` is inverted once, with one
    batched ``inv``, and that inverse gives A, the drift at the origin
    and b, and the induced Q of a flow without its own diffusion builder.

    Raises AdmissibilityError if the schedule fails the positivity test
    at any requested node (skipped for presets that are admissible by
    construction).
    """
    lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
    _check_lambdas(lambdas)
    g_info = meas.info_matrix
    m_inv = np.linalg.inv(_m_stack(lambdas, prior, meas))
    ks = params.k_stack(lambdas, prior, meas)

    if not params.analytic_admissible:
        bad, margin = _first_indefinite(ks + np.swapaxes(ks, 1, 2) + g_info)
        if bad >= 0:
            raise AdmissibilityError(
                f"flow {params.kind!r} is inadmissible at lam={lambdas[bad]:.6f}",
                lam=lambdas[bad], margin=margin)

    a_stack = -(m_inv @ (g_info + ks))

    # b = f(0, lam): drift formula evaluated at the origin.
    v = cho_solve((prior.chol, True), prior.x_prior)
    u = meas.info_vector
    grad0 = v[None, :] + lambdas[:, None] * u[None, :]
    w0 = -np.einsum("lij,lj->li", m_inv, grad0)
    inner = -u[None, :] + np.einsum("lij,lj->li", ks, w0)
    b_stack = -np.einsum("lij,lj->li", m_inv, inner)

    if not want_q:
        q_stack = None
    elif params._q_builder is None:
        q_stack = _induced_q(m_inv, ks, g_info)
    else:
        q_stack = params.q_stack(lambdas, prior, meas)
    return a_stack, b_stack, q_stack


def affine_coefficients(lam, params: FlowParameterization, prior: GaussianPrior,
                        meas: LinearMeasurement) -> AffineFlowCoefficients:
    """Affine coefficients of a flow at a single lam.

    ``A = L^{-1} (hess_log_h + K)`` and ``b = f(0, lam)``; Q is the
    diffusion induced by K.  Raises AdmissibilityError for an
    inadmissible K.
    """
    lam = _check_lambda(lam)
    a, b, q = affine_tables(params, prior, meas, np.array([lam]), want_q=True)
    return AffineFlowCoefficients(lam=lam, A=a[0], b=b[0], Q=q[0])


def _exact_a1(lambdas: np.ndarray, prior: GaussianPrior,
              meas: LinearMeasurement) -> np.ndarray:
    """``A1`` of the zero-diffusion flow at every lam, (L, n, n): one
    batched solve over the stack of ``lam H P_g H^T + R``.  The right-hand
    side is a (1, d, n) stack: numpy 1.x reads a 2-D ``b`` next to a 3-D
    ``a`` as a stack of vectors."""
    gram = lambdas[:, None, None] * (meas.H @ prior.P_g @ meas.H.T) + meas.R
    return -0.5 * prior.P_g @ (meas.H.T @ np.linalg.solve(gram, meas.H[None]))


def exact_flow_coefficients(lam, prior: GaussianPrior,
                            meas: LinearMeasurement) -> AffineFlowCoefficients:
    """Closed-form coefficients of the zero-diffusion flow.

    ``A1 = -1/2 P_g H^T (lam H P_g H^T + R)^{-1} H`` and
    ``b1 = (I + 2 lam A1) [(I + lam A1) P_g H^T R^{-1} z + A1 x_prior]``.
    """
    lam = _check_lambda(lam)
    n = prior.n
    a1 = _exact_a1(np.array([lam]), prior, meas)[0]
    eye = np.eye(n)
    core = (eye + lam * a1) @ (prior.P_g @ meas.info_vector) + a1 @ prior.x_prior
    b1 = (eye + 2.0 * lam * a1) @ core
    return AffineFlowCoefficients(lam=lam, A=a1, b=b1, Q=np.zeros((n, n)))


def diffusion_factor(Q, lambdas=None) -> np.ndarray:
    """Factor a symmetric PSD diffusion as ``Q = q q^T``.

    ``Q`` is one (n, n) matrix or an (L, n, n) stack, factored with one
    stacked eigendecomposition.  Eigenvalues of a matrix below its noise
    floor (``1e-12`` times its largest eigenvalue magnitude) are clamped
    to zero and dropped, so one matrix gives shape (n, m) with m its
    numerical rank, and a zero matrix gives (n, 0).  A stack gives
    (L, n, m_max) with m_max the largest rank: matrix k's kept columns
    (its top ``m_k`` eigenpairs, in ascending order) come first and the
    rest is exactly 0.0, so ``out[k, :, :m_k]`` equals the factor of
    ``Q[k]`` alone, bit for bit.  Each kept column is signed so that its
    largest-magnitude entry (the first, on a tie) is positive, which makes
    the factor of a matrix with distinct eigenvalues a continuous
    function of it.

    Raises AdmissibilityError when a matrix is indefinite beyond
    tolerance, with the first failing matrix's margin; ``lambdas``, the
    lam value of each matrix in a stack, names its lam on the error.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.ndim not in (2, 3) or Q.shape[-1] != Q.shape[-2]:
        raise ValueError(f"Q must be square or a stack of square matrices, "
                         f"got shape {Q.shape}")
    stack = Q.reshape(-1, *Q.shape[-2:])
    n = stack.shape[-1]
    w, vecs = np.linalg.eigh(_sym(stack))
    scale = np.abs(w).max(axis=1)
    w_min = w.min(axis=1)
    bad = np.flatnonzero(w_min < -_INDEFINITE_TOL * scale)
    if bad.size:
        i = int(bad[0])
        where = "" if Q.ndim == 2 else (
            f" at lam={lambdas[i]:.6f}" if lambdas is not None else f" at index {i}")
        raise AdmissibilityError(
            f"diffusion is indefinite{where}: min eigenvalue {w_min[i]:.3e} "
            f"of scale {scale[i]:.3e}",
            lam=None if lambdas is None else lambdas[i], margin=w_min[i] / scale[i])
    w = np.maximum(w, 0.0)
    # Eigenvalues ascend, so the kept ones of each matrix are its last rank.
    rank = np.count_nonzero(w > 1e-12 * scale[:, None], axis=1)
    m_max = int(rank.max(initial=0))
    # Column j of matrix k is its eigenpair n - rank_k + j, or padding.
    cols = np.arange(m_max)
    src = np.minimum(n - rank[:, None] + cols, n - 1)
    kept = np.take_along_axis(vecs * np.sqrt(w)[:, None, :], src[:, None, :], axis=2)
    # LAPACK picks each eigenvector's sign; fixing it makes the factor a
    # continuous function of Q.  Negating a column leaves q q^T unchanged.
    top = np.take_along_axis(kept, np.abs(kept).argmax(axis=1)[:, None, :], axis=1)
    kept = np.where(top < 0.0, -kept, kept)
    out = np.where((cols < rank[:, None])[:, None, :], kept, 0.0)
    return out[0] if Q.ndim == 2 else out


# ---------------------------------------------------------------------------
# Preset constructors.


def _exact_k(lambdas, prior, meas):
    k = -0.5 * meas.info_matrix
    return np.broadcast_to(k, (lambdas.size, *k.shape)).copy()


def _zero_k(lambdas, prior, meas):
    n = prior.n
    return np.zeros((lambdas.size, n, n))


def exact_flow() -> FlowParameterization:
    """Zero-diffusion flow: ``K = 1/2 hess_log_h``, Q identically zero."""
    def q_builder(lambdas, prior, meas):
        n = prior.n
        return np.zeros((lambdas.size, n, n))

    return FlowParameterization(
        kind="exact",
        description="deterministic flow with zero diffusion",
        k_builder=_exact_k,
        q_builder=q_builder,
        analytic_admissible=True,
        descriptor={"flow": "exact"},
    )


def fixed_q() -> FlowParameterization:
    """Flow with ``K = 0`` and diffusion ``M^{-1} H^T R^{-1} H M^{-1}``,
    the diffusion that K induces."""
    return FlowParameterization(
        kind="fixed_q",
        description="zero schedule matrix; measurement-shaped diffusion",
        k_builder=_zero_k,
        analytic_admissible=True,
        descriptor={"flow": "fixed_q"},
    )


def constant_q(Q0) -> FlowParameterization:
    """Flow whose diffusion equals the given symmetric PSD matrix at every lam."""
    q0 = np.asarray(Q0, dtype=float)
    if q0.ndim != 2 or q0.shape[0] != q0.shape[1]:
        raise ValueError(f"Q0 must be square, got shape {q0.shape}")
    if np.abs(q0 - q0.T).max() > 1e-12 * max(np.abs(q0).max(), 1e-300):
        raise AdmissibilityError("Q0 must be symmetric")
    bad, margin = _first_indefinite(q0)
    if bad >= 0:
        raise AdmissibilityError("Q0 must be positive semidefinite", margin=margin)
    q0 = _sym(q0)

    def k_builder(lambdas, prior, meas):
        m_stack = _m_stack(lambdas, prior, meas)
        return 0.5 * (m_stack @ q0 @ m_stack) - 0.5 * meas.info_matrix

    def q_builder(lambdas, prior, meas):
        return np.broadcast_to(q0, (lambdas.size, *q0.shape)).copy()

    return FlowParameterization(
        kind="constant_q",
        description="prescribed constant diffusion matrix",
        k_builder=k_builder,
        q_builder=q_builder,
        analytic_admissible=True,
        descriptor={"flow": "constant_q", "Q0": q0.tolist()},
    )


def k_schedule(fn: Callable[[float], np.ndarray],
               description: str = "user schedule") -> FlowParameterization:
    """Flow defined by an arbitrary schedule callable ``lam -> K``.

    The callable must be deterministic and side-effect free; it is
    re-evaluated during validation to check this.
    """
    def k_builder(lambdas, prior, meas):
        n = prior.n
        out = np.empty((lambdas.size, n, n))
        for i, lam in enumerate(lambdas):
            k = np.asarray(fn(float(lam)), dtype=float)
            if k.shape != (n, n):
                raise ValueError(
                    f"schedule returned shape {k.shape} at lam={lam}, expected {(n, n)}"
                )
            out[i] = k
        return out

    return FlowParameterization(
        kind="k_schedule",
        description=description,
        k_builder=k_builder,
        descriptor={"flow": "k_schedule"},
    )


def _reference_k(m_stack, a_stack, q_stack):
    """Schedule ``K = (M Q + A_hat^T) M`` of a reference flow, per lam."""
    return (m_stack @ q_stack + np.swapaxes(a_stack, 1, 2)) @ m_stack


def reference_flow(a_hat: Callable[[float], np.ndarray],
                   q_nominal: Callable[[float], np.ndarray],
                   description: str = "reference flow") -> FlowParameterization:
    """Flow built from a reference drift gradient and a nominal diffusion.

    Given the reference ``A_hat(lam)`` and nominal ``Q(lam)``, the
    schedule is ``K = (M Q + A_hat^T) M``.  The induced diffusion is
    recomputed from K, so the pair is always run as an exact family
    member.
    """
    def k_builder(lambdas, prior, meas):
        n = prior.n
        a_stack = np.empty((lambdas.size, n, n))
        q_stack = np.empty((lambdas.size, n, n))
        for i, lam in enumerate(lambdas):
            a_stack[i] = np.asarray(a_hat(float(lam)), dtype=float)
            q_stack[i] = np.asarray(q_nominal(float(lam)), dtype=float)
        return _reference_k(_m_stack(lambdas, prior, meas), a_stack, q_stack)

    return FlowParameterization(
        kind="reference",
        description=description,
        k_builder=k_builder,
        descriptor={"flow": "reference"},
    )


def diagnostic_noise(alpha: float) -> FlowParameterization:
    """Reference flow around the zero-diffusion drift with nominal ``Q = alpha I``.

    alpha must be positive.  The reference drift is the exact flow of
    whichever model the schedule is evaluated on, so the induced
    diffusion is strictly positive definite on every model; this makes
    the preset useful for exercising the exponential-decay stability
    regime.
    """
    alpha = float(alpha)
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")

    def k_builder(lambdas, prior, meas):
        _check_lambdas(lambdas)
        return _reference_k(_m_stack(lambdas, prior, meas),
                            _exact_a1(lambdas, prior, meas),
                            alpha * np.eye(prior.n))

    return FlowParameterization(
        kind="diagnostic",
        description=f"reference flow around the zero-diffusion drift, alpha={alpha}",
        k_builder=k_builder,
        analytic_admissible=True,
        descriptor={"flow": "diagnostic", "alpha": alpha},
    )


def preset(kind: str, prior: GaussianPrior, meas: LinearMeasurement,
           Q0=None, alpha: float = 1.0, a_hat=None, q_nominal=None,
           k_fn=None) -> FlowParameterization:
    """Construct and validate a flow parameterization against a model.

    Args:
        kind: one of exact, fixed_q, constant_q, diagnostic, reference,
            k_schedule.
        prior, meas: model the flow is validated against.
        Q0: constant diffusion for constant_q.
        alpha: nominal noise level for diagnostic.
        a_hat, q_nominal: callables for reference.
        k_fn: callable for k_schedule.

    Returns:
        A FlowParameterization that passed admissibility on the
        validation grid.
    """
    if kind == "exact":
        flow = exact_flow()
    elif kind == "fixed_q":
        flow = fixed_q()
    elif kind == "constant_q":
        if Q0 is None:
            raise ValueError("constant_q requires Q0")
        flow = constant_q(Q0)
    elif kind == "diagnostic":
        flow = diagnostic_noise(alpha)
    elif kind == "reference":
        if a_hat is None or q_nominal is None:
            raise ValueError("reference requires a_hat and q_nominal")
        flow = reference_flow(a_hat, q_nominal)
    elif kind == "k_schedule":
        if k_fn is None:
            raise ValueError("k_schedule requires k_fn")
        flow = k_schedule(k_fn)
    else:
        raise ValueError(f"unknown flow kind {kind!r}")
    flow.validate(prior, meas)
    return flow
