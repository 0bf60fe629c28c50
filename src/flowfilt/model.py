"""Linear-Gaussian model primitives for the homotopy update.

The update moves a prior density into the posterior by raising the
likelihood to a pseudo-time power ``lam`` in [0, 1].  Everything here is
closed form: gradients and Hessians of the log prior, the log likelihood
and the combined log homotopy density for a Gaussian prior with a linear
measurement under additive Gaussian noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError

# Relative asymmetry beyond this is treated as a malformed covariance
# rather than floating-point noise.
_ASYM_TOL = 1e-12

_MODEL_KEYS = ("x_prior", "P_g", "H", "R", "z")


def _as_vector(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _ingest_covariance(a, name: str) -> np.ndarray:
    """Symmetrize a covariance input and verify positive definiteness."""
    a = _as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.T).max() > _ASYM_TOL * scale:
        raise ValueError(f"{name} is not symmetric to within {_ASYM_TOL} relative asymmetry")
    a = 0.5 * (a + a.T)
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} is not positive definite") from None
    return a


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GaussianPrior:
    """Gaussian prior with mean ``x_prior`` and covariance ``P_g``.

    The precision matrix (the inverse of P_g) and the Cholesky factor, for
    sampling, are computed once at construction and reused downstream.
    """

    x_prior: np.ndarray
    P_g: np.ndarray

    def __post_init__(self):
        x = _as_vector(self.x_prior, "x_prior")
        p = _ingest_covariance(self.P_g, "P_g")
        if p.shape[0] != x.size:
            raise ValueError(
                f"P_g has shape {p.shape} but x_prior has dimension {x.size}"
            )
        chol = np.linalg.cholesky(p)
        precision = np.linalg.inv(p)
        precision = 0.5 * (precision + precision.T)
        object.__setattr__(self, "x_prior", _freeze(x))
        object.__setattr__(self, "P_g", _freeze(p))
        object.__setattr__(self, "_chol", _freeze(chol))
        object.__setattr__(self, "_precision", _freeze(precision))

    @property
    def n(self) -> int:
        return self.x_prior.size

    @property
    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of P_g."""
        return self._chol

    @property
    def precision(self) -> np.ndarray:
        """Inverse covariance, the natural weight matrix for error norms."""
        return self._precision


@dataclass(frozen=True)
class LinearMeasurement:
    """Measurement ``z = H x + v`` with ``v ~ N(0, R)``."""

    H: np.ndarray
    R: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        h = _as_matrix(self.H, "H")
        r = _ingest_covariance(self.R, "R")
        z = _as_vector(self.z, "z")
        d = h.shape[0]
        if r.shape[0] != d:
            raise ValueError(f"R has shape {r.shape} but H has {d} rows")
        if z.size != d:
            raise ValueError(f"z has dimension {z.size} but H has {d} rows")
        chol_r = np.linalg.cholesky(r)
        # H^T R^{-1} and derived products appear in every gradient call.
        ht_rinv = np.linalg.solve(r, h).T
        info_matrix = ht_rinv @ h
        info_matrix = 0.5 * (info_matrix + info_matrix.T)
        object.__setattr__(self, "H", _freeze(h))
        object.__setattr__(self, "R", _freeze(r))
        object.__setattr__(self, "z", _freeze(z))
        object.__setattr__(self, "_chol_r", _freeze(chol_r))
        object.__setattr__(self, "_ht_rinv", _freeze(ht_rinv))
        object.__setattr__(self, "_info_matrix", _freeze(info_matrix))
        object.__setattr__(self, "_info_vector", _freeze(ht_rinv @ z))

    @property
    def d(self) -> int:
        return self.z.size

    @property
    def n(self) -> int:
        return self.H.shape[1]

    @property
    def chol_r(self) -> np.ndarray:
        return self._chol_r

    @property
    def ht_rinv(self) -> np.ndarray:
        """H^T R^{-1}."""
        return self._ht_rinv

    @property
    def info_matrix(self) -> np.ndarray:
        """H^T R^{-1} H, the measurement information matrix."""
        return self._info_matrix

    @property
    def info_vector(self) -> np.ndarray:
        """H^T R^{-1} z."""
        return self._info_vector


@dataclass(frozen=True)
class HomotopyDerivatives:
    """Gradients and Hessians of the log homotopy density at one point.

    ``M = -hess_log_p = S + lam * H^T R^{-1} H`` is positive definite for
    every lam in [0, 1]; ``S`` is the prior precision.
    """

    lam: float
    grad_log_g: np.ndarray
    grad_log_h: np.ndarray
    hess_log_g: np.ndarray
    hess_log_h: np.ndarray
    hess_log_p: np.ndarray
    M: np.ndarray
    S: np.ndarray

    @property
    def grad_log_p(self) -> np.ndarray:
        return self.grad_log_g + self.lam * self.grad_log_h


def _check_lambda(lam) -> float:
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    return lam


def _check_model(prior: GaussianPrior, meas: LinearMeasurement) -> None:
    """Raise ValueError unless the measurement and the prior share a dimension."""
    if meas.n != prior.n:
        raise ValueError(f"measurement expects dimension {meas.n}, prior has {prior.n}")


def _check_state(x, prior: GaussianPrior) -> np.ndarray:
    x = _as_vector(x, "x")
    if x.size != prior.n:
        raise ValueError(f"x has dimension {x.size}, expected {prior.n}")
    return x


def grad_log_prior(x, prior: GaussianPrior) -> np.ndarray:
    """Gradient of the log prior density: -P_g^{-1} (x - x_prior)."""
    x = _check_state(x, prior)
    return -np.linalg.solve(prior.P_g, x - prior.x_prior)


def grad_log_likelihood(x, meas: LinearMeasurement) -> np.ndarray:
    """Gradient of the log likelihood: H^T R^{-1} (z - H x)."""
    x = _as_vector(x, "x")
    if x.size != meas.n:
        raise ValueError(f"x has dimension {x.size}, expected {meas.n}")
    return meas.ht_rinv @ (meas.z - meas.H @ x)


def homotopy_derivatives(
    x, lam, prior: GaussianPrior, meas: LinearMeasurement
) -> HomotopyDerivatives:
    """Evaluate all log-density derivatives used by the flow at (x, lam).

    Args:
        x: state vector of dimension n.
        lam: pseudo-time in [0, 1].
        prior: Gaussian prior.
        meas: linear measurement; ``meas.n`` must equal ``prior.n``.

    Returns:
        HomotopyDerivatives bundle.  ``hess_log_p`` equals
        ``hess_log_g + lam * hess_log_h`` and ``M = -hess_log_p``.
    """
    lam = _check_lambda(lam)
    x = _check_state(x, prior)
    _check_model(prior, meas)
    s = prior.precision
    g_info = meas.info_matrix
    m = s + lam * g_info
    return HomotopyDerivatives(
        lam=lam,
        grad_log_g=grad_log_prior(x, prior),
        grad_log_h=grad_log_likelihood(x, meas),
        hess_log_g=-s,
        hess_log_h=-g_info,
        hess_log_p=-m,
        M=m,
        S=s,
    )


def log_homotopy_density_unnormalized(
    x, lam, prior: GaussianPrior, meas: LinearMeasurement
) -> float:
    """Log of the homotopy density up to its lam-dependent normalizer.

    Returns ``log g(x) + lam * log h(x)`` with the constant terms of both
    Gaussians dropped, so differences at equal lam are exact log ratios.
    """
    lam = _check_lambda(lam)
    x = _check_state(x, prior)
    r = x - prior.x_prior
    log_g = -0.5 * float(r @ np.linalg.solve(prior.P_g, r))
    s = meas.z - meas.H @ x
    log_h = -0.5 * float(s @ np.linalg.solve(meas.R, s))
    return log_g + lam * log_h


def _strict_array(obj, name: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model field {name!r} is not a rectangular numeric array: {exc}")
    if arr.dtype == object:
        raise ConfigError(f"model field {name!r} is ragged")
    return arr


def load_model(path) -> tuple[GaussianPrior, LinearMeasurement]:
    """Load a model file and return its prior and measurement.

    The file is JSON with exactly the keys x_prior, P_g, H, R, z.
    Vectors are flat lists, matrices are row-major lists of rows.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read model file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"model file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"model file {path} must contain a JSON object")
    missing = [k for k in _MODEL_KEYS if k not in raw]
    unknown = [k for k in raw if k not in _MODEL_KEYS]
    if missing:
        raise ConfigError(f"model file {path} is missing keys: {missing}")
    if unknown:
        raise ConfigError(f"model file {path} has unknown keys: {unknown}")
    fields = {k: _strict_array(raw[k], k) for k in _MODEL_KEYS}
    try:
        prior = GaussianPrior(fields["x_prior"], fields["P_g"])
        meas = LinearMeasurement(fields["H"], fields["R"], fields["z"])
    except ValueError as exc:
        raise ConfigError(f"model file {path} is invalid: {exc}")
    try:
        _check_model(prior, meas)
    except ValueError as exc:
        raise ConfigError(f"model file {path} is inconsistent: {exc}")
    return prior, meas


def save_model(path, prior: GaussianPrior, meas: LinearMeasurement) -> None:
    """Write a model file readable by :func:`load_model`."""
    payload = {
        "x_prior": prior.x_prior.tolist(),
        "P_g": prior.P_g.tolist(),
        "H": meas.H.tolist(),
        "R": meas.R.tolist(),
        "z": meas.z.tolist(),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
