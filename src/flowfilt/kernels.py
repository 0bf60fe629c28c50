"""Hot propagation loops: Euler-Maruyama and classic RK4 over an ensemble.

Inside the kernels the ensemble is column-major: the state is an (n, N)
array with one column per particle and the EM noise is (steps, m, N), so
each update is one numpy operation over all N particles.  Callers keep
the row layout: states go in and come out as (N, n), and recorded paths
are (N, steps+1, n), filled in place after every step.

The accumulation order is part of the contract, because ensemble row i
must equal a single-particle run bit for bit.  Every product
``a @ x + b`` starts at 0.0, adds ``a[j, kk] * x[kk]`` with kk
ascending and adds b last; the Euler step keeps the order written in its
comment.  Every operation is elementwise across columns, so a particle's
result does not depend on the other particles in the block.  Noise is
never generated here; callers pass precomputed normal draws.

Every drift here is affine, so one classic RK4 step of any deterministic
solve is an affine map ``y -> T_k y + c_k``.  ``_rk4_maps`` builds the
maps of all steps in one batched pass and is the only RK4 formula: the
RK4 ensemble applies them to its columns, and ``_chain`` steps one
vector or matrix through them for the moment ODEs and the error dynamics.

Kernel return convention: ``(code, step, particle)`` where code 0 means
success, 1 a non-finite state and 2 a norm overflow.  The reported pair
is the lexicographically smallest (step, particle) that failed.
"""

from __future__ import annotations

import math

import numpy as np

# States with any coordinate beyond this magnitude count as diverged.
STATE_LIMIT = 1e12

NUMBA_AVAILABLE = False  # kept for perfbench/run.py, which reads it


def active_backend() -> str:  # kept for perfbench/run.py, which reads it
    return "numpy"


def warmup() -> None:  # kept for perfbench/run.py, which calls it
    pass


def _affine(a, x, out, tmp, b=None):
    """``out = a @ x (+ b)`` for every column of x, in the contract's order."""
    # (a0 x0) + 0.0 equals 0.0 + (a0 x0), signed zeros included, so the
    # first term goes straight into out.
    np.multiply(a[:, 0, None], x[0], out=out)
    out += 0.0
    for kk in range(1, a.shape[1]):
        np.multiply(a[:, kk, None], x[kk], out=tmp)
        out += tmp
    if b is not None:
        out += b[:, None]


def _first_bad(x, limit):
    """(code, particle) of the smallest failing column, or (0, -1)."""
    # One whole-array test per step; NaN makes the comparisons false.
    if x.max(initial=-limit) <= limit and x.min(initial=limit) >= -limit:
        return 0, -1
    x = x.reshape(x.shape[0], -1)  # a vector is one column
    nonfinite = ~np.isfinite(x).all(axis=0)
    bad = nonfinite | (np.abs(x) > limit).any(axis=0)
    i = int(np.argmax(bad))
    return (1 if nonfinite[i] else 2), i


def _em(x, a_all, b_all, q_all, noise, dlam, limit, paths):
    m = q_all.shape[2]
    drift, xi, tmp = (np.empty_like(x) for _ in range(3))
    for k in range(dlam.shape[0]):
        dl = dlam[k]
        # x + (a x + b) dl, then + (q xi) sqrt(dl)
        _affine(a_all[k], x, drift, tmp, b_all[k])
        drift *= dl
        drift += x
        if m > 0:
            _affine(q_all[k], noise[k], xi, tmp)
            xi *= math.sqrt(dl)
            np.add(drift, xi, out=x)
        else:
            x, drift = drift, x
        if paths is not None:
            paths[:, k + 1, :] = x.T
        code, particle = _first_bad(x, limit)
        if code:
            return x, code, k, particle
    return x, 0, -1, -1


def _rk4_maps(a_nodes, a_mids, dlam, b_nodes=None, b_mids=None):
    """One classic RK4 step of ``y' = A y + b`` as the affine map
    ``y -> T_k y + c_k``, for every step at once.

    The stage slopes are affine in y, ``k_i = K_i y + c_i``, with
    ``K1 = A_k``, ``K2 = A_mid (I + h/2 K1)``, ``K3 = A_mid (I + h/2 K2)``
    and ``K4 = A_{k+1} (I + h K3)``; ``T = I + h/6 (K1 + 2 K2 + 2 K3 + K4)``.
    Returns T (steps, n, n) and c (steps, n), or None for c without b.

    Overflow is silent here: a step past the one where the caller's chain
    stops may overflow, and the caller's finiteness check catches any
    non-finite map that it does use.
    """
    h = np.asarray(dlam, dtype=np.float64)[:, None, None]
    eye = np.eye(a_nodes.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = a_nodes[:-1]
        k2 = a_mids @ (eye + (0.5 * h) * k1)
        k3 = a_mids @ (eye + (0.5 * h) * k2)
        k4 = a_nodes[1:] @ (eye + h * k3)
        t = eye + (((k1 + 2.0 * k2) + 2.0 * k3) + k4) * (h / 6.0)
        if b_nodes is None:
            return t, None
        h = h[:, :, 0]
        c1 = b_nodes[:-1]
        c2 = (a_mids @ ((0.5 * h) * c1)[:, :, None])[:, :, 0] + b_mids
        c3 = (a_mids @ ((0.5 * h) * c2)[:, :, None])[:, :, 0] + b_mids
        c4 = (a_nodes[1:] @ (h * c3)[:, :, None])[:, :, 0] + b_nodes[1:]
        return t, (((c1 + 2.0 * c2) + 2.0 * c3) + c4) * (h / 6.0)


def _chain(t, y0, c=None, limit=STATE_LIMIT):
    """Chain ``y[k+1] = t[k] @ y[k] (+ c[k])`` from ``y[0] = y0``, a vector
    or a matrix, one matmul per step.

    Each new y passes :func:`_first_bad` before the next step is formed;
    an overflow is reported by that test, not by a floating-point warning.
    Returns the (steps+1, ...) stack and the first failing step, or -1.
    """
    y = np.empty((t.shape[0] + 1, *np.shape(y0)))
    y[0] = y0
    rows = list(y)  # views made once: indexing per step costs more than the matmul
    with np.errstate(over="ignore", invalid="ignore"):
        for k, t_k in enumerate(t):
            np.matmul(t_k, rows[k], out=rows[k + 1])
            if c is not None:
                rows[k + 1] += c[k]
            if _first_bad(rows[k + 1], limit)[0]:
                return y, k
    return y, -1


def _contig(a):
    return np.ascontiguousarray(a, dtype=np.float64)


def _columns(x0, steps, record):
    """(n, N) working copy of the (N, n) states and the recorded paths."""
    x = np.array(np.atleast_2d(x0).T, dtype=np.float64, order="C")
    if not record:
        return x, None
    paths = np.empty((x.shape[1], steps + 1, x.shape[0]))
    paths[:, 0, :] = x.T
    return x, paths


def em_propagate(x0, a_all, b_all, q_all, noise, dlam, record: bool = False,
                 limit: float = STATE_LIMIT):
    """Euler-Maruyama propagation of an ensemble through all steps.

    Args:
        x0: (N, n) initial states.
        a_all, b_all: (steps, n, n) and (steps, n) drift coefficients at
            the left node of each step.
        q_all: (steps, n, m) diffusion factors; m may be 0.
        noise: (steps, m, N) standard normal draws; column i is the
            noise of particle i.
        dlam: (steps,) step sizes.
        record: when true, also return the full (N, steps+1, n) paths.

    Returns:
        (states, paths, code, step, particle); paths is None unless
        ``record``.
    """
    dlam = _contig(dlam)
    x, paths = _columns(x0, dlam.shape[0], record)
    x, code, step, particle = _em(x, _contig(a_all), _contig(b_all),
                                  _contig(q_all), _contig(noise), dlam,
                                  limit, paths)
    return np.ascontiguousarray(x.T), paths, code, step, particle


def rk4_propagate(x0, a_nodes, b_nodes, a_mids, b_mids, dlam,
                  record: bool = False, limit: float = STATE_LIMIT):
    """Classic fourth-order propagation for zero-diffusion flows.

    Shapes follow :func:`em_propagate` with drift coefficients supplied
    at the nodes and at the step midpoints.  Step k applies the RK4 map
    ``x -> T_k x + c_k`` of :func:`_rk4_maps` to every column in the
    contract's order and tests the states before the next step.
    """
    dlam = _contig(dlam)
    x, paths = _columns(x0, dlam.shape[0], record)
    t, c = _rk4_maps(a_nodes, a_mids, dlam, b_nodes, b_mids)
    y, tmp = np.empty_like(x), np.empty_like(x)
    for k in range(dlam.shape[0]):
        _affine(t[k], x, y, tmp, c[k])
        x, y = y, x
        if paths is not None:
            paths[:, k + 1, :] = x.T
        code, particle = _first_bad(x, limit)
        if code:
            return np.ascontiguousarray(x.T), paths, code, k, particle
    return np.ascontiguousarray(x.T), paths, 0, -1, -1
