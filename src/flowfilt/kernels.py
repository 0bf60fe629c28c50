"""Hot propagation loops: Euler-Maruyama and classic RK4 over an ensemble.

Inside the kernels the ensemble is column-major: the state is an (n, N)
array with one column per particle and the EM noise is (steps, m, N), so
each update is one numpy operation over all N particles.  Callers keep
the row layout: states go in and come out as (N, n), and recorded paths
are (N, steps+1, n), filled in place after every step.

The accumulation order is part of the contract, because ensemble row i
must equal a single-particle run bit for bit.  Every product
``a @ x + b`` starts at 0.0, adds ``a[j, kk] * x[kk]`` with kk
ascending and adds b last; the step and stage sums below keep the order
written in their comments.  Every operation is elementwise across
columns, so a particle's result does not depend on the other particles
in the block.  Noise is never generated here; callers pass precomputed
normal draws.

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


def _rk4(x, a_nodes, b_nodes, a_mids, b_mids, dlam, limit, paths):
    k1, k2, k3, k4, xw, tmp = (np.empty_like(x) for _ in range(6))
    for k in range(dlam.shape[0]):
        h = dlam[k]
        half = 0.5 * h
        _affine(a_nodes[k], x, k1, tmp, b_nodes[k])
        np.multiply(k1, half, out=xw)
        xw += x
        _affine(a_mids[k], xw, k2, tmp, b_mids[k])
        np.multiply(k2, half, out=xw)
        xw += x
        _affine(a_mids[k], xw, k3, tmp, b_mids[k])
        np.multiply(k3, h, out=xw)
        xw += x
        _affine(a_nodes[k + 1], xw, k4, tmp, b_nodes[k + 1])
        # x + (((k1 + 2 k2) + 2 k3) + k4) (h / 6)
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k3 += k2
        k4 += k3
        k4 *= h / 6.0
        x += k4
        if paths is not None:
            paths[:, k + 1, :] = x.T
        code, particle = _first_bad(x, limit)
        if code:
            return x, code, k, particle
    return x, 0, -1, -1


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
    at the nodes and at the step midpoints.
    """
    dlam = _contig(dlam)
    x, paths = _columns(x0, dlam.shape[0], record)
    x, code, step, particle = _rk4(x, _contig(a_nodes), _contig(b_nodes),
                                   _contig(a_mids), _contig(b_mids), dlam,
                                   limit, paths)
    return np.ascontiguousarray(x.T), paths, code, step, particle
