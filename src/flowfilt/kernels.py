"""Hot propagation loops: Euler-Maruyama and classic RK4 over an ensemble.

Inside the kernels the ensemble is column-major: the state is an (n, N)
array with one column per particle and the EM noise is (steps, m, N), so
each update is one numpy operation over all N particles.  Callers keep
the row layout: states go in and come out as (N, n), and recorded paths
are (N, steps+1, n), filled in place.

The accumulation order is part of the contract, because ensemble row i
must equal a single-particle run bit for bit.  Every product
``a @ x + b`` starts at 0.0, adds ``a[j, kk] * x[kk]`` with kk
ascending and adds b last.  Every operation is elementwise across
columns, so a particle's result does not depend on the other particles
in the block.  Noise is never generated here; callers pass precomputed
normal draws.

An Euler-Maruyama step of the linear SDE ``dx = (A x + b) dlam + q dW``
is the affine map ``x -> M_k x + G_k xi_k + g_k`` with the prescaled
``M_k = I + dlam_k A_k``, ``G_k = sqrt(dlam_k) q_k`` and
``g_k = dlam_k b_k``: one contract-order product of ``[M_k | G_k]`` with
``[x; xi_k]``, plus g_k.

Every drift here is affine, so one classic RK4 step of any deterministic
solve is an affine map ``y -> T_k y + c_k``.  ``_rk4_maps`` builds the
maps of all steps in one batched pass and is the only RK4 formula, and
``_chain`` steps one vector or matrix through them, testing the trusted
range once per block of steps.  The moment ODEs and the error dynamics
chain their own solutions; the RK4 ensemble chains the maps themselves
into ``x_k = Phi_k x_0 + d_k`` and applies the result to its columns
once, forming a step's states only where a bound on them does not clear
the limit.

Kernel return convention: ``(code, step, particle)`` where code 0 means
success, 1 a non-finite state and 2 a norm overflow.  The reported pair
is the lexicographically smallest (step, particle) that failed.
"""

from __future__ import annotations

import numpy as np

# States with any coordinate beyond this magnitude count as diverged.
STATE_LIMIT = 1e12
# Steps per whole-block trusted-range test in ``_chain``.
CHAIN_BLOCK = 64

NUMBA_AVAILABLE = False  # kept for perfbench/run.py, which reads it


def active_backend() -> str:  # kept for perfbench/run.py, which reads it
    return "numpy"


def warmup() -> None:  # kept for perfbench/run.py, which calls it
    pass


def _affine(a, x, out, tmp, b=None):
    """``out = a @ x (+ b)`` for every column of x, in the contract's order.

    ``a`` may be one (n, n) matrix or a stack of them, with ``b`` the
    matching (n,) or (L, n); a stack fills out (L, n, N), one slice per
    matrix, each equal to the single-matrix result.
    """
    # (a0 x0) + 0.0 equals 0.0 + (a0 x0), signed zeros included, so the
    # first term goes straight into out.
    np.multiply(a[..., 0, None], x[0], out=out)
    out += 0.0
    for kk in range(1, a.shape[-1]):
        np.multiply(a[..., kk, None], x[kk], out=tmp)
        out += tmp
    if b is not None:
        out += b[..., None]


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


def _em(x, coef, g, noise, limit, paths):
    """Step the (n, N) states through ``x <- M_k x + G_k xi_k + g_k``.

    ``z = [x; xi_k]`` lives in one (n+m, N) buffer and ``coef[k]`` is
    ``[M_k | G_k]`` transposed to (n+m, n, 1), so one product with
    ``z[:, None, :]`` forms every term of the step.  The terms are summed
    into ``x = z[:n]`` from +0.0 with the column index ascending, and g_k
    comes last.  ``x . x <= limit**2 / 4`` clears every state of a step
    at once (NaN fails it); the exact test runs only when it fails.
    """
    n = x.shape[0]
    m = coef.shape[1] - n
    z = np.empty((n + m, x.shape[1]))
    z[:n] = x
    x, flat, zs = z[:n], z[:n].reshape(-1), z[:, None, :]
    prods = np.empty((n + m, n, x.shape[1]))
    terms, xis = list(prods)[1:], list(noise)
    clear = 0.25 * limit * limit
    for k, (c, gk) in enumerate(zip(coef, g)):
        if m:
            z[n:] = xis[k]
        np.multiply(c, zs, out=prods)
        np.add(prods[0], 0.0, out=x)
        for term in terms:
            x += term
        x += gk
        if paths is not None:
            paths[:, k + 1, :] = x.T
        if not np.dot(flat, flat) <= clear:
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

    The trusted range is tested once per block of ``CHAIN_BLOCK`` steps,
    on the whole block; when that fails, the first failing step of the
    block is found and the chain stops.  Steps past it inside the block
    are chained under a silenced overflow, so an overflow is reported by
    the range test, not by a floating-point warning.  Returns the
    (steps+1, ...) stack and the first failing step, or -1; rows past the
    failing step are not meaningful.
    """
    y = np.empty((t.shape[0] + 1, *np.shape(y0)))
    y[0] = y0
    # Views made once: indexing per step costs more than the matmul.
    rows, maps = list(y), list(t)
    offsets = None if c is None else list(c)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(maps), CHAIN_BLOCK):
            stop = min(start + CHAIN_BLOCK, len(maps))
            for k in range(start, stop):
                np.matmul(maps[k], rows[k], out=rows[k + 1])
                if offsets is not None:
                    rows[k + 1] += offsets[k]
            block = y[start + 1:stop + 1]
            # NaN makes both comparisons false.
            if not (block.max(initial=-limit) <= limit
                    and block.min(initial=limit) >= -limit):
                flat = np.abs(block.reshape(stop - start, -1))
                return y, start + int(np.argmax(~(flat <= limit).all(axis=1)))
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

    The prescaled maps ``[M_k | G_k]`` and ``g_k`` of every step are built
    once from the arguments, and each step is
    ``x <- M_k x + G_k xi_k + g_k`` in the contract's order.

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
    dl = dlam[:, None, None]
    # [M_k | G_k] with M_k = I + dl A_k and G_k = sqrt(dl) q_k, as
    # (steps, n+m, n, 1): entry [k, j, i] multiplies z[j] into x[i].
    coef = np.concatenate([np.eye(x.shape[0]) + dl * _contig(a_all),
                           np.sqrt(dl) * _contig(q_all)], axis=2)
    coef = np.ascontiguousarray(coef.transpose(0, 2, 1))[..., None]
    g = dl * _contig(b_all)[:, :, None]
    x, code, step, particle = _em(x, coef, g, _contig(noise), limit, paths)
    return np.ascontiguousarray(x.T), paths, code, step, particle


def rk4_propagate(x0, a_nodes, b_nodes, a_mids, b_mids, dlam,
                  record: bool = False, limit: float = STATE_LIMIT):
    """Classic fourth-order propagation for zero-diffusion flows.

    Shapes follow :func:`em_propagate` with drift coefficients supplied
    at the nodes and at the step midpoints.  The RK4 maps
    ``x -> T_k x + c_k`` of :func:`_rk4_maps` are chained once, as the
    augmented matrices ``[[T_k, c_k], [0, 1]]``, into
    ``x_k = Phi_k x_0 + d_k``; the states at step k are ``Phi_k`` and
    ``d_k`` applied to every column in the contract's order, so a
    particle's result does not depend on the rest of the ensemble.

    Divergence is judged on those states.  A step whose bound
    ``|Phi_k|_inf max|x_0| + |d_k|_inf`` stays within ``limit / 2`` cannot
    fail; the states of every other step are formed and tested in step
    order, so the reported (step, particle) is the smallest that fails.
    """
    dlam = _contig(dlam)
    x, paths = _columns(x0, dlam.shape[0], record)
    n, steps = x.shape[0], dlam.shape[0]
    t, c = _rk4_maps(a_nodes, a_mids, dlam, b_nodes, b_mids)
    aug = np.zeros((steps, n + 1, n + 1))
    aug[:, :n, :n] = t
    aug[:, :n, n] = c
    aug[:, n, n] = 1.0
    # The chain only needs to stay finite; a non-finite Phi_k or d_k makes
    # every state at step k non-finite.
    chained, bad = _chain(aug, np.eye(n + 1), limit=np.finfo(np.float64).max)
    phi, d = chained[1:, :n, :n], chained[1:, :n, n]
    with np.errstate(over="ignore", invalid="ignore"):
        bound = (np.abs(phi).sum(axis=2).max(axis=1, initial=0.0)
                 * np.abs(x).max(initial=0.0)
                 + np.abs(d).max(axis=1, initial=0.0))
    flagged = ~(bound <= 0.5 * limit)  # NaN bounds are flagged
    if bad >= 0:
        flagged[bad:] = True  # rows past a non-finite Phi are not meaningful
    if record:
        states = np.empty((steps, n, x.shape[1]))
        _affine(phi, x, states, np.empty_like(states), d)
        paths[:, 1:, :] = states.transpose(2, 0, 1)
    y, tmp = np.empty_like(x), np.empty_like(x)
    for k in np.flatnonzero(flagged):
        if record:
            y = states[k]
        else:
            _affine(phi[k], x, y, tmp, d[k])
        code, particle = _first_bad(y, limit)
        if code:
            return np.ascontiguousarray(y.T), paths, code, int(k), particle
    if record:
        y = states[-1]
    else:
        _affine(phi[-1], x, y, tmp, d[-1])
    return np.ascontiguousarray(y.T), paths, 0, -1, -1
