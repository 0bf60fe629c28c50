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

Both schemes run on one engine, ``_affine_run``, because every step of
either is an affine map ``x -> M_k x + G_k xi_k + g_k`` of the state
and the noise.  Euler-Maruyama on ``dx = (A x + b) dlam + q dW`` passes
the prescaled ``M_k = I + dlam_k A_k``, ``G_k = sqrt(dlam_k) q_k`` and
``g_k = dlam_k b_k``; classic RK4 on a zero-diffusion flow passes its
maps ``T_k``, ``c_k`` with no noise (m = 0).  A whole run is then affine
in the start and the noise: ``x_N = Phi_N x_0 + sum_j W_j xi_j + d_N``
with ``W_j = M_{N-1} ... M_{j+1} G_j``.  The engine chains the augmented
maps backwards once into ``C = [Phi_N | W_0 ... W_{N-1}]`` and ``d_N``
and applies them to every column as one contract-order sum over
``[x_0; xi_0; ...; xi_{N-1}]``.  Divergence is screened per particle by
a bound ``alpha max|x_0| + beta max|xi| + gamma`` on all of its states;
a particle the bound does not clear is stepped through the maps one at
a time, which names the smallest failing (step, particle).  A recorded
run steps every particle for its path and keeps the collapsed terminal
at the last node of each particle the bound clears.

Every drift here is affine, so one classic RK4 step of any deterministic
solve is an affine map ``y -> T_k y + c_k``.  ``_rk4_maps`` builds the
maps of all steps in one batched pass and is the only RK4 formula, and
``_chain`` steps one vector or matrix through them, testing the trusted
range once per block of steps.  The moment ODEs and the error dynamics
chain their own solutions through it.

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


def _em(x, mk, gk, g, noise, limit, paths):
    """Step the (n, N) states through ``x <- M_k x + G_k xi_k + g_k``,
    given the (steps, n, n), (steps, n, m) and (steps, n) stacks of
    ``M_k``, ``G_k`` and ``g_k``.

    ``z = [x; xi_k]`` lives in one (n+m, N) buffer and ``coef[k]`` is
    ``[M_k | G_k]`` transposed to (n+m, n, 1), so one product with
    ``z[:, None, :]`` forms every term of the step.  The terms are summed
    into ``x = z[:n]`` from +0.0 with the column index ascending, and g_k
    comes last.  ``x . x <= limit**2 / 4`` clears every state of a step
    at once (NaN fails it); the exact test runs only when it fails.
    """
    n, m = gk.shape[1:]
    coef = np.concatenate([mk, gk], axis=2)
    coef = np.ascontiguousarray(coef.transpose(0, 2, 1))[..., None]
    g = g[:, :, None]
    z = np.empty((n + m, x.shape[1]))
    z[:n] = x
    x, flat, zs = z[:n], z[:n].reshape(-1), z[:, None, :]
    prods = np.empty((n + m, n, x.shape[1]))
    terms, xis = list(prods)[1:], list(noise)
    clear = 0.25 * limit * limit
    for k, (c, offset) in enumerate(zip(coef, g)):
        if m:
            z[n:] = xis[k]
        np.multiply(c, zs, out=prods)
        np.add(prods[0], 0.0, out=x)
        for term in terms:
            x += term
        x += offset
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


def _em_collapse(mk, gk, g):
    """A whole run of the maps as one affine map of ``[x_0; xi]``.

    Returns ``ct``, the transpose of ``C = [Phi_N | W_0 ... W_{N-1}]``
    with ``W_j = M_{N-1} ... M_{j+1} G_j``, as (n + steps m, n), and
    ``d_N``, so that ``x_N = C [x_0; xi_0; ...; xi_{N-1}] + d_N``; or
    (None, None) when the chained maps leave the finite range.  The
    augmented maps ``[[M_k, g_k], [0, 1]]`` are chained backwards, as
    transposes, so ``tails[k]`` is ``(A_{N-1} ... A_{N-k})^T``.
    """
    steps, n, m = gk.shape
    aug = np.zeros((steps, n + 1, n + 1))
    aug[:, :n, :n] = mk[::-1].transpose(0, 2, 1)
    aug[:, n, :n] = g[::-1]
    aug[:, n, n] = 1.0
    tails, bad = _chain(aug, np.eye(n + 1), limit=np.finfo(np.float64).max)
    if bad >= 0:
        return None, None
    ct = np.empty((n + steps * m, n))
    ct[:n] = tails[steps, :n, :n]
    ct[n:] = np.matmul(gk.transpose(0, 2, 1),
                       tails[steps - 1::-1, :n, :n]).reshape(steps * m, n)
    return ct, tails[steps, n, :n]


def _em_bound(mk, gk, g):
    """Largest ``alpha_k``, ``beta_k`` and ``gamma_k`` of the recursions
    ``alpha_{k+1} = |M_k| alpha_k``, ``beta_{k+1} = |M_k| beta_k + |G_k|``
    and ``gamma_{k+1} = |M_k| gamma_k + |g_k|`` (infinity norms, from 1, 0
    and 0), so that every state of a particle satisfies
    ``|x_k| <= alpha max|x_0| + beta max|xi| + gamma``.  A NaN norm makes
    the result NaN.
    """
    norms = zip(np.abs(mk).sum(axis=2).max(axis=1).tolist(),
                np.abs(gk).sum(axis=2).max(axis=1).tolist(),
                np.abs(g).max(axis=1).tolist())
    alpha, beta, gamma = 1.0, 0.0, 0.0
    seen = [(alpha, beta, gamma)]
    # Python floats: an overflow gives inf and never a warning.
    for m_norm, g_norm, b_norm in norms:
        alpha, beta, gamma = (m_norm * alpha, m_norm * beta + g_norm,
                              m_norm * gamma + b_norm)
        seen.append((alpha, beta, gamma))
    return np.max(seen, axis=0)


def _em_flagged(x, xi, coeffs, limit):
    """Particles whose bound ``alpha max|x_0,i| + beta max_j|xi_j,i| + gamma``
    is not within ``limit / 2`` (NaN counts as not).

    The bound rises with both maxima, so one chunk-wide bound that passes
    clears every particle.  Its noise maximum is the root of the sum of
    squares, raised by 1e-6 to cover that sum's rounding.
    """
    alpha, beta, gamma = coeffs
    half = 0.5 * limit
    flat = xi.reshape(-1)
    noise_max = np.sqrt(np.dot(flat, flat)) * (1.0 + 1e-6)
    if alpha * np.abs(x).max(initial=0.0) + beta * noise_max + gamma <= half:
        return np.zeros(x.shape[1], dtype=bool)
    x_max = np.maximum(x.max(axis=0), -x.min(axis=0))
    xi_max = np.maximum(xi.max(axis=0, initial=0.0), -xi.min(axis=0, initial=0.0))
    return ~(alpha * x_max + beta * xi_max + gamma <= half)


# Entries of the product buffer of ``_em_apply`` (512 KB, so it stays in
# cache between the multiply and the adds).
_TERM_BLOCK = 1 << 16


def _em_apply(ct, d, x, xi, out):
    """``out = C [x; xi] + d`` for every column, in the contract's order.

    Each entry starts at +0.0 and adds its terms with the index of
    ``[x; xi]`` ascending, then d.  The products of a block of terms are
    formed by one multiply; the sum stays one term at a time.
    """
    n = x.shape[0]
    per = max(1, _TERM_BLOCK // max(out.size, 1))
    prods = np.empty((min(per, ct.shape[0]), *out.shape))
    out[...] = 0.0
    for coef, z in ((ct[:n], x), (ct[n:], xi)):
        for start in range(0, z.shape[0], per):
            stop = min(start + per, z.shape[0])
            block = prods[:stop - start]
            np.multiply(coef[start:stop, :, None], z[start:stop, None, :],
                        out=block)
            for term in block:
                out += term
    out += d[:, None]


def _contig(a):
    return np.ascontiguousarray(a, dtype=np.float64)


def _affine_run(x0, mk, gk, g, noise, record, limit):
    """Propagate the (N, n) states through ``x <- M_k x + G_k xi_k + g_k``,
    given the (steps, n, n), (steps, n, m) and (steps, n) stacks of
    ``M_k``, ``G_k`` and ``g_k`` and the (steps, m, N) noise; m may be 0.

    The maps are collapsed by :func:`_em_collapse` into
    ``x_N = C [x_0; xi_0; ...; xi_{N-1}] + d_N``, which :func:`_em_apply`
    applies to every column in the contract's order.  Divergence is
    judged per particle by the bound of :func:`_em_bound`: a particle
    whose bound stays within ``limit / 2`` cannot leave the limit at any
    step.  Every other particle, and every particle when the chained maps
    are not finite, is stepped through the maps by :func:`_em`, which
    names the smallest failing (step, particle).  With ``record``, every
    particle is stepped for the path, and the last node holds the
    collapsed terminal unless the particle was flagged, so a particle's
    result depends only on its own data.
    """
    x = np.array(np.atleast_2d(x0).T, dtype=np.float64, order="C")
    steps, m, count = noise.shape
    paths = None
    if record:
        paths = np.empty((count, steps + 1, x.shape[0]))
        paths[:, 0, :] = x.T
    xi = noise.reshape(steps * m, count)  # row k m + l is xi_k[l]
    out = np.empty_like(x)
    # An overflow is reported through the divergence code, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        ct, d = _em_collapse(mk, gk, g)
        if ct is None:
            flagged = np.ones(count, dtype=bool)
        else:
            flagged = _em_flagged(x, xi, _em_bound(mk, gk, g), limit)
            _em_apply(ct, d, x, xi, out)
        code, step, particle = 0, -1, -1
        if record:
            last, code, step, particle = _em(x, mk, gk, g, noise, limit, paths)
            if code:
                out = last
            else:
                out[:, flagged] = last[:, flagged]
                paths[:, -1, :] = out.T
        elif flagged.any():
            idx = np.flatnonzero(flagged)
            out[:, idx], code, step, particle = _em(x[:, idx], mk, gk, g,
                                                    noise[:, :, idx], limit, None)
            if code:
                particle = int(idx[particle])
    return np.ascontiguousarray(out.T), paths, code, step, particle


def em_propagate(x0, a_all, b_all, q_all, noise, dlam, record: bool = False,
                 limit: float = STATE_LIMIT):
    """Euler-Maruyama propagation of an ensemble through all steps.

    The prescaled maps ``M_k = I + dlam_k A_k``, ``G_k = sqrt(dlam_k) q_k``
    and ``g_k = dlam_k b_k`` of every step are built once from the
    arguments and run by :func:`_affine_run`.

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
    dl = _contig(dlam)[:, None, None]
    a_all = _contig(a_all)
    mk = np.eye(a_all.shape[1]) + dl * a_all
    gk = np.sqrt(dl) * _contig(q_all)
    g = dl[:, :, 0] * _contig(b_all)
    return _affine_run(x0, mk, gk, g, _contig(noise), record, limit)


def rk4_propagate(x0, a_nodes, b_nodes, a_mids, b_mids, dlam,
                  record: bool = False, limit: float = STATE_LIMIT):
    """Classic fourth-order propagation for zero-diffusion flows.

    Shapes and returns follow :func:`em_propagate` with drift
    coefficients supplied at the nodes and at the step midpoints.  The
    RK4 maps ``x -> T_k x + c_k`` of :func:`_rk4_maps` are run by
    :func:`_affine_run` as the noise-free case, m = 0.
    """
    t, c = _rk4_maps(a_nodes, a_mids, _contig(dlam), b_nodes, b_mids)
    steps, n = c.shape
    count = np.atleast_2d(x0).shape[0]
    return _affine_run(x0, t, np.zeros((steps, n, 0)), c,
                       np.zeros((steps, 0, count)), record, limit)
