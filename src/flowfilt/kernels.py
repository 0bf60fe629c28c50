"""Hot propagation loops: the collapsed law of an affine run, and the one
stepper, which forms terminals, records paths and names divergences.

Every step of either scheme is an affine map ``x -> M_k x + G_k xi_k + g_k``
of the state and the noise, and ``_em`` is the only code that applies one.
Euler-Maruyama on ``dx = (A x + b) dlam + q dW`` passes the prescaled
``M_k = I + dlam_k A_k``, ``G_k = sqrt(dlam_k) q_k`` and ``g_k = dlam_k b_k``
(:func:`_em_maps`); classic RK4 on a zero-diffusion flow passes its maps
``T_k``, ``c_k`` with no noise (m = 0).  With its start fixed, a run is
affine in its Gaussian noise: ``x_N = Phi_N x_0 + sum_j W_j xi_j + d_N``
with ``W_j = M_{N-1} ... M_{j+1} G_j``.  Its terminal therefore has the
law ``N(Phi_N x_0 + d_N, Sigma)`` with ``Sigma = sum_j W_j W_j^T``, and one
particle needs only ``r = rank Sigma <= n`` normals ``eta``:
``x_N = Phi_N x_0 + F eta + d_N`` with ``F F^T = Sigma``.  :func:`_em_law`
scans the augmented maps backwards once into ``Phi_N``, ``d_N`` and W,
sums Sigma in a fixed order and factors it into F with
:func:`~flowfilt.flows.diffusion_factor`; the caller draws eta, and
:func:`_affine_run` forms the terminal as one ``_em`` step on the map
``[Phi_N | F]``, ``d_N`` with eta as its noise.  RK4 is the r = 0 case of
that run, and :func:`em_propagate` its law-free case, which steps every
particle on the caller's increments.

Inside the kernels the ensemble is column-major: states are (n, N) and
per-step increments (steps, m, N), so each operation runs over all
particles at once.  Callers keep the row layout: states go in and come
out as (N, n), and recorded paths are (N, steps+1, n), filled in place.

The accumulation order is part of the contract, because ensemble row i
must equal a single-particle run bit for bit.  Every step, the terminal
included, starts at +0.0, adds the terms of ``[x; xi_k]`` with the
column index ascending and adds ``g_k`` last.  Every operation is
elementwise across columns, so a particle's result does not depend on the
other particles.  Noise is never generated here; callers pass
precomputed normal draws.

A recorded run, and every particle that the divergence rule flags, is
stepped through the maps by ``_em`` along a *bridge*: per-step increments
``xi = zeta + U^T (eta - U zeta)`` with ``U = F^+ W`` (:func:`_bridge`).
Given eta they are standard normal conditioned on ``W xi = F eta``, so the
stepped path is an Euler-Maruyama path that ends, to rounding, on the
collapsed terminal; the last node holds the collapsed terminal itself.

Divergence rule.  The ensemble forms no intermediate state, so it judges:
- the law: a bound on ``|Phi_k|``, ``|d_k|`` and the entries of
  ``Sigma_k`` at every step k (:func:`_law_trusted`).  When it leaves the
  trusted range, or the chained maps leave the float range, every
  particle is flagged;
- each particle: its start and its terminal.  A particle whose start or
  terminal leaves the trusted range is flagged.
Flagged particles are stepped along their bridges, which names the
smallest failing (step, particle); a particle whose stepped path stays in
range but whose terminal does not is reported at the last step.  A
flagged particle that does not fail keeps its collapsed terminal.  When
the chained maps are not finite there is no law, and every particle ends
on its stepped state, as in a law-free run.

One range test, :func:`_first_bad` on :func:`_in_range`, names every
failure: ``_em``'s after each step (behind an ``x . x`` screen),
``_scan``'s on its prefixes, and ``_affine_run``'s at the start and the
terminal.  Only ``_scan`` takes a limit: the law's backward chain and the
moment ODEs test the float range, all else ``STATE_LIMIT``.

Every drift here is affine, so one classic RK4 step of any deterministic
solve is an affine map ``y -> T_k y + c_k``, and of the covariance ODE
``dS = (A S + S A^T + Q) dlam`` the map ``S -> T_k S T_k^T + S_k`` to
fourth order.  ``_rk4_maps`` and ``_rk4_noise`` build the maps of all
steps in batched passes from one stage formula, ``_rk4_offsets``.  The
elements ``(T_k, c_k, S_k)`` compose associatively, so ``_scan`` forms
every prefix ``(Phi_k, d_k, Sigma_k)`` in about 2 log2(steps) batched
passes.  It is the only chain: the moment ODEs, the error dynamics and
the law's backward chain read their solutions off it.  A scan that
leaves the range composes its elements one step at a time instead, so
the first prefix that leaves it names the failing step.

Kernel return convention: ``(code, step, particle)`` where code 0 means
success, 1 a non-finite state and 2 a norm overflow.  The reported pair
is the lexicographically smallest (step, particle) that failed.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .flows import diffusion_factor

# States with any coordinate beyond this magnitude count as diverged.
STATE_LIMIT = 1e12
# Particles per block of the collapsed terminal step.
TERMINAL_BLOCK = 1024
# Per-step increments of one block of flagged particles, in float64 entries.
STEP_BUDGET = 1 << 21

NUMBA_AVAILABLE = False  # kept for perfbench/run.py, which reads it


def active_backend() -> str:  # kept for perfbench/run.py, which reads it
    return "numpy"


def warmup() -> None:  # kept for perfbench/run.py, which calls it
    pass


def _in_range(x, limit):
    """Columns of x with every entry within the limit (NaN is not)."""
    return (np.abs(x) <= limit).all(axis=0)


def _first_bad(x, limit):
    """(code, column) of the first column of x with a non-finite entry,
    code 1, or one past the limit, code 2; or (0, -1)."""
    # One whole-array test first; NaN makes the comparisons false.
    if x.max(initial=-limit) <= limit and x.min(initial=limit) >= -limit:
        return 0, -1
    i = int(np.argmin(_in_range(x, limit)))
    return (2 if np.isfinite(x[:, i]).all() else 1), i


def _em(x, mk, gk, g, noise, paths):
    """Step the (n, N) states through ``x <- M_k x + G_k xi_k + g_k``,
    given the (steps, n, n), (steps, n, m) and (steps, n) stacks of
    ``M_k``, ``G_k`` and ``g_k``.

    ``z = [x; xi_k]`` lives in one (n+m, N) buffer and ``coef[k]`` is
    ``[M_k | G_k]`` transposed to (n+m, n, 1), so one product with
    ``z[:, None, :]`` forms every term of the step.  One reduction over
    the term axis sums them into ``x = z[:n]`` from +0.0 with the column
    index ascending, and g_k comes last.  One particle with n = 1 gets a
    second, zero column, since its terms would otherwise reduce as one
    contiguous vector, which numpy sums pairwise.
    ``x . x <= STATE_LIMIT**2 / 4`` clears every state of a step at once
    (NaN fails it); :func:`_first_bad` runs only when it fails.
    """
    n, m = gk.shape[1:]
    count = x.shape[1]
    coef = np.concatenate([mk, gk], axis=2)
    coef = np.ascontiguousarray(coef.transpose(0, 2, 1))[..., None]
    g = g[:, :, None]
    z = np.zeros((n + m, 2 if n == count == 1 else count))
    z[:n, :count] = x
    sums, zs = z[:n], z[:, None, :]
    x, xi, flat = sums[:, :count], z[n:, :count], sums.reshape(-1)
    prods = np.empty((n + m, *sums.shape))
    xis = list(noise)
    clear = 0.25 * STATE_LIMIT * STATE_LIMIT
    for k, (c, offset) in enumerate(zip(coef, g)):
        if m:
            xi[...] = xis[k]
        np.multiply(c, zs, out=prods)
        np.add.reduce(prods, axis=0, initial=0.0, out=sums)
        x += offset
        if paths is not None:
            paths[:, k + 1, :] = x.T
        if not np.dot(flat, flat) <= clear:
            code, particle = _first_bad(x, STATE_LIMIT)
            if code:
                return x, code, k, particle
    return x, 0, -1, -1


def _rk4_offsets(apply, a_nodes, a_mids, h, b_nodes, b_mids):
    """The offset of one classic RK4 step of ``y' = apply(A, y) + b`` taken
    from y = 0, for every step at once; h broadcasts against y.

    The stage slopes are ``c1 = b_k``, ``c2 = apply(A_mid, h/2 c1) + b_mid``,
    ``c3 = apply(A_mid, h/2 c2) + b_mid`` and
    ``c4 = apply(A_{k+1}, h c3) + b_{k+1}``; the offset is
    ``h/6 (c1 + 2 c2 + 2 c3 + c4)``.
    """
    c1 = b_nodes[:-1]
    c2 = apply(a_mids, (0.5 * h) * c1) + b_mids
    c3 = apply(a_mids, (0.5 * h) * c2) + b_mids
    c4 = apply(a_nodes[1:], h * c3) + b_nodes[1:]
    return (((c1 + 2.0 * c2) + 2.0 * c3) + c4) * (h / 6.0)


def _rk4_maps(a_nodes, a_mids, dlam, b_nodes=None, b_mids=None):
    """One classic RK4 step of ``y' = A y + b`` as the affine map
    ``y -> T_k y + c_k``, for every step at once.

    The stage slopes are affine in y, ``k_i = K_i y + c_i``, with
    ``K1 = A_k``, ``K2 = A_mid (I + h/2 K1)``, ``K3 = A_mid (I + h/2 K2)``
    and ``K4 = A_{k+1} (I + h K3)``; ``T = I + h/6 (K1 + 2 K2 + 2 K3 + K4)``
    and c is :func:`_rk4_offsets` of b.  Returns T (steps, n, n) and c
    (steps, n), or None for c without b.

    Overflow is silent here: a step past the one where the caller's chain
    stops may overflow, and the caller's range test catches any
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
        return t, _rk4_offsets(lambda a, y: (a @ y[:, :, None])[:, :, 0],
                               a_nodes, a_mids, h[:, :, 0], b_nodes, b_mids)


def _lyapunov(a, s):
    """``A S + S A^T`` for stacks of A and symmetric S."""
    a_s = a @ s
    return a_s + np.swapaxes(a_s, 1, 2)


def _rk4_noise(a_nodes, a_mids, dlam, q_nodes, q_mids):
    """The covariance ``S_k`` that one classic RK4 step of
    ``dS = (A S + S A^T + Q) dlam`` adds from ``S = 0``, (steps, n, n).

    With :func:`_rk4_maps`' ``T_k``, the step ``S -> T_k S T_k^T + S_k``
    is a fourth-order step of that ODE from any S, so ``(T_k, c_k, S_k)``
    is the affine element of one moment step.
    """
    h = np.asarray(dlam, dtype=np.float64)[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        return _rk4_offsets(_lyapunov, a_nodes, a_mids, h, q_nodes, q_mids)


def _compose(later, earlier):
    """The elements ``(Phi, d, S)`` of ``later`` after ``earlier``:
    ``(Phi_2 Phi_1, Phi_2 d_1 + d_2, Phi_2 S_1 Phi_2^T + S_2)``, on stacks
    or single elements; a part that is None stays None."""
    f2, d2, s2 = later
    f1, d1, s1 = earlier
    d = None if d2 is None else np.einsum("...ij,...j->...i", f2, d1) + d2
    # A transposed view would make matmul leave BLAS.
    s = None if s2 is None else (
        f2 @ s1 @ np.ascontiguousarray(np.swapaxes(f2, -1, -2)) + s2)
    return f2 @ f1, d, s


def _take(parts, index):
    return [None if x is None else x[index] for x in parts]


def _prefixes(parts):
    """Inclusive prefixes ``E_k o ... o E_0`` of the element stacks.

    Pairs ``E_{2j+1} o E_{2j}`` are composed in one batched pass, their
    prefixes (the odd ones) found recursively, and each even prefix is
    ``E_{2j}`` after the odd one before it: about 2 log2(steps) passes and
    two compositions per element in all.
    """
    length = parts[0].shape[0]
    if length == 1:
        return parts
    pairs = 2 * (length // 2)
    odd = _prefixes(list(_compose(_take(parts, slice(1, pairs, 2)),
                                  _take(parts, slice(0, pairs, 2)))))
    even = _compose(_take(parts, slice(2, None, 2)),
                    _take(odd, slice(0, (length - 1) // 2)))
    out = []
    for x, o, e in zip(parts, odd, even):
        if x is not None:
            x, first = np.empty_like(x), x[0]
            x[0], x[1::2], x[2::2] = first, o, e
        out.append(x)
    return out


def _scan(t, c=None, s=None, limit=STATE_LIMIT):
    """Every prefix ``E_{k-1} o ... o E_0`` of the affine elements
    ``E_k = (T_k, c_k, S_k)`` (:func:`_compose`), as (steps+1, ...) stacks
    of ``Phi_k``, ``d_k`` and ``Sigma_k`` that start from the identity
    element ``(I, 0, 0)``.  c and S may be None, and so are their stacks.

    :func:`_prefixes` finds them in about 2 log2(steps) batched passes
    instead of a chain of steps.  Those passes form products of
    sub-ranges, which can leave the float range where no prefix does (a
    1e-200 map before a 1e200 map); so when a scanned prefix leaves the
    range, the elements are composed again one step at a time, and the
    first prefix that leaves it names the failing step.  Returns
    ``(phi, d, sigma, bad)`` with bad that step or -1; rows past it are
    not meaningful.
    """
    steps, n = t.shape[:2]
    parts = []
    for part, first in ((t, np.eye(n)), (c, 0.0), (s, 0.0)):
        if part is not None:
            stack = np.empty((steps + 1, *part.shape[1:]))
            stack[0] = first
            stack[1:] = part
            part = stack
        parts.append(part)
    # An overflow is reported through the range test, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        pre = _prefixes(parts)
        code, bad = _first_bad(_rows(pre), limit)
        if code:
            for k in range(1, steps + 1):
                for stack, part in zip(pre, _compose(_take(parts, k),
                                                     _take(pre, k - 1))):
                    if stack is not None:
                        stack[k] = part
            code, bad = _first_bad(_rows(pre), limit)
    return (*pre, bad - 1 if code else -1)


def _rows(stacks):
    """The stacks as one column per row, for :func:`_first_bad`."""
    return np.concatenate([x.reshape(x.shape[0], -1) for x in stacks
                           if x is not None], axis=1).T


def _contig(a):
    return np.ascontiguousarray(a, dtype=np.float64)


def _em_maps(a_all, b_all, q_all, dlam):
    """The prescaled Euler-Maruyama maps ``M_k = I + dlam_k A_k``,
    ``G_k = sqrt(dlam_k) q_k`` and ``g_k = dlam_k b_k`` of every step."""
    dl = _contig(dlam)[:, None, None]
    a_all = _contig(a_all)
    mk = np.eye(a_all.shape[1]) + dl * a_all
    gk = np.sqrt(dl) * _contig(q_all)
    g = dl[:, :, 0] * _contig(b_all)
    return mk, gk, g


def _em_collapse(mk, gk, g):
    """A whole run of the maps as one affine map of ``[x_0; xi]``.

    Returns ``ct``, the transpose of ``C = [Phi_N | W_0 ... W_{N-1}]``
    with ``W_j = M_{N-1} ... M_{j+1} G_j``, as (n + steps m, n), and
    ``d_N``, so that ``x_N = C [x_0; xi_0; ...; xi_{N-1}] + d_N``; or
    (None, None) when the chained maps leave the finite range.  The
    transposes of the augmented maps ``A_k = [[M_k, g_k], [0, 1]]`` are
    scanned in reverse order (:func:`_scan`), so ``tails[k]`` is
    ``(A_{N-1} ... A_{N-k})^T``.
    """
    steps, n, m = gk.shape
    aug = np.zeros((steps, n + 1, n + 1))
    aug[:, :n, :n] = mk[::-1].transpose(0, 2, 1)
    aug[:, n, :n] = g[::-1]
    aug[:, n, n] = 1.0
    tails, _, _, bad = _scan(aug, limit=np.finfo(np.float64).max)
    if bad >= 0:
        return None, None
    ct = np.empty((n + steps * m, n))
    ct[:n] = tails[steps, :n, :n]
    ct[n:] = np.matmul(gk.transpose(0, 2, 1),
                       tails[steps - 1::-1, :n, :n]).reshape(steps * m, n)
    return ct, tails[steps, n, :n]


def _law_trusted(mk, gk, g):
    """Whether bounds on ``|Phi_k|``, ``|d_k|`` and the entries of
    ``Sigma_k`` stay within ``STATE_LIMIT`` at every step (NaN does not).

    With the infinity norms ``mu_k = |M_k|``, ``gamma_k = |G_k|`` and
    ``beta_k = max|g_k|``, ``Phi_{k+1} = M_k Phi_k``,
    ``d_{k+1} = M_k d_k + g_k`` and ``Sigma_{k+1} = M_k Sigma_k M_k^T +
    G_k G_k^T`` give ``|Phi_k| <= a_k = mu_0 ... mu_{k-1}``,
    ``|d_k| <= a_k sum_{j<k} beta_j / a_{j+1}`` and, since a PSD matrix's
    largest entry is on its diagonal, ``|Sigma_k| <= a_k^2 sum_{j<k}
    (gamma_j / a_{j+1})^2``.  Cumulative products and sums give every k at
    once; an underflow of ``a`` makes a bound inf or NaN, which only
    flags more.
    """
    with np.errstate(all="ignore"):
        a = np.cumprod(np.abs(mk).sum(axis=2).max(axis=1))
        d = a * np.cumsum(np.abs(g).max(axis=1) / a)
        s = a * a * np.cumsum(np.square(np.abs(gk).sum(axis=2).max(axis=1) / a))
        return bool(np.max([a.max(), d.max(), s.max()]) <= STATE_LIMIT)


class _Law(NamedTuple):
    """The maps of a run and the law of its terminal given its start.

    ``ct`` is ``[Phi_N^T; W^T]`` of :func:`_em_collapse`, ``sigma`` is
    ``W W^T`` and ``f`` its (n, r) factor.  ``ct``, ``d`` and ``sigma``
    are None in a law-free run and when the chained maps leave the float
    range; f has no columns then, and when m = 0 or Sigma is not finite
    (such a law is never trusted).
    """

    mk: np.ndarray
    gk: np.ndarray
    g: np.ndarray
    ct: np.ndarray
    d: np.ndarray
    sigma: np.ndarray
    f: np.ndarray
    trusted: bool


def _em_law(mk, gk, g):
    """Chain the maps into ``Phi_N``, ``d_N`` and W once, sum
    ``Sigma = W W^T`` and factor it as ``F F^T``.

    The sum runs over the columns of W in ascending order with no BLAS
    call (einsum without optimization), so Sigma is exactly symmetric and
    does not depend on the thread count.
    """
    n, m = gk.shape[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        ct, d = _em_collapse(mk, gk, g)
        trusted = ct is not None and _law_trusted(mk, gk, g)
        sigma, f = None, np.zeros((n, 0))
        if ct is not None:
            sigma = np.einsum("ki,kj->ij", ct[n:], ct[n:], optimize=False)
            if m and np.isfinite(sigma).all():
                f = diffusion_factor(sigma)
    return _Law(mk, gk, g, ct, d, sigma, f, trusted)


def _bridge_basis(law):
    """``U^T = W^T (F^+)^T`` as (steps m, r), with ``F^+ = diag(1/|f_c|^2) F^T``
    (the columns of F are orthogonal).  Summed over the n columns of W
    in ascending order, without BLAS."""
    steps, n, m = law.gk.shape
    ut = np.zeros((steps * m, law.f.shape[1]))
    if not law.f.shape[1]:
        return ut
    fp = law.f / np.einsum("jc,jc->c", law.f, law.f)
    for j, col in enumerate(law.ct[n:].T):
        ut += col[:, None] * fp[j]
    return ut


def _bridge(ut, eta, zeta):
    """Increments ``xi = zeta + U^T (eta - U zeta)`` of one particle.

    For ``zeta ~ N(0, I)`` independent of eta, xi is standard normal and
    ``U xi = eta``; with ``W = F U`` that gives ``W xi = F eta``, so the
    stepped run ends on the collapsed terminal up to rounding.  The sums
    are fixed-order numpy reductions, never BLAS.
    """
    resid = eta - np.einsum("kc,k->c", ut, zeta, optimize=False)
    xi = zeta.copy()
    for c, col in enumerate(ut.T):
        xi += col * resid[c]
    return xi


def _affine_run(x0, law, eta, increments, record=False):
    """Propagate the (N, n) states to the terminal ``Phi x0 + F eta + d``,
    one :func:`_em` step on ``[Phi_N | F]``, ``d_N`` with the (r, N) draws
    eta as its noise, taken in blocks of ``TERMINAL_BLOCK`` particles.

    ``increments(idx)`` returns the (steps, m, len(idx)) increments of
    the particles idx, along which flagged particles (see the module
    docstring) are stepped in blocks of ``STEP_BUDGET`` increments; with
    ``record`` every particle is stepped for its path, whose last node
    holds the terminal.  Returns ``(states, paths, code, step, particle)``.
    """
    x = np.array(np.atleast_2d(x0).T, dtype=np.float64, order="C")
    n, count = x.shape
    steps, _, m = law.gk.shape
    paths = None
    if record:
        paths = np.empty((count, steps + 1, n))
        paths[:, 0, :] = x.T
    code, step, particle = 0, -1, -1
    out = np.empty_like(x)
    # An overflow is reported through the divergence code, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if law.ct is not None:
            phi = law.ct[None, :n].transpose(0, 2, 1)
            for start in range(0, count, TERMINAL_BLOCK):
                cols = slice(start, start + TERMINAL_BLOCK)
                out[:, cols] = _em(x[:, cols], phi, law.f[None], law.d[None],
                                   eta[None, :, cols], None)[0]
        if record or not law.trusted:
            idx = np.arange(count)
        else:
            idx = np.flatnonzero(~(_in_range(x, STATE_LIMIT)
                                   & _in_range(out, STATE_LIMIT)))
        width = max(1, len(idx) if record else STEP_BUDGET // max(steps * m, 1))
        for start in range(0, len(idx), width):
            cols = idx[start:start + width]
            last, bad, at, which = _em(x[:, cols], law.mk, law.gk, law.g,
                                       increments(cols), paths)
            if law.ct is None:
                out[:, cols] = last
            if bad and (not code or (at, cols[which]) < (step, particle)):
                code, step, particle = bad, at, int(cols[which])
        bad, which = _first_bad(out[:, idx], STATE_LIMIT)
        if bad and (not code or (steps - 1, idx[which]) < (step, particle)):
            code, step, particle = bad, steps - 1, int(idx[which])
    if record and not code:
        paths[:, -1, :] = out.T
    return np.ascontiguousarray(out.T), paths, code, step, particle


def em_propagate(x0, a_all, b_all, q_all, noise, dlam, record: bool = False):
    """Euler-Maruyama on caller-given increments: the law-free run of
    :func:`_affine_run` on the maps of :func:`_em_maps`.

    Args:
        x0: (N, n) initial states.
        a_all, b_all: (steps, n, n) and (steps, n) drift coefficients at
            the left node of each step.
        q_all: (steps, n, m) diffusion factors; m may be 0.
        noise: (steps, m, N) standard normal increments; column i is the
            noise of particle i.
        dlam: (steps,) step sizes.
        record: when true, also return the full (N, steps+1, n) paths.

    Returns:
        (states, paths, code, step, particle); paths is None unless
        ``record``.
    """
    mk, gk, g = _em_maps(a_all, b_all, q_all, dlam)
    law = _Law(mk, gk, g, None, None, None, np.zeros((mk.shape[1], 0)), False)
    return _affine_run(x0, law, None, lambda idx: _contig(noise)[:, :, idx], record)


def rk4_propagate(x0, a_nodes, b_nodes, a_mids, b_mids, dlam,
                  record: bool = False):
    """Classic fourth-order propagation for zero-diffusion flows.

    Shapes and returns follow :func:`em_propagate` with drift
    coefficients supplied at the nodes and at the step midpoints.  The
    RK4 maps ``x -> T_k x + c_k`` of :func:`_rk4_maps` are run by
    :func:`_affine_run` as the noise-free case, r = m = 0.
    """
    t, c = _rk4_maps(a_nodes, a_mids, _contig(dlam), b_nodes, b_mids)
    steps, n = c.shape
    count = np.atleast_2d(x0).shape[0]
    return _affine_run(x0, _em_law(t, np.zeros((steps, n, 0)), c),
                       np.zeros((0, count)),
                       lambda idx: np.zeros((steps, 0, len(idx))), record)
