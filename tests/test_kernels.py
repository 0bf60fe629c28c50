"""The column-major kernels against scalar per-particle reference loops."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from flowfilt import kernels
from flowfilt.kernels import (STATE_LIMIT, _law_trusted, _rk4_maps, em_propagate,
                             rk4_propagate)


def _affine_ref(a, b, x):
    """``a @ x + b`` one entry at a time: start at 0.0, kk ascending, b last."""
    out = []
    for j in range(a.shape[0]):
        acc = 0.0
        for kk in range(a.shape[1]):
            acc += x[kk] * a[j, kk]
        out.append(acc + b[j])
    return out


def _em_maps(a_all, b_all, q_all, dlam):
    """The prescaled ``M = I + dl A``, ``G = sqrt(dl) q`` and ``g = dl b`` of
    every step, one entry at a time."""
    steps, n, m = q_all.shape
    mk, gk, g = np.empty((steps, n, n)), np.empty((steps, n, m)), np.empty((steps, n))
    for k in range(steps):
        dl = dlam[k]
        sdl = math.sqrt(dl)
        for j in range(n):
            for kk in range(n):
                mk[k, j, kk] = (1.0 if j == kk else 0.0) + dl * a_all[k, j, kk]
            for l in range(m):
                gk[k, j, l] = sdl * q_all[k, j, l]
            g[k, j] = dl * b_all[k, j]
    return mk, gk, g


def _step_ref(x0, mk, gk, g, noise):
    """The step ``x <- M x + G xi + g`` one entry at a time: each entry
    starts at 0.0, adds the terms of ``[x; xi]`` in ascending order and
    adds g last."""
    n_particles, n = x0.shape
    steps = g.shape[0]
    paths = np.empty((n_particles, steps + 1, n))
    for i in range(n_particles):
        x = list(x0[i])
        paths[i, 0] = x
        for k in range(steps):
            x = _affine_ref(np.concatenate([mk[k], gk[k]], axis=1), g[k],
                            x + list(noise[k, :, i]))
            paths[i, k + 1] = x
    return paths


def _collapsed_map(mk, gk, g):
    """``C = [Phi_N | W_0 ... W_{N-1}]`` and ``d_N`` of ``x_N = C z + d_N``,
    from the transposed augmented maps chained backwards one step at a
    time; ``W_j`` is ``G_j`` behind the maps of the later steps."""
    steps, n, m = gk.shape
    aug = np.zeros((steps, n + 1, n + 1))
    aug[:, :n, :n] = mk.transpose(0, 2, 1)
    aug[:, n, :n], aug[:, n, n] = g, 1.0
    tails = [np.eye(n + 1)]  # tails[j] = (A_{N-1} ... A_{N-j})^T
    for k in reversed(range(steps)):
        tails.append(aug[k] @ tails[-1])
    w_t = np.matmul(gk.transpose(0, 2, 1), np.stack(tails[steps - 1::-1])[:, :n, :n])
    return np.concatenate([tails[steps][:n, :n], w_t.reshape(steps * m, n)]).T, \
        tails[steps][n, :n]


def _run_ref(x0, mk, gk, g, noise):
    """The stepwise states of ``_step_ref`` at steps 1..N-1, and at the
    last node each particle alone through the kernel's collapsed map:
    from 0.0, the terms of ``[x_0; xi_0; ...; xi_{N-1}]`` in ascending
    order, then ``d_N``.

    The kernel scans its map, which rounds differently from the
    sequential ``_collapsed_map``; the two agree to 1e-12 of the largest
    entry."""
    paths = _step_ref(x0, mk, gk, g, noise)
    ct, d = kernels._em_collapse(mk, gk, g)
    c = ct.T
    for got, ref in zip((c, d), _collapsed_map(mk, gk, g)):
        assert_allclose(got, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())
    for i in range(x0.shape[0]):
        paths[i, -1] = _affine_ref(c, d, list(x0[i]) + list(noise[:, :, i].ravel()))
    return paths


def _em_step_ref(x0, a_all, b_all, q_all, noise, dlam):
    return _step_ref(x0, *_em_maps(a_all, b_all, q_all, dlam), noise)


def _em_ref(x0, a_all, b_all, q_all, noise, dlam):
    return _run_ref(x0, *_em_maps(a_all, b_all, q_all, dlam), noise)


def _rk4_run(a_nodes, b_nodes, a_mids, b_mids, dlam, n_particles):
    """The RK4 maps ``T_k``, ``c_k`` as a run without noise: the arguments
    ``M, G, g, xi`` of ``_step_ref`` and ``_run_ref`` after x0."""
    t, c = _rk4_maps(a_nodes, a_mids, dlam, b_nodes, b_mids)
    steps, n = c.shape
    return t, np.zeros((steps, n, 0)), c, np.zeros((steps, 0, n_particles))


def _em_formula_ref(x0, a_all, b_all, q_all, noise, dlam):
    """``x + (A x + b) dl + (q xi) sqrt(dl)`` one entry at a time."""
    n_particles, n = x0.shape
    steps, m = dlam.shape[0], q_all.shape[2]
    paths = np.empty((n_particles, steps + 1, n))
    for i in range(n_particles):
        x = list(x0[i])
        paths[i, 0] = x
        for k in range(steps):
            dl = dlam[k]
            sdl = math.sqrt(dl)
            f = _affine_ref(a_all[k], b_all[k], x)
            xn = [x[j] + f[j] * dl for j in range(n)]
            if m > 0:
                s = _affine_ref(q_all[k], np.zeros(n), noise[k, :, i])
                xn = [xn[j] + s[j] * sdl for j in range(n)]
            x = xn
            paths[i, k + 1] = x
    return paths


def _rk4_ref(x0, a_nodes, b_nodes, a_mids, b_mids, dlam):
    n_particles, n = x0.shape
    steps = dlam.shape[0]
    paths = np.empty((n_particles, steps + 1, n))
    for i in range(n_particles):
        x = list(x0[i])
        paths[i, 0] = x
        for k in range(steps):
            h = dlam[k]
            half = 0.5 * h
            c = h / 6.0
            k1 = _affine_ref(a_nodes[k], b_nodes[k], x)
            k2 = _affine_ref(a_mids[k], b_mids[k],
                             [x[j] + k1[j] * half for j in range(n)])
            k3 = _affine_ref(a_mids[k], b_mids[k],
                             [x[j] + k2[j] * half for j in range(n)])
            k4 = _affine_ref(a_nodes[k + 1], b_nodes[k + 1],
                             [x[j] + k3[j] * h for j in range(n)])
            x = [x[j] + (((k1[j] + 2.0 * k2[j]) + 2.0 * k3[j]) + k4[j]) * c
                 for j in range(n)]
            paths[i, k + 1] = x
    return paths


def _rk4_per_step_outcome(x0, a_nodes, b_nodes, a_mids, b_mids, dlam,
                          limit=STATE_LIMIT):
    """(code, step, particle) of stepping every column through the RK4 maps
    and testing it after each step, the smallest failing pair first."""
    t, c = _rk4_maps(a_nodes, a_mids, dlam, b_nodes, b_mids)
    x = x0.T.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(dlam.shape[0]):
            x = t[k] @ x + c[k][:, None]
            nonfinite = ~np.isfinite(x).all(axis=0)
            bad = nonfinite | (np.abs(x) > limit).any(axis=0)
            if bad.any():
                i = int(np.argmax(bad))
                return (1 if nonfinite[i] else 2), k, i
    return 0, -1, -1


def _same_bits(got, want):
    """Bitwise equality, telling +0.0 from -0.0."""
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _block(m, n_particles=5, steps=7, n=3):
    rng = np.random.default_rng(100 + m)
    return dict(
        x0=rng.standard_normal((n_particles, n)),
        a=0.7 * rng.standard_normal((steps + 1, n, n)),
        b=rng.standard_normal((steps + 1, n)),
        a_mids=0.7 * rng.standard_normal((steps, n, n)),
        b_mids=rng.standard_normal((steps, n)),
        q=rng.standard_normal((steps, n, m)),
        noise=rng.standard_normal((steps, m, n_particles)),
        dlam=rng.uniform(0.05, 0.2, steps),
    )


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("m", [0, 2])
def test_em_matches_scalar_reference_bitwise(m, record):
    c = _block(m)
    steps = c["dlam"].shape[0]
    expected = _em_step_ref(c["x0"], c["a"][:steps], c["b"][:steps], c["q"],
                            c["noise"], c["dlam"])
    states, paths, code, step, particle = em_propagate(
        c["x0"], c["a"][:steps], c["b"][:steps], c["q"], c["noise"], c["dlam"],
        record=record)
    assert (code, step, particle) == (0, -1, -1)
    assert states.shape == c["x0"].shape
    assert _same_bits(states, expected[:, -1])
    if record:
        assert _same_bits(paths, expected)
    else:
        assert paths is None


def test_one_particle_sums_in_order_in_one_dimension():
    # A one-particle n = 1 step would reduce its terms as one contiguous
    # vector, which numpy sums pairwise from 8 terms on.
    rng = np.random.default_rng(64)
    steps = 5
    for trial in range(40):
        m = int(rng.integers(7, 20))
        x0 = rng.standard_normal((3, 1))
        a_all = 0.5 * rng.standard_normal((steps, 1, 1))
        b_all = rng.standard_normal((steps, 1))
        q_all = rng.standard_normal((steps, 1, m))
        noise = rng.standard_normal((steps, m, 3))
        dlam = rng.uniform(0.05, 0.2, steps)
        wide = em_propagate(x0, a_all, b_all, q_all, noise, dlam)[0]
        alone = em_propagate(x0[:1], a_all, b_all, q_all, noise[:, :, :1], dlam)[0]
        expected = _em_step_ref(x0[:1], a_all, b_all, q_all, noise[:, :, :1], dlam)
        assert _same_bits(alone, expected[:, -1]), (trial, m)
        assert _same_bits(alone, wide[:1]), (trial, m)


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("m", [0, 2])
def test_em_matches_the_unscaled_formula(m, record):
    # The prescaled maps round differently from the step written as
    # x + (A x + b) dl + (q xi) sqrt(dl), by a few ulps per step.
    c = _block(m)
    steps = c["dlam"].shape[0]
    expected = _em_formula_ref(c["x0"], c["a"][:steps], c["b"][:steps], c["q"],
                               c["noise"], c["dlam"])
    states, paths, code, step, particle = em_propagate(
        c["x0"], c["a"][:steps], c["b"][:steps], c["q"], c["noise"], c["dlam"],
        record=record)
    assert (code, step, particle) == (0, -1, -1)
    assert_allclose(states, expected[:, -1], rtol=1e-12)
    if record:
        assert_allclose(paths, expected, rtol=1e-12)


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("m", [0, 2])
def test_rk4_matches_scalar_reference_bitwise(m, record):
    c = _block(m)
    expected = _run_ref(c["x0"], *_rk4_run(c["a"], c["b"], c["a_mids"],
                                            c["b_mids"], c["dlam"], 5))
    states, paths, code, step, particle = rk4_propagate(
        c["x0"], c["a"], c["b"], c["a_mids"], c["b_mids"], c["dlam"],
        record=record)
    assert (code, step, particle) == (0, -1, -1)
    assert _same_bits(states, expected[:, -1])
    if record:
        assert _same_bits(paths, expected)
    else:
        assert paths is None


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("m", [0, 2])
def test_rk4_matches_stagewise_reference(m, record):
    # The chained maps round differently from RK4 applied stage by stage
    # to the state, by a few ulps per step.
    c = _block(m)
    expected = _rk4_ref(c["x0"], c["a"], c["b"], c["a_mids"], c["b_mids"],
                        c["dlam"])
    states, paths, code, step, particle = rk4_propagate(
        c["x0"], c["a"], c["b"], c["a_mids"], c["b_mids"], c["dlam"],
        record=record)
    assert (code, step, particle) == (0, -1, -1)
    assert_allclose(states, expected[:, -1], rtol=1e-12)
    if record:
        assert_allclose(paths, expected, rtol=1e-12)


@pytest.mark.parametrize("m", [0, 1])
def test_products_start_from_positive_zero(m):
    # -0.0 states times positive coefficients give -0.0 products; the
    # sums must still start at +0.0, as the scalar reference does.
    c = _block(m, n_particles=2, steps=3)
    x0 = np.full((2, 3), -0.0)
    a = np.abs(c["a"]) + 0.1
    b = np.full_like(c["b"], -0.0)
    q = np.abs(c["q"]) + 0.1
    noise = np.full_like(c["noise"], -0.0)
    steps = c["dlam"].shape[0]
    em = _em_step_ref(x0, a[:steps], b[:steps], q, noise, c["dlam"])
    got = em_propagate(x0, a[:steps], b[:steps], q, noise, c["dlam"], record=True)
    assert _same_bits(got[1], em)
    rk = _run_ref(x0, *_rk4_run(a, b, a[:steps], b[:steps], c["dlam"], 2))
    got = rk4_propagate(x0, a, b, a[:steps], b[:steps], c["dlam"], record=True)
    assert _same_bits(got[1], rk)


@pytest.mark.parametrize("nan_row, overflow_row, expected", [
    (3, 1, (2, 2, 1)),
    (1, 3, (1, 2, 1)),
])
def test_em_reports_smallest_failing_step_then_particle(nan_row, overflow_row,
                                                         expected):
    steps, n = 6, 2
    # Each step multiplies the state by exactly 10.
    a_all = np.broadcast_to(9.0 * np.eye(n), (steps, n, n))
    b_all = np.zeros((steps, n))
    q_all = np.broadcast_to(np.eye(n), (steps, n, n))
    dlam = np.ones(steps)
    x0 = np.ones((5, n))
    x0[0] = 2e7  # overflows at step 4: later, so it must not win
    x0[overflow_row] = 2e9  # 2e12 > 1e12 at step 2
    noise = np.zeros((steps, n, 5))
    noise[2, 0, nan_row] = np.nan  # non-finite at step 2
    _, _, code, step, particle = em_propagate(x0, a_all, b_all, q_all, noise,
                                              dlam)
    assert (code, step, particle) == expected


@pytest.mark.parametrize("nan_row, overflow_row, expected", [
    (3, 1, (2, 0, 1)),
    (1, 3, (1, 0, 1)),
])
def test_rk4_reports_smallest_failing_step_then_particle(nan_row, overflow_row,
                                                          expected):
    steps, n = 6, 2
    # Each step multiplies the state by exactly 445.375.
    a = np.broadcast_to(9.0 * np.eye(n), (steps + 1, n, n))
    b = np.zeros((steps + 1, n))
    dlam = np.ones(steps)
    x0 = np.ones((5, n))
    x0[0] = 1e8  # 4.45e10, then 1.98e13 at step 1: later, so it must not win
    x0[overflow_row] = 1e10  # 4.45e12 > 1e12 at step 0
    # Every particle shares the maps, so only its start can carry a NaN.
    x0[nan_row, 0] = np.nan
    _, _, code, step, particle = rk4_propagate(x0, a, b, a[:steps], b[:steps],
                                               dlam)
    assert (code, step, particle) == expected
    # Alone, row 0 is reported at the step where it overflows.
    assert rk4_propagate(x0[:1], a, b, a[:steps], b[:steps], dlam)[2:] == (2, 1, 0)


def test_rk4_large_phi_with_tiny_states_does_not_diverge(stepped_widths):
    steps, n = 50, 2
    # Phi_50 is 2.2e17 (RK4's 2.22 per step against exp(0.8)), so the law
    # leaves the trusted range and every particle is stepped, while every
    # state stays below the limit.
    a = np.broadcast_to(40.0 * np.eye(n), (steps + 1, n, n))
    b = np.zeros((steps + 1, n))
    dlam = np.full(steps, 1.0 / steps)
    x0 = np.array([[3e-6, -1e-6], [-2e-6, 3e-6], [0.0, 1e-7]])
    run = _rk4_run(a, b, a[:steps], b[:steps], dlam, 3)
    assert np.abs(np.linalg.multi_dot(run[0][::-1])).max() > STATE_LIMIT
    assert not _law_trusted(*run[:3])
    # Nothing fails, so every particle keeps the collapsed map's terminal.
    expected = _run_ref(x0, *run)
    assert np.abs(expected).max() < STATE_LIMIT
    widths = stepped_widths
    for record in (False, True):
        states, paths, code, step, particle = rk4_propagate(
            x0, a, b, a[:steps], b[:steps], dlam, record=record)
        assert (code, step, particle) == (0, -1, -1)
        assert _same_bits(states, expected[:, -1])
        if record:
            assert _same_bits(paths, expected)
    assert widths == [3, 3]


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("row", [0, 2, 4])
def test_rk4_nan_start_is_reported_at_step_zero(row, record):
    c = _block(0)
    x0 = c["x0"].copy()
    x0[row, 1] = np.nan
    got = rk4_propagate(x0, c["a"], c["b"], c["a_mids"], c["b_mids"], c["dlam"],
                        record=record)
    assert got[2:] == (1, 0, row)


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("overflow_step, particle", [(0, 3), (3, 0), (5, 2), (11, 1)])
def test_rk4_overflow_matches_the_per_step_kernel(overflow_step, particle, record):
    steps, n = 12, 3
    rng = np.random.default_rng(7)
    # Every step multiplies the state by about 16 and adds a small offset.
    a = np.broadcast_to(3.0 * np.eye(n), (steps + 1, n, n)) \
        + 0.01 * rng.standard_normal((steps + 1, n, n))
    b = 1e-6 * rng.standard_normal((steps + 1, n))
    a_mids, b_mids = a[:steps] + 0.0, b[:steps] + 0.0
    dlam = np.ones(steps)
    growth = float(np.linalg.norm(_rk4_maps(a, a_mids, dlam, b, b_mids)[0][0], 2))
    x0 = rng.uniform(0.5, 1.0, (5, n))
    # Particle j crosses the limit at overflow_step; every other particle
    # would only cross it later.
    x0[particle] *= 4.0 * STATE_LIMIT / growth ** (overflow_step + 1)
    others = [i for i in range(5) if i != particle]
    x0[others] *= 0.05 * STATE_LIMIT / growth ** (overflow_step + 2)
    expected = _rk4_per_step_outcome(x0, a, b, a_mids, b_mids, dlam)
    assert expected == (2, overflow_step, particle)
    got = rk4_propagate(x0, a, b, a_mids, b_mids, dlam, record=record)
    assert got[2:] == expected


def _em_per_step_outcome(x0, a_all, b_all, q_all, noise, dlam, limit=STATE_LIMIT):
    """(code, step, particle) of the scalar prescaled steps, every particle
    tested after every step, the smallest failing pair first."""
    with np.errstate(over="ignore", invalid="ignore"):
        paths = _em_step_ref(x0, a_all, b_all, q_all, noise, dlam)
    for k in range(dlam.shape[0]):
        x = paths[:, k + 1].T
        nonfinite = ~np.isfinite(x).all(axis=0)
        bad = nonfinite | (np.abs(x) > limit).any(axis=0)
        if bad.any():
            i = int(np.argmax(bad))
            return (1 if nonfinite[i] else 2), k, i
    return 0, -1, -1


@pytest.mark.parametrize("record", [False, True])
def test_em_large_sum_of_squares_within_the_limit_does_not_diverge(record):
    # Sum x^2 is far above limit^2 / 4, so the screen fails every step,
    # yet no coordinate ever passes the limit.
    steps, n, m = 5, 3, 2
    a_all = np.zeros((steps, n, n))
    b_all = np.zeros((steps, n))
    q_all = np.ones((steps, n, m))
    noise = np.ones((steps, m, 4))
    dlam = np.full(steps, 0.25)
    x0 = np.full((4, n), 0.9 * STATE_LIMIT)
    x0[1, 0] = -STATE_LIMIT
    assert (x0 ** 2).sum() > 0.25 * STATE_LIMIT ** 2
    # Every particle is past limit / 2 at the start, so all are stepped.
    expected = _em_step_ref(x0, a_all, b_all, q_all, noise, dlam)
    assert np.abs(expected).max() <= STATE_LIMIT
    states, paths, code, step, particle = em_propagate(
        x0, a_all, b_all, q_all, noise, dlam, record=record)
    assert (code, step, particle) == (0, -1, -1)
    assert _same_bits(states, expected[:, -1])


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("failure", ["limit", "nan", "inf"])
@pytest.mark.parametrize("inject_step, particle", [(0, 3), (3, 0), (5, 2), (11, 4)])
def test_em_injected_failure_matches_the_per_step_reference(inject_step, particle,
                                                            failure, record):
    steps, n, m = 12, 3, 2
    rng = np.random.default_rng(11)
    a_all = 0.3 * rng.standard_normal((steps, n, n))
    b_all = rng.standard_normal((steps, n))
    q_all = rng.standard_normal((steps, n, m))
    noise = rng.standard_normal((steps, m, 6))
    dlam = rng.uniform(0.05, 0.2, steps)
    x0 = rng.standard_normal((6, n))
    # One draw of particle j carries the failure into its state at the
    # injected step; no other particle fails.
    noise[inject_step, 1, particle] = {"limit": 1e15, "nan": np.nan,
                                       "inf": np.inf}[failure]
    expected = _em_per_step_outcome(x0, a_all, b_all, q_all, noise, dlam)
    assert expected == (2 if failure == "limit" else 1, inject_step, particle)
    got = em_propagate(x0, a_all, b_all, q_all, noise, dlam, record=record)
    assert got[2:] == expected


@pytest.mark.parametrize("plants", [
    # (step, particle, failure) of each planted failure; blocks of two
    # particles, so each plant lies in a different block.
    ((5, 1, "limit"), (3, 4, "nan")),
    ((3, 5, "limit"), (3, 0, "inf")),
    ((2, 1, "nan"), (2, 3, "limit")),
    ((0, 4, "inf"), (7, 0, "limit")),
])
def test_em_blocks_report_the_smallest_failing_step_then_particle(
        plants, monkeypatch, stepped_widths):
    steps, n, m = 12, 3, 2
    rng = np.random.default_rng(13)
    a_all = 0.3 * rng.standard_normal((steps, n, n))
    b_all = rng.standard_normal((steps, n))
    q_all = rng.standard_normal((steps, n, m))
    noise = rng.standard_normal((steps, m, 6))
    dlam = rng.uniform(0.05, 0.2, steps)
    x0 = rng.standard_normal((6, n))
    for step, particle, failure in plants:
        noise[step, 1, particle] = {"limit": 1e15, "nan": np.nan,
                                    "inf": np.inf}[failure]
    expected = _em_per_step_outcome(x0, a_all, b_all, q_all, noise, dlam)
    step, particle, failure = min(plants)
    assert expected == (2 if failure == "limit" else 1, step, particle)
    monkeypatch.setattr(kernels, "STEP_BUDGET", 2 * steps * m)
    got = em_propagate(x0, a_all, b_all, q_all, noise, dlam)
    assert stepped_widths == [2, 2, 2]
    assert got[2:] == expected


@pytest.mark.parametrize("record", [False, True])
def test_em_blocks_match_a_one_block_run(record, monkeypatch, stepped_widths):
    c = _block(2, n_particles=7)
    steps = c["dlam"].shape[0]
    args = (c["x0"], c["a"][:steps], c["b"][:steps], c["q"], c["noise"], c["dlam"])
    whole = em_propagate(*args, record=record)
    assert stepped_widths == [7]
    monkeypatch.setattr(kernels, "STEP_BUDGET", 2 * steps * 2)
    stepped_widths.clear()
    got = em_propagate(*args, record=record)
    # A recorded run steps every particle in one block for its paths.
    assert stepped_widths == ([7] if record else [2, 2, 2, 1])
    assert got[2:] == whole[2:] == (0, -1, -1)
    assert _same_bits(got[0], whole[0])
    if record:
        assert _same_bits(got[1], whole[1])
    else:
        assert got[1] is None


@pytest.mark.parametrize("record", [False, True])
def test_em_overflowing_chain_reports_the_stepwise_failure(record):
    # Twenty steps of M = 2^-52 I, then six of M = 2^173 I.  The run scales
    # a state by exactly 1/4, but the products of the later maps pass the
    # float range (2^1038), so no particle may use the collapsed map, even
    # particle 0, whose bound clears it.
    n = 2
    scale = np.array([2.0 ** -52] * 20 + [2.0 ** 173] * 6)
    steps = scale.size
    a_all = (scale - 1.0)[:, None, None] * np.eye(n)
    b_all = np.zeros((steps, n))
    q_all = np.zeros((steps, n, 0))
    noise = np.zeros((steps, 0, 2))
    dlam = np.ones(steps)
    x0 = np.array([[1e11, -3e10], [4e13, 1.0]])
    expected = _em_per_step_outcome(x0, a_all, b_all, q_all, noise, dlam)
    assert expected == (2, steps - 1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = em_propagate(x0, a_all, b_all, q_all, noise, dlam, record=record)
        alone = em_propagate(x0[:1], a_all, b_all, q_all, noise[:, :, :1], dlam,
                             record=record)
    assert got[2:] == expected
    assert alone[2:] == (0, -1, -1)
    assert _same_bits(alone[0], 0.25 * x0[:1])


def test_law_survives_a_pair_overflow_that_no_tail_reaches():
    # Maps of 1e200, 1e200 and 1e-200 times a rotation: every backward
    # tail is finite (1e-200, 1 and 1e200 times a rotation), but the scan
    # pairs M_1 and M_0, whose product is 1e400.
    rng = np.random.default_rng(63)
    n, m = 3, 2
    rot = np.linalg.qr(rng.standard_normal((n, n)))[0]
    mk = np.stack([1e200 * rot.T, 1e200 * rot, 1e-200 * rot])
    gk = rng.standard_normal((3, n, m))
    g = rng.standard_normal((3, n))
    with np.errstate(over="ignore"):
        assert not np.isfinite(mk[1] @ mk[0]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        law = kernels._em_law(mk, gk, g)
    # The per-step fallback chains the tails in the sequential order.
    c, d = _collapsed_map(mk, gk, g)
    assert law.ct is not None and np.isfinite(law.ct).all()
    assert _same_bits(law.ct, np.ascontiguousarray(c.T))
    assert _same_bits(law.d, d)
    assert law.f.shape == (n, n) and not law.trusted


@pytest.mark.parametrize("record", [False, True])
def test_run_without_a_finite_law_ends_on_the_stepped_state(record, stepped_widths):
    # The maps of test_em_overflowing_chain_reports_the_stepwise_failure:
    # the backward chain passes the float range, so there is no law, and
    # every particle is stepped and ends on its stepped state.
    n = 2
    scale = np.array([2.0 ** -52] * 20 + [2.0 ** 173] * 6)
    steps = scale.size
    mk = scale[:, None, None] * np.eye(n)
    law = kernels._em_law(mk, np.zeros((steps, n, 0)), np.zeros((steps, n)))
    assert law.ct is None and not law.trusted
    x0 = np.array([[1e11, -3e10], [3e11, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states, paths, code, step, particle = kernels._affine_run(
            x0, law, np.zeros((0, 2)),
            lambda idx: np.zeros((steps, 0, len(idx))), record)
    assert (code, step, particle) == (0, -1, -1)
    assert stepped_widths == [2]
    assert _same_bits(states, 0.25 * x0)
    if record:
        assert _same_bits(paths[:, -1], 0.25 * x0)


def test_law_past_the_float_range_has_no_factor_and_is_not_trusted():
    # W entries of 1e200 square past the float range: Sigma is inf, so it
    # gets no factor, and the untrusted law has every particle stepped.
    steps, n = 3, 2
    gk = np.broadcast_to(1e200 * np.eye(n), (steps, n, n))
    law = kernels._em_law(np.broadcast_to(np.eye(n), (steps, n, n)), gk,
                          np.zeros((steps, n)))
    assert law.ct is not None and np.isinf(np.diag(law.sigma)).all()
    assert law.f.shape == (n, 0) and not law.trusted
    # The stepped particle names the step where it leaves the range.
    got = kernels._affine_run(np.zeros((1, n)), law, np.zeros((0, 1)),
                              lambda idx: np.ones((steps, n, len(idx))))
    assert got[2:] == (2, 0, 0)


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("step, particle", [(0, 1), (2, 3)])
def test_em_noise_grown_by_later_maps_is_reported(step, particle, record):
    steps, n = 8, 2
    # Each step multiplies the state by exactly 10, so a draw of 1e9 at
    # the given step passes the limit four steps later.
    a_all = np.broadcast_to(9.0 * np.eye(n), (steps, n, n))
    b_all = np.zeros((steps, n))
    q_all = np.broadcast_to(np.eye(n), (steps, n, n))
    noise = np.zeros((steps, n, 5))
    noise[step, 0, particle] = 1e9
    dlam = np.ones(steps)
    x0 = np.zeros((5, n))
    expected = _em_per_step_outcome(x0, a_all, b_all, q_all, noise, dlam)
    assert expected == (2, step + 4, particle)
    got = em_propagate(x0, a_all, b_all, q_all, noise, dlam, record=record)
    assert got[2:] == expected


def test_law_screen_never_clears_a_law_that_leaves_the_range(monkeypatch):
    rng = np.random.default_rng(12)
    steps, n, m = 30, 3, 2
    # Maps near the identity, as Euler steps are: the screen stays within
    # a factor 100 of the exact law here.
    mk = np.eye(n) + 0.02 * rng.standard_normal((steps, n, n))
    gk = 0.3 * rng.standard_normal((steps, n, m))
    g = rng.standard_normal((steps, n))
    # The law at every step, chained forwards one step at a time.
    phi, d, sigma, worst = np.eye(n), np.zeros(n), np.zeros((n, n)), 0.0
    for k in range(steps):
        phi, d = mk[k] @ phi, mk[k] @ d + g[k]
        sigma = mk[k] @ sigma @ mk[k].T + gk[k] @ gk[k].T
        worst = max(worst, np.abs(phi).max(), np.abs(d).max(), np.abs(sigma).max())
    monkeypatch.setattr(kernels, "STATE_LIMIT", worst * (1.0 - 1e-9))
    assert not _law_trusted(mk, gk, g)
    monkeypatch.setattr(kernels, "STATE_LIMIT", 1e2 * worst)
    assert _law_trusted(mk, gk, g)
    # A NaN map, or norms whose product underflows, only flags more.
    bad = mk.copy()
    bad[7, 1, 2] = np.nan
    assert not _law_trusted(bad, gk, g)
    tiny = np.broadcast_to(1e-30 * np.eye(n), (steps, n, n))
    assert not _law_trusted(tiny, gk, g)


def _compose_per_step(t, c, s):
    """The prefixes of the elements ``(T_k, c_k, S_k)`` composed one step
    at a time from ``(I, 0, 0)``: ``Phi_{k+1} = T_k Phi_k``,
    ``d_{k+1} = T_k d_k + c_k`` and ``Sigma_{k+1} = T_k Sigma_k T_k^T + S_k``.
    ``T_k d_k`` is an einsum, as in ``kernels._compose``: matmul sums a
    matrix-vector product in another order."""
    steps, n = t.shape[:2]
    phi, d, sigma = [np.eye(n)], [np.zeros(n)], [np.zeros((n, n))]
    with np.errstate(all="ignore"):
        for k in range(steps):
            phi.append(t[k] @ phi[-1])
            d.append(np.einsum("ij,j->i", t[k], d[-1]) + c[k])
            sigma.append(t[k] @ sigma[-1] @ t[k].T + s[k])
    return np.stack(phi), np.stack(d), np.stack(sigma)


@pytest.mark.parametrize("steps", [1, 2, 3, 7, 64, 1000])
def test_scan_equals_the_per_step_composition(steps):
    rng = np.random.default_rng(60 + steps)
    for n in (1, 3, 5):
        t = np.eye(n) + 0.05 * rng.standard_normal((steps, n, n))
        c = rng.standard_normal((steps, n))
        s = rng.standard_normal((steps, n, n))
        s = s @ np.swapaxes(s, 1, 2)
        want = _compose_per_step(t, c, s)
        phi, d, sigma, bad = kernels._scan(t, c, s)
        assert bad == -1
        assert np.array_equal(phi[0], np.eye(n))
        for got, ref in zip((phi, d, sigma), want):
            assert_allclose(got, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())
        assert_allclose(kernels._scan(t)[0], phi, rtol=0.0, atol=0.0)


def test_scan_survives_a_sub_range_overflow_that_no_prefix_reaches():
    # Every prefix is finite (Phi is 1e-200, 1, 1e200 times a rotation;
    # d and Sigma are nonzero from the last step on), but the product of
    # the last two maps alone is 1e400.
    rng = np.random.default_rng(61)
    rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    t = np.stack([1e-200 * rot, 1e200 * rot, 1e200 * rot.T])
    c = np.zeros((3, 3))
    c[2] = rng.standard_normal(3)
    s = np.zeros((3, 3, 3))
    s[2] = np.eye(3)
    with np.errstate(all="ignore"):
        tree = kernels._prefixes([np.concatenate([np.eye(3)[None], t]), None, None])
    assert not np.isfinite(tree[0]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi, d, sigma, bad = kernels._scan(t, c, s, np.finfo(float).max)
    assert bad == -1
    for got, ref in zip((phi, d, sigma), _compose_per_step(t, c, s)):
        assert np.isfinite(got).all()
        assert got.tobytes() == ref.tobytes()


def _first_failing_step(stacks, limit):
    """The first step whose prefix row in the per-step stacks has an
    entry past the limit or not finite, or -1."""
    rows = np.concatenate([x.reshape(x.shape[0], -1) for x in stacks], axis=1)
    bad = ~(np.abs(rows) <= limit).all(axis=1)
    return int(np.argmax(bad)) - 1 if bad.any() else -1


@pytest.mark.parametrize("failure", ["limit", "nan", "inf"])
@pytest.mark.parametrize("limit", [STATE_LIMIT, np.finfo(float).max])
def test_scan_names_the_first_failing_step_of_the_chain(failure, limit):
    rng = np.random.default_rng(62)
    # A failure at step 0, on both sides of a power of two and at the last
    # step, then at random steps of random lengths.
    plants = [(150, 0), (150, 127), (150, 128), (150, 149), (1, 0)]
    plants += [(steps, int(rng.integers(0, steps)))
               for steps in rng.integers(1, 300, size=20)]
    for trial, (steps, fail_at) in enumerate(plants):
        n = int(rng.integers(1, 5))
        t = 0.9 * np.eye(n) + 0.1 * rng.standard_normal((steps, n, n)) / np.sqrt(n)
        c = rng.standard_normal((steps, n))
        s = rng.standard_normal((steps, n, n))
        s = s @ np.swapaxes(s, 1, 2)
        if failure == "limit":
            t[fail_at] *= 1e30
        elif failure == "nan":
            t[fail_at, 0, 0] = np.nan
        else:
            t[fail_at, 0] = np.inf
        want = _compose_per_step(t, c, s)
        for parts in ((t,), (t, c), (t, c, s)):
            ref = want[:len(parts)]
            want_bad = _first_failing_step(ref, limit)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                *got, bad = kernels._scan(*parts, limit=limit)
            assert bad == want_bad, (trial, steps, fail_at, len(parts))
            if failure != "limit" or limit == STATE_LIMIT:
                assert want_bad == fail_at
            for stack, row in zip(got, ref):
                if bad >= 0:
                    # The per-step fallback composes in the reference's
                    # order, up to the failing step and its row.
                    assert stack[:bad + 2].tobytes() == row[:bad + 2].tobytes()
                else:
                    assert_allclose(stack, row, rtol=0.0,
                                    atol=1e-12 * np.abs(row).max())
