"""The column-major kernels against scalar per-particle reference loops."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from flowfilt.kernels import STATE_LIMIT, _rk4_maps, em_propagate, rk4_propagate


def _affine_ref(a, b, x):
    """``a @ x + b`` one entry at a time: start at 0.0, kk ascending, b last."""
    out = []
    for j in range(a.shape[0]):
        acc = 0.0
        for kk in range(a.shape[1]):
            acc += x[kk] * a[j, kk]
        out.append(acc + b[j])
    return out


def _em_ref(x0, a_all, b_all, q_all, noise, dlam):
    """The prescaled step ``x <- M x + G xi + g`` one entry at a time, with
    ``M = I + dl A``, ``G = sqrt(dl) q`` and ``g = dl b``: each entry
    starts at 0.0, adds the terms of ``[x; xi]`` in ascending order and
    adds g last."""
    n_particles, n = x0.shape
    steps, m = dlam.shape[0], q_all.shape[2]
    paths = np.empty((n_particles, steps + 1, n))
    for i in range(n_particles):
        x = list(x0[i])
        paths[i, 0] = x
        for k in range(steps):
            dl = dlam[k]
            sdl = math.sqrt(dl)
            rows = [[(1.0 if j == kk else 0.0) + dl * a_all[k, j, kk]
                     for kk in range(n)]
                    + [sdl * q_all[k, j, l] for l in range(m)] for j in range(n)]
            x = _affine_ref(np.array(rows), [dl * b for b in b_all[k]],
                            x + list(noise[k, :, i]))
            paths[i, k + 1] = x
    return paths


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


def _chained_maps(a_nodes, b_nodes, a_mids, b_mids, dlam):
    """``Phi_k`` and ``d_k`` of ``x_k = Phi_k x_0 + d_k``, k = 1..steps,
    chained one step at a time from the augmented RK4 maps."""
    t, c = _rk4_maps(a_nodes, a_mids, dlam, b_nodes, b_mids)
    steps, n = c.shape
    aug = np.zeros((steps, n + 1, n + 1))
    aug[:, :n, :n], aug[:, :n, n], aug[:, n, n] = t, c, 1.0
    chained = [np.eye(n + 1)]
    for k in range(steps):
        chained.append(aug[k] @ chained[-1])
    chained = np.stack(chained[1:])
    return chained[:, :n, :n], chained[:, :n, n]


def _rk4_chain_ref(x0, a_nodes, b_nodes, a_mids, b_mids, dlam):
    """Each particle alone: ``x_k = Phi_k x_0 + d_k`` one entry at a time."""
    phi, d = _chained_maps(a_nodes, b_nodes, a_mids, b_mids, dlam)
    n_particles, n = x0.shape
    paths = np.empty((n_particles, dlam.shape[0] + 1, n))
    for i in range(n_particles):
        paths[i, 0] = x0[i]
        for k in range(dlam.shape[0]):
            paths[i, k + 1] = _affine_ref(phi[k], d[k], list(x0[i]))
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
    expected = _em_ref(c["x0"], c["a"][:steps], c["b"][:steps], c["q"],
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
    expected = _rk4_chain_ref(c["x0"], c["a"], c["b"], c["a_mids"], c["b_mids"],
                              c["dlam"])
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
    em = _em_ref(x0, a[:steps], b[:steps], q, noise, c["dlam"])
    got = em_propagate(x0, a[:steps], b[:steps], q, noise, c["dlam"], record=True)
    assert _same_bits(got[1], em)
    rk = _rk4_chain_ref(x0, a, b, a[:steps], b[:steps], c["dlam"])
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


def test_rk4_large_phi_with_tiny_states_does_not_diverge():
    steps, n = 50, 2
    # Phi_50 is 2.2e17 (RK4's 2.22 per step against exp(0.8)), so the
    # bound |Phi_k| max|x0| passes limit / 2 at the last step while every
    # state stays below the limit.
    a = np.broadcast_to(40.0 * np.eye(n), (steps + 1, n, n))
    b = np.zeros((steps + 1, n))
    dlam = np.full(steps, 1.0 / steps)
    x0 = np.array([[3e-6, -1e-6], [-2e-6, 3e-6], [0.0, 1e-7]])
    phi, d = _chained_maps(a, b, a[:steps], b[:steps], dlam)
    bound = np.abs(phi).sum(axis=2).max(axis=1) * np.abs(x0).max()
    assert bound[-1] > 0.5 * STATE_LIMIT
    expected = _rk4_chain_ref(x0, a, b, a[:steps], b[:steps], dlam)
    assert np.abs(expected).max() < STATE_LIMIT
    for record in (False, True):
        states, paths, code, step, particle = rk4_propagate(
            x0, a, b, a[:steps], b[:steps], dlam, record=record)
        assert (code, step, particle) == (0, -1, -1)
        assert _same_bits(states, expected[:, -1])
        if record:
            assert _same_bits(paths, expected)


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
        paths = _em_ref(x0, a_all, b_all, q_all, noise, dlam)
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
    expected = _em_ref(x0, a_all, b_all, q_all, noise, dlam)
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
