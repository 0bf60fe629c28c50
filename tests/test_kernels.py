"""The column-major kernels against scalar per-particle reference loops."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from flowfilt.kernels import _rk4_maps, em_propagate, rk4_propagate


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


def _rk4_map_ref(x0, a_nodes, b_nodes, a_mids, b_mids, dlam):
    """Each particle stepped alone through the maps ``x -> T_k x + c_k``."""
    t, c = _rk4_maps(a_nodes, a_mids, dlam, b_nodes, b_mids)
    n_particles, n = x0.shape
    paths = np.empty((n_particles, dlam.shape[0] + 1, n))
    for i in range(n_particles):
        x = list(x0[i])
        paths[i, 0] = x
        for k in range(dlam.shape[0]):
            x = _affine_ref(t[k], c[k], x)
            paths[i, k + 1] = x
    return paths


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
def test_rk4_matches_scalar_reference_bitwise(m, record):
    c = _block(m)
    expected = _rk4_map_ref(c["x0"], c["a"], c["b"], c["a_mids"], c["b_mids"],
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
    # The maps round differently from RK4 applied stage by stage to the
    # state, by a few ulps per step.
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
    rk = _rk4_map_ref(x0, a, b, a[:steps], b[:steps], c["dlam"])
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
