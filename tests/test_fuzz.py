"""Fixed-seed fuzz of the chained oracle paths on random models.

Every model is drawn from one seed before any check runs, with n in
1..6 and d in 1..n; a model that fails a check is a finding and is never
re-drawn.  Each model's step count follows from the stiffness of its
flows, the largest spectral radius of A(lam) on a probe grid, so no
step count is chosen from an outcome.
"""

import numpy as np
import pytest

from flowfilt import (
    GaussianPrior,
    LambdaGrid,
    LinearMeasurement,
    NoiseStream,
    check_ftss,
    kernels,
    preset,
    propagate_ensemble,
    propagate_particle,
    stability,
)
from flowfilt.estimation import sample_prior
from flowfilt.flows import affine_tables
from flowfilt import integrate
from flowfilt.integrate import build_tables

SEED = 20241018
MODEL_COUNT = 8
KINDS = ("exact", "fixed_q", "constant_q", "diagnostic")


def _spd(rng, n, max_cond):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.exp(rng.uniform(0.0, np.log(max_cond), n))) @ q.T


def _draw_models():
    rng = np.random.default_rng(SEED)
    models = []
    for _ in range(MODEL_COUNT):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, n + 1))
        prior = GaussianPrior(rng.standard_normal(n), _spd(rng, n, 1e2))
        meas = LinearMeasurement(rng.standard_normal((d, n)), _spd(rng, d, 1e2),
                                 2.0 * rng.standard_normal(d))
        models.append((prior, meas))
    return models


MODELS = _draw_models()


def _presets(prior, meas):
    return {"exact": preset("exact", prior, meas),
            "fixed_q": preset("fixed_q", prior, meas),
            "constant_q": preset("constant_q", prior, meas, Q0=np.eye(prior.n)),
            "diagnostic": preset("diagnostic", prior, meas, alpha=1.0)}


def _steps(presets, prior, meas):
    """Steps keeping h * rho(A) at or below 0.5 on a uniform grid."""
    probe = np.linspace(0.0, 1.0, 65)
    rho = max(np.abs(np.linalg.eigvals(
        affine_tables(p, prior, meas, probe, want_q=False)[0])).max()
        for p in presets.values())
    return int(np.clip(np.ceil(2.0 * rho), 20, 1000))


@pytest.fixture(scope="module")
def cases():
    out = []
    for prior, meas in MODELS:
        presets = _presets(prior, meas)
        out.append((prior, meas, presets, _steps(presets, prior, meas)))
    return out


def _stagewise_rk4(tables, x0):
    """Classic RK4 applied stage by stage to the (N, n) states."""
    x = x0.copy()
    for k, h in enumerate(tables.dlam):
        def f(a, b, y):
            return y @ a.T + b
        k1 = f(tables.a_nodes[k], tables.b_nodes[k], x)
        k2 = f(tables.a_mids[k], tables.b_mids[k], x + 0.5 * h * k1)
        k3 = f(tables.a_mids[k], tables.b_mids[k], x + 0.5 * h * k2)
        k4 = f(tables.a_nodes[k + 1], tables.b_nodes[k + 1], x + h * k3)
        x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def test_rk4_ensemble_matches_particles_and_the_stagewise_scheme(cases):
    for index, (prior, meas, presets, steps) in enumerate(cases):
        grid = LambdaGrid.uniform(steps, scheme="rk4")
        start = sample_prior(12, prior, seed=index)
        end = propagate_ensemble(start, presets["exact"], grid, prior, meas)
        tables = build_tables(presets["exact"], grid, prior, meas)
        for i, x0 in enumerate(start.particles):
            path = propagate_particle(x0, presets["exact"], grid, NoiseStream(0, i),
                                      prior, meas, tables=tables)
            assert path.states[-1].tobytes() == end.particles[i].tobytes(), (index, i)
        ref = _stagewise_rk4(tables, start.particles)
        err = np.abs(end.particles - ref).max() / np.abs(ref).max()
        assert err <= 1e-12, (index, err)


def _chunked_run(monkeypatch, chunk, per_particle, run):
    """``run()`` with the chunk budget set to ``chunk`` particles, and the
    widths of the noise chunks it drew."""
    widths = []
    noise_chunk = integrate._noise_chunk

    def recording(seed, ids, steps, m):
        widths.append(len(ids))
        return noise_chunk(seed, ids, steps, m)

    with monkeypatch.context() as patch:
        patch.setattr(integrate, "_CHUNK_BUDGET", chunk * per_particle)
        patch.setattr(integrate, "_noise_chunk", recording)
        return run(), widths


def test_em_ensemble_matches_particles_and_any_chunking(cases, monkeypatch):
    for index, (prior, meas, presets, steps) in enumerate(cases):
        grid = LambdaGrid.uniform(steps)
        start = sample_prior(66, prior, seed=index)
        for kind in ("fixed_q", "constant_q", "diagnostic"):
            params = presets[kind]
            tables = build_tables(params, grid, prior, meas)
            end = propagate_ensemble(start, params, grid, prior, meas)
            for i in (0, 1, 62, 63, 64, 65):
                path = propagate_particle(start.particles[i], params, grid,
                                          NoiseStream(index, i), prior, meas,
                                          tables=tables)
                assert path.states[-1].tobytes() == end.particles[i].tobytes(), \
                    (index, kind, i)
            per_particle = steps * max(tables.m_max, 1)
            for chunk, ens, widths in ((1, sample_prior(3, prior, seed=index), [1] * 3),
                                       (63, start, [63, 3]), (64, start, [64, 2]),
                                       (65, start, [65, 1])):
                got, seen = _chunked_run(
                    monkeypatch, chunk, per_particle,
                    lambda: propagate_ensemble(ens, params, grid, prior, meas))
                assert seen == widths
                want = end.particles[:ens.particles.shape[0]]
                assert got.particles.tobytes() == want.tobytes(), (index, kind, chunk)


def _exhaustive(phi, s_weight, x0, beta):
    v = stability._node_quad(phi, s_weight, x0)
    return int(np.count_nonzero(np.all(v <= beta, axis=1)))


def _recording(monkeypatch):
    """Record the arguments of every count that check_ftss makes."""
    calls = []
    count = stability._count_bounded

    def record(phi, s_weight, x0, beta):
        calls.append((phi, s_weight, x0, beta))
        return count(phi, s_weight, x0, beta)

    monkeypatch.setattr(stability, "_count_bounded", record)
    return calls


def _on_the_bound(phi, s_weight, x0):
    """x0 plus points on the top S-norm gain direction of Phi, where the
    Lyapunov bound is attained."""
    chol = np.linalg.cholesky(s_weight)
    chol_inv = np.linalg.inv(chol)
    gram = chol_inv @ np.swapaxes(phi, 1, 2) @ s_weight @ phi @ chol_inv.T
    w, u = np.linalg.eigh(gram)
    top = np.linalg.solve(chol.T, u[int(np.argmax(w[:, -1])), :, -1])
    return np.vstack([x0, np.outer(np.sqrt([0.5, 1.0, 2.0, 3.9]), top)])


def _edge_betas(phi, s_weight, x0):
    """Betas at, just under and just over each point's largest node form,
    its initial S-norm and its Lyapunov bound, for the points nearest it."""
    v = stability._node_quad(phi, s_weight, x0)
    vmax, s0 = v.max(axis=1), v[:, 0]
    rho = stability._s_gain(phi, s_weight)
    near = np.argsort(vmax / s0)[-6:]
    edges = np.concatenate([vmax[near], s0[near], rho * s0[near],
                            rho * s0[near] / (1.0 - stability.SCREEN_SLACK)])
    return np.concatenate([edges, np.nextafter(edges, 0.0),
                           np.nextafter(edges, np.inf)])


def test_screened_ftss_count_equals_the_exhaustive_count(cases, monkeypatch):
    calls = _recording(monkeypatch)
    for index, (prior, meas, presets, steps) in enumerate(cases):
        grid = LambdaGrid.uniform(steps)
        for kind in KINDS:
            res = check_ftss(presets[kind], prior, meas, grid, alpha=1.0,
                             beta=2.5, epsilon=0.5, n_mc=300, seed=index)
            phi, s_weight, x0, beta = calls[-1]
            assert res.empirical_prob == _exhaustive(phi, s_weight, x0, beta) / 300
        # Unstable dynamics: rho is far above 1, so few points are screened.
        rate = 0.5 + index / MODEL_COUNT
        res = check_ftss(None, prior, meas, LambdaGrid.uniform(50), 1.0, 2.5, 0.5,
                         300, index, system_a_fn=lambda lam: rate * np.eye(prior.n))
        phi, s_weight, x0, beta = calls[-1]
        assert stability._s_gain(phi, s_weight) > 2.0
        assert res.empirical_prob == _exhaustive(phi, s_weight, x0, beta) / 300
    monkeypatch.undo()
    # Points on the Lyapunov bound and betas on every edge of the screen.
    for phi, s_weight, x0, _ in calls[::7]:
        points = _on_the_bound(phi, s_weight, x0[:40])
        for beta in _edge_betas(phi, s_weight, points):
            assert (stability._count_bounded(phi, s_weight, points, beta)
                    == _exhaustive(phi, s_weight, points, beta)), beta


def _chain_per_step(t, y0, c, limit):
    """The chain tested after every step: stack up to the first failing
    step and that step, or -1."""
    y = [np.asarray(y0, dtype=float)]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(t.shape[0]):
            nxt = t[k] @ y[-1]
            if c is not None:
                nxt += c[k]
            y.append(nxt)
            if not (np.abs(nxt) <= limit).all():
                return np.stack(y), k
    return np.stack(y), -1


@pytest.mark.parametrize("steps, fail_at, failure", [
    (64, None, None), (128, None, None), (150, None, None), (64, 63, "limit"),
    *[(150, step, failure) for step in (0, 63, 64, 65, 149)
      for failure in ("limit", "nan", "inf")],
])
def test_block_tested_chain_equals_the_per_step_chain(steps, fail_at, failure):
    rng = np.random.default_rng(SEED + steps)
    for shape in [(1,), (4,), (3, 3)]:
        n = shape[0]
        t = 0.9 * np.eye(n) + 0.1 * rng.standard_normal((steps, n, n)) / np.sqrt(n)
        y0 = rng.standard_normal(shape)
        c = rng.standard_normal((steps, n)) if len(shape) == 1 else None
        if fail_at is not None:
            if failure == "limit":
                t[fail_at] *= 1e30
            elif failure == "nan":
                t[fail_at, 0, 0] = np.nan
            else:
                t[fail_at, 0] = np.inf
        for limit in (kernels.STATE_LIMIT, np.finfo(float).max):
            want, want_bad = _chain_per_step(t, y0, c, limit)
            got, bad = kernels._chain(t, y0, c, limit)
            assert bad == want_bad
            rows = want.shape[0]
            assert got[:rows].tobytes() == want.tobytes()
