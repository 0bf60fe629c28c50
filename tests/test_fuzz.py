"""Fixed-seed fuzz of the chained oracle paths on random models.

Every model is drawn from one seed before any check runs, with n in
1..6 and d in 1..n; a model that fails a check is a finding and is never
re-drawn.  Each model's step count follows from the stiffness of its
flows, the largest spectral radius of A(lam) on a probe grid, so no
step count is chosen from an outcome.  The stability report fuzz draws
its own models the same way, with n in 1..4 and 10 to 50 steps, and the
moment fuzz draws 40 models with condition numbers up to 1e3.
"""

import numpy as np
import pytest

from flowfilt import (
    GaussianPrior,
    LambdaGrid,
    LinearMeasurement,
    NoiseStream,
    check_ftss,
    closed_form_posterior,
    kernels,
    preset,
    propagate_ensemble,
    propagate_particle,
    solve_moment_odes,
    stability,
)
from flowfilt.estimation import sample_prior
from flowfilt.flows import _m_inv_stack, _m_stack, affine_tables
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
                                      prior, meas)
            assert path.states[-1].tobytes() == end.particles[i].tobytes(), (index, i)
        ref = _stagewise_rk4(tables, start.particles)
        err = np.abs(end.particles - ref).max() / np.abs(ref).max()
        assert err <= 1e-12, (index, err)


def _stepped_run(monkeypatch, widths, chunk, per_particle, run):
    """``run()`` with every particle stepped along its bridge, ``chunk``
    particles per block; ``widths`` (the ``stepped_widths`` fixture) is
    left holding the widths of the blocks it stepped."""
    widths.clear()
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "_law_trusted", lambda *args: False)
        patch.setattr(kernels, "STEP_BUDGET", chunk * max(per_particle, 1))
        return run()


def test_em_ensemble_matches_particles_and_any_chunking(cases, monkeypatch,
                                                        stepped_widths):
    for index, (prior, meas, presets, steps) in enumerate(cases):
        grid = LambdaGrid.uniform(steps)
        start = sample_prior(66, prior, seed=index)
        for kind in ("fixed_q", "constant_q", "diagnostic"):
            params = presets[kind]
            tables = build_tables(params, grid, prior, meas)
            end = propagate_ensemble(start, params, grid, prior, meas)
            for i in (0, 1, 62, 63, 64, 65):
                path = propagate_particle(start.particles[i], params, grid,
                                          NoiseStream(index, i), prior, meas)
                assert path.states[-1].tobytes() == end.particles[i].tobytes(), \
                    (index, kind, i)
            per_particle = steps * tables.q_factors.shape[2]
            for chunk, ens, widths in ((1, sample_prior(3, prior, seed=index), [1] * 3),
                                       (63, start, [63, 3]), (64, start, [64, 2]),
                                       (65, start, [65, 1])):
                got = _stepped_run(
                    monkeypatch, stepped_widths, chunk, per_particle,
                    lambda: propagate_ensemble(ens, params, grid, prior, meas))
                assert stepped_widths == widths
                want = end.particles[:ens.particles.shape[0]]
                assert got.particles.tobytes() == want.tobytes(), (index, kind, chunk)


def test_em_collapsed_terminal_stays_near_the_stepwise_one(cases):
    for index, (prior, meas, presets, steps) in enumerate(cases):
        grid = LambdaGrid.uniform(steps)
        start = sample_prior(64, prior, seed=index)
        for kind in ("fixed_q", "constant_q", "diagnostic"):
            tables = build_tables(presets[kind], grid, prior, meas)
            # Each particle's bridge increments, stepped by the plain
            # Euler-Maruyama kernel.
            law = kernels._em_law(*kernels._em_maps(
                tables.a_nodes, tables.b_nodes, tables.q_factors, tables.dlam))
            xi = integrate._bridge_chunk(index, range(64), law)
            stepped = kernels.em_propagate(
                start.particles, tables.a_nodes, tables.b_nodes, tables.q_factors,
                xi, tables.dlam)
            collapsed = propagate_ensemble(start, presets[kind], grid, prior, meas,
                                           noise_seed=index).particles
            assert stepped[2:] == (0, -1, -1)
            err = np.abs(collapsed - stepped[0]).max() / np.abs(stepped[0]).max()
            assert err <= 1e-13, (index, kind, err)


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


REPORT_SEED = 20261019
REPORT_MODELS_PER_SHAPE = 8


def _draw_report_cases(make_model):
    """(prior, meas, steps) for every shape n in 1..4, d in 1..n, with a
    uniform grid of 10 to 50 steps; all drawn before any report runs."""
    rng = np.random.default_rng(REPORT_SEED)
    # A rank-1 fixed_q diffusion whose smallest eigenvalue rounds to a
    # tiny positive number at some node of a 10-step grid.
    cases = [(*make_model(np.random.default_rng(16), 2, 1), 10)]
    for n in range(1, 5):
        for d in range(1, n + 1):
            for _ in range(REPORT_MODELS_PER_SHAPE):
                cases.append((*make_model(rng, n, d), int(rng.integers(10, 51))))
    return cases


def test_stability_report_never_raises_and_sigma_marks_decay(make_model):
    problems = []
    for c, (prior, meas, steps) in enumerate(_draw_report_cases(make_model)):
        grid = LambdaGrid.uniform(steps)
        for kind, params in _presets(prior, meas).items():
            where = f"case {c} (n={prior.n}, d={meas.d}, steps={steps}) {kind}"
            try:
                report = stability.build_stability_report(params, prior, meas, grid)
            except Exception as exc:  # noqa: BLE001 - every failure is a finding
                problems.append(f"{where}: {exc!r}")
                continue
            decays = report.regime is stability.Regime.EXPONENTIAL_DECAY
            if (report.sigma > 0.0) != decays:
                problems.append(f"{where}: sigma {report.sigma!r} with regime "
                                f"{report.regime.value}")
    assert not problems, problems


MOMENT_SEED = 20261020
MOMENT_MODEL_COUNT = 40
# Relative terminal-moment tolerance of acceptance criterion C1.
MOMENT_TOL = 1e-6


def _draw_moment_models():
    """40 models with n in 1..6, d in 1..n and P_g, R of condition number
    up to 1e3, and each model's uniform step count: h * rho(A) <= 0.25 on
    a probe grid, and at least 1000 steps.  All drawn before any solve."""
    rng = np.random.default_rng(MOMENT_SEED)
    cases = []
    for _ in range(MOMENT_MODEL_COUNT):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, n + 1))
        prior = GaussianPrior(rng.standard_normal(n), _spd(rng, n, 1e3))
        meas = LinearMeasurement(rng.standard_normal((d, n)), _spd(rng, d, 1e3),
                                 2.0 * rng.standard_normal(d))
        presets = _presets(prior, meas)
        probe = np.linspace(0.0, 1.0, 257)
        rho = max(np.abs(np.linalg.eigvals(
            affine_tables(p, prior, meas, probe, want_q=False)[0])).max()
            for p in presets.values())
        cases.append((prior, meas, presets, max(1000, int(np.ceil(4.0 * rho)))))
    return cases


def _moments_per_step(elements, prior):
    """The moment elements ``(T_k, c_k, S_k)`` of several solves composed
    one step at a time, ``m <- T_k m + c_k`` and ``P <- T_k P T_k^T + S_k``,
    all solves at once."""
    t, c, s = (np.stack(part, axis=1) for part in zip(*elements))
    t_tr = np.ascontiguousarray(np.swapaxes(t, 2, 3))
    means = np.empty((t.shape[0] + 1, *c.shape[1:], 1))
    covs = np.empty((t.shape[0] + 1, *s.shape[1:]))
    means[0] = prior.x_prior[:, None]
    covs[0] = prior.P_g
    for k in range(t.shape[0]):
        np.add(t[k] @ means[k], c[k, :, :, None], out=means[k + 1])
        np.add(t[k] @ covs[k] @ t_tr[k], s[k], out=covs[k + 1])
    return np.swapaxes(means[..., 0], 0, 1), np.swapaxes(covs, 0, 1)


def test_scanned_moments_match_the_oracle_and_the_per_step_composition(monkeypatch):
    elements = []
    scan = kernels._scan

    def recording_scan(t, c=None, s=None, limit=kernels.STATE_LIMIT):
        elements.append((t, c, s))
        return scan(t, c, s, limit)

    monkeypatch.setattr(kernels, "_scan", recording_scan)
    misses = []
    for index, (prior, meas, presets, steps) in enumerate(_draw_moment_models()):
        grid = LambdaGrid.uniform(steps)
        oracle_mean, oracle_cov = closed_form_posterior(1.0, prior, meas)
        elements.clear()
        paths = {kind: solve_moment_odes(params, grid, prior, meas)
                 for kind, params in presets.items()}
        want_means, want_covs = _moments_per_step(elements, prior)
        for j, (kind, path) in enumerate(paths.items()):
            for got, want in ((path.means, want_means[j]),
                              (path.covariances, want_covs[j])):
                gap = np.abs(got - want).max() / np.abs(want).max()
                if not gap <= 1e-12:
                    misses.append(f"model {index} {kind}: scan vs per-step {gap:.2e}")
            e_mean = np.linalg.norm(path.terminal_mean - oracle_mean) / (
                1.0 + np.linalg.norm(oracle_mean))
            e_cov = np.linalg.norm(path.terminal_covariance - oracle_cov) / (
                1.0 + np.linalg.norm(oracle_cov))
            if not max(e_mean, e_cov) <= MOMENT_TOL:
                misses.append(f"model {index} {kind} ({steps} steps): oracle "
                              f"{max(e_mean, e_cov):.2e}")
    assert not misses, misses


PENCIL_SEED = 20261021
PENCIL_MODEL_COUNT = 200


def _draw_pencil_models():
    """200 models with n in 1..6, d in 1..n, so H^T R^-1 H is often rank
    deficient, and P_g, R of condition number up to 1e3."""
    rng = np.random.default_rng(PENCIL_SEED)
    models = []
    for _ in range(PENCIL_MODEL_COUNT):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(1, n + 1))
        models.append((GaussianPrior(rng.standard_normal(n), _spd(rng, n, 1e3)),
                       LinearMeasurement(rng.standard_normal((d, n)), _spd(rng, d, 1e3),
                                         2.0 * rng.standard_normal(d))))
    return models


def test_pencil_inverse_matches_the_batched_inverse():
    models = _draw_pencil_models()
    assert any(meas.H.shape[0] < prior.n for prior, meas in models)
    lams = np.linspace(0.0, 1.0, 101)
    misses = []
    for index, (prior, meas) in enumerate(models):
        want = np.linalg.inv(_m_stack(lams, prior, meas))
        gap = (np.abs(_m_inv_stack(lams, prior, meas) - want).max(axis=(1, 2))
               / np.abs(want).max(axis=(1, 2))).max()
        if not gap <= 1e-12:
            misses.append(f"model {index}: {gap:.2e}")
    assert not misses, misses
