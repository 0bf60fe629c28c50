"""The collapsed Euler-Maruyama law against the stepwise scheme it stands for.

An ensemble update draws r = rank Sigma normals per particle and forms
``Phi x0 + F eta + d``; a recorded run steps a bridge conditioned on the
same eta.  The models come from fixed seeds drawn before any check runs.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowfilt import (DivergenceError, GaussianPrior, LambdaGrid, LinearMeasurement,
                      NoiseStream, ParticleEnsemble, kernels, preset,
                      propagate_ensemble, propagate_particle, sample_prior)
from flowfilt import integrate
from flowfilt.integrate import build_tables

SRC = Path(__file__).resolve().parents[1] / "src"


def _model(seed, n, d):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((d, d))
    prior = GaussianPrior(rng.standard_normal(n), a @ a.T + n * np.eye(n))
    meas = LinearMeasurement(rng.standard_normal((d, n)), b @ b.T + d * np.eye(d),
                             2.0 * rng.standard_normal(d))
    return prior, meas


# (seed, n, d) of every model, fixed before any run.
MODELS = ((101, 4, 2), (102, 3, 1), (103, 2, 2))


def _law(tables):
    return kernels._em_law(*kernels._em_maps(tables.a_nodes, tables.b_nodes,
                                             tables.q_factors, tables.dlam))


def _stepwise_law(tables):
    """Phi_N, d_N and ``sum_j W_j W_j^T`` one step at a time, forwards for
    Phi and d and backwards for the W_j."""
    mk, gk, g = kernels._em_maps(tables.a_nodes, tables.b_nodes,
                                 tables.q_factors, tables.dlam)
    n = mk.shape[1]
    phi, d = np.eye(n), np.zeros(n)
    for k in range(mk.shape[0]):
        phi, d = mk[k] @ phi, mk[k] @ d + g[k]
    sigma, tail = np.zeros((n, n)), np.eye(n)
    for k in reversed(range(mk.shape[0])):
        w = tail @ gk[k]
        sigma += w @ w.T
        tail = tail @ mk[k]
    return phi, d, sigma


@pytest.mark.parametrize("seed, n, d", MODELS)
@pytest.mark.parametrize("kind", ["fixed_q", "constant_q"])
def test_law_matches_the_stepwise_sums(seed, n, d, kind):
    prior, meas = _model(seed, n, d)
    params = preset(kind, prior, meas, **({"Q0": np.eye(n)} if kind == "constant_q" else {}))
    tables = build_tables(params, LambdaGrid.uniform(300), prior, meas)
    law = _law(tables)
    f = law.f
    phi, d_n, sigma = _stepwise_law(tables)

    def rel(got, want):
        return np.abs(got - want).max() / np.abs(want).max()

    assert rel(law.sigma, sigma) <= 1e-13
    assert rel(law.ct[:n].T, phi) <= 1e-13
    assert rel(law.d, d_n) <= 1e-13
    assert np.array_equal(law.sigma, law.sigma.T)
    assert rel(f @ f.T, law.sigma) <= 1e-12
    # fixed_q diffuses only along range(P H^T), so r = d < n is kept.
    assert f.shape == (n, d if kind == "fixed_q" else n)


def test_terminal_moments_match_stepwise_em_terminals():
    prior, meas = _model(104, 3, 2)
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(50)
    tables = build_tables(params, grid, prior, meas)
    count = 20_000
    x0 = np.array([0.4, -1.0, 2.0])
    start = ParticleEnsemble(np.tile(x0, (count, 1)), lam=0.0, seed=7)
    collapsed = propagate_ensemble(start, params, grid, prior, meas).particles
    noise = np.random.default_rng(8).standard_normal(
        (grid.steps, tables.q_factors.shape[2], count))
    stepped, _, code, _, _ = kernels.em_propagate(
        start.particles, tables.a_nodes, tables.b_nodes, tables.q_factors, noise,
        tables.dlam)
    assert code == 0
    phi, d_n, sigma = _stepwise_law(tables)
    mean = phi @ x0 + d_n
    # Both sample means within 5 standard errors of the law's mean, and
    # of each other.
    se = np.sqrt(np.diag(sigma) / count)
    assert np.all(np.abs(collapsed.mean(axis=0) - mean) <= 5.0 * se)
    assert np.all(np.abs(stepped.mean(axis=0) - mean) <= 5.0 * se)
    assert np.all(np.abs(collapsed.mean(axis=0) - stepped.mean(axis=0))
                  <= 5.0 * np.sqrt(2.0) * se)
    # Sample covariances: each entry has a standard error of about
    # sqrt(2 / N) = 1 % of the scale, so 5 % is a wide band.
    scale = np.abs(sigma).max()
    for sample in (collapsed, stepped):
        assert np.abs(np.cov(sample.T) - sigma).max() <= 0.05 * scale
    assert np.abs(np.cov(collapsed.T) - np.cov(stepped.T)).max() <= 0.05 * scale


def test_rank_deficient_law_draws_r_normals_per_particle(monkeypatch):
    prior, meas = _model(102, 3, 1)
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(40)
    ens = sample_prior(25, prior, seed=9)
    law = _law(build_tables(params, grid, prior, meas))
    f = law.f
    assert f.shape == (3, 1)
    seen = []
    leading = integrate._leading_normals

    def counting(seed, ids, count):
        seen.append((seed, [int(i) for i in ids], count))
        return leading(seed, ids, count)

    monkeypatch.setattr(integrate, "_leading_normals", counting)
    out = propagate_ensemble(ens, params, grid, prior, meas)
    assert seen == [(9, list(range(25)), 1)]
    # Every terminal lies on the line through Phi x0 + d along F.
    det = out.particles - (ens.particles @ law.ct[:3] + law.d)
    resid = det - np.outer(det @ f[:, 0] / (f[:, 0] @ f[:, 0]), f[:, 0])
    assert np.abs(resid).max() <= 1e-12 * np.abs(det).max()


def test_zero_diffusion_em_flow_keys_no_stream(monkeypatch):
    prior, meas = _model(103, 2, 2)
    params = preset("exact", prior, meas)
    grid = LambdaGrid.uniform(30)
    ens = sample_prior(5, prior, seed=2)
    keyed = []
    philox = integrate._philox

    def counting(seed, keys, first, blocks):
        keyed.append(keys)
        return philox(seed, keys, first, blocks)

    monkeypatch.setattr(integrate, "_philox", counting)
    out = propagate_ensemble(ens, params, grid, prior, meas)
    path = propagate_particle(ens.particles[3], params, grid, NoiseStream(2, 3),
                              prior, meas)
    assert keyed == []
    assert path.terminal.tobytes() == out.particles[3].tobytes()


@pytest.mark.parametrize("seed, n, d", MODELS)
def test_bridge_carries_the_collapsed_noise(seed, n, d):
    prior, meas = _model(seed, n, d)
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(200)
    tables = build_tables(params, grid, prior, meas)
    law = _law(tables)
    f, m = law.f, tables.q_factors.shape[2]
    ut, r = kernels._bridge_basis(law), f.shape[1]
    wt = law.ct[n:]
    x0 = prior.x_prior
    for stream_id in range(5):
        block = NoiseStream(11, stream_id).normals(1, r + wt.shape[0])[0]
        eta, zeta = block[:r], block[r:]
        xi = kernels._bridge(ut, eta, zeta)
        # U xi = eta and W xi = F eta, to rounding.
        assert np.abs(ut.T @ xi - eta).max() <= 1e-12 * np.abs(eta).max()
        assert np.abs(wt.T @ xi - f @ eta).max() <= 1e-12 * np.abs(f @ eta).max()
        stepped = kernels.em_propagate(x0[None, :], tables.a_nodes, tables.b_nodes,
                                       tables.q_factors,
                                       xi.reshape(grid.steps, m, 1),
                                       tables.dlam, record=True)[1][0]
        path = propagate_particle(x0, params, grid, NoiseStream(11, stream_id),
                                  prior, meas)
        # The recorded path is the stepped bridge, and its last node the
        # collapsed terminal, which the bridge reaches to rounding.
        assert path.states[:-1].tobytes() == stepped[:-1].tobytes()
        assert np.abs(path.terminal - stepped[-1]).max() <= 1e-12 * np.abs(stepped[-1]).max()


def test_widest_stream_id_replays_to_its_terminal_law():
    prior, meas = _model(101, 4, 2)
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(50)
    law = _law(build_tables(params, grid, prior, meas))
    n, r = law.f.shape
    steps_m = law.ct.shape[0] - n
    seed, wide, x0 = 17, 2**64 - 1, prior.x_prior + 0.3
    path = propagate_particle(x0, params, grid, NoiseStream(seed, wide), prior, meas)
    # The terminal is Phi x0 + F eta + d in the contract's order: from
    # +0.0, the terms of [x0; eta] ascending, then d.
    eta = NoiseStream(seed, wide).normals(1, r)[0]
    terminal = np.zeros(n)
    for coef, z in zip([*law.ct[:n], *law.f.T], [*x0, *eta]):
        terminal = terminal + coef * z
    assert path.terminal.tobytes() == (terminal + law.d).tobytes()
    # The path is the bridge of one block of r + steps m normals.
    block = NoiseStream(seed, wide).normals(1, r + steps_m)[0]
    xi = kernels._bridge(kernels._bridge_basis(law), block[:r], block[r:])
    stepped = kernels._affine_run(x0[None], law, block[:r, None],
                                  lambda idx: xi.reshape(grid.steps, -1, 1),
                                  record=True)[1][0]
    assert path.states.tobytes() == stepped.tobytes()


def _stiff_scalar():
    """A scalar model whose first Euler step maps x to about -0.25 x."""
    prior = GaussianPrior(np.zeros(1), np.eye(1))
    meas = LinearMeasurement(np.eye(1), 1e-2 * np.eye(1), np.array([1.0]))
    return prior, meas, preset("fixed_q", prior, meas), LambdaGrid.uniform(80)


@pytest.mark.parametrize("count", [1, 2, 7, 33])
def test_rows_equal_particles_for_any_size_and_a_flagged_particle(count, stepped_widths):
    prior, meas, params, grid = _stiff_scalar()
    particles = sample_prior(count, prior, seed=12).particles.copy()
    # A start past the limit is flagged and stepped; the first step brings
    # it back in range, so it keeps its collapsed terminal.
    flagged = count // 2
    particles[flagged] = 1.5 * kernels.STATE_LIMIT
    ens = ParticleEnsemble(particles, lam=0.0, seed=12)
    widths = stepped_widths
    out = propagate_ensemble(ens, params, grid, prior, meas)
    assert widths == [1]
    for i in range(count):
        path = propagate_particle(particles[i], params, grid, NoiseStream(12, i),
                                  prior, meas)
        assert path.terminal.tobytes() == out.particles[i].tobytes(), i
        if i == flagged:
            assert np.abs(path.states[1:]).max() < kernels.STATE_LIMIT


def test_diverging_particle_is_named_by_its_bridge():
    # The first step maps 1e14 to about -2.5e13, past the limit.
    prior, meas, params, grid = _stiff_scalar()
    particles = sample_prior(6, prior, seed=13).particles.copy()
    particles[4] = 1e14
    ens = ParticleEnsemble(particles, lam=0.0, seed=13)
    with pytest.raises(DivergenceError) as info:
        propagate_ensemble(ens, params, grid, prior, meas)
    assert (info.value.step, info.value.particle) == (0, 4)
    with pytest.raises(DivergenceError) as solo:
        propagate_particle(particles[4], params, grid, NoiseStream(13, 4), prior, meas)
    assert solo.value.step == 0


_THREAD_RUN = """
import hashlib, sys
import numpy as np
from flowfilt import LambdaGrid, NoiseStream, preset, sample_prior
from flowfilt import propagate_ensemble, propagate_particle
sys.path.insert(0, sys.argv[1])
from test_law import _model
prior, meas = _model(101, 4, 2)
params = preset("fixed_q", prior, meas)
grid = LambdaGrid.uniform(500)
ens = sample_prior(2000, prior, seed=21)
out = propagate_ensemble(ens, params, grid, prior, meas)
path = propagate_particle(ens.particles[5], params, grid, NoiseStream(21, 5), prior, meas)
print(hashlib.sha256(out.particles.tobytes() + path.states.tobytes()).hexdigest())
"""


def test_update_em_shape_is_thread_invariant():
    digests = []
    for threads in ("1", "4"):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        proc = subprocess.run([sys.executable, "-c", _THREAD_RUN,
                               str(Path(__file__).resolve().parent)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]
    assert len(digests[0]) == len(hashlib.sha256().hexdigest())
