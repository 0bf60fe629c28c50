import numpy as np
import pytest
from numpy.testing import assert_allclose

import flowfilt.integrate as integrate
import flowfilt.flows as flows
from flowfilt import (
    AdmissibilityError,
    DivergenceError,
    GaussianPrior,
    LambdaGrid,
    LinearMeasurement,
    NoiseStream,
    closed_form_posterior,
    preset,
    propagate_ensemble,
    propagate_particle,
    sample_prior,
)
from flowfilt.integrate import build_tables


def test_noise_stream_is_pure():
    a = NoiseStream(42, 7).normals(10, 3)
    b = NoiseStream(42, 7).normals(10, 3)
    assert np.array_equal(a, b)
    c = NoiseStream(42, 8).normals(10, 3)
    assert not np.array_equal(a, c)
    d = NoiseStream(43, 7).normals(10, 3)
    assert not np.array_equal(a, d)


def test_noise_stream_replays_from_the_key():
    s = NoiseStream(5, 1)
    first = s.normals(4, 2)
    again = s.normals(4, 2)
    assert np.array_equal(first, again)
    # A longer block extends the shorter one; the prefix never moves.
    longer = NoiseStream(5, 1).normals(8, 2)
    assert np.array_equal(longer[:4], first)
    assert s.counter == 4


def test_rekeyed_generator_draws_the_fresh_stream():
    gen = integrate.make_generator(3, 0)
    for seed, stream_id in ((1, 0), (1, 7), (2**64 - 1, 2**63 + 3)):
        # Leave a half-used buffer and a cached 32-bit word behind.
        gen.standard_normal(3)
        gen.integers(0, 10, size=3, dtype=np.uint32)
        reused = NoiseStream(seed, stream_id).normals(9, 2, gen)
        assert np.array_equal(reused, NoiseStream(seed, stream_id).normals(9, 2))
    chunk = integrate._noise_chunk(11, range(4, 9), 6, 3)
    for col, stream_id in enumerate(range(4, 9)):
        assert np.array_equal(chunk[:, :, col], NoiseStream(11, stream_id).normals(6, 3))


@pytest.mark.parametrize("width", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("first", [0, 9])
def test_noise_chunk_stacks_each_streams_block(width, first):
    ids = range(first, first + width)
    chunk = integrate._noise_chunk(13, ids, 5, 2)
    expected = np.stack([NoiseStream(13, i).normals(5, 2) for i in ids], axis=2)
    assert chunk.shape == (5, 2, width)
    assert chunk.tobytes() == expected.tobytes()


def test_noise_chunk_draws_once_per_stream(monkeypatch):
    seen = []
    normals = NoiseStream.normals

    def counting(self, steps, m, gen=None, out=None):
        seen.append((self.seed, self.stream_id, steps, m))
        return normals(self, steps, m, gen, out)

    monkeypatch.setattr(NoiseStream, "normals", counting)
    integrate._noise_chunk(13, range(3, 134), 4, 2)
    assert seen == [(13, i, 4, 2) for i in range(3, 134)]
    seen.clear()
    # Without diffusion nothing is drawn and no stream is keyed.
    assert integrate._noise_chunk(13, range(3, 134), 4, 0).shape == (4, 0, 131)
    assert seen == []


def test_noise_chunk_checks_the_seed_and_the_id_range():
    for seed, ids in ((-1, range(3)), (2**64, range(3)), (1, range(2**64 - 1, 2**64 + 1)),
                      (1, range(-1, 2))):
        with pytest.raises(ValueError, match="64-bit"):
            integrate._noise_chunk(seed, ids, 4, 2)


def test_normals_fill_the_callers_buffer():
    buf = np.full((7, 3), np.nan)
    got = NoiseStream(8, 5).normals(7, 3, out=buf)
    assert got is buf
    assert buf.tobytes() == NoiseStream(8, 5).normals(7, 3).tobytes()
    with pytest.raises(ValueError):
        NoiseStream(8, 5).normals(7, 2, out=buf)


def test_single_euler_step_by_hand(canonical):
    prior, meas = canonical
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(1)
    tables = build_tables(params, grid, prior, meas)
    noise = NoiseStream(99, 0)
    xi = NoiseStream(99, 0).normals(1, tables.m_max)[0]
    x0 = np.array([0.3])

    path = propagate_particle(x0, params, grid, noise, prior, meas)
    a, b, q = tables.a_nodes[0], tables.b_nodes[0], tables.q_factors[0]
    expected = (x0 + (a @ x0 + b) * 1.0) + (q @ xi) * 1.0
    assert np.array_equal(path.states[1], expected)
    assert np.array_equal(path.states[0], x0)


def test_path_shape_and_nodes(canonical):
    prior, meas = canonical
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(25)
    path = propagate_particle(np.zeros(1), params, grid, NoiseStream(1, 0),
                              prior, meas)
    assert path.states.shape == (26, 1)
    assert_allclose(path.nodes, grid.nodes)
    assert np.array_equal(path.terminal, path.states[-1])


def test_ensemble_rows_replay_single_particle_runs(make_model):
    rng = np.random.default_rng(20)
    prior, meas = make_model(rng, 2, 2)
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(50)
    ens = sample_prior(6, prior, seed=123)
    out = propagate_ensemble(ens, params, grid, prior, meas)
    tables = build_tables(params, grid, prior, meas)
    for i in range(6):
        solo = propagate_particle(ens.particles[i], params, grid,
                                  NoiseStream(123, i), prior, meas,
                                  tables=tables)
        assert np.array_equal(out.particles[i], solo.terminal)


def test_rk4_ensemble_rows_replay_single_particle_runs(make_model):
    rng = np.random.default_rng(24)
    prior, meas = make_model(rng, 3, 2)
    params = preset("exact", prior, meas)
    grid = LambdaGrid.uniform(60, scheme="rk4")
    ens = sample_prior(7, prior, seed=41)
    out = propagate_ensemble(ens, params, grid, prior, meas)
    for i in range(7):
        solo = propagate_particle(ens.particles[i], params, grid,
                                  NoiseStream(41, i), prior, meas)
        assert out.particles[i].tobytes() == solo.terminal.tobytes()


def test_ensemble_output_depends_only_on_slot(make_model):
    rng = np.random.default_rng(21)
    prior, meas = make_model(rng, 2, 1)
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(40)
    from flowfilt import ParticleEnsemble

    base = sample_prior(5, prior, seed=77)
    perm = np.array([3, 1, 4, 0, 2])
    shuffled = ParticleEnsemble(base.particles[perm], 0.0, 77)
    out_base = propagate_ensemble(base, params, grid, prior, meas)
    out_shuf = propagate_ensemble(shuffled, params, grid, prior, meas)
    tables = build_tables(params, grid, prior, meas)
    for slot in range(5):
        solo = propagate_particle(shuffled.particles[slot], params, grid,
                                  NoiseStream(77, slot), prior, meas,
                                  tables=tables)
        assert np.array_equal(out_shuf.particles[slot], solo.terminal)
    # Slot 1 holds the same state in both orderings, so it must agree.
    assert np.array_equal(out_base.particles[1], out_shuf.particles[1])


def test_zero_diffusion_ensemble_draws_no_noise(monkeypatch, make_model):
    rng = np.random.default_rng(22)
    prior, meas = make_model(rng, 3, 2)
    params = preset("exact", prior, meas)
    grid = LambdaGrid.uniform(40)  # Euler grid, so the EM kernel runs
    ens = sample_prior(9, prior, seed=31)
    calls = []
    normals = NoiseStream.normals

    def counting(self, *args, **kwargs):
        calls.append(self.stream_id)
        return normals(self, *args, **kwargs)

    monkeypatch.setattr(NoiseStream, "normals", counting)
    out = propagate_ensemble(ens, params, grid, prior, meas)
    assert calls == []
    monkeypatch.undo()
    tables = build_tables(params, grid, prior, meas)
    assert tables.m_max == 0
    for i in range(9):
        solo = propagate_particle(ens.particles[i], params, grid,
                                  NoiseStream(31, i), prior, meas,
                                  tables=tables)
        assert out.particles[i].tobytes() == solo.terminal.tobytes()


def test_chunked_and_unchunked_ensembles_agree(monkeypatch, canonical):
    prior, meas = canonical
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(30)
    ens = sample_prior(17, prior, seed=5)
    full = propagate_ensemble(ens, params, grid, prior, meas)
    monkeypatch.setattr(integrate, "_CHUNK_BUDGET", 100)
    chunked = propagate_ensemble(ens, params, grid, prior, meas)
    assert np.array_equal(full.particles, chunked.particles)


def test_rk4_rejects_stochastic_flow(canonical):
    prior, meas = canonical
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(20, scheme="rk4")
    with pytest.raises(ValueError, match="diffusion-free"):
        build_tables(params, grid, prior, meas)


def test_rk4_exact_flow_reaches_posterior_mean(make_model):
    rng = np.random.default_rng(23)
    prior, meas = make_model(rng, 3, 2)
    params = preset("exact", prior, meas)
    grid = LambdaGrid.uniform(200, scheme="rk4")
    # Starting at the prior mean, the deterministic flow rides the mean
    # trajectory all the way to the posterior mean.
    path = propagate_particle(prior.x_prior, params, grid, NoiseStream(0, 0),
                              prior, meas)
    oracle_mean, _ = closed_form_posterior(1.0, prior, meas)
    assert_allclose(path.terminal, oracle_mean, atol=1e-10)


def test_divergence_reports_first_step_and_particle():
    prior = GaussianPrior(np.zeros(1), np.eye(1))
    meas = LinearMeasurement(np.eye(1), np.eye(1), np.array([1e15]))
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(20)
    ens = sample_prior(4, prior, seed=3)
    with pytest.raises(DivergenceError) as info:
        propagate_ensemble(ens, params, grid, prior, meas)
    assert info.value.step == 0
    assert info.value.particle == 0
    assert info.value.lam == grid.nodes[1]
    assert "lam" in str(info.value)


def test_divergence_in_a_later_chunk_names_the_global_particle(monkeypatch, canonical):
    prior, meas = canonical
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(20)
    from flowfilt import ParticleEnsemble

    particles = np.zeros((7, 1))
    particles[5] = 1e13
    ens = ParticleEnsemble(particles, lam=0.0, seed=4)
    # 20 steps of one noise column: three particles per chunk, so the
    # bad particle is row 2 of the second chunk.
    monkeypatch.setattr(integrate, "_CHUNK_BUDGET", 60)
    with pytest.raises(DivergenceError) as info:
        propagate_ensemble(ens, params, grid, prior, meas)
    assert (info.value.step, info.value.particle) == (0, 5)
    assert info.value.lam == grid.nodes[1]


def test_propagate_ensemble_requires_initial_lam_zero(canonical):
    prior, meas = canonical
    from flowfilt import ParticleEnsemble

    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(20)
    ens = ParticleEnsemble(np.zeros((3, 1)), lam=1.0, seed=0)
    with pytest.raises(ValueError, match="lam 0.0"):
        propagate_ensemble(ens, params, grid, prior, meas)


def test_propagate_particle_rejects_wrong_dimension(canonical):
    prior, meas = canonical
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(20)
    with pytest.raises(ValueError, match="shape"):
        propagate_particle(np.zeros(2), params, grid, NoiseStream(0, 0),
                           prior, meas)


def test_indefinite_diffusion_on_the_grid_names_its_left_node(make_model):
    prior, meas = make_model(np.random.default_rng(23), 2, 1)

    def q_builder(lambdas, prior, meas):
        # diag(1, 0.5 - lam): semidefinite up to lam 0.5, indefinite after.
        q = np.zeros((lambdas.size, 2, 2))
        q[:, 0, 0] = 1.0
        q[:, 1, 1] = 0.5 - lambdas
        return q

    # Admissible "by construction", so affine_tables skips its own test and
    # the diffusion factorisation is what catches the indefinite steps.
    params = flows.FlowParameterization(
        "broken", "indefinite for lam > 0.5",
        k_builder=lambda lambdas, prior, meas: np.zeros((lambdas.size, 2, 2)),
        q_builder=q_builder, analytic_admissible=True)
    grid = LambdaGrid.uniform(10)
    with pytest.raises(AdmissibilityError) as info:
        build_tables(params, grid, prior, meas)
    assert info.value.lam == grid.nodes[6]
    assert info.value.margin == pytest.approx(0.5 - grid.nodes[6], rel=1e-12)


def test_euler_tables_factor_the_diffusion_in_one_call(monkeypatch, make_model):
    prior, meas = make_model(np.random.default_rng(24), 4, 2)
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(200)
    ens = sample_prior(5, prior, seed=3)
    calls = {"eigh": 0, "diffusion_factor": 0}
    eigh, factor = np.linalg.eigh, integrate.diffusion_factor

    def counting_eigh(*args, **kwargs):
        calls["eigh"] += 1
        return eigh(*args, **kwargs)

    def counting_factor(*args, **kwargs):
        calls["diffusion_factor"] += 1
        return factor(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(integrate, "diffusion_factor", counting_factor)
    propagate_ensemble(ens, params, grid, prior, meas)
    assert calls == {"eigh": 1, "diffusion_factor": 1}
