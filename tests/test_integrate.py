import math
import tracemalloc

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
    kernels,
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


def test_rekeyed_generator_draws_the_fresh_stream():
    heads = integrate._leading_normals(11, range(4, 9), 6)
    for row, stream_id in enumerate(range(4, 9)):
        assert np.array_equal(heads[row], NoiseStream(11, stream_id).normals(1, 6)[0])


def test_leading_normals_are_each_streams_first_draws():
    heads = integrate._leading_normals(13, range(3, 134), 3)
    # The first draws of a stream do not depend on how many follow.
    expected = np.stack([NoiseStream(13, i).normals(4, 250).ravel()[:3]
                         for i in range(3, 134)])
    assert heads.tobytes() == expected.tobytes()
    # Nor on a row longer than one pass, which is drawn in slices.
    count = 4 * integrate._PASS_BLOCKS + 5
    long = integrate._leading_normals(13, [3, 2**64 - 1], count)
    assert long[:, :3].tobytes() == integrate._leading_normals(
        13, [3, 2**64 - 1], 3).tobytes()
    assert long[0].tobytes() == NoiseStream(13, 3).normals(1, count).tobytes()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_philox_words_are_numpys(seed):
    # Block b of stream (seed, i) is numpy's Philox keyed [seed, i], whose
    # counter starts at 1; ids span the auxiliary-tag range and the top.
    ids = [0, 1, 2**63 + 3, 2**64 - 1]
    words = integrate._philox(seed, np.array(ids, dtype=np.uint64), 0, 5)
    later = integrate._philox(seed, np.array(ids, dtype=np.uint64), 2, 3)
    for row, stream_id in enumerate(ids):
        key = np.array([seed, stream_id], dtype=np.uint64)
        raw = np.random.Philox(key=key).random_raw(20)
        assert np.array_equal(words[row].ravel(), raw)
        assert np.array_equal(later[row].ravel(), raw[8:])


def test_normals_are_standard_normal():
    # 2**18 normals from 4096 streams, seed fixed in advance.
    z = integrate._leading_normals(20261020, range(4096), 64).ravel()
    n = z.size
    assert abs(z.mean()) <= 5.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) <= 5.0 * np.sqrt(2.0 / n)
    # E z^4 = 3 and Var z^4 = 105 - 9.
    assert abs((z**4).mean() - 3.0) <= 5.0 * np.sqrt(96.0 / n)
    cdf = 0.5 * (1.0 + np.frompyfunc(math.erf, 1, 1)(np.sort(z) / np.sqrt(2.0)))
    cdf = cdf.astype(float)
    ks = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
    assert ks < 1.6276 / np.sqrt(n)  # the 1 % critical value


def test_bridge_sized_draw_holds_a_bounded_transient():
    # 2000 streams of 1002 normals, the eta and zeta of a 500-step bridge:
    # the passes add a fixed few MB to the 16 MB output.
    count = 1002
    tracemalloc.start()
    try:
        out = integrate._leading_normals(5, range(2000), count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 2000 * count * 8
    assert peak <= 1.5 * out.nbytes


def test_propagation_builds_no_generator(monkeypatch):
    prior = GaussianPrior(np.array([0.2, -0.1]), np.array([[2.0, 0.3], [0.3, 1.0]]))
    meas = LinearMeasurement(np.eye(2), np.eye(2), np.array([1.0, 0.5]))
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(50)
    ens = sample_prior(1000, prior, seed=4)
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(args)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    out = propagate_ensemble(ens, params, grid, prior, meas)
    path = propagate_particle(ens.particles[7], params, grid, NoiseStream(4, 7),
                              prior, meas)
    assert built == []
    assert path.terminal.tobytes() == out.particles[7].tobytes()


def _small_law(kind="fixed_q"):
    """The Euler-Maruyama law of a 2-D model on 5 steps: m = r = 2 for
    fixed_q, m = r = 0 for the exact flow."""
    prior = GaussianPrior(np.array([0.2, -0.1]), np.array([[2.0, 0.3], [0.3, 1.0]]))
    meas = LinearMeasurement(np.eye(2), np.eye(2), np.array([1.0, 0.5]))
    tables = build_tables(preset(kind, prior, meas), LambdaGrid.uniform(5), prior, meas)
    return kernels._em_law(*kernels._em_maps(tables.a_nodes, tables.b_nodes,
                                             tables.q_factors, tables.dlam))


@pytest.mark.parametrize("width", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("first", [0, 9])
def test_noise_chunk_stacks_each_streams_block(width, first):
    # The bridge increments of a block of streams, as the flagged
    # particles of an ensemble are stepped on.
    law = _small_law()
    ids = range(first, first + width)
    chunk = integrate._bridge_chunk(13, ids, law)
    r, ut = law.f.shape[1], kernels._bridge_basis(law)
    expected = []
    for i in ids:
        block = NoiseStream(13, i).normals(1, r + 10)[0]
        expected.append(kernels._bridge(ut, block[:r], block[r:]).reshape(5, 2))
    assert r == 2
    assert chunk.shape == (5, 2, width)
    assert chunk.tobytes() == np.stack(expected, axis=2).tobytes()


def test_noise_chunk_draws_once_per_stream(monkeypatch):
    seen = []
    leading = integrate._leading_normals

    def counting(seed, ids, count):
        seen.append((seed, [int(i) for i in ids], count))
        return leading(seed, ids, count)

    monkeypatch.setattr(integrate, "_leading_normals", counting)
    integrate._bridge_chunk(13, range(3, 134), _small_law())
    # eta and zeta of every stream come from one call: r + steps * m normals.
    assert seen == [(13, list(range(3, 134)), 12)]
    # Without diffusion nothing is drawn and no stream is keyed.
    words = []
    monkeypatch.setattr(integrate, "_philox", lambda *args: words.append(args))
    chunk = integrate._bridge_chunk(13, range(3, 134), _small_law("exact"))
    assert chunk.shape == (5, 0, 131)
    assert words == []


def test_noise_chunk_checks_the_seed_and_the_id_range():
    law = _small_law()
    for seed, ids in ((-1, range(3)), (2**64, range(3)), (1, range(2**64 - 1, 2**64 + 1)),
                      (1, range(-1, 2))):
        with pytest.raises(ValueError, match="64-bit"):
            integrate._bridge_chunk(seed, ids, law)


def test_single_euler_step_by_hand(canonical):
    prior, meas = canonical
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(1)
    tables = build_tables(params, grid, prior, meas)
    a, b, q = tables.a_nodes[0], tables.b_nodes[0], tables.q_factors[0]
    # One step of size 1: Phi = 1 + a, d = b, Sigma = q q^T, and the
    # terminal spends the stream's first r normals on F eta.
    f = flows.diffusion_factor(q @ q.T)
    eta = NoiseStream(99, 0).normals(1, f.shape[1])[0]
    x0 = np.array([0.3])

    path = propagate_particle(x0, params, grid, NoiseStream(99, 0), prior, meas)
    expected = ((0.0 + (1.0 + a[0, 0]) * x0[0]) + f[0, 0] * eta[0]) + b[0]
    assert path.states[1].tolist() == [expected]
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
    for i in range(6):
        solo = propagate_particle(ens.particles[i], params, grid,
                                  NoiseStream(123, i), prior, meas)
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
    for slot in range(5):
        solo = propagate_particle(shuffled.particles[slot], params, grid,
                                  NoiseStream(77, slot), prior, meas)
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
    philox = integrate._philox

    def counting(*args):
        calls.append(args)
        return philox(*args)

    monkeypatch.setattr(integrate, "_philox", counting)
    out = propagate_ensemble(ens, params, grid, prior, meas)
    assert calls == []
    monkeypatch.undo()
    assert build_tables(params, grid, prior, meas).q_factors.shape[2] == 0
    for i in range(9):
        solo = propagate_particle(ens.particles[i], params, grid,
                                  NoiseStream(31, i), prior, meas)
        assert out.particles[i].tobytes() == solo.terminal.tobytes()


def _untrusted_law(monkeypatch):
    """Make every law fail its screen, so every particle is stepped."""
    monkeypatch.setattr(kernels, "_law_trusted", lambda *args: False)


def test_chunked_and_unchunked_ensembles_agree(monkeypatch, stepped_widths, canonical):
    prior, meas = canonical
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(30)
    ens = sample_prior(17, prior, seed=5)
    full = propagate_ensemble(ens, params, grid, prior, meas)
    # A prefix of the ensemble keeps its rows.
    from flowfilt import ParticleEnsemble

    head = ParticleEnsemble(ens.particles[:6], lam=0.0, seed=5)
    assert np.array_equal(propagate_ensemble(head, params, grid, prior, meas).particles,
                          full.particles[:6])
    # Stepping every particle, three per block of bridge increments,
    # leaves every row on its collapsed terminal, formed four at a time.
    _untrusted_law(monkeypatch)
    monkeypatch.setattr(kernels, "STEP_BUDGET", 90)
    monkeypatch.setattr(kernels, "TERMINAL_BLOCK", 4)
    widths = stepped_widths
    chunked = propagate_ensemble(ens, params, grid, prior, meas)
    assert widths == [3] * 5 + [2]
    assert np.array_equal(full.particles, chunked.particles)


def test_terminal_memory_does_not_grow_with_the_ensemble(make_model, stepped_widths):
    # The seed-1 model of the update_em benchmark workload: n = 4, d = 2,
    # fixed_q on 500 steps, with r = 2 normals per particle.
    seed = int(np.random.SeedSequence([1, 0]).generate_state(1, np.uint64)[0])
    prior, meas = make_model(np.random.default_rng(seed), 4, 2)
    tables = build_tables(preset("fixed_q", prior, meas), LambdaGrid.uniform(500),
                          prior, meas)
    law = kernels._em_law(*kernels._em_maps(tables.a_nodes, tables.b_nodes,
                                            tables.q_factors, tables.dlam))
    assert law.trusted and law.f.shape == (4, 2)
    count = 10_000
    rng = np.random.default_rng(39)
    x0 = prior.x_prior + rng.standard_normal((count, 4))
    eta = rng.standard_normal((2, count))
    tracemalloc.start()
    try:
        got = kernels._affine_run(x0, law, eta, lambda idx: None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got[2:] == (0, -1, -1) and stepped_widths == []
    # The states in and out are 0.32 MB each; one (n + r, n, N) product
    # stack for the whole ensemble took the peak to 2.7 MB.
    assert peak < 1.5e6, peak


def test_rk4_rejects_stochastic_flow(canonical):
    prior, meas = canonical
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(20, scheme="rk4")
    with pytest.raises(ValueError, match="diffusion-free"):
        build_tables(params, grid, prior, meas)


def test_rk4_rejects_a_diffusion_small_only_in_absolute_terms():
    # Q is 1e-16 at lam 0, as large as the prior covariance: tiny in
    # absolute terms, yet of full rank under the semidefiniteness rule.
    prior = GaussianPrior(np.zeros(1), 1e-16 * np.eye(1))
    meas = LinearMeasurement(1e8 * np.eye(1), np.eye(1), np.array([1.0]))
    params = preset("fixed_q", prior, meas)
    assert 0.0 < params.q_stack(np.zeros(1), prior, meas)[0, 0, 0] < 1e-14
    with pytest.raises(ValueError, match="diffusion-free.*rank 1 at lam=0.0"):
        build_tables(params, LambdaGrid.uniform(20, "rk4"), prior, meas)


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
    # Every particle stepped, 20 steps of one noise column: three
    # particles per block, so the bad particle is row 2 of the second.
    _untrusted_law(monkeypatch)
    monkeypatch.setattr(kernels, "STEP_BUDGET", 60)
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


def test_flagged_particle_among_ordinary_ones_is_stepped_alone(monkeypatch,
                                                               stepped_widths,
                                                               make_model):
    from flowfilt import ParticleEnsemble

    prior, meas = make_model(np.random.default_rng(25), 2, 1)
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(40)
    particles = sample_prior(6, prior, seed=8).particles.copy()
    # Its start is past the limit, so the rule flags it: it alone is
    # stepped along its bridge, which names the step where it fails.
    particles[3] = [1.5 * kernels.STATE_LIMIT, -0.4 * kernels.STATE_LIMIT]
    ens = ParticleEnsemble(particles, lam=0.0, seed=8)
    widths = stepped_widths
    with pytest.raises(DivergenceError) as info:
        propagate_ensemble(ens, params, grid, prior, meas)
    assert widths == [1]
    with pytest.raises(DivergenceError) as solo:
        propagate_particle(particles[3], params, grid, NoiseStream(8, 3), prior, meas)
    assert (info.value.step, info.value.particle) == (solo.value.step, 3)
    # With every particle flagged, every one is stepped, and a particle
    # that does not fail keeps its collapsed terminal.
    ordinary = ParticleEnsemble(np.delete(particles, 3, axis=0), lam=0.0, seed=8)
    out = propagate_ensemble(ordinary, params, grid, prior, meas)
    widths.clear()
    _untrusted_law(monkeypatch)
    stepped = propagate_ensemble(ordinary, params, grid, prior, meas)
    assert widths == [5]
    assert stepped.particles.tobytes() == out.particles.tobytes()


def test_benchmark_models_never_take_the_stepwise_path(stepped_widths, make_model):
    from flowfilt import SequentialScenario, run_sequential

    widths = stepped_widths
    # A stochastic update of the update_em kind: n=4, d=2, fixed_q, 500 steps.
    rng = np.random.default_rng(26)
    grid = LambdaGrid.uniform(500)
    for seed in range(4):
        prior, meas = make_model(rng, 4, 2)
        ens = sample_prior(200, prior, seed=seed)
        propagate_ensemble(ens, preset("fixed_q", prior, meas), grid, prior, meas)
    # The RK4 ensemble of the oracle kind: n=4, d=2, the exact flow, 500
    # steps; the RK4 maps run through the same engine with no noise.
    grid = LambdaGrid.uniform(500, scheme="rk4")
    for seed in range(4):
        prior, meas = make_model(rng, 4, 2)
        ens = sample_prior(2000, prior, seed=seed)
        propagate_ensemble(ens, preset("exact", prior, meas), grid, prior, meas)
    # The track model: a 2-D constant-velocity target, position measured,
    # fixed_q on 200 steps.
    eye, zero = np.eye(2), np.zeros((2, 2))
    prior = GaussianPrior(np.array([0.3, -0.2, 0.1, 0.05]),
                          np.diag([1.0, 1.0, 0.1, 0.1]))
    meas = LinearMeasurement(np.hstack([eye, zero]), eye, np.zeros(2))
    scenario = SequentialScenario(
        F=np.block([[eye, eye], [zero, eye]]),
        W=0.1 * np.block([[eye / 3, eye / 2], [eye / 2, eye]]),
        n_steps=10, truth_seed=5)
    run_sequential(prior, meas, preset("fixed_q", prior, meas),
                   LambdaGrid.uniform(200), scenario, 100, 6)
    assert widths == []


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
        "broken",
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
    eigh, factor = np.linalg.eigh, flows.diffusion_factor

    def counting_eigh(a, *args, **kwargs):
        # The pencil's one n x n eigh forms M(lam)^-1; count the stacks.
        calls["eigh"] += np.ndim(a) == 3
        return eigh(a, *args, **kwargs)

    def counting_factor(*args, **kwargs):
        calls["diffusion_factor"] += 1
        return factor(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    # The tables factor the diffusion in integrate, the law Sigma in kernels.
    monkeypatch.setattr(integrate, "diffusion_factor", counting_factor)
    monkeypatch.setattr(kernels, "diffusion_factor", counting_factor)
    propagate_ensemble(ens, params, grid, prior, meas)
    # One stacked call factors the diffusion of every step, and one the
    # covariance of the terminal law.
    assert calls == {"eigh": 2, "diffusion_factor": 2}
