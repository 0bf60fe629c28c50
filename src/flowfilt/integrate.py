"""Particle propagation along the homotopy parameter.

Stochastic propagation uses Euler-Maruyama; the fourth-order
deterministic scheme is reserved for flows whose diffusion vanishes on
the whole grid.  All noise comes from counter-based generators keyed by
``(seed, stream_id)``, so any particle can be replayed in isolation and
results do not depend on ensemble size, chunking or thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DivergenceError
from .flows import FlowParameterization, affine_tables, diffusion_factor
from .grid import LambdaGrid
from .model import GaussianPrior, LinearMeasurement

# Stream ids below 2**63 are reserved for per-particle propagation noise;
# auxiliary draws (prior sampling, stability Monte Carlo, ...) use tags
# above it so key collisions are impossible.
PRIOR_STREAM = 1 << 63
FTSS_STREAM = (1 << 63) + 1
ELLIPSOID_STREAM = (1 << 63) + 2
TRUTH_STREAM = (1 << 63) + 3
PROCESS_STREAM = (1 << 63) + 4

# A flow counts as diffusion-free when no grid node exceeds this.
_ZERO_Q_TOL = 1e-14

# Cap on per-chunk noise buffers, in float64 entries.
_CHUNK_BUDGET = 8_000_000


def _check_seed(seed) -> int:
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return seed


def make_generator(seed: int, stream_id: int) -> np.random.Generator:
    """Counter-based generator for one (seed, stream) pair."""
    key = np.array([_check_seed(seed), _check_seed(stream_id)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _Keyring:
    """One Philox generator, re-keyed in place to each stream it serves.

    Building a Philox also seeds an unused SeedSequence from OS entropy,
    which costs more than the key itself.  A keyring builds one generator
    and one state dict; re-keying writes the key into the dict and hands
    the dict to the generator, which copies it.  The dict holds Python
    ints rather than uint64 arrays because the generator reads those
    faster: 1.2 against 3.2 us per re-key on one x86 core.
    """

    def __init__(self, gen: np.random.Generator = None):
        self.gen = make_generator(0, 0) if gen is None else gen
        self._key = [0, 0]
        # A freshly keyed Philox: zero counter, empty buffer, no cached word.
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": (0, 0, 0, 0), "key": self._key},
                       "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}

    def keyed(self, seed: int, stream_id: int) -> np.random.Generator:
        """The generator, in the state of ``make_generator(seed, stream_id)``."""
        self._key[0] = seed
        self._key[1] = stream_id
        self.gen.bit_generator.state = self._state
        return self.gen


@dataclass
class NoiseStream:
    """Reproducible source of standard normal increments.

    The draws are a pure function of ``(seed, stream_id)``; row k of
    :meth:`normals` is the increment consumed at integration step k, and
    ``counter`` records how many rows have been handed out.
    """

    seed: int
    stream_id: int
    counter: int = 0

    def __post_init__(self):
        self.seed = _check_seed(self.seed)
        self.stream_id = _check_seed(self.stream_id)

    def normals(self, steps: int, m: int, gen: np.random.Generator = None,
                out: np.ndarray = None) -> np.ndarray:
        """Standard normal block of shape (steps, m), replayed from the key.

        ``gen``, when given, is a Philox generator (or a keyring around
        one) that is re-keyed to this stream and drawn from instead of
        building a new one.  ``out``, when given, is a C-contiguous
        float64 (steps, m) buffer that is filled and returned instead of
        a new array.  The block is the same either way.
        """
        if not isinstance(gen, _Keyring):
            gen = _Keyring(gen)
        out = gen.keyed(self.seed, self.stream_id).standard_normal(
            (int(steps), int(m)), out=out)
        self.counter = int(steps)
        return out


@dataclass(frozen=True)
class ParticlePath:
    """States of one particle at every grid node."""

    nodes: np.ndarray
    states: np.ndarray

    @property
    def terminal(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True)
class CoefficientTables:
    """Flow coefficients precomputed on a grid, ready for the kernels."""

    scheme: str
    dlam: np.ndarray
    a_nodes: np.ndarray
    b_nodes: np.ndarray
    a_mids: np.ndarray = None
    b_mids: np.ndarray = None
    q_factors: np.ndarray = None  # (steps, n, m_max), zero-padded
    m_max: int = 0


def build_tables(params: FlowParameterization, grid: LambdaGrid,
                 prior: GaussianPrior, meas: LinearMeasurement) -> CoefficientTables:
    """Evaluate drift and diffusion on the grid once, for reuse by kernels.

    For the stochastic scheme the diffusion at the left node of every
    step is factored as q q^T by one stacked :func:`diffusion_factor`
    call, which zero-pads the factors to a common width; an indefinite
    diffusion raises AdmissibilityError naming that step's left node.
    For the deterministic scheme the diffusion must vanish at every
    node, and midpoint coefficients are also evaluated.
    """
    if grid.scheme == "rk4":
        a_nodes, b_nodes, q_nodes = affine_tables(params, prior, meas, grid.nodes)
        if np.abs(q_nodes).max() > _ZERO_Q_TOL:
            raise ValueError(
                "the rk4 scheme requires a diffusion-free flow; "
                f"max |Q| on the grid is {np.abs(q_nodes).max():.3e}"
            )
        a_mids, b_mids, _ = affine_tables(params, prior, meas, grid.midpoints,
                                          want_q=False)
        return CoefficientTables(scheme="rk4", dlam=grid.dlam,
                                 a_nodes=a_nodes, b_nodes=b_nodes,
                                 a_mids=a_mids, b_mids=b_mids)

    left = grid.nodes[:-1]
    a_left, b_left, q_left = affine_tables(params, prior, meas, left)
    q_factors = diffusion_factor(q_left, lambdas=left)
    return CoefficientTables(scheme="euler_maruyama", dlam=grid.dlam,
                             a_nodes=a_left, b_nodes=b_left,
                             q_factors=q_factors, m_max=q_factors.shape[2])


def _raise_divergence(code: int, step: int, particle: int, nodes: np.ndarray,
                      single: bool):
    kind = "non-finite state" if code == 1 else "state norm overflow"
    lam = nodes[step + 1]
    where = f"step {step}" if single else f"step {step}, particle {particle}"
    raise DivergenceError(f"propagation diverged ({kind}) at {where}, lam {lam:.6g}",
                          step=step, particle=particle if not single else -1,
                          lam=lam)


def propagate_particle(x0, params: FlowParameterization, grid: LambdaGrid,
                       noise: NoiseStream, prior: GaussianPrior,
                       meas: LinearMeasurement,
                       tables: CoefficientTables = None) -> ParticlePath:
    """Propagate a single state from lam 0 to 1, recording the whole path.

    Args:
        x0: initial state of dimension n.
        params: flow parameterization.
        grid: pseudo-time grid; its scheme selects the integrator.
        noise: noise stream consumed by the stochastic scheme (one row
            per step).  Unused rows are never drawn for the
            deterministic scheme.
        prior, meas: the model.
        tables: optional precomputed coefficients for this grid.

    Returns:
        ParticlePath with ``steps + 1`` states.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (prior.n,):
        raise ValueError(f"x0 must have shape {(prior.n,)}, got {x0.shape}")
    if tables is None:
        tables = build_tables(params, grid, prior, meas)
    if tables.scheme == "rk4":
        _, paths, code, step, particle = kernels.rk4_propagate(
            x0[None, :], tables.a_nodes, tables.b_nodes,
            tables.a_mids, tables.b_mids, tables.dlam, record=True)
    else:
        block = noise.normals(grid.steps, tables.m_max)
        _, paths, code, step, particle = kernels.em_propagate(
            x0[None, :], tables.a_nodes, tables.b_nodes, tables.q_factors,
            block[:, :, None], tables.dlam, record=True)
    if code:
        _raise_divergence(code, step, particle, grid.nodes, single=True)
    return ParticlePath(nodes=grid.nodes.copy(), states=paths[0])


# Streams drawn into one contiguous block before it is transposed into
# the chunk's (steps, m, N) layout.
_NOISE_BLOCK = 64


def _noise_chunk(seed: int, ids: range, steps: int, m: int) -> np.ndarray:
    """Noise of the streams ``ids`` in the kernels' (steps, m, N) layout.

    Every stream is drawn by its own :meth:`NoiseStream.normals` call,
    through one keyring, into a contiguous row of a reused
    (``_NOISE_BLOCK``, steps, m) block; each full block is then
    transposed into its columns of the chunk.  The seed and the id range
    are checked once, and one NoiseStream is re-pointed at each id.  A
    flow without diffusion (m == 0) draws nothing, so no stream is keyed.
    """
    out = np.empty((steps, m, len(ids)))
    if m == 0 or not ids:
        return out
    stream = NoiseStream(seed, ids[0])
    _check_seed(ids[-1])
    keyring = _Keyring()
    block = np.empty((_NOISE_BLOCK, steps, m))
    rows = list(block)
    for start in range(0, len(ids), _NOISE_BLOCK):
        width = min(_NOISE_BLOCK, len(ids) - start)
        for row, stream_id in zip(rows, ids[start:start + width]):
            stream.stream_id = stream_id
            stream.normals(steps, m, keyring, row)
        out[:, :, start:start + width] = block[:width].transpose(1, 2, 0)
    return out


def propagate_ensemble(ensemble, params: FlowParameterization, grid: LambdaGrid,
                       prior: GaussianPrior, meas: LinearMeasurement,
                       noise_seed: int = None):
    """Propagate every particle of an ensemble to lam 1.

    Particle i consumes the noise stream ``(noise_seed, i)``, so its
    output is independent of the other particles and identical to a
    :func:`propagate_particle` call with the same stream.  The default
    noise seed is the ensemble's own seed.

    Returns a new ensemble at lam 1; raises DivergenceError naming the
    first failing (step, particle).
    """
    from .estimation import ParticleEnsemble

    if ensemble.lam != 0.0:
        raise ValueError(f"ensemble must start at lam 0.0, got {ensemble.lam}")
    if ensemble.n != prior.n:
        raise ValueError(
            f"ensemble dimension {ensemble.n} does not match model dimension {prior.n}"
        )
    seed = _check_seed(ensemble.seed if noise_seed is None else noise_seed)
    tables = build_tables(params, grid, prior, meas)
    x = np.array(ensemble.particles, dtype=float)
    n_particles = x.shape[0]

    if tables.scheme == "rk4":
        out, _, code, step, particle = kernels.rk4_propagate(
            x, tables.a_nodes, tables.b_nodes, tables.a_mids, tables.b_mids,
            tables.dlam, record=False)
        if code:
            _raise_divergence(code, step, particle, grid.nodes, single=False)
        return ParticleEnsemble(particles=out, lam=1.0, seed=ensemble.seed)

    steps, m = grid.steps, tables.m_max
    per_particle = max(steps * max(m, 1), 1)
    chunk = max(1, min(n_particles, _CHUNK_BUDGET // per_particle))
    out = np.empty_like(x)
    for start in range(0, n_particles, chunk):
        stop = min(start + chunk, n_particles)
        block = _noise_chunk(seed, range(start, stop), steps, m)
        states, _, code, step, particle = kernels.em_propagate(
            x[start:stop], tables.a_nodes, tables.b_nodes, tables.q_factors,
            block, tables.dlam, record=False)
        if code:
            _raise_divergence(code, step, particle + start, grid.nodes,
                              single=False)
        out[start:stop] = states
    return ParticleEnsemble(particles=out, lam=1.0, seed=ensemble.seed)
