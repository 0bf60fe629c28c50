"""Particle propagation along the homotopy parameter.

Stochastic propagation uses Euler-Maruyama; the fourth-order
deterministic scheme is reserved for flows whose diffusion vanishes on
the whole grid.  Every flow here is linear-Gaussian, so with its start
fixed an Euler-Maruyama run is affine in its noise and its terminal has
the Gaussian law ``N(Phi x0 + d, Sigma)`` (see :mod:`flowfilt.kernels`).
An ensemble update chains that law once, factors ``Sigma = F F^T`` with
:func:`diffusion_factor`, draws ``r = rank Sigma`` normals ``eta`` per
particle and forms ``Phi x0 + F eta + d``: each terminal keeps exactly the
law of the stepwise scheme.  A recorded run steps the same particle along
per-step increments conditioned on its eta, and its last node is the same
terminal.

All noise comes from counter-based generators keyed by
``(seed, stream_id)``, so any particle can be replayed in isolation and
results do not depend on ensemble size or thread count.
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
    """Reproducible source of standard normal draws.

    The draws are a pure function of ``(seed, stream_id)``, and a longer
    block extends a shorter one.  A particle's stream starts with the r
    normals ``eta`` of its terminal; a recorded run reads the
    ``steps * m`` normals ``zeta`` of its bridge increments right after
    them.  ``counter`` records how many rows have been handed out.
    """

    seed: int
    stream_id: int
    counter: int = 0

    def __post_init__(self):
        self.seed = _check_seed(self.seed)
        self.stream_id = _check_seed(self.stream_id)

    def normals(self, rows: int, cols: int, gen: np.random.Generator = None,
                out: np.ndarray = None) -> np.ndarray:
        """Standard normal block of shape (rows, cols), replayed from the key
        and filled in C order.

        ``gen``, when given, is a Philox generator (or a keyring around
        one) that is re-keyed to this stream and drawn from instead of
        building a new one.  ``out``, when given, is a C-contiguous
        float64 (rows, cols) buffer that is filled and returned instead of
        a new array.  The block is the same either way.
        """
        if not isinstance(gen, _Keyring):
            gen = _Keyring(gen)
        out = gen.keyed(self.seed, self.stream_id).standard_normal(
            (int(rows), int(cols)), out=out)
        self.counter = int(rows)
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


def _factored_law(tables: CoefficientTables):
    """The terminal law of an Euler-Maruyama run on the tables, and the
    (n, r) factor F of its covariance; r = 0 when there is no law."""
    law = kernels._em_law(*kernels._em_maps(tables.a_nodes, tables.b_nodes,
                                            tables.q_factors, tables.dlam))
    if law.sigma is None:
        return law, np.zeros((tables.a_nodes.shape[1], 0))
    return law, diffusion_factor(law.sigma)


def _leading_normals(seed: int, ids, count: int) -> np.ndarray:
    """The first ``count`` normals of each stream ``(seed, i)``, i in ids,
    as one (len(ids), count) row each.

    Every stream is drawn by its own :meth:`NoiseStream.normals` call,
    through one keyring, straight into its row.  The seed and the id
    range are checked once, and one NoiseStream is re-pointed at each id.
    With count 0 nothing is drawn and no stream is keyed.
    """
    out = np.empty((len(ids), 1, count))
    if count == 0 or len(ids) == 0:
        return out[:, 0, :]
    stream = NoiseStream(seed, ids[0])
    _check_seed(ids[-1])
    keyring = _Keyring()
    for stream_id, row in zip(ids, out):
        stream.stream_id = int(stream_id)
        stream.normals(1, count, keyring, row)
    return out[:, 0, :]


def _bridge_chunk(seed: int, ids, law, f) -> np.ndarray:
    """Bridge increments of the streams ``(seed, i)``, i in ids, in the
    kernels' (steps, m, N) layout.

    Each stream's ``r + steps * m`` normals are drawn by one call of
    :func:`_leading_normals`: the terminal's eta, then the zeta that
    :func:`kernels._bridge` conditions on it.  So a particle's block is
    the one :func:`propagate_particle` steps on the same stream.
    """
    steps, _, m = law.gk.shape
    r = f.shape[1]
    draws = _leading_normals(seed, ids, r + steps * m)
    ut = kernels._bridge_basis(law, f)
    out = np.empty((steps * m, len(ids)))
    for col, block in enumerate(draws):
        out[:, col] = kernels._bridge(ut, block[:r], block[r:])
    return out.reshape(steps, m, len(ids))


def propagate_particle(x0, params: FlowParameterization, grid: LambdaGrid,
                       noise: NoiseStream, prior: GaussianPrior,
                       meas: LinearMeasurement,
                       tables: CoefficientTables = None) -> ParticlePath:
    """Propagate a single state from lam 0 to 1, recording the whole path.

    The stochastic scheme reads ``r + steps * m`` normals from the stream
    in one call: the terminal's ``eta``, then the ``zeta`` of its bridge
    increments (see :mod:`flowfilt.kernels`).  The path is stepped along
    the bridge, and its last node is the collapsed terminal, bit for bit
    the row that :func:`propagate_ensemble` gives this stream.

    Args:
        x0: initial state of dimension n.
        params: flow parameterization.
        grid: pseudo-time grid; its scheme selects the integrator.
        noise: noise stream consumed by the stochastic scheme; the
            deterministic scheme draws nothing.
        prior, meas: the model.
        tables: optional precomputed coefficients for this grid; tables
            built for another scheme or other step sizes raise ValueError.

    Returns:
        ParticlePath with ``steps + 1`` states.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (prior.n,):
        raise ValueError(f"x0 must have shape {(prior.n,)}, got {x0.shape}")
    if tables is None:
        tables = build_tables(params, grid, prior, meas)
    elif tables.scheme != grid.scheme:
        raise ValueError(f"tables were built for the {tables.scheme} scheme, "
                         f"but the grid uses {grid.scheme}")
    elif not np.array_equal(tables.dlam, grid.dlam):
        raise ValueError("tables were built on a grid with other step sizes")
    if tables.scheme == "rk4":
        _, paths, code, step, particle = kernels.rk4_propagate(
            x0[None, :], tables.a_nodes, tables.b_nodes,
            tables.a_mids, tables.b_mids, tables.dlam, record=True)
    else:
        law, f = _factored_law(tables)
        r, size = f.shape[1], grid.steps * tables.m_max
        block = noise.normals(1, r + size)[0] if r + size else np.zeros(0)
        xi = kernels._bridge(kernels._bridge_basis(law, f), block[:r], block[r:])
        _, paths, code, step, particle = kernels._affine_run(
            x0[None, :], law, f, block[:r, None],
            lambda idx: xi.reshape(grid.steps, tables.m_max, 1), record=True)
    if code:
        _raise_divergence(code, step, particle, grid.nodes, single=True)
    return ParticlePath(nodes=grid.nodes.copy(), states=paths[0])


def propagate_ensemble(ensemble, params: FlowParameterization, grid: LambdaGrid,
                       prior: GaussianPrior, meas: LinearMeasurement,
                       noise_seed: int = None):
    """Propagate every particle of an ensemble to lam 1.

    Particle i consumes the noise stream ``(noise_seed, i)``: the first r
    normals are its ``eta``, so its output is independent of the other
    particles and identical to a :func:`propagate_particle` call with the
    same stream.  A particle flagged by the divergence rule of
    :mod:`flowfilt.kernels` re-reads its stream for its bridge.  The
    default noise seed is the ensemble's own seed.

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

    if tables.scheme == "rk4":
        out, _, code, step, particle = kernels.rk4_propagate(
            x, tables.a_nodes, tables.b_nodes, tables.a_mids, tables.b_mids,
            tables.dlam, record=False)
    else:
        law, f = _factored_law(tables)
        eta = _leading_normals(seed, range(x.shape[0]), f.shape[1])
        out, _, code, step, particle = kernels._affine_run(
            x, law, f, eta.T, lambda idx: _bridge_chunk(seed, idx, law, f))
    if code:
        _raise_divergence(code, step, particle, grid.nodes, single=False)
    return ParticleEnsemble(particles=out, lam=1.0, seed=ensemble.seed)
