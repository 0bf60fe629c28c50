"""Particle propagation along the homotopy parameter.

Stochastic propagation uses Euler-Maruyama; the fourth-order
deterministic scheme is reserved for flows whose diffusion vanishes on
the whole grid.  Every flow here is linear-Gaussian, so with its start
fixed an Euler-Maruyama run is affine in its noise and its terminal has
the Gaussian law ``N(Phi x0 + d, Sigma)`` (see :mod:`flowfilt.kernels`).
A run chains that law and its factor ``Sigma = F F^T`` once, draws
``r = rank Sigma`` normals ``eta`` per particle and forms
``Phi x0 + F eta + d``: each terminal keeps exactly the law of the
stepwise scheme.  A recorded particle is the one-row case of the same
run: it is stepped along per-step increments conditioned on its eta, and
its last node is the same terminal.

All propagation noise comes from the counter-based generator
Philox4x64-10 keyed by ``(seed, stream_id)``, so any particle can be
replayed in isolation and results do not depend on ensemble size or
thread count.  Block b of a stream is the generator's four words at
counter ``(b + 1, 0, 0, 0)``, the words of
``np.random.Philox(key=[seed, stream_id]).random_raw``; each word pair
``(w0, w1)`` gives two normals by Box-Muller on
``u = ((w >> 11) + 0.5) 2**-53``, which is never 0.  Every stream of a
batch is computed in the same uint64 array pass
(:func:`_leading_normals`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DivergenceError
from .flows import (FlowParameterization, _psd_spectrum, _sym, affine_tables,
                    diffusion_factor)
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


def _check_seed(seed) -> int:
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return seed


def make_generator(seed: int, stream_id: int) -> np.random.Generator:
    """Counter-based generator for one (seed, stream) pair."""
    key = np.array([_check_seed(seed), _check_seed(stream_id)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Philox4x64-10 (Salmon et al., SC'11): the round multipliers and the
# Weyl increments of the key.
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
# Philox blocks computed per array pass, whatever the number of streams
# or draws, so the uint64 temporaries stay a few MB.
_PASS_BLOCKS = 1 << 14


def _mulhilo(a, m):
    """High and low words of the 128-bit products ``a * m``, the high one
    built from 32-bit halves (Hacker's Delight, ``mulhu``)."""
    a_lo, a_hi = a & 0xFFFFFFFF, a >> 32
    m_lo, m_hi = m & 0xFFFFFFFF, m >> 32
    t = a_hi * m_lo + ((a_lo * m_lo) >> 32)
    w = (t & 0xFFFFFFFF) + a_lo * m_hi
    return a_hi * m_hi + (t >> 32) + (w >> 32), a * m


def _philox(seed: int, keys: np.ndarray, first: int, blocks: int) -> np.ndarray:
    """Philox4x64-10 blocks ``first .. first + blocks - 1`` of each stream
    ``(seed, k)``, k in the uint64 keys, as (len(keys), blocks, 4) words.

    Block b runs the ten rounds on counter ``(b + 1, 0, 0, 0)``: numpy's
    Philox increments its counter before it generates.
    """
    k0, k1 = np.uint64(seed), keys[:, None]
    c0 = np.arange(first + 1, first + blocks + 1, dtype=np.uint64)[None, :]
    c1 = c2 = c3 = np.uint64(0)
    # The key bumps and the low products wrap modulo 2**64 by design.
    with np.errstate(over="ignore"):
        for _ in range(10):
            hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
            hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
    return np.stack((c0, c1, c2, c3), axis=-1)


@dataclass
class NoiseStream:
    """Reproducible source of standard normal draws.

    The draws are a pure function of ``(seed, stream_id)``: the stream's
    Philox4x64-10 words (block b at counter ``(b + 1, 0, 0, 0)``), two
    normals per word pair by Box-Muller (see the module docstring).  A
    longer block extends a shorter one, so every read of a stream starts
    at its head.  A particle's stream starts with the r normals ``eta``
    of its terminal; the ``steps * m`` normals ``zeta`` of its bridge
    increments follow them.
    """

    seed: int
    stream_id: int

    def __post_init__(self):
        self.seed = _check_seed(self.seed)
        self.stream_id = _check_seed(self.stream_id)

    def normals(self, rows: int, cols: int) -> np.ndarray:
        """Standard normal block of shape (rows, cols), replayed from the key
        and filled in C order."""
        rows, cols = int(rows), int(cols)
        return _leading_normals(self.seed, [self.stream_id],
                                rows * cols).reshape(rows, cols)


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


def build_tables(params: FlowParameterization, grid: LambdaGrid,
                 prior: GaussianPrior, meas: LinearMeasurement) -> CoefficientTables:
    """Evaluate drift and diffusion on the grid once, for reuse by kernels.

    For the stochastic scheme the diffusion at the left node of every
    step is factored as q q^T by one stacked :func:`diffusion_factor`
    call, which zero-pads the factors to a common width; an indefinite
    diffusion raises AdmissibilityError naming that step's left node.
    For the deterministic scheme the diffusion must have rank 0, so be
    exactly zero, at every node under the semidefiniteness rule of
    :mod:`flowfilt.flows`; midpoint coefficients are also evaluated.
    """
    if grid.scheme == "rk4":
        a_nodes, b_nodes, q_nodes = affine_tables(params, prior, meas, grid.nodes)
        _, rank = _psd_spectrum(np.linalg.eigvalsh(_sym(q_nodes)),
                                "inadmissible diffusion", grid.nodes)
        if rank.any():
            k = np.flatnonzero(rank)[0]
            raise ValueError("the rk4 scheme requires a diffusion-free flow; the "
                             f"diffusion has rank {rank[k]} at lam={grid.nodes[k]:.6f}")
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
                             q_factors=q_factors)


def _raise_divergence(code: int, step: int, particle: int, nodes: np.ndarray,
                      single: bool):
    kind = "non-finite state" if code == 1 else "state norm overflow"
    lam = nodes[step + 1]
    where = f"step {step}" if single else f"step {step}, particle {particle}"
    raise DivergenceError(f"propagation diverged ({kind}) at {where}, lam {lam:.6g}",
                          step=step, particle=particle if not single else -1,
                          lam=lam)


def _leading_normals(seed: int, ids, count: int) -> np.ndarray:
    """The first ``count`` normals of each stream ``(seed, i)``, i in ids,
    as one (len(ids), count) row each.

    All streams are computed together, in passes of at most
    ``_PASS_BLOCKS`` Philox blocks: whole rows at a time, or slices of
    one row when a row alone is longer.  Each block gives four normals,
    and a row's normals never depend on how many follow.  The seed and
    the ends of the id range are checked; with count 0 nothing is drawn.
    """
    out = np.empty((len(ids), count))
    if count == 0 or len(ids) == 0:
        return out
    _check_seed(seed)
    _check_seed(ids[0])
    _check_seed(ids[-1])
    keys = np.asarray(ids, dtype=np.uint64)
    blocks = -(-count // 4)
    rows = max(1, _PASS_BLOCKS // blocks)
    span = min(blocks, _PASS_BLOCKS)
    for row in range(0, len(keys), rows):
        for block in range(0, blocks, span):
            w = _philox(seed, keys[row:row + rows], block, min(span, blocks - block))
            u = ((w >> 11) + 0.5) * 2.0**-53
            radius = np.sqrt(-2.0 * np.log(u[..., 0::2]))
            angle = 2.0 * np.pi * u[..., 1::2]
            z = np.stack((radius * np.cos(angle), radius * np.sin(angle)), axis=-1)
            z = z.reshape(len(z), -1)[:, :count - 4 * block]
            out[row:row + rows, 4 * block:4 * block + z.shape[1]] = z
    return out


def _bridge_chunk(seed: int, ids, law) -> np.ndarray:
    """Bridge increments of the streams ``(seed, i)``, i in ids, in the
    kernels' (steps, m, N) layout.

    One :func:`_leading_normals` call draws every stream's
    ``r + steps * m`` normals: the terminal's eta, then the zeta that
    :func:`kernels._bridge` conditions on it.
    """
    steps, _, m = law.gk.shape
    r = law.f.shape[1]
    draws = _leading_normals(seed, ids, r + steps * m)
    ut = kernels._bridge_basis(law)
    out = np.empty((steps * m, len(ids)))
    for col, block in enumerate(draws):
        out[:, col] = kernels._bridge(ut, block[:r], block[r:])
    return out.reshape(steps, m, len(ids))


def _run(x, tables: CoefficientTables, seed: int, ids, record: bool = False):
    """Propagate the (N, n) states on the tables, row i on the stream
    ``(seed, ids[i])``, and return the kernels' 5-tuple.

    The only place that picks the kernel for a scheme; RK4 draws nothing.
    Euler-Maruyama builds the law once and draws each row's eta; the
    bridge increments after it are drawn only for the rows the kernel
    steps (flagged ones, or all with ``record``).
    """
    if tables.scheme == "rk4":
        return kernels.rk4_propagate(x, tables.a_nodes, tables.b_nodes,
                                     tables.a_mids, tables.b_mids, tables.dlam,
                                     record=record)
    law = kernels._em_law(*kernels._em_maps(tables.a_nodes, tables.b_nodes,
                                            tables.q_factors, tables.dlam))
    ids = np.asarray(ids, dtype=np.uint64)
    eta = _leading_normals(seed, ids, law.f.shape[1])
    return kernels._affine_run(
        x, law, eta.T, lambda idx: _bridge_chunk(seed, ids[idx], law), record)


def propagate_particle(x0, params: FlowParameterization, grid: LambdaGrid,
                       noise: NoiseStream, prior: GaussianPrior,
                       meas: LinearMeasurement) -> ParticlePath:
    """Propagate a single state from lam 0 to 1, recording the whole path.

    The state is the one-row ensemble on the stream ``noise``, so its last
    node is, bit for bit, the row that :func:`propagate_ensemble` gives
    this stream.  The stochastic scheme reads the terminal's ``eta`` and
    then the ``zeta`` of the bridge the path is stepped along.

    Args:
        x0: initial state of dimension n.
        params: flow parameterization.
        grid: pseudo-time grid; its scheme selects the integrator.
        noise: noise stream consumed by the stochastic scheme; the
            deterministic scheme draws nothing.
        prior, meas: the model.

    Returns:
        ParticlePath with ``steps + 1`` states.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (prior.n,):
        raise ValueError(f"x0 must have shape {(prior.n,)}, got {x0.shape}")
    _, paths, code, step, particle = _run(
        x0[None, :], build_tables(params, grid, prior, meas), noise.seed,
        [noise.stream_id], record=True)
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
    out, _, code, step, particle = _run(ensemble.particles,
                                        build_tables(params, grid, prior, meas),
                                        seed, np.arange(ensemble.n_particles,
                                                        dtype=np.uint64))
    if code:
        _raise_divergence(code, step, particle, grid.nodes, single=False)
    return ParticleEnsemble(particles=out, lam=1.0, seed=ensemble.seed)
