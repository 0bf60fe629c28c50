"""The benchmark's three workloads: inputs, one op, and the oracle gate.

Every workload is a closed loop with one client.  ``setup(seed)`` builds
the models and validated flow presets once; ``op(i)`` runs op ``i`` on
inputs derived from ``(seed, i)``; ``check(i, result)`` returns the list
of oracle violations (empty when the op is correct); ``fingerprint``
gives the arrays that must agree bitwise between backends and between
traced and untraced runs; ``perturb`` corrupts a result so the smoke
mode can prove that the gate catches a wrong answer.

Ops call into flowfilt through module attributes (``estimation.x``, not
``from flowfilt.estimation import x``) so the layer tracer sees them.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from flowfilt import (estimation, flows, integrate, moments, sequential,
                      stability)
from flowfilt.grid import LambdaGrid
from flowfilt.model import GaussianPrior, LinearMeasurement

# Models built per workload at set-up; op i uses model i % MODEL_POOL.
MODEL_POOL = 4
# Ensemble means must sit within this many posterior standard errors.
MEAN_BAND_SIGMAS = 5.0
# Relative terminal-moment tolerance of acceptance criterion C1.
MOMENT_TOL = 1e-6


def derive_seed(seed: int, *tags: int) -> int:
    """Independent 64-bit seed for one purpose of one op."""
    seq = np.random.SeedSequence([int(seed), *tags])
    return int(seq.generate_state(1, np.uint64)[0])


def random_model(rng: np.random.Generator, n: int, d: int):
    """Well-conditioned random prior and linear measurement."""
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((d, d))
    prior = GaussianPrior(rng.standard_normal(n), a @ a.T + n * np.eye(n))
    meas = LinearMeasurement(rng.standard_normal((d, n)), b @ b.T + d * np.eye(d),
                             2.0 * rng.standard_normal(d))
    return prior, meas


def mean_band_problems(report, label: str) -> list:
    """Ensemble mean against the closed-form posterior, per coordinate."""
    sigma = np.sqrt(np.diag(report.oracle_covariance) / report.n_particles)
    z = np.abs(report.mean - report.oracle_mean) / sigma
    if not np.all(z <= MEAN_BAND_SIGMAS):
        return [f"{label}: ensemble mean is {z.max():.2f} sigma from the oracle "
                f"(band {MEAN_BAND_SIGMAS})"]
    return []


def _rel(err: float, ref: float) -> float:
    return err / (1.0 + ref)


class UpdateEm:
    """One stochastic measurement update with the fixed_q flow.

    op: sample_prior -> propagate_ensemble (Euler-Maruyama) -> estimator_report.
    """

    name = "update_em"
    sizes = {"full": dict(n_particles=10_000, steps=500, replays=3),
             "smoke": dict(n_particles=256, steps=20, replays=2)}

    def __init__(self, size: str):
        self.n_particles = self.sizes[size]["n_particles"]
        self.steps = self.sizes[size]["steps"]
        self.replays = self.sizes[size]["replays"]
        self.op_size = f"n=4 d=2 N={self.n_particles} steps={self.steps}"

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(derive_seed(seed, 0))
        self.seed = seed
        self.cases = []
        for _ in range(MODEL_POOL):
            prior, meas = random_model(rng, 4, 2)
            self.cases.append((prior, meas, flows.preset("fixed_q", prior, meas)))
        self.grid = LambdaGrid.uniform(self.steps)

    def op(self, i: int) -> dict:
        prior, meas, params = self.cases[i % MODEL_POOL]
        start = estimation.sample_prior(self.n_particles, prior,
                                        derive_seed(self.seed, 1, i))
        end = integrate.propagate_ensemble(start, params, self.grid, prior, meas)
        report = estimation.estimator_report(end, prior, meas)
        return {"start": start, "end": end, "report": report}

    def check(self, i: int, result: dict) -> list:
        prior, meas, params = self.cases[i % MODEL_POOL]
        problems = mean_band_problems(result["report"], "update_em")
        # Counter-based noise: particle j replayed alone on stream
        # (seed, j) must reproduce ensemble row j bit for bit.
        start, end = result["start"], result["end"]
        rng = np.random.default_rng(derive_seed(self.seed, 2, i))
        for j in rng.choice(self.n_particles, size=self.replays, replace=False):
            path = integrate.propagate_particle(
                start.particles[j], params, self.grid,
                integrate.NoiseStream(start.seed, int(j)), prior, meas)
            if not np.array_equal(path.terminal, end.particles[j]):
                problems.append(f"update_em: replay of particle {j} differs "
                                "from its ensemble row")
        return problems

    @staticmethod
    def fingerprint(result: dict) -> list:
        return [result["end"].particles]

    @staticmethod
    def perturb(result: dict) -> dict:
        end = result["end"]
        shifted = dataclasses.replace(end, particles=end.particles + 1.0)
        report = dataclasses.replace(result["report"],
                                     mean=result["report"].mean + 1.0)
        return dict(result, end=shifted, report=report)


class Track:
    """Sequential tracking of a 2-D constant-velocity target.

    op: one run_sequential call, with a fresh truth track and ensemble
    seed per op.  State (px, py, vx, vy); position-only measurements.
    """

    name = "track"
    # ratio_band bounds the flow-to-Kalman rmse ratio of one track.  The
    # Kalman filter is exact here, so a correct flow filter sits near 1:
    # 20 full-size tracks gave 0.983..1.011 and 20 smoke-size ones
    # 0.83..1.25.  A biased update or a lost covariance leaves the band.
    sizes = {"full": dict(n_particles=500, lam_steps=200, time_steps=50,
                          ratio_band=(0.95, 1.10)),
             "smoke": dict(n_particles=64, lam_steps=10, time_steps=5,
                           ratio_band=(0.6, 1.6))}

    def __init__(self, size: str):
        s = self.sizes[size]
        self.n_particles = s["n_particles"]
        self.lam_steps = s["lam_steps"]
        self.time_steps = s["time_steps"]
        self.ratio_band = s["ratio_band"]
        self.op_size = (f"n=4 d=2 N={self.n_particles} steps={self.lam_steps} "
                        f"time_steps={self.time_steps}")

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(derive_seed(seed, 0))
        eye, zero = np.eye(2), np.zeros((2, 2))
        dt, q = 1.0, 0.1
        self.F = np.block([[eye, dt * eye], [zero, eye]])
        self.W = q * np.block([[dt ** 3 / 3 * eye, dt ** 2 / 2 * eye],
                               [dt ** 2 / 2 * eye, dt * eye]])
        self.prior = GaussianPrior(rng.standard_normal(4),
                                   np.diag([1.0, 1.0, 0.1, 0.1]))
        self.meas = LinearMeasurement(np.hstack([eye, zero]), eye, np.zeros(2))
        self.params = flows.preset("fixed_q", self.prior, self.meas)
        self.grid = LambdaGrid.uniform(self.lam_steps)
        self.seed = seed

    def op(self, i: int) -> dict:
        scenario = sequential.SequentialScenario(
            F=self.F, W=self.W, n_steps=self.time_steps,
            truth_seed=derive_seed(self.seed, 3, i))
        result = sequential.run_sequential(
            self.prior, self.meas, self.params, self.grid, scenario,
            self.n_particles, derive_seed(self.seed, 4, i))
        return {"result": result}

    def check(self, i: int, result: dict) -> list:
        ratio = result["result"].rmse_ratio
        lo, hi = self.ratio_band
        if not lo <= ratio <= hi:
            return [f"track: rmse ratio {ratio:.4f} outside [{lo}, {hi}]"]
        return []

    @staticmethod
    def fingerprint(result: dict) -> list:
        res = result["result"]
        return [res.rmse_flow, res.rmse_kalman, res.cov_gap]

    @staticmethod
    def perturb(result: dict) -> dict:
        res = result["result"]
        return {"result": dataclasses.replace(res, rmse_flow=3.0 * res.rmse_flow)}


class Oracle:
    """The deterministic verification path on a random n=4, d=2 model.

    op: moment ODEs for all four presets against closed_form_posterior;
    an RK4 ensemble update with the exact flow; the stability report of
    fixed_q, including its refined-grid recheck.  No noise, no EM kernel.
    """

    name = "oracle"
    sizes = {"full": dict(moment_steps=1000, n_particles=2000, rk4_steps=500,
                          n_mc=2000, stability_steps=1000),
             "smoke": dict(moment_steps=200, n_particles=128, rk4_steps=20,
                           n_mc=200, stability_steps=50)}
    kinds = ("exact", "fixed_q", "constant_q", "diagnostic")

    def __init__(self, size: str):
        s = self.sizes[size]
        self.n_particles = s["n_particles"]
        self.n_mc = s["n_mc"]
        self.moment_grid = LambdaGrid.uniform(s["moment_steps"])
        self.rk4_grid = LambdaGrid.uniform(s["rk4_steps"], scheme="rk4")
        self.stability_grid = LambdaGrid.uniform(s["stability_steps"])
        self.op_size = (f"n=4 d=2 moment_steps={s['moment_steps']} "
                        f"N={self.n_particles} rk4_steps={s['rk4_steps']} "
                        f"n_mc={self.n_mc} stability_steps={s['stability_steps']}")

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(derive_seed(seed, 0))
        self.seed = seed
        self.cases = []
        for _ in range(MODEL_POOL):
            prior, meas = random_model(rng, 4, 2)
            presets = {
                "exact": flows.preset("exact", prior, meas),
                "fixed_q": flows.preset("fixed_q", prior, meas),
                "constant_q": flows.preset("constant_q", prior, meas, Q0=np.eye(4)),
                "diagnostic": flows.preset("diagnostic", prior, meas, alpha=1.0),
            }
            self.cases.append((prior, meas, presets))

    def op(self, i: int) -> dict:
        prior, meas, presets = self.cases[i % MODEL_POOL]
        posterior = moments.closed_form_posterior(1.0, prior, meas)
        paths = {kind: moments.solve_moment_odes(presets[kind], self.moment_grid,
                                                 prior, meas)
                 for kind in self.kinds}
        start = estimation.sample_prior(self.n_particles, prior,
                                        derive_seed(self.seed, 5, i))
        end = integrate.propagate_ensemble(start, presets["exact"], self.rk4_grid,
                                           prior, meas)
        report = estimation.estimator_report(end, prior, meas)
        stab = stability.build_stability_report(
            presets["fixed_q"], prior, meas, self.stability_grid,
            n_mc=self.n_mc, seed=derive_seed(self.seed, 6, i))
        return {"posterior": posterior, "paths": paths, "end": end,
                "report": report, "stability": stab}

    def check(self, i: int, result: dict) -> list:
        oracle_mean, oracle_cov = result["posterior"]
        problems = []
        for kind, path in result["paths"].items():
            e_mean = _rel(np.linalg.norm(path.terminal_mean - oracle_mean),
                          np.linalg.norm(oracle_mean))
            e_cov = _rel(np.linalg.norm(path.terminal_covariance - oracle_cov, "fro"),
                         np.linalg.norm(oracle_cov, "fro"))
            if not max(e_mean, e_cov) <= MOMENT_TOL:
                problems.append(f"oracle: {kind} moments off by "
                                f"{max(e_mean, e_cov):.2e} (tol {MOMENT_TOL})")
        problems += mean_band_problems(result["report"], "oracle exact rk4")
        # fixed_q keeps V_M non-increasing, so every S-norm stays below its
        # start: FTS and FTSS must hold, as in acceptance criterion C7.
        stab = result["stability"]
        if not stab.fts.verdict:
            problems.append("oracle: fixed_q failed finite-time stability")
        if not stab.ftss.verdict:
            problems.append(f"oracle: fixed_q failed FTSS "
                            f"({stab.ftss.empirical_prob:.4f} < {stab.ftss.threshold:.4f})")
        if stab.regime is not stability.Regime.NON_INCREASING:
            problems.append(f"oracle: fixed_q regime {stab.regime.value}, "
                            "expected NonIncreasing for rank-2 diffusion")
        return problems

    @staticmethod
    def fingerprint(result: dict) -> list:
        paths = result["paths"]
        return ([paths[k].means for k in Oracle.kinds]
                + [paths[k].covariances for k in Oracle.kinds]
                + [result["end"].particles,
                   np.array([result["stability"].ftss.empirical_prob])])

    @staticmethod
    def perturb(result: dict) -> dict:
        path = result["paths"]["fixed_q"]
        moved = dataclasses.replace(path, means=path.means + 1.0)
        return dict(result, paths=dict(result["paths"], fixed_q=moved))


WORKLOADS = {cls.name: cls for cls in (UpdateEm, Track, Oracle)}
