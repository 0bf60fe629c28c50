"""Acceptance criteria for the package, shared by tests and the CLI.

Each criterion exercises one guarantee end to end: closed-form moment
agreement, invariance to the free gain term, Monte Carlo consistency,
the density-transport identity of the drift, preset reductions,
Lyapunov decay, the stability definition checkers, sequential tracking
against a Kalman baseline, and bitwise determinism of CLI artifacts.
Every check runs against independently assembled oracles (explicit
inverses, finite differences, hand-built schedules) rather than the
code paths under test.

Each criterion carries a wall-clock budget, timed over its own checks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .estimation import consistency_sweep, mean_estimate, sample_prior
from .flows import (
    affine_coefficients,
    diagnostic_noise,
    drift,
    exact_flow_coefficients,
    k_from_q,
    preset,
    q_from_k,
    reference_flow,
)
from .grid import LambdaGrid
from .integrate import propagate_ensemble
from .model import GaussianPrior, LinearMeasurement, homotopy_derivatives, save_model
from .moments import closed_form_posterior, solve_moment_odes
from .sequential import SequentialScenario, run_sequential
from .stability import (
    check_fts,
    check_ftcs,
    check_ftss,
    ellipsoid_invariance_check,
    error_trajectory,
    linear_error_trajectory,
    lyapunov_derivative,
)

_SEED = 20260814


@dataclass(frozen=True)
class AcceptanceResult:
    """Outcome of one acceptance criterion."""

    cid: str
    name: str
    passed: bool
    elapsed: float
    limit: Optional[float]
    detail: str


def format_line(result: AcceptanceResult) -> str:
    state = "PASS" if result.passed else "FAIL"
    if result.limit is not None:
        budget = f"{result.elapsed:7.2f}s / {result.limit:.0f}s"
    else:
        budget = f"{result.elapsed:7.2f}s"
    return f"{state}  {result.cid}  {result.name:<48s} {budget}  {result.detail}"


def _finish(cid: str, name: str, ok: bool, t0: float, limit: Optional[float],
            detail: str) -> AcceptanceResult:
    elapsed = time.perf_counter() - t0
    if limit is not None and elapsed > limit:
        ok = False
        detail = f"over budget ({elapsed:.1f}s > {limit:.0f}s); " + detail
    return AcceptanceResult(cid=cid, name=name, passed=bool(ok),
                            elapsed=elapsed, limit=limit, detail=detail)


def _canonical_model():
    prior = GaussianPrior(np.zeros(1), np.eye(1))
    meas = LinearMeasurement(np.eye(1), np.eye(1), np.array([2.0]))
    return prior, meas


def _random_model(rng: np.random.Generator, n: int, d: int):
    a = rng.standard_normal((n, n))
    p_g = a @ a.T + n * np.eye(n)
    b = rng.standard_normal((d, d))
    r = b @ b.T + d * np.eye(d)
    h = rng.standard_normal((d, n))
    prior = GaussianPrior(rng.standard_normal(n), p_g)
    meas = LinearMeasurement(h, r, 2.0 * rng.standard_normal(d))
    return prior, meas


def _rel(err: float, ref: float) -> float:
    return err / (1.0 + ref)


def criterion_1() -> AcceptanceResult:
    """Terminal moments of every preset match the closed-form posterior."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(_SEED)
    shapes = [(1, 1), (1, 2), (2, 1), (2, 2), (4, 1), (4, 2)]
    grid = LambdaGrid.uniform(1000)
    worst = 0.0
    runs = 0
    ok = True
    for i in range(20):
        n, d = shapes[i % len(shapes)]
        prior, meas = _random_model(rng, n, d)
        oracle_mean, oracle_cov = closed_form_posterior(1.0, prior, meas)
        flows = [
            preset("exact", prior, meas),
            preset("fixed_q", prior, meas),
            preset("constant_q", prior, meas, Q0=np.eye(n)),
            preset("diagnostic", prior, meas, alpha=1.0),
        ]
        for params in flows:
            path = solve_moment_odes(params, grid, prior, meas)
            e_mean = _rel(np.linalg.norm(path.terminal_mean - oracle_mean),
                          np.linalg.norm(oracle_mean))
            e_cov = _rel(np.linalg.norm(path.terminal_covariance - oracle_cov,
                                        ord="fro"),
                         np.linalg.norm(oracle_cov, ord="fro"))
            worst = max(worst, e_mean, e_cov)
            runs += 1
            ok &= e_mean <= 1e-6 and e_cov <= 1e-6
    return _finish("C1", "terminal moments match closed-form posterior", ok, t0,
                   10.0, f"worst relative error {worst:.2e} over {runs} runs")


def criterion_2() -> AcceptanceResult:
    """Moment paths are identical across admissible gain schedules."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(_SEED + 1)
    n, d = 3, 2
    prior, meas = _random_model(rng, n, d)
    s = prior.precision
    g = meas.info_matrix
    grid = LambdaGrid.uniform(1000)

    def make_schedule(freq: float) -> Callable[[float], np.ndarray]:
        c0 = rng.standard_normal((n, n))
        c0 = c0 @ c0.T
        c1 = rng.standard_normal((n, n))
        c1 = c1 @ c1.T
        w = rng.standard_normal((n, n))
        w = 0.5 * (w - w.T)

        def fn(lam: float) -> np.ndarray:
            m = s + lam * g
            q = c0 + lam * c1
            return 0.5 * m @ q @ m - 0.5 * g + np.sin(freq * lam) * w

        return fn

    paths = []
    for i in range(5):
        params = preset("k_schedule", prior, meas, k_fn=make_schedule(float(i + 1)))
        paths.append(solve_moment_odes(params, grid, prior, meas))

    scale = 1.0 + max(np.abs(p.means).max() for p in paths)
    worst = 0.0
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            dm = np.abs(paths[i].means - paths[j].means).max()
            dc = np.abs(paths[i].covariances - paths[j].covariances).max()
            worst = max(worst, dm / scale, dc / scale)
    ok = worst <= 1e-8
    return _finish("C2", "moment paths invariant to the free gain term", ok, t0,
                   5.0, f"worst pairwise node gap {worst:.2e} across 5 schedules")


def criterion_3() -> AcceptanceResult:
    """Ensemble estimator error scales as 1/sqrt(N) and stays unbiased."""
    t0 = time.perf_counter()
    prior, meas = _canonical_model()
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(2000)
    seeds = list(range(1000, 1020))

    table = consistency_sweep(params, prior, meas, grid,
                              n_list=[100, 1000, 10000], seeds=seeds)
    slope_ok = -0.65 <= table.slope <= -0.35

    # Each seed's N=10^4 mean estimate must sit inside the 4-sigma band
    # around the true posterior mean; sd(posterior) = sqrt(1/2).
    band = 4.0 * np.sqrt(0.5) / np.sqrt(10000.0)
    estimates = []
    for seed in seeds:
        ens = sample_prior(10000, prior, seed)
        ens = propagate_ensemble(ens, params, grid, prior, meas)
        estimates.append(float(mean_estimate(ens)[0]))
    deviations = np.abs(np.array(estimates) - 1.0)
    band_ok = bool(deviations.max() <= band)
    avg_ok = bool(abs(float(np.mean(estimates)) - 1.0) <= band)
    ok = slope_ok and band_ok and avg_ok
    return _finish(
        "C3", "estimator error scales as 1/sqrt(N)", ok, t0, 60.0,
        f"slope {table.slope:.3f}, worst N=1e4 deviation {deviations.max():.4f} "
        f"(band {band:.4f})")


def criterion_4() -> AcceptanceResult:
    """Drift satisfies the density-transport identity at random points."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(_SEED + 2)
    shapes = [(1, 1), (2, 1), (2, 2), (3, 2), (4, 2)]
    worst = 0.0
    ok = True
    for i in range(100):
        n, d = shapes[i % len(shapes)]
        prior, meas = _random_model(rng, n, d)
        lam = float(rng.uniform(0.0, 1.0))
        x = rng.standard_normal(n)
        derivs = homotopy_derivatives(x, lam, prior, meas)
        c = rng.standard_normal((n, n))
        w = rng.standard_normal((n, n))
        k = k_from_q(c @ c.T, derivs) + 0.5 * (w - w.T)
        q = q_from_k(k, derivs)
        f = drift(x, lam, k, prior, meas)
        # The Jacobian of an affine drift is exact from n+1 evaluations.
        f0 = drift(np.zeros(n), lam, k, prior, meas)
        jac = np.empty((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            jac[:, j] = drift(e, lam, k, prior, meas) - f0
        hess = derivs.hess_log_p
        grad = derivs.grad_log_p
        recovered = -hess @ f - jac.T @ grad + hess @ q @ grad
        resid = _rel(np.linalg.norm(recovered - derivs.grad_log_h),
                     np.linalg.norm(derivs.grad_log_h))
        worst = max(worst, resid)
        ok &= resid <= 1e-8
    return _finish("C4", "drift satisfies the density-transport identity", ok,
                   t0, 2.0, f"worst relative residual {worst:.2e} over 100 draws")


def criterion_5() -> AcceptanceResult:
    """Presets reduce to their closed forms, via explicit inverses."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(_SEED + 3)
    checks = []
    lams = np.linspace(0.0, 1.0, 101)

    for prior, meas in (_canonical_model(), _random_model(rng, 3, 2)):
        n = prior.n
        s = prior.precision
        g = meas.info_matrix

        exact = preset("exact", prior, meas)
        gap_a = gap_b = 0.0
        for lam in lams:
            got = affine_coefficients(lam, exact, prior, meas)
            ref = exact_flow_coefficients(lam, prior, meas)
            gap_a = max(gap_a, _rel(np.linalg.norm(got.A - ref.A),
                                    np.linalg.norm(ref.A)))
            gap_b = max(gap_b, _rel(np.linalg.norm(got.b - ref.b),
                                    np.linalg.norm(ref.b)))
        checks.append(("exact drift", max(gap_a, gap_b), 1e-9))

        fixed = preset("fixed_q", prior, meas)
        ks = fixed.k_stack(lams, prior, meas)
        qs = fixed.q_stack(lams, prior, meas)
        gap_k = float(np.abs(ks).max())
        gap_q = 0.0
        for lam, q in zip(lams, qs):
            m_inv = np.linalg.inv(s + lam * g)
            ref = m_inv @ g @ m_inv
            gap_q = max(gap_q, _rel(np.linalg.norm(q - ref, ord="fro"),
                                    np.linalg.norm(ref, ord="fro")))
        checks.append(("fixed_q schedule", gap_k, 1e-12))
        checks.append(("fixed_q diffusion", gap_q, 1e-10))

        alpha = 0.7
        diag = diagnostic_noise(alpha)
        ks = diag.k_stack(lams, prior, meas)
        qs = diag.q_stack(lams, prior, meas)
        gap_k = gap_q = 0.0
        for lam, k, q in zip(lams, ks, qs):
            m = s + lam * g
            gram = lam * (meas.H @ prior.P_g @ meas.H.T) + meas.R
            a1 = -0.5 * prior.P_g @ meas.H.T @ np.linalg.inv(gram) @ meas.H
            ref_k = (m @ (alpha * np.eye(n)) + a1.T) @ m
            gap_k = max(gap_k, _rel(np.linalg.norm(k - ref_k, ord="fro"),
                                    np.linalg.norm(ref_k, ord="fro")))
            # The realized diffusion of this reference pair is 2 alpha I.
            gap_q = max(gap_q, float(np.abs(q - 2.0 * alpha * np.eye(n)).max()))
        checks.append(("diagnostic schedule", gap_k, 1e-10))
        checks.append(("diagnostic diffusion", gap_q, 1e-10))

    # A perturbed reference flow is still an exact family member.
    prior, meas = _random_model(rng, 2, 2)
    w = rng.standard_normal((2, 2))
    w = 0.05 * (w - w.T)

    def a_hat(lam: float) -> np.ndarray:
        return exact_flow_coefficients(lam, prior, meas).A + lam * w

    ref_params = reference_flow(a_hat, lambda lam: np.eye(2))
    ref_params.validate(prior, meas)
    path = solve_moment_odes(ref_params, LambdaGrid.uniform(500), prior, meas)
    oracle_mean, oracle_cov = closed_form_posterior(1.0, prior, meas)
    gap = max(_rel(np.linalg.norm(path.terminal_mean - oracle_mean),
                   np.linalg.norm(oracle_mean)),
              _rel(np.linalg.norm(path.terminal_covariance - oracle_cov, ord="fro"),
                   np.linalg.norm(oracle_cov, ord="fro")))
    checks.append(("perturbed reference moments", gap, 1e-6))

    ok = all(val <= tol for _, val, tol in checks)
    worst_name, worst_val, _ = max(checks, key=lambda c: c[1] / c[2])
    return _finish("C5", "presets reduce to their closed forms", ok, t0, 2.0,
                   f"tightest check {worst_name}: {worst_val:.2e}")


def criterion_6() -> AcceptanceResult:
    """Lyapunov identities, monotonicity, invariance and decay bounds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(_SEED + 4)
    failures = []
    details = []

    # (a) analytic dV/dlam matches central differences at second order;
    # Richardson extrapolation over the halved grid pins it to fourth.
    for prior, meas in (_canonical_model(), _random_model(rng, 2, 1)):
        params = preset("fixed_q", prior, meas)
        x1 = prior.x_prior + prior.chol[:, 0]
        tables = {}
        for steps in (500, 1000):
            grid = LambdaGrid.uniform(steps)
            traj = error_trajectory(x1, prior.x_prior, params, grid, prior, meas)
            qs = params.q_stack(grid.nodes, prior, meas)
            dv = np.array([
                lyapunov_derivative(traj.errors[k], grid.nodes[k], qs[k],
                                    homotopy_derivatives(traj.errors[k],
                                                         grid.nodes[k], prior, meas))
                for k in range(grid.nodes.size)
            ])
            fd = (traj.v_m[2:] - traj.v_m[:-2]) / (grid.nodes[2:] - grid.nodes[:-2])
            tables[steps] = (fd, dv)
        fd_c, dv_c = tables[500]
        fd_f, dv_f = tables[1000]
        err_c = float(np.abs(fd_c - dv_c[1:-1]).max())
        err_f = float(np.abs(fd_f - dv_f[1:-1]).max())
        ratio = err_c / max(err_f, 1e-300)
        # Coarse node j coincides with fine node 2j.
        j = np.arange(1, 500)
        rich = (4.0 * fd_f[2 * j - 1] - fd_c[j - 1]) / 3.0
        err_r = float(np.abs(rich - dv_f[2 * j]).max())
        scale = 1.0 + float(np.abs(dv_f).max())
        if not (3.0 <= ratio <= 5.5 and err_r <= 1e-6 * scale):
            failures.append(
                f"derivative FD ratio {ratio:.2f}, extrapolated err {err_r:.2e}")
        details.append(f"fd ratio {ratio:.2f}")

    # (b) V_M never increases along admissible flows.
    grid = LambdaGrid.uniform(1000)
    models = [_canonical_model(), _random_model(rng, 2, 2), _random_model(rng, 3, 1)]
    for prior, meas in models:
        x1 = prior.x_prior + prior.chol[:, 0] / np.sqrt(prior.P_g[0, 0])
        for params in (preset("fixed_q", prior, meas),
                       preset("constant_q", prior, meas, Q0=np.eye(prior.n)),
                       preset("diagnostic", prior, meas, alpha=1.0)):
            traj = error_trajectory(x1, prior.x_prior, params, grid, prior, meas)
            rise = float(np.diff(traj.v_m).max())
            if rise > 1e-10 * traj.v_m[0]:
                failures.append(f"V_M rose by {rise:.2e} for {params.kind}")

    # (c) zero-diffusion flow keeps the weighted ellipsoid invariant.
    fine = LambdaGrid.uniform(10000)
    for prior, meas in (_canonical_model(), _random_model(rng, 3, 2)):
        dev = ellipsoid_invariance_check(prior, meas, fine, 16, _SEED)
        if dev > 1e-8:
            failures.append(f"ellipsoid deviation {dev:.2e}")
        details.append(f"ellipsoid {dev:.1e}")

    # (d) uniformly positive diffusion obeys the exponential decay bound.
    worst_margin = 0.0
    for i in range(20):
        n, d = [(1, 1), (2, 1), (2, 2), (3, 2)][i % 4]
        prior, meas = _random_model(rng, n, d)
        params = preset("constant_q", prior, meas, Q0=np.eye(n))
        sigma = float(np.linalg.eigvalsh(prior.precision).min())
        x1 = prior.x_prior + prior.chol @ rng.standard_normal(n)
        traj = error_trajectory(x1, prior.x_prior, params, grid, prior, meas)
        bound = np.exp(-sigma * grid.nodes) * traj.v_s[0] * (1.0 + 1e-6)
        margin = float((traj.v_s / bound).max())
        worst_margin = max(worst_margin, margin)
        if not np.all(traj.v_s <= bound):
            failures.append(f"decay bound violated, ratio {margin:.6f}")
    details.append(f"decay margin {worst_margin:.4f}")

    ok = not failures
    detail = "; ".join(failures[:2]) if failures else ", ".join(details)
    return _finish("C6", "Lyapunov identities and decay bounds hold", ok, t0,
                   30.0, detail)


def criterion_7() -> AcceptanceResult:
    """Stability checkers return the right verdict on known cases."""
    t0 = time.perf_counter()
    prior, meas = _canonical_model()
    grid = LambdaGrid.uniform(1000)
    s = prior.precision
    fixed = preset("fixed_q", prior, meas)
    const = preset("constant_q", prior, meas, Q0=np.eye(1))
    exact = preset("exact", prior, meas)
    boundary = np.array([np.sqrt(0.999)])
    zero = np.zeros(1)
    failures = []

    def expect(label, got, want):
        if got != want:
            failures.append(f"{label}: got {got}, want {want}")

    traj = error_trajectory(boundary, zero, fixed, grid, prior, meas)
    expect("fts stable flow", check_fts(traj, 1.0, 2.0, s).verdict, True)
    expect("fts vacuous premise",
           check_fts(error_trajectory(np.array([2.0]), zero, fixed, grid, prior,
                                      meas), 1.0, 2.0, s).verdict, True)
    traj_e = error_trajectory(boundary, zero, exact, grid, prior, meas)
    expect("fts exact tight bound", check_fts(traj_e, 1.0, 1.01, s).verdict, True)

    unstable = linear_error_trajectory(np.array([np.sqrt(0.98)]),
                                       lambda lam: np.eye(1), grid, s)
    expect("fts unstable system", check_fts(unstable, 1.0, 2.0, s).verdict, False)
    try:
        check_fts(traj, 2.0, 1.0, s)
        failures.append("fts accepted alpha >= beta")
    except ValueError:
        pass

    traj_c = error_trajectory(boundary, zero, const, grid, prior, meas)
    res = check_ftcs(traj_c, alpha=1.0, beta=0.6, gamma=2.0, s_weight=s)
    expect("ftcs contracting flow", res.verdict, True)
    if res.verdict and not (res.lambda1 is not None and 0.0 < res.lambda1 < 1.0):
        failures.append(f"ftcs lambda1 out of range: {res.lambda1}")
    expect("ftcs unreachable beta",
           check_ftcs(traj_c, alpha=1.0, beta=0.02, gamma=2.0, s_weight=s).verdict,
           False)
    res0 = check_ftcs(error_trajectory(zero, zero, const, grid, prior, meas),
                      alpha=1.0, beta=0.6, gamma=2.0, s_weight=s)
    expect("ftcs zero error", res0.verdict, True)
    if res0.lambda1 != grid.nodes[1]:
        failures.append(f"ftcs zero-error lambda1 {res0.lambda1}")
    try:
        check_ftcs(traj_c, alpha=1.0, beta=1.5, gamma=2.0, s_weight=s)
        failures.append("ftcs accepted beta >= alpha")
    except ValueError:
        pass

    res = check_ftss(fixed, prior, meas, grid, alpha=1.0, beta=4.0,
                     epsilon=0.25, n_mc=10000, seed=_SEED)
    expect("ftss stable flow", res.verdict, True)
    res_bad = check_ftss(None, prior, meas, grid, alpha=1.0, beta=4.0,
                         epsilon=0.25, n_mc=10000, seed=_SEED,
                         system_a_fn=lambda lam: np.eye(1))
    expect("ftss unstable system", res_bad.verdict, False)
    try:
        check_ftss(fixed, prior, meas, grid, alpha=1.0, beta=4.0, epsilon=0.1,
                   n_mc=10000, seed=_SEED)
        failures.append("ftss accepted epsilon below alpha/beta")
    except ValueError:
        pass
    try:
        check_ftss(fixed, prior, meas, grid, alpha=1.0, beta=4.0, epsilon=0.25,
                   n_mc=50, seed=_SEED)
        failures.append("ftss accepted tiny n_mc")
    except ValueError:
        pass

    ok = not failures
    detail = "; ".join(failures[:3]) if failures else (
        f"stable prob {res.empirical_prob:.4f}, "
        f"unstable prob {res_bad.empirical_prob:.4f}")
    return _finish("C7", "stability checkers verdict known cases", ok, t0,
                   60.0, detail)


def criterion_8() -> AcceptanceResult:
    """Sequential flow filtering tracks the Kalman baseline."""
    t0 = time.perf_counter()
    prior = GaussianPrior(np.array([0.0, 1.0]), np.eye(2))
    meas = LinearMeasurement(np.array([[1.0, 0.0]]), np.eye(1), np.zeros(1))
    params = preset("fixed_q", prior, meas)
    grid = LambdaGrid.uniform(500)
    f_mat = np.array([[1.0, 1.0], [0.0, 1.0]])
    w_mat = 0.1 * np.array([[1.0 / 3.0, 0.5], [0.5, 1.0]])

    ratios = []
    for i in range(10):
        scenario = SequentialScenario(F=f_mat, W=w_mat, n_steps=20,
                                      truth_seed=7000 + i)
        result = run_sequential(prior, meas, params, grid, scenario,
                                n_particles=5000, ensemble_seed=9000 + i)
        ratios.append(result.rmse_ratio)
    mean_ratio = float(np.mean(ratios))
    ok = 0.95 <= mean_ratio <= 1.15
    return _finish("C8", "sequential filter tracks the Kalman baseline", ok, t0,
                   120.0,
                   f"mean rmse ratio {mean_ratio:.4f} over 10 seeds "
                   f"(range {min(ratios):.4f}..{max(ratios):.4f})")


def _cli_env(threads: int) -> dict:
    env = os.environ.copy()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _run_cli(config: Path, outdir: Path, threads: int) -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "flowfilt", "run", str(config),
         "--out", str(outdir)],
        capture_output=True, text=True, env=_cli_env(threads))
    if proc.returncode != 0:
        raise RuntimeError(
            f"cli run failed ({proc.returncode}): {proc.stderr.strip()[:300]}")


def criterion_9() -> AcceptanceResult:
    """CLI artifacts are byte-identical across reruns and thread counts."""
    t0 = time.perf_counter()
    # Thread pools may exceed the visible CPU count; that is the point.
    alt_threads = 4
    mismatches = []
    with tempfile.TemporaryDirectory(prefix="flowfilt-accept-") as tmp:
        tmp = Path(tmp)
        prior, meas = _canonical_model()
        save_model(tmp / "model1.json", prior, meas)
        rng = np.random.default_rng(_SEED + 5)
        prior3, meas3 = _random_model(rng, 3, 2)
        save_model(tmp / "model3.json", prior3, meas3)

        configs = {
            "flow_path": {
                "model": "model1.json",
                "flow": {"flow": "fixed_q"},
                "grid": {"steps": 200},
                "ensemble": {"n_particles": 400, "seed": 4242},
                "experiment": "flow_path",
                "output_dir": "unused",
            },
            "moments": {
                "model": "model3.json",
                "flow": {"flow": "diagnostic", "alpha": 1.0},
                "grid": {"steps": 500},
                "ensemble": {"n_particles": 10, "seed": 7},
                "experiment": "moments",
                "output_dir": "unused",
            },
        }
        artifacts = {"flow_path": ("path.csv", "ensemble.csv", "summary.json"),
                     "moments": ("moments.csv", "summary.json")}
        for name, cfg in configs.items():
            cfg_path = tmp / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            runs = {"base": 1, "rerun": 1, "threads": alt_threads}
            for label, threads in runs.items():
                _run_cli(cfg_path, tmp / f"{name}-{label}", threads)
            for label in ("rerun", "threads"):
                for artifact in artifacts[name]:
                    base = (tmp / f"{name}-base" / artifact).read_bytes()
                    other = (tmp / f"{name}-{label}" / artifact).read_bytes()
                    if base != other:
                        mismatches.append(f"{name}/{artifact} differs on {label}")
    ok = not mismatches
    detail = "; ".join(mismatches[:3]) if mismatches else (
        f"2 configs x rerun+threads({alt_threads}) byte-identical")
    return _finish("C9", "artifacts byte-identical across reruns/threads", ok,
                   t0, None, detail)


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9)


def run_all(verbose: bool = True) -> list:
    """Run every acceptance criterion, printing one line per verdict."""
    results = []
    for fn in CRITERIA:
        result = fn()
        results.append(result)
        if verbose:
            print(format_line(result), flush=True)
    return results
