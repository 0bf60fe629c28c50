"""Command-line front end: configured experiment runs and verification.

Exit codes: 0 success, 2 config or model parse failure (an option value
of the wrong type, or one the library rejects as out of range, included),
3 admissibility failure, 4 propagation divergence, 1 anything else.  On
failure a machine-readable error record is printed to stderr and, when
the output directory exists, written to error.json inside it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, io
from .errors import AdmissibilityError, ConfigError, DivergenceError
from .estimation import consistency_sweep, estimator_report, sample_prior
from .flows import PRESET_KINDS, preset
from .grid import SCHEMES, LambdaGrid
from .integrate import NoiseStream, propagate_ensemble, propagate_particle
from .model import load_model
from .moments import closed_form_posterior, lmv_estimate, solve_moment_odes
from .sequential import SequentialScenario, run_sequential
from .stability import build_stability_report, ellipsoid_invariance_check

EXPERIMENTS = ("flow_path", "moments", "ensemble_consistency", "stability",
               "sequential")

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_PARSE = 2
EXIT_ADMISSIBILITY = 3
EXIT_DIVERGENCE = 4

_PRESET_HELP = (
    ("exact", "zero-diffusion deterministic flow", "-"),
    ("fixed_q", "zero schedule matrix, measurement-shaped diffusion", "-"),
    ("constant_q", "prescribed constant diffusion", "Q0 (matrix)"),
    ("diagnostic", "reference flow around the exact drift", "alpha (positive number)"),
)


def _expect_keys(obj, where: str, required: dict, optional: dict = None) -> dict:
    """Check the keys of a config block; ``required`` and ``optional`` map
    each key to the type check of its value, or None."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    optional = optional or {}
    unknown = [k for k in obj if k not in required and k not in optional]
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {sorted(unknown)}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ConfigError(f"{where} is missing keys: {sorted(missing)}")
    for key, check in {**required, **optional}.items():
        if check is not None and key in obj:
            check(obj[key], f"{where}.{key}")
    return obj


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _as_int_list(value, where: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty list of integers, got {value!r}")
    return [_as_int(item, f"{where}[{i}]") for i, item in enumerate(value)]


def _as_square_matrix(value, where: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError(f"{where} must be a square matrix of numbers, got {value!r}")
    return arr


@contextmanager
def _config_values(where: str):
    """Report the library's range checks on the values of a config block
    (a plain ValueError) as a ConfigError naming that block."""
    try:
        yield
    except ValueError as exc:
        if type(exc) is not ValueError:
            raise
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass
class ExperimentConfig:
    """Validated experiment description."""

    model_path: Path
    flow: dict
    steps: int
    scheme: str
    n_particles: int
    seed: int
    experiment: str
    output_dir: Path
    consistency: dict
    sequential: dict
    stability: dict
    echo: dict


def parse_config(path, seed=None, steps=None, out=None) -> ExperimentConfig:
    """Load and validate an experiment config, applying CLI overrides."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")

    required = {"model": None, "flow": None, "grid": None, "ensemble": None,
                "experiment": None, "output_dir": None}
    optional = {"consistency": None, "sequential": None, "stability": None}
    _expect_keys(raw, f"config {path}", required, optional)

    experiment = raw["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    for block in ("consistency", "sequential", "stability"):
        if block in raw and not (
            (block == "consistency" and experiment == "ensemble_consistency")
            or block == experiment
        ):
            raise ConfigError(
                f"config block {block!r} is only valid for the matching experiment"
            )

    flow = _expect_keys(raw["flow"], "flow", {"flow": None},
                        {"Q0": _as_square_matrix, "alpha": _as_number})
    kind = flow.get("flow")
    if kind not in PRESET_KINDS:
        raise ConfigError(f"flow must be one of {PRESET_KINDS}, got {kind!r}")
    if "Q0" in flow and kind != "constant_q":
        raise ConfigError("Q0 is only valid for the constant_q flow")
    if "alpha" in flow and kind != "diagnostic":
        raise ConfigError("alpha is only valid for the diagnostic flow")
    if kind == "constant_q" and "Q0" not in flow:
        raise ConfigError("constant_q flow requires Q0")

    grid = _expect_keys(raw["grid"], "grid", {"steps": None}, {"scheme": None})
    n_steps = _as_int(grid["steps"], "grid.steps")
    if n_steps < 10:
        raise ConfigError(f"grid.steps must be at least 10, got {n_steps}")
    scheme = grid.get("scheme", "euler_maruyama")
    if scheme not in SCHEMES:
        raise ConfigError(f"grid.scheme must be one of {SCHEMES}, got {scheme!r}")

    ensemble = _expect_keys(raw["ensemble"], "ensemble",
                            {"n_particles": None, "seed": None})
    n_particles = _as_int(ensemble["n_particles"], "ensemble.n_particles")
    if n_particles < 1:
        raise ConfigError(f"ensemble.n_particles must be >= 1, got {n_particles}")
    cfg_seed = _as_int(ensemble["seed"], "ensemble.seed")
    if not 0 <= cfg_seed < 2**64:
        raise ConfigError(f"ensemble.seed must fit in 64 bits, got {cfg_seed}")

    consistency = raw.get("consistency", {})
    if experiment == "ensemble_consistency":
        consistency = _expect_keys(consistency, "consistency", {},
                                   {"n_list": _as_int_list, "n_seeds": _as_int})
    sequential = raw.get("sequential", {})
    if experiment == "sequential":
        sequential = _expect_keys(
            sequential, "sequential",
            {"F": _as_square_matrix, "W": _as_square_matrix,
             "n_steps": _as_int, "truth_seed": _as_int})
    stability = raw.get("stability", {})
    if experiment == "stability":
        stability = _expect_keys(
            stability, "stability", {},
            {"alpha": _as_number, "beta": _as_number, "gamma": _as_number,
             "epsilon": _as_number, "n_mc": _as_int, "seed": _as_int,
             "ellipsoid_particles": _as_int})

    model_path = Path(raw["model"])
    if not model_path.is_absolute():
        model_path = path.parent / model_path
    if not model_path.is_file():
        raise ConfigError(f"model file {model_path} does not exist")

    output_dir = Path(out) if out is not None else Path(raw["output_dir"])
    if seed is not None:
        if not 0 <= int(seed) < 2**64:
            raise ConfigError(f"--seed must fit in 64 bits, got {seed}")
        cfg_seed = int(seed)
    if steps is not None:
        if int(steps) < 10:
            raise ConfigError(f"--steps must be at least 10, got {steps}")
        n_steps = int(steps)

    return ExperimentConfig(
        model_path=model_path,
        flow=dict(flow),
        steps=n_steps,
        scheme=scheme,
        n_particles=n_particles,
        seed=cfg_seed,
        experiment=experiment,
        output_dir=output_dir,
        consistency=dict(consistency),
        sequential=dict(sequential),
        stability=dict(stability),
        echo=raw,
    )


def _build_flow(cfg: ExperimentConfig, prior, meas):
    kind = cfg.flow["flow"]
    if kind == "constant_q":
        q0 = np.asarray(cfg.flow["Q0"], dtype=float)
        return preset("constant_q", prior, meas, Q0=q0)
    if kind == "diagnostic":
        return preset("diagnostic", prior, meas,
                      alpha=float(cfg.flow.get("alpha", 1.0)))
    return preset(kind, prior, meas)


def _run_flow_path(cfg, prior, meas, params, grid, outdir, outputs):
    ensemble = sample_prior(cfg.n_particles, prior, cfg.seed)
    # An rk4 grid with a stochastic flow is a config mismatch.
    with _config_values("grid"):
        path0 = propagate_particle(ensemble.particles[0], params, grid,
                                   NoiseStream(cfg.seed, 0), prior, meas)
        updated = propagate_ensemble(ensemble, params, grid, prior, meas)
    # The estimates need two particles; a smaller ensemble is a config error.
    with _config_values("ensemble"):
        report = estimator_report(updated, prior, meas)
    io.write_path_csv(outdir / "path.csv", path0)
    outputs.append("path.csv")
    io.write_ensemble_csv(outdir / "ensemble.csv", updated)
    outputs.append("ensemble.csv")
    return {
        "terminal_state_particle_0": path0.terminal,
        "mean_estimate": report.mean,
        "covariance_estimate": report.covariance,
        "oracle_mean": report.oracle_mean,
        "oracle_covariance": report.oracle_covariance,
        "mean_error": report.mean_error,
        "covariance_error": report.covariance_error,
    }


def _run_moments(cfg, prior, meas, params, grid, outdir, outputs):
    path = solve_moment_odes(params, grid, prior, meas)
    io.write_moments_csv(outdir / "moments.csv", path)
    outputs.append("moments.csv")
    oracle_mean, oracle_cov = closed_form_posterior(1.0, prior, meas)
    return {
        "terminal_mean": path.terminal_mean,
        "terminal_covariance": path.terminal_covariance,
        "oracle_mean": oracle_mean,
        "oracle_covariance": oracle_cov,
        "lmv_estimate": lmv_estimate(prior, meas),
        "mean_error": float(np.linalg.norm(path.terminal_mean - oracle_mean)),
        "covariance_error": float(
            np.linalg.norm(path.terminal_covariance - oracle_cov, ord="fro")),
    }


def _run_consistency(cfg, prior, meas, params, grid, outdir, outputs):
    n_list = cfg.consistency.get("n_list", [100, 1000, 10000])
    n_seeds = cfg.consistency.get("n_seeds", 10)
    seeds = [cfg.seed + i for i in range(int(n_seeds))]
    with _config_values("consistency"):
        table = consistency_sweep(params, prior, meas, grid, n_list, seeds)
    io.write_consistency_csv(outdir / "consistency.csv", table)
    outputs.append("consistency.csv")
    return {
        "n_particles": table.n_particles,
        "mean_errors": table.mean_errors,
        "cov_errors": table.cov_errors,
        "slope": table.slope,
    }


def _run_stability(cfg, prior, meas, params, grid, outdir, outputs):
    opts = cfg.stability
    seed = int(opts.get("seed", cfg.seed))
    with _config_values("stability"):
        report = build_stability_report(
            params, prior, meas, grid,
            alpha=float(opts.get("alpha", 1.0)),
            beta=float(opts.get("beta", 2.0)),
            gamma=float(opts.get("gamma", 4.0)),
            epsilon=float(opts.get("epsilon", 0.25)),
            n_mc=int(opts.get("n_mc", 2000)),
            seed=seed,
        )
        summary = report.to_dict()
        if cfg.flow["flow"] == "exact":
            summary["ellipsoid_deviation"] = ellipsoid_invariance_check(
                prior, meas, grid, int(opts.get("ellipsoid_particles", 16)), seed)
    from .stability import error_trajectory

    scale = np.sqrt(report.fts.alpha)
    x1 = prior.x_prior + scale * prior.chol[:, 0]
    traj = error_trajectory(x1, prior.x_prior, params, grid, prior, meas)
    io.write_trace_csv(outdir / "lyapunov.csv", traj)
    outputs.append("lyapunov.csv")
    return summary


def _run_sequential(cfg, prior, meas, params, grid, outdir, outputs):
    block = cfg.sequential
    with _config_values("sequential"):
        scenario = SequentialScenario(
            F=np.asarray(block["F"], dtype=float),
            W=np.asarray(block["W"], dtype=float),
            n_steps=block["n_steps"],
            truth_seed=block["truth_seed"],
        )
        result = run_sequential(prior, meas, params, grid, scenario,
                                cfg.n_particles, cfg.seed)
    io.write_sequential_csv(outdir / "sequential.csv", result)
    outputs.append("sequential.csv")
    return {
        "rmse_ratio": result.rmse_ratio,
        "mean_rmse_flow": float(result.rmse_flow.mean()),
        "mean_rmse_kalman": float(result.rmse_kalman.mean()),
        "mean_cov_gap": float(result.cov_gap.mean()),
    }


_RUNNERS = {
    "flow_path": _run_flow_path,
    "moments": _run_moments,
    "ensemble_consistency": _run_consistency,
    "stability": _run_stability,
    "sequential": _run_sequential,
}


def run(config_path, seed=None, steps=None, out=None) -> int:
    """Execute one configured experiment; returns the process exit code."""
    started = time.time()
    outdir = None
    try:
        cfg = parse_config(config_path, seed=seed, steps=steps, out=out)
        prior, meas = load_model(cfg.model_path)
        with _config_values("flow"):
            params = _build_flow(cfg, prior, meas)
        grid = LambdaGrid.uniform(cfg.steps, cfg.scheme)

        outdir = cfg.output_dir
        outdir.mkdir(parents=True, exist_ok=True)
        outputs = []
        summary = _RUNNERS[cfg.experiment](cfg, prior, meas, params, grid,
                                           outdir, outputs)
        io.write_json(outdir / "summary.json", summary)
        outputs.append("summary.json")
        manifest = {
            "config": cfg.echo,
            "config_path": str(Path(config_path)),
            "model_path": str(cfg.model_path),
            "experiment": cfg.experiment,
            "ensemble_seed": cfg.seed,
            "truth_seed": cfg.sequential.get("truth_seed"),
            "grid_steps": cfg.steps,
            "scheme": cfg.scheme,
            "version": __version__,
            "outputs": sorted(outputs) + ["run_manifest.json"],
            "wall_time_seconds": time.time() - started,
        }
        io.write_json(outdir / "run_manifest.json", manifest)
        return EXIT_OK
    except ConfigError as exc:
        return _fail(EXIT_PARSE, exc, outdir)
    except AdmissibilityError as exc:
        return _fail(EXIT_ADMISSIBILITY, exc, outdir)
    except DivergenceError as exc:
        return _fail(EXIT_DIVERGENCE, exc, outdir)
    except Exception as exc:  # noqa: BLE001 - report, then fail loudly
        return _fail(EXIT_FAILURE, exc, outdir)


def _fail(code: int, exc: Exception, outdir) -> int:
    record = {
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }
    if isinstance(exc, DivergenceError):
        record["step"] = exc.step
        record["particle"] = exc.particle
    if isinstance(exc, (AdmissibilityError, DivergenceError)):
        record["lam"] = exc.lam
    if isinstance(exc, AdmissibilityError):
        record["margin"] = exc.margin
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    if outdir is not None and Path(outdir).is_dir():
        io.write_json(Path(outdir) / "error.json", record)
    return code


def _cmd_presets() -> int:
    width = max(len(name) for name, _, _ in _PRESET_HELP)
    print(f"{'name':<{width}}  extra config     description")
    for name, desc, extra in _PRESET_HELP:
        print(f"{name:<{width}}  {extra:<15}  {desc}")
    return EXIT_OK


def _cmd_verify() -> int:
    from .acceptance import run_all

    results = run_all(verbose=True)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAILURE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flowfilt",
        description="Particle flow filtering experiments for linear-Gaussian models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a configured experiment")
    run_p.add_argument("config", help="path to an experiment config (JSON)")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the ensemble seed")
    run_p.add_argument("--steps", type=int, default=None,
                       help="override the number of grid steps")
    run_p.add_argument("--out", type=str, default=None,
                       help="override the output directory")

    sub.add_parser("presets", help="list the available flow presets")
    sub.add_parser("verify", help="run the acceptance suite and report pass/fail")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, seed=args.seed, steps=args.steps, out=args.out)
    if args.command == "presets":
        return _cmd_presets()
    return _cmd_verify()


if __name__ == "__main__":
    sys.exit(main())
