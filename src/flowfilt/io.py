"""CSV and JSON writers for experiment artifacts.

All CSV files use comma separators, a header row, LF line endings and
shortest round-trip float formatting, so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def _fmt(value) -> str:
    return repr(float(value))


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def write_path_csv(path, particle_path) -> None:
    """Columns: lambda, x_0 .. x_{n-1}."""
    n = particle_path.states.shape[1]
    header = ["lambda"] + [f"x_{j}" for j in range(n)]
    rows = (
        [_fmt(lam)] + [_fmt(v) for v in state]
        for lam, state in zip(particle_path.nodes, particle_path.states)
    )
    _write_csv(path, header, rows)


def write_ensemble_csv(path, ensemble) -> None:
    """Columns: particle_id, x_0 .. x_{n-1}."""
    n = ensemble.particles.shape[1]
    header = ["particle_id"] + [f"x_{j}" for j in range(n)]
    rows = (
        [str(i)] + [_fmt(v) for v in row]
        for i, row in enumerate(ensemble.particles)
    )
    _write_csv(path, header, rows)


def write_moments_csv(path, moment_path) -> None:
    """Columns: lambda, xbar_*, then the covariance upper triangle row-major."""
    n = moment_path.means.shape[1]
    header = ["lambda"] + [f"xbar_{j}" for j in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    header += [f"P_{i}{j}" for i, j in pairs]
    rows = (
        [_fmt(lam)] + [_fmt(v) for v in mean] + [_fmt(cov[i, j]) for i, j in pairs]
        for lam, mean, cov in zip(moment_path.nodes, moment_path.means,
                                  moment_path.covariances)
    )
    _write_csv(path, header, rows)


def write_trace_csv(path, trajectory) -> None:
    """Columns: lambda, V_M, V_S."""
    rows = (
        [_fmt(lam), _fmt(vm), _fmt(vs)]
        for lam, vm, vs in zip(trajectory.nodes, trajectory.v_m, trajectory.v_s)
    )
    _write_csv(path, ["lambda", "V_M", "V_S"], rows)


def write_consistency_csv(path, table) -> None:
    """Columns: N, seed_count, mean_err, cov_err."""
    rows = (
        [str(int(n)), str(table.seed_count), _fmt(me), _fmt(ce)]
        for n, me, ce in zip(table.n_particles, table.mean_errors, table.cov_errors)
    )
    _write_csv(path, ["N", "seed_count", "mean_err", "cov_err"], rows)


def write_sequential_csv(path, result) -> None:
    """Columns: step, rmse_flow, rmse_kalman, cov_frobenius_gap."""
    rows = (
        [str(int(k)), _fmt(rf), _fmt(rk), _fmt(cg)]
        for k, rf, rk, cg in zip(result.steps, result.rmse_flow,
                                 result.rmse_kalman, result.cov_gap)
    )
    _write_csv(path, ["step", "rmse_flow", "rmse_kalman", "cov_frobenius_gap"], rows)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if np.isfinite(obj) else None
    return obj


def write_json(path, payload: dict) -> None:
    """Strict JSON: a NaN or infinite float is written as null."""
    Path(path).write_text(
        json.dumps(_jsonable(payload), indent=2, sort_keys=True,
                   allow_nan=False) + "\n",
        newline="\n",
    )
