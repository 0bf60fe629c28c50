import json

import numpy as np
import pytest

from flowfilt import GaussianPrior, LambdaGrid, LinearMeasurement, save_model
from flowfilt.cli import (
    EXIT_ADMISSIBILITY,
    EXIT_DIVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    main,
    parse_config,
    run,
)
from flowfilt.errors import ConfigError


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def _base_config(tmp_path, **overrides):
    prior = GaussianPrior(np.zeros(1), np.eye(1))
    meas = LinearMeasurement(np.eye(1), np.eye(1), np.array([2.0]))
    save_model(tmp_path / "model.json", prior, meas)
    cfg = {
        "model": "model.json",
        "flow": {"flow": "fixed_q"},
        "grid": {"steps": 60},
        "ensemble": {"n_particles": 200, "seed": 99},
        "experiment": "flow_path",
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    return _write(tmp_path, "config.json", cfg)


def test_parse_config_applies_overrides(tmp_path):
    path = _base_config(tmp_path)
    cfg = parse_config(path, seed=7, steps=120, out=tmp_path / "elsewhere")
    assert cfg.seed == 7
    assert cfg.steps == 120
    assert cfg.output_dir == tmp_path / "elsewhere"
    assert cfg.flow["flow"] == "fixed_q"


def test_parse_config_rejects_unknown_key(tmp_path):
    path = _base_config(tmp_path, typo_key=1)
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(path)


def test_parse_config_rejects_bad_experiment(tmp_path):
    path = _base_config(tmp_path, experiment="nonsense")
    with pytest.raises(ConfigError, match="experiment"):
        parse_config(path)


def test_parse_config_rejects_mismatched_block(tmp_path):
    path = _base_config(tmp_path, sequential={"F": [[1.0]]})
    with pytest.raises(ConfigError, match="matching experiment"):
        parse_config(path)


def test_parse_config_rejects_small_grids(tmp_path):
    path = _base_config(tmp_path, grid={"steps": 5})
    with pytest.raises(ConfigError, match="at least 10"):
        parse_config(path)


def test_parse_config_rejects_flow_extras(tmp_path):
    path = _base_config(tmp_path, flow={"flow": "fixed_q", "alpha": 1.0})
    with pytest.raises(ConfigError, match="alpha"):
        parse_config(path)


def test_run_flow_path_writes_artifacts(tmp_path):
    path = _base_config(tmp_path)
    assert run(path) == EXIT_OK
    out = tmp_path / "out"
    for name in ("path.csv", "ensemble.csv", "summary.json",
                 "run_manifest.json"):
        assert (out / name).is_file()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["mean_error"] < 0.5
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["grid_steps"] == 60
    assert manifest["ensemble_seed"] == 99
    assert set(manifest["outputs"]) == {
        "path.csv", "ensemble.csv", "summary.json", "run_manifest.json"}

    header = (out / "path.csv").read_text().splitlines()[0]
    assert header.split(",")[0] == "lambda"


def test_rerun_is_byte_identical(tmp_path):
    path = _base_config(tmp_path)
    assert run(path) == EXIT_OK
    first = {name: (tmp_path / "out" / name).read_bytes()
             for name in ("path.csv", "ensemble.csv", "summary.json")}
    assert run(path, out=tmp_path / "out2") == EXIT_OK
    for name, blob in first.items():
        assert (tmp_path / "out2" / name).read_bytes() == blob


def test_seed_override_changes_ensemble(tmp_path):
    path = _base_config(tmp_path)
    assert run(path) == EXIT_OK
    assert run(path, seed=100, out=tmp_path / "out3") == EXIT_OK
    a = (tmp_path / "out" / "ensemble.csv").read_bytes()
    b = (tmp_path / "out3" / "ensemble.csv").read_bytes()
    assert a != b


def test_run_exit_code_parse_failure(tmp_path, capsys):
    path = _base_config(tmp_path, typo_key=1)
    assert run(path) == EXIT_PARSE
    record = json.loads(capsys.readouterr().err.strip())
    assert record["exit_code"] == EXIT_PARSE
    assert record["error"] == "ConfigError"


def test_run_exit_code_for_ragged_model(tmp_path, capsys):
    path = _base_config(tmp_path)
    _write(tmp_path, "model.json", {
        "x_prior": [0.0], "P_g": [[1.0, 0.0], [0.0]], "H": [[1.0]],
        "R": [[1.0]], "z": [2.0]})
    assert run(path) == EXIT_PARSE
    assert "rectangular" in capsys.readouterr().err


def test_run_exit_code_admissibility(tmp_path, capsys):
    path = _base_config(tmp_path,
                        flow={"flow": "constant_q", "Q0": [[-1.0]]})
    assert run(path) == EXIT_ADMISSIBILITY
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "AdmissibilityError"


def test_run_exit_code_divergence_writes_error_json(tmp_path, capsys):
    path = _base_config(tmp_path)
    _write(tmp_path, "model.json", {
        "x_prior": [0.0], "P_g": [[1.0]], "H": [[1.0]],
        "R": [[1.0]], "z": [1e15]})
    (tmp_path / "out").mkdir()
    assert run(path) == EXIT_DIVERGENCE
    record = json.loads(capsys.readouterr().err.strip())
    assert record["exit_code"] == EXIT_DIVERGENCE
    assert record["step"] == 0
    assert record["lam"] == LambdaGrid.uniform(60).nodes[1]
    assert "lam" in record["message"]
    on_disk = json.loads((tmp_path / "out" / "error.json").read_text())
    assert on_disk == record


def test_run_moments_experiment(tmp_path):
    path = _base_config(tmp_path, experiment="moments",
                        flow={"flow": "diagnostic", "alpha": 1.0},
                        grid={"steps": 300})
    assert run(path) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["mean_error"] < 1e-6
    assert (tmp_path / "out" / "moments.csv").is_file()


def test_run_consistency_experiment(tmp_path):
    path = _base_config(
        tmp_path, experiment="ensemble_consistency",
        grid={"steps": 120},
        consistency={"n_list": [25, 100, 400], "n_seeds": 4})
    assert run(path) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["slope"] < -0.2
    lines = (tmp_path / "out" / "consistency.csv").read_text().splitlines()
    assert len(lines) == 4  # header + one row per ensemble size


def test_run_stability_experiment(tmp_path):
    path = _base_config(tmp_path, experiment="stability",
                        flow={"flow": "constant_q", "Q0": [[1.0]]},
                        grid={"steps": 200},
                        stability={"n_mc": 400})
    assert run(path) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["regime"] == "ExponentialDecay"
    assert summary["fts"]["verdict"] is True
    assert (tmp_path / "out" / "lyapunov.csv").is_file()


def test_run_stability_reports_ellipsoid_for_exact_flow(tmp_path):
    path = _base_config(tmp_path, experiment="stability",
                        flow={"flow": "exact"},
                        grid={"steps": 200},
                        stability={"n_mc": 400})
    assert run(path) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["ellipsoid_deviation"] < 1e-8


def test_run_sequential_experiment(tmp_path):
    path = _base_config(
        tmp_path, experiment="sequential",
        grid={"steps": 100},
        ensemble={"n_particles": 300, "seed": 4},
        sequential={"F": [[1.0]], "W": [[0.1]], "n_steps": 5,
                    "truth_seed": 11})
    assert run(path) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert 0.5 < summary["rmse_ratio"] < 2.0
    lines = (tmp_path / "out" / "sequential.csv").read_text().splitlines()
    assert len(lines) == 6


def test_main_presets_lists_flows(capsys):
    assert main(["presets"]) == EXIT_OK
    out = capsys.readouterr().out
    for kind in ("exact", "fixed_q", "constant_q", "diagnostic"):
        assert kind in out


def test_main_run_dispatch(tmp_path):
    path = _base_config(tmp_path)
    assert main(["run", str(path), "--out", str(tmp_path / "cli-out")]) == EXIT_OK
    assert (tmp_path / "cli-out" / "summary.json").is_file()
