import json
import subprocess
import sys

import numpy as np
import pytest

from flowfilt import GaussianPrior, LambdaGrid, LinearMeasurement, save_model
from flowfilt.acceptance import _cli_env
from flowfilt.cli import (
    EXIT_ADMISSIBILITY,
    EXIT_DIVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    _fail,
    main,
    parse_config,
    run,
)
from flowfilt.errors import AdmissibilityError, ConfigError


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


_SEQUENTIAL = {"F": [[1.0]], "W": [[0.1]], "n_steps": 5, "truth_seed": 11}


@pytest.mark.parametrize("key, overrides", [
    ("consistency", dict(experiment="ensemble_consistency",
                         consistency={"n_seeds": "ten"})),
    ("consistency", dict(experiment="ensemble_consistency",
                         consistency={"n_list": [1, 10]})),
    ("stability.alpha", dict(experiment="stability", stability={"alpha": "big"})),
    ("stability", dict(experiment="stability", stability={"n_mc": 5})),
    ("sequential.F", dict(experiment="sequential",
                          sequential=dict(_SEQUENTIAL, F=[[1.0, 0.0]]))),
    ("flow.alpha", dict(flow={"flow": "diagnostic", "alpha": "x"})),
    ("flow.Q0", dict(flow={"flow": "constant_q", "Q0": "x"})),
    # One particle has no sample covariance to estimate or refit.
    ("ensemble", dict(ensemble={"n_particles": 1, "seed": 99})),
    ("sequential", dict(experiment="sequential", ensemble={"n_particles": 1, "seed": 4},
                        sequential=_SEQUENTIAL)),
    # The rk4 scheme needs a diffusion-free flow; the default is fixed_q.
    ("grid", dict(grid={"steps": 60, "scheme": "rk4"})),
    ("stability", dict(experiment="stability", flow={"flow": "exact"},
                       stability={"ellipsoid_particles": -1})),
])
def test_run_exit_code_for_malformed_option_values(tmp_path, capsys, key, overrides):
    path = _base_config(tmp_path, **overrides)
    assert run(path) == EXIT_PARSE
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(key)


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
    # Q0 is rejected before any lam is evaluated.
    assert record["lam"] is None
    # Its only eigenvalue is -1, so the margin is -1 / |-1|.
    assert record["margin"] == -1.0


def test_admissibility_error_json_names_lam(tmp_path, capsys):
    assert _fail(EXIT_ADMISSIBILITY, AdmissibilityError("bad", lam=0.25),
                 tmp_path) == EXIT_ADMISSIBILITY
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["lam"] == 0.25
    assert record["margin"] is None
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
    # The fitted slope is about -0.5 with a standard deviation of 0.066
    # over base seeds, so -0.2 is 4.5 deviations away.
    path = _base_config(
        tmp_path, experiment="ensemble_consistency",
        grid={"steps": 120},
        consistency={"n_list": [25, 100, 400, 1600], "n_seeds": 16})
    assert run(path) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["slope"] < -0.2
    lines = (tmp_path / "out" / "consistency.csv").read_text().splitlines()
    assert len(lines) == 5  # header + one row per ensemble size


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


@pytest.mark.parametrize("alpha", [2.0, 1.5])
def test_run_stability_derives_the_ftss_beta(tmp_path, alpha):
    # FTSS takes beta = alpha / epsilon, so any alpha below beta and gamma
    # is a valid config; a fixed FTSS beta of 4 rejected every alpha > 1.
    path = _base_config(tmp_path, experiment="stability",
                        flow={"flow": "constant_q", "Q0": [[1.0]]},
                        grid={"steps": 200},
                        stability={"alpha": alpha, "beta": 4.0, "gamma": 8.0,
                                   "n_mc": 400})
    assert run(path) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["ftss"]["beta"] == alpha / 0.25


def test_run_stability_reports_ellipsoid_for_exact_flow(tmp_path):
    path = _base_config(tmp_path, experiment="stability",
                        flow={"flow": "exact"},
                        grid={"steps": 200},
                        stability={"n_mc": 400})
    assert run(path) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["ellipsoid_deviation"] < 1e-8


def test_run_stability_of_rank_deficient_diffusion(tmp_path, make_model):
    path = _base_config(tmp_path, experiment="stability", grid={"steps": 10})
    save_model(tmp_path / "model.json", *make_model(np.random.default_rng(16), 2, 1))
    assert run(path) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert (summary["regime"], summary["sigma"]) == ("NonIncreasing", 0.0)
    assert summary["ftcs"]["beta"] == 0.75


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_run_one_size_consistency_writes_strict_json(tmp_path):
    path = _base_config(tmp_path, experiment="ensemble_consistency",
                        consistency={"n_list": [50], "n_seeds": 2})
    assert run(path) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text(),
                         parse_constant=_reject_constant)
    # One ensemble size gives no slope.
    assert summary["slope"] is None


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


def test_package_and_cli_load_no_scipy():
    """numpy is the only runtime dependency: a fresh interpreter that
    imports flowfilt and its CLI has no scipy module loaded, even where
    scipy is installed."""
    code = ("import sys, flowfilt, flowfilt.cli\n"
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_cli_env(1), check=True)
    assert proc.stdout.strip() == "[]"


def test_package_import_defers_the_acceptance_suite():
    """``import flowfilt`` leaves the acceptance module unloaded; its two
    package-level names still resolve, and load it."""
    code = ("import sys, flowfilt\n"
            "print('flowfilt.acceptance' in sys.modules)\n"
            "print(flowfilt.run_all.__module__, flowfilt.AcceptanceResult.__module__)\n"
            "print('flowfilt.acceptance' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_cli_env(1), check=True)
    assert proc.stdout.split("\n")[:3] == [
        "False", "flowfilt.acceptance flowfilt.acceptance", "True"]
