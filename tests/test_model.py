import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from flowfilt import (
    ConfigError,
    GaussianPrior,
    LinearMeasurement,
    affine_tables,
    closed_form_posterior,
    constant_q,
    fixed_q,
    grad_log_likelihood,
    grad_log_prior,
    homotopy_derivatives,
    lmv_estimate,
    load_model,
    log_homotopy_density_unnormalized,
    preset,
    save_model,
)


def test_prior_precomputes_factors():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    p = a @ a.T + 3 * np.eye(3)
    prior = GaussianPrior(rng.standard_normal(3), p)
    assert_allclose(prior.chol @ prior.chol.T, p, atol=1e-12)
    assert_allclose(prior.precision @ p, np.eye(3), atol=1e-12)
    assert not prior.P_g.flags.writeable


@pytest.mark.parametrize("bad", [
    np.array([[1.0, 0.5], [0.0, 1.0]]),          # asymmetric
    np.array([[1.0, 2.0], [2.0, 1.0]]),          # indefinite
    np.array([[1.0, np.nan], [np.nan, 1.0]]),    # non-finite
    np.zeros((2, 3)),                            # not square
])
def test_prior_rejects_bad_covariance(bad):
    with pytest.raises(ValueError):
        GaussianPrior(np.zeros(bad.shape[1] if bad.ndim == 2 else 2), bad)


def test_prior_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        GaussianPrior(np.zeros(3), np.eye(2))


def test_measurement_rejects_inconsistent_shapes():
    with pytest.raises(ValueError):
        LinearMeasurement(np.ones((2, 3)), np.eye(1), np.zeros(2))
    with pytest.raises(ValueError):
        LinearMeasurement(np.ones((2, 3)), np.eye(2), np.zeros(1))


def test_measurement_caches_information_products():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 2))
    r = b @ b.T + 2 * np.eye(2)
    z = rng.standard_normal(2)
    meas = LinearMeasurement(h, r, z)
    r_inv = np.linalg.inv(r)
    assert_allclose(meas.ht_rinv, h.T @ r_inv, atol=1e-12)
    assert_allclose(meas.info_matrix, h.T @ r_inv @ h, atol=1e-12)
    assert_allclose(meas.info_vector, h.T @ r_inv @ z, atol=1e-12)


def test_gradients_match_explicit_formulas(make_model):
    rng = np.random.default_rng(2)
    prior, meas = make_model(rng, 3, 2)
    x = rng.standard_normal(3)
    assert_allclose(grad_log_prior(x, prior),
                    -np.linalg.inv(prior.P_g) @ (x - prior.x_prior), atol=1e-12)
    assert_allclose(grad_log_likelihood(x, meas),
                    meas.H.T @ np.linalg.inv(meas.R) @ (meas.z - meas.H @ x),
                    atol=1e-12)


def test_gradient_scalar_frozen_value(canonical):
    prior, meas = canonical
    # z = 2, so the likelihood pulls x = 0.5 upward with force 1.5.
    assert_allclose(grad_log_likelihood(np.array([0.5]), meas), [1.5])
    assert_allclose(grad_log_prior(np.array([0.5]), prior), [-0.5])


def test_homotopy_derivatives_assemble_correctly(canonical):
    prior, meas = canonical
    derivs = homotopy_derivatives(np.zeros(1), 0.5, prior, meas)
    assert_allclose(derivs.M, [[1.5]])
    assert_allclose(derivs.hess_log_p, [[-1.5]])
    assert_allclose(derivs.S, [[1.0]])
    assert_allclose(derivs.grad_log_p,
                    derivs.grad_log_g + 0.5 * derivs.grad_log_h)


def test_homotopy_derivatives_generic(make_model):
    rng = np.random.default_rng(3)
    prior, meas = make_model(rng, 4, 2)
    lam = 0.37
    x = rng.standard_normal(4)
    derivs = homotopy_derivatives(x, lam, prior, meas)
    assert_allclose(derivs.M, prior.precision + lam * meas.info_matrix,
                    atol=1e-12)
    assert_allclose(derivs.hess_log_p, derivs.hess_log_g + lam * derivs.hess_log_h,
                    atol=1e-12)
    # M must stay positive definite along the whole homotopy.
    for l in np.linspace(0.0, 1.0, 7):
        m = homotopy_derivatives(x, l, prior, meas).M
        assert np.linalg.eigvalsh(m).min() > 0.0


def test_homotopy_derivatives_rejects_bad_lam(canonical):
    prior, meas = canonical
    for lam in (-0.1, 1.1, np.nan):
        with pytest.raises(ValueError):
            homotopy_derivatives(np.zeros(1), lam, prior, meas)


def test_log_density_difference_is_exact_log_ratio(canonical):
    prior, meas = canonical
    # ell(x) = -x^2/2 - lam (2 - x)^2 / 2, so ell(1) - ell(0) = 1 at lam = 1.
    diff = (log_homotopy_density_unnormalized(np.array([1.0]), 1.0, prior, meas)
            - log_homotopy_density_unnormalized(np.array([0.0]), 1.0, prior, meas))
    assert_allclose(diff, 1.0, atol=1e-14)


def test_log_density_generic_quadratic(make_model):
    rng = np.random.default_rng(4)
    prior, meas = make_model(rng, 2, 2)
    lam = 0.6
    x = rng.standard_normal(2)

    def direct(x):
        r = x - prior.x_prior
        s = meas.z - meas.H @ x
        return (-0.5 * r @ np.linalg.inv(prior.P_g) @ r
                - 0.5 * lam * s @ np.linalg.inv(meas.R) @ s)

    got = log_homotopy_density_unnormalized(x, lam, prior, meas)
    assert_allclose(got, direct(x), atol=1e-12)


def test_save_load_roundtrip(tmp_path, make_model):
    rng = np.random.default_rng(5)
    prior, meas = make_model(rng, 3, 2)
    path = tmp_path / "model.json"
    save_model(path, prior, meas)
    prior2, meas2 = load_model(path)
    assert_allclose(prior2.x_prior, prior.x_prior)
    assert_allclose(prior2.P_g, prior.P_g)
    assert_allclose(meas2.H, meas.H)
    assert_allclose(meas2.R, meas.R)
    assert_allclose(meas2.z, meas.z)


def _write_model(path, **overrides):
    payload = {
        "x_prior": [0.0],
        "P_g": [[1.0]],
        "H": [[1.0]],
        "R": [[1.0]],
        "z": [2.0],
    }
    payload.update(overrides)
    path.write_text(json.dumps(payload))


def test_load_model_rejects_unknown_key(tmp_path):
    path = tmp_path / "m.json"
    _write_model(path)
    raw = json.loads(path.read_text())
    raw["extra"] = 1
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="unknown keys"):
        load_model(path)


def test_load_model_rejects_missing_key(tmp_path):
    path = tmp_path / "m.json"
    _write_model(path)
    raw = json.loads(path.read_text())
    del raw["z"]
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="missing keys"):
        load_model(path)


def test_load_model_rejects_ragged_matrix(tmp_path):
    path = tmp_path / "m.json"
    _write_model(path, P_g=[[1.0, 0.0], [0.0]])
    with pytest.raises(ConfigError):
        load_model(path)


def test_load_model_rejects_dimension_mismatch(tmp_path):
    path = tmp_path / "m.json"
    _write_model(path, H=[[1.0, 0.0]])
    with pytest.raises(ConfigError, match="inconsistent"):
        load_model(path)


def test_load_model_rejects_invalid_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_model(path)


def test_load_model_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_model(tmp_path / "absent.json")


_MISMATCH_ENTRIES = {
    "preset_exact": lambda p, m: preset("exact", p, m),
    "preset_fixed_q": lambda p, m: preset("fixed_q", p, m),
    "preset_diagnostic": lambda p, m: preset("diagnostic", p, m),
    "affine_tables": lambda p, m: affine_tables(fixed_q(), p, m, [0.5]),
    "q_stack": lambda p, m: fixed_q().q_stack([0.5], p, m),
    "q_stack_own_diffusion": lambda p, m: constant_q(np.eye(3)).q_stack([0.5], p, m),
    "posterior": lambda p, m: closed_form_posterior(0.5, p, m),
    "posterior_lam0": lambda p, m: closed_form_posterior(0.0, p, m),
    "lmv_estimate": lmv_estimate,
    "homotopy_derivatives": lambda p, m: homotopy_derivatives(np.zeros(3), 0.5, p, m),
}


@pytest.mark.parametrize("entry", _MISMATCH_ENTRIES.values(), ids=_MISMATCH_ENTRIES.keys())
def test_every_entry_point_names_a_mismatched_model(entry):
    prior = GaussianPrior(np.zeros(3), np.eye(3))
    meas = LinearMeasurement(np.eye(2), np.eye(2), np.ones(2))
    with pytest.raises(ValueError, match="measurement expects dimension 2, prior has 3"):
        entry(prior, meas)
