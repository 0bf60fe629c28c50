"""Stochastic particle flow filters for linear-Gaussian Bayesian updates.

The package propagates particle ensembles along a pseudo-time homotopy
from prior to posterior, exposes the full family of admissible flows
behind that update, and verifies unbiasedness, estimator consistency and
finite-time stability against closed-form Gaussian oracles.
"""

__version__ = "0.1.0"

from .acceptance import AcceptanceResult, run_all
from .errors import AdmissibilityError, ConfigError, DivergenceError
from .estimation import (ConsistencyTable, EstimatorReport, ParticleEnsemble,
                         consistency_sweep, covariance_estimate,
                         estimator_report, mean_estimate, sample_prior)
from .flows import (AffineFlowCoefficients, FlowParameterization,
                    affine_coefficients, affine_tables, constant_q,
                    diagnostic_noise, diffusion_factor, drift,
                    exact_flow, exact_flow_coefficients, fixed_q,
                    is_admissible, k_from_q, k_schedule, preset, q_from_k,
                    reference_flow)
from .grid import LambdaGrid
from .integrate import (NoiseStream, ParticlePath, propagate_ensemble,
                        propagate_particle)
from .model import (GaussianPrior, HomotopyDerivatives, LinearMeasurement,
                    grad_log_likelihood, grad_log_prior, homotopy_derivatives,
                    load_model, log_homotopy_density_unnormalized, save_model)
from .moments import (MomentPath, closed_form_posterior, lmv_estimate,
                      solve_moment_odes)
from .sequential import (KalmanFilter, SequentialResult, SequentialScenario,
                         run_sequential)
from .stability import (ErrorTrajectory, FtcsResult, FtsResult, FtssResult,
                        Regime, StabilityReport, build_stability_report,
                        check_fts, check_ftcs, check_ftss, classify_regime,
                        contraction_rate, ellipsoid_invariance_check,
                        error_trajectory, linear_error_trajectory,
                        lyapunov_derivative)

__all__ = [name for name in dir() if not name.startswith("_")]
