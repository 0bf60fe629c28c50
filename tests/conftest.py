import numpy as np
import pytest

from flowfilt import GaussianPrior, LinearMeasurement


@pytest.fixture
def canonical():
    """Scalar model with posterior mean 1 and covariance 1/2."""
    prior = GaussianPrior(np.zeros(1), np.eye(1))
    meas = LinearMeasurement(np.eye(1), np.eye(1), np.array([2.0]))
    return prior, meas


@pytest.fixture
def make_model():
    def build(rng, n, d):
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((d, d))
        prior = GaussianPrior(rng.standard_normal(n), a @ a.T + n * np.eye(n))
        meas = LinearMeasurement(rng.standard_normal((d, n)),
                                 b @ b.T + d * np.eye(d),
                                 2.0 * rng.standard_normal(d))
        return prior, meas

    return build


@pytest.fixture
def stepped_widths(monkeypatch):
    """The particle count of every multi-step call to the stepwise kernel
    ``kernels._em``, in call order.  A collapsed terminal is a one-step
    call and is not recorded."""
    from flowfilt import kernels

    widths = []
    stepwise = kernels._em

    def spy(x, mk, *args):
        if mk.shape[0] > 1:
            widths.append(x.shape[1])
        return stepwise(x, mk, *args)

    monkeypatch.setattr(kernels, "_em", spy)
    return widths
