"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised when a config or model file cannot be parsed or validated."""


class AdmissibilityError(ValueError):
    """Raised when a flow parameterization fails the positivity test
    that guarantees a valid diffusion matrix."""


class DivergenceError(RuntimeError):
    """Raised when a propagated state leaves the trusted numerical range.

    Attributes:
        step: index of the integration step that produced the bad state.
        particle: index of the offending particle (-1 for single-state runs).
        lam: grid node of the bad state, ``nodes[step + 1]`` (None when
            unknown).
    """

    def __init__(self, message, step=-1, particle=-1, lam=None):
        super().__init__(message)
        self.step = int(step)
        self.particle = int(particle)
        self.lam = None if lam is None else float(lam)
