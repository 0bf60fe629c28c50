"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised when a config or model file cannot be parsed or validated."""


class AdmissibilityError(ValueError):
    """Raised when a flow parameterization fails the positivity test
    that guarantees a valid diffusion matrix, or when the error dynamics
    leave the trusted numerical range.

    Attributes:
        lam: lam value of the first failing node (None when unknown).
        margin: smallest eigenvalue of the failing test matrix divided by
            its largest eigenvalue magnitude (None when no positivity
            test failed, or the matrix is not finite).
    """

    def __init__(self, message, lam=None, margin=None):
        super().__init__(message)
        self.lam = None if lam is None else float(lam)
        self.margin = None if margin is None else float(margin)


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
