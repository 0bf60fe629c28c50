"""Spans around the public functions of each flowfilt layer.

The tracer wraps functions from outside the package: it rebinds every
flowfilt module attribute that refers to a wrapped function, including
names that other modules imported with ``from .x import y`` (for example
``integrate.affine_tables``), plus two methods on classes
(``NoiseStream.normals`` and ``GaussianPrior.__post_init__``).

Spans nest.  ``<group>.s`` is busy time (outermost span of the group
only), ``<group>.self_s`` is busy time minus the time of enclosed spans,
and ``<group>.calls`` counts calls.  Other counts are computed from the
array shapes that pass through the boundary, not measured in hardware.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_em(tracer, args, kwargs, result):
    x, paths = result[0], result[1]
    particles, n = x.shape
    arrays = [_arg(args, kwargs, k, name) for k, name in
              enumerate(("a_all", "b_all", "q_all", "noise", "dlam"), start=1)]
    steps, m = np.shape(arrays[4])[0], np.shape(arrays[2])[2]
    particle_steps = particles * steps
    tracer.add("kernels.em.particle_steps", particle_steps)
    # Per particle-step: A x (2n^2), + b, * dl, + x (3n), q xi (2nm),
    # * sqrt(dl), + (2n).
    tracer.add("kernels.em.flops_computed",
               particle_steps * (2 * n * n + 2 * n * m + 5 * n))
    tracer.add("kernels.em.bytes_computed",
               8 * (sum(np.size(a) for a in arrays) + 2 * x.size)
               + (paths.nbytes if paths is not None else 0))


def _count_rk4(tracer, args, kwargs, result):
    x, paths = result[0], result[1]
    particles, n = x.shape
    arrays = [_arg(args, kwargs, k, name) for k, name in
              enumerate(("a_nodes", "b_nodes", "a_mids", "b_mids", "dlam"), start=1)]
    particle_steps = particles * np.shape(arrays[4])[0]
    recorded = paths.nbytes if paths is not None else 0
    tracer.add("kernels.rk4.particle_steps", particle_steps)
    # Per particle-step: four affine evaluations (4 * (2n^2 + n)), three
    # stage points (6n), the weighted stage sum (5n) and the update (2n).
    tracer.add("kernels.rk4.flops_computed", particle_steps * (8 * n * n + 17 * n))
    tracer.add("kernels.rk4.bytes_computed",
               8 * (sum(np.size(a) for a in arrays) + 2 * x.size) + recorded)
    tracer.add("kernels.rk4.recorded_bytes", recorded)


def _count_tables(tracer, args, kwargs, result):
    nodes = result.a_nodes.shape[0]
    if result.a_mids is not None:
        nodes += result.a_mids.shape[0]
    tracer.add("integrate.tables.nodes", nodes)
    if result.scheme == "euler_maruyama":
        q = result.q_factors
        # A draw is useful when its diffusion column is nonzero at its step.
        tracer.noise_shape = (q.shape[0] * q.shape[2],
                              int(np.count_nonzero(np.any(q != 0.0, axis=1))))


def _count_normals(tracer, args, kwargs, result):
    tracer.add("integrate.noise.streams", 1)
    tracer.add("integrate.noise.draws", result.size)
    size, useful = tracer.noise_shape
    tracer.add("integrate.noise.useful_draws", useful if result.size == size else 0)


def _count_affine(tracer, args, kwargs, result):
    tracer.add("flows.affine_tables.nodes", np.size(_arg(args, kwargs, 3, "lambdas")))


def _count_propagate(tracer, args, kwargs, result):
    if tracer.is_open("sequential.run"):
        tracer.add("sequential.flow_updates", 1)


def _count_moments(tracer, args, kwargs, result):
    tracer.add("moments.solve.ode_steps", result.means.shape[0] - 1)


def _count_ftss(tracer, args, kwargs, result):
    tracer.add("stability.ftss.trajectories", result.n_mc)


# (module, attribute, span group, counter).  ``Class.method`` attributes
# are patched on the class; plain functions under every name they have
# in any flowfilt module.
BOUNDARIES = (
    ("kernels", "em_propagate", "kernels.em", _count_em),
    ("kernels", "rk4_propagate", "kernels.rk4", _count_rk4),
    ("integrate", "NoiseStream.normals", "integrate.noise", _count_normals),
    ("integrate", "build_tables", "integrate.tables", _count_tables),
    ("integrate", "propagate_ensemble", "integrate.propagate", _count_propagate),
    ("integrate", "propagate_particle", "integrate.propagate", None),
    ("flows", "affine_tables", "flows.affine_tables", _count_affine),
    ("flows", "diffusion_factor", "flows.diffusion_factor", None),
    ("flows", "preset", "flows.preset", None),
    ("model", "GaussianPrior.__post_init__", "model.prior_init", None),
    ("estimation", "sample_prior", "estimation.sample_prior", None),
    ("estimation", "estimator_report", "estimation.estimates", None),
    ("estimation", "mean_estimate", "estimation.estimates", None),
    ("estimation", "covariance_estimate", "estimation.estimates", None),
    ("moments", "solve_moment_odes", "moments.solve", _count_moments),
    ("moments", "closed_form_posterior", "moments.oracle", None),
    ("stability", "build_stability_report", "stability.report", None),
    ("stability", "check_ftss", "stability.ftss", _count_ftss),
    ("sequential", "run_sequential", "sequential.run", None),
)


class Tracer:
    """Accumulates span times and counts while installed.

    Use as a context manager; leaving it restores every patched name.
    """

    def __init__(self):
        self.totals = defaultdict(float)
        self.noise_shape = (0, 0)
        self._children = []  # enclosed-span time of each open span
        self._open = defaultdict(int)
        self._restore = []

    def add(self, key: str, value) -> None:
        self.totals[key] += value

    def is_open(self, group: str) -> bool:
        return self._open[group] > 0

    def _wrap(self, fn, group, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = tracer._open[group] == 0
            tracer._open[group] += 1
            tracer._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = tracer._children.pop()
                tracer._open[group] -= 1
                if tracer._children:
                    tracer._children[-1] += elapsed
                tracer.totals[group + ".self_s"] += elapsed - children
                tracer.totals[group + ".calls"] += 1
                if outermost:
                    tracer.totals[group + ".s"] += elapsed
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "flowfilt" or name.startswith("flowfilt.")]
        for module, attr, group, count in BOUNDARIES:
            owner = sys.modules[f"flowfilt.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(original, group, count))
                self._restore.append((cls, meth, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, group, count)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)
                        self._restore.append((mod, name, original))
        return self

    def __exit__(self, *exc):
        for target, name, original in reversed(self._restore):
            setattr(target, name, original)
        self._restore.clear()
        return False


def _per_op(key):
    return lambda t, ops: t[key] / ops


def _ratio(num, den, scale=1.0):
    return lambda t, ops: scale * t[num] / t[den] if t[den] else 0.0


# (metric, unit, value from totals and op count).  Times and counts are
# per traced op; flows.preset.s is the in-process set-up's preset time.
PER_LAYER = (
    ("integrate.noise.s", "s/op", _per_op("integrate.noise.s")),
    ("integrate.noise.streams", "count/op", _per_op("integrate.noise.streams")),
    ("integrate.noise.draws", "count/op", _per_op("integrate.noise.draws")),
    ("integrate.noise.useful_ratio", "ratio",
     _ratio("integrate.noise.useful_draws", "integrate.noise.draws")),
    ("kernels.em.s", "s/op", _per_op("kernels.em.s")),
    ("kernels.em.particle_steps", "count/op", _per_op("kernels.em.particle_steps")),
    ("kernels.em.ns_per_particle_step", "ns",
     _ratio("kernels.em.s", "kernels.em.particle_steps", 1e9)),
    ("kernels.em.flops_computed", "flop/op", _per_op("kernels.em.flops_computed")),
    ("kernels.em.bytes_computed", "B/op", _per_op("kernels.em.bytes_computed")),
    ("kernels.rk4.s", "s/op", _per_op("kernels.rk4.s")),
    ("kernels.rk4.particle_steps", "count/op", _per_op("kernels.rk4.particle_steps")),
    ("kernels.rk4.ns_per_particle_step", "ns",
     _ratio("kernels.rk4.s", "kernels.rk4.particle_steps", 1e9)),
    ("kernels.rk4.flops_computed", "flop/op", _per_op("kernels.rk4.flops_computed")),
    ("kernels.rk4.bytes_computed", "B/op", _per_op("kernels.rk4.bytes_computed")),
    ("kernels.rk4.recorded_bytes", "B/op", _per_op("kernels.rk4.recorded_bytes")),
    ("integrate.propagate.calls", "count/op", _per_op("integrate.propagate.calls")),
    ("integrate.propagate.self_s", "s/op", _per_op("integrate.propagate.self_s")),
    ("integrate.tables.s", "s/op", _per_op("integrate.tables.s")),
    ("integrate.tables.nodes", "count/op", _per_op("integrate.tables.nodes")),
    ("flows.affine_tables.s", "s/op", _per_op("flows.affine_tables.s")),
    ("flows.affine_tables.nodes", "count/op", _per_op("flows.affine_tables.nodes")),
    ("flows.diffusion_factor.s", "s/op", _per_op("flows.diffusion_factor.s")),
    ("flows.diffusion_factor.calls", "count/op",
     _per_op("flows.diffusion_factor.calls")),
    ("flows.preset.s", "s", lambda t, ops: t["setup.flows.preset.s"]),
    ("model.prior_init.s", "s/op", _per_op("model.prior_init.s")),
    ("model.prior_init.calls", "count/op", _per_op("model.prior_init.calls")),
    ("sequential.run.self_s", "s/op", _per_op("sequential.run.self_s")),
    ("sequential.flow_updates", "count/op", _per_op("sequential.flow_updates")),
    ("moments.solve.s", "s/op", _per_op("moments.solve.s")),
    ("moments.solve.ode_steps", "count/op", _per_op("moments.solve.ode_steps")),
    ("moments.oracle.s", "s/op", _per_op("moments.oracle.s")),
    ("stability.report.self_s", "s/op", _per_op("stability.report.self_s")),
    ("stability.ftss.s", "s/op", _per_op("stability.ftss.s")),
    ("stability.ftss.trajectories", "count/op",
     _per_op("stability.ftss.trajectories")),
    ("estimation.sample_prior.s", "s/op", _per_op("estimation.sample_prior.s")),
    ("estimation.estimates.s", "s/op", _per_op("estimation.estimates.s")),
    ("trace.op_s", "s/op", _per_op("trace.op_s")),
    ("trace.self_share", "ratio", _ratio("trace.self_sum_s", "trace.op_s")),
    ("trace.overhead_s", "s/op", _per_op("trace.overhead_s")),
)

# Metrics that are counts from shapes; they must repeat exactly per seed.
COUNTERS = tuple(name for name, unit, _ in PER_LAYER
                 if unit.startswith(("count", "flop", "B/")) or name.endswith("useful_ratio"))


def layer_metrics(totals: dict, ops: int) -> dict:
    """Per-layer metrics of ``ops`` traced ops, with units."""
    totals = defaultdict(float, totals)
    totals["trace.self_sum_s"] = sum(v for k, v in totals.items()
                                     if k.endswith(".self_s") and not k.startswith("setup."))
    return {name: {"value": float(fn(totals, ops)), "unit": unit}
            for name, unit, fn in PER_LAYER}
