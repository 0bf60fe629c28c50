"""flowfilt benchmark: three closed-loop workloads gated on closed-form oracles.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload update_em --seed 1 --seconds 30 --trace 0

``--trace 1`` gives the per-layer metrics instead of the end-to-end ones.
``--workload all`` runs every workload, each in its own process, and
``--smoke`` runs every workload untraced and traced at tiny sizes and
checks the harness itself.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One thread everywhere, fixed before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMBA_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("update_em", "track", "oracle")
# Fresh processes timed per run for setup_s; the median is reported.
SETUP_PROBES = {"full": 7, "smoke": 1}
# A probe or workload process that runs longer than this is stuck.
CHILD_TIMEOUT_S = 170


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program():
    """Import flowfilt from this checkout's sources, nowhere else."""
    if not (SRC / "flowfilt" / "__init__.py").is_file():
        _fail(f"no flowfilt sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import flowfilt

    if Path(flowfilt.__file__).resolve().parent != (SRC / "flowfilt").resolve():
        _fail(f"imported flowfilt from {flowfilt.__file__}, not from {SRC}")
    import workloads
    from flowfilt import kernels

    return workloads, kernels


def _setup_probe(name: str, size: str, seed: int) -> None:
    """Time import, JIT warm-up, model and preset construction in this process."""
    start = time.perf_counter()
    workloads, kernels = _import_program()
    kernels.warmup()
    workloads.WORKLOADS[name](size).setup(seed)
    print(repr(time.perf_counter() - start))


def _child(args: list) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          cwd=ROOT)
    if proc.returncode != 0:
        _fail(f"child {' '.join(args)} exited {proc.returncode}: "
              f"{proc.stderr.strip()[-2000:]}")
    return proc


def _setup_seconds(name: str, size: str, seed: int) -> float:
    times = [float(_child(["--setup-probe", "--workload", name, "--size", size,
                           "--seed", str(seed)]).stdout.split()[-1])
             for _ in range(SETUP_PROBES[size])]
    return statistics.median(times)


def _environment(kernels) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"backend": kernels.active_backend(),
            "numba_importable": kernels.NUMBA_AVAILABLE,
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(),
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "python": sys.version.split()[0]}


def _gate(workload, i, result, perturb: bool) -> list:
    """Oracle violations of one op's result; an exception is one too."""
    if perturb:
        result = workload.perturb(result)
    try:
        return workload.check(i, result)
    except Exception:
        return [f"{workload.name} op {i}: check raised\n{traceback.format_exc()}"]


def _run_op(workload, i):
    start = time.perf_counter()
    try:
        result = workload.op(i)
        problems = []
    except Exception:
        result = None
        problems = [f"{workload.name} op {i} raised\n{traceback.format_exc()}"]
    return time.perf_counter() - start, result, problems


def _same(a: list, b: list) -> bool:
    import numpy as np

    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _backend_parity(workload, kernels) -> list:
    """With numba importable, op 0 must agree bitwise on both backends."""
    if not kernels.NUMBA_AVAILABLE:
        return []
    prints = {}
    for backend in ("numpy", "numba"):
        with kernels.use_backend(backend):
            prints[backend] = workload.fingerprint(workload.op(0))
    if not _same(prints["numpy"], prints["numba"]):
        return [f"{workload.name}: numba and numpy backends disagree on op 0"]
    return []


def _report(name, problems_by_op, attempted, metrics, lines) -> dict:
    failed = sum(1 for p in problems_by_op if p)
    for problems in problems_by_op:
        for problem in problems:
            print(problem, file=sys.stderr)
    for line in lines:
        print(f"{name} {line}")
    print(f"{name} error_rate {failed / attempted:.4f} ratio "
          f"({failed} failed / {attempted} attempted)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_untraced(workload, kernels, seconds: float, perturb: bool) -> tuple:
    times, gates = [], []
    i = 0
    while i == 0 or sum(times) < seconds:
        elapsed, result, problems = _run_op(workload, i)
        times.append(elapsed)
        gates.append(problems or _gate(workload, i, result, perturb))
        i += 1
    parity = _backend_parity(workload, kernels)
    if kernels.NUMBA_AVAILABLE:
        gates.append(parity)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    p50 = statistics.median(times)
    rate = len(times) / sum(times)
    metrics = {"op_p50_s": {"value": p50, "unit": "s"},
               "ops_per_s": {"value": rate, "unit": "1/s"},
               "peak_rss_mb": {"value": peak_mb, "unit": "MB"}}
    lines = [f"op_p50_s {p50:.4f} s (median of {len(times)} ops)",
             f"ops_per_s {rate:.4f} 1/s ({len(times)} ops in {sum(times):.2f} s; "
             f"{workload.op_size})",
             f"peak_rss_mb {peak_mb:.1f} MB"]
    return gates, len(gates), metrics, lines


def run_traced(workload, seconds: float, perturb: bool, setup_totals: dict) -> tuple:
    """Each op runs untraced, then traced on the same inputs.

    The traced result must match the untraced one bitwise, so the
    wrappers provably change nothing; the time difference is the tracing
    overhead.
    """
    import layertrace

    tracer = layertrace.Tracer()
    gates, spent = [], 0.0
    i = 0
    while i == 0 or spent < seconds:
        plain_s, plain, problems = _run_op(workload, i)
        with tracer:
            traced_s, traced, traced_problems = _run_op(workload, i)
        spent += plain_s + traced_s
        problems = problems + traced_problems
        if not problems:
            problems = _gate(workload, i, traced, perturb)
            if not _same(workload.fingerprint(plain), workload.fingerprint(traced)):
                problems.append(f"{workload.name} op {i}: traced result differs")
        gates.append(problems)
        tracer.add("trace.op_s", traced_s)
        tracer.add("trace.overhead_s", traced_s - plain_s)
        i += 1
    tracer.totals.update(setup_totals)
    metrics = layertrace.layer_metrics(tracer.totals, i)
    lines = [f"{key} {m['value']:.6g} {m['unit']}" for key, m in metrics.items()]
    lines.append(f"traced ops: {i} ({workload.op_size})")
    return gates, len(gates), metrics, lines


def run_workload(name: str, size: str, seed: int, seconds: float, trace: bool,
                 perturb: bool) -> dict:
    workloads, kernels = _import_program()
    print("env " + json.dumps(_environment(kernels), sort_keys=True))
    workload = workloads.WORKLOADS[name](size)
    if trace:
        import layertrace

        kernels.warmup()
        with layertrace.Tracer() as tracer:
            workload.setup(seed)
        setup_totals = {"setup.flows.preset.s": tracer.totals["flows.preset.s"]}
        gates, attempted, metrics, lines = run_traced(workload, seconds, perturb,
                                                      setup_totals)
    else:
        setup_s = _setup_seconds(name, size, seed)
        kernels.warmup()
        workload.setup(seed)
        gates, attempted, metrics, lines = run_untraced(workload, kernels, seconds,
                                                        perturb)
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
        lines.insert(0, f"setup_s {setup_s:.4f} s "
                        f"(median of {SETUP_PROBES[size]} fresh processes)")
    return _report(name, gates, attempted, metrics, lines)


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in its own process; metrics keyed workload.metric."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = _child(["--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace)])
        print(proc.stdout.rstrip().rsplit("\n", 1)[0])
        result = _last_json(proc)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    return total


def smoke(seed: int) -> int:
    """Tiny runs of every workload, untraced and traced, checking the harness.

    Checks: every metric BENCHMARK.json names is present with its unit;
    error_rate is 0 on correct results and rises, without a crash, on
    perturbed ones; the traced counters repeat exactly for a fixed seed;
    layer self times cover at least nine tenths of the traced op time.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import layertrace

    problems = []

    def run(name, trace, perturb=False):
        args = ["--workload", name, "--size", "smoke", "--seed", str(seed),
                "--seconds", "0", "--trace", str(trace)]
        return _last_json(_child(args + (["--perturb"] if perturb else [])))

    for name in WORKLOAD_NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(name, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics {got} != {want}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{name} trace={trace}: correct ops failed the gate")
            if trace:
                again = run(name, 1)
                for counter in layertrace.COUNTERS:
                    a = result["metrics"][counter]["value"]
                    b = again["metrics"][counter]["value"]
                    if a != b:
                        problems.append(f"{name}: {counter} {a} then {b}")
                share = result["metrics"]["trace.self_share"]["value"]
                if not 0.9 <= share <= 1.0:
                    problems.append(f"{name}: layer self times cover {share:.3f} "
                                    "of the traced op time")
        for trace in (0, 1):
            bad = run(name, trace, perturb=True)
            if not (bad["failed"] >= 1 and not bad["correct"]):
                problems.append(f"{name} trace={trace}: perturbed result passed")
    for problem in problems:
        print(f"smoke FAIL {problem}")
    print(f"smoke {'FAIL' if problems else 'PASS'}: {len(WORKLOAD_NAMES)} workloads, "
          "untraced, traced, repeated and perturbed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt every result before its oracle check")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 63-bit integer")
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        _setup_probe(args.workload, args.size, args.seed)
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.size, args.seed, args.seconds,
                              bool(args.trace), args.perturb)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
