"""The fedl benchmark.

    python3 bench/run.py --workload federated_50k --seed 1 --seconds 35 --trace 0

Runs whole iterations of one workload, each set up afresh from ``--seed``,
until the next one would end after ``--seconds`` (always at least one),
and checks every iteration's outputs.  Prints the run's environment, then
as its last line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``; with
``--trace 1`` it runs one untraced warm-up iteration, then untraced and
traced iterations in turn, and reports the per-layer metrics,
``trace.overhead_s`` being the traced minus the untraced median ``wall_s``.  Exits 1 if an operation failed or a check did.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# fixed for this process and every process it starts; see bench/README.md
BLAS_THREADS = 1
CLI_WORKLOAD = "cli_pipeline_10k"
WORKLOADS = ("federated_50k", CLI_WORKLOAD, "clustered_400st")

# name -> unit; "better" is "lower" for every one of them
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "train_s": "s",
    "ms_per_round": "ms",
    "rmse_kwh": "kWh",
    "traffic_bytes": "B",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(args, its) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "iterations": len(its),
        "iteration_wall_s": [round(it.wall_s, 3) for it in its],
    }


def child_env() -> dict:
    """The environment of every process the benchmark starts: this one's,
    BLAS thread count included, with the checkout's sources importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def interpreter_start() -> float:
    """Seconds to start Python and import fedl.cli in a fresh process."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import fedl.cli"], env=child_env(), check=True)
    return time.perf_counter() - start


def make_runner(workload: str, seed: int, work: Path, trace: bool):
    """iteration(tracer) -> Iteration, for one workload and seed.  A tracer,
    if given, is active only while the program runs, not during checks."""
    import workloads

    if workload == "federated_50k":
        return lambda tracer: workloads.federated(seed, tracer=tracer)
    if workload == "clustered_400st":
        return lambda tracer: workloads.clustered(seed, tracer=tracer)

    def cli(tracer):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        # The traced run compares in-process traced and untraced pipelines;
        # the end-to-end run starts one interpreter per command, as a user does.
        if trace:
            runner = workloads.inprocess_runner()
        else:
            runner = workloads.subprocess_runner(child_env())
        return workloads.cli_pipeline(seed, work, runner, tracer=tracer)

    return cli


def measure(args, work: Path):
    from tracing import Tracer

    iteration = make_runner(args.workload, args.seed, work, bool(args.trace))
    deadline = time.perf_counter() + args.seconds
    untraced, traced, layers = [], [], []
    if args.trace:
        # The first iteration in a process runs up to ~25% slower (first
        # page faults of the large arrays); it stays out of the overhead.
        untraced.append(iteration(None))
    while True:
        began = time.perf_counter()
        untraced.append(iteration(None))
        if args.trace:
            tracer = Tracer()
            traced.append(iteration(tracer))
            values = tracer.metrics()
            cli = args.workload == CLI_WORKLOAD
            values["cli.start_s"] = interpreter_start() if cli else 0.0
            layers.append(values)
        if time.perf_counter() + (time.perf_counter() - began) > deadline:
            return untraced, traced, layers


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def end_to_end(its) -> dict:
    first = its[0]
    values = {
        "wall_s": _median(it.wall_s for it in its),
        "setup_s": _median(it.setup_s for it in its),
        "train_s": _median(it.train_s for it in its),
        # a failed training leaves no rounds to time
        "ms_per_round": 1000 * _median(s for it in its for s in it.step_s),
        "rmse_kwh": first.rmse_kwh,
        "traffic_bytes": first.traffic_bytes,
        # Later iterations' readings include the earlier iterations' checks.
        "peak_rss_mb": first.peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(untraced, traced, layers) -> dict:
    from tracing import PER_LAYER

    values = {name: statistics.median(v[name] for v in layers) for name in layers[0]}
    values["trace.overhead_s"] = statistics.median(
        it.wall_s for it in traced
    ) - statistics.median(it.wall_s for it in untraced[1:])
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def rerun_failures(its) -> list[str]:
    """Reruns of one seed must reproduce the RMSE and the byte ledger exactly."""
    first = its[0]
    return [
        f"iteration {i}: rmse_kwh {it.rmse_kwh!r} / traffic_bytes {it.traffic_bytes} "
        f"differ from iteration 0's {first.rmse_kwh!r} / {first.traffic_bytes}"
        for i, it in enumerate(its[1:], start=1)
        if (it.rmse_kwh, it.traffic_bytes) != (first.rmse_kwh, first.traffic_bytes)
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # BLAS reads its thread count when numpy is first imported, so nothing
    # that imports numpy is imported above this line.
    src = ROOT / "src"
    if not (src / "fedl" / "__init__.py").is_file():
        sys.exit(f"bench: no fedl sources in {src}; run from a fedl checkout")
    sys.path.insert(0, str(src))

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        untraced, traced, layers = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    its = untraced + traced
    attempted = sum(len(it.ops) for it in its)
    failed = sum(1 for it in its for f in it.ops.values() if f)
    wrong = [f"{op}: {msg}" for it in its for op, fs in it.check_failures.items() for msg in fs]
    wrong += rerun_failures(its)
    for it in its:
        for op in sorted(it.broken):
            print(f"failed {op}: {'; '.join(it.ops[op])}", file=sys.stderr)
    for msg in wrong:
        print(f"check failed {msg}", file=sys.stderr)

    metrics = per_layer(untraced, traced, layers) if args.trace else end_to_end(untraced)
    print(json.dumps({"env": environment(args, untraced)}))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 and not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
