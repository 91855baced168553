"""The three benchmark workloads.

Each workload function runs one iteration: it sets up its inputs from the
seed, runs the program, checks the outputs outside the timed part, and
returns an :class:`Iteration`.  ``--seed`` picks the inputs; the program
receives only the generated inputs.  A tracer, if given, is active only
around the timed part, so the checks' own calls into fedl are not traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from fedl import clustering, data, metrics, nn, rng, sim
from hooks import call_seconds, run_cli, step_seconds, step_stamps

BENCH_DIR = Path(__file__).resolve().parent
HIDDEN = (64, 64)


@dataclass
class Iteration:
    wall_s: float = 0.0  # the whole workload, inputs included
    setup_s: float = 0.0  # inputs made ready, before the first training call
    train_s: float = 0.0  # inside the training calls
    step_s: list[float] = field(default_factory=list)  # one per round or epoch
    rmse_kwh: float = math.nan
    traffic_bytes: int = 0
    # read at the end of the timed part, before any check has run
    peak_rss_mb: float = 0.0
    ops: dict[str, list[str]] = field(default_factory=dict)  # op -> failures
    broken: set[str] = field(default_factory=set)  # ops that raised or exited non-zero

    def fail(self, op: str, failures, broken: bool = False) -> None:
        self.ops.setdefault(op, []).extend(failures)
        if broken and failures:
            self.broken.add(op)

    @property
    def check_failures(self) -> dict[str, list[str]]:
        """Failed checks of the operations that ran to their end."""
        return {op: f for op, f in self.ops.items() if f and op not in self.broken}


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    """Peak resident memory so far of this process, or of its largest
    finished child.  It never falls, so once a check has run it includes
    the check's own arrays."""
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def _attempt(it: Iteration, op: str, fn):
    """Run one operation; an exception fails it and yields None."""
    try:
        return fn()
    except Exception as e:  # noqa: BLE001 - any error is the op's failure
        it.fail(op, [f"raised {type(e).__name__}: {e}"], broken=True)
        return None


# ------------------------------------------------------------ federated_50k


@dataclass(frozen=True)
class FederatedSize:
    stations: int = 58
    records: int = 50_000
    workers: int = 4
    # Below the 34-61 rounds the stopping rule takes on seeds 1-15, so the
    # work per run does not depend on the seed; the rule is still checked.
    epochs: int = 30
    tolerance: float = 1e-2
    patience: int = 3
    ratio: float = 0.8


def federated(seed: int, size: FederatedSize = FederatedSize(), tracer=None) -> Iteration:
    it = Iteration(ops={"train": [], "score": []})
    calls: list = []
    scored = None
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        records, _, _ = data.synth_generate(size.stations, size.records, seed=seed)
        train, test = data.split_train_test(records, size.ratio, seed)
        vocab = sorted({r.station_id for r in records})
        schema = data.build_schema(train, True, station_vocabulary=vocab)
        X, y = data.encode_features(train, schema)
        X_test, _ = data.encode_features(test, schema)
        parts = data.partition_workers(train, size.workers, data.PartitionStrategy.BY_STATION)
        config = sim.TrainConfig(
            epochs=size.epochs, tolerance=size.tolerance, patience=size.patience,
            hidden_layers=HIDDEN, workers=size.workers, mode=sim.TrainMode.FEDERATED,
            seed=seed,
        )
        actual = np.array([r.energy_kwh for r in test])
        trained = time.perf_counter()
        it.setup_s = trained - start
        with step_stamps(sim, ("run_federated",), calls):
            result = _attempt(it, "train", lambda: sim.run_federated(X, y, parts, config))
        it.train_s = time.perf_counter() - trained
        if result is not None:
            model, reports, traffic = result

            def score():
                predictions = nn.predict(model, X_test, schema)
                return predictions, metrics.rmse(actual, predictions)

            scored = _attempt(it, "score", score)
        it.wall_s = time.perf_counter() - start
    it.peak_rss_mb = _peak_rss_mb()
    if result is None:
        it.fail("score", ["no model to score"], broken=True)
        return it
    it.step_s = step_seconds(calls)
    it.traffic_bytes = traffic.total_bytes()

    width = len(vocab) + checks.ONE_HOT_CALENDAR + 1
    params = checks.parameter_count([width, *HIDDEN, 1])
    it.fail("train", checks.check_federated_traffic(
        it.traffic_bytes, len(reports), size.workers, params))
    it.fail("train", checks.check_stopping_rule(
        [r.worker_losses for r in reports], size.tolerance, size.patience, size.epochs))
    it.fail("train", _round0_gradient_sum(X, y, parts, config))
    if scored is not None:
        predictions, it.rmse_kwh = scored
        own = checks.rmse(actual, predictions)
        mean_rmse = checks.rmse(actual, np.full(len(actual), np.mean([r.energy_kwh for r in train])))
        it.fail("score", checks.close("program RMSE vs recomputed", it.rmse_kwh, own, 1e-12))
        it.fail("score", checks.check_rmse_margin(own, mean_rmse))
    return it


def _round0_gradient_sum(X, y, parts, config) -> list[str]:
    """Round 0's worker gradients, at the initial model and round-0 dropout
    seed, against the full-batch gradient on the same rows."""
    network = nn.init_network(sim.network_specs(X.shape[1], config), config.seed)
    seed = rng.fold_seed(config.seed, 0)

    def gradient(rows):
        _, tape = nn.forward(network, X[rows], nn.Mode.TRAIN, seed, sample_ids=rows)
        g = nn.backward(network, tape, y[rows])
        return [*g.weights, *g.biases]

    workers = [gradient(np.asarray(p.record_indices)) for p in parts]
    return checks.check_gradient_sum(workers, gradient(np.arange(len(y))))


# ------------------------------------------------------------ clustered_400st


@dataclass(frozen=True)
class ClusteredSize:
    stations: int = 400
    records: int = 20_000
    clusters: int = 8
    workers: int = 4
    epochs: int = 25
    ratio: float = 0.8
    # Station coordinates and the K-means start come from this fixed seed;
    # transactions come from --seed.  K-means takes 5 to 25 iterations
    # depending on the layout (seeds 1-12), which would make the run time
    # depend on the seed; layout 3 takes 5.
    layout_seed: int = 3


def clustered(seed: int, size: ClusteredSize = ClusteredSize(), tracer=None) -> Iteration:
    ops = ["cluster", *(f"train_{k}" for k in range(size.clusters)), "pool"]
    it = Iteration(ops={op: [] for op in ops})
    calls: list = []
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        _, stations, _ = data.synth_generate(size.stations, 1, seed=size.layout_seed)
        records, _, _ = data.synth_generate(size.stations, size.records, seed=seed)
        train, test = data.split_train_test(records, size.ratio, seed)
        cluster_config = clustering.ClusterConfig(k=size.clusters, seed=size.layout_seed)
        config = sim.TrainConfig(
            epochs=size.epochs, tolerance=0.0, hidden_layers=HIDDEN, workers=size.workers,
            mode=sim.TrainMode.FEDERATED, seed=seed,
        )
        it.setup_s = time.perf_counter() - start
        with step_stamps(sim, ("run_federated",), calls):
            result = _attempt(it, "cluster", lambda: sim.run_clustered(
                train, test, stations, cluster_config, sim.TrainMode.FEDERATED, config))
        it.wall_s = time.perf_counter() - start
    it.peak_rss_mb = _peak_rss_mb()
    it.train_s = call_seconds(calls)
    it.step_s = step_seconds(calls)
    if result is None:
        for op in ops[1:]:
            it.fail(op, ["the clustered run raised"], broken=True)
        return it

    size_k = size.stations // size.clusters
    a = result.assignment
    points = np.array([[s.latitude, s.longitude] for s in stations])
    it.fail("cluster", checks.check_cluster_sizes(a.tau, size_k))
    it.fail("cluster", [] if a.converged else ["K-means did not converge"])
    it.fail("cluster", checks.check_assignment_optimal(points, a.centroids, a.tau, size_k))
    it.fail("cluster", checks.close("reported objective", a.objective,
                                    checks.assignment_cost(points, a.centroids, a.tau), 1e-12))

    label = {s.station_id: int(k) for s, k in zip(stations, np.argmax(a.tau, axis=1))}
    for k, c in enumerate(result.clusters):
        op = f"train_{k}"
        if c.skipped or c.traffic is None:
            it.fail(op, ["cluster was skipped"])
            continue
        seen = {r.station_id for r in (*train, *test) if label[r.station_id] == k}
        params = checks.parameter_count([len(seen) + checks.ONE_HOT_CALENDAR + 1, *HIDDEN, 1])
        it.fail(op, checks.check_federated_traffic(
            c.traffic.total_bytes(), size.epochs, size.workers, params))
        it.fail(op, checks.mismatch("rounds", len(c.reports), size.epochs))
        if c.rmse_kwh is None or not math.isfinite(c.rmse_kwh):
            it.fail(op, [f"cluster RMSE {c.rmse_kwh!r}"])
    it.traffic_bytes = result.combined_traffic().total_bytes()
    it.rmse_kwh = result.pooled_rmse_kwh if result.pooled_rmse_kwh is not None else math.nan
    it.fail("pool", checks.mismatch("uncovered test records", result.uncovered_test, 0))
    it.fail("pool", checks.check_pooled_rmse(
        it.rmse_kwh, [math.nan if c.rmse_kwh is None else c.rmse_kwh for c in result.clusters],
        [c.n_test for c in result.clusters]))
    return it


# ------------------------------------------------------------ cli_pipeline_10k


@dataclass(frozen=True)
class CliSize:
    stations: int = 58
    # 10k rather than 20k: an iteration then takes ~7 s, so a 35 s run
    # holds ~5 of them; at 20k it held one or two and the medians of the
    # timings spread by 8-15% between runs.
    records: int = 10_000
    workers: int = 4
    epochs: int = 20
    knn_k: int = 5
    ratio: float = 0.8


def cli_commands(seed: int, size: CliSize, work: Path):
    """(op, fedl argv) for synth -> ingest -> train central and federated
    -> evaluate the central run -> report central vs federated."""
    csv_path = str(work / "corpus" / "transactions.csv")
    train = ["train", "--transactions", csv_path, "--epochs", str(size.epochs),
             "--tolerance", "0", "--ratio", str(size.ratio), "--seed", str(seed)]
    return [
        ("synth", ["synth", "--stations", str(size.stations), "--records",
                   str(size.records), "--seed", str(seed), "--out", str(work / "corpus")]),
        ("ingest", ["ingest", "--transactions", csv_path, "--out", str(work / "ingest")]),
        ("train_central", [*train, "--mode", "central", "--out", str(work / "central")]),
        ("train_federated", [*train, "--mode", "federated", "--workers",
                             str(size.workers), "--out", str(work / "federated")]),
        ("evaluate", ["evaluate", "--transactions", csv_path, "--run-dir",
                      str(work / "central"), "--knn-k", str(size.knn_k),
                      "--out", str(work / "eval")]),
        ("report", ["report", f"central={work / 'central' / 'traffic.csv'}",
                    f"federated={work / 'federated' / 'traffic.csv'}",
                    "--out", str(work / "comparison")]),
    ]


def subprocess_runner(env: dict):
    """Run a fedl command in its own interpreter, as a user does."""

    def run(argv, stamps_path: Path):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "fedl_cmd.py"), str(stamps_path), *argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
        return done.returncode

    return run


def inprocess_runner():
    """Run a fedl command through ``fedl.cli.main`` in this process."""

    def run(argv, stamps_path: Path):
        with contextlib.redirect_stdout(io.StringIO()):
            return run_cli(argv, stamps_path)

    return run


def cli_pipeline(seed: int, work: Path, run_command, size: CliSize = CliSize(),
                 tracer=None) -> Iteration:
    """One pass of the CLI pipeline; with a tracer, each command is also a
    ``cli.<command>`` span."""
    commands = cli_commands(seed, size, work)
    it = Iteration(ops={op: [] for op, _ in commands})
    seconds, calls = {}, []
    with tracer or contextlib.nullcontext():
        for op, argv in commands:
            stamps_path = work / f"{op}.stamps.json"
            span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
            start = time.perf_counter()
            with span:
                code = run_command(argv, stamps_path)
            seconds[op] = time.perf_counter() - start
            if code != 0:
                it.fail(op, [f"exit code {code}"], broken=True)
            elif op == "train_central":
                # Central epochs only: the library workloads time federated
                # rounds but never the central loop, and the median of a mix
                # of two step kinds would jump between them.
                calls = json.loads(stamps_path.read_text(encoding="utf-8"))
    it.wall_s = sum(seconds.values())
    # the checks run in this process, the commands in child processes
    it.peak_rss_mb = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    it.setup_s = seconds["synth"] + seconds["ingest"]
    it.train_s = seconds["train_central"] + seconds["train_federated"]
    it.step_s = step_seconds(calls)
    _check_cli_outputs(it, seed, size, work)
    return it


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _traffic_total(path: Path) -> int:
    with open(path, encoding="utf-8") as f:
        return sum(int(line.rsplit(",", 1)[1]) for line in list(f)[1:] if line.strip())


def _check_cli_outputs(it: Iteration, seed: int, size: CliSize, work: Path) -> None:
    if it.broken:
        for op in it.ops:
            it.fail(op, ["not checked: a command failed"], broken=True)
        return
    corpus = checks.read_transactions_csv(work / "corpus" / "transactions.csv")
    n = len(corpus["energy"])
    it.fail("synth", checks.mismatch("transactions written", n, size.records))
    it.fail("ingest", checks.check_ingest(_read_json(work / "ingest" / "ingest_summary.json"), n))

    train_idx, test_idx = checks.split_indices(n, size.ratio, seed)
    enc = checks.Encoding(corpus, train_idx)
    params = checks.parameter_count([enc.width, *HIDDEN, 1])
    central = _traffic_total(work / "central" / "traffic.csv")
    federated = _traffic_total(work / "federated" / "traffic.csv")
    it.fail("train_central", checks.mismatch(
        "central traffic", central, checks.upload_bytes(len(train_idx), enc.width)))
    it.fail("train_federated", checks.mismatch(
        "federated traffic", federated,
        checks.federated_bytes(size.epochs, size.workers, params)))
    it.fail("report", checks.check_comparison(
        _read_json(work / "comparison" / "comparison.json"), central, federated))
    it.traffic_bytes = central + federated

    report = _read_json(work / "eval" / "report.json")
    actual = corpus["energy"][test_idx]
    layers = checks.read_model(work / "central" / "model.fedl")
    predictions = checks.model_predict(layers, enc.features(corpus, test_idx), enc)
    mean_rmse = checks.rmse(actual, np.full(len(actual), enc.label_mean))
    it.fail("evaluate", checks.check_report(report, mean_rmse, checks.rmse(actual, predictions)))
    _, window = checks.knn_rmse_window(enc, corpus, train_idx, test_idx, size.knn_k)
    it.fail("evaluate", checks.check_knn(report["rmse_kwh"].get("knn", math.nan), window))
    it.rmse_kwh = report["rmse_kwh"].get("central", math.nan)
