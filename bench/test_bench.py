"""Tests of the benchmark itself: every output check can fail, and every
workload runs to its end at a reduced size."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import checks
import run
import tracing
import workloads
from fedl import clustering, data, sim

ROOT = Path(__file__).resolve().parent.parent

SMALL_FEDERATED = workloads.FederatedSize(stations=8, records=2000, epochs=20)
SMALL_CLUSTERED = workloads.ClusteredSize(
    stations=24, records=2400, clusters=3, workers=2, epochs=3, layout_seed=1
)
SMALL_CLI = workloads.CliSize(stations=6, records=600, epochs=3)


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER


# ------------------------------------------------------------ checks reject


def test_swapping_two_stations_breaks_optimality():
    _, stations, _ = data.synth_generate(24, 1, seed=1)
    config = clustering.ClusterConfig(k=3, seed=1)
    a = clustering.constrained_kmeans(stations, config)
    points = np.array([[s.latitude, s.longitude] for s in stations])
    assert checks.check_cluster_sizes(a.tau, 8) == []
    assert checks.check_assignment_optimal(points, a.centroids, a.tau, 8) == []

    labels = a.labels
    i = int(np.flatnonzero(labels == 0)[0])
    j = int(np.flatnonzero(labels == 1)[0])
    swapped = a.tau.copy()
    swapped[[i, j]] = swapped[[j, i]]
    assert checks.check_cluster_sizes(swapped, 8) == []  # sizes alone cannot see it
    assert checks.check_assignment_optimal(points, a.centroids, swapped, 8)

    moved = a.tau.copy()
    moved[i] = moved[j]
    assert checks.check_cluster_sizes(moved, 8)


def test_traffic_off_by_one_round_is_rejected():
    records, _, _ = data.synth_generate(6, 300, seed=2)
    schema = data.build_schema(records, True)
    X, y = data.encode_features(records, schema)
    parts = data.partition_workers(records, 3, data.PartitionStrategy.BY_STATION)
    config = sim.TrainConfig(epochs=4, tolerance=0.0, hidden_layers=(8, 8), workers=3)
    _, reports, traffic = sim.run_federated(X, y, parts, config)
    params = checks.parameter_count([X.shape[1], 8, 8, 1])
    total = traffic.total_bytes()
    one_round = checks.federated_bytes(1, 3, params)
    assert checks.check_federated_traffic(total, len(reports), 3, params) == []
    assert checks.check_federated_traffic(total - one_round, len(reports), 3, params)
    assert checks.check_federated_traffic(total + one_round, len(reports), 3, params)
    assert checks.check_comparison(
        {"total_bytes": {"central": 10, "federated": total + one_round}}, 10, total
    )


def test_rmse_perturbed_by_one_percent_is_rejected():
    report = {"rmse_kwh": {"mean": 3.5, "central": 1.4}}
    assert checks.check_report(report, 3.5, 1.4) == []
    assert checks.check_report(report, 3.5 * 1.01, 1.4)
    assert checks.check_report(report, 3.5, 1.4 * 1.01)

    rmse_k, n_k = [1.2, 1.6, 1.4], [30, 50, 20]
    pooled = math.sqrt(sum(r * r * n for r, n in zip(rmse_k, n_k)) / sum(n_k))
    assert checks.check_pooled_rmse(pooled, rmse_k, n_k) == []
    assert checks.check_pooled_rmse(pooled * 1.01, rmse_k, n_k)

    assert checks.close("rmse", 1.4 * 1.01, 1.4, 1e-12)
    assert checks.check_rmse_margin(0.7 * 3.5 * 1.01, 3.5)
    assert checks.check_rmse_margin(math.nan, 3.5)


def test_knn_rmse_outside_the_tie_window_is_rejected():
    assert checks.check_knn(2.3, (2.2, 2.4)) == []
    assert checks.check_knn(2.4 * 1.01, (2.2, 2.4))
    assert checks.check_knn(2.2 / 1.01, (2.2, 2.4))


def test_knn_window_holds_a_brute_force_knn_in_floating_point():
    rng = np.random.default_rng(4)
    n = 300
    corpus = {
        "station": np.array([f"S{i}" for i in rng.integers(0, 5, n)]),
        "txn": rng.integers(1, 40, n),
        "weekday": rng.integers(1, 8, n),
        "hour": rng.integers(0, 24, n),
        "energy": rng.uniform(0, 20, n),
    }
    train, test = checks.split_indices(n, 0.8, 4)
    enc = checks.Encoding(corpus, train)
    Xtr, Xte = enc.features(corpus, train), enc.features(corpus, test)
    d2 = ((Xte[:, None, :] - Xtr[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argsort(d2, axis=1, kind="stable")[:, :5]
    prediction = corpus["energy"][train][nearest].mean(axis=1)
    knn = checks.rmse(corpus["energy"][test], prediction)
    low, window = checks.knn_rmse_window(enc, corpus, train, test, 5, chunk=7)
    assert window[0] <= low <= window[1]
    assert checks.check_knn(knn, window) == []


def test_stopping_rule_check_rejects_a_wrong_stop():
    settled = [(10.0, 10.0), (9.0, 9.0), (8.99, 8.99), (8.98, 8.98), (8.97, 8.97)]
    assert checks.check_stopping_rule(settled[:5], 1e-2, 3, 10) == []
    assert checks.check_stopping_rule(settled[:4], 1e-2, 3, 10)  # stopped too early
    late = settled + [(8.96, 8.96)]
    assert checks.check_stopping_rule(late, 1e-2, 3, 10)  # should have stopped
    assert checks.check_stopping_rule(settled[:4], 1e-2, 3, 4) == []  # budget ran out


def test_gradient_sum_check_rejects_a_wrong_gradient():
    whole = [np.full((3, 2), 2.0), np.full(3, 1.0)]
    parts = [[np.full((3, 2), 1.0), np.full(3, 0.5)]] * 2
    assert checks.check_gradient_sum(parts, whole) == []
    bad = [parts[0], [np.full((3, 2), 1.0), np.full(3, 0.5 + 1e-9)]]
    assert checks.check_gradient_sum(bad, whole)


# ------------------------------------------------------------ smoke runs


def _no_failures(it):
    assert {op: f for op, f in it.ops.items() if f} == {}
    assert it.wall_s > 0 and it.step_s and math.isfinite(it.rmse_kwh)


def test_federated_smoke():
    it = workloads.federated(3, SMALL_FEDERATED)
    _no_failures(it)
    assert len(it.ops) == 2
    assert len(it.step_s) <= SMALL_FEDERATED.epochs


def test_clustered_smoke():
    it = workloads.clustered(3, SMALL_CLUSTERED)
    _no_failures(it)
    assert len(it.ops) == SMALL_CLUSTERED.clusters + 2
    assert len(it.step_s) == SMALL_CLUSTERED.clusters * SMALL_CLUSTERED.epochs


def test_cli_smoke_in_subprocesses(tmp_path):
    runner = workloads.subprocess_runner(run.child_env())
    it = workloads.cli_pipeline(5, tmp_path, runner, SMALL_CLI)
    _no_failures(it)
    assert len(it.step_s) == SMALL_CLI.epochs


def test_traced_cli_counts_repeat_exactly(tmp_path):
    counts = []
    for attempt in range(2):
        work = tmp_path / str(attempt)
        work.mkdir()
        tracer = tracing.Tracer()
        it = workloads.cli_pipeline(5, work, workloads.inprocess_runner(), SMALL_CLI, tracer)
        _no_failures(it)
        values = tracer.metrics()
        assert set(values) | {"cli.start_s", "trace.overhead_s"} == set(tracing.PER_LAYER)
        counts.append({k: v for k, v in values.items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["metrics.knn_queries"] > 0 and counts[0]["sim.rounds"] == SMALL_CLI.epochs
    assert counts[0]["clustering.iterations"] == 0
