"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints exactly one
[PASS]/[FAIL] line (run with -s to see them alongside the pytest dots).
The numeric tolerances and time budgets stated inline are the contract;
none of them are tuned to the implementation.
"""

import contextlib
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import params_fingerprint
from fedl.clustering import (
    ClusterConfig,
    assign_clusters,
    constrained_kmeans,
    update_centroids,
)
from fedl.data import (
    PartitionStrategy,
    build_schema,
    encode_features,
    partition_workers,
    split_train_test,
    synth_generate,
)
from fedl.errors import StalenessError
from fedl.metrics import mean_baseline, rmse
from fedl.model_io import network_to_bytes
from fedl.nn import (
    Activation,
    LayerSpec,
    Mode,
    backward,
    forward,
    init_adam,
    init_network,
    predict,
    adam_step,
)
from fedl.rng import fold_seed
from fedl.sim import (
    RoundReport,
    TrainConfig,
    TrainMode,
    aggregate_gradients,
    dataset_bytes,
    local_epoch,
    message_bytes,
    run_centralized,
    run_clustered,
    run_federated,
)
from helpers import brute_force_min_cost, exact_assignment_cost, finite_diff_gradient, max_relative_error


@contextlib.contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except pytest.skip.Exception:
        print(f"[SKIP] criterion {number}: {label}")
        raise
    except BaseException:
        print(f"[FAIL] criterion {number}: {label} ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"[PASS] criterion {number}: {label} ({time.perf_counter() - start:.1f}s)")


def test_criterion_1_analytic_gradients_match_finite_differences():
    with criterion(1, "backprop matches central finite differences (rel err < 1e-4)"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        for trial in range(25):
            n_in = int(rng.integers(2, 7))
            n_hidden = int(rng.integers(2, 9))
            drop = float(rng.choice([0.0, 0.15, 0.3]))
            specs = [
                LayerSpec(n_in, n_hidden, Activation.TANH, dropout=drop),
                LayerSpec(n_hidden, 1, Activation.IDENTITY),
            ]
            net = init_network(specs, seed=trial)
            assert net.parameter_count <= 200
            n_samples = int(rng.integers(2, 17))
            X = rng.normal(size=(n_samples, n_in))
            y = rng.normal(size=n_samples)
            seed = 1000 + trial
            _, tape = forward(net, X, mode=Mode.TRAIN, seed=seed)
            grad = backward(net, tape, y)
            num_w, num_b = finite_diff_gradient(net, X, y, seed=seed, mode=Mode.TRAIN)
            err = max_relative_error(
                list(grad.weights) + list(grad.biases), num_w + num_b
            )
            assert err < 1e-4, f"trial {trial}: relative error {err}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s (budget 10s)"


def test_criterion_2_single_worker_federation_is_bitwise_centralized():
    with criterion(2, "J=1 federated trajectory is bit-identical to centralized (100 epochs)"):
        start = time.perf_counter()
        records, _, _ = synth_generate(5, 500, seed=2)
        schema = build_schema(records, True)
        X, y = encode_features(records, schema)
        cfg = TrainConfig(
            epochs=100, tolerance=0.0, hidden_layers=(16, 8), dropout=0.15, seed=12
        )
        central_trace, federated_trace = [], []
        net_c, reports_c, _ = run_centralized(
            X, y, cfg, on_epoch=lambda e, n: central_trace.append(params_fingerprint(n))
        )
        parts = partition_workers(records, 1, PartitionStrategy.ROUND_ROBIN)
        net_f, reports_f, _ = run_federated(
            X, y, parts, cfg,
            on_epoch=lambda e, n: federated_trace.append(params_fingerprint(n)),
        )
        assert len(central_trace) == len(federated_trace) == 100
        assert central_trace == federated_trace  # every epoch, bit for bit
        assert network_to_bytes(net_c) == network_to_bytes(net_f)
        assert [r.global_loss for r in reports_c] == [r.global_loss for r in reports_f]
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"equivalence run took {elapsed:.1f}s (budget 30s)"


def test_criterion_3_worker_gradients_sum_to_central_gradient():
    with criterion(3, "sum of J worker gradients equals the full-batch gradient (<= 1e-12, 20 epochs)"):
        records, _, _ = synth_generate(7, 420, seed=3)
        schema = build_schema(records, True)
        X, y = encode_features(records, schema)
        full_ids = np.arange(X.shape[0], dtype=np.int64)
        for j in (2, 4, 7):
            cfg = TrainConfig(
                epochs=20, tolerance=0.0, hidden_layers=(16,), dropout=0.15, seed=31
            )
            from fedl.sim import make_workers, network_specs

            parts = partition_workers(records, j, PartitionStrategy.ROUND_ROBIN)
            net = init_network(network_specs(X.shape[1], cfg), cfg.seed)
            adam = init_adam(net, step_size=cfg.step_size)
            workers = make_workers(X, y, parts, net)
            for epoch in range(20):
                seed_e = fold_seed(cfg.seed, epoch)
                grads = [local_epoch(w, net, seed_e)[0] for w in workers]
                out, tape = forward(
                    net, X, mode=Mode.TRAIN, seed=seed_e, sample_ids=full_ids
                )
                g_full = backward(net, tape, y)
                worst = 0.0
                for layer in range(len(g_full.weights)):
                    sum_w = sum(g.weights[layer] for g in grads)
                    sum_b = sum(g.biases[layer] for g in grads)
                    worst = max(
                        worst,
                        float(np.max(np.abs(sum_w - g_full.weights[layer]))),
                        float(np.max(np.abs(sum_b - g_full.biases[layer]))),
                    )
                assert worst <= 1e-12, f"J={j} epoch {epoch}: max abs gap {worst}"
                adam, net = adam_step(adam, net, aggregate_gradients(grads))


def test_criterion_4_rounds_are_strictly_synchronous(small_corpus):
    with criterion(4, "every round reports staleness exactly 0"):
        records, _, _ = small_corpus
        schema = build_schema(records, True)
        X, y = encode_features(records, schema)
        cfg = TrainConfig(
            epochs=30, tolerance=0.0, hidden_layers=(8,), workers=4,
            partition=PartitionStrategy.ROUND_ROBIN, seed=4,
        )
        parts = partition_workers(records, 4, PartitionStrategy.ROUND_ROBIN)
        _, reports, _ = run_federated(X, y, parts, cfg)
        assert len(reports) == 30
        assert all(r.staleness == 0 for r in reports)
        # the invariant is structural: a nonzero value cannot even be recorded
        with pytest.raises(StalenessError):
            RoundReport(
                epoch=0, global_loss=1.0, worker_losses=(1.0,),
                staleness=1, bytes_up=1, bytes_down=1,
            )


def test_criterion_5_constrained_assignment_is_exactly_optimal():
    with criterion(5, "size-window assignment matches brute force on 200 random instances"):
        start = time.perf_counter()
        rng = np.random.default_rng(505)
        solved = 0
        attempts = 0
        while solved < 200:
            attempts += 1
            assert attempts < 2000, "instance generator failed to produce feasible cases"
            n = int(rng.integers(2, 11))  # I <= 10
            k = int(rng.integers(1, 4))  # K <= 3
            if n < k:
                continue
            points = rng.normal(size=(n, 2)) * float(rng.uniform(0.3, 4.0))
            lows = rng.integers(0, n // k + 1, size=k)
            highs = np.minimum(lows + rng.integers(0, n + 1, size=k), n)
            if lows.sum() > n or highs.sum() < n:
                continue
            cfg = ClusterConfig(
                k=k,
                theta_low=tuple(int(v) for v in lows),
                theta_high=tuple(int(v) for v in highs),
                seed=int(rng.integers(0, 1_000_000)),
            )

            # (a) one assignment against random centroids, checked exactly
            centroids = rng.normal(size=(k, 2))
            tau = assign_clusters(points, centroids, cfg)
            labels = tau.argmax(axis=1)
            counts = np.bincount(labels, minlength=k)
            assert np.all(counts >= lows) and np.all(counts <= highs)
            cost = exact_assignment_cost(points, centroids, labels)
            best = brute_force_min_cost(points, centroids, lows, highs)
            assert cost == best, f"instance {solved}: {cost} != {best}"

            # (b) the full loop keeps the windows at every iteration and
            # stops only on a genuine fixpoint
            if np.unique(points, axis=0).shape[0] < k:
                continue
            window_log = []

            def watch(iteration, tau_i, centroids_i, objective_i):
                c = tau_i.sum(axis=0)
                window_log.append(bool(np.all(c >= lows) and np.all(c <= highs)))

            result = constrained_kmeans(points, cfg, on_iteration=watch)
            assert window_log and all(window_log)
            if result.converged:
                tau_fix = assign_clusters(points, result.centroids, cfg)
                assert np.array_equal(tau_fix, result.tau)
                cents_fix = update_centroids(points, tau_fix, result.centroids, cfg)
                assert np.array_equal(cents_fix, result.centroids)
            solved += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"assignment audit took {elapsed:.1f}s (budget 60s)"


def test_criterion_6_federated_traffic_undercuts_centralized_at_scale():
    with criterion(6, "federated bytes < centralized bytes at 50k records, exact totals"):
        records, _, _ = synth_generate(58, 50_000, seed=7)
        schema = build_schema(records, True)
        X, y = encode_features(records, schema)
        assert X.shape == (50_000, 90)

        cfg = TrainConfig(
            epochs=100, tolerance=1e-2, patience=3, hidden_layers=(64, 64),
            dropout=0.15, workers=4, partition=PartitionStrategy.BY_STATION, seed=7,
        )

        # centralized: the only traffic is the one-time dataset upload, so a
        # single epoch prices the whole pipeline
        _, _, central_traffic = run_centralized(
            X, y, TrainConfig(epochs=1, tolerance=0.0, hidden_layers=(64, 64), seed=7)
        )
        central_bytes = central_traffic.total_bytes()
        assert central_bytes == 50_000 * (90 * 8 + 8) == 36_400_000
        assert central_bytes == dataset_bytes(50_000, 90)

        parts = partition_workers(records, 4, PartitionStrategy.BY_STATION)
        net, reports, fed_traffic = run_federated(X, y, parts, cfg)
        assert net.parameter_count == 10_049
        rounds = len(reports)

        # each round moves 4 gradients up and 4 models down, every message
        # being P*8 payload + 64 header bytes; the exchange only undercuts
        # the 36.4 MB upload if training settles before round 57
        # (57 * 8 * 80456 = 36,687,936 > 36,400,000)
        per_message = message_bytes(net.parameter_count)
        assert per_message == 10_049 * 8 + 64 == 80_456
        expected_fed = rounds * 2 * 4 * per_message
        fed_bytes = fed_traffic.total_bytes()
        assert fed_bytes == expected_fed
        assert rounds < 57, (
            f"needed {rounds} rounds; at >= 57 rounds the gradient exchange "
            f"({rounds * 8 * per_message} bytes) cannot undercut the "
            f"{central_bytes}-byte dataset upload"
        )
        assert fed_bytes < central_bytes

        from fedl.metrics import overhead_report

        report = overhead_report(
            {"central": central_traffic, "federated": fed_traffic}
        )
        assert report.totals == {"central": 36_400_000, "federated": expected_fed}
        assert report.savings["federated"] == 1.0 - expected_fed / 36_400_000
        print(
            f"  rounds={rounds} federated_bytes={fed_bytes} "
            f"central_bytes={central_bytes} "
            f"savings={report.savings['federated']:.1%}"
        )


def test_criterion_7_learned_models_beat_the_mean_baseline():
    with criterion(7, "central and federated cut >= 30% off the mean baseline RMSE"):
        start = time.perf_counter()
        records, stations, _ = synth_generate(10, 2000, seed=23, noise_std=0.5)
        train, test = split_train_test(records, 0.8, seed=23)
        vocab = sorted({r.station_id for r in records})
        schema = build_schema(train, True, station_vocabulary=vocab)
        X_train, y_train = encode_features(train, schema)
        X_test, _ = encode_features(test, schema)
        actual = np.array([r.energy_kwh for r in test], dtype=np.float64)
        train_kwh = np.array([r.energy_kwh for r in train], dtype=np.float64)
        baseline = rmse(actual, mean_baseline(train_kwh).predict(len(test)))

        cfg = TrainConfig(
            epochs=400, tolerance=0.0, hidden_layers=(32, 16), dropout=0.1,
            workers=4, partition=PartitionStrategy.BY_STATION, seed=23,
        )
        net_c, _, _ = run_centralized(X_train, y_train, cfg)
        central = rmse(actual, predict(net_c, X_test, schema))
        parts = partition_workers(train, 4, PartitionStrategy.BY_STATION)
        net_f, _, _ = run_federated(X_train, y_train, parts, cfg)
        federated = rmse(actual, predict(net_f, X_test, schema))

        assert central <= 0.7 * baseline, (
            f"centralized RMSE {central:.3f} vs mean baseline {baseline:.3f}"
        )
        assert federated <= 0.7 * baseline, (
            f"federated RMSE {federated:.3f} vs mean baseline {baseline:.3f}"
        )

        clustered = run_clustered(
            train, test, stations, ClusterConfig(k=2, seed=23),
            TrainMode.CENTRAL, cfg,
        )
        assert clustered.pooled_rmse_kwh is not None
        assert clustered.pooled_rmse_kwh <= baseline, (
            f"clustered pooled RMSE {clustered.pooled_rmse_kwh:.3f} worse than "
            f"the mean baseline {baseline:.3f}"
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"quality run took {elapsed:.1f}s (budget 120s)"


def test_criterion_8_real_corpus_sweep(tmp_path):
    with criterion(8, "train-ratio sweep over a real transactions export"):
        transactions = os.environ.get("FEDL_DUNDEE_TRANSACTIONS")
        if not transactions:
            pytest.skip(
                "set FEDL_DUNDEE_TRANSACTIONS (and optionally "
                "FEDL_DUNDEE_STATIONS) to run the real-data sweep"
            )
        if not Path(transactions).exists():
            pytest.fail(f"FEDL_DUNDEE_TRANSACTIONS points at {transactions}, which does not exist")
        stations = os.environ.get("FEDL_DUNDEE_STATIONS")
        from fedl.cli import main

        argv = [
            "sweep", "--transactions", transactions,
            "--epochs", "60", "--tolerance", "1e-4", "--patience", "5",
            "--out", str(tmp_path),
        ]
        expected_methods = ["central", "federated", "knn", "mean"]
        if stations:
            argv += ["--stations", stations, "--clusters", "2"]
            expected_methods = [
                "central", "federated", "central_clustered",
                "federated_clustered", "knn", "mean",
            ]
        assert main(argv) == 0
        rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert rows[0] == "method,0.8,0.7,0.6,0.5"
        assert [r.split(",")[0] for r in rows[1:]] == expected_methods
        for row in rows[1:]:
            cells = row.split(",")[1:]
            assert len(cells) == 4 and all(float(c) > 0 for c in cells)
