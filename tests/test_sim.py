import numpy as np
import pytest

from conftest import params_fingerprint
from fedl.data import PartitionStrategy, partition_workers, synth_generate
from fedl.errors import DegenerateDataError, ShapeError, StalenessError
from fedl.nn import Mode, backward, forward, init_adam, init_network, sse_loss
from fedl.rng import fold_seed
from fedl.sim import (
    Direction,
    Payload,
    RoundReport,
    ServerState,
    TrafficEntry,
    TrafficLog,
    TrainConfig,
    TrainMode,
    WorkerState,
    aggregate_gradients,
    convergence_check,
    dataset_bytes,
    local_epoch,
    make_workers,
    message_bytes,
    network_specs,
    record_bytes,
    run_centralized,
    run_clustered,
    run_federated,
    run_round,
)
from fedl.clustering import ClusterConfig


def full_batch_gradient(network, X, y, seed):
    ids = np.arange(X.shape[0], dtype=np.int64)
    out, tape = forward(network, X, mode=Mode.TRAIN, seed=seed, sample_ids=ids)
    return backward(network, tape, y), sse_loss(out[:, 0], y)


def toy_problem(n=24, width=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, width))
    w_true = rng.normal(size=width)
    y = X @ w_true + 0.05 * rng.normal(size=n)
    return X, y


# --------------------------------------------------------------- sizing


def test_message_and_record_sizes():
    assert message_bytes(100) == 100 * 8 + 64
    assert record_bytes(90) == 90 * 8 + 8
    assert dataset_bytes(50_000, 90) == 50_000 * (90 * 8 + 8)


def test_traffic_entry_requires_positive_bytes():
    with pytest.raises(ValueError):
        TrafficEntry(0, Direction.UP, Payload.MODEL, 0)


def test_traffic_log_filters_and_roundtrips():
    log = TrafficLog()
    log.append(TrafficEntry(0, Direction.UP, Payload.GRADIENT, 10))
    log.append(TrafficEntry(0, Direction.DOWN, Payload.MODEL, 20))
    log.append(TrafficEntry(1, Direction.UP, Payload.DATASET, 300))
    assert log.total_bytes() == 330
    assert log.total_bytes(direction=Direction.UP) == 310
    assert log.total_bytes(payload=Payload.MODEL) == 20
    assert log.total_bytes(Direction.UP, Payload.GRADIENT) == 10
    clone = TrafficLog.from_rows(log.to_rows())
    assert clone.entries == log.entries


# --------------------------------------------------------------- config


def test_train_config_validation():
    TrainConfig(tolerance=0.0)  # zero disables early stopping, it is legal
    with pytest.raises(ValueError):
        TrainConfig(tolerance=-1e-9)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(dropout=1.0)
    with pytest.raises(ValueError):
        TrainConfig(workers=0)
    with pytest.raises(ValueError):
        TrainConfig(hidden_layers=(8, 0))


def test_network_specs_layout():
    cfg = TrainConfig(hidden_layers=(64, 64), dropout=0.15)
    specs = network_specs(90, cfg)
    assert [(s.input_width, s.output_width) for s in specs] == [
        (90, 64),
        (64, 64),
        (64, 1),
    ]
    assert [s.dropout for s in specs] == [0.0, 0.15, 0.0]
    net = init_network(specs, 0)
    # the deployment-scale network carries ~10k parameters
    assert net.parameter_count == 90 * 64 + 64 + 64 * 64 + 64 + 64 + 1 == 10049


# --------------------------------------------------------------- convergence


def test_convergence_constant_history():
    # rel change is 0 < tol once there is a full window
    assert not convergence_check([5.0, 5.0, 5.0], tolerance=1e-6, patience=3)
    assert convergence_check([5.0, 5.0, 5.0, 5.0], tolerance=1e-6, patience=3)


def test_convergence_geometric_decay_stays_active():
    hist = [100.0 * 0.5**i for i in range(10)]
    assert not convergence_check(hist, tolerance=0.1, patience=2)


def test_convergence_needs_consecutive_quiet_epochs():
    hist = [10.0, 10.0, 10.0, 5.0, 5.0]
    assert not convergence_check(hist, tolerance=1e-6, patience=3)
    assert convergence_check(hist + [5.0, 5.0], tolerance=1e-6, patience=3)


def test_convergence_zero_tolerance_never_triggers():
    assert not convergence_check([1.0] * 100, tolerance=0.0, patience=1)


def test_convergence_relative_not_absolute():
    # same absolute step, very different relative step
    assert convergence_check([1e9, 1e9 + 1.0], tolerance=1e-6, patience=1)
    assert not convergence_check([2.0, 3.0], tolerance=1e-6, patience=1)


# --------------------------------------------------------------- workers


def test_worker_state_rejects_empty_or_ragged():
    net = init_network(network_specs(3, TrainConfig(hidden_layers=(4,))), 0)
    with pytest.raises(DegenerateDataError):
        WorkerState(0, np.zeros((0, 3)), np.zeros(0), np.zeros(0, dtype=int), net)
    with pytest.raises(ShapeError):
        WorkerState(0, np.ones((2, 3)), np.ones(3), np.arange(2), net)


def test_make_workers_slices_by_partition():
    X, y = toy_problem(10, 4)
    records = synth_generate(3, 10, seed=1)[0]
    parts = partition_workers(records, 2, PartitionStrategy.ROUND_ROBIN)
    net = init_network(network_specs(4, TrainConfig(hidden_layers=(4,))), 0)
    workers = make_workers(X, y, parts, net)
    assert [w.worker_id for w in workers] == [0, 1]
    assert np.array_equal(workers[0].X, X[::2])
    assert np.array_equal(workers[1].y, y[1::2])
    assert np.array_equal(workers[0].sample_ids, np.arange(0, 10, 2))


def test_local_epoch_single_worker_matches_full_batch_bitwise():
    X, y = toy_problem(20, 5, seed=3)
    cfg = TrainConfig(hidden_layers=(8,), dropout=0.2, seed=4)
    net = init_network(network_specs(5, cfg), cfg.seed)
    worker = WorkerState(0, X, y, np.arange(20), net)
    g_local, loss_local = local_epoch(worker, net, seed=99)
    g_full, loss_full = full_batch_gradient(net, X, y, seed=99)
    assert loss_local == loss_full
    for a, b in zip(g_local.weights, g_full.weights):
        assert np.array_equal(a, b)
    for a, b in zip(g_local.biases, g_full.biases):
        assert np.array_equal(a, b)


def test_local_epoch_rejects_width_mismatch():
    X, y = toy_problem(6, 3)
    cfg = TrainConfig(hidden_layers=(4,))
    net3 = init_network(network_specs(3, cfg), 0)
    net5 = init_network(network_specs(5, cfg), 0)
    worker = WorkerState(0, X, y, np.arange(6), net3)
    with pytest.raises(ShapeError):
        local_epoch(worker, net5, seed=0)


def test_disjoint_worker_gradients_sum_to_full_batch():
    # the core decomposition: SSE over a disjoint union is the sum of the
    # SSEs, so gradients add (dropout on, masks keyed by global row id)
    X, y = toy_problem(30, 6, seed=5)
    cfg = TrainConfig(hidden_layers=(8,), dropout=0.15, seed=1)
    net = init_network(network_specs(6, cfg), cfg.seed)
    idx_a, idx_b = np.arange(0, 30, 2), np.arange(1, 30, 2)
    wa = WorkerState(0, X[idx_a], y[idx_a], idx_a, net)
    wb = WorkerState(1, X[idx_b], y[idx_b], idx_b, net)
    ga, la = local_epoch(wa, net, seed=7)
    gb, lb = local_epoch(wb, net, seed=7)
    gf, lf = full_batch_gradient(net, X, y, seed=7)
    assert la + lb == pytest.approx(lf, rel=1e-12)
    for sa, sb, sf in zip(ga.weights, gb.weights, gf.weights):
        assert np.max(np.abs((sa + sb) - sf)) < 1e-12
    for sa, sb, sf in zip(ga.biases, gb.biases, gf.biases):
        assert np.max(np.abs((sa + sb) - sf)) < 1e-12


# --------------------------------------------------------------- aggregation


def test_aggregate_single_gradient_is_bitwise_identity():
    X, y = toy_problem(8, 3)
    cfg = TrainConfig(hidden_layers=(4,))
    net = init_network(network_specs(3, cfg), 0)
    g, _ = full_batch_gradient(net, X, y, seed=0)
    out = aggregate_gradients([g])
    for a, b in zip(out.weights, g.weights):
        assert np.array_equal(a, b)
        # dividing by 1.0 must preserve signed zeros too
        assert np.array_equal(np.signbit(a), np.signbit(b))


def test_aggregate_takes_elementwise_mean():
    from fedl.nn import Gradient

    g1 = Gradient(weights=(np.array([[2.0]]),), biases=(np.array([4.0]),))
    g2 = Gradient(weights=(np.array([[6.0]]),), biases=(np.array([0.0]),))
    out = aggregate_gradients([g1, g2])
    assert out.weights[0][0, 0] == 4.0
    assert out.biases[0][0] == 2.0


def test_aggregate_rejects_empty_and_ragged():
    from fedl.nn import Gradient

    with pytest.raises(ValueError):
        aggregate_gradients([])
    g1 = Gradient(weights=(np.zeros((2, 2)),), biases=(np.zeros(2),))
    g2 = Gradient(weights=(np.zeros((3, 2)),), biases=(np.zeros(3),))
    with pytest.raises(ShapeError):
        aggregate_gradients([g1, g2])


# --------------------------------------------------------------- rounds


def make_federation(n=20, width=4, workers=2, seed=0, **cfg_kw):
    X, y = toy_problem(n, width, seed=seed)
    cfg = TrainConfig(hidden_layers=(6,), workers=workers, seed=seed, **cfg_kw)
    net = init_network(network_specs(width, cfg), cfg.seed)
    adam = init_adam(net, step_size=cfg.step_size)
    server = ServerState(network=net, adam=adam)
    splits = np.array_split(np.arange(n), workers)
    states = [WorkerState(i, X[s], y[s], s, net) for i, s in enumerate(splits)]
    return server, states, X, y, cfg


def test_run_round_is_synchronous_and_accounts_traffic():
    server, workers, _, _, _ = make_federation(workers=3)
    report = run_round(server, workers, seed=0)
    assert report.staleness == 0
    per = message_bytes(server.network.parameter_count)
    assert report.bytes_up == 3 * per
    assert report.bytes_down == 3 * per
    assert server.version == 1
    for w in workers:
        assert w.model_version == 1
        assert w.model is server.network
    ups = server.traffic.total_bytes(Direction.UP, Payload.GRADIENT)
    downs = server.traffic.total_bytes(Direction.DOWN, Payload.MODEL)
    assert ups == 3 * per and downs == 3 * per
    assert server.traffic.total_bytes(payload=Payload.DATASET) == 0


def test_run_round_reports_sum_of_worker_losses():
    server, workers, X, y, _ = make_federation(workers=2)
    report = run_round(server, workers, seed=5)
    assert report.global_loss == pytest.approx(sum(report.worker_losses), rel=1e-15)
    assert len(report.worker_losses) == 2


def test_run_round_is_invariant_to_worker_order():
    # gradients are reduced in ascending worker-id order, whatever order
    # the workers are passed in, so the new model keeps its bits
    server_a, workers_a, _, _, _ = make_federation(workers=4)
    server_b, workers_b, _, _, _ = make_federation(workers=4)
    report_a = run_round(server_a, workers_a, seed=3)
    report_b = run_round(server_b, workers_b[::-1], seed=3)
    assert params_fingerprint(server_a.network) == params_fingerprint(server_b.network)
    assert report_a.worker_losses == report_b.worker_losses


def test_run_round_rejects_stale_worker():
    server, workers, _, _, _ = make_federation(workers=2)
    run_round(server, workers, seed=0)
    workers[1].model_version = 0  # simulate a missed broadcast
    with pytest.raises(StalenessError):
        run_round(server, workers, seed=1)


def test_run_round_rejects_duplicate_ids():
    server, workers, _, _, _ = make_federation(workers=2)
    workers[1].worker_id = 0
    with pytest.raises(ValueError):
        run_round(server, workers, seed=0)


def test_round_report_refuses_nonzero_staleness():
    with pytest.raises(StalenessError):
        RoundReport(
            epoch=0,
            global_loss=1.0,
            worker_losses=(1.0,),
            staleness=1,
            bytes_up=1,
            bytes_down=1,
        )


# --------------------------------------------------------------- centralized


def test_centralized_runs_full_budget_without_tolerance():
    X, y = toy_problem()
    cfg = TrainConfig(epochs=7, tolerance=0.0, hidden_layers=(6,), seed=2)
    _, reports, _ = run_centralized(X, y, cfg)
    assert len(reports) == 7
    assert [r.epoch for r in reports] == list(range(7))
    assert all(r.staleness == 0 for r in reports)


def test_centralized_learns_the_toy_problem():
    X, y = toy_problem(60, 5, seed=9)
    cfg = TrainConfig(epochs=150, tolerance=0.0, hidden_layers=(16,), dropout=0.0, seed=3)
    _, reports, _ = run_centralized(X, y, cfg)
    assert reports[-1].global_loss < 0.2 * reports[0].global_loss


def test_centralized_traffic_is_one_dataset_upload():
    X, y = toy_problem(25, 4)
    cfg = TrainConfig(epochs=3, tolerance=0.0, hidden_layers=(4,))
    _, _, traffic = run_centralized(X, y, cfg)
    assert len(traffic.entries) == 1
    (entry,) = traffic.entries
    assert entry.payload is Payload.DATASET and entry.direction is Direction.UP
    assert entry.n_bytes == dataset_bytes(25, 4)
    # upload size scales with the corpus, not with training length
    X2, y2 = toy_problem(50, 4)
    _, _, traffic2 = run_centralized(X2, y2, TrainConfig(epochs=9, tolerance=0.0, hidden_layers=(4,)))
    assert traffic2.total_bytes() == 2 * traffic.total_bytes()


def test_centralized_stops_when_loss_settles():
    X, y = toy_problem()
    # an enormous tolerance makes every epoch "quiet": training stops as
    # soon as the patience window is full
    cfg = TrainConfig(epochs=50, tolerance=1e9, patience=3, hidden_layers=(4,), seed=0)
    _, reports, _ = run_centralized(X, y, cfg)
    assert len(reports) == 4  # patience + 1


def test_centralized_epoch_callback_sees_every_epoch():
    X, y = toy_problem()
    seen = []
    cfg = TrainConfig(epochs=5, tolerance=0.0, hidden_layers=(4,))
    run_centralized(X, y, cfg, on_epoch=lambda e, net: seen.append(e))
    assert seen == [0, 1, 2, 3, 4]


def test_centralized_rejects_bad_shapes():
    cfg = TrainConfig(hidden_layers=(4,))
    with pytest.raises(DegenerateDataError):
        run_centralized(np.zeros((0, 3)), np.zeros(0), cfg)
    with pytest.raises(ShapeError):
        run_centralized(np.zeros((4, 3)), np.zeros(5), cfg)


# --------------------------------------------------------------- federated


def test_federated_single_worker_reproduces_centralized_bitwise():
    X, y = toy_problem(40, 5, seed=8)
    records = synth_generate(4, 40, seed=2)[0]
    cfg = TrainConfig(epochs=30, tolerance=0.0, hidden_layers=(8,), dropout=0.15, seed=6)
    central_prints = []
    fed_prints = []
    net_c, rep_c, _ = run_centralized(
        X, y, cfg, on_epoch=lambda e, n: central_prints.append(params_fingerprint(n))
    )
    parts = partition_workers(records, 1, PartitionStrategy.ROUND_ROBIN)
    net_f, rep_f, _ = run_federated(
        X, y, parts, cfg, on_epoch=lambda e, n: fed_prints.append(params_fingerprint(n))
    )
    assert central_prints == fed_prints  # every epoch, not just the last
    assert params_fingerprint(net_c) == params_fingerprint(net_f)
    assert [r.global_loss for r in rep_c] == [r.global_loss for r in rep_f]


def test_federated_two_workers_step_on_mean_gradient():
    from fedl.nn import adam_step

    X, y = toy_problem(20, 4, seed=1)
    records = synth_generate(2, 20, seed=3)[0]
    cfg = TrainConfig(epochs=1, tolerance=0.0, hidden_layers=(5,), dropout=0.1, seed=9)
    parts = partition_workers(records, 2, PartitionStrategy.ROUND_ROBIN)
    net_f, _, _ = run_federated(X, y, parts, cfg)

    net0 = init_network(network_specs(4, cfg), cfg.seed)
    adam0 = init_adam(net0, step_size=cfg.step_size)
    seed0 = fold_seed(cfg.seed, 0)
    idx = [np.asarray(p.record_indices) for p in parts]
    grads = []
    for ids in idx:
        out, tape = forward(net0, X[ids], mode=Mode.TRAIN, seed=seed0, sample_ids=ids)
        grads.append(backward(net0, tape, y[ids]))
    _, net_manual = adam_step(adam0, net0, aggregate_gradients(grads))
    assert params_fingerprint(net_f) == params_fingerprint(net_manual)


def test_federated_traffic_never_contains_records():
    X, y = toy_problem(30, 4)
    records = synth_generate(3, 30, seed=4)[0]
    cfg = TrainConfig(epochs=4, tolerance=0.0, hidden_layers=(4,), workers=3, seed=0)
    parts = partition_workers(records, 3, PartitionStrategy.ROUND_ROBIN)
    net, reports, traffic = run_federated(X, y, parts, cfg)
    assert traffic.total_bytes(payload=Payload.DATASET) == 0
    per = message_bytes(net.parameter_count)
    assert traffic.total_bytes() == 4 * 3 * per * 2
    # byte volume is set by the model and the round count, not by |data|
    X2, y2 = toy_problem(60, 4)
    records2 = synth_generate(3, 60, seed=4)[0]
    parts2 = partition_workers(records2, 3, PartitionStrategy.ROUND_ROBIN)
    _, _, traffic2 = run_federated(X2, y2, parts2, cfg)
    assert traffic2.total_bytes() == traffic.total_bytes()


def test_federated_stops_when_all_workers_settle():
    X, y = toy_problem(20, 4)
    records = synth_generate(2, 20, seed=5)[0]
    cfg = TrainConfig(
        epochs=50, tolerance=1e9, patience=2, hidden_layers=(4,), workers=2, seed=0
    )
    parts = partition_workers(records, 2, PartitionStrategy.ROUND_ROBIN)
    _, reports, _ = run_federated(X, y, parts, cfg)
    assert len(reports) == 3  # patience + 1


def test_federated_parallel_matches_serial_bitwise():
    X, y = toy_problem(36, 5, seed=13)
    records = synth_generate(4, 36, seed=6)[0]
    base = dict(epochs=12, tolerance=0.0, hidden_layers=(8,), workers=4, seed=5)
    parts = partition_workers(records, 4, PartitionStrategy.ROUND_ROBIN)
    net_s, rep_s, _ = run_federated(X, y, parts, TrainConfig(**base, parallel=False))
    net_p, rep_p, _ = run_federated(X, y, parts, TrainConfig(**base, parallel=True))
    assert params_fingerprint(net_s) == params_fingerprint(net_p)
    assert [r.global_loss for r in rep_s] == [r.global_loss for r in rep_p]


def test_federated_requires_partitions():
    X, y = toy_problem(6, 3)
    with pytest.raises(DegenerateDataError):
        run_federated(X, y, [], TrainConfig(hidden_layers=(4,)))


# --------------------------------------------------------------- clustered


def quick_cfg(**kw):
    base = dict(epochs=8, tolerance=0.0, hidden_layers=(8,), dropout=0.0, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def test_clustered_single_cluster_matches_plain_centralized(small_corpus):
    from fedl.data import build_schema, encode_features, split_train_test
    from fedl.metrics import rmse
    from fedl.nn import predict

    records, stations, _ = small_corpus
    train, test = split_train_test(records, 0.8, seed=5)
    cfg = quick_cfg()
    result = run_clustered(
        train, test, stations, ClusterConfig(k=1, seed=0), TrainMode.CENTRAL, cfg
    )
    assert len(result.clusters) == 1
    assert not result.clusters[0].skipped
    assert result.uncovered_test == 0

    vocab = sorted({r.station_id for r in train} | {r.station_id for r in test})
    schema = build_schema(train, True, station_vocabulary=vocab)
    X_train, y_train = encode_features(train, schema)
    X_test, _ = encode_features(test, schema)
    model, _, _ = run_centralized(X_train, y_train, cfg)
    manual = rmse(
        np.array([r.energy_kwh for r in test]), predict(model, X_test, schema)
    )
    assert result.pooled_rmse_kwh == pytest.approx(manual, rel=1e-12)
    assert params_fingerprint(result.clusters[0].model) == params_fingerprint(model)


def test_clustered_covers_every_transaction_once(small_corpus):
    records, stations, _ = small_corpus
    from fedl.data import split_train_test

    train, test = split_train_test(records, 0.7, seed=2)
    result = run_clustered(
        train, test, stations, ClusterConfig(k=3, seed=1), TrainMode.CENTRAL, quick_cfg()
    )
    assert sum(c.n_train for c in result.clusters) == len(train)
    assert sum(c.n_test for c in result.clusters) == len(test)
    owned = [sid for c in result.clusters for sid in c.station_ids]
    assert sorted(owned) == sorted(s.station_id for s in stations)


def test_clustered_federated_inner_mode(small_corpus):
    records, stations, _ = small_corpus
    from fedl.data import split_train_test

    train, test = split_train_test(records, 0.8, seed=3)
    cfg = quick_cfg(workers=2, partition=PartitionStrategy.ROUND_ROBIN, epochs=5)
    result = run_clustered(
        train, test, stations, ClusterConfig(k=2, seed=0), TrainMode.FEDERATED, cfg
    )
    assert all(not c.skipped for c in result.clusters)
    combined = result.combined_traffic()
    assert combined.total_bytes(payload=Payload.DATASET) == 0
    assert combined.total_bytes() == sum(
        c.traffic.total_bytes() for c in result.clusters
    )


def test_clustered_skips_cluster_without_training_data():
    # stations B sits alone in its lobe; give it test traffic only
    from fedl.data import StationInfo, TransactionRecord

    stations = [
        StationInfo("A", 56.0, -3.0),
        StationInfo("B", 57.0, -2.0),
    ]
    mk = lambda sid, txn, kwh: TransactionRecord(sid, txn, 2, 10, kwh)
    train = [mk("A", i, 4.0 + (i % 3)) for i in range(1, 9)]
    test = [mk("B", 1, 5.0), mk("B", 2, 6.0), mk("A", 9, 4.5)]
    cc = ClusterConfig(k=2, theta_low=0, theta_high=2, seed=0)
    with pytest.warns(RuntimeWarning, match="no training transactions"):
        result = run_clustered(
            train, test, stations, cc, TrainMode.CENTRAL, quick_cfg(epochs=2)
        )
    skipped = [c for c in result.clusters if c.skipped]
    assert len(skipped) == 1
    assert skipped[0].n_test == 2
    assert result.uncovered_test == 2
    assert result.pooled_rmse_kwh is not None  # station A's record still scores


def test_clustered_requires_station_coordinates(small_corpus):
    records, stations, _ = small_corpus
    from fedl.data import split_train_test

    train, test = split_train_test(records, 0.8, seed=1)
    with pytest.raises(DegenerateDataError):
        run_clustered(
            train, test, stations[:-1], ClusterConfig(k=2, seed=0),
            TrainMode.CENTRAL, quick_cfg(),
        )
