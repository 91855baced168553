import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import params_fingerprint
from fedl.data import (
    PartitionStrategy,
    WorkerPartition,
    build_schema,
    encode_features,
    partition_workers,
    synth_generate,
)
from fedl.errors import DegenerateDataError, ShapeError, StalenessError
from fedl.model_io import network_to_bytes
from fedl.nn import (
    Gradient,
    Mode,
    backward,
    forward,
    init_adam,
    init_network,
    predict,
    sse_loss,
    thread_workspace,
)
from fedl.rng import fold_seed
from fedl.sim import (
    STEP_BLOCK_ROWS,
    Direction,
    Payload,
    RoundReport,
    ServerState,
    TrafficEntry,
    TrafficLog,
    TrainConfig,
    TrainMode,
    WorkerState,
    _map_steps,
    _site_gradients,
    _usable_cores,
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
    step_threads,
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
    assert sum(e.n_bytes for e in log.entries if e.direction is Direction.UP) == 310
    assert [e.n_bytes for e in log.entries if e.payload is Payload.MODEL] == [20]
    assert [
        e.n_bytes for e in log.entries
        if (e.direction, e.payload) == (Direction.UP, Payload.GRADIENT)
    ] == [10]
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
    for step_size in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            TrainConfig(step_size=step_size)


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
    with pytest.raises(DegenerateDataError):
        WorkerState(0, np.zeros((0, 3)), np.zeros(0), np.zeros(0, dtype=int))
    with pytest.raises(ShapeError):
        WorkerState(0, np.ones((2, 3)), np.ones(3), np.arange(2))


def test_worker_state_rejects_ids_outside_the_pooled_rows():
    X, y = np.ones((5, 3)), np.ones(5)
    WorkerState(0, X, y, np.array([0, 4]))  # the first and the last row
    for ids in (np.array([2, -1]), np.array([0, 5])):
        with pytest.raises(ShapeError, match=r"\[0, 5\)"):
            WorkerState(0, X, y, ids)
    for ids in (np.array([0.0, 1.0]), np.array([True, False]), np.array([[0, 1]])):
        with pytest.raises(ShapeError, match="1-d integer"):
            WorkerState(0, X, y, ids)
    with pytest.raises(DegenerateDataError):
        WorkerState(0, X, y, np.zeros(0, dtype=np.int64))


def test_make_workers_slices_by_partition():
    X, y = toy_problem(10, 4)
    records = synth_generate(3, 10, seed=1)[0]
    parts = partition_workers(records, 2, PartitionStrategy.ROUND_ROBIN)
    net = init_network(network_specs(4, TrainConfig(hidden_layers=(4,))), 0)
    workers = make_workers(X, y, parts, net)
    assert [w.worker_id for w in workers] == [0, 1]
    # every worker holds the pooled arrays and selects its rows by id
    assert all(w.X is X and w.y is y for w in workers)
    assert np.array_equal(workers[0].X[workers[0].sample_ids], X[::2])
    assert np.array_equal(workers[1].y[workers[1].sample_ids], y[1::2])
    assert np.array_equal(workers[0].sample_ids, np.arange(0, 10, 2))


def test_make_workers_rejects_a_model_of_another_width():
    X, y = toy_problem(10, 4)
    parts = partition_workers(synth_generate(3, 10, seed=1)[0], 2, PartitionStrategy.ROUND_ROBIN)
    net = init_network(network_specs(5, TrainConfig(hidden_layers=(4,))), 0)
    with pytest.raises(ShapeError, match="width 4"):
        make_workers(X, y, parts, net)


def test_make_workers_holds_the_partition_indices_uncopied():
    X, y = toy_problem(10, 4)
    parts = partition_workers(synth_generate(3, 10, seed=1)[0], 2, PartitionStrategy.ROUND_ROBIN)
    net = init_network(network_specs(4, TrainConfig(hidden_layers=(4,))), 0)
    for w, p in zip(make_workers(X, y, parts, net), parts):
        assert w.sample_ids is p.record_indices


def test_step_scratch_holds_no_dead_partials():
    # One 2048-row block of 90 features through hidden 64-64 (dropout on the
    # second) leaves in its thread's workspace: the two activations and the
    # dropout output 1 MiB each, the bool mask 0.125 MiB and two n x 1
    # arrays of 16 KiB, 3.15625 MiB in all.  The mask's hash runs in the
    # dropout layer's activation and output buffers before they are filled,
    # so no hash scratch is kept, and backward's n x 64 partials reuse dead
    # tape buffers, so they add nothing.  A site of the identity range reads
    # its rows as a slice of X; any other site gathers its rows and labels
    # into 1.421875 MiB more, 4.578125 MiB in all.  Each step runs on a new
    # thread, whose workspace no earlier step has grown.
    rng = np.random.default_rng(3)
    X = rng.normal(size=(STEP_BLOCK_ROWS, 90))
    y = rng.normal(size=STEP_BLOCK_ROWS)
    net = init_network(network_specs(90, TrainConfig(hidden_layers=(64, 64))), 0)
    for ids, limit in (
        (np.arange(STEP_BLOCK_ROWS), 3.15625),
        (rng.permutation(STEP_BLOCK_ROWS), 4.578125),
    ):
        workspace = _on_a_new_thread(lambda: _site_gradients(net, X, y, [ids], 7))
        assert sum(a.nbytes for a in workspace._arrays.values()) <= limit * 2**20
        assert all(name != ("hash",) for name, _, _ in workspace._arrays)

    # a thread's workspace outlives a training, so a process that trains
    # inputs of several widths gathers them all into one flat buffer
    def steps():
        for width in (90, 7):
            X = rng.normal(size=(300, width))
            net = init_network(network_specs(width, TrainConfig(hidden_layers=(8,))), 0)
            _site_gradients(net, X, rng.normal(size=300), [rng.permutation(300)], 7)

    workspace = _on_a_new_thread(steps)
    assert [name for name, _, _ in workspace._arrays].count(("rows",)) == 1


def _on_a_new_thread(fn):
    """Run ``fn`` on a new thread; return that thread's workspace."""
    out = []

    def body():
        fn()
        out.append(thread_workspace())

    thread = threading.Thread(target=body)
    thread.start()
    thread.join()
    (workspace,) = out
    return workspace


@pytest.mark.parametrize("rows", [1, 2047, 2048, 2049, 4097])
def test_slices_train_to_the_same_bits_as_gathered_rows(rows):
    # X's rows at ids 2i of a pool whose odd rows are junk: one site reads
    # X by slices, the other gathers the same rows in the same order (with
    # no dropout, so the masks' keys, the ids, play no part)
    X, y = toy_problem(rows, 7, seed=rows)
    pooled_X, pooled_y = np.full((2 * rows, 7), 1e6), np.full(2 * rows, -1e6)
    pooled_X[::2], pooled_y[::2] = X, y
    net = init_network(network_specs(7, TrainConfig(hidden_layers=(16, 8), dropout=0.0)), 1)
    ((g_slices, loss_slices),) = _site_gradients(net, X, y, [np.arange(rows)], 3)
    ((g_gathered, loss_gathered),) = _site_gradients(
        net, pooled_X, pooled_y, [2 * np.arange(rows)], 3
    )
    assert np.array_equal(loss_slices, loss_gathered)
    for a, b in zip((*g_slices.weights, *g_slices.biases),
                    (*g_gathered.weights, *g_gathered.biases)):
        assert np.array_equal(a, b)


def test_local_epoch_single_worker_matches_full_batch_bitwise():
    X, y = toy_problem(20, 5, seed=3)
    cfg = TrainConfig(hidden_layers=(8,), dropout=0.2, seed=4)
    net = init_network(network_specs(5, cfg), cfg.seed)
    worker = WorkerState(0, X, y, np.arange(20))
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
    net5 = init_network(network_specs(5, cfg), 0)
    worker = WorkerState(0, X, y, np.arange(6))
    with pytest.raises(ShapeError):
        local_epoch(worker, net5, seed=0)


def test_disjoint_worker_gradients_sum_to_full_batch():
    # the core decomposition: SSE over a disjoint union is the sum of the
    # SSEs, so gradients add (dropout on, masks keyed by global row id)
    X, y = toy_problem(30, 6, seed=5)
    cfg = TrainConfig(hidden_layers=(8,), dropout=0.15, seed=1)
    net = init_network(network_specs(6, cfg), cfg.seed)
    idx_a, idx_b = np.arange(0, 30, 2), np.arange(1, 30, 2)
    wa = WorkerState(0, X, y, idx_a)
    wb = WorkerState(1, X, y, idx_b)
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
    states = [WorkerState(i, X, y, s) for i, s in enumerate(splits)]
    return server, states, X, y, cfg


def test_run_round_is_synchronous_and_accounts_traffic():
    server, workers, _, _, _ = make_federation(workers=3)
    report = run_round(server, workers, seed=0)
    assert report.staleness == 0
    per = message_bytes(server.network.parameter_count)
    assert report.bytes_up == 3 * per
    assert report.bytes_down == 3 * per
    assert server.adam.steps == 1
    for w in workers:
        assert w.model_version == 1
    # J gradients up, then J models down, all stamped with the round's epoch
    assert server.traffic.to_rows() == (
        [(0, "up", "gradient", per)] * 3 + [(0, "down", "model", per)] * 3
    )


def test_run_round_needs_workers_that_share_the_pooled_arrays():
    server, workers, X, y, _ = make_federation(workers=2)
    with pytest.raises(ValueError, match="needs workers"):
        run_round(server, [], seed=0)
    workers[1] = WorkerState(1, X.copy(), y, workers[1].sample_ids)
    with pytest.raises(ValueError, match="share one pooled X and y"):
        run_round(server, workers, seed=0)
    assert server.adam.steps == 0 and not server.traffic.entries


def test_run_round_leaves_a_width_mismatch_to_forward():
    server, _, X, y, _ = make_federation(workers=2)
    workers = [WorkerState(0, X[:, :3].copy(), y, np.arange(len(y)))]
    with pytest.raises(ShapeError, match="input width 4"):
        run_round(server, workers, seed=0)


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
    assert all(e.payload is not Payload.DATASET for e in traffic.entries)
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


@pytest.fixture(scope="module")
def multi_block_corpus():
    """17k records over 8 stations: 9 central blocks, and 3 blocks per
    shard when split round-robin over 4 workers."""
    records, stations, _ = synth_generate(8, 17_000, seed=8)
    schema = build_schema(records, True)
    X, y = encode_features(records, schema)
    assert len(y) > 4 * 2 * STEP_BLOCK_ROWS
    return records, stations, X, y


def _outputs(network, reports, traffic):
    return (
        network_to_bytes(network),
        [(r.global_loss, r.worker_losses) for r in reports],
        traffic.to_rows(),
    )


@pytest.mark.parametrize("pipeline", ["central", "federated", "clustered"])
def test_pool_size_changes_no_bit(monkeypatch, multi_block_corpus, pipeline):
    import fedl.sim

    records, stations, X, y = multi_block_corpus
    cfg = TrainConfig(
        epochs=3, tolerance=0.0, hidden_layers=(8,), workers=4,
        partition=PartitionStrategy.ROUND_ROBIN, seed=2,
    )

    def run():
        if pipeline == "central":
            return _outputs(*run_centralized(X, y, cfg))
        if pipeline == "federated":
            parts = partition_workers(records, 4, PartitionStrategy.ROUND_ROBIN)
            return _outputs(*run_federated(X, y, parts, cfg))
        result = run_clustered(
            records[:12_000], records[12_000:], stations, ClusterConfig(k=2, seed=0),
            TrainMode.FEDERATED, dataclasses.replace(cfg, workers=2),
        )
        return [_outputs(c.model, c.reports, c.traffic) for c in result.clusters]

    outputs = []
    for threads in (1, 2, 3):
        monkeypatch.setattr(fedl.sim, "step_threads", lambda: threads)
        outputs.append(run())
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


@pytest.mark.parametrize("pipeline", ["central", "by_station", "round_robin"])
def test_encoded_and_dense_features_train_to_the_same_bits(multi_block_corpus, pipeline):
    # the encoded matrix expands each block where the dense one is sliced
    # (central) or gathered (federated), at the same block boundaries; every
    # site here has at least three blocks
    records, _, X, y = multi_block_corpus
    dense = np.asarray(X)
    cfg = TrainConfig(epochs=2, tolerance=0.0, hidden_layers=(16, 8), workers=2, seed=5)

    def run(features):
        if pipeline == "central":
            return run_centralized(features, y, cfg)
        parts = partition_workers(records, 2, PartitionStrategy(pipeline))
        assert min(len(p.record_indices) for p in parts) > 2 * STEP_BLOCK_ROWS
        return run_federated(features, y, parts, cfg)

    encoded_run, dense_run = run(X), run(dense)
    assert _outputs(*encoded_run) == _outputs(*dense_run)
    model, schema = encoded_run[0], build_schema(records, True)
    assert predict(model, X, schema).tobytes() == predict(model, dense, schema).tobytes()


def test_blocked_worker_gradients_sum_to_full_batch(multi_block_corpus):
    # criterion 3 at shards of several blocks: each worker gradient is a sum
    # of block gradients, and the workers' sum is the full-batch gradient
    records, _, X, y = multi_block_corpus
    cfg = TrainConfig(hidden_layers=(16,), dropout=0.15, seed=31)
    net = init_network(network_specs(X.shape[1], cfg), cfg.seed)
    parts = partition_workers(records, 2, PartitionStrategy.ROUND_ROBIN)
    results = [local_epoch(w, net, seed=7) for w in make_workers(X, y, parts, net)]
    g_full, loss_full = full_batch_gradient(net, X, y, seed=7)
    assert sum(loss for _, loss in results) == pytest.approx(loss_full, rel=1e-12)
    for layer in range(len(g_full.weights)):
        for part in ("weights", "biases"):
            full = getattr(g_full, part)[layer]
            summed = sum(getattr(g, part)[layer] for g, _ in results)
            assert np.max(np.abs(summed - full)) <= 1e-12 * np.max(np.abs(full))


def test_federated_run_copies_no_worker_rows():
    # workers hold row ids into the pooled X, so a run allocates its
    # row blocks and parameters, never a second copy of the data
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40_000, 32))
    y = rng.normal(size=40_000)
    assert X.nbytes >= 8 * 2**20
    parts = [WorkerPartition(j, tuple(range(j, 40_000, 2))) for j in range(2)]
    cfg = TrainConfig(epochs=2, tolerance=0.0, hidden_layers=(8,), workers=2, seed=1)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        run_federated(X, y, parts, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < X.nbytes / 2


def test_predict_after_training_allocates_no_block(monkeypatch):
    # training leaves the thread's workspace holding a block's expanded
    # rows (2048 x 90) and activations (2048 x 64, 1 MiB each), which
    # predict reuses: it allocates its 10,000 results and per-block index
    # arrays, 0.24 MiB at its peak.  A thread that has not trained
    # allocates the block arrays afresh.
    import fedl.sim

    monkeypatch.setattr(fedl.sim, "step_threads", lambda: 1)
    records, _, _ = synth_generate(58, 14_000, seed=3)
    schema = build_schema(records)
    X, y = encode_features(records[:4_000], schema)
    X_test, _ = encode_features(records[4_000:], schema)
    assert X.shape[1] == 90 and len(X_test) == 10_000
    model, _, _ = run_centralized(
        X, y, TrainConfig(epochs=1, hidden_layers=(64, 64), seed=1)
    )

    def predict_peak(train_first):
        peaks = []

        def body():
            if train_first:
                run_centralized(X, y, TrainConfig(epochs=1, hidden_layers=(64, 64), seed=1))
            tracemalloc.start()
            try:
                predict(model, X_test, schema)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        thread = threading.Thread(target=body)
        thread.start()
        thread.join()
        return peaks[0]

    assert predict_peak(train_first=True) < 0.5 * 2**20
    assert predict_peak(train_first=False) > 2048 * (90 + 64 + 64) * 8


def test_round_runs_one_forward_per_row_block(monkeypatch):
    import fedl.sim

    sizes = (1, STEP_BLOCK_ROWS, STEP_BLOCK_ROWS + 1, 5000)
    X, y = toy_problem(sum(sizes), 3, seed=2)
    net = init_network(network_specs(3, TrainConfig(hidden_layers=(4,))), 0)
    server = ServerState(network=net, adam=init_adam(net))
    ids = np.random.default_rng(0).permutation(len(y))
    bounds = np.cumsum(sizes)[:-1]
    workers = [WorkerState(j, X, y, s) for j, s in enumerate(np.split(ids, bounds))]
    calls = []

    def counting_forward(network, X_block, *args, **kwargs):
        calls.append(len(X_block))
        return forward(network, X_block, *args, **kwargs)

    monkeypatch.setattr(fedl.sim, "forward", counting_forward)
    run_round(server, workers, seed=0)
    assert len(calls) == sum(-(-rows // STEP_BLOCK_ROWS) for rows in sizes) == 7
    assert sorted(calls) == sorted([1, 2048, 2048, 1, 2048, 2048, 904])


@pytest.mark.parametrize("env, threads", [
    ({}, 1),  # BLAS is taken to use every core
    ({"OPENBLAS_NUM_THREADS": "1"}, 4),
    ({"OMP_NUM_THREADS": "2"}, 2),
    ({"MKL_NUM_THREADS": "3"}, 1),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4),  # the first wins
    ({"OPENBLAS_NUM_THREADS": "two", "OMP_NUM_THREADS": "2"}, 2),  # not an integer
    ({"OPENBLAS_NUM_THREADS": "0", "MKL_NUM_THREADS": "1"}, 4),  # not positive
    ({"OPENBLAS_NUM_THREADS": "16"}, 1),  # never below one thread
])
def test_step_threads_divides_cores_by_blas_threads(monkeypatch, env, threads):
    import os

    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert step_threads() == threads


def test_step_threads_counts_cores_without_an_affinity_call(monkeypatch):
    import os

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert step_threads() == 4


def test_step_threads_keep_the_callers_error_state(monkeypatch):
    import fedl.sim

    monkeypatch.setattr(fedl.sim, "step_threads", lambda: 2)
    barrier = threading.Barrier(2, timeout=10)

    def task(item):
        barrier.wait()  # so each of the two threads takes one item
        return np.geterr()["over"], threading.get_ident(), id(thread_workspace())

    with np.errstate(over="ignore"):
        results = _map_steps(task, ["a", "b"])
    assert [over for over, _, _ in results] == ["ignore", "ignore"]
    assert len({thread for _, thread, _ in results}) == 2
    assert len({workspace for _, _, workspace in results}) == 2


def test_repeated_trainings_reuse_the_step_threads_and_workspaces(monkeypatch):
    import fedl.sim

    monkeypatch.setattr(fedl.sim, "step_threads", lambda: 2)
    X, y = toy_problem(40, 5, seed=6)
    parts = [WorkerPartition(j, tuple(range(j, 40, 2))) for j in range(2)]
    cfg = TrainConfig(epochs=3, tolerance=0.0, hidden_layers=(8,), workers=2, seed=1)

    def helpers():
        return {t for t in threading.enumerate() if t.name.startswith("fedl-step")}

    workspace = thread_workspace()
    run_federated(X, y, parts, cfg)
    started = helpers()
    run_federated(X, y, parts, cfg)
    assert helpers() == started
    assert 1 <= len(started) <= max(1, _usable_cores() - 1)
    assert thread_workspace() is workspace


def _backward_poisoned_at_5_rows(network, tape, targets, workspace=None):
    """backward, except that a 5-row batch's first weight gradient holds an
    infinity."""
    g = backward(network, tape, targets, workspace=workspace)
    if len(targets) != 5:
        return g
    w0 = g.weights[0].copy()
    w0[0, 0] = np.inf
    return Gradient(weights=(w0, *g.weights[1:]), biases=g.biases)


@pytest.mark.parametrize("rows, workers, where", [(5, 0, ""), (11, 2, " on worker 1")])
def test_non_finite_gradient_behind_a_finite_loss_stops_the_run(
    monkeypatch, rows, workers, where
):
    # round-robin gives worker 1 five of the eleven rows
    import fedl.sim

    X, y = toy_problem(rows, 4)
    cfg = TrainConfig(epochs=3, tolerance=0.0, hidden_layers=(4,), seed=0)
    monkeypatch.setattr(fedl.sim, "backward", _backward_poisoned_at_5_rows)
    message = f"training gradient became non-finite at epoch 0{where}"
    with pytest.raises(FloatingPointError, match=f"^{message}$"):
        if workers:
            records = synth_generate(2, rows, seed=1)[0]
            parts = partition_workers(records, workers, PartitionStrategy.ROUND_ROBIN)
            run_federated(X, y, parts, cfg)
        else:
            run_centralized(X, y, cfg)


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
    assert all(e.payload is not Payload.DATASET for e in combined.entries)
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


@pytest.mark.parametrize("mode", list(TrainMode))
def test_clustered_skips_cluster_with_single_valued_labels(mode):
    # six stations near (56.46, -3.03) and S6 far away with one training
    # and one test record: S6 is a cluster alone, and one label admits no
    # standardization
    from fedl.data import StationInfo, TransactionRecord, split_train_test

    records, stations, _ = synth_generate(6, 300, seed=0)
    train, test = split_train_test(records, 0.8, seed=0)
    train = [*train, TransactionRecord("S6", 1, 1, 10, 7.0)]
    test = [*test, TransactionRecord("S6", 2, 1, 11, 7.0)]
    stations = [*stations, StationInfo("S6", 10.0, 10.0)]
    cc = ClusterConfig(k=2, theta_low=1, theta_high=6, seed=0)
    with pytest.warns(RuntimeWarning, match=r"cluster 1 cannot be trained \(labels"):
        result = run_clustered(
            train, test, stations, cc, mode, quick_cfg(epochs=2, workers=2)
        )
    lonely = result.clusters[1]
    assert lonely.station_ids == ("S6",)
    assert lonely.skipped and lonely.model is None and lonely.workers == 0
    assert (lonely.n_train, lonely.n_test) == (1, 1)
    assert result.uncovered_test == 1
    assert not result.clusters[0].skipped
    assert result.pooled_rmse_kwh == result.clusters[0].rmse_kwh


def test_clustered_requires_station_coordinates(small_corpus):
    records, stations, _ = small_corpus
    from fedl.data import split_train_test

    train, test = split_train_test(records, 0.8, seed=1)
    with pytest.raises(DegenerateDataError):
        run_clustered(
            train, test, stations[:-1], ClusterConfig(k=2, seed=0),
            TrainMode.CENTRAL, quick_cfg(),
        )
