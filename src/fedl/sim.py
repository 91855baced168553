"""Training pipelines: centralized, federated, and cluster-partitioned.

Three ways to fit the same network family:

* :func:`run_centralized` — all records pooled at one site (the pool's
  one-time upload is what the traffic log charges for);
* :func:`run_federated` — synchronous rounds: every worker computes a
  full-batch gradient against the current global model, the server
  averages the J gradients, applies one Adam step, and broadcasts; only
  gradient/model messages are charged, never raw data;
* :func:`run_clustered` — stations are grouped by constrained K-means
  first, then an independent centralized or federated model is trained
  per cluster.

Determinism contract: given (config, seed) every run is bit-reproducible.
Worker gradients may be computed in parallel threads, but reduction always
happens in ascending worker-id order, so parallel equals serial bit for
bit.  With one worker the federated trajectory is bit-identical to the
centralized one.

Traffic sizing is fixed and documented: a gradient or model message costs
``parameter_count * 8 + 64`` bytes (payload plus header); one encoded
record costs ``width * 8 + 8`` bytes (features plus label).
"""

from __future__ import annotations

import enum
import warnings
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .clustering import ClusterAssignment, ClusterConfig, constrained_kmeans
from .data import (
    EncodingSchema,
    PartitionStrategy,
    StationInfo,
    TransactionRecord,
    WorkerPartition,
    build_schema,
    encode_features,
    partition_workers,
)
from .errors import (
    DegenerateDataError,
    ShapeError,
    StalenessError,
)
from .metrics import rmse
from .nn import (
    Activation,
    AdamState,
    Gradient,
    LayerSpec,
    Mode,
    Network,
    adam_step,
    backward,
    forward,
    init_adam,
    init_network,
    predict,
    sse_loss,
)
from .rng import fold_seed

HEADER_BYTES = 64
VALUE_BYTES = 8
LABEL_BYTES = 8


def message_bytes(parameter_count: int) -> int:
    """Size of one gradient or model message."""
    return parameter_count * VALUE_BYTES + HEADER_BYTES


def record_bytes(width: int) -> int:
    """Size of one encoded record (features + label)."""
    return width * VALUE_BYTES + LABEL_BYTES


def dataset_bytes(rows: int, width: int) -> int:
    return rows * record_bytes(width)


class TrainMode(enum.Enum):
    CENTRAL = "central"
    FEDERATED = "federated"


class Direction(enum.Enum):
    UP = "up"
    DOWN = "down"


class Payload(enum.Enum):
    DATASET = "dataset"
    GRADIENT = "gradient"
    MODEL = "model"


@dataclass(frozen=True)
class TrafficEntry:
    epoch: int
    direction: Direction
    payload: Payload
    n_bytes: int

    def __post_init__(self) -> None:
        if self.n_bytes <= 0:
            raise ValueError(f"traffic entries must carry bytes, got {self.n_bytes}")


class TrafficLog:
    """Append-only log of simulated transfers."""

    def __init__(self, entries: Iterable[TrafficEntry] = ()) -> None:
        self._entries: list[TrafficEntry] = list(entries)

    def append(self, entry: TrafficEntry) -> None:
        self._entries.append(entry)

    @property
    def entries(self) -> tuple[TrafficEntry, ...]:
        return tuple(self._entries)

    def total_bytes(
        self,
        direction: Direction | None = None,
        payload: Payload | None = None,
    ) -> int:
        return sum(
            e.n_bytes
            for e in self._entries
            if (direction is None or e.direction is direction)
            and (payload is None or e.payload is payload)
        )

    def to_rows(self) -> list[tuple[int, str, str, int]]:
        return [
            (e.epoch, e.direction.value, e.payload.value, e.n_bytes)
            for e in self._entries
        ]

    @staticmethod
    def from_rows(rows: Iterable[Sequence]) -> "TrafficLog":
        log = TrafficLog()
        for epoch, direction, payload, n_bytes in rows:
            log.append(
                TrafficEntry(
                    epoch=int(epoch),
                    direction=Direction(direction),
                    payload=Payload(payload),
                    n_bytes=int(n_bytes),
                )
            )
        return log


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters shared by every pipeline."""

    epochs: int = 200
    tolerance: float = 1e-6  # relative loss change considered "no movement"
    patience: int = 5  # consecutive quiet epochs required to stop
    step_size: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    hidden_layers: tuple[int, ...] = (64, 64)
    dropout: float = 0.15
    workers: int = 4
    partition: PartitionStrategy = PartitionStrategy.BY_STATION
    mode: TrainMode = TrainMode.CENTRAL
    parallel: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_layers", tuple(self.hidden_layers))
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0 (0 disables early stopping)")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must be in [0, 1)")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if any(h < 1 for h in self.hidden_layers):
            raise ValueError("hidden layer widths must be >= 1")


def network_specs(input_width: int, config: TrainConfig) -> tuple[LayerSpec, ...]:
    """Layer stack for this config: tanh hidden layers (dropout after the
    last one), identity output of width 1."""
    specs: list[LayerSpec] = []
    prev = input_width
    for i, width in enumerate(config.hidden_layers):
        is_last_hidden = i == len(config.hidden_layers) - 1
        specs.append(
            LayerSpec(
                input_width=prev,
                output_width=width,
                activation=Activation.TANH,
                dropout=config.dropout if is_last_hidden else 0.0,
            )
        )
        prev = width
    specs.append(
        LayerSpec(input_width=prev, output_width=1, activation=Activation.IDENTITY)
    )
    return tuple(specs)


@dataclass
class WorkerState:
    """A simulated training site: its slice of the data plus the model
    replica it currently holds."""

    worker_id: int
    X: np.ndarray
    y: np.ndarray
    sample_ids: np.ndarray  # global row ids, drive the dropout masks
    model: Network
    model_version: int = 0

    def __post_init__(self) -> None:
        if self.X.shape[0] == 0:
            raise DegenerateDataError(f"worker {self.worker_id} has no records")
        if self.X.shape[0] != self.y.shape[0] or self.X.shape[0] != len(
            self.sample_ids
        ):
            raise ShapeError("worker dataset arrays disagree on row count")


@dataclass(frozen=True)
class RoundReport:
    epoch: int
    global_loss: float
    worker_losses: tuple[float, ...]
    staleness: int
    bytes_up: int
    bytes_down: int

    def __post_init__(self) -> None:
        if self.staleness != 0:
            raise StalenessError(
                f"synchronous rounds require staleness 0, got {self.staleness}"
            )


@dataclass
class ServerState:
    network: Network
    adam: AdamState
    version: int = 0
    traffic: TrafficLog = field(default_factory=TrafficLog)
    parallel: bool = False  # thread-pool worker execution; output is bit-identical


def _grad_and_loss(
    network: Network, X: np.ndarray, y: np.ndarray, sample_ids, seed: int
) -> tuple[Gradient, float]:
    out, tape = forward(network, X, mode=Mode.TRAIN, seed=seed, sample_ids=sample_ids)
    loss = sse_loss(out[:, 0], y)
    return backward(network, tape, y), loss


def local_epoch(
    worker: WorkerState, global_model: Network, seed: int
) -> tuple[Gradient, float]:
    """One full-batch pass on the worker's slice against the given global
    model.  Returns (exact gradient, local loss); mutates nothing."""
    if worker.X.shape[1] != global_model.input_width:
        raise ShapeError(
            f"worker {worker.worker_id} data width {worker.X.shape[1]} does not "
            f"match model input width {global_model.input_width}"
        )
    return _grad_and_loss(global_model, worker.X, worker.y, worker.sample_ids, seed)


def aggregate_gradients(grads: Sequence[Gradient]) -> Gradient:
    """Elementwise mean of worker gradients, reduced in the order given
    (``run_round`` passes them in ascending worker-id order)."""
    if not grads:
        raise ValueError("cannot aggregate zero gradients")
    first = grads[0]
    for g in grads[1:]:
        if len(g.weights) != len(first.weights) or any(
            gw.shape != fw.shape or gb.shape != fb.shape
            for gw, fw, gb, fb in zip(g.weights, first.weights, g.biases, first.biases)
        ):
            raise ShapeError("gradient shapes differ across workers")
    j = float(len(grads))
    sum_w = [w.copy() for w in first.weights]
    sum_b = [b.copy() for b in first.biases]
    for g in grads[1:]:
        for layer in range(len(sum_w)):
            sum_w[layer] += g.weights[layer]
            sum_b[layer] += g.biases[layer]
    return Gradient(
        weights=tuple(w / j for w in sum_w),
        biases=tuple(b / j for b in sum_b),
    )


def run_round(
    server: ServerState, workers: Sequence[WorkerState], seed: int
) -> RoundReport:
    """One synchronous round: J local gradients against the same model
    version, mean-aggregate, one Adam step, broadcast.

    The barrier is structural — aggregation happens only after every
    worker's gradient for the current version is in hand, so staleness is
    0 by construction (and asserted in the report).
    """
    for w in workers:
        if w.model_version != server.version:
            raise StalenessError(
                f"worker {w.worker_id} holds model version {w.model_version}, "
                f"server is at {server.version}"
            )
    order = sorted(workers, key=lambda w: w.worker_id)
    if len({w.worker_id for w in order}) != len(order):
        raise ValueError("worker ids must be unique")

    if len(order) > 1 and server.parallel:
        with ThreadPoolExecutor(max_workers=len(order)) as pool:
            futures = [
                pool.submit(local_epoch, w, server.network, seed) for w in order
            ]
            results = [f.result() for f in futures]
    else:
        results = [local_epoch(w, server.network, seed) for w in order]
    grads = [g for g, _ in results]
    losses = tuple(loss for _, loss in results)
    staleness = max(server.version - w.model_version for w in workers)

    aggregated = aggregate_gradients(grads)
    server.adam, server.network = adam_step(server.adam, server.network, aggregated)
    epoch = server.version
    server.version += 1
    for w in workers:
        w.model = server.network
        w.model_version = server.version

    per_message = message_bytes(server.network.parameter_count)
    for _ in order:
        server.traffic.append(
            TrafficEntry(epoch, Direction.UP, Payload.GRADIENT, per_message)
        )
    for _ in order:
        server.traffic.append(
            TrafficEntry(epoch, Direction.DOWN, Payload.MODEL, per_message)
        )
    return RoundReport(
        epoch=epoch,
        global_loss=float(sum(losses)),
        worker_losses=losses,
        staleness=staleness,
        bytes_up=per_message * len(order),
        bytes_down=per_message * len(order),
    )


def convergence_check(
    history: Sequence[float], tolerance: float, patience: int
) -> bool:
    """True iff the relative loss change stayed below ``tolerance`` for
    ``patience`` consecutive epochs.  tolerance=0 never triggers."""
    if len(history) < patience + 1:
        return False
    for i in range(len(history) - patience, len(history)):
        prev = history[i - 1]
        rel = abs(history[i] - prev) / max(prev, 1e-12)
        if not rel < tolerance:
            return False
    return True


EpochCallback = Callable[[int, Network], None]
EpochStep = Callable[[ServerState, int], RoundReport]


def _train(
    input_width: int,
    config: TrainConfig,
    on_epoch: EpochCallback | None,
    step: EpochStep,
) -> tuple[Network, list[RoundReport], TrafficLog]:
    """The loop every pipeline shares.

    Initialises the network and Adam from ``config``, then runs
    ``step(server, epoch_seed)`` once per epoch until every site's loss
    settles (per convergence_check) or the epoch budget runs out.  The
    sites are the report's workers, or the one central site when it has
    none.  A non-finite loss raises FloatingPointError naming the epoch.
    """
    network = init_network(network_specs(input_width, config), config.seed)
    adam = init_adam(
        network,
        step_size=config.step_size,
        beta1=config.beta1,
        beta2=config.beta2,
        epsilon=config.epsilon,
    )
    server = ServerState(network=network, adam=adam, parallel=config.parallel)
    reports: list[RoundReport] = []
    histories: defaultdict[int, list[float]] = defaultdict(list)
    for epoch in range(config.epochs):
        report = step(server, fold_seed(config.seed, epoch))
        reports.append(report)
        losses = report.worker_losses or (report.global_loss,)
        if not np.isfinite(losses).all():
            raise FloatingPointError(
                f"training loss became non-finite at epoch {epoch}: "
                f"{report.global_loss!r}"
            )
        for site, loss in enumerate(losses):
            histories[site].append(loss)
        if on_epoch is not None:
            on_epoch(epoch, server.network)
        if all(
            convergence_check(history, config.tolerance, config.patience)
            for history in histories.values()
        ):
            break
    return server.network, reports, server.traffic


def run_centralized(
    X: np.ndarray,
    y: np.ndarray,
    config: TrainConfig,
    on_epoch: EpochCallback | None = None,
) -> tuple[Network, list[RoundReport], TrafficLog]:
    """All data pooled at one site: full-batch Adam until the loss settles
    (per convergence_check) or the epoch budget runs out.

    The traffic log contains the single upfront dataset upload; training
    itself moves no bytes.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DegenerateDataError("centralized training needs a nonempty 2-d X")
    if y.shape != (X.shape[0],):
        raise ShapeError(f"labels shape {y.shape} does not match {X.shape[0]} rows")
    ids = np.arange(X.shape[0], dtype=np.int64)

    def step(server: ServerState, seed: int) -> RoundReport:
        grad, loss = _grad_and_loss(server.network, X, y, ids, seed)
        server.adam, server.network = adam_step(server.adam, server.network, grad)
        server.version += 1
        return RoundReport(
            epoch=server.version - 1,
            global_loss=loss,
            worker_losses=(),
            staleness=0,
            bytes_up=0,
            bytes_down=0,
        )

    network, reports, _ = _train(X.shape[1], config, on_epoch, step)
    upload = TrafficEntry(
        0, Direction.UP, Payload.DATASET, dataset_bytes(X.shape[0], X.shape[1])
    )
    return network, reports, TrafficLog([upload])


def make_workers(
    X: np.ndarray,
    y: np.ndarray,
    partitions: Sequence[WorkerPartition],
    model: Network,
) -> list[WorkerState]:
    """Materialize worker slices from partition indices."""
    workers = []
    for p in partitions:
        idx = np.asarray(p.record_indices, dtype=np.int64)
        workers.append(
            WorkerState(
                worker_id=p.worker_id,
                X=X[idx],
                y=y[idx],
                sample_ids=idx,
                model=model,
                model_version=0,
            )
        )
    return workers


def run_federated(
    X: np.ndarray,
    y: np.ndarray,
    partitions: Sequence[WorkerPartition],
    config: TrainConfig,
    on_epoch: EpochCallback | None = None,
) -> tuple[Network, list[RoundReport], TrafficLog]:
    """Synchronous federated training over the given worker partitions.

    Stops when every worker's local loss satisfies convergence_check, or
    at the epoch budget.  Raw records never appear in the traffic log.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not partitions:
        raise DegenerateDataError("need at least one worker partition")
    workers: list[WorkerState] = []

    def step(server: ServerState, seed: int) -> RoundReport:
        if not workers:  # the sites start from the network _train initialised
            workers.extend(make_workers(X, y, partitions, server.network))
        return run_round(server, workers, seed)

    return _train(X.shape[1], config, on_epoch, step)


@dataclass(frozen=True)
class ClusterRunResult:
    cluster_id: int
    station_ids: tuple[str, ...]
    skipped: bool
    n_train: int
    n_test: int
    model: Network | None
    schema: EncodingSchema | None
    reports: tuple[RoundReport, ...]
    traffic: TrafficLog | None
    rmse_kwh: float | None
    workers: int  # sites that trained the model: J_k federated, 1 central, 0 skipped


@dataclass(frozen=True)
class ClusteredResult:
    assignment: ClusterAssignment
    clusters: tuple[ClusterRunResult, ...]
    pooled_rmse_kwh: float | None
    uncovered_test: int  # test records whose cluster had no training data

    def combined_traffic(self) -> TrafficLog:
        log = TrafficLog()
        for c in self.clusters:
            if c.traffic is not None:
                for entry in c.traffic.entries:
                    log.append(entry)
        return log


def run_clustered(
    train_records: Sequence[TransactionRecord],
    test_records: Sequence[TransactionRecord],
    stations: Sequence[StationInfo],
    cluster_config: ClusterConfig,
    inner_mode: TrainMode,
    config: TrainConfig,
    include_transaction_id: bool = True,
) -> ClusteredResult:
    """Group stations first, then train one independent model per cluster.

    Transactions follow their station's cluster.  A cluster without
    training transactions is skipped with a warning; its test records are
    counted as uncovered and excluded from the pooled RMSE.  A federated
    cluster trains on J_k = min(J, shards its partition can fill) workers:
    its distinct training stations under by_station, its training records
    under round_robin.
    """
    known = {s.station_id for s in stations}
    referenced = {r.station_id for r in train_records} | {
        r.station_id for r in test_records
    }
    missing = sorted(referenced - known)
    if missing:
        raise DegenerateDataError(
            f"no coordinates for stations: {', '.join(missing)}"
        )
    assignment = constrained_kmeans(stations, cluster_config)
    labels = assignment.labels
    station_cluster = {s.station_id: int(labels[i]) for i, s in enumerate(stations)}

    results: list[ClusterRunResult] = []
    pooled_actual: list[np.ndarray] = []
    pooled_pred: list[np.ndarray] = []
    uncovered = 0
    for k in range(cluster_config.k):
        train_k = [r for r in train_records if station_cluster[r.station_id] == k]
        test_k = [r for r in test_records if station_cluster[r.station_id] == k]
        assigned = tuple(
            sorted(s.station_id for s in stations if station_cluster[s.station_id] == k)
        )
        if not train_k:
            warnings.warn(
                f"cluster {k} has no training transactions; skipping its model",
                RuntimeWarning,
                stacklevel=2,
            )
            uncovered += len(test_k)
            results.append(
                ClusterRunResult(
                    cluster_id=k,
                    station_ids=assigned,
                    skipped=True,
                    n_train=0,
                    n_test=len(test_k),
                    model=None,
                    schema=None,
                    reports=(),
                    traffic=None,
                    rmse_kwh=None,
                    workers=0,
                )
            )
            continue
        vocab = sorted(
            {r.station_id for r in train_k} | {r.station_id for r in test_k}
        )
        schema = build_schema(
            train_k, include_transaction_id, station_vocabulary=vocab
        )
        X_train, y_train = encode_features(train_k, schema)
        if inner_mode is TrainMode.FEDERATED:
            if config.partition is PartitionStrategy.BY_STATION:
                shards = len({r.station_id for r in train_k})
            else:
                shards = len(train_k)
            parts = partition_workers(
                train_k, min(config.workers, shards), config.partition
            )
            model, reports, traffic = run_federated(X_train, y_train, parts, config)
            sites = len(parts)
        else:
            model, reports, traffic = run_centralized(X_train, y_train, config)
            sites = 1
        cluster_rmse = None
        if test_k:
            X_test, _ = encode_features(test_k, schema)
            predictions = predict(model, X_test, schema)
            actual = np.array([r.energy_kwh for r in test_k], dtype=np.float64)
            cluster_rmse = rmse(actual, predictions)
            pooled_actual.append(actual)
            pooled_pred.append(predictions)
        results.append(
            ClusterRunResult(
                cluster_id=k,
                station_ids=assigned,
                skipped=False,
                n_train=len(train_k),
                n_test=len(test_k),
                model=model,
                schema=schema,
                reports=tuple(reports),
                traffic=traffic,
                rmse_kwh=cluster_rmse,
                workers=sites,
            )
        )
    pooled = None
    if pooled_actual:
        pooled = rmse(np.concatenate(pooled_actual), np.concatenate(pooled_pred))
    return ClusteredResult(
        assignment=assignment,
        clusters=tuple(results),
        pooled_rmse_kwh=pooled,
        uncovered_test=uncovered,
    )
