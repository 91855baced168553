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

Central and federated epochs take the one training step :func:`_descend`
(central is its one-site case); the two differ only in their ledger.

Determinism contract: given (config, seed) every run is bit-reproducible.
A round is a list of independent tasks, one per (site, block of at most
:data:`STEP_BLOCK_ROWS` consecutive entries of the site's row ids), run on
the calling thread and on helper threads that last for the process, each
thread with one workspace of its own.  Every site, the central one too,
reads each block's rows and labels by their ids into that workspace.  A
site's gradient and loss are its blocks' results summed in block order,
and sites are reduced in ascending worker-id order, so the output is the
same bits for any thread count.  A site of one block gets exactly its
whole-batch gradient, and with one worker the federated trajectory is
bit-identical to the centralized one.

Traffic sizing is fixed and documented: a gradient or model message costs
``parameter_count * 8 + 64`` bytes (payload plus header); one encoded
record costs ``width * 8 + 8`` bytes (features plus label).
"""

from __future__ import annotations

import contextvars
import enum
import itertools
import math
import os
import threading
import warnings
from collections import defaultdict
from concurrent import futures
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .clustering import ClusterAssignment, ClusterConfig, constrained_kmeans
from .data import (
    EncodedFeatures,
    EncodingSchema,
    PartitionStrategy,
    StationInfo,
    TransactionRecord,
    Transactions,
    WorkerPartition,
    build_schema,
    encode_features,
    partition_workers,
    stable_order,
)
from .errors import (
    DegenerateDataError,
    ShapeError,
    StalenessError,
)
from .metrics import rmse
from .nn import (
    STEP_BLOCK_ROWS,
    Activation,
    AdamState,
    Gradient,
    LayerSpec,
    Mode,
    Network,
    adam_step,
    as_features,
    backward,
    forward,
    init_adam,
    init_network,
    predict,
    sse_loss,
    take_rows,
    thread_workspace,
)
from .rng import fold_seed

HEADER_BYTES = 64
VALUE_BYTES = 8
LABEL_BYTES = 8
# An epoch whose loss is more than this many times epoch 0's stops the run:
# training runs peak at epoch 0, and a run at ten times the default step
# size peaks near 21 times it before it converges.
DIVERGED_LOSS_RATIO = 100.0


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


@dataclass(frozen=True, slots=True)
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

    HEADER = ("epoch", "direction", "payload", "bytes")  # to_rows's and from_rows's columns

    def __init__(self, entries: Iterable[TrafficEntry] = ()) -> None:
        self._entries: list[TrafficEntry] = list(entries)

    def append(self, entry: TrafficEntry) -> None:
        self._entries.append(entry)

    @property
    def entries(self) -> tuple[TrafficEntry, ...]:
        return tuple(self._entries)

    def total_bytes(self) -> int:
        return sum(e.n_bytes for e in self._entries)

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
    hidden_layers: tuple[int, ...] = (64, 64)
    dropout: float = 0.15
    workers: int = 4
    partition: PartitionStrategy = PartitionStrategy.BY_STATION
    mode: TrainMode = TrainMode.CENTRAL
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_layers", tuple(self.hidden_layers))
        object.__setattr__(self, "partition", PartitionStrategy(self.partition))
        object.__setattr__(self, "mode", TrainMode(self.mode))
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (0 <= self.tolerance < math.inf):
            raise ValueError("tolerance must be finite and >= 0 (0 disables early stopping)")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must be in [0, 1)")
        if not (0 < self.step_size < math.inf):
            raise ValueError("step_size must be positive and finite")
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
    """A simulated training site: the ids of its rows in the pooled data.

    ``X`` (an ndarray or EncodedFeatures) and ``y`` are the pooled data
    every site shares, not copies of this site's rows; ``sample_ids`` are
    the global ids of the site's rows.  They select the rows the site
    trains on, and they drive its dropout masks.
    """

    worker_id: int
    X: np.ndarray | EncodedFeatures
    y: np.ndarray
    sample_ids: np.ndarray  # global row ids into X and y, in training order

    def __post_init__(self) -> None:
        if self.y.shape != (self.X.shape[0],):
            raise ShapeError(f"labels shape {self.y.shape} does not match {self.X.shape[0]} rows")
        ids = np.asarray(self.sample_ids)
        if ids.ndim != 1 or ids.dtype.kind not in "iu":
            raise ShapeError(
                f"worker {self.worker_id} row ids must be a 1-d integer array, "
                f"got {ids.dtype} of shape {ids.shape}"
            )
        if len(ids) == 0:
            raise DegenerateDataError(f"worker {self.worker_id} has no records")
        # the rows are gathered with np.take(mode="clip"), which would
        # silently read the wrong row for an id outside the pooled data
        if ids.min() < 0 or ids.max() >= self.X.shape[0]:
            raise ShapeError(
                f"worker {self.worker_id} row ids must lie in "
                f"[0, {self.X.shape[0]}), got [{ids.min()}, {ids.max()}]"
            )


@dataclass(frozen=True, slots=True)
class RoundReport:
    epoch: int
    global_loss: float
    worker_losses: tuple[float, ...] = ()  # the defaults are a central step's
    staleness: int = 0
    bytes_up: int = 0
    bytes_down: int = 0

    def __post_init__(self) -> None:
        if self.staleness != 0:
            raise StalenessError(
                f"synchronous rounds require staleness 0, got {self.staleness}"
            )


@dataclass
class ServerState:
    """The global model, its optimiser and the run's traffic.  The model's
    version is ``adam.steps``: each round or central step advances it by
    one Adam update."""

    network: Network
    adam: AdamState
    traffic: TrafficLog = field(default_factory=TrafficLog)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def step_threads() -> int:
    """Threads a training run may give its steps: the usable cores divided
    by the threads each BLAS call already takes, and at least 1.

    The BLAS thread count is the first of ``OPENBLAS_NUM_THREADS``,
    ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` that holds a positive
    integer.  With none set, BLAS is taken to use every core, so the steps
    get one thread and never compete with BLAS for the cores.
    """
    cores = _usable_cores()
    blas = cores
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            value = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if value > 0:
            blas = value
            break
    return max(1, cores // blas)


# Step helper threads, started on first use and kept for the process.  The
# cap matters: a submit that comes before a finished helper marks itself
# idle starts one more thread, and each thread keeps its workspace
# (nn.thread_workspace).
_helpers = ThreadPoolExecutor(max(1, _usable_cores() - 1), thread_name_prefix="fedl-step")


def _map_steps(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]`` on ``min(len(items), step_threads())``
    threads: the caller and helpers.  Each thread takes the next item not
    yet taken until none is left; helpers run in a copy of the caller's
    context, so they keep its numpy error state."""
    results = [None] * len(items)
    taken = itertools.count()
    lock = threading.Lock()

    def drain() -> None:
        while True:
            with lock:
                i = next(taken)
            if i >= len(items):
                return
            results[i] = fn(items[i])

    helpers = [
        _helpers.submit(contextvars.copy_context().run, drain)
        for _ in range(min(len(items), step_threads()) - 1)
    ]
    try:
        drain()
    finally:
        futures.wait(helpers)
    for helper in helpers:
        helper.result()
    return results


def _summed(grads: Sequence[Gradient]) -> np.ndarray:
    """Elementwise sum of ``grads``' vectors in the order given, starting
    from a copy of the first (not from zeros, which would change signed
    zeros); one gradient's own vector when there is nothing to add."""
    if len(grads) == 1:
        return grads[0].params
    total = grads[0].params.copy()
    for g in grads[1:]:
        total += g.params
    return total


def _site_gradients(
    network: Network, X: np.ndarray | EncodedFeatures, y: np.ndarray,
    sites: Sequence[np.ndarray], seed: int,
) -> list[tuple[Gradient, float]]:
    """Each site's exact gradient and SSE loss at ``network``.  A site is
    the global ids of its rows in the pooled ``X`` and ``y``.

    Every (site, row block) is one task of :func:`_map_steps`, and each
    task reads its rows by their ids with :func:`fedl.nn.take_rows` into
    the thread's workspace, expanded from EncodedFeatures or gathered from
    an ndarray, and gathers its labels beside them.  A site's gradient and
    loss are its blocks' results summed in block order, so they do not
    depend on the thread count.  The ids must lie in range (WorkerState
    checks them): the gathers clip, because a checked gather buffers its
    output.
    """
    # each site's block starts: blocks of at most STEP_BLOCK_ROWS ids
    blocks = [range(0, len(ids), STEP_BLOCK_ROWS) for ids in sites]
    tasks = [(ids, start) for ids, starts in zip(sites, blocks) for start in starts]

    def block_step(task) -> tuple[Gradient, float]:
        sample_ids, start = task
        ids = sample_ids[start : start + STEP_BLOCK_ROWS]
        workspace = thread_workspace()
        y_block = np.take(
            y, ids, mode="clip", out=workspace.take(("labels",), ids.shape, y.dtype)
        )
        out, tape = forward(
            network, take_rows(X, ids, workspace), mode=Mode.TRAIN, seed=seed,
            sample_ids=ids, workspace=workspace,
        )
        loss = sse_loss(out[:, 0], y_block)
        return backward(network, tape, y_block, workspace=workspace), loss

    results = iter(_map_steps(block_step, tasks))
    sums = []
    for starts in blocks:
        grads, losses = zip(*itertools.islice(results, len(starts)))
        loss = losses[0]
        for block_loss in losses[1:]:
            loss += block_loss
        sums.append((Gradient(network.specs, _summed(grads)), loss))
    return sums


def local_epoch(
    worker: WorkerState, global_model: Network, seed: int
) -> tuple[Gradient, float]:
    """One full-batch pass on the worker's slice against the given global
    model, in row blocks summed in block order, as a round computes it.
    Returns (exact gradient, local loss); mutates nothing else."""
    if worker.X.shape[1] != global_model.input_width:
        raise ShapeError(
            f"worker {worker.worker_id} data width {worker.X.shape[1]} does not "
            f"match model input width {global_model.input_width}"
        )
    return _site_gradients(global_model, worker.X, worker.y, [worker.sample_ids], seed)[0]


def aggregate_gradients(grads: Sequence[Gradient]) -> Gradient:
    """Elementwise mean of worker gradients, reduced in the order given
    (``run_round`` passes them in ascending worker-id order)."""
    if not grads:
        raise ValueError("cannot aggregate zero gradients")
    specs = grads[0].specs
    if any(g.specs != specs for g in grads[1:]):
        raise ShapeError("gradient shapes differ across workers")
    return Gradient(specs, _summed(grads) / float(len(grads)))


def _descend(
    server: ServerState, X: np.ndarray | EncodedFeatures, y: np.ndarray,
    sites: Sequence[np.ndarray], seed: int, worker_ids: Sequence,
) -> tuple[float, ...]:
    """The training step: the sites' gradients at the server's model, their
    mean (for one site exactly its gradient) and one Adam step; returns the
    sites' losses.  First, a finite loss behind a non-finite gradient raises
    FloatingPointError naming the epoch and worker (None: the central site);
    then so does a non-finite loss, showing the summed loss."""
    epoch = server.adam.steps
    results = _site_gradients(server.network, X, y, sites, seed)
    for (grad, loss), worker in zip(results, worker_ids):
        if math.isfinite(loss) and not np.isfinite(grad.params).all():
            where = "" if worker is None else f" on worker {worker}"
            raise FloatingPointError(
                f"training gradient became non-finite at epoch {epoch}{where}"
            )
    losses = tuple(loss for _, loss in results)
    if not np.isfinite(losses).all():
        raise FloatingPointError(
            f"training loss became non-finite at epoch {epoch}: {sum(losses)!r}"
        )
    aggregated = aggregate_gradients([g for g, _ in results])
    server.adam, server.network = adam_step(server.adam, server.network, aggregated)
    return losses


def run_round(
    server: ServerState,
    workers: Sequence[WorkerState],
    seed: int,
) -> RoundReport:
    """One synchronous round: J local gradients at the server's current
    model (their row blocks split among the step threads), mean-aggregate,
    one Adam step (:func:`_descend`), broadcast.

    The barrier is structural — every gradient is taken at
    ``server.network`` and aggregated only once all are in hand, so the
    workers carry no model version and the report's staleness is its
    default, 0.  The workers must share one pooled ``X`` and ``y``;
    :func:`forward` rejects a wrong width.
    """
    version = server.adam.steps
    order = sorted(workers, key=lambda w: w.worker_id)
    if len({w.worker_id for w in order}) != len(order):
        raise ValueError("worker ids must be unique")
    if not order or any(w.X is not order[0].X or w.y is not order[0].y for w in order):
        raise ValueError("a round needs workers that share one pooled X and y")

    losses = _descend(
        server, order[0].X, order[0].y, [w.sample_ids for w in order], seed,
        [w.worker_id for w in order],
    )

    per_message = message_bytes(server.network.parameter_count)
    for _ in order:
        server.traffic.append(
            TrafficEntry(version, Direction.UP, Payload.GRADIENT, per_message)
        )
    for _ in order:
        server.traffic.append(
            TrafficEntry(version, Direction.DOWN, Payload.MODEL, per_message)
        )
    return RoundReport(
        epoch=version,
        global_loss=float(sum(losses)),
        worker_losses=losses,
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
    none.  The step runs with numpy's overflow warnings off, so a
    FloatingPointError is the only report of a diverging run: the one
    :func:`_descend` raises for a non-finite loss or gradient, or the one
    raised here, naming the epoch and both losses, for an epoch whose loss
    is more than :data:`DIVERGED_LOSS_RATIO` times epoch 0's.
    """
    network = init_network(network_specs(input_width, config), config.seed)
    adam = init_adam(network, step_size=config.step_size)
    reports: list[RoundReport] = []
    histories: defaultdict[int, list[float]] = defaultdict(list)
    server = ServerState(network=network, adam=adam)
    for epoch in range(config.epochs):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            report = step(server, fold_seed(config.seed, epoch))
        reports.append(report)
        if report.global_loss > DIVERGED_LOSS_RATIO * reports[0].global_loss:
            raise FloatingPointError(
                f"training diverged at epoch {epoch}: loss {report.global_loss!r} is more "
                f"than {DIVERGED_LOSS_RATIO:g} times epoch 0's {reports[0].global_loss!r}"
            )
        for site, loss in enumerate(report.worker_losses or (report.global_loss,)):
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
    X: np.ndarray | EncodedFeatures,
    y: np.ndarray,
    config: TrainConfig,
    on_epoch: EpochCallback | None = None,
) -> tuple[Network, list[RoundReport], TrafficLog]:
    """All data pooled at one site: full-batch Adam until the loss settles
    (per convergence_check) or the epoch budget runs out.

    The traffic log contains the single upfront dataset upload; training
    itself moves no bytes.
    """
    X = as_features(X)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DegenerateDataError("centralized training needs a nonempty 2-d X")
    if y.shape != (X.shape[0],):
        raise ShapeError(f"labels shape {y.shape} does not match {X.shape[0]} rows")
    sites = [np.arange(X.shape[0], dtype=np.int64)]

    def step(server: ServerState, seed: int) -> RoundReport:
        epoch = server.adam.steps
        (loss,) = _descend(server, X, y, sites, seed, [None])
        return RoundReport(epoch, loss)

    network, reports, _ = _train(X.shape[1], config, on_epoch, step)
    upload = TrafficEntry(
        0, Direction.UP, Payload.DATASET, dataset_bytes(X.shape[0], X.shape[1])
    )
    return network, reports, TrafficLog([upload])


def make_workers(
    X: np.ndarray | EncodedFeatures,
    y: np.ndarray,
    partitions: Sequence[WorkerPartition],
    model: Network,
) -> list[WorkerState]:
    """One worker per partition, holding its record indices as row ids into
    the pooled ``X`` and ``y`` (no rows are copied); ``X`` must have
    ``model``'s input width."""
    if X.shape[1] != model.input_width:
        raise ShapeError(f"data width {X.shape[1]} != model input width {model.input_width}")
    return [WorkerState(p.worker_id, X, y, p.record_indices) for p in partitions]


def run_federated(
    X: np.ndarray | EncodedFeatures,
    y: np.ndarray,
    partitions: Sequence[WorkerPartition],
    config: TrainConfig,
    on_epoch: EpochCallback | None = None,
) -> tuple[Network, list[RoundReport], TrafficLog]:
    """Synchronous federated training over the given worker partitions.

    Stops when every worker's local loss satisfies convergence_check, or
    at the epoch budget.  Raw records never appear in the traffic log.
    """
    X = as_features(X)
    y = np.asarray(y, dtype=np.float64)
    if not partitions:
        raise DegenerateDataError("need at least one worker partition")
    workers = [WorkerState(p.worker_id, X, y, p.record_indices) for p in partitions]

    def step(server: ServerState, seed: int) -> RoundReport:
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
    uncovered_test: int  # test records whose cluster was skipped

    def combined_traffic(self) -> TrafficLog:
        log = TrafficLog()
        for c in self.clusters:
            if c.traffic is not None:
                for entry in c.traffic.entries:
                    log.append(entry)
        return log


def by_cluster(
    records: Transactions | Iterable[TransactionRecord],
    cluster_of: Mapping[str, int],
    k: int,
) -> list[Transactions]:
    """``records`` split into ``k`` groups by ``cluster_of[station_id]``,
    each group in input order.  A station missing from ``cluster_of``
    raises KeyError, a cluster id outside [0, k) ValueError."""
    records = Transactions.of(records)
    labels = [cluster_of.get(sid, -1) for sid in records.vocabulary]
    label = np.array(labels, dtype=np.int64)[records.station]
    if (label < 0).any():
        raise KeyError(records[int(np.argmax(label < 0))].station_id)
    if (label >= k).any():
        raise ValueError(f"cluster id {label.max()} is outside [0, {k})")
    # a stable sort keeps each group in input order
    bounds = np.cumsum(np.bincount(label, minlength=k))[:-1]
    return [records.take(rows) for rows in np.split(stable_order(label, k), bounds)]


def score(
    model: Network, schema: EncodingSchema,
    records: Transactions | Iterable[TransactionRecord],
) -> tuple[np.ndarray, np.ndarray]:
    """(actual kWh, predicted kWh) of ``model`` on ``records``."""
    records = Transactions.of(records)
    X, _ = encode_features(records, schema)
    return records.energy_kwh, predict(model, X, schema)


def pooled_rmse(scored: Sequence[tuple[np.ndarray, np.ndarray]]) -> float | None:
    """RMSE over the (actual, predicted) pairs concatenated in the order
    given; None when there are none."""
    if not scored:
        return None
    actual, predicted = zip(*scored)
    return rmse(np.concatenate(actual), np.concatenate(predicted))


def run_clustered(
    train_records: Transactions | Iterable[TransactionRecord],
    test_records: Transactions | Iterable[TransactionRecord],
    stations: Sequence[StationInfo],
    cluster_config: ClusterConfig,
    inner_mode: TrainMode,
    config: TrainConfig,
    include_transaction_id: bool = True,
    assignment: ClusterAssignment | None = None,
) -> ClusteredResult:
    """Group stations first, by ``assignment`` when it is given (it must be
    ``constrained_kmeans(stations, cluster_config)``), then train one
    independent model per cluster.

    Transactions follow their station's cluster.  A cluster without
    training transactions, or whose training labels admit no schema
    (single-valued, say), is skipped with a warning; its test records are
    counted as uncovered and excluded from the pooled RMSE.  When every
    cluster is skipped, DegenerateDataError names each one's reason.  A
    federated cluster trains on J_k = min(J, shards its partition can fill)
    workers: its distinct training stations under by_station, its training
    records under round_robin.
    """
    train_records = Transactions.of(train_records)
    test_records = Transactions.of(test_records)
    known = {s.station_id for s in stations}
    referenced = {*train_records.station_ids(), *test_records.station_ids()}
    missing = sorted(referenced - known)
    if missing:
        raise DegenerateDataError(
            f"no coordinates for stations: {', '.join(missing)}"
        )
    if assignment is None:
        assignment = constrained_kmeans(stations, cluster_config)
    k = cluster_config.k
    cluster_of = {s.station_id: int(c) for s, c in zip(stations, assignment.labels)}
    routed = zip(
        by_cluster(train_records, cluster_of, k), by_cluster(test_records, cluster_of, k)
    )

    results: list[ClusterRunResult] = []
    scored = []
    skips = []
    for cluster_id, (train_k, test_k) in enumerate(routed):
        schema, reason = None, "has no training transactions"
        if train_k:
            vocab = {*train_k.station_ids(), *test_k.station_ids()}
            try:
                schema = build_schema(
                    train_k, include_transaction_id, station_vocabulary=vocab
                )
            except DegenerateDataError as e:
                reason = f"cannot be trained ({e})"
        model, reports, traffic, sites, cluster_rmse = None, (), None, 0, None
        if schema is None:
            skips.append(f"cluster {cluster_id} {reason}")
        else:
            X_train, y_train = encode_features(train_k, schema)
            if inner_mode is TrainMode.FEDERATED:
                if config.partition is PartitionStrategy.BY_STATION:
                    shards = len(train_k.station_ids())
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
            if test_k:
                actual, predictions = score(model, schema, test_k)
                cluster_rmse = rmse(actual, predictions)
                scored.append((actual, predictions))
        results.append(
            ClusterRunResult(
                cluster_id=cluster_id,
                station_ids=tuple(
                    sorted(sid for sid, c in cluster_of.items() if c == cluster_id)
                ),
                skipped=schema is None,
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
    if len(skips) == k:
        raise DegenerateDataError(f"no cluster can be trained: {'; '.join(skips)}")
    for skip in skips:
        warnings.warn(f"{skip}; skipping its model", RuntimeWarning, stacklevel=2)
    return ClusteredResult(
        assignment=assignment,
        clusters=tuple(results),
        pooled_rmse_kwh=pooled_rmse(scored),
        uncovered_test=sum(c.n_test for c in results if c.skipped),
    )
