"""Shared test oracles: the float dropout hash and a fresh-allocating
forward/backward, a per-array Adam step, finite-difference gradients,
brute-force constrained assignment and brute-force kNN, and
one-record-at-a-time parsing, generation and encoding.  These are
deliberately independent of the library implementations they check.
``from_layers`` builds a Network or Gradient from per-layer arrays."""

from __future__ import annotations

import csv
import math
from datetime import date
from fractions import Fraction

import numpy as np

from fedl.data import TRANSACTIONS_HEADER, RejectedRow, SynthMetadata, TransactionRecord
from fedl.errors import EncodingError, ShapeError
from fedl.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    Activation,
    LayerTrace,
    Mode,
    Network,
    Tape,
    forward,
    sse_loss,
)
from fedl.rng import _GOLDEN, _MIX1, _MIX2, fold_seed


def uniform_hash(seed: int, tag: int, row_ids, n_cols: int) -> np.ndarray:
    """Uniforms in [0, 1), one per (row id, column) pair: the top 53 bits of
    the splitmix64 finaliser of fold_seed(seed, tag) + row*M1 + col*G,
    computed on whole uint64 arrays and scaled to float64."""
    base = np.uint64(fold_seed(seed, tag))
    rows = np.asarray(row_ids, dtype=np.uint64).reshape(-1, 1)
    cols = np.arange(n_cols, dtype=np.uint64).reshape(1, -1)
    x = base + rows * np.uint64(_MIX1) + cols * np.uint64(_GOLDEN)
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(_MIX1)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(_MIX2)
    x = x ^ (x >> np.uint64(31))
    return (x >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def reference_forward(network: Network, X, mode: Mode = Mode.INFER, seed: int = 0,
                      sample_ids=None):
    """Forward pass on fresh arrays, with a boolean mask from the float
    hash: the layout fedl.nn.forward must reproduce bit for bit."""
    X = np.asarray(X, dtype=np.float64)
    if sample_ids is None:
        ids = np.arange(X.shape[0], dtype=np.int64)
    else:
        ids = np.asarray(sample_ids, dtype=np.int64)
    traces = []
    out = X
    for layer, spec in enumerate(network.specs):
        inputs = out
        pre = inputs @ network.weights[layer].T + network.biases[layer]
        act = np.tanh(pre) if spec.activation is Activation.TANH else pre
        mask = None
        out = act
        if spec.dropout > 0.0 and mode is Mode.TRAIN:
            mask = uniform_hash(seed, layer, ids, spec.output_width) >= spec.dropout
            out = act * mask / (1.0 - spec.dropout)
        traces.append(LayerTrace(inputs=inputs, activated=act, mask=mask))
    return out, Tape(traces=tuple(traces), output=out)


def reference_backward(network: Network, tape: Tape, targets, pre_partials=None):
    """Reverse pass of reference_forward's tape on fresh arrays.  Returns
    (weight grads, bias grads) as lists; a dict given as ``pre_partials``
    receives each layer's partial with respect to its pre-activation."""
    y = tape.output
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != y.shape:
        if t.ndim != 1 or y.shape[1] != 1:
            raise ShapeError("targets do not match the output")
        t = t.reshape(y.shape)
    grad_w = [None] * len(network.specs)
    grad_b = [None] * len(network.specs)
    d_out = 2.0 * (y - t)
    for layer in range(len(network.specs) - 1, -1, -1):
        spec = network.specs[layer]
        trace = tape.traces[layer]
        if trace.mask is not None:
            d_out = d_out * trace.mask / (1.0 - spec.dropout)
        if spec.activation is Activation.TANH:
            d_pre = d_out * (1.0 - trace.activated * trace.activated)
        else:
            d_pre = d_out
        if pre_partials is not None:
            pre_partials[layer] = d_pre
        grad_w[layer] = d_pre.T @ trace.inputs
        grad_b[layer] = d_pre.sum(axis=0)
        if layer > 0:
            d_out = d_pre @ network.weights[layer]
    return grad_w, grad_b


def from_layers(cls, specs, weights, biases):
    """``cls(specs, vector)`` (a Network or a Gradient) for per-layer
    arrays, concatenated into the model file's layout: each layer's
    weights row-major, then its biases."""
    arrays = [np.ravel(a) for layer in zip(weights, biases) for a in layer]
    return cls(tuple(specs), np.concatenate(arrays))


def reference_adam_step(eta, delta, params, grads, step_size: float, t: int):
    """Adam step ``t`` array by array: each of ``eta``, ``delta``,
    ``params`` and ``grads`` is a list of arrays, one per parameter array.
    Returns the new (eta, delta, params) lists.  This is the per-array
    loop fedl.nn.adam_step's whole-vector expressions must match bit for
    bit."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    lr_t = step_size * math.sqrt(1.0 - b2 ** t) / (1.0 - b1 ** t)
    new_eta, new_delta, new_params = [], [], []
    for m, v, grad, param in zip(eta, delta, grads, params):
        eta1 = b1 * m + (1.0 - b1) * grad
        delta1 = b2 * v + (1.0 - b2) * grad * grad
        new_eta.append(eta1)
        new_delta.append(delta1)
        new_params.append(param - lr_t * eta1 / (np.sqrt(delta1) + ADAM_EPSILON))
    return new_eta, new_delta, new_params


def loss_at(network: Network, X, y, seed: int, mode: Mode) -> float:
    out, _ = forward(network, X, mode=mode, seed=seed)
    return sse_loss(out[:, 0], np.asarray(y, dtype=np.float64))


def _with_entry(network: Network, layer: int, kind: str, idx, value: float) -> Network:
    weights = [w.copy() for w in network.weights]
    biases = [b.copy() for b in network.biases]
    if kind == "w":
        weights[layer][idx] = value
    else:
        biases[layer][idx] = value
    return from_layers(Network, network.specs, weights, biases)


def finite_diff_gradient(
    network: Network, X, y, seed: int = 0, mode: Mode = Mode.TRAIN, h: float = 1e-5
):
    """Central finite differences of the summed-squared-error loss wrt every
    parameter.  The dropout mask depends only on (seed, layer, sample, unit),
    never on parameter values, so perturbed evaluations see the same mask.
    Returns (weight grads, bias grads) as lists of arrays.
    """
    grad_w, grad_b = [], []
    for layer in range(len(network.specs)):
        gw = np.zeros_like(network.weights[layer])
        for idx in np.ndindex(gw.shape):
            base = network.weights[layer][idx]
            up = loss_at(_with_entry(network, layer, "w", idx, base + h), X, y, seed, mode)
            dn = loss_at(_with_entry(network, layer, "w", idx, base - h), X, y, seed, mode)
            gw[idx] = (up - dn) / (2.0 * h)
        grad_w.append(gw)
        gb = np.zeros_like(network.biases[layer])
        for idx in np.ndindex(gb.shape):
            base = network.biases[layer][idx]
            up = loss_at(_with_entry(network, layer, "b", idx, base + h), X, y, seed, mode)
            dn = loss_at(_with_entry(network, layer, "b", idx, base - h), X, y, seed, mode)
            gb[idx] = (up - dn) / (2.0 * h)
        grad_b.append(gb)
    return grad_w, grad_b


def max_relative_error(analytic, numeric, floor: float = 1e-8) -> float:
    """Elementwise |a-n| / max(|a|, |n|, floor), reduced to the maximum."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def all_feasible_labelings(n: int, k: int, lows, highs) -> np.ndarray:
    """Every assignment of n points to k clusters honoring the size windows,
    as an (n, M) integer array in lexicographic order."""
    total = k**n
    flat = np.arange(total)
    labs = np.empty((n, total), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        labs[i] = flat % k
        flat //= k
    sizes = np.stack([(labs == c).sum(axis=0) for c in range(k)])
    feasible = np.all(
        (sizes >= np.asarray(lows)[:, None]) & (sizes <= np.asarray(highs)[:, None]),
        axis=0,
    )
    return labs[:, feasible]


def brute_force_min_cost(points, centroids, lows, highs) -> float:
    """Exact minimum constrained-assignment cost.

    Candidates are shortlisted with fast numpy sums, then decided with
    math.fsum (correctly rounded), so mathematically equal costs compare
    equal regardless of summation order.
    """
    pts = np.asarray(points, dtype=np.float64)
    cents = np.asarray(centroids, dtype=np.float64)
    n = pts.shape[0]
    d2 = ((pts[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    labs = all_feasible_labelings(n, cents.shape[0], lows, highs)
    assert labs.shape[1] > 0, "oracle called on an infeasible instance"
    costs = d2[np.arange(n)[:, None], labs].sum(axis=0)
    cutoff = costs.min() + 1e-9
    exact = [
        math.fsum(d2[i, labs[i, m]] for i in range(n))
        for m in np.nonzero(costs <= cutoff)[0]
    ]
    return min(exact)


def exact_assignment_cost(points, centroids, labels) -> float:
    pts = np.asarray(points, dtype=np.float64)
    cents = np.asarray(centroids, dtype=np.float64)
    d2 = ((pts[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    return math.fsum(d2[i, labels[i]] for i in range(len(labels)))


def knn_exact_neighbours(train, test, schema, k: int) -> np.ndarray:
    """(|test|, k) training-row indices of the k nearest rows under exact
    rational squared distances on the encoded features (one-hot station,
    day, hour, then the id scaled by (id - txn_min)/span and clamped to
    [0, 1]), ties to the lower row index."""
    span = schema.txn_max - schema.txn_min

    def scaled(r):
        if not schema.include_transaction_id or span == 0:
            return Fraction(0)
        exact = Fraction(r.transaction_id - schema.txn_min, span)
        return min(Fraction(1), max(Fraction(0), exact))

    def blocks(r):
        return (r.station_id, r.day_of_week, r.hour)

    out = []
    for q in test:
        dist = [
            2 * sum(a != b for a, b in zip(blocks(q), blocks(x)))
            + (scaled(q) - scaled(x)) ** 2
            for x in train
        ]
        out.append(sorted(range(len(train)), key=lambda i: (dist[i], i))[:k])
    return np.array(out, dtype=np.intp).reshape(len(test), k)


def _reference_row(line_number: int, row: list[str]):
    if len(row) != len(TRANSACTIONS_HEADER):
        return None, RejectedRow(
            line_number, f"expected {len(TRANSACTIONS_HEADER)} fields, got {len(row)}"
        )
    raw_station, raw_txn, raw_date, raw_time, raw_energy = (c.strip() for c in row)
    if not raw_station:
        return None, RejectedRow(line_number, "empty station_id")
    try:
        txn = int(raw_txn)
    except ValueError:
        return None, RejectedRow(line_number, f"transaction_id not an integer: {raw_txn!r}")
    try:
        day = date.fromisoformat(raw_date).isoweekday()
    except ValueError:
        return None, RejectedRow(line_number, f"date not ISO-8601: {raw_date!r}")
    parts = raw_time.split(":")
    try:
        if len(parts) < 2:
            raise ValueError
        hour, minute = int(parts[0]), int(parts[1])
        if not (0 <= hour <= 23 and 0 <= minute <= 59):
            raise ValueError
    except ValueError:
        return None, RejectedRow(line_number, f"time not HH:MM: {raw_time!r}")
    try:
        energy = float(raw_energy)
    except ValueError:
        return None, RejectedRow(line_number, f"energy not a number: {raw_energy!r}")
    if not math.isfinite(energy):
        return None, RejectedRow(line_number, f"energy not finite: {raw_energy!r}")
    if energy < 0:
        return None, RejectedRow(line_number, f"negative energy: {raw_energy!r}")
    return TransactionRecord(raw_station, txn, day, hour, energy), None


def reference_parse_transactions(lines):
    """fedl.data.parse_transactions one row at a time: (records, rejects)
    as lists, for a stream whose header is valid.  A row's line number is
    the line it ends on."""
    reader = csv.reader(lines)
    next(reader)
    records, rejects = [], []
    for row in reader:
        if not row:  # blank line
            continue
        record, reject = _reference_row(reader.line_num, row)
        if record is not None:
            records.append(record)
        else:
            rejects.append(reject)
    return records, rejects


def reference_synth_records(n_stations: int, n_records: int, seed: int,
                            noise_std: float = 0.8) -> list[TransactionRecord]:
    """fedl.data.synth_generate's records, one record at a time."""
    rng = np.random.default_rng(seed)
    width = len(str(n_stations - 1))
    ids = [f"S{i:0{width}d}" for i in range(n_stations)]
    lobe = np.arange(n_stations) % 2
    rng.normal(0.0, 0.004, n_stations)  # latitudes
    rng.normal(0.0, 0.004, n_stations)  # longitudes
    meta = SynthMetadata(
        noise_std=noise_std,
        base=tuple(float(v) for v in rng.uniform(4.0, 16.0, n_stations) + 4.0 * lobe),
        hour_amplitude=tuple(float(v) for v in rng.uniform(0.5, 2.5, n_stations)),
        hour_phase=tuple(float(v) for v in rng.uniform(0.0, 2.0 * math.pi, n_stations)),
        day_amplitude=tuple(float(v) for v in rng.uniform(0.25, 1.25, n_stations)),
    )
    station_idx = rng.integers(0, n_stations, n_records)
    days = rng.integers(1, 8, n_records)
    hours = rng.integers(0, 24, n_records)
    noise = rng.normal(0.0, noise_std, n_records)
    counters = [0] * n_stations
    records = []
    for i in range(n_records):
        s = int(station_idx[i])
        counters[s] += 1
        energy = max(0.0, meta.signal(s, int(days[i]), int(hours[i])) + float(noise[i]))
        records.append(
            TransactionRecord(ids[s], counters[s], int(days[i]), int(hours[i]), energy)
        )
    return records


def reference_feature_codes(records, schema) -> np.ndarray:
    """The integer codes fedl.data.encode_features encodes, one record at a
    time: a (station index, day, hour, id offset) row each, where the id
    offset is the id clipped to [txn_min, txn_max] minus txn_min, or 0 when
    the schema leaves the id out.  int64, or Python ints (dtype object) when
    a code does not fit in int64."""
    index = {sid: i for i, sid in enumerate(schema.station_vocabulary)}
    low, high = schema.txn_min, schema.txn_max
    rows = []
    for r in records:
        col = index.get(r.station_id)
        if col is None:
            raise EncodingError(f"station {r.station_id!r} not in schema vocabulary")
        if not (1 <= r.day_of_week <= 7 and 0 <= r.hour <= 23):
            raise EncodingError(f"record out of range: day={r.day_of_week}, hour={r.hour}")
        offset = 0
        if schema.include_transaction_id:
            offset = min(max(r.transaction_id, low), high) - low
        rows.append((col, r.day_of_week, r.hour, offset))
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), 4)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(len(rows), 4)


def assert_codes_match_reference(X, records, schema) -> None:
    """``X``'s ``hot`` and ``offset`` hold reference_feature_codes: the
    one-hot columns of station, day and hour, and the id offsets (None
    where every offset is 0 because the schema has no id column or span)."""
    want = reference_feature_codes(records, schema)
    s = len(schema.station_vocabulary)
    assert X.hot.dtype == np.int32
    assert X.hot.tolist() == (want[:, :3] + (0, s - 1, s + 7)).tolist()
    assert X.span == schema.txn_max - schema.txn_min
    if X.offset is None:
        assert not schema.include_transaction_id or X.span == 0
    else:
        assert X.offset.dtype == want.dtype
        assert X.offset.tolist() == want[:, 3].tolist()


def reference_encode_features(records, schema):
    """fedl.data.encode_features one record at a time: (X, labels)."""
    records = list(records)
    n_stations = len(schema.station_vocabulary)
    X = np.zeros((len(records), schema.width), dtype=np.float64)
    span = schema.txn_max - schema.txn_min
    for row, (station, day, hour, offset) in enumerate(
        reference_feature_codes(records, schema).tolist()
    ):
        X[row, station] = X[row, n_stations + day - 1] = 1.0
        X[row, n_stations + 7 + hour] = 1.0
        if schema.include_transaction_id and span:
            X[row, -1] = offset / span
    labels = np.array([r.energy_kwh for r in records], dtype=np.float64)
    return X, (labels - schema.label_mean) / schema.label_std
