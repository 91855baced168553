"""Output checks for the benchmark workloads.

Every check is computed apart from the program (closed-form byte totals,
an independent numpy forward pass, brute-force kNN in exact integer
arithmetic, scipy's assignment solver) or from a property the method must
have (gradient additivity, the stopping rule).  None compares against a
stored copy of earlier output.  Each check returns a list of failure
messages; an empty list means the check passed.
"""

from __future__ import annotations

import csv
import math
import struct
from datetime import date
from pathlib import Path

import numpy as np

# The traffic model documented in the fedl README: 8-byte values, a 64-byte
# header per gradient or model message, one 8-byte label per record.
VALUE_BYTES = 8
HEADER_BYTES = 64
LABEL_BYTES = 8
ONE_HOT_CALENDAR = 7 + 24  # weekday and hour blocks of the encoding


def parameter_count(widths) -> int:
    """Weights plus biases of a dense stack with the given layer widths."""
    return sum(a * b + b for a, b in zip(widths, widths[1:]))


def message_bytes(params: int) -> int:
    return params * VALUE_BYTES + HEADER_BYTES


def federated_bytes(rounds: int, workers: int, params: int) -> int:
    """J gradient messages up and J model messages down per round."""
    return rounds * 2 * workers * message_bytes(params)


def upload_bytes(rows: int, width: int) -> int:
    """The central pipeline's one-time upload of the encoded training rows."""
    return rows * (width * VALUE_BYTES + LABEL_BYTES)


def mismatch(what: str, got, expected) -> list[str]:
    return [] if got == expected else [f"{what}: got {got}, expected {expected}"]


def close(what: str, got: float, expected: float, rel: float) -> list[str]:
    if math.isfinite(got) and abs(got - expected) <= rel * abs(expected):
        return []
    return [f"{what}: got {got!r}, expected {expected!r} (rel tol {rel:g})"]


# ------------------------------------------------------------ federated


def check_federated_traffic(total: int, rounds: int, workers: int, params: int):
    return mismatch(
        f"traffic of {rounds} rounds x {workers} workers x {params} parameters",
        total, federated_bytes(rounds, workers, params),
    )


def check_gradient_sum(worker_grads, full_grad, tol: float = 1e-12) -> list[str]:
    """The J worker gradients (weights and biases per layer) sum to the
    full-batch gradient within ``tol`` relative to the largest entry of each
    array.  (At 40k rows entries reach ~1e3, and float64 summation alone
    leaves absolute gaps of ~1e-11.)"""
    worst = 0.0
    for parts, whole in zip(zip(*worker_grads), full_grad):
        gap = float(np.max(np.abs(sum(parts) - whole)))
        worst = max(worst, gap / max(1.0, float(np.max(np.abs(whole)))))
    if worst <= tol:
        return []
    return [f"worker gradients miss the full-batch gradient by {worst:.3g} "
            f"of its largest entry > {tol:g}"]


def stopping_rule_holds(history, tolerance: float, patience: int) -> bool:
    """Relative loss change below ``tolerance`` for the last ``patience``
    steps of one worker's loss history."""
    if tolerance <= 0 or len(history) < patience + 1:
        return False
    recent = history[-patience - 1 :]
    return all(
        abs(b - a) / max(a, 1e-12) < tolerance for a, b in zip(recent, recent[1:])
    )


def check_stopping_rule(worker_losses, tolerance, patience, epochs) -> list[str]:
    """Training stopped at the first round where every worker's loss had
    settled, or at the epoch budget if none did.

    ``worker_losses`` holds one tuple of per-worker losses per round.
    """
    rounds = len(worker_losses)
    histories = list(zip(*worker_losses))

    def settled(upto: int) -> bool:
        return all(
            stopping_rule_holds(h[: upto + 1], tolerance, patience) for h in histories
        )

    failures = []
    if rounds > epochs:
        failures.append(f"{rounds} rounds exceed the budget of {epochs}")
    early = [t for t in range(rounds - 1) if settled(t)]
    if early:
        failures.append(f"stopping rule already held at round {early[0]}")
    if rounds < epochs and not settled(rounds - 1):
        failures.append(f"stopped at round {rounds - 1} before the rule held")
    return failures


def check_rmse_margin(rmse_kwh: float, mean_rmse_kwh: float, margin: float = 0.7):
    if math.isfinite(rmse_kwh) and rmse_kwh <= margin * mean_rmse_kwh:
        return []
    return [
        f"held-out RMSE {rmse_kwh!r} kWh is not within {margin} x the "
        f"train-mean predictor's {mean_rmse_kwh!r} kWh"
    ]


def rmse(actual, predicted) -> float:
    d = np.asarray(actual, dtype=np.float64) - np.asarray(predicted, dtype=np.float64)
    return float(np.sqrt(np.mean(d * d)))


# ------------------------------------------------------------ CLI pipeline


def read_transactions_csv(path: Path) -> dict[str, np.ndarray]:
    """The benchmark's own reader for the transactions CSV the program wrote."""
    stations, txn, weekday, hour, energy = [], [], [], [], []
    with open(path, newline="", encoding="utf-8") as f:
        rows = csv.reader(f)
        next(rows)
        for station, t, day, clock, kwh in rows:
            stations.append(station)
            txn.append(int(t))
            weekday.append(date.fromisoformat(day).isoweekday())
            hour.append(int(clock.split(":")[0]))
            energy.append(float(kwh))
    return {
        "station": np.array(stations),
        "txn": np.array(txn, dtype=np.int64),
        "weekday": np.array(weekday, dtype=np.int64),
        "hour": np.array(hour, dtype=np.int64),
        "energy": np.array(energy, dtype=np.float64),
    }


def split_indices(n: int, ratio: float, seed: int):
    """Seeded uniform shuffle, then a prefix of round(ratio * n) rows trains."""
    n_train = int(math.floor(ratio * n + 0.5))
    order = np.random.default_rng(seed).permutation(n)
    return order[:n_train], order[n_train:]


class Encoding:
    """One-hot station | weekday | hour, then the min-max scaled transaction
    id, with the scaling and label statistics taken from training rows."""

    def __init__(self, corpus, train_idx):
        self.vocab = np.unique(corpus["station"])
        self.txn_min = int(corpus["txn"][train_idx].min())
        self.txn_span = int(corpus["txn"][train_idx].max()) - self.txn_min
        labels = corpus["energy"][train_idx]
        self.label_mean = float(labels.mean())
        self.label_std = float(labels.std())

    @property
    def width(self) -> int:
        return len(self.vocab) + ONE_HOT_CALENDAR + 1

    def codes(self, corpus, idx):
        """Integer (station, weekday, hour) codes and clipped txn numerators."""
        station = np.searchsorted(self.vocab, corpus["station"][idx])
        txn = np.clip(corpus["txn"][idx] - self.txn_min, 0, self.txn_span)
        return station, corpus["weekday"][idx], corpus["hour"][idx], txn

    def features(self, corpus, idx) -> np.ndarray:
        station, weekday, hour, txn = self.codes(corpus, idx)
        n, s = len(idx), len(self.vocab)
        X = np.zeros((n, self.width))
        rows = np.arange(n)
        X[rows, station] = 1.0
        X[rows, s + weekday - 1] = 1.0
        X[rows, s + 7 + hour] = 1.0
        X[:, -1] = txn / self.txn_span if self.txn_span else 0.0
        return X


_HEADER = struct.Struct("<4sII")
_LAYER = struct.Struct("<IIBBd")


def read_model(path: Path):
    """Layers of a ``FEDL`` version-1 model file, read through its documented
    layout: [(weights (out, in), biases (out,), tanh?)]."""
    blob = Path(path).read_bytes()
    magic, version, n_layers = _HEADER.unpack_from(blob, 0)
    if magic != b"FEDL" or version != 1:
        raise ValueError(f"{path}: not a FEDL v1 model")
    offset = _HEADER.size
    table = []
    for _ in range(n_layers):
        in_w, out_w, act, _, _ = _LAYER.unpack_from(blob, offset)
        offset += _LAYER.size
        table.append((in_w, out_w, act == 1))
    layers = []
    for in_w, out_w, tanh in table:
        w = np.frombuffer(blob, "<f8", out_w * in_w, offset).reshape(out_w, in_w)
        offset += w.nbytes
        b = np.frombuffer(blob, "<f8", out_w, offset)
        offset += b.nbytes
        layers.append((w, b, tanh))
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes")
    return layers


def model_predict(layers, X, encoding: Encoding) -> np.ndarray:
    """Inference in kWh: no dropout, standardized output mapped back."""
    out = X
    for w, b, tanh in layers:
        out = out @ w.T + b
        if tanh:
            out = np.tanh(out)
    return out[:, 0] * encoding.label_std + encoding.label_mean


def knn_rmse_window(encoding: Encoding, corpus, train_idx, test_idx, k: int,
                    chunk: int = 128):
    """Brute-force kNN RMSE over exact integer distances.

    On these features the squared distance is 2 x (mismatched one-hot
    blocks) + (scaled txn gap)^2; times span^2 it is an exact integer, so
    ties are exact.  Returns the RMSE with ties going to the lower
    training-row index, and the window (lowest, highest) of RMSEs that any
    choice among the rows tied at the k-th distance can give.  A correct
    kNN in floating point may resolve such ties either way, so its RMSE
    must lie inside the window.
    """
    s_x, d_x, h_x, t_x = (a[None, :] for a in encoding.codes(corpus, train_idx))
    s_q, d_q, h_q, t_q = (a[:, None] for a in encoding.codes(corpus, test_idx))
    y = corpus["energy"][train_idx]
    actual = corpus["energy"][test_idx]
    scale = 2 * max(encoding.txn_span, 1) ** 2
    low, sq_min, sq_max = [], [], []
    for a in range(0, len(test_idx), chunk):
        q = slice(a, a + chunk)
        mism = (s_q[q] != s_x).astype(np.int64)
        mism += d_q[q] != d_x
        mism += h_q[q] != h_x
        gap = t_q[q] - t_x
        dist = mism * scale + gap * gap
        kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
        inside = dist < kth
        tied = dist == kth
        need = k - inside.sum(axis=1)
        base = inside @ y
        first = tied & (np.cumsum(tied, axis=1) <= need[:, None])
        lo_sum = base + first @ y
        hi_sum = lo_sum.copy()
        low.append(lo_sum / k)
        for i in np.flatnonzero(tied.sum(axis=1) > need):
            ys = np.sort(y[tied[i]])
            lo_sum[i] = base[i] + ys[: need[i]].sum()
            hi_sum[i] = base[i] + ys[-need[i] :].sum()
        err_lo = lo_sum / k - actual[q]
        err_hi = hi_sum / k - actual[q]
        straddle = (err_lo <= 0) & (err_hi >= 0)
        sq_min.append(np.where(straddle, 0.0, np.minimum(err_lo**2, err_hi**2)))
        sq_max.append(np.maximum(err_lo**2, err_hi**2))
    low_rmse = rmse(actual, np.concatenate(low))
    window = (
        float(np.sqrt(np.mean(np.concatenate(sq_min)))),
        float(np.sqrt(np.mean(np.concatenate(sq_max)))),
    )
    return low_rmse, window


def check_knn(knn_rmse: float, window, slack: float = 1e-12) -> list[str]:
    lo, hi = window
    if lo * (1 - slack) <= knn_rmse <= hi * (1 + slack):
        return []
    return [f"kNN RMSE {knn_rmse!r} outside the brute-force tie window [{lo!r}, {hi!r}]"]


def check_ingest(summary: dict, csv_rows: int) -> list[str]:
    return mismatch("ingested records", summary.get("records"), csv_rows) + mismatch(
        "ingest rejects", summary.get("rejects"), 0
    )


def check_comparison(comparison: dict, central: int, federated: int) -> list[str]:
    totals = comparison.get("total_bytes", {})
    return mismatch("comparison.json central", totals.get("central"), central) + mismatch(
        "comparison.json federated", totals.get("federated"), federated
    )


def check_report(report: dict, mean_rmse: float, central_rmse: float,
                 rel: float = 1e-9) -> list[str]:
    got = report.get("rmse_kwh", {})
    return close("report mean RMSE", got.get("mean", math.nan), mean_rmse, rel) + close(
        "report central RMSE", got.get("central", math.nan), central_rmse, rel
    )


# ------------------------------------------------------------ clustered


def check_cluster_sizes(tau, size: int) -> list[str]:
    tau = np.asarray(tau)
    failures = []
    if not np.isin(tau, (0, 1)).all() or not (tau.sum(axis=1) == 1).all():
        failures.append("some station is not in exactly one cluster")
    sizes = tau.sum(axis=0)
    if not (sizes == size).all():
        failures.append(f"cluster sizes {sizes.tolist()}, expected {size} each")
    return failures


def assignment_cost(points, centroids, tau) -> float:
    """Sum of squared distances from each station to its cluster's centroid."""
    diff = np.asarray(points)[:, None, :] - np.asarray(centroids)[None, :, :]
    return float(((diff * diff).sum(axis=2) * np.asarray(tau)).sum())


def check_assignment_optimal(points, centroids, tau, size: int,
                             rel: float = 1e-9) -> list[str]:
    """The assignment's cost equals the optimum of the balanced assignment
    problem for the same centroids, solved by scipy with each cluster
    column repeated ``size`` times."""
    from scipy.optimize import linear_sum_assignment

    diff = np.asarray(points)[:, None, :] - np.asarray(centroids)[None, :, :]
    wide = np.repeat((diff * diff).sum(axis=2), size, axis=1)
    rows, cols = linear_sum_assignment(wide)
    best = float(wide[rows, cols].sum())
    return close("assignment cost vs optimum", assignment_cost(points, centroids, tau),
                 best, rel)


def check_pooled_rmse(pooled: float, cluster_rmse, cluster_n,
                      rel: float = 1e-12) -> list[str]:
    n = np.asarray(cluster_n, dtype=np.float64)
    r = np.asarray(cluster_rmse, dtype=np.float64)
    expected = float(np.sum(r * r * n) / n.sum())
    return close("pooled RMSE^2", pooled * pooled, expected, rel)
