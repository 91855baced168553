"""Shared test oracles: finite-difference gradients, brute-force
constrained assignment and brute-force kNN.  These are deliberately
independent of the library implementations they check."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from fedl.nn import Mode, Network, forward, sse_loss


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
    return Network(
        specs=network.specs, weights=tuple(weights), biases=tuple(biases)
    )


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
