"""Size-constrained K-means over station coordinates.

The assignment step is not a greedy nearest-centroid pass: for fixed
centroids it solves

    minimize    sum_i sum_k  tau[i,k] * ||point_i - centroid_k||^2
    subject to  each point in exactly one cluster,
                theta_low[k] <= |cluster k| <= theta_high[k],
                tau binary,

exactly, as a transportation problem via successive-shortest-paths
min-cost flow (network-flow integrality makes the LP optimum integral).
Points are inserted one at a time; each takes its cheapest path
point -> cluster -> zero or more moves -> a cluster with room to the sink
(directly within theta_low, or through the shared slack node above it).
A move a -> b relocates one member p of a to b at cost d(p,b) - d(p,a),
so the search graph holds only the K clusters, the slack node and the
sink, and every insertion keeps the partial assignment min-cost.
Centroid updates take the in-window mean and otherwise keep the previous
coordinates; iteration stops on an exact centroid fixpoint.

Exactness: every float is a dyadic rational, so the squared distances are
rescaled to integers losslessly and the flow runs in exact integer
arithmetic — no epsilon comparisons, no numerically-negative cycles.
Ties: points are inserted in index order; among equal-cost paths the
lower entry cluster index wins, and the rest of the path, like the choice
among equal-cost members to move (lower point index), is settled by
strict improvement in a fixed order.  Identical inputs give identical
outputs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateDataError, InfeasibilityError


@dataclass(frozen=True)
class ClusterConfig:
    """K plus per-cluster size windows.

    ``theta_low``/``theta_high`` accept a single int (applied to every
    cluster), a sequence of K ints, or None for the balanced default
    floor(I/K) / ceil(I/K) resolved against the instance size.
    """

    k: int
    theta_low: int | Sequence[int] | None = None
    theta_high: int | Sequence[int] | None = None
    max_iterations: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InfeasibilityError(f"cluster count must be >= 1, got {self.k}")
        # one bound for every cluster is checked here; sequences in windows()
        low, high = self.theta_low, self.theta_high
        for name, bound in (("theta_low", low), ("theta_high", high)):
            if isinstance(bound, int) and bound < 0:
                raise InfeasibilityError(f"{name} must be >= 0, got {bound}")
        if isinstance(low, int) and isinstance(high, int) and low > high:
            raise InfeasibilityError(f"theta_low {low} exceeds theta_high {high}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")

    def windows(self, n_points: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Resolve the size windows for an instance of ``n_points``."""

        def expand(value, default: int) -> tuple[int, ...]:
            if value is None:
                return (default,) * self.k
            if isinstance(value, int):
                return (value,) * self.k
            out = tuple(int(v) for v in value)
            if len(out) != self.k:
                raise InfeasibilityError(
                    f"need {self.k} window entries, got {len(out)}"
                )
            return out

        lows = expand(self.theta_low, n_points // self.k)
        highs = expand(self.theta_high, -(-n_points // self.k))
        for k, (lo, hi) in enumerate(zip(lows, highs)):
            if lo < 0 or lo > hi:
                raise InfeasibilityError(
                    f"cluster {k}: invalid window [{lo}, {hi}]"
                )
        if sum(lows) > n_points or sum(highs) < n_points:
            raise InfeasibilityError(
                f"windows admit no assignment of {n_points} points: "
                f"sum(theta_low)={sum(lows)}, sum(theta_high)={sum(highs)}"
            )
        return lows, highs


@dataclass(frozen=True)
class ClusterAssignment:
    tau: np.ndarray  # (I, K) binary membership
    centroids: np.ndarray  # (K, 2)
    iterations_used: int
    objective: float
    converged: bool

    @property
    def labels(self) -> np.ndarray:
        return np.argmax(self.tau, axis=1)

    def cluster_sizes(self) -> np.ndarray:
        return self.tau.sum(axis=0).astype(int)


def _exact_integer_costs(dist2: np.ndarray) -> list[list[int]]:
    """Rescale float costs to exact integers (shared power-of-two factor).

    Each nonzero cost is an odd integer mantissa times a power of two;
    every cost is multiplied by the smallest power of two that clears the
    most negative exponent.  Zero costs stay 0.
    """
    if not np.all(np.isfinite(dist2)):
        raise DegenerateDataError("non-finite distance between a point and a centroid")
    frac, exponent = np.frexp(dist2)
    mantissa = (frac * 2.0**53).astype(np.int64)
    nonzero = mantissa != 0
    _, low_bit = np.frexp((mantissa & -mantissa).astype(np.float64))
    trailing = np.where(nonzero, low_bit - 1, 0)
    mantissa >>= trailing
    exponent = exponent - 53 + trailing
    scale = max(0, -int(exponent[nonzero].min())) if nonzero.any() else 0
    shift = np.where(nonzero, exponent + scale, 0)
    return [
        [m << s for m, s in zip(m_row, s_row)]
        for m_row, s_row in zip(mantissa.tolist(), shift.tolist())
    ]


def assign_clusters(points, centroids, config: ClusterConfig) -> np.ndarray:
    """Exact constrained assignment for fixed centroids; returns binary tau."""
    pts = np.asarray(points, dtype=np.float64)
    cents = np.asarray(centroids, dtype=np.float64)
    n, k = pts.shape[0], cents.shape[0]
    if k != config.k:
        raise InfeasibilityError(f"expected {config.k} centroids, got {k}")
    lows, highs = config.windows(n)
    diffs = pts[:, None, :] - cents[None, :, :]
    dist2 = np.einsum("ikd,ikd->ik", diffs, diffs)
    costs = _exact_integer_costs(dist2)

    # Residual state of the flow  point -> cluster -> {sink, slack node},
    # slack node -> sink, kept per cluster instead of per edge.
    slack_node, sink = k, k + 1
    surplus = n - sum(lows)
    label = [-1] * n
    quota = [0] * k  # flow cluster -> sink, at most lows[c]
    slack = [0] * k  # flow cluster -> slack node, at most highs[c] - lows[c]
    slack_total = 0  # flow slack node -> sink, at most surplus
    # heaps[a][b] holds (cost of moving p from a to b, p) for points that
    # joined a; entries for points that have since left a are dropped lazily.
    heaps = [[[] for _ in range(k)] for _ in range(k)]
    moves: list[list[tuple[int, int] | None]] = [[None] * k for _ in range(k)]
    changed_clusters: set[int] = set()

    def join(p: int, c: int) -> None:
        label[p] = c
        row = costs[p]
        for b in range(k):
            if b != c:
                heapq.heappush(heaps[c][b], (row[b] - row[c], p))

    for i in range(n):
        for a in changed_clusters:
            for b in range(k):
                heap = heaps[a][b]
                while heap and label[heap[0][1]] != a:
                    heapq.heappop(heap)
                moves[a][b] = heap[0] if heap else None
        changed_clusters.clear()

        # Bellman-Ford toward the sink over clusters and the slack node:
        # togo[v] is the cheapest cost from v to the sink, nxt[v] its next hop.
        togo: list[int | None] = [0 if q < lo else None for q, lo in zip(quota, lows)]
        togo.append(0 if slack_total < surplus else None)
        nxt = [sink] * (k + 1)
        improved = True
        while improved:
            improved = False
            for a in range(k):
                best, hop = togo[a], nxt[a]
                t = togo[slack_node]
                if t is not None and slack[a] < highs[a] - lows[a]:
                    if best is None or t < best:
                        best, hop = t, slack_node
                for b, move in enumerate(moves[a]):
                    if move is not None and togo[b] is not None:
                        t = move[0] + togo[b]
                        if best is None or t < best:
                            best, hop = t, b
                if best != togo[a]:
                    togo[a], nxt[a], improved = best, hop, True
            for b in range(k):
                t, best = togo[b], togo[slack_node]
                if slack[b] > 0 and t is not None and (best is None or t < best):
                    togo[slack_node], nxt[slack_node], improved = t, b, True

        entry, best = -1, None
        for c, t in enumerate(togo[:k]):
            if t is not None and (best is None or costs[i][c] + t < best):
                entry, best = c, costs[i][c] + t
        if entry < 0:  # cannot happen for windows validated above
            raise InfeasibilityError("size windows admit no complete assignment")

        join(i, entry)
        node = entry
        while node != sink:
            hop = nxt[node]
            if node == slack_node:
                if hop == sink:
                    slack_total += 1
                else:
                    slack[hop] -= 1
            else:
                changed_clusters.add(node)
                if hop == sink:
                    quota[node] += 1
                elif hop == slack_node:
                    slack[node] += 1
                else:
                    join(moves[node][hop][1], hop)
            node = hop

    tau = np.zeros((n, k), dtype=np.int8)
    tau[np.arange(n), label] = 1
    return tau


def update_centroids(
    points, tau: np.ndarray, previous_centroids, config: ClusterConfig
) -> np.ndarray:
    """Mean of the members when the cluster is inside its size window
    (and nonempty); otherwise the previous centroid is kept."""
    pts = np.asarray(points, dtype=np.float64)
    prev = np.asarray(previous_centroids, dtype=np.float64)
    lows, highs = config.windows(pts.shape[0])
    out = prev.copy()
    sizes = tau.sum(axis=0)
    for c in range(config.k):
        size = int(sizes[c])
        if size > 0 and lows[c] <= size <= highs[c]:
            members = tau[:, c].astype(bool)
            out[c] = pts[members].mean(axis=0)
    return out


def _objective(points: np.ndarray, tau: np.ndarray, centroids: np.ndarray) -> float:
    diffs = points[:, None, :] - centroids[None, :, :]
    dist2 = np.einsum("ikd,ikd->ik", diffs, diffs)
    return float(np.sum(dist2 * tau))


def _as_points(stations) -> np.ndarray:
    if hasattr(stations, "ndim"):
        return np.asarray(stations, dtype=np.float64)
    if stations and hasattr(stations[0], "latitude"):
        return np.array(
            [[s.latitude, s.longitude] for s in stations], dtype=np.float64
        )
    return np.asarray(stations, dtype=np.float64)


def _distinct_rows(points: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-d array in ascending lexicographic order,
    as ``np.unique(points, axis=0)`` gives them (its first call imports
    numpy.ma, a start-up cost).  Of rows that differ only in the sign of a
    zero, the first in a stable sort is kept."""
    ordered = points[np.lexsort(points.T[::-1])]
    keep = np.ones(ordered.shape[0], dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=keep[1:])
    return ordered[keep]


def constrained_kmeans(
    stations,
    config: ClusterConfig,
    on_iteration: Callable[[int, np.ndarray, np.ndarray, float], None] | None = None,
) -> ClusterAssignment:
    """Alternate exact assignment and windowed centroid updates.

    ``stations`` is a StationInfo sequence or a raw (I, 2) coordinate
    array.  Initial centroids are K distinct coordinate rows sampled with
    the config seed.  Stops on an exact centroid fixpoint; if
    ``max_iterations`` passes first, the best iterate seen is returned
    with ``converged=False``.
    """
    points = _as_points(stations)
    if points.ndim != 2 or 0 in points.shape:
        raise DegenerateDataError("need a nonempty 2-d coordinate array")
    n = points.shape[0]
    if n < config.k:
        raise InfeasibilityError(f"{n} points cannot fill {config.k} clusters")
    config.windows(n)  # validate feasibility up front

    distinct = _distinct_rows(points)
    if distinct.shape[0] < config.k:
        raise DegenerateDataError(
            f"only {distinct.shape[0]} distinct coordinates for {config.k} clusters"
        )
    rng = np.random.default_rng(config.seed)
    pick = rng.choice(distinct.shape[0], size=config.k, replace=False)
    centroids = distinct[pick]

    best: tuple[float, np.ndarray, np.ndarray, int] | None = None
    for iteration in range(1, config.max_iterations + 1):
        tau = assign_clusters(points, centroids, config)
        new_centroids = update_centroids(points, tau, centroids, config)
        objective = _objective(points, tau, new_centroids)
        if on_iteration is not None:
            on_iteration(iteration, tau, new_centroids, objective)
        if best is None or objective < best[0]:
            best = (objective, tau, new_centroids, iteration)
        if np.array_equal(new_centroids, centroids):
            return ClusterAssignment(
                tau=tau,
                centroids=new_centroids,
                iterations_used=iteration,
                objective=objective,
                converged=True,
            )
        centroids = new_centroids
    objective, tau, centroids, _ = best
    return ClusterAssignment(
        tau=tau,
        centroids=centroids,
        iterations_used=config.max_iterations,
        objective=objective,
        converged=False,
    )
