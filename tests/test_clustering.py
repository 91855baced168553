import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fedl.clustering import (
    ClusterConfig,
    _distinct_rows,
    _exact_integer_costs,
    assign_clusters,
    constrained_kmeans,
    update_centroids,
)
from fedl.data import synth_generate
from fedl.errors import DegenerateDataError, InfeasibilityError
from helpers import brute_force_min_cost, exact_assignment_cost


def labels_of(tau: np.ndarray) -> np.ndarray:
    return tau.argmax(axis=1)


# --------------------------------------------------------------- config/windows


def test_windows_default_are_balanced():
    cfg = ClusterConfig(k=3)
    lows, highs = cfg.windows(10)
    assert lows == (3, 3, 3)
    assert highs == (4, 4, 4)


def test_windows_divisible_case_pins_sizes():
    cfg = ClusterConfig(k=2)
    lows, highs = cfg.windows(58)
    assert lows == (29, 29) and highs == (29, 29)


def test_windows_scalar_broadcast_and_sequences():
    cfg = ClusterConfig(k=2, theta_low=1, theta_high=5)
    assert cfg.windows(6) == ((1, 1), (5, 5))
    cfg = ClusterConfig(k=2, theta_low=(1, 2), theta_high=(4, 4))
    assert cfg.windows(6) == ((1, 2), (4, 4))


def test_windows_infeasible_rejected():
    with pytest.raises(InfeasibilityError):
        ClusterConfig(k=2, theta_low=4, theta_high=5).windows(6)  # sum lows > n
    with pytest.raises(InfeasibilityError):
        ClusterConfig(k=2, theta_low=0, theta_high=2).windows(6)  # sum highs < n
    with pytest.raises(InfeasibilityError):
        ClusterConfig(k=2, theta_low=3, theta_high=2).windows(6)  # low > high


def test_config_validation():
    with pytest.raises(InfeasibilityError):
        ClusterConfig(k=0)
    with pytest.raises(ValueError):
        ClusterConfig(k=2, max_iterations=0)
    # one bound for every cluster is checked at construction
    for low, high in ((-1, None), (None, -1), (3, 2)):
        with pytest.raises(InfeasibilityError):
            ClusterConfig(k=2, theta_low=low, theta_high=high)
    # per-cluster sequences are checked against the instance by windows()
    crossed = ClusterConfig(k=2, theta_low=(3, 0), theta_high=(2, 5))
    with pytest.raises(InfeasibilityError, match="cluster 0"):
        crossed.windows(5)


# --------------------------------------------------------------- assignment


def test_assignment_line_example():
    # four points on a line, two tight clusters of two
    points = np.array([[0.0], [1.0], [10.0], [11.0]])
    centroids = np.array([[0.5], [10.5]])
    tau = assign_clusters(points, centroids, ClusterConfig(k=2, theta_low=2, theta_high=2))
    assert labels_of(tau).tolist() == [0, 0, 1, 1]
    assert tau.shape == (4, 2)
    assert np.all(tau.sum(axis=1) == 1)  # every point in exactly one cluster


def test_assignment_unconstrained_is_nearest_centroid():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(20, 2))
    centroids = rng.normal(size=(3, 2))
    cfg = ClusterConfig(k=3, theta_low=0, theta_high=20)
    tau = assign_clusters(points, centroids, cfg)
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(labels_of(tau), d2.argmin(axis=1))


def test_assignment_tie_prefers_lower_cluster_index():
    points = np.array([[0.0, 0.0]])
    centroids = np.array([[1.0, 0.0], [-1.0, 0.0]])  # equidistant
    cfg = ClusterConfig(k=2, theta_low=0, theta_high=1)
    tau = assign_clusters(points, centroids, cfg)
    assert labels_of(tau)[0] == 0


def test_assignment_quota_forces_far_point():
    # nearest-centroid would put everything in cluster 0; the quota drags
    # exactly one point (the rightmost) over to cluster 1
    points = np.array([[0.0], [0.1], [0.2], [5.0]])
    centroids = np.array([[0.0], [100.0]])
    cfg = ClusterConfig(k=2, theta_low=(0, 1), theta_high=(4, 4))
    tau = assign_clusters(points, centroids, cfg)
    assert labels_of(tau).tolist() == [0, 0, 0, 1]


def test_assignment_respects_upper_bounds():
    points = np.array([[0.0], [0.1], [0.2], [0.3]])
    centroids = np.array([[0.0], [10.0]])
    cfg = ClusterConfig(k=2, theta_low=0, theta_high=(2, 4))
    tau = assign_clusters(points, centroids, cfg)
    lab = labels_of(tau)
    counts = np.bincount(lab, minlength=2)
    assert counts[0] == 2 and counts[1] == 2
    # the two points kept at cluster 0 are the two nearest ones
    assert set(np.where(lab == 0)[0]) == {0, 1}


def test_assignment_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(7)
    checked = 0
    for trial in range(120):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, 4))
        points = rng.normal(size=(n, 2)) * rng.uniform(0.5, 3.0)
        centroids = rng.normal(size=(k, 2))
        lows = rng.integers(0, max(1, n // k + 1), size=k)
        highs = lows + rng.integers(0, n + 1, size=k)
        if lows.sum() > n or highs.sum() < n:
            continue
        cfg = ClusterConfig(
            k=k,
            theta_low=tuple(int(v) for v in lows),
            theta_high=tuple(int(v) for v in highs),
        )
        tau = assign_clusters(points, centroids, cfg)
        lab = labels_of(tau)
        counts = np.bincount(lab, minlength=k)
        assert np.all(counts >= lows) and np.all(counts <= highs)
        got = exact_assignment_cost(points, centroids, lab)
        best = brute_force_min_cost(points, centroids, lows, highs)
        assert got == best, f"trial {trial}: cost {got} vs brute-force {best}"
        checked += 1
    assert checked > 60


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_assignment_matches_brute_force_with_ties(data):
    # integer coordinates make many points equidistant from several
    # centroids, so equal-cost assignments abound
    n = data.draw(st.integers(1, 7), label="n")
    k = data.draw(st.integers(1, 4), label="k")
    def grid(rows):
        coord = st.integers(-3, 3)
        pairs = st.lists(st.tuples(coord, coord), min_size=rows, max_size=rows)
        return np.array(data.draw(pairs), dtype=np.float64)

    points, centroids = grid(n), grid(k)
    sizes = st.lists(st.integers(0, n), min_size=k, max_size=k)
    lows, extra = data.draw(sizes, label="lows"), data.draw(sizes, label="extra")
    highs = [lo + e for lo, e in zip(lows, extra)]
    assume(sum(lows) <= n <= sum(highs))
    cfg = ClusterConfig(k=k, theta_low=tuple(lows), theta_high=tuple(highs))
    tau = assign_clusters(points, centroids, cfg)
    assert np.all(tau.sum(axis=1) == 1)
    counts = tau.sum(axis=0)
    assert np.all(counts >= lows) and np.all(counts <= highs)
    got = exact_assignment_cost(points, centroids, labels_of(tau))
    assert got == brute_force_min_cost(points, centroids, lows, highs)


def test_assignment_tie_rule_on_duplicate_stations():
    # three stations at one spot, equidistant from three centroids, one
    # seat each.  Stations go in index order and every equal-cost path
    # enters the lowest cluster: each newcomer takes cluster 0 and the
    # earlier occupants shift up one cluster at zero cost.
    points = np.zeros((3, 2))
    centroids = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    cfg = ClusterConfig(k=3, theta_low=1, theta_high=1)
    tau = assign_clusters(points, centroids, cfg)
    assert labels_of(tau).tolist() == [1, 2, 0]


def test_assignment_point_on_its_centroid():
    points = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [1.0, 2.5]])
    centroids = np.array([[1.0, 2.0], [5.0, 6.0]])  # zero cost for two points
    cfg = ClusterConfig(k=2, theta_low=2, theta_high=2)
    tau = assign_clusters(points, centroids, cfg)
    lab = labels_of(tau)
    assert lab.tolist() == [0, 1, 1, 0]
    assert exact_assignment_cost(points, centroids, lab) == brute_force_min_cost(
        points, centroids, (2, 2), (2, 2)
    )


def test_assignment_all_zero_costs():
    points = np.zeros((5, 2))
    centroids = np.zeros((2, 2))
    assert _exact_integer_costs(np.zeros((5, 2))) == [[0, 0]] * 5
    tau = assign_clusters(points, centroids, ClusterConfig(k=2))
    assert np.all(tau.sum(axis=1) == 1)
    assert sorted(tau.sum(axis=0).tolist()) == [2, 3]


def test_assignment_rejects_non_finite_distances():
    cfg = ClusterConfig(k=2, theta_low=0, theta_high=2)
    centroids = np.array([[0.0, 0.0], [1.0, 1.0]])
    for bad in (np.nan, np.inf, 1e200):  # 1e200 squares to inf
        points = np.array([[0.0, 0.0], [bad, 0.0]])
        with pytest.raises(DegenerateDataError):
            assign_clusters(points, centroids, cfg)


def test_exact_integer_costs_match_fraction_scaling():
    rng = np.random.default_rng(11)
    for trial in range(50):
        d = rng.normal(size=(6, 3)) * 10.0 ** int(rng.integers(-8, 8))
        if trial % 2:
            d = np.round(d)
        d[0, trial % 3] = 0.0
        d = d * d
        fracs = [[Fraction(float(v)) for v in row] for row in d]
        scale = max(f.denominator for row in fracs for f in row)
        assert _exact_integer_costs(d) == [[int(f * scale) for f in row] for row in fracs]


@pytest.mark.parametrize("n", [400, 1000])
def test_assignment_optimal_at_scale(n):
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(n)
    points = rng.uniform(size=(n, 2))
    centroids = points[rng.choice(n, size=8, replace=False)]
    cfg = ClusterConfig(k=8)
    lows, highs = cfg.windows(n)
    tau = assign_clusters(points, centroids, cfg)
    counts = tau.sum(axis=0)
    assert np.all(counts >= lows) and np.all(counts <= highs)
    # n/8 is whole, so the windows pin every size; each cluster column
    # repeated to its window makes a square assignment problem
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    seats = np.repeat(np.arange(8), highs)
    rows, cols = optimize.linear_sum_assignment(d2[:, seats])
    best = math.fsum(d2[rows, seats[cols]])
    assert exact_assignment_cost(points, centroids, labels_of(tau)) == best


# --------------------------------------------------------------- centroid update


def one_hot(lab, k):
    tau = np.zeros((len(lab), k), dtype=np.int8)
    tau[np.arange(len(lab)), lab] = 1
    return tau


def test_update_centroids_takes_member_mean():
    points = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 10.0]])
    tau = one_hot([0, 0, 1], 2)
    prev = np.array([[5.0, 5.0], [0.0, 0.0]])
    cfg = ClusterConfig(k=2, theta_low=0, theta_high=3)
    out = update_centroids(points, tau, prev, cfg)
    assert np.array_equal(out[0], [1.0, 0.0])
    assert np.array_equal(out[1], [10.0, 10.0])


def test_update_centroids_empty_cluster_keeps_previous():
    points = np.array([[1.0], [2.0]])
    tau = one_hot([0, 0], 2)
    prev = np.array([[0.0], [42.0]])
    cfg = ClusterConfig(k=2, theta_low=0, theta_high=2)
    out = update_centroids(points, tau, prev, cfg)
    assert out[1][0] == 42.0
    assert out[0][0] == 1.5


def test_update_centroids_out_of_window_size_keeps_previous():
    # cluster 0 holds both points but its window tops out at 1: freeze it
    points = np.array([[1.0], [3.0]])
    tau = one_hot([0, 0], 2)
    prev = np.array([[-7.0], [99.0]])
    cfg = ClusterConfig(k=2, theta_low=0, theta_high=(1, 2))
    out = update_centroids(points, tau, prev, cfg)
    assert out[0][0] == -7.0


def test_update_centroids_single_member():
    points = np.array([[3.0, 4.0]])
    cfg = ClusterConfig(k=1)
    out = update_centroids(points, one_hot([0], 1), np.array([[0.0, 0.0]]), cfg)
    assert np.array_equal(out[0], [3.0, 4.0])


# --------------------------------------------------------------- full loop


def test_kmeans_k1_trivially_converges():
    points = np.random.default_rng(1).normal(size=(9, 2))
    result = constrained_kmeans(points, ClusterConfig(k=1, seed=0))
    assert result.converged
    assert np.all(result.labels == 0)
    assert np.allclose(result.centroids[0], points.mean(axis=0), atol=1e-12)
    assert result.cluster_sizes().tolist() == [9]


def test_kmeans_two_obvious_groups():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [9.0, 9.0], [9.1, 9.0], [9.0, 9.1]])
    result = constrained_kmeans(pts, ClusterConfig(k=2, seed=3))
    assert result.converged
    lab = result.labels
    assert lab.tolist() == [lab[0]] * 3 + [1 - lab[0]] * 3
    assert result.cluster_sizes().tolist() == [3, 3]


def test_kmeans_windows_hold_every_iteration():
    points = np.random.default_rng(5).normal(size=(17, 2))
    cfg = ClusterConfig(k=3, seed=2)
    lows, highs = cfg.windows(17)
    seen = []

    def watch(iteration, tau, centroids, objective):
        counts = tau.sum(axis=0)
        assert np.all(counts >= np.array(lows))
        assert np.all(counts <= np.array(highs))
        assert objective >= 0.0
        seen.append(iteration)

    result = constrained_kmeans(points, cfg, on_iteration=watch)
    assert seen == list(range(1, result.iterations_used + 1))
    counts = result.cluster_sizes()
    assert np.all(counts >= np.array(lows)) and np.all(counts <= np.array(highs))


def test_kmeans_termination_is_a_fixpoint():
    # re-running one assignment+update step from the result changes nothing
    points = np.random.default_rng(8).normal(size=(14, 2))
    cfg = ClusterConfig(k=2, seed=1)
    result = constrained_kmeans(points, cfg)
    assert result.converged
    tau_again = assign_clusters(points, result.centroids, cfg)
    assert np.array_equal(tau_again, result.tau)
    cents_again = update_centroids(points, tau_again, result.centroids, cfg)
    assert np.array_equal(cents_again, result.centroids)


def test_kmeans_is_deterministic():
    points = np.random.default_rng(12).normal(size=(25, 2))
    a = constrained_kmeans(points, ClusterConfig(k=3, seed=7))
    b = constrained_kmeans(points, ClusterConfig(k=3, seed=7))
    assert np.array_equal(a.tau, b.tau)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.objective == b.objective


def test_kmeans_objective_is_exact_sum():
    points = np.random.default_rng(3).normal(size=(11, 3))
    result = constrained_kmeans(points, ClusterConfig(k=2, seed=0))
    lab = result.labels
    manual = sum(
        float(((points[i] - result.centroids[lab[i]]) ** 2).sum()) for i in range(11)
    )
    assert result.objective == pytest.approx(manual, rel=1e-12)


def test_kmeans_station_corpus_balanced_pair():
    _, stations, _ = synth_generate(58, 58, seed=1)
    result = constrained_kmeans(stations, ClusterConfig(k=2, seed=0))
    assert result.cluster_sizes().tolist() == [29, 29]
    assert result.converged
    # the two lobes are ~0.03 degrees apart in latitude; centroids land
    # in distinct lobes rather than splitting one
    lat_gap = abs(result.centroids[0][0] - result.centroids[1][0])
    lon_gap = abs(result.centroids[0][1] - result.centroids[1][1])
    assert lat_gap > 0.01 or lon_gap > 0.02


def test_kmeans_accepts_station_records():
    _, stations, _ = synth_generate(6, 6, seed=4)
    result = constrained_kmeans(stations, ClusterConfig(k=2, seed=0))
    assert len(result.labels) == 6


def test_kmeans_max_iterations_reports_nonconvergence():
    points = np.random.default_rng(9).normal(size=(30, 2))
    result = constrained_kmeans(points, ClusterConfig(k=3, seed=4, max_iterations=1))
    assert result.iterations_used == 1
    assert isinstance(result.converged, bool)


def test_kmeans_needs_enough_distinct_points():
    points = np.zeros((5, 2))
    with pytest.raises(DegenerateDataError):
        constrained_kmeans(points, ClusterConfig(k=2, seed=0))
    with pytest.raises(InfeasibilityError):
        constrained_kmeans(np.zeros((1, 2)), ClusterConfig(k=2, seed=0))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_distinct_rows_match_np_unique(data):
    # a small integer grid makes duplicate rows common
    n = data.draw(st.integers(1, 60), label="n")
    width = data.draw(st.integers(1, 3), label="width")
    values = data.draw(st.lists(st.integers(-2, 2), min_size=n * width, max_size=n * width))
    points = np.array(values, dtype=np.float64).reshape(n, width)
    assert np.array_equal(_distinct_rows(points), np.unique(points, axis=0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kmeans_rejects_non_finite_points(bad):
    points = np.random.default_rng(4).normal(size=(6, 2))
    points[[1, 3], 0] = bad
    with np.errstate(invalid="ignore"), pytest.raises(DegenerateDataError):
        constrained_kmeans(points, ClusterConfig(k=2, seed=0))


def test_kmeans_rejects_points_without_coordinates():
    with pytest.raises(DegenerateDataError):
        constrained_kmeans(np.empty((4, 0)), ClusterConfig(k=2, seed=0))


def test_labels_match_membership_matrix():
    points = np.random.default_rng(2).normal(size=(8, 2))
    result = constrained_kmeans(points, ClusterConfig(k=2, seed=5))
    assert np.array_equal(result.labels, result.tau.argmax(axis=1))
    assert np.all(result.tau.sum(axis=1) == 1)
