import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedl.data import TransactionRecord, build_schema, encode_features
from fedl import metrics
from fedl.errors import DegenerateDataError, EncodingError, ShapeError
from fedl.metrics import (
    EvalReport,
    knn_baseline,
    mean_baseline,
    overhead_report,
    rmse,
)
from fedl.nn import sse_loss
from fedl.sim import Direction, Payload, TrafficEntry, TrafficLog
from helpers import assert_codes_match_reference, knn_exact_neighbours


# --------------------------------------------------------------- rmse


def test_rmse_zero_on_exact_match():
    assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_rmse_known_value():
    # residuals (2, -2) -> sqrt((4+4)/2) = 2
    assert rmse([3.0, 1.0], [1.0, 3.0]) == 2.0


def test_rmse_rejects_mismatch_and_empty():
    with pytest.raises(ShapeError):
        rmse([1.0], [1.0, 2.0])
    with pytest.raises(DegenerateDataError):
        rmse([], [])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=40), st.randoms())
def test_rmse_is_permutation_invariant(values, rand):
    actual = np.asarray(values)
    pred = actual * 0.9 + 1.0
    order = list(range(len(values)))
    rand.shuffle(order)
    assert rmse(actual, pred) == pytest.approx(
        rmse(actual[order], pred[order]), rel=1e-12, abs=1e-12
    )


def test_rmse_squared_times_n_is_sse():
    rng = np.random.default_rng(0)
    a, p = rng.normal(size=30), rng.normal(size=30)
    assert rmse(a, p) ** 2 * 30 == pytest.approx(sse_loss(p, a), rel=1e-12)


# --------------------------------------------------------------- knn


def _encoded(records, schema):
    return encode_features(records, schema)[0]


def test_knn_ties_resolve_to_lower_train_index():
    # rows 0 and 1 are the same codes with different labels: an exact tie
    train = [TransactionRecord("A", 5, 1, 2, 7.0), TransactionRecord("A", 5, 1, 2, 9.0),
             TransactionRecord("B", 9, 3, 4, 0.0)]
    schema = build_schema(train)
    X, y = _encoded(train, schema), np.array([r.energy_kwh for r in train])
    assert knn_baseline(X, y, _encoded(train[:1], schema), k=1).tolist() == [7.0]


def test_knn_chunking_is_invisible(small_corpus, monkeypatch):
    records, _, _ = small_corpus
    schema = build_schema(records)
    y = np.array([r.energy_kwh for r in records])
    train, test = _encoded(records[:320], schema), _encoded(records[320:], schema)
    # k=3 mostly reads the queries' pair groups; k=60 outgrows them and
    # scans every row
    for k in (3, 60):
        monkeypatch.setattr(metrics, "KNN_CHUNK_ROWS", 1000)
        whole = knn_baseline(train, y[:320], test, k)
        monkeypatch.setattr(metrics, "KNN_CHUNK_ROWS", 4)
        tiny = knn_baseline(train, y[:320], test, k)
        assert whole.tobytes() == tiny.tobytes()


def test_knn_validation():
    records = [TransactionRecord("A", t, 1, 0, float(t)) for t in range(3)]
    schema = build_schema(records)
    X, y = _encoded(records, schema), np.arange(3.0)
    with pytest.raises(ValueError):
        knn_baseline(X, y, X, k=0)
    with pytest.raises(ValueError):
        knn_baseline(X, y, X, k=4)
    with pytest.raises(TypeError):  # kNN reads codes, not dense rows
        knn_baseline(X, y, np.asarray(X), k=1)
    with pytest.raises(ShapeError):
        knn_baseline(X, y[:2], X, k=1)
    with pytest.raises(DegenerateDataError):
        knn_baseline(_encoded(records[:0], schema), y[:0], X, k=1)


@st.composite
def knn_corpora(draw):
    """Small train/test record sets over few stations, days and hours, so
    every mismatch level is populated.  Test ids reach past the training
    ids (clipping); a single training id gives span 0."""
    n_train = draw(st.integers(1, 24))
    n_test = draw(st.integers(1, 6))
    low = draw(st.integers(-50, 50))
    width = draw(st.integers(0, 6))
    n_stations = draw(st.integers(1, 3))

    def rows(n, ids):
        columns = [
            draw(st.lists(values, min_size=n, max_size=n))
            for values in (ids, st.integers(0, n_stations - 1),
                           st.integers(1, 2), st.integers(0, 2))
        ]
        # labels 2^i, so a different neighbour set gives a different mean
        return [
            TransactionRecord(f"S{s}", t, d, h, 2.0**i)
            for i, (t, s, d, h) in enumerate(zip(*columns))
        ]

    train = rows(n_train, st.integers(low, low + width))
    test = rows(n_test, st.integers(low - 3, low + width + 3))
    include = draw(st.booleans())
    k = draw(st.integers(1, n_train))
    return train, test, include, k


@settings(max_examples=300, deadline=None)
@given(knn_corpora())
def test_knn_codes_match_exact_rational_brute_force(corpus):
    train, test, include, k = corpus
    vocab = sorted({r.station_id for r in train + test})
    # one more label keeps a one-row training set's std non-zero; it reuses
    # train[0]'s id, so the id range is the training rows'
    extra = TransactionRecord(train[0].station_id, train[0].transaction_id, 1, 0, -1.0)
    schema = build_schema([*train, extra], include, station_vocabulary=vocab)
    y = np.array([r.energy_kwh for r in train])
    X, X_test = _encoded(train, schema), _encoded(test, schema)
    assert_codes_match_reference(X, train, schema)
    assert_codes_match_reference(X_test, test, schema)
    got = knn_baseline(X, y, X_test, k)
    want = y[knn_exact_neighbours(train, test, schema, k)].mean(axis=1)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 5, 60, 320])
def test_knn_codes_without_ids_equal_dense_bitwise(small_corpus, k):
    # the reference is an exact brute force over the encoded (dense) rows;
    # without the id column every distance is 2m, so most rows tie
    records, _, _ = small_corpus
    train, test = records[:320], records[320:]
    vocab = sorted({r.station_id for r in records})
    schema = build_schema(train, False, station_vocabulary=vocab)
    y = np.array([r.energy_kwh for r in train])
    got = knn_baseline(_encoded(train, schema), y, _encoded(test, schema), k)
    want = y[knn_exact_neighbours(train, test, schema, k)].mean(axis=1)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "base", [-(2**61), 2**62 - 10, 2**70], ids=["neg61", "pos62", "pos70"]
)
def test_knn_codes_order_ids_the_float_encoding_merges(base):
    # ids 2^62 apart make the span exceed 2^53: the encoded floats of
    # base, base+1, base+2 coincide, but the integer gaps still order them
    ids = [base, base + 1, base + 2, -(2**62) + 1, 2**62 - 1]
    if base > 2**63:  # beyond int64: the codes keep Python ints
        ids[3:] = [0, 2**71]
    train = [TransactionRecord("A", t, 1, 0, float(i)) for i, t in enumerate(ids)]
    schema = build_schema(train)
    assert schema.txn_max - schema.txn_min > 2**53
    X = _encoded(train, schema)
    assert X[0, -1] == X[1, -1] == X[2, -1]
    assert X.offset.dtype == (object if base > 2**63 else np.int64)
    y = np.array([r.energy_kwh for r in train])
    query = [TransactionRecord("A", base + 2, 1, 0, 0.0)]
    assert knn_baseline(X, y, _encoded(query, schema), 1).tolist() == [2.0]
    assert knn_baseline(X, y, _encoded(query, schema), 2).tolist() == [1.5]
    # k past the query's groups scans every row, in the same integer order
    other = TransactionRecord("B", base, 2, 1, 5.0)
    schema = build_schema([*train, other])
    X = _encoded([*train, other], schema)
    y = np.append(y, 5.0)
    assert knn_baseline(X, y, _encoded(query, schema), 6).tolist() == [2.5]
    assert knn_baseline(X, y, _encoded(query, schema), 2).tolist() == [1.5]


def test_knn_codes_validation():
    # train and test encoded under schemas of another width (one more
    # station) or another id span would compare unrelated codes
    train = [TransactionRecord("A", t, 1, 0, float(t)) for t in range(4)]
    schema = build_schema(train)
    X, y = _encoded(train, schema), np.arange(4.0)
    wider = build_schema(train, station_vocabulary=["A", "B"])
    longer = build_schema([*train, TransactionRecord("A", 9, 1, 0, 0.0)])
    for other in (wider, longer):
        with pytest.raises(EncodingError, match="one schema"):
            knn_baseline(X, y, _encoded(train, other), 1)
        with pytest.raises(EncodingError, match="one schema"):
            knn_baseline(_encoded(train, other), y, X, 1)


# --------------------------------------------------------------- mean


def test_mean_baseline_value_and_predict():
    mb = mean_baseline([2.0, 4.0])
    assert mb.value == 3.0
    assert mb.predict(3).tolist() == [3.0, 3.0, 3.0]


def test_mean_baseline_rmse_is_population_std():
    rng = np.random.default_rng(4)
    y = rng.normal(loc=5.0, scale=2.0, size=200)
    mb = mean_baseline(y)
    assert rmse(y, mb.predict(200)) == pytest.approx(y.std(), rel=1e-12)


def test_mean_baseline_rejects_empty():
    with pytest.raises(DegenerateDataError):
        mean_baseline([])


# --------------------------------------------------------------- overhead


def fixed_log(total):
    log = TrafficLog()
    log.append(TrafficEntry(0, Direction.UP, Payload.DATASET, total))
    return log


def test_overhead_savings_ratio():
    report = overhead_report(
        {"central": fixed_log(1000), "federated": fixed_log(166)}
    )
    assert report.totals == {"central": 1000, "federated": 166}
    assert report.savings["federated"] == pytest.approx(0.834)


def test_overhead_identical_traffic_saves_nothing():
    report = overhead_report({"central": fixed_log(500), "other": fixed_log(500)})
    assert report.savings["other"] == 0.0


def test_overhead_negative_savings_when_heavier():
    report = overhead_report({"central": fixed_log(100), "chatty": fixed_log(250)})
    assert report.savings["chatty"] == pytest.approx(-1.5)


def test_overhead_validation():
    with pytest.raises(ValueError):
        overhead_report({"central": fixed_log(10)})
    with pytest.raises(ValueError):
        overhead_report({"a": fixed_log(1), "b": fixed_log(2)}, baseline="c")
    with pytest.raises(ZeroDivisionError, match="baseline pipeline 'central' moved zero bytes"):
        overhead_report({"central": TrafficLog(), "b": fixed_log(2)})


def test_overhead_table_lists_every_pipeline():
    report = overhead_report({"central": fixed_log(1000), "federated": fixed_log(10)})
    table = report.format_table()
    assert "central" in table and "federated" in table and "baseline" in table


# --------------------------------------------------------------- eval report


def test_eval_report_improvements():
    rep = EvalReport(
        train_ratio=0.8,
        rmse_kwh={"central": 2.0, "mean": 5.0, "knn": 4.0},
        total_bytes={"central": 123},
    )
    imp = rep.improvements("mean")
    assert imp["central"] == pytest.approx(0.6)
    assert imp["knn"] == pytest.approx(0.2)
    d = rep.to_dict()
    assert d["train_ratio"] == 0.8
    assert d["improvement_ratio"]["vs_mean"]["central"] == pytest.approx(0.6)
    assert d["improvement_ratio"]["vs_knn"]["central"] == pytest.approx(0.5)
