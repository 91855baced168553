"""Columnar transactions against one-record-at-a-time references: parsing,
generation and encoding must give the same records, rejects and bits."""

import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    reference_encode_features,
    reference_feature_codes,
    reference_parse_transactions,
    reference_synth_records,
)

from fedl import data
from fedl.data import (
    TRANSACTIONS_HEADER,
    EncodingSchema,
    TransactionRecord,
    Transactions,
    build_schema,
    encode_features,
    feature_codes,
    parse_transactions,
    synth_generate,
)
from fedl.errors import EncodingError

BIG = 2**63  # the first id outside int64

# ------------------------------------------------------------------ parse

PADDING = st.sampled_from(["", " ", "\t", "  ", "\x1c", " "])


def padded(values):
    return st.tuples(PADDING, values, PADDING).map("".join)


STATIONS = padded(st.sampled_from(["CS1", "CS2", "B", "", "a b"]))
IDS = padded(st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.integers(BIG - 2, BIG + 2).map(str),
    st.sampled_from(["1_000", "12", "-0", "+7", "x", "", "1.5", "0x10", "1__0"]),
))
DATES = padded(st.one_of(
    st.dates().map(lambda d: d.isoformat()),
    st.dates().map(lambda d: d.strftime("%Y%m%d")),  # basic form
    st.sampled_from(["2017-13-06", "2017-02-30", "", "2017-3-6", "20170306T10"]),
))
TIMES = padded(st.one_of(
    st.tuples(st.integers(-1, 25), st.integers(-1, 61)).map(lambda t: "%02d:%02d" % t),
    st.tuples(st.integers(0, 23), st.integers(0, 59), st.integers(0, 99)).map(
        lambda t: "%02d:%02d:%02d" % t
    ),
    st.sampled_from(["10", "", "10:", ":30", "1:5", "10:30:xx", "ab:cd"]),
))
ENERGIES = padded(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "-2.5", "-0.0", "0", "1e400", "", "x",
                     "1_0.5", "8.2"]),
))
FULL_ROW = st.tuples(STATIONS, IDS, DATES, TIMES, ENERGIES).map(list)
ROWS = st.lists(
    st.one_of(
        FULL_ROW,
        FULL_ROW,
        FULL_ROW.flatmap(lambda row: st.integers(1, 4).map(lambda n: row[:n])),
        FULL_ROW.map(lambda row: row + ["extra"]),
        st.just([]),  # a blank line
    ),
    max_size=40,
)


def as_csv(rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(TRANSACTIONS_HEADER)
    writer.writerows(rows)
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(ROWS)
def test_parse_matches_row_by_row_reference(rows):
    text = as_csv(rows)
    want_records, want_rejects = reference_parse_transactions(io.StringIO(text, newline=""))
    for block_rows in (3, data._BLOCK_ROWS):  # rows parsed at a time
        with mock.patch.object(data, "_BLOCK_ROWS", block_rows):
            records, rejects = parse_transactions(io.StringIO(text, newline=""))
        assert list(records) == want_records
        assert [type(r.transaction_id) for r in records] == [int] * len(want_records)
        assert rejects == want_rejects


def test_parse_keeps_ids_beyond_int64_as_python_ints():
    text = as_csv([["A", str(BIG), "2017-03-06", "10:00", "1.0"],
                   ["A", "-5", "2017-03-06", "10:00", "2.0"]])
    records, _ = parse_transactions(io.StringIO(text, newline=""))
    assert records.transaction_id.dtype == object
    assert [r.transaction_id for r in records] == [BIG, -5]


# ------------------------------------------------------------------ synth


@pytest.mark.parametrize("n_stations, n_records, noise_std", [
    (1, 1, 0.8),  # one record
    (400, 1, 0.8),  # the clustered workload's layout call
    (400, 3000, 0.8),
    (5, 2000, 25.0),  # the clamp to 0 fires
])
def test_synth_matches_record_by_record_reference(n_stations, n_records, noise_std):
    records, _, _ = synth_generate(n_stations, n_records, seed=4, noise_std=noise_std)
    want = reference_synth_records(n_stations, n_records, seed=4, noise_std=noise_std)
    assert list(records) == want
    got_kwh = np.array([r.energy_kwh for r in records])
    assert got_kwh.tobytes() == np.array([r.energy_kwh for r in want]).tobytes()
    if noise_std > 1.0:
        assert (got_kwh == 0.0).any()


# ------------------------------------------------------------------ encode


# (txn_min, span) of the schema: spans of 2^53 and more, an int64 span
# from a negative minimum that int64 offsets would overflow, and ranges
# outside int64
ID_RANGES = [(0, 0), (0, 17), (-(2**40), 1), (0, 2**53 - 1), (5, 2**53), (-3, 2**53 + 1),
             (-(2**62), 2**63 + 2**61), (BIG - 100, 50), (-BIG - 50, 100), (2**70, 2**64)]


@pytest.mark.parametrize("low, span", ID_RANGES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_encode_matches_record_by_record_reference(low, span, data):
    """Ids cluster at both ends of the schema's range and past them, so
    some are clipped."""
    high = low + span
    ids = st.one_of(st.integers(low - 5, low + 5), st.integers(high - 5, high + 5),
                    st.integers(low - 5, high + 5))
    rows = st.tuples(st.sampled_from(["A", "B", "C"]), ids, st.integers(1, 7),
                     st.integers(0, 23), st.floats(0.0, 50.0))
    records = [TransactionRecord(*row) for row in data.draw(st.lists(rows, min_size=1,
                                                                      max_size=30))]
    for include in (True, False):
        schema = EncodingSchema(("A", "B", "C"), include, label_mean=3.0, label_std=2.0,
                                txn_min=low, txn_max=high)
        codes = feature_codes(records, schema)
        want = reference_feature_codes(records, schema)
        assert codes.dtype == want.dtype and codes.shape == want.shape
        assert codes.tolist() == want.tolist()
        X, y = encode_features(records, schema)
        want_X, want_y = reference_encode_features(records, schema)
        assert np.asarray(X).tobytes() == want_X.tobytes() and y.tobytes() == want_y.tobytes()


def test_encode_on_synthetic_corpus_matches_reference():
    records, _, _ = synth_generate(58, 5000, seed=2)
    schema = build_schema(records[:3000])  # ids of the other rows clip
    X, y = encode_features(records, schema)
    want_X, want_y = reference_encode_features(records, schema)
    assert np.asarray(X).tobytes() == want_X.tobytes() and y.tobytes() == want_y.tobytes()


@pytest.mark.parametrize("bad", [
    [TransactionRecord("Z", 1, 1, 0, 1.0), TransactionRecord("A", 1, 9, 0, 1.0)],
    [TransactionRecord("A", 1, 0, 0, 1.0), TransactionRecord("Z", 1, 1, 0, 1.0)],
    [TransactionRecord("A", 1, 1, 24, 1.0), TransactionRecord("Z", 1, 8, 0, 1.0)],
])
def test_encoding_error_names_the_first_offending_record(bad):
    records = [TransactionRecord("A", 1, 1, 0, 1.0), *bad]
    schema = build_schema([TransactionRecord("A", 1, 1, 0, 1.0),
                           TransactionRecord("A", 2, 1, 0, 2.0)])
    with pytest.raises(EncodingError) as got:
        feature_codes(records, schema)
    with pytest.raises(EncodingError) as want:
        reference_feature_codes(records, schema)
    assert str(got.value) == str(want.value)


# ------------------------------------------------------------------ the type


def test_transactions_round_trip_records():
    rows = [TransactionRecord("B", 3, 2, 5, 1.5), TransactionRecord("A", BIG, 7, 0, 0.0),
            TransactionRecord("B", -1, 1, 23, 2.0)]
    t = Transactions.of(rows)
    assert Transactions.of(t) is t
    assert t.vocabulary == ("A", "B") and t.station.tolist() == [1, 0, 1]
    assert list(t) == rows and len(t) == 3
    assert t[1] == rows[1] and t[-1] == rows[-1]
    assert list(t[1:]) == rows[1:] and list(t.take(np.array([2, 0]))) == [rows[2], rows[0]]
    assert t.take(np.array([0, 2])).station_ids() == ("B",)
    assert t == Transactions.of(rows) and t != Transactions.of(rows[:2])
    with pytest.raises(IndexError):
        t[3]
    with pytest.raises(ValueError):
        t.energy_kwh[0] = 1.0  # columns are read-only
    empty = Transactions.of([])
    assert len(empty) == 0 and list(empty) == [] and empty.station_ids() == ()


@pytest.mark.parametrize("rows", [1, 5, 40])
def test_station_ids_of_a_subset_are_its_sorted_distinct_ids(rows):
    records, _, _ = synth_generate(9, 300, seed=4)
    subset = records.take(np.random.default_rng(rows).permutation(len(records))[:rows])
    assert subset.vocabulary == records.vocabulary
    assert subset.station_ids() == tuple(sorted({r.station_id for r in subset}))
