import dataclasses
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedl.data import (
    EncodedFeatures,
    EncodingSchema,
    PartitionStrategy,
    WorkerPartition,
    build_schema,
    encode_features,
    parse_stations,
    parse_transactions,
    partition_workers,
    split_train_test,
    synth_generate,
)
from fedl.errors import (
    DataFormatError,
    DegenerateDataError,
    DegenerateSplitError,
    EncodingError,
)
from fedl.nn import STEP_BLOCK_ROWS, Workspace, take_rows

from helpers import (
    assert_codes_match_reference,
    reference_encode_features,
    reference_feature_codes,
)

HEADER = "station_id,transaction_id,date,time,energy_kwh\n"


def make_csv(rows):
    return io.StringIO(HEADER + "".join(r + "\n" for r in rows))


# --------------------------------------------------------------- parsing


def test_parse_monday_afternoon_row():
    records, rejects = parse_transactions(make_csv(["CS1,9,2017-03-06,14:37,8.2"]))
    assert rejects == []
    (r,) = records
    assert r.station_id == "CS1"
    assert r.transaction_id == 9
    assert r.day_of_week == 1  # 2017-03-06 was a Monday
    assert r.hour == 14
    assert r.energy_kwh == 8.2


def test_parse_sunday_wraps_to_seven():
    records, _ = parse_transactions(make_csv(["CS1,1,2017-03-12,00:00,1.0"]))
    assert records[0].day_of_week == 7
    assert records[0].hour == 0


def test_parse_rejects_carry_line_numbers():
    rows = [
        "CS1,1,2017-03-06,10:00,5.0",
        "CS1,x,2017-03-06,10:00,5.0",  # bad transaction id (line 3)
        "CS1,2,2017-13-06,10:00,5.0",  # bad month (line 4)
        "CS1,3,2017-03-06,25:00,5.0",  # bad hour (line 5)
        "CS1,4,2017-03-06,10:00,",  # missing energy (line 6)
        "CS1,5,2017-03-06,10:61,5.0",  # bad minute (line 7)
    ]
    records, rejects = parse_transactions(make_csv(rows))
    assert len(records) == 1
    assert [rej.line_number for rej in rejects] == [3, 4, 5, 6, 7]
    for rej in rejects:
        assert rej.reason


def test_parse_rejects_negative_energy_and_field_count():
    rows = ["CS1,1,2017-03-06,10:00,-2.0", "CS1,2,2017-03-06,10:00"]
    records, rejects = parse_transactions(make_csv(rows))
    assert list(records) == []
    assert len(rejects) == 2


def test_parse_bad_header_is_fatal():
    src = io.StringIO("station,txn,when,clock,kwh\nCS1,1,2017-03-06,10:00,5.0\n")
    with pytest.raises(DataFormatError):
        parse_transactions(src)


def test_parse_empty_stream_is_fatal():
    with pytest.raises(DataFormatError):
        parse_transactions(io.StringIO(""))


def test_parse_header_only_gives_no_records():
    records, rejects = parse_transactions(io.StringIO(HEADER))
    assert list(records) == [] and rejects == []


def test_parse_skips_blank_lines():
    src = io.StringIO(HEADER + "\nCS1,1,2017-03-06,10:00,5.0\n\n")
    records, rejects = parse_transactions(src)
    assert len(records) == 1 and rejects == []


# --------------------------------------------------------------- stations


def test_parse_stations_roundtrip():
    src = io.StringIO("station_id,latitude,longitude\nA,56.5,-3.0\nB,56.46,-2.97\n")
    stations = parse_stations(src)
    assert [s.station_id for s in stations] == ["A", "B"]
    assert stations[0].latitude == 56.5


def test_parse_stations_duplicate_is_fatal():
    src = io.StringIO("station_id,latitude,longitude\nA,1.0,2.0\nA,3.0,4.0\n")
    with pytest.raises(DataFormatError):
        parse_stations(src)


def test_parse_stations_rejects_out_of_range_latitude():
    src = io.StringIO("station_id,latitude,longitude\nA,91.0,0.0\n")
    with pytest.raises(DataFormatError):
        parse_stations(src)


# --------------------------------------------------------------- schema/encoding


def corpus_records():
    rows = [
        "B,10,2017-03-06,14:00,8.0",
        "A,20,2017-03-07,09:30,4.0",
        "C,30,2017-03-08,23:59,6.0",
        "A,40,2017-03-09,00:01,2.0",
    ]
    records, rejects = parse_transactions(make_csv(rows))
    assert not rejects
    return records


def test_schema_vocabulary_is_sorted_and_width_adds_up():
    schema = build_schema(corpus_records())
    assert schema.station_vocabulary == ("A", "B", "C")
    assert schema.width == 3 + 7 + 24 + 1
    no_txn = build_schema(corpus_records(), include_transaction_id=False)
    assert no_txn.width == 3 + 7 + 24


def test_schema_fifty_eight_stations_width_ninety():
    # the deployment size from the evaluation setting: 58 stations
    records, _, _ = synth_generate(58, 580, seed=1)
    schema = build_schema(records)
    assert schema.width == 58 + 7 + 24 + 1 == 90


def test_schema_label_stats_are_population_moments():
    records = corpus_records()
    schema = build_schema(records)
    y = np.array([r.energy_kwh for r in records])
    assert schema.label_mean == pytest.approx(y.mean(), abs=1e-15)
    assert schema.label_std == pytest.approx(y.std(), abs=1e-15)  # ddof=0


def test_feature_codes_are_the_encoding_before_one_hot():
    records = corpus_records()
    # ids 20..30 from the middle rows: 10 and 40 get clipped
    schema = build_schema(records[1:3], station_vocabulary=["A", "B", "C"])
    X, _ = encode_features(records, schema)
    codes = reference_feature_codes(records, schema)
    # B=1 Mon 14h id 10 -> 0; A=0 Tue 9h 20 -> 0; C=2 Wed 23h 30 -> 10; A Thu 0h 40 -> 10
    assert codes.tolist() == [[1, 1, 14, 0], [0, 2, 9, 0], [2, 3, 23, 10], [0, 4, 0, 10]]
    assert_codes_match_reference(X, records, schema)
    assert X.offset.dtype == np.int64 and X.span == 10
    with pytest.raises(EncodingError):
        encode_features(records, build_schema(records[::2]))  # vocab B, C: no A
    s = len(schema.station_vocabulary)
    rows = np.arange(len(records))
    assert np.all(X[rows, codes[:, 0]] == 1.0)
    assert np.all(X[rows, s + codes[:, 1] - 1] == 1.0)
    assert np.all(X[rows, s + 7 + codes[:, 2]] == 1.0)
    assert X[:, -1].tolist() == (codes[:, 3] / 10).tolist()
    assert np.asarray(X).sum() == 3 * len(records) + 2.0
    no_txn, _ = encode_features(records, build_schema(records, include_transaction_id=False))
    assert no_txn.offset is None and no_txn.hot.tolist() == X.hot.tolist()


def test_schema_constant_labels_rejected():
    rows = [f"A,{i},2017-03-06,10:00,5.0" for i in range(3)]
    records, _ = parse_transactions(make_csv(rows))
    with pytest.raises(DegenerateDataError):
        build_schema(records)


@pytest.mark.parametrize("energies", [["1e308"] * 3 + ["5.0"], ["1e200", "0.0"]])
def test_schema_overflowing_label_stats_rejected(energies):
    # each value is finite, but the mean (first case) or the variance
    # (second case) overflows float64
    rows = [f"A,{i},2017-03-06,10:00,{e}" for i, e in enumerate(energies)]
    records, rejects = parse_transactions(make_csv(rows))
    assert not rejects
    with pytest.raises(DegenerateDataError, match="label statistics"):
        build_schema(records)


def test_schema_vocabulary_override_must_cover_records():
    records = corpus_records()
    schema = build_schema(records, station_vocabulary=["A", "B", "C", "Z"])
    assert schema.station_vocabulary == ("A", "B", "C", "Z")
    with pytest.raises(EncodingError):
        build_schema(records, station_vocabulary=["A", "B"])


def test_schema_dict_roundtrip():
    schema = build_schema(corpus_records())
    clone = type(schema).from_dict(schema.to_dict())
    assert clone == schema


@pytest.mark.parametrize("vocabulary", [["C", "B", "A"], ["A", "A", "B", "C"]],
                         ids=["reversed", "duplicate"])
def test_schema_dict_rejects_a_vocabulary_not_strictly_ascending(vocabulary):
    # encode_features gives station i column i: a reordered vocabulary
    # would feed a model each station's weights under another's column
    d = {**build_schema(corpus_records()).to_dict(), "station_vocabulary": vocabulary}
    with pytest.raises(DataFormatError, match="strictly ascending"):
        EncodingSchema.from_dict(d)


def test_encode_one_hot_blocks():
    records = corpus_records()
    schema = build_schema(records)
    X, y = encode_features(records, schema)
    assert X.shape == (4, schema.width)
    row = X[0]  # station B, Monday, 14:00
    assert row[schema.station_vocabulary.index("B")] == 1.0
    assert np.sum(row[:3]) == 1.0
    assert row[3 + 0] == 1.0 and np.sum(row[3 : 3 + 7]) == 1.0  # Monday slot
    assert row[3 + 7 + 14] == 1.0 and np.sum(row[10:34]) == 1.0
    # transaction id scaled into [0, 1]
    assert 0.0 <= row[-1] <= 1.0
    assert X[0, -1] == 0.0  # txn 10 is the minimum
    assert X[3, -1] == 1.0  # txn 40 is the maximum


def test_encode_clips_out_of_range_transaction_ids():
    records = corpus_records()
    schema = dataclasses.replace(build_schema(records), txn_min=10, txn_max=20)
    X, _ = encode_features(records, schema)
    assert X[2, -1] == 1.0  # txn 30 clipped high
    assert np.all(X[:, -1] >= 0.0) and np.all(X[:, -1] <= 1.0)


def test_encode_unknown_station_raises():
    records = corpus_records()
    schema = build_schema(records[:2])  # vocabulary {A, B}
    with pytest.raises(EncodingError):
        encode_features(records, schema)


def test_encoded_labels_are_standardized():
    records = corpus_records()
    schema = build_schema(records)
    _, y = encode_features(records, schema)
    assert y.mean() == pytest.approx(0.0, abs=1e-9)
    assert y.std() == pytest.approx(1.0, abs=1e-9)


# --------------------------------------------------------------- encoded matrix


def encoded_corpus(kind):
    """(records, schema) of STEP_BLOCK_ROWS + 5 synthetic records, so the
    rows span one full block and a partial one.  ``kind`` picks the id
    column: scaled ids, none, a zero span, or offsets beyond int64."""
    records = list(synth_generate(5, STEP_BLOCK_ROWS + 5, seed=4)[0])
    if kind == "zero_span":
        records = [r._replace(transaction_id=7) for r in records]
    elif kind == "big_ids":  # ids up to ~2**71: the offsets overflow int64
        records = [
            r._replace(transaction_id=(i - 40) * 2**60 + i)
            for i, r in enumerate(records)
        ]
    schema = build_schema(records, include_transaction_id=kind != "no_id")
    return records, schema


@pytest.mark.parametrize("kind", ["scaled_id", "no_id", "zero_span", "big_ids"])
def test_expanded_blocks_hold_the_dense_rows_bytes(kind):
    records, schema = encoded_corpus(kind)
    X, y = encode_features(records, schema)
    want_X, want_y = reference_encode_features(records, schema)
    dense = np.asarray(X)
    assert isinstance(X, EncodedFeatures) and X.shape == dense.shape == want_X.shape
    assert len(X) == len(records) and dense.dtype == np.float64
    assert dense.tobytes() == want_X.tobytes() and y.tobytes() == want_y.tobytes()
    assert_codes_match_reference(X, records, schema)
    assert (X.offset is None) == (kind in ("no_id", "zero_span"))
    if kind == "big_ids":
        assert X.offset.dtype == object
    n = len(records)
    scattered = np.random.default_rng(1).permutation(n)[:300]
    selections = [
        scattered, np.arange(100, 400), slice(100, 400), np.array([7]), slice(7, 8),
        # a site's blocks in order, the last one partial, in one workspace
        slice(0, STEP_BLOCK_ROWS), slice(STEP_BLOCK_ROWS, n),
        np.arange(STEP_BLOCK_ROWS), np.arange(STEP_BLOCK_ROWS, n),
    ]
    workspace = Workspace()
    for rows in selections:
        block = take_rows(X, rows, workspace)
        assert block.flags.c_contiguous
        assert block.tobytes() == dense[rows].tobytes()
    assert [name for name, _, _ in workspace._arrays] == [("rows",)]


@pytest.mark.parametrize("key", [
    5, -1, np.int64(3), slice(None), slice(10, 3, -2), [3, 1, 3],
    np.array([[0, 1], [2, 3]]), (slice(2, 9), -1), ([0, 4], [1, 2]),
    ([0, 4], slice(None, 5)), (3, slice(None)), (Ellipsis, -1), (slice(4), None),
    (np.array([2, 0]), np.array([[1], [5]])),
], ids=repr)
def test_indexing_builds_the_dense_value(key):
    records, schema = encoded_corpus("scaled_id")
    X, _ = encode_features(records[:20], schema)
    got, want = X[key], np.asarray(X)[key]
    assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == want.dtype
    assert np.array_equal(got, want)


def test_indexing_by_a_mask_and_out_of_range():
    records, schema = encoded_corpus("scaled_id")
    X, _ = encode_features(records[:20], schema)
    mask = np.arange(20) % 3 == 0
    assert np.array_equal(X[mask], np.asarray(X)[mask])
    with pytest.raises(IndexError):
        X[20]
    with pytest.raises(IndexError):
        X[np.array([0, -21])]


def test_encoded_matrix_is_read_only():
    records, schema = encoded_corpus("scaled_id")
    X, _ = encode_features(records[:20], schema)
    with pytest.raises(TypeError):
        X[0] = 1.0
    with pytest.raises(ValueError):
        np.asarray(X, copy=False)
    assert np.asarray(X, dtype=np.float32).dtype == np.float32


def test_encode_features_never_builds_the_dense_matrix():
    # 50k rows of 90 features would be 34.3 MiB dense; the encoded matrix
    # holds 20 bytes a row and the labels 8
    records, _, _ = synth_generate(58, 50_000, seed=1)
    schema = build_schema(records)
    assert schema.width == 90
    encode_features(records[:10], schema)  # first-call set-up
    tracemalloc.start()
    try:
        X, _ = encode_features(records, schema)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


# --------------------------------------------------------------- split


def test_split_eighty_twenty_of_ten():
    records = synth_generate(3, 10, seed=2)[0]
    train, test = split_train_test(records, 0.8, seed=0)
    assert len(train) == 8 and len(test) == 2


def test_split_rounds_half_up():
    records = synth_generate(3, 5, seed=2)[0]
    train, test = split_train_test(records, 0.5, seed=0)
    # floor(0.5 * 5 + 0.5) = 3
    assert len(train) == 3 and len(test) == 2


def test_split_is_seed_deterministic_and_partitions_corpus():
    records = synth_generate(4, 40, seed=3)[0]
    a_train, a_test = split_train_test(records, 0.7, seed=9)
    b_train, b_test = split_train_test(records, 0.7, seed=9)
    assert a_train == b_train and a_test == b_test
    ids = sorted(r.transaction_id for r in [*a_train, *a_test])
    assert ids == sorted(r.transaction_id for r in records)


def test_split_varies_with_seed():
    records = synth_generate(4, 40, seed=3)[0]
    a, _ = split_train_test(records, 0.7, seed=1)
    b, _ = split_train_test(records, 0.7, seed=2)
    assert a != b


def test_split_rejects_empty_side():
    records = synth_generate(2, 4, seed=0)[0]
    with pytest.raises(DegenerateSplitError):
        split_train_test(records, 0.999, seed=0)
    with pytest.raises(DegenerateSplitError):
        split_train_test(records, 0.001, seed=0)


# --------------------------------------------------------------- partition


def test_partition_single_worker_takes_everything():
    records = synth_generate(3, 12, seed=4)[0]
    parts = partition_workers(records, 1, PartitionStrategy.ROUND_ROBIN)
    assert len(parts) == 1
    assert list(parts[0].record_indices) == list(range(12))


def test_partition_round_robin_sizes():
    records = synth_generate(2, 10, seed=4)[0]
    parts = partition_workers(records, 3, PartitionStrategy.ROUND_ROBIN)
    assert sorted(len(p.record_indices) for p in parts) == [3, 3, 4]
    assert list(parts[0].record_indices) == [0, 3, 6, 9]


def test_partition_by_station_groups_stations():
    records = synth_generate(4, 40, seed=5)[0]
    parts = partition_workers(records, 4, PartitionStrategy.BY_STATION)
    # each station's records all land on one worker: listing every worker's
    # stations names each station exactly once
    owners = [
        sid for p in parts for sid in {records[i].station_id for i in p.record_indices}
    ]
    assert sorted(owners) == sorted({r.station_id for r in records})


@settings(max_examples=40, deadline=None)
@given(
    n_records=st.integers(8, 60),
    workers=st.integers(1, 8),
    strategy=st.sampled_from(list(PartitionStrategy)),
)
def test_partition_is_a_disjoint_cover(n_records, workers, strategy):
    records = synth_generate(8, n_records, seed=6)[0]
    try:
        parts = partition_workers(records, workers, strategy)
    except DegenerateSplitError:
        # legal outcome when some worker would get nothing
        assert strategy == PartitionStrategy.BY_STATION or workers > n_records
        return
    seen = [i for p in parts for i in p.record_indices]
    assert sorted(seen) == list(range(n_records))
    for p in parts:
        assert list(p.record_indices) == sorted(p.record_indices)


def test_partition_holds_read_only_int64_indices():
    records = synth_generate(3, 12, seed=4)[0]
    for p in partition_workers(records, 2, PartitionStrategy.ROUND_ROBIN):
        assert p.record_indices.dtype == np.int64 and p.record_indices.ndim == 1
        assert not p.record_indices.flags.writeable
    given_ids = np.array([1, 4, 7])
    part = WorkerPartition(0, given_ids)
    given_ids[0] = 99  # the partition copied the caller's writable array
    assert part.record_indices.tolist() == [1, 4, 7]


def test_partition_equality_compares_indices_and_is_unhashable():
    a = WorkerPartition(0, (1, 4, 7))
    assert a == WorkerPartition(0, np.array([1, 4, 7]))
    assert a != WorkerPartition(0, (1, 4))
    assert a != WorkerPartition(0, (1, 4, 8))
    assert a != WorkerPartition(1, (1, 4, 7))
    assert partition_workers(synth_generate(3, 12, seed=4)[0], 2) == partition_workers(
        synth_generate(3, 12, seed=4)[0], 2
    )
    with pytest.raises(TypeError):
        hash(a)


def test_partition_more_workers_than_records_rejected():
    records = synth_generate(2, 3, seed=7)[0]
    with pytest.raises(DegenerateSplitError):
        partition_workers(records, 5, PartitionStrategy.ROUND_ROBIN)


def test_partition_more_workers_than_stations_rejected():
    records = synth_generate(2, 30, seed=7)[0]
    with pytest.raises(DegenerateSplitError):
        partition_workers(records, 3, PartitionStrategy.BY_STATION)


# --------------------------------------------------------------- synth


def test_synth_is_deterministic():
    a_recs, a_sts, a_meta = synth_generate(5, 100, seed=42)
    b_recs, b_sts, b_meta = synth_generate(5, 100, seed=42)
    assert a_recs == b_recs and a_sts == b_sts
    assert a_meta == b_meta


def test_synth_seed_changes_output():
    a = synth_generate(5, 100, seed=1)[0]
    b = synth_generate(5, 100, seed=2)[0]
    assert a != b


def test_synth_shapes_and_ranges():
    records, stations, meta = synth_generate(6, 200, seed=8)
    assert len(records) == 200
    assert len(stations) == 6
    assert len({s.station_id for s in stations}) == 6
    for r in records:
        assert r.energy_kwh >= 0.0
        assert 1 <= r.day_of_week <= 7
        assert 0 <= r.hour <= 23
    for s in stations:
        assert 56.0 < s.latitude < 57.0
        assert -3.2 < s.longitude < -2.8


def test_synth_transaction_ids_count_per_station():
    # ids are per-station visit counters: unique within a station, 1..n
    records = synth_generate(4, 150, seed=9)[0]
    pairs = [(r.station_id, r.transaction_id) for r in records]
    assert len(set(pairs)) == len(pairs)
    per_station: dict[str, list[int]] = {}
    for r in records:
        per_station.setdefault(r.station_id, []).append(r.transaction_id)
    for ids in per_station.values():
        assert sorted(ids) == list(range(1, len(ids) + 1))


def test_synth_metadata_signal_is_learnable_ordering():
    # the declared noiseless signal must explain most label variance
    records, stations, meta = synth_generate(6, 400, seed=11, noise_std=0.5)
    index = {s.station_id: i for i, s in enumerate(stations)}
    y = np.array([r.energy_kwh for r in records])
    clean = np.array(
        [meta.signal(index[r.station_id], r.day_of_week, r.hour) for r in records]
    )
    residual = y - clean
    assert residual.std() < 0.6 * y.std()
