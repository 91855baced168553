import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedl.data import (
    PartitionStrategy,
    build_schema,
    destandardize_labels,
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
    assert records == []
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
    assert records == [] and rejects == []


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
    import dataclasses

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


def test_destandardize_roundtrip():
    records = corpus_records()
    schema = build_schema(records)
    _, y = encode_features(records, schema)
    back = destandardize_labels(y, schema)
    original = np.array([r.energy_kwh for r in records])
    assert np.allclose(back, original, rtol=0, atol=1e-12)


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
    ids = sorted(r.transaction_id for r in a_train + a_test)
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
    for p in parts:
        # all records on a worker come from that worker's stations
        for i in p.record_indices:
            assert records[i].station_id in p.station_ids
    owners = [sid for p in parts for sid in p.station_ids]
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
