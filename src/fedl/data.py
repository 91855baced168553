"""Transaction ingestion, feature encoding, splits and worker partitions.

The on-disk formats are plain CSV:

* transactions: header ``station_id,transaction_id,date,time,energy_kwh``
  with ISO-8601 dates and HH:MM times;
* stations: header ``station_id,latitude,longitude``.

Parsing is lenient per row and strict per file: a missing or wrong header
is fatal, while malformed rows become (line_number, reason) reject entries
and do not stop ingestion.

Features are one-hot station ⊕ one-hot day-of-week (Monday=1) ⊕ one-hot
hour, optionally followed by the transaction id min-max scaled to [0, 1].
Labels are z-scored with statistics taken from training records only.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from datetime import date as _date
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DataFormatError,
    DegenerateDataError,
    DegenerateSplitError,
    EncodingError,
)

TRANSACTIONS_HEADER = ("station_id", "transaction_id", "date", "time", "energy_kwh")
STATIONS_HEADER = ("station_id", "latitude", "longitude")


@dataclass(frozen=True)
class TransactionRecord:
    station_id: str
    transaction_id: int
    day_of_week: int  # 1 = Monday .. 7 = Sunday
    hour: int  # 0..23
    energy_kwh: float


@dataclass(frozen=True)
class StationInfo:
    station_id: str
    latitude: float
    longitude: float


@dataclass(frozen=True)
class RejectedRow:
    line_number: int
    reason: str


@dataclass(frozen=True)
class EncodingSchema:
    """Everything needed to turn records into arrays, and back for labels."""

    station_vocabulary: tuple[str, ...]
    include_transaction_id: bool
    label_mean: float
    label_std: float
    txn_min: int = 0
    txn_max: int = 0

    @property
    def width(self) -> int:
        base = len(self.station_vocabulary) + 7 + 24
        return base + 1 if self.include_transaction_id else base

    def to_dict(self) -> dict:
        return {
            "station_vocabulary": list(self.station_vocabulary),
            "include_transaction_id": self.include_transaction_id,
            "label_mean": self.label_mean,
            "label_std": self.label_std,
            "txn_min": self.txn_min,
            "txn_max": self.txn_max,
        }

    @staticmethod
    def from_dict(d: dict) -> "EncodingSchema":
        return EncodingSchema(
            station_vocabulary=tuple(d["station_vocabulary"]),
            include_transaction_id=bool(d["include_transaction_id"]),
            label_mean=float(d["label_mean"]),
            label_std=float(d["label_std"]),
            txn_min=int(d["txn_min"]),
            txn_max=int(d["txn_max"]),
        )


class PartitionStrategy(enum.Enum):
    BY_STATION = "by_station"
    ROUND_ROBIN = "round_robin"


@dataclass(frozen=True)
class WorkerPartition:
    """One worker's slice of the training set.

    ``record_indices`` index into the training record list and are kept in
    ascending order; ``station_ids`` are the distinct stations whose
    records landed on this worker (the membership relation).
    """

    worker_id: int
    record_indices: tuple[int, ...]
    station_ids: tuple[str, ...]


def _parse_row(line_number: int, row: list[str]):
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
        day = _date.fromisoformat(raw_date).isoweekday()
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
    return (
        TransactionRecord(
            station_id=raw_station,
            transaction_id=txn,
            day_of_week=day,
            hour=hour,
            energy_kwh=energy,
        ),
        None,
    )


def parse_transactions(
    lines: Iterable[str],
) -> tuple[list[TransactionRecord], list[RejectedRow]]:
    """Parse a transactions CSV stream.

    Returns records in file order plus a rejects report. A missing or
    wrong header raises :class:`DataFormatError`; malformed rows are
    rejected individually and never abort the parse.
    """
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError("transactions file is empty (missing header)") from None
    if tuple(c.strip() for c in header) != TRANSACTIONS_HEADER:
        raise DataFormatError(
            f"bad transactions header: expected {','.join(TRANSACTIONS_HEADER)}, "
            f"got {','.join(header)}"
        )
    records: list[TransactionRecord] = []
    rejects: list[RejectedRow] = []
    for line_number, row in enumerate(reader, start=2):
        if not row:  # blank line
            continue
        record, reject = _parse_row(line_number, row)
        if record is not None:
            records.append(record)
        else:
            rejects.append(reject)
    return records, rejects


def parse_stations(lines: Iterable[str]) -> list[StationInfo]:
    """Parse a stations CSV stream (strict: any bad row is fatal)."""
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError("stations file is empty (missing header)") from None
    if tuple(c.strip() for c in header) != STATIONS_HEADER:
        raise DataFormatError(
            f"bad stations header: expected {','.join(STATIONS_HEADER)}, "
            f"got {','.join(header)}"
        )
    stations: list[StationInfo] = []
    seen: set[str] = set()
    for line_number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise DataFormatError(f"stations line {line_number}: expected 3 fields")
        sid, raw_lat, raw_lon = (c.strip() for c in row)
        if not sid:
            raise DataFormatError(f"stations line {line_number}: empty station_id")
        if sid in seen:
            raise DataFormatError(f"stations line {line_number}: duplicate id {sid!r}")
        try:
            lat, lon = float(raw_lat), float(raw_lon)
        except ValueError:
            raise DataFormatError(
                f"stations line {line_number}: coordinates not numeric"
            ) from None
        if not (abs(lat) <= 90.0 and abs(lon) <= 180.0):
            raise DataFormatError(
                f"stations line {line_number}: coordinates out of range ({lat}, {lon})"
            )
        seen.add(sid)
        stations.append(StationInfo(station_id=sid, latitude=lat, longitude=lon))
    return stations


def build_schema(
    records: Sequence[TransactionRecord],
    include_transaction_id: bool = True,
    station_vocabulary: Sequence[str] | None = None,
) -> EncodingSchema:
    """Derive an encoding schema from training records.

    Label statistics always come from ``records``.  The station vocabulary
    defaults to the sorted distinct ids seen in ``records``; pass
    ``station_vocabulary`` to widen it (e.g. to stations that only appear
    at evaluation time) — it must cover every station in ``records``.
    """
    if not records:
        raise DegenerateDataError("cannot build a schema from zero records")
    seen = {r.station_id for r in records}
    if station_vocabulary is None:
        vocab = tuple(sorted(seen))
    else:
        vocab = tuple(sorted(set(station_vocabulary)))
        missing = seen - set(vocab)
        if missing:
            raise EncodingError(
                f"vocabulary does not cover training stations: {sorted(missing)}"
            )
    labels = np.array([r.energy_kwh for r in records], dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(labels.mean())
        std = float(labels.std())  # population stddev
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise DegenerateDataError(
            f"label statistics overflow float64 (mean {mean!r}, std {std!r}); "
            "standardization is undefined"
        )
    if std == 0.0:
        raise DegenerateDataError(
            "labels are single-valued; standardization is undefined"
        )
    txns = [r.transaction_id for r in records]
    return EncodingSchema(
        station_vocabulary=vocab,
        include_transaction_id=include_transaction_id,
        label_mean=mean,
        label_std=std,
        txn_min=min(txns),
        txn_max=max(txns),
    )


def encode_features(
    records: Sequence[TransactionRecord], schema: EncodingSchema
) -> tuple[np.ndarray, np.ndarray]:
    """Encode records as (X, standardized labels).

    Row layout: one-hot station | one-hot day (7) | one-hot hour (24)
    | scaled transaction id (when the schema includes it, clipped to [0,1]).
    """
    index = {sid: i for i, sid in enumerate(schema.station_vocabulary)}
    n = len(records)
    n_stations = len(schema.station_vocabulary)
    X = np.zeros((n, schema.width), dtype=np.float64)
    y = np.empty(n, dtype=np.float64)
    span = schema.txn_max - schema.txn_min
    for row, r in enumerate(records):
        col = index.get(r.station_id)
        if col is None:
            raise EncodingError(f"station {r.station_id!r} not in schema vocabulary")
        if not (1 <= r.day_of_week <= 7 and 0 <= r.hour <= 23):
            raise EncodingError(
                f"record out of range: day={r.day_of_week}, hour={r.hour}"
            )
        X[row, col] = 1.0
        X[row, n_stations + (r.day_of_week - 1)] = 1.0
        X[row, n_stations + 7 + r.hour] = 1.0
        if schema.include_transaction_id:
            if span == 0:
                scaled = 0.0
            else:
                scaled = (r.transaction_id - schema.txn_min) / span
            X[row, -1] = min(1.0, max(0.0, scaled))
        y[row] = (r.energy_kwh - schema.label_mean) / schema.label_std
    return X, y


def destandardize_labels(y, schema: EncodingSchema) -> np.ndarray:
    """Map standardized labels back to kWh."""
    return np.asarray(y, dtype=np.float64) * schema.label_std + schema.label_mean


def split_train_test(
    records: Sequence[TransactionRecord], ratio: float, seed: int
) -> tuple[list[TransactionRecord], list[TransactionRecord]]:
    """Seeded uniform shuffle, then prefix split with |train| = round(ratio·N)."""
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"train ratio must be in (0, 1), got {ratio}")
    n = len(records)
    n_train = int(math.floor(ratio * n + 0.5))  # round half up
    if n_train == 0 or n_train == n:
        raise DegenerateSplitError(
            f"ratio {ratio} over {n} records leaves an empty side"
        )
    order = np.random.default_rng(seed).permutation(n)
    train = [records[i] for i in order[:n_train]]
    test = [records[i] for i in order[n_train:]]
    return train, test


def partition_workers(
    records: Sequence[TransactionRecord],
    workers: int,
    strategy: PartitionStrategy = PartitionStrategy.BY_STATION,
) -> list[WorkerPartition]:
    """Split training records across workers.

    ByStation walks the sorted distinct station ids round-robin, so each
    station's records live on exactly one worker.  RoundRobin sends record
    r to worker r mod J.  Indices within a worker stay ascending.
    """
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    if workers > len(records):
        raise DegenerateSplitError(
            f"{workers} workers cannot share {len(records)} records"
        )
    buckets: list[list[int]] = [[] for _ in range(workers)]
    if strategy is PartitionStrategy.BY_STATION:
        stations = sorted({r.station_id for r in records})
        owner = {sid: k % workers for k, sid in enumerate(stations)}
        for idx, r in enumerate(records):
            buckets[owner[r.station_id]].append(idx)
    elif strategy is PartitionStrategy.ROUND_ROBIN:
        for idx in range(len(records)):
            buckets[idx % workers].append(idx)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown partition strategy: {strategy}")
    empty = [j for j, b in enumerate(buckets) if not b]
    if empty:
        raise DegenerateSplitError(
            f"partition leaves workers {empty} without records "
            f"(too many workers for this corpus/strategy)"
        )
    return [
        WorkerPartition(
            worker_id=j,
            record_indices=tuple(bucket),
            station_ids=tuple(sorted({records[i].station_id for i in bucket})),
        )
        for j, bucket in enumerate(buckets)
    ]


@dataclass(frozen=True)
class SynthMetadata:
    """The generating function behind a synthetic corpus.

    ``signal(station_index, day, hour)`` returns the noise-free label, so
    tests can measure how much of the structure a model recovered.
    """

    noise_std: float
    base: tuple[float, ...]
    hour_amplitude: tuple[float, ...]
    hour_phase: tuple[float, ...]
    day_amplitude: tuple[float, ...]

    def signal(self, station_index: int, day: int, hour: int) -> float:
        return (
            self.base[station_index]
            + self.hour_amplitude[station_index]
            * math.sin(2.0 * math.pi * hour / 24.0 + self.hour_phase[station_index])
            + self.day_amplitude[station_index] * math.cos(2.0 * math.pi * day / 7.0)
        )


def synth_generate(
    n_stations: int,
    n_records: int,
    seed: int,
    noise_std: float = 0.8,
) -> tuple[list[TransactionRecord], list[StationInfo], SynthMetadata]:
    """Generate a desk-scale corpus with a known generating function.

    Stations sit in two spatial lobes; demand is a smooth per-station
    function of day and hour plus Gaussian noise, clamped at zero.  Same
    seed in, identical corpus out.
    """
    if n_stations < 1 or n_records < 1:
        raise ValueError("n_stations and n_records must both be >= 1")
    rng = np.random.default_rng(seed)
    width = len(str(n_stations - 1))
    ids = [f"S{i:0{width}d}" for i in range(n_stations)]

    lobe = np.arange(n_stations) % 2
    lat = np.where(lobe == 0, 56.46, 56.49) + rng.normal(0.0, 0.004, n_stations)
    lon = np.where(lobe == 0, -3.03, -2.97) + rng.normal(0.0, 0.004, n_stations)
    stations = [
        StationInfo(station_id=ids[i], latitude=float(lat[i]), longitude=float(lon[i]))
        for i in range(n_stations)
    ]

    base = rng.uniform(4.0, 16.0, n_stations) + 4.0 * lobe
    hour_amp = rng.uniform(0.5, 2.5, n_stations)
    hour_phase = rng.uniform(0.0, 2.0 * math.pi, n_stations)
    day_amp = rng.uniform(0.25, 1.25, n_stations)
    meta = SynthMetadata(
        noise_std=noise_std,
        base=tuple(float(v) for v in base),
        hour_amplitude=tuple(float(v) for v in hour_amp),
        hour_phase=tuple(float(v) for v in hour_phase),
        day_amplitude=tuple(float(v) for v in day_amp),
    )

    station_idx = rng.integers(0, n_stations, n_records)
    days = rng.integers(1, 8, n_records)
    hours = rng.integers(0, 24, n_records)
    noise = rng.normal(0.0, noise_std, n_records)
    counters = [0] * n_stations
    records: list[TransactionRecord] = []
    for i in range(n_records):
        s = int(station_idx[i])
        counters[s] += 1
        energy = max(0.0, meta.signal(s, int(days[i]), int(hours[i])) + float(noise[i]))
        records.append(
            TransactionRecord(
                station_id=ids[s],
                transaction_id=counters[s],
                day_of_week=int(days[i]),
                hour=int(hours[i]),
                energy_kwh=energy,
            )
        )
    return records, stations, meta
