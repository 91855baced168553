"""Transaction ingestion, feature encoding, splits and worker partitions.

The on-disk formats are plain CSV:

* transactions: header ``station_id,transaction_id,date,time,energy_kwh``
  with ISO-8601 dates and HH:MM times;
* stations: header ``station_id,latitude,longitude``.

Parsing is lenient per row and strict per file: a missing or wrong header
is fatal, while malformed rows become (line_number, reason) reject entries
and do not stop ingestion.

Transactions travel as :class:`Transactions`, one numpy column per field:
station (an index into a sorted tuple of station ids), transaction id,
day, hour and energy.  Parsing, generation, splits, encoding and
partitions work on whole columns.  Iterating Transactions, or indexing
them by an int, yields :class:`TransactionRecord` rows; a list of records
becomes Transactions through ``Transactions.of``, which every function
here that takes records applies first.

Features are one-hot station ⊕ one-hot day-of-week (Monday=1) ⊕ one-hot
hour, optionally followed by the transaction id min-max scaled to [0, 1].
:func:`encode_features` keeps them as :class:`EncodedFeatures`, each
row's one-hot columns and scaled id, which expands to dense rows a block
at a time.  Labels are z-scored with statistics taken from training
records only.
"""

from __future__ import annotations

import csv
import enum
import itertools
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
_INT64 = np.iinfo(np.int64)
_BLOCK_ROWS = 1024  # CSV rows parsed at a time


@dataclass(frozen=True)
class TransactionRecord:
    station_id: str
    transaction_id: int
    day_of_week: int  # 1 = Monday .. 7 = Sunday
    hour: int  # 0..23
    energy_kwh: float


@dataclass(frozen=True, eq=False)
class Transactions:
    """Transaction records as columns; row i is record i.

    ``station`` indexes ``vocabulary``, a sorted tuple of station ids that
    may name stations no row uses (a split keeps its parent's).
    ``transaction_id`` is int64, or holds Python ints (dtype object) when
    an id falls outside int64.  ``day`` (1 = Monday .. 7 = Sunday) and
    ``hour`` are int64, ``energy_kwh`` is float64.  Columns are read-only.

    Iterating, or indexing by an int, yields :class:`TransactionRecord`;
    a slice, like :meth:`take`, gives Transactions.  Transactions are
    equal when their records are.
    """

    vocabulary: tuple[str, ...]
    station: np.ndarray
    transaction_id: np.ndarray
    day: np.ndarray
    hour: np.ndarray
    energy_kwh: np.ndarray

    def __post_init__(self):
        for column in self._columns():
            column.setflags(write=False)

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.station, self.transaction_id, self.day, self.hour, self.energy_kwh)

    @staticmethod
    def of(records: Transactions | Iterable[TransactionRecord]) -> Transactions:
        """``records`` as Transactions; Transactions pass through as they are."""
        if isinstance(records, Transactions):
            return records
        records = list(records)
        return Transactions._from_lists(
            [r.station_id for r in records],
            [r.transaction_id for r in records],
            [r.day_of_week for r in records],
            [r.hour for r in records],
            [r.energy_kwh for r in records],
        )

    @staticmethod
    def _from_lists(station_ids, transaction_ids, days, hours, energies) -> Transactions:
        vocabulary = tuple(sorted(set(station_ids)))
        index = {sid: i for i, sid in enumerate(vocabulary)}
        try:
            ids = np.array(transaction_ids, dtype=np.int64)
        except OverflowError:
            ids = np.array(transaction_ids, dtype=object)
        return Transactions(
            vocabulary,
            np.array([index[sid] for sid in station_ids], dtype=np.int64),
            ids,
            np.array(days, dtype=np.int64),
            np.array(hours, dtype=np.int64),
            np.array(energies, dtype=np.float64),
        )

    def __len__(self) -> int:
        return len(self.station)

    def __iter__(self):
        return map(
            TransactionRecord,
            map(self.vocabulary.__getitem__, self.station.tolist()),
            *(column.tolist() for column in self._columns()[1:]),
        )

    def __getitem__(self, i):
        rows = self.take(np.array(range(len(self))[i], dtype=np.intp).reshape(-1))
        return rows if isinstance(i, slice) else next(iter(rows))

    def __eq__(self, other):
        if not isinstance(other, Transactions):
            return NotImplemented
        return list(self) == list(other)

    def take(self, rows) -> Transactions:
        """The records at ``rows`` (an integer array), in that order."""
        return Transactions(self.vocabulary, *(column[rows] for column in self._columns()))

    def station_ids(self) -> tuple[str, ...]:
        """The sorted distinct station ids of the records (by a bincount:
        np.unique's first call imports numpy.ma, a start-up cost)."""
        present = np.flatnonzero(np.bincount(self.station, minlength=len(self.vocabulary)))
        return tuple(self.vocabulary[i] for i in present.tolist())


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
        """The inverse of :meth:`to_dict`.  A missing key, a value not of
        the type ``to_dict`` writes, or values no built schema has (label
        statistics that are not finite, a std that is not positive,
        txn_min above txn_max) raise DataFormatError."""
        types = {  # exact types: a JSON true is not a number here
            "station_vocabulary": (list,),
            "include_transaction_id": (bool,),
            "label_mean": (int, float),
            "label_std": (int, float),
            "txn_min": (int,),
            "txn_max": (int,),
        }
        missing = [key for key in types if key not in d]
        if missing:
            raise DataFormatError(f"schema lacks keys: {', '.join(missing)}")
        wrong = [key for key, allowed in types.items() if type(d[key]) not in allowed]
        vocab = d["station_vocabulary"]
        if type(vocab) is list and any(type(s) is not str for s in vocab):
            wrong.insert(0, "station_vocabulary")
        if wrong:
            raise DataFormatError(f"schema values of the wrong type: {', '.join(wrong)}")
        try:
            mean, std = float(d["label_mean"]), float(d["label_std"])
        except OverflowError:  # an integer beyond float64
            mean = std = math.inf
        if not (math.isfinite(mean) and math.isfinite(std) and std > 0.0):
            raise DataFormatError(
                f"schema label statistics unusable: mean {mean!r}, std {std!r}"
            )
        if d["txn_min"] > d["txn_max"]:
            raise DataFormatError(
                f"schema txn_min {d['txn_min']} exceeds txn_max {d['txn_max']}"
            )
        return EncodingSchema(
            station_vocabulary=tuple(vocab),
            include_transaction_id=d["include_transaction_id"],
            label_mean=mean,
            label_std=std,
            txn_min=d["txn_min"],
            txn_max=d["txn_max"],
        )


class PartitionStrategy(enum.Enum):
    BY_STATION = "by_station"
    ROUND_ROBIN = "round_robin"


@dataclass(frozen=True, eq=False)
class WorkerPartition:
    """One worker's slice of the training set.

    ``record_indices`` index into the training records and are kept in
    ascending order, as a read-only int64 copy of the given indices.
    Partitions compare equal when their worker ids and indices are; they
    are not hashable.
    """

    worker_id: int
    record_indices: np.ndarray

    def __post_init__(self) -> None:
        ids = np.array(self.record_indices, dtype=np.int64)
        ids.setflags(write=False)
        object.__setattr__(self, "record_indices", ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WorkerPartition):
            return NotImplemented
        return self.worker_id == other.worker_id and np.array_equal(
            self.record_indices, other.record_indices
        )

    __hash__ = None


def _weekday(raw_date: str) -> int:
    return _date.fromisoformat(raw_date).isoweekday()


def _hour(raw_time: str) -> int:
    """The hour of an HH:MM time; anything after a second colon is ignored."""
    parts = raw_time.split(":")
    if len(parts) < 2:
        raise ValueError
    hour, minute = int(parts[0]), int(parts[1])
    if not (0 <= hour <= 23 and 0 <= minute <= 59):
        raise ValueError
    return hour


def _parsed(parse, raw: Sequence[str], memo: bool = False) -> list:
    """``[parse(s.strip()) for s in raw]``, None where that raises ValueError.

    With ``memo``, each distinct string is parsed once.  Without it, the
    column is first parsed unstripped, which is exact for ``int`` and
    ``float``: they accept a padded string only as they accept it stripped.
    """

    def safe(s):
        try:
            return parse(s.strip())
        except ValueError:
            return None

    if memo:
        return list(map({s: safe(s) for s in set(raw)}.__getitem__, raw))
    try:
        return list(map(parse, raw))
    except ValueError:
        return list(map(safe, raw))


def parse_transactions(lines: Iterable[str]) -> tuple[Transactions, list[RejectedRow]]:
    """Parse a transactions CSV stream.

    Returns records in file order plus a rejects report in line order.  A
    missing or wrong header raises :class:`DataFormatError`; malformed rows
    are rejected individually and never abort the parse.
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
    columns: list[list] = [[] for _ in TRANSACTIONS_HEADER]
    rejects: list[RejectedRow] = []
    numbered = enumerate(reader, start=2)
    # a block at a time, so only one block's raw strings are held at once
    while block := list(itertools.islice(numbered, _BLOCK_ROWS)):
        for column, values in zip(columns, _parse_block(block, rejects)):
            column += values
    rejects.sort(key=lambda reject: reject.line_number)
    return Transactions._from_lists(*columns), rejects


def _parse_block(block: list[tuple[int, list[str]]], rejects: list[RejectedRow]):
    """The valid rows of ``block``, (line number, fields) pairs, as five
    columns (station id, id, day, hour, energy); appends the other rows'
    rejects to ``rejects``."""
    width = len(TRANSACTIONS_HEADER)
    rows = []
    for line_number, row in block:
        if len(row) == width:
            rows.append((line_number, row))
        elif row:  # a blank line is skipped
            rejects.append(
                RejectedRow(line_number, f"expected {width} fields, got {len(row)}")
            )
    raw = [[row[j] for _, row in rows] for j in range(width)]
    station = _parsed(str, raw[0], memo=True)
    txn = _parsed(int, raw[1])
    day = _parsed(_weekday, raw[2], memo=True)
    hour = _parsed(_hour, raw[3], memo=True)
    kwh = _parsed(float, raw[4])
    energy = np.array(kwh, dtype=np.float64)  # nan where unparsed
    ok = np.isfinite(energy) & (energy >= 0.0)
    for column, missing in ((station, ""), (txn, None), (day, None), (hour, None)):
        if missing in column:
            ok &= np.array(column, dtype=object) != missing
    for i in np.flatnonzero(~ok).tolist():
        line_number, row = rows[i]
        raw_txn, raw_date, raw_time, raw_energy = (c.strip() for c in row[1:])
        if not station[i]:
            reason = "empty station_id"
        elif txn[i] is None:
            reason = f"transaction_id not an integer: {raw_txn!r}"
        elif day[i] is None:
            reason = f"date not ISO-8601: {raw_date!r}"
        elif hour[i] is None:
            reason = f"time not HH:MM: {raw_time!r}"
        elif kwh[i] is None:
            reason = f"energy not a number: {raw_energy!r}"
        elif not math.isfinite(kwh[i]):
            reason = f"energy not finite: {raw_energy!r}"
        else:
            reason = f"negative energy: {raw_energy!r}"
        rejects.append(RejectedRow(line_number, reason))
    columns = (station, txn, day, hour, kwh)
    if ok.all():
        return columns
    keep = np.flatnonzero(ok).tolist()
    return ([column[i] for i in keep] for column in columns)


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
    records: Transactions | Iterable[TransactionRecord],
    include_transaction_id: bool = True,
    station_vocabulary: Iterable[str] | None = None,
) -> EncodingSchema:
    """Derive an encoding schema from training records.

    Label statistics always come from ``records``.  The station vocabulary
    defaults to the sorted distinct ids seen in ``records``; pass
    ``station_vocabulary`` to widen it (e.g. to stations that only appear
    at evaluation time) — it must cover every station in ``records``.
    """
    records = Transactions.of(records)
    if not len(records):
        raise DegenerateDataError("cannot build a schema from zero records")
    seen = records.station_ids()
    if station_vocabulary is None:
        vocab = seen
    else:
        vocab = tuple(sorted(set(station_vocabulary)))
        missing = set(seen) - set(vocab)
        if missing:
            raise EncodingError(
                f"vocabulary does not cover training stations: {sorted(missing)}"
            )
    labels = records.energy_kwh
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
    return EncodingSchema(
        station_vocabulary=vocab,
        include_transaction_id=include_transaction_id,
        label_mean=mean,
        label_std=std,
        txn_min=int(records.transaction_id.min()),
        txn_max=int(records.transaction_id.max()),
    )


def _code_columns(records: Transactions, schema: EncodingSchema) -> tuple:
    """The four columns of :func:`feature_codes`: station index, day and
    hour (int64), and the id offsets, int64 or, when one does not fit, a
    list of Python ints."""
    index = {sid: i for i, sid in enumerate(schema.station_vocabulary)}
    lookup = np.array([index.get(sid, -1) for sid in records.vocabulary], dtype=np.int64)
    station, day, hour = lookup[records.station], records.day, records.hour
    bad = (station < 0) | (day < 1) | (day > 7) | (hour < 0) | (hour > 23)
    if bad.any():
        r = records[int(np.argmax(bad))]
        if r.station_id not in index:
            raise EncodingError(f"station {r.station_id!r} not in schema vocabulary")
        raise EncodingError(f"record out of range: day={r.day_of_week}, hour={r.hour}")
    low, high = schema.txn_min, schema.txn_max
    ids = records.transaction_id
    if not schema.include_transaction_id:
        offset = np.zeros(len(records), dtype=np.int64)
    elif ids.dtype != object and _INT64.min <= low <= high <= _INT64.max + min(low, 0):
        # the bounds and the span high - low all fit in int64
        offset = np.clip(ids, low, high) - low
    else:  # Python ints, exact at any size
        offset = [min(max(t, low), high) - low for t in ids.tolist()]
        try:
            offset = np.array(offset, dtype=np.int64)
        except OverflowError:
            pass
    return station, day, hour, offset


def feature_codes(
    records: Transactions | Iterable[TransactionRecord], schema: EncodingSchema
) -> np.ndarray:
    """Records as integer codes, one (station index, day, hour, id offset)
    row each: what :func:`encode_features` writes, before one-hot expansion.

    The id offset is the transaction id clipped to [txn_min, txn_max],
    minus txn_min, so the encoded id column is exactly offset / span.  It
    is 0 when the schema leaves the id out.  The array is int64, or holds
    Python ints (dtype object) when a code does not fit in int64.
    """
    records = Transactions.of(records)
    columns = _code_columns(records, schema)
    if isinstance(columns[3], np.ndarray):
        return np.column_stack(columns)
    rows = zip(*(column.tolist() for column in columns[:3]), columns[3])
    return np.array(list(rows), dtype=object).reshape(len(records), 4)


class EncodedFeatures:
    """The feature matrix of :func:`encode_features`, held as each row's
    three one-hot columns (int32) and its scaled transaction id, 20 bytes
    a row instead of ``width`` float64s.  Read-only.

    ``np.asarray(X)`` builds the dense float64 matrix; ``X[key]`` is
    ``np.asarray(X)[key]`` built from the selected rows only; training and
    scoring expand one row block at a time with :meth:`rows_into`.
    """

    __slots__ = ("_hot", "_scaled", "shape")
    ndim = 2

    def __init__(self, hot: np.ndarray, scaled: np.ndarray | None, width: int) -> None:
        """``hot`` is (n, 3): the columns of each row's ones; ``scaled`` the
        last column's values, or None when that column is all zeros or
        absent."""
        for column in (hot, scaled):
            if column is not None:
                column.setflags(write=False)
        self._hot, self._scaled = hot, scaled
        self.shape = (len(hot), width)

    def __len__(self) -> int:
        return self.shape[0]

    def rows_into(self, rows, out: np.ndarray) -> np.ndarray:
        """Write the dense rows ``rows`` (a slice or an integer array) into
        ``out``, a C-contiguous float64 array of their shape, and return it."""
        if not out.flags.c_contiguous:
            raise ValueError("EncodedFeatures expands rows into C-contiguous arrays only")

        def select(column):  # take gathers faster than fancy indexing
            return column[rows] if isinstance(rows, slice) else column.take(rows, axis=0)

        scaled = None if self._scaled is None else select(self._scaled)
        return self._fill(select(self._hot), scaled, out)

    def _fill(self, hot: np.ndarray, scaled: np.ndarray | None, out: np.ndarray) -> np.ndarray:
        """Write the dense rows of ``hot`` and ``scaled`` into the
        C-contiguous ``out``."""
        out.fill(0.0)
        # the flat positions of each row's ones
        out.reshape(-1)[hot + np.arange(0, out.size, self.shape[1])[:, None]] = 1.0
        if scaled is not None:
            out[:, -1] = scaled
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("EncodedFeatures has no dense array to return uncopied")
        dense = self.rows_into(slice(None), np.empty(self.shape))
        return dense if dtype is None else dense.astype(dtype, copy=False)

    def __getitem__(self, key) -> np.ndarray:
        rows, rest = (key[0], key[1:]) if isinstance(key, tuple) and key else (key, ())
        if rows is None or rows is Ellipsis or (
            isinstance(rows, np.ndarray) and rows.dtype == bool and rows.ndim != 1
        ):
            return np.asarray(self)[key]
        hot = self._hot[rows]  # numpy checks the key
        scaled = None if self._scaled is None else self._scaled[rows].reshape(-1)
        lead = hot.shape[:-1]
        count = math.prod(lead)
        dense = self._fill(hot.reshape(count, 3), scaled, np.empty((count, self.shape[1])))
        if not lead:  # one row, by an integer
            return dense[(0, *rest)]
        if isinstance(rows, slice) or not rest:
            return dense.reshape(*lead, self.shape[1])[(slice(None),) * len(lead) + rest]
        # an array of rows pairs up with any array in ``rest``, as in numpy
        return dense[(np.arange(count).reshape(lead), *rest)]


def encode_features(
    records: Transactions | Iterable[TransactionRecord], schema: EncodingSchema
) -> tuple[EncodedFeatures, np.ndarray]:
    """Encode records as (X, standardized labels), X an :class:`EncodedFeatures`.

    Row layout: one-hot station | one-hot day (7) | one-hot hour (24)
    | scaled transaction id (when the schema includes it, clipped to [0,1]).
    """
    records = Transactions.of(records)
    station, day, hour, offset = _code_columns(records, schema)
    n_stations = len(schema.station_vocabulary)
    hot = np.empty((len(records), 3), dtype=np.int32)
    hot[:, 0] = station
    hot[:, 1] = day + (n_stations - 1)
    hot[:, 2] = hour + (n_stations + 7)
    scaled = None
    span = schema.txn_max - schema.txn_min
    if schema.include_transaction_id and span:
        if isinstance(offset, np.ndarray) and span < 2**53:
            # both exact in float64, so one correctly rounded division each
            scaled = offset / float(span)
        else:  # Python int division rounds the exact quotient once
            offsets = offset.tolist() if isinstance(offset, np.ndarray) else offset
            scaled = np.array([o / span for o in offsets], dtype=np.float64)
    X = EncodedFeatures(hot, scaled, schema.width)
    return X, (records.energy_kwh - schema.label_mean) / schema.label_std


def split_train_test(
    records: Transactions | Iterable[TransactionRecord], ratio: float, seed: int
) -> tuple[Transactions, Transactions]:
    """Seeded uniform shuffle, then prefix split with |train| = round(ratio·N)."""
    if not (0.0 < ratio < 1.0):
        raise ValueError(f"train ratio must be in (0, 1), got {ratio}")
    records = Transactions.of(records)
    n = len(records)
    n_train = int(math.floor(ratio * n + 0.5))  # round half up
    if n_train == 0 or n_train == n:
        raise DegenerateSplitError(
            f"ratio {ratio} over {n} records leaves an empty side"
        )
    order = np.random.default_rng(seed).permutation(n)
    return records.take(order[:n_train]), records.take(order[n_train:])


def partition_workers(
    records: Transactions | Iterable[TransactionRecord],
    workers: int,
    strategy: PartitionStrategy = PartitionStrategy.BY_STATION,
) -> list[WorkerPartition]:
    """Split training records across workers.

    ByStation walks the sorted distinct station ids round-robin, so each
    station's records live on exactly one worker.  RoundRobin sends record
    r to worker r mod J.  Indices within a worker stay ascending.
    """
    records = Transactions.of(records)
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    if workers > len(records):
        raise DegenerateSplitError(
            f"{workers} workers cannot share {len(records)} records"
        )
    if strategy is PartitionStrategy.BY_STATION:
        present = np.flatnonzero(
            np.bincount(records.station, minlength=len(records.vocabulary))
        )
        owner = np.zeros(len(records.vocabulary), dtype=np.int64)
        owner[present] = np.arange(len(present)) % workers
        worker_of = owner[records.station]
    elif strategy is PartitionStrategy.ROUND_ROBIN:
        worker_of = np.arange(len(records)) % workers
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown partition strategy: {strategy}")
    counts = np.bincount(worker_of, minlength=workers)
    empty = np.flatnonzero(counts == 0).tolist()
    if empty:
        raise DegenerateSplitError(
            f"partition leaves workers {empty} without records "
            f"(too many workers for this corpus/strategy)"
        )
    # a stable sort keeps each worker's indices ascending
    buckets = np.split(np.argsort(worker_of, kind="stable"), np.cumsum(counts)[:-1])
    return [
        WorkerPartition(worker_id=j, record_indices=bucket)
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
) -> tuple[Transactions, list[StationInfo], SynthMetadata]:
    """Generate a desk-scale corpus with a known generating function.

    Stations sit in two spatial lobes; demand is a smooth per-station
    function of day and hour plus Gaussian noise, clamped at zero.  Same
    seed in, identical corpus out.  A station's transaction ids count its
    records from 1 in generation order.
    """
    if n_stations < 1 or n_records < 1:
        raise ValueError("n_stations and n_records must both be >= 1")
    rng = np.random.default_rng(seed)
    width = len(str(n_stations - 1))
    ids = [f"S{i:0{width}d}" for i in range(n_stations)]  # sorted: equal widths

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

    station = rng.integers(0, n_stations, n_records)
    days = rng.integers(1, 8, n_records)
    hours = rng.integers(0, 24, n_records)
    noise = rng.normal(0.0, noise_std, n_records)
    counts = np.bincount(station, minlength=n_stations)
    order = np.argsort(station, kind="stable")
    txn = np.empty(n_records, dtype=np.int64)
    txn[order] = np.arange(1, n_records + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    # SynthMetadata.signal's operations in its order, with math.sin/cos
    angle = 2.0 * math.pi * hours / 24.0 + hour_phase[station]
    sine = np.fromiter(map(math.sin, angle.tolist()), dtype=np.float64, count=n_records)
    cosine = np.array([math.cos(2.0 * math.pi * d / 7.0) for d in range(8)])[days]
    energy = base[station] + hour_amp[station] * sine + day_amp[station] * cosine + noise
    energy = np.where(energy > 0.0, energy, 0.0)  # max(0.0, x), nan included
    return Transactions(tuple(ids), station, txn, days, hours, energy), stations, meta
