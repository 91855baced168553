"""Transaction ingestion, feature encoding, splits and worker partitions.

The on-disk formats are plain CSV:

* transactions: header :data:`TRANSACTIONS_HEADER`, with ISO-8601 dates
  and HH:MM times;
* stations: header :data:`STATIONS_HEADER`, the fields of :class:`StationInfo`.

Every CSV stream is read by :func:`csv_rows`: a first row that is not the
file's header is fatal, and each later row is numbered by the line it
ends on (a quoted field may span lines).  Transactions parsing is lenient
per row, strict per file: malformed rows become (line_number, reason)
reject entries and do not stop ingestion.  Stations parsing is strict per
row.  Messages give line numbers, not file names; the caller that opened
the file names it.

Transactions travel as :class:`Transactions`, one numpy column per field:
station (an index into a sorted tuple of station ids), transaction id,
day, hour and energy.  Parsing, generation, splits, encoding and
partitions work on whole columns.  Iterating Transactions, or indexing
them by an int, yields :class:`TransactionRecord` rows; a list of records
becomes Transactions through ``Transactions.of``, which every function
here that takes records applies first.

Features are one-hot station ⊕ one-hot day-of-week (Monday=1) ⊕ one-hot
hour, optionally followed by the transaction id min-max scaled to [0, 1].
:func:`encode_features` keeps them as :class:`EncodedFeatures`, the only
encoded form: each row's one-hot columns and integer id offset, which
training and scoring expand to dense rows a block at a time and the kNN
baseline reads as they are.  Labels are z-scored with statistics taken
from training records only.
"""

from __future__ import annotations

import csv
import enum
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass
from datetime import date as _date
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    DataFormatError,
    DegenerateDataError,
    DegenerateSplitError,
    EncodingError,
)

TRANSACTIONS_HEADER = ("station_id", "transaction_id", "date", "time", "energy_kwh")
_INT64 = np.iinfo(np.int64)
_BLOCK_ROWS = 1024  # CSV rows parsed at a time


class TransactionRecord(NamedTuple):
    """One transaction.  A named tuple: it equals a plain tuple of the same
    values, unpacks into its five fields and is immutable; ``r._replace(...)``
    gives a copy with some fields changed."""

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
        """``records`` as Transactions; Transactions pass through as they are.
        Fields are read by position, so plain 5-tuples serve as records; a
        record of any other length raises ValueError naming its index."""
        if isinstance(records, Transactions):
            return records
        records = list(records)
        width = len(TransactionRecord._fields)
        if set(map(len, records)) - {width}:
            i = next(i for i, r in enumerate(records) if len(r) != width)
            raise ValueError(f"record {i} has {len(records[i])} fields, expected {width}")
        return Transactions._from_lists(
            *(list(map(itemgetter(j), records)) for j in range(width))
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
        # tuple.__new__ builds each record from its zipped fields in C, as
        # TransactionRecord._make does, and the station ids come from one
        # object-array gather: no Python call per record
        return map(
            tuple.__new__,
            itertools.repeat(TransactionRecord),
            zip(
                np.array(self.vocabulary, dtype=object)[self.station].tolist(),
                *(column.tolist() for column in self._columns()[1:]),
            ),
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


class StationInfo(NamedTuple):
    """A stations CSV row; its fields are the header.  Equals a plain tuple."""

    station_id: str
    latitude: float
    longitude: float


class RejectedRow(NamedTuple):
    """A rejected transactions row; its fields are ``rejects.csv``'s header."""

    line_number: int
    reason: str


STATIONS_HEADER = StationInfo._fields


@dataclass(frozen=True)
class EncodingSchema:
    """Everything needed to turn records into arrays, and back for labels."""

    station_vocabulary: tuple[str, ...]
    include_transaction_id: bool
    label_mean: float
    label_std: float
    txn_min: int = 0
    txn_max: int = 0

    # to_dict's keys, which are the fields, and the JSON type of each
    JSON_TYPES = {
        "station_vocabulary": [str],
        "include_transaction_id": bool,
        "label_mean": float,
        "label_std": float,
        "txn_min": int,
        "txn_max": int,
    }

    @property
    def width(self) -> int:
        base = len(self.station_vocabulary) + 7 + 24
        return base + 1 if self.include_transaction_id else base

    def to_dict(self) -> dict:
        return {k: list(v) if type(v) is tuple else v for k, v in asdict(self).items()}

    @staticmethod
    def from_dict(d: dict) -> "EncodingSchema":
        """The inverse of :meth:`to_dict`.  A missing key, a value not of its
        :attr:`JSON_TYPES` type, or values no built schema has (a vocabulary
        that is not strictly ascending, label statistics that are not
        finite, a std that is not positive, txn_min above txn_max) raise
        DataFormatError."""
        problem = json_problem(d, EncodingSchema.JSON_TYPES)
        if problem:
            raise DataFormatError(f"schema {problem}")
        schema = EncodingSchema(**{
            key: tuple(d[key]) if type(kind) is list else kind(d[key])
            for key, kind in EncodingSchema.JSON_TYPES.items()
        })
        vocab, mean, std = schema.station_vocabulary, schema.label_mean, schema.label_std
        if any(a >= b for a, b in zip(vocab, vocab[1:])):
            # the one-hot columns follow the vocabulary's sorted order
            raise DataFormatError("schema station_vocabulary is not strictly ascending")
        if not (math.isfinite(mean) and math.isfinite(std) and std > 0.0):
            raise DataFormatError(
                f"schema label statistics unusable: mean {mean!r}, std {std!r}"
            )
        if schema.txn_min > schema.txn_max:
            raise DataFormatError(
                f"schema txn_min {schema.txn_min} exceeds txn_max {schema.txn_max}"
            )
        return schema


_JSON_NAMES = {
    dict: "an object", list: "a list", bool: "true or false", int: "an integer", str: "a string",
}


def json_problem(value, kind, where: str = "") -> str | None:
    """Why the parsed JSON ``value`` lacks the declared shape ``kind``; None
    when it has it.  ``kind`` is a type (``float`` admits any number that
    converts, and only ``bool`` admits true or false), a tuple of the values
    allowed, a one-item list (a list of such items) or a dict (an object
    with at least those keys, each of its kind).  ``where`` names ``value``."""
    if isinstance(kind, dict) and type(value) is dict:
        for key, inner in kind.items():
            path = f"{where}.{key}" if where else key
            problem = json_problem(value[key], inner, path) if key in value else (
                f"{path} is missing")
            if problem:
                return problem
        return None
    if isinstance(kind, list) and type(value) is list:
        problems = (json_problem(v, kind[0], f"{where}[{i}]") for i, v in enumerate(value))
        return next(filter(None, problems), None)
    if isinstance(kind, tuple):
        ok, want = value in kind, "one of " + ", ".join(kind)
    elif kind is float:  # an integer past float64's range would not convert
        ok = type(value) is float or type(value) is int and abs(value) <= sys.float_info.max
        want = "a number"
    else:
        ok = type(value) is kind
        want = _JSON_NAMES[kind if isinstance(kind, type) else type(kind)]
    return None if ok else f"{where or 'value'} must be {want}, got {json.dumps(value)}"


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


def csv_rows(lines: Iterable[str], header: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """The non-blank rows after the header of the CSV stream ``lines``, read
    lazily, each as (the line it ends on, its fields).  DataFormatError,
    raised before this returns, unless the first row, its fields stripped,
    is ``header``."""
    reader = csv.reader(lines)
    if tuple(c.strip() for c in next(reader, ())) != tuple(header):
        raise DataFormatError(f"header is not {','.join(header)}")
    return ((reader.line_num, row) for row in reader if row)


def parse_transactions(lines: Iterable[str]) -> tuple[Transactions, list[RejectedRow]]:
    """Parse a transactions CSV stream.

    Returns records in file order plus a rejects report in line order.  A
    missing or wrong header raises :class:`DataFormatError`; malformed rows
    are rejected individually and never abort the parse.
    """
    numbered = csv_rows(lines, TRANSACTIONS_HEADER)
    columns: list[list] = [[] for _ in TRANSACTIONS_HEADER]
    rejects: list[RejectedRow] = []
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
        else:
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
    stations: list[StationInfo] = []
    seen: set[str] = set()
    for line_number, row in csv_rows(lines, STATIONS_HEADER):
        if len(row) != len(STATIONS_HEADER):
            raise DataFormatError(f"line {line_number}: expected 3 fields")
        sid, raw_lat, raw_lon = (c.strip() for c in row)
        if not sid:
            raise DataFormatError(f"line {line_number}: empty station_id")
        if sid in seen:
            raise DataFormatError(f"line {line_number}: duplicate id {sid!r}")
        try:
            lat, lon = float(raw_lat), float(raw_lon)
        except ValueError:
            raise DataFormatError(f"line {line_number}: coordinates not numeric") from None
        if not (abs(lat) <= 90.0 and abs(lon) <= 180.0):
            raise DataFormatError(f"line {line_number}: coordinates out of range ({lat}, {lon})")
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


class EncodedFeatures:
    """The feature matrix of :func:`encode_features`, held as integer codes,
    20 bytes a row instead of ``width`` float64s.  Read-only.

    ``hot`` holds each row's three one-hot columns (int32, shape (n, 3)).
    ``offset`` holds each row's transaction id clipped to the schema's
    range, minus ``txn_min``: int64, or Python ints (dtype object) once an
    offset leaves int64, and None when the schema leaves the id out or
    ``span``, ``txn_max - txn_min``, is 0.  The id column is offset / span.

    ``np.asarray(X)`` builds the dense float64 matrix.  ``X[key]`` is
    ``np.asarray(X)[key]``: a key that selects rows builds only those rows,
    a tuple key indexes the dense matrix.  Training and scoring expand one
    row block at a time with :meth:`rows_into`.
    """

    __slots__ = ("hot", "offset", "span", "shape")
    ndim = 2

    def __init__(
        self, hot: np.ndarray, offset: np.ndarray | None, span: int, width: int
    ) -> None:
        for column in (hot, offset):
            if column is not None:
                column.setflags(write=False)
        self.hot, self.offset, self.span = hot, offset, span
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

        out.fill(0.0)
        # the flat positions of each row's ones
        starts = np.arange(0, out.size, self.shape[1])[:, None]
        out.reshape(-1)[select(self.hot) + starts] = 1.0
        if self.offset is not None:
            offset = select(self.offset)
            if offset.dtype != object and self.span < 2**53:
                # both exact in float64, so one correctly rounded division each
                np.divide(offset, float(self.span), out=out[:, -1])
            else:  # Python int division rounds the exact quotient once
                out[:, -1] = [o / self.span for o in offset.tolist()]
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("EncodedFeatures has no dense array to return uncopied")
        dense = self.rows_into(slice(None), np.empty(self.shape))
        return dense if dtype is None else dense.astype(dtype, copy=False)

    def __getitem__(self, key) -> np.ndarray:
        if isinstance(key, tuple):
            return np.asarray(self)[key]
        ids = np.arange(len(self))[key]  # numpy checks the key
        dense = self.rows_into(ids.reshape(-1), np.empty((ids.size, self.shape[1])))
        return dense.reshape(*ids.shape, self.shape[1])


def encode_features(
    records: Transactions | Iterable[TransactionRecord], schema: EncodingSchema
) -> tuple[EncodedFeatures, np.ndarray]:
    """Encode records as (X, standardized labels), X an :class:`EncodedFeatures`.

    Row layout: one-hot station | one-hot day (7) | one-hot hour (24)
    | scaled transaction id (when the schema includes it, clipped to [0,1]).
    A station outside the schema's vocabulary, or a day or hour out of
    range, raises EncodingError naming the first such record.
    """
    records = Transactions.of(records)
    index = {sid: i for i, sid in enumerate(schema.station_vocabulary)}
    lookup = np.array([index.get(sid, -1) for sid in records.vocabulary], dtype=np.int64)
    station, day, hour = lookup[records.station], records.day, records.hour
    bad = (station < 0) | (day < 1) | (day > 7) | (hour < 0) | (hour > 23)
    if bad.any():
        r = records[int(np.argmax(bad))]
        if r.station_id not in index:
            raise EncodingError(f"station {r.station_id!r} not in schema vocabulary")
        raise EncodingError(f"record out of range: day={r.day_of_week}, hour={r.hour}")
    n_stations = len(schema.station_vocabulary)
    hot = np.empty((len(records), 3), dtype=np.int32)
    hot[:, 0] = station
    hot[:, 1] = day + (n_stations - 1)
    hot[:, 2] = hour + (n_stations + 7)
    low, high = schema.txn_min, schema.txn_max
    ids = records.transaction_id
    if not schema.include_transaction_id or low == high:
        offset = None
    elif ids.dtype != object and _INT64.min <= low <= high <= _INT64.max + min(low, 0):
        # the bounds and the span high - low all fit in int64
        offset = np.clip(ids, low, high) - low
    else:  # Python ints, exact at any size
        offset = [min(max(t, low), high) - low for t in ids.tolist()]
        try:
            offset = np.array(offset, dtype=np.int64)
        except OverflowError:
            offset = np.array(offset, dtype=object)
    X = EncodedFeatures(hot, offset, high - low, schema.width)
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


def stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in [0, bound).

    The keys are cast to the narrowest unsigned dtype that holds bound - 1,
    and numpy sorts 8- and 16-bit keys by radix.  A stable order is unique,
    so the cast does not change it.
    """
    return np.argsort(keys.astype(np.min_scalar_type(max(bound - 1, 0))), kind="stable")


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
    buckets = np.split(stable_order(worker_of, workers), np.cumsum(counts)[:-1])
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
    function of day and hour plus Gaussian noise of std ``noise_std``
    (finite and >= 0, else ValueError), clamped at zero.  Same seed in,
    identical corpus out.  A station's transaction ids count its records
    from 1 in generation order.  Each distinct (station, hour) pair's sine
    is computed once, as SynthMetadata.signal does, and gathered back.
    """
    if n_stations < 1 or n_records < 1:
        raise ValueError("n_stations and n_records must both be >= 1")
    if not (math.isfinite(noise_std) and noise_std >= 0.0):
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std!r}")
    rng = np.random.default_rng(seed)
    width = len(str(n_stations - 1))
    ids = [f"S{i:0{width}d}" for i in range(n_stations)]  # sorted: equal widths

    lobe = np.arange(n_stations) % 2
    lat = np.where(lobe == 0, 56.46, 56.49) + rng.normal(0.0, 0.004, n_stations)
    lon = np.where(lobe == 0, -3.03, -2.97) + rng.normal(0.0, 0.004, n_stations)
    stations = list(map(
        tuple.__new__, itertools.repeat(StationInfo), zip(ids, lat.tolist(), lon.tolist())
    ))

    base = rng.uniform(4.0, 16.0, n_stations) + 4.0 * lobe
    hour_amp = rng.uniform(0.5, 2.5, n_stations)
    hour_phase = rng.uniform(0.0, 2.0 * math.pi, n_stations)
    day_amp = rng.uniform(0.25, 1.25, n_stations)
    meta = SynthMetadata(
        noise_std=noise_std,
        base=tuple(base.tolist()),
        hour_amplitude=tuple(hour_amp.tolist()),
        hour_phase=tuple(hour_phase.tolist()),
        day_amplitude=tuple(day_amp.tolist()),
    )

    station = rng.integers(0, n_stations, n_records)
    days = rng.integers(1, 8, n_records)
    hours = rng.integers(0, 24, n_records)
    noise = rng.normal(0.0, noise_std, n_records)
    counts = np.bincount(station, minlength=n_stations)
    order = stable_order(station, n_stations)
    txn = np.empty(n_records, dtype=np.int64)
    txn[order] = np.arange(1, n_records + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    # SynthMetadata.signal's operations in its order, with math.sin/cos; the
    # sine is taken once per (station, hour) pair that occurs
    pair = station * 24 + hours
    present = np.flatnonzero(np.bincount(pair))
    angle = 2.0 * math.pi * (present % 24) / 24.0 + hour_phase[present // 24]
    sines = np.zeros(24 * n_stations)
    sines[present] = np.fromiter(map(math.sin, angle.tolist()), np.float64, len(present))
    sine = sines[pair]
    cosine = np.array([math.cos(2.0 * math.pi * d / 7.0) for d in range(8)])[days]
    energy = base[station] + hour_amp[station] * sine + day_amp[station] * cosine + noise
    energy = np.where(energy > 0.0, energy, 0.0)  # max(0.0, x), nan included
    return Transactions(tuple(ids), station, txn, days, hours, energy), stations, meta
