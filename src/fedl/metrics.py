"""Evaluation metrics, reference predictors, and the overhead comparison.

RMSE is always reported in original label units (kWh) — callers
de-standardize model outputs first.  The two reference predictors are the
floor (train-label mean) and a hand-rolled k-nearest-neighbours regressor.
The kNN orders neighbours by their exact distance, in integers, with ties
to the lower training-row index, so its output does not depend on
floating-point rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import EncodingSchema
from .errors import DegenerateDataError, EncodingError, ShapeError

# Queries per kNN lookup pass; the result does not depend on it.
KNN_CHUNK_ROWS = 512


def rmse(actual, predicted) -> float:
    """Root-mean-squared error between two equal-length vectors."""
    a = np.asarray(actual, dtype=np.float64).ravel()
    p = np.asarray(predicted, dtype=np.float64).ravel()
    if a.shape != p.shape:
        raise ShapeError(f"length mismatch: {a.shape[0]} vs {p.shape[0]}")
    if a.shape[0] == 0:
        raise DegenerateDataError("rmse of empty vectors is undefined")
    d = a - p
    return float(np.sqrt(np.mean(d * d)))


def knn_baseline(
    train, train_y, test, k: int, *, schema: EncodingSchema,
) -> np.ndarray:
    """Mean label of the k nearest training rows (Euclidean distance on the
    encoded features), averaged in neighbour order.

    ``train`` and ``test`` are :func:`fedl.data.feature_codes` arrays made
    under ``schema``.  On the encoded features the squared distance is
    2m + (gap/span)^2, where m counts the mismatched one-hot blocks and gap
    the id offsets' integer difference, so neighbours order by (m, |gap|,
    training-row index) with no floating point.  Queries are processed in
    chunks of ``KNN_CHUNK_ROWS``.
    """
    X = np.asarray(train)
    y = np.asarray(train_y, dtype=np.float64)
    Q = np.asarray(test)
    if X.shape[0] == 0:
        raise DegenerateDataError("knn needs a nonempty training set")
    if not (1 <= k <= X.shape[0]):
        raise ValueError(f"k must be in [1, {X.shape[0]}], got {k}")
    if X.ndim != 2 or Q.ndim != 2 or X.shape[1] != Q.shape[1]:
        raise ShapeError(
            f"feature widths differ: train {X.shape} vs test {Q.shape}"
        )
    if y.shape != (X.shape[0],):
        raise ShapeError("train labels must be one per training row")
    _check_codes(X, schema)
    _check_codes(Q, schema)
    return y[_nearest_codes(X, Q, k)].mean(axis=1)


def _check_codes(codes: np.ndarray, schema: EncodingSchema) -> None:
    if codes.shape[1] != 4:
        raise ShapeError(f"knn codes need 4 columns, got {codes.shape[1]}")
    span = schema.txn_max - schema.txn_min if schema.include_transaction_id else 0
    high = (len(schema.station_vocabulary) - 1, 7, 23, span)
    if ((codes < (0, 1, 0, 0)) | (codes > high)).any():
        raise EncodingError(
            "knn codes fall outside the schema's ranges (not feature_codes output?)"
        )


def _pair_keys(blocks: np.ndarray):
    """Group keys for (station, day), (station, hour) and (day, hour)."""
    s, d, h = blocks.T
    return s * 8 + d, s * 24 + h, d * 24 + h


def _nearest_codes(train, test, k: int) -> np.ndarray:
    """(|test|, k) row indices, ordered by (m, |gap|, row index).

    A row with m <= 1 shares at least two blocks with the query, so it is
    in one of the query's three pair groups; those groups usually hold k
    rows or more.  Queries whose groups hold fewer scan every row.
    """
    blocks_x = train[:, :3].astype(np.int64)
    blocks_q = test[:, :3].astype(np.int64)
    ids_x, ids_q = train[:, 3], test[:, 3]
    groups = []
    for key in _pair_keys(blocks_x):
        order = np.argsort(key, kind="stable")
        groups.append((key[order], order))
    nearest = np.empty((test.shape[0], k), dtype=np.intp)
    for start in range(0, test.shape[0], KNN_CHUNK_ROWS):
        bq = blocks_q[start : start + KNN_CHUNK_ROWS]
        tq = ids_q[start : start + KNN_CHUNK_ROWS]
        qid, rows = [], []
        for (keys, order), kq in zip(groups, _pair_keys(bq)):
            lo = np.searchsorted(keys, kq, "left")
            size = np.searchsorted(keys, kq, "right") - lo
            qid.append(np.repeat(np.arange(len(kq)), size))
            offset = np.repeat(lo - (np.cumsum(size) - size), size)
            rows.append(order[np.arange(size.sum()) + offset])
        n_first = len(qid[0])
        qid, rows = np.concatenate(qid), np.concatenate(rows)
        m = (bq[qid] != blocks_x[rows]).sum(axis=1)
        # a row matching all three blocks sits in all three groups: keep
        # only its (station, day) copy
        keep = (m > 0) | (np.arange(len(m)) < n_first)
        qid, rows, m = qid[keep], rows[keep], m[keep]
        gap = np.abs(tq[qid] - ids_x[rows])
        rows = rows[np.lexsort((rows, gap, m, qid))]
        counts = np.bincount(qid, minlength=len(bq))
        first = np.cumsum(counts) - counts
        best = np.empty((len(bq), k), dtype=np.intp)
        full = counts >= k
        best[full] = rows[first[full, None] + np.arange(k)]
        far = np.flatnonzero(~full)
        if far.size:
            m_far = np.zeros((far.size, train.shape[0]), dtype=np.int8)
            for j in range(3):
                m_far += bq[far, j : j + 1] != blocks_x[:, j]
            gap_far = np.abs(tq[far, None] - ids_x[None, :])
            best[far] = np.lexsort((gap_far, m_far), axis=1)[:, :k]
        nearest[start : start + len(bq)] = best
    return nearest


@dataclass(frozen=True)
class MeanBaseline:
    """Predicts the training-label mean everywhere."""

    value: float

    def predict(self, n: int) -> np.ndarray:
        return np.full(n, self.value, dtype=np.float64)


def mean_baseline(train_y) -> MeanBaseline:
    y = np.asarray(train_y, dtype=np.float64)
    if y.size == 0:
        raise DegenerateDataError("mean baseline needs at least one label")
    return MeanBaseline(value=float(y.mean()))


@dataclass(frozen=True)
class OverheadReport:
    """Total simulated bytes per pipeline, plus savings against a baseline."""

    baseline: str
    totals: dict[str, int]
    savings: dict[str, float]  # 1 - bytes/baseline_bytes, for non-baselines

    def to_dict(self) -> dict:
        return {
            "baseline": self.baseline,
            "total_bytes": dict(sorted(self.totals.items())),
            "savings_ratio": dict(sorted(self.savings.items())),
        }

    def format_table(self) -> str:
        lines = [f"{'pipeline':<16} {'total bytes':>14} {'savings':>9}"]
        for name in sorted(self.totals):
            saving = (
                "baseline" if name == self.baseline else f"{self.savings[name]:.1%}"
            )
            lines.append(f"{name:<16} {self.totals[name]:>14d} {saving:>9}")
        return "\n".join(lines)


def overhead_report(
    logs: Mapping[str, object], baseline: str = "central"
) -> OverheadReport:
    """Compare total traffic across pipelines.

    ``logs`` maps pipeline name to anything exposing ``total_bytes()``.
    Savings for pipeline p = 1 - bytes(p)/bytes(baseline).
    """
    if len(logs) < 2:
        raise ValueError("overhead comparison needs at least two pipelines")
    if baseline not in logs:
        raise ValueError(f"baseline pipeline {baseline!r} not among {sorted(logs)}")
    totals = {name: int(log.total_bytes()) for name, log in logs.items()}
    base = totals[baseline]
    if base <= 0:
        raise ValueError("baseline pipeline moved zero bytes; ratio undefined")
    savings = {
        name: 1.0 - total / base
        for name, total in totals.items()
        if name != baseline
    }
    return OverheadReport(baseline=baseline, totals=totals, savings=savings)


@dataclass(frozen=True)
class EvalReport:
    """RMSE of each pipeline next to the reference predictors."""

    train_ratio: float
    rmse_kwh: dict[str, float]  # pipeline/baseline name -> RMSE
    total_bytes: dict[str, int]  # pipeline name -> simulated traffic

    def improvements(self, reference: str) -> dict[str, float]:
        """(reference - method)/reference for every other entry."""
        ref = self.rmse_kwh[reference]
        if ref <= 0:
            raise ValueError(f"reference {reference!r} has non-positive RMSE")
        return {
            name: (ref - value) / ref
            for name, value in self.rmse_kwh.items()
            if name != reference
        }

    def to_dict(self) -> dict:
        out = {
            "train_ratio": self.train_ratio,
            "rmse_kwh": dict(sorted(self.rmse_kwh.items())),
            "total_bytes": dict(sorted(self.total_bytes.items())),
        }
        improvements = {}
        for ref in ("mean", "knn"):
            if ref in self.rmse_kwh and self.rmse_kwh[ref] > 0:
                improvements[f"vs_{ref}"] = {
                    k: v for k, v in sorted(self.improvements(ref).items())
                }
        out["improvement_ratio"] = improvements
        return out
