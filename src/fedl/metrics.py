"""Evaluation metrics, reference predictors, and the overhead comparison.

RMSE is always reported in original label units (kWh) — callers
de-standardize model outputs first.  The two reference predictors are the
floor (train-label mean) and a hand-rolled k-nearest-neighbours regressor
whose distance ties resolve by training-row index, so its output is fully
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import DegenerateDataError, ShapeError


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
    train_X, train_y, test_X, k: int, chunk_size: int = 512
) -> np.ndarray:
    """Mean label of the k nearest training rows (Euclidean distance).

    Squared distances are computed in floating point as
    ||q||^2 + ||x||^2 - 2 q.x and stable-sorted.  Rows whose exact
    distances tie usually differ in the last bits after rounding, so
    rounding orders them; only bitwise-equal distances fall back to the
    lower training-row index.
    Queries are processed in chunks so memory stays at
    O(chunk_size x |train|).
    """
    X = np.asarray(train_X, dtype=np.float64)
    y = np.asarray(train_y, dtype=np.float64)
    Q = np.asarray(test_X, dtype=np.float64)
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

    train_sq = np.einsum("ij,ij->i", X, X)
    out = np.empty(Q.shape[0], dtype=np.float64)
    for start in range(0, Q.shape[0], chunk_size):
        chunk = Q[start : start + chunk_size]
        chunk_sq = np.einsum("ij,ij->i", chunk, chunk)
        d2 = chunk_sq[:, None] + train_sq[None, :] - 2.0 * (chunk @ X.T)
        nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
        out[start : start + chunk.shape[0]] = y[nearest].mean(axis=1)
    return out


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
