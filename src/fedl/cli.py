"""Command-line interface.

Subcommands: ingest, cluster, train, evaluate, report, synth.  Every
command accepts ``--out``; each takes the config-backed flags that
:data:`OPTIONS` lists for it, and a command with any takes ``--config``
(flat JSON; explicit flags win).  Outputs are deterministic: same
inputs, flags and seed give byte-identical files — no timestamps, no
machine identifiers.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical or
infeasibility error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import warnings
from dataclasses import fields
from datetime import date as _date, timedelta
from pathlib import Path

import numpy as np

from .clustering import ClusterConfig, constrained_kmeans
from .data import (
    EncodingSchema,
    build_schema,
    encode_features,
    feature_codes,
    parse_stations,
    parse_transactions,
    partition_workers,
    split_train_test,
    synth_generate,
)
from .errors import (
    DataFormatError,
    DegenerateDataError,
    DegenerateSplitError,
    EncodingError,
    InfeasibilityError,
    ShapeError,
    StalenessError,
)
from .metrics import EvalReport, knn_baseline, mean_baseline, overhead_report
from .model_io import load_network, save_network
from .sim import (
    TrafficLog,
    TrainConfig,
    TrainMode,
    by_cluster,
    pooled_rmse,
    run_centralized,
    run_clustered,
    run_federated,
    score,
)

SWEEP_RATIOS = (0.8, 0.7, 0.6, 0.5)

_TRAINING = ("train", "evaluate")
_CLUSTERING = ("cluster", *_TRAINING)
_BOOL = {"action": argparse.BooleanOptionalAction}

# Every config-backed option: key -> (default, the commands that take it,
# argparse keywords of its flag).  The flag is ``--`` plus the key with
# dashes; a value resolves as flag > config file > default.
OPTIONS = {
    "seed": (0, ("synth", *_CLUSTERING),
             {"type": int, "help": "base RNG seed"}),
    "ratio": (0.8, _TRAINING, {"type": float, "help": "training fraction"}),
    "mode": ("central", ("train",), {"choices": ["central", "federated"]}),
    "clustering": (False, ("train",),
                   {**_BOOL, "help": "group stations first, one model per cluster"}),
    "workers": (4, _TRAINING, {"type": int}),
    "epochs": (200, _TRAINING, {"type": int}),
    "tolerance": (1e-6, _TRAINING, {"type": float}),
    "patience": (5, _TRAINING, {"type": int}),
    "step_size": (0.01, _TRAINING, {"type": float}),
    "hidden": ("64,64", _TRAINING,
               {"type": str, "help": "hidden layer widths, comma-separated (default 64,64)"}),
    "dropout": (0.15, _TRAINING, {"type": float}),
    "clusters": (2, _CLUSTERING, {"type": int, "help": "number of clusters K"}),
    "theta_low": (None, _CLUSTERING,
                  {"type": int, "help": "per-cluster minimum size (default: balanced floor)"}),
    "theta_high": (None, _CLUSTERING,
                   {"type": int, "help": "per-cluster maximum size (default: balanced ceil)"}),
    "max_iterations": (100, _CLUSTERING, {"type": int}),
    "partition": ("by_station", _TRAINING, {"choices": ["by_station", "round_robin"]}),
    "include_transaction_id": (True, ("ingest", *_TRAINING), _BOOL),
    "knn_k": (5, ("evaluate",), {"type": int}),
    "noise": (0.8, ("synth",), {"type": float, "help": "label noise stddev"}),
}
DEFAULTS = {key: default for key, (default, _, _) in OPTIONS.items()}


class UsageError(Exception):
    """Bad flags/arguments; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems by default; this tool reserves 2
    # for data errors, so usage failures are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p, command: str) -> None:
    """Declare ``command``'s config-backed flags, ``--config`` when it has
    any, and ``--out``."""
    keys = [key for key, (_, commands, _) in OPTIONS.items() if command in commands]
    for key in keys:
        p.add_argument("--" + key.replace("_", "-"), default=None, **OPTIONS[key][2])
    if keys:
        p.add_argument("--config", type=Path, default=None,
                       help="flat JSON config file; explicit flags override it")
    p.add_argument("--out", type=Path, default=None,
                   help="output directory (default: fedl_out)")


def build_parser() -> _Parser:
    parser = _Parser(prog="fedl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("ingest", help="parse a transactions CSV and report rejects")
    p.add_argument("--transactions", type=Path, required=True)
    _add_common(p, "ingest")
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("cluster", help="group stations with size-constrained K-means")
    p.add_argument("--stations", type=Path, required=True)
    _add_common(p, "cluster")
    p.set_defaults(handler=cmd_cluster)

    p = sub.add_parser("train", help="train a demand model")
    p.add_argument("--transactions", type=Path, required=True)
    p.add_argument("--stations", type=Path, default=None,
                   help="stations CSV (required with --clustering)")
    _add_common(p, "train")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("evaluate", help="score a trained run and the baselines")
    p.add_argument("--transactions", type=Path, required=True)
    p.add_argument("--run-dir", type=Path, default=None,
                   help="directory written by `fedl train`")
    p.add_argument("--stations", type=Path, default=None,
                   help="stations CSV (enables clustered sweep variants)")
    p.add_argument("--sweep", action="store_true",
                   help="train+score every method at ratios 0.8/0.7/0.6/0.5")
    _add_common(p, "evaluate")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("report", help="compare traffic logs across pipelines")
    p.add_argument("logs", nargs="+", metavar="NAME=TRAFFIC_CSV",
                   help="named traffic CSVs, e.g. central=run1/traffic.csv")
    p.add_argument("--baseline", type=str, default="central")
    _add_common(p, "report")
    p.set_defaults(handler=cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--stations", type=int, required=True, dest="n_stations")
    p.add_argument("--records", type=int, required=True, dest="n_records")
    _add_common(p, "synth")
    p.set_defaults(handler=cmd_synth)

    return parser


# ---------------------------------------------------------------- helpers

def _load_config_file(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as e:
        raise UsageError(f"cannot read config file {path}: {e}") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise UsageError(f"config file {path} is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - set(DEFAULTS))
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    return {key: _typed(key, value) for key, value in data.items()}


def _typed(key: str, value):
    """A config-file value checked as argparse checks ``key``'s flag: a JSON
    integer for ``type=int``, a number (made float) for ``type=float``, a
    string for ``type=str``, true/false for an on/off flag, one of the
    ``choices``; null only where the default is None."""
    default, _, kwargs = OPTIONS[key]
    if value is None and default is None:
        return None
    kind = kwargs.get("type")
    if "action" in kwargs:
        want, ok = "true or false", isinstance(value, bool)
    elif "choices" in kwargs:
        want, ok = "one of " + ", ".join(kwargs["choices"]), value in kwargs["choices"]
    elif kind is str:
        want, ok = "a string", isinstance(value, str)
    elif kind is int:
        want, ok = "an integer", type(value) is int  # not bool
    else:  # an integer past float64's range would not convert
        want = "a number"
        ok = type(value) is float or type(value) is int and abs(value) <= sys.float_info.max
    if not ok:
        raise UsageError(f"config key {key!r} must be {want}, got {json.dumps(value)}")
    return float(value) if kind is float else value


def _resolve(args, command: str) -> dict:
    """flag > config file > default, for each option ``command`` takes."""
    file_cfg = _load_config_file(args.config)
    resolved = {}
    for key, (default, commands, _) in OPTIONS.items():
        if command not in commands:
            continue
        flag = getattr(args, key)
        if flag is not None:
            resolved[key] = flag
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = default
    return resolved


_TRAIN_FIELDS = {f.name for f in fields(TrainConfig)}


def _train_config(cfg: dict) -> TrainConfig:
    """The options named like TrainConfig fields, plus the ``hidden`` widths
    (evaluate takes no mode: its sweep trains both)."""
    try:
        return TrainConfig(
            hidden_layers=[int(w) for w in cfg["hidden"].split(",") if w.strip()],
            **{key: value for key, value in cfg.items() if key in _TRAIN_FIELDS},
        )
    except ValueError as e:
        raise UsageError(str(e)) from None


def _cluster_config(cfg: dict) -> ClusterConfig:
    try:
        return ClusterConfig(
            k=cfg["clusters"],
            theta_low=cfg["theta_low"],
            theta_high=cfg["theta_high"],
            max_iterations=cfg["max_iterations"],
            seed=cfg["seed"],
        )
    except ValueError as e:
        raise UsageError(str(e)) from None


def _check_ratio(ratio: float) -> float:
    if not (0.0 < ratio < 1.0):
        raise UsageError(f"--ratio must be in (0, 1), got {ratio}")
    return ratio


def _out_dir(args) -> Path:
    out = args.out if args.out is not None else Path("fedl_out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _open_input(path: Path):
    if not path.exists():
        raise UsageError(f"input file does not exist: {path}")
    if path.is_dir():
        raise UsageError(f"expected a file, got a directory: {path}")
    return open(path, "r", encoding="utf-8", newline="")


def _read_transactions(path: Path):
    with _open_input(path) as f:
        return parse_transactions(f)


def _read_stations(path: Path):
    with _open_input(path) as f:
        return parse_stations(f)


def _run_id(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _jsonable(value):
    if isinstance(value, Path):
        return str(value)
    return value


def _manifest(out: Path, command: str, cfg: dict, extra: dict) -> dict:
    payload = {
        "command": command,
        "config": {k: _jsonable(v) for k, v in sorted(cfg.items())},
    }
    manifest = dict(payload)
    manifest["run_id"] = _run_id(payload)
    manifest.update(extra)
    _write_json(out / "manifest.json", manifest)
    return manifest


def _metrics_rows(reports):
    rows = []
    for r in reports:
        row = [r.epoch, r.global_loss]
        row.extend(r.worker_losses)
        row.extend([r.bytes_up, r.bytes_down, r.staleness])
        rows.append(row)
    header = ["epoch", "global_loss"]
    header.extend(f"worker_loss_{j}" for j in range(len(reports[0].worker_losses)))
    header.extend(["bytes_up", "bytes_down", "staleness"])
    return header, rows


def _write_assignment(out: Path, stations, labels) -> None:
    _write_csv(
        out / "assignment.csv",
        ["station_id", "cluster_id"],
        [(s.station_id, int(labels[i])) for i, s in enumerate(stations)],
    )


def _write_traffic(path: Path, log: TrafficLog) -> None:
    _write_csv(path, ["epoch", "direction", "payload", "bytes"], log.to_rows())


def _read_traffic(path: Path) -> TrafficLog:
    with _open_input(path) as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != [
            "epoch", "direction", "payload", "bytes",
        ]:
            raise DataFormatError(f"{path} is not a traffic CSV")
        try:
            return TrafficLog.from_rows(r for r in reader if r)
        except (KeyError, ValueError) as e:
            raise DataFormatError(f"{path}: bad traffic row: {e}") from None


def _read_assignment(path: Path) -> dict[str, int]:
    """Station id -> cluster id from an ``assignment.csv``.  The header must
    be ``station_id,cluster_id``, each row two fields, each station once,
    and each cluster id an integer in [0, number of rows)."""
    with _open_input(path) as f:
        reader = csv.reader(f)
        if [c.strip() for c in next(reader, None) or []] != ["station_id", "cluster_id"]:
            raise DataFormatError(f"{path}: header is not station_id,cluster_id")
        rows = [(reader.line_num, row) for row in reader if row]
    cluster_of: dict[str, int] = {}
    for line, row in rows:
        if len(row) != 2:
            raise DataFormatError(f"{path} line {line}: expected 2 fields, got {len(row)}")
        station_id, raw = row
        if station_id in cluster_of:
            raise DataFormatError(f"{path} line {line}: duplicate station {station_id!r}")
        try:
            cluster_of[station_id] = int(raw)
        except ValueError:
            raise DataFormatError(
                f"{path} line {line}: cluster id is not an integer: {raw!r}"
            ) from None
        if not 0 <= cluster_of[station_id] < len(rows):
            raise DataFormatError(
                f"{path} line {line}: cluster id {raw} is outside [0, {len(rows)})"
            )
    return cluster_of


def _read_json_object(path: Path) -> dict:
    """A JSON file that must hold an object, as every run-directory JSON does."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as e:
        raise DataFormatError(f"{path} is not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise DataFormatError(f"{path} must hold a JSON object")
    return data


def _read_schema(path: Path) -> EncodingSchema:
    data = _read_json_object(path)
    try:
        return EncodingSchema.from_dict(data)
    except DataFormatError as e:
        raise DataFormatError(f"{path}: {e}") from None


# ---------------------------------------------------------------- commands

def cmd_synth(args) -> int:
    cfg = _resolve(args, "synth")
    if args.n_stations < 1 or args.n_records < 1:
        raise UsageError("--stations and --records must be >= 1")
    out = _out_dir(args)
    records, stations, meta = synth_generate(
        args.n_stations, args.n_records, seed=cfg["seed"], noise_std=cfg["noise"],
    )
    monday = _date(2023, 1, 2)  # day_of_week 1 maps to this Monday
    dates = [(monday + timedelta(days=d - 1)).isoformat() for d in range(8)]
    times = [f"{h:02d}:00" for h in range(24)]
    _write_csv(
        out / "transactions.csv",
        ["station_id", "transaction_id", "date", "time", "energy_kwh"],
        zip(
            map(records.vocabulary.__getitem__, records.station.tolist()),
            records.transaction_id.tolist(),
            map(dates.__getitem__, records.day.tolist()),
            map(times.__getitem__, records.hour.tolist()),
            map(repr, records.energy_kwh.tolist()),
        ),
    )
    _write_csv(
        out / "stations.csv",
        ["station_id", "latitude", "longitude"],
        [(s.station_id, repr(s.latitude), repr(s.longitude)) for s in stations],
    )
    _write_json(
        out / "generator.json",
        {
            "noise_std": meta.noise_std,
            "base": list(meta.base),
            "hour_amplitude": list(meta.hour_amplitude),
            "hour_phase": list(meta.hour_phase),
            "day_amplitude": list(meta.day_amplitude),
        },
    )
    _manifest(
        out, "synth",
        {"n_stations": args.n_stations, "n_records": args.n_records, **cfg},
        {"outputs": ["generator.json", "stations.csv", "transactions.csv"]},
    )
    print(f"wrote {args.n_records} transactions over {args.n_stations} stations to {out}")
    return 0


def cmd_ingest(args) -> int:
    cfg = _resolve(args, "ingest")
    out = _out_dir(args)
    records, rejects = _read_transactions(args.transactions)
    schema = build_schema(records, cfg["include_transaction_id"])
    n_stations = len(schema.station_vocabulary)
    if rejects:
        _write_csv(
            out / "rejects.csv",
            ["line_number", "reason"],
            [(r.line_number, r.reason) for r in rejects],
        )
    _write_json(
        out / "ingest_summary.json",
        {
            "records": len(records),
            "stations": n_stations,
            "rejects": len(rejects),
            "encoded_width": schema.width,
            "label_mean_kwh": schema.label_mean,
            "label_std_kwh": schema.label_std,
        },
    )
    print(f"{len(records)} records, {n_stations} stations, {len(rejects)} rejects")
    return 0


def cmd_cluster(args) -> int:
    cfg = _resolve(args, "cluster")
    cluster_config = _cluster_config(cfg)
    out = _out_dir(args)
    stations = _read_stations(args.stations)
    if not stations:
        raise DegenerateDataError("stations file holds no stations")
    assignment = constrained_kmeans(stations, cluster_config)
    _write_assignment(out, stations, assignment.labels)
    _write_json(
        out / "cluster_summary.json",
        {
            "objective": assignment.objective,
            "iterations_used": assignment.iterations_used,
            "converged": assignment.converged,
            "cluster_sizes": [int(v) for v in assignment.cluster_sizes()],
            "centroids": [[float(c) for c in row] for row in assignment.centroids],
        },
    )
    _manifest(
        out, "cluster",
        {**cfg, "stations_file": args.stations},
        {"outputs": ["assignment.csv", "cluster_summary.json"]},
    )
    print(
        f"objective={assignment.objective!r} iterations={assignment.iterations_used} "
        f"converged={assignment.converged} sizes={[int(v) for v in assignment.cluster_sizes()]}"
    )
    return 0


def _fit_plain(train, vocab, mode: TrainMode, config: TrainConfig, include_txn: bool):
    """Fit one central or federated model on ``train``; writes nothing.

    Returns (model, schema, reports, traffic).
    """
    schema = build_schema(train, include_txn, station_vocabulary=vocab)
    X, y = encode_features(train, schema)
    if mode is TrainMode.FEDERATED:
        parts = partition_workers(train, config.workers, config.partition)
        model, reports, traffic = run_federated(X, y, parts, config)
    else:
        model, reports, traffic = run_centralized(X, y, config)
    return model, schema, reports, traffic


def _write_model(out: Path, suffix: str, model, schema, reports) -> list[str]:
    """Write ``model{suffix}.fedl``, ``schema{suffix}.json`` and
    ``metrics{suffix}.csv``; returns their names."""
    names = [f"model{suffix}.fedl", f"schema{suffix}.json", f"metrics{suffix}.csv"]
    save_network(model, out / names[0])
    _write_json(out / names[1], schema.to_dict())
    _write_csv(out / names[2], *_metrics_rows(reports))
    return names


def cmd_train(args) -> int:
    cfg = _resolve(args, "train")
    ratio = _check_ratio(cfg["ratio"])
    config = _train_config(cfg)
    cluster_config = _cluster_config(cfg)  # checked even when it goes unused
    out = _out_dir(args)
    records, rejects = _read_transactions(args.transactions)
    if not records:
        raise DegenerateDataError("no valid records to train on")
    train, test = split_train_test(records, ratio, config.seed)
    vocab = records.station_ids()
    include_txn = cfg["include_transaction_id"]
    clustering = cfg["clustering"]
    extra: dict = {
        "n_records": len(records),
        "n_rejects": len(rejects),
        "n_train": len(train),
        "n_test": len(test),
        "clustered": clustering,
    }
    outputs = ["manifest.json", "traffic.csv"]

    if clustering:
        if args.stations is None:
            raise UsageError("--clustering requires --stations <csv>")
        stations = _read_stations(args.stations)
        result = run_clustered(
            train, test, stations, cluster_config, config.mode, config,
            include_transaction_id=include_txn,
        )
        _write_assignment(out, stations, result.assignment.labels)
        outputs.append("assignment.csv")
        traffic = result.combined_traffic()
        summary = [
            f"clustered {config.mode.value}: pooled_rmse_kwh="
            f"{result.pooled_rmse_kwh!r} total_bytes={traffic.total_bytes()}"
        ]
        cluster_rows = []
        for c in result.clusters:
            row = {
                "cluster_id": c.cluster_id,
                "skipped": c.skipped,
                "n_train": c.n_train,
                "n_test": c.n_test,
                "stations": len(c.station_ids),
                "workers": c.workers,
                "epochs_ran": len(c.reports),
                "rmse_kwh": c.rmse_kwh,
            }
            cluster_rows.append(row)
            summary.append(
                f"  cluster {row['cluster_id']}: train={row['n_train']} "
                f"test={row['n_test']} rmse_kwh={row['rmse_kwh']!r}"
                + (" (skipped)" if row["skipped"] else "")
            )
            if c.skipped:
                continue
            outputs += _write_model(
                out, f"_cluster{c.cluster_id}", c.model, c.schema, c.reports
            )
        extra.update(
            {
                "clusters": cluster_rows,
                "pooled_rmse_kwh": result.pooled_rmse_kwh,
                "uncovered_test": result.uncovered_test,
            }
        )
    else:
        model, schema, reports, traffic = _fit_plain(
            train, vocab, config.mode, config, include_txn
        )
        outputs += _write_model(out, "", model, schema, reports)
        extra.update(
            {
                "epochs_ran": len(reports),
                "stopped_early": len(reports) < config.epochs,
                "final_loss": reports[-1].global_loss,
                "parameter_count": model.parameter_count,
            }
        )
        summary = [
            f"{config.mode.value}: epochs={len(reports)} "
            f"final_loss={reports[-1].global_loss!r} "
            f"params={model.parameter_count} total_bytes={traffic.total_bytes()}"
        ]
    _write_traffic(out / "traffic.csv", traffic)
    extra.update({"total_bytes": traffic.total_bytes(), "outputs": sorted(outputs)})
    _manifest(out, "train", cfg, extra)
    print("\n".join(summary))
    return 0


def _pipeline_name(mode: str, clustered: bool) -> str:
    return f"{mode}_clustered" if clustered else mode


def _evaluate_run_dir(run_dir: Path, manifest: dict, test):
    """Score the model(s) saved by `fedl train` on the given test split.

    Returns (pipeline_name, rmse, total_bytes, uncovered_test).
    """
    clustered = bool(manifest.get("clustered", False))
    name = _pipeline_name(manifest.get("config", {}).get("mode", "central"), clustered)
    traffic_path = run_dir / "traffic.csv"
    total_bytes = (
        _read_traffic(traffic_path).total_bytes() if traffic_path.exists() else 0
    )
    groups = [("", test)]  # (file suffix, the test records its model scores)
    uncovered = 0
    if clustered:
        assignment_path = run_dir / "assignment.csv"
        if not assignment_path.exists():
            raise UsageError(f"{run_dir} is clustered but has no assignment.csv")
        cluster_of = _read_assignment(assignment_path)
        unknown = sorted(set(test.station_ids()) - set(cluster_of))
        if unknown:
            raise DegenerateDataError(
                f"test stations missing from assignment: {', '.join(unknown)}"
            )
        groups = []
        for k, test_k in enumerate(by_cluster(test, cluster_of, len(cluster_of))):
            if not test_k:
                continue
            suffix = f"_cluster{k}"
            if not (run_dir / f"model{suffix}.fedl").exists() or not (
                run_dir / f"schema{suffix}.json"
            ).exists():
                uncovered += len(test_k)  # cluster was skipped at train time
                continue
            groups.append((suffix, test_k))
    scored = []
    for suffix, records in groups:
        schema = _read_schema(run_dir / f"schema{suffix}.json")
        model_path = run_dir / f"model{suffix}.fedl"
        model = load_network(model_path)
        if (model.input_width, model.output_width) != (schema.width, 1):
            raise DataFormatError(
                f"{model_path} maps {model.input_width} inputs to "
                f"{model.output_width} outputs, but its schema encodes "
                f"{schema.width} features into 1 label"
            )
        scored.append(score(model, schema, records))
    return name, pooled_rmse(scored), total_bytes, uncovered


def _baseline_rmse(train, test, include_txn: bool, knn_k: int):
    """(mean RMSE, knn RMSE) on raw kWh labels."""
    from .metrics import rmse as _rmse

    actual, train_y = test.energy_kwh, train.energy_kwh
    mean_pred = mean_baseline(train_y).predict(len(test))
    vocab = {*train.station_ids(), *test.station_ids()}
    schema = build_schema(train, include_txn, station_vocabulary=vocab)
    k = min(knn_k, len(train))
    knn_pred = knn_baseline(
        feature_codes(train, schema), train_y, feature_codes(test, schema), k,
        schema=schema,
    )
    return _rmse(actual, mean_pred), _rmse(actual, knn_pred)


def _sweep(
    args, cfg, config: TrainConfig, cluster_config: ClusterConfig, records, out: Path
) -> int:
    include_txn = cfg["include_transaction_id"]
    stations = _read_stations(args.stations) if args.stations is not None else None
    methods = ["central", "federated"]
    if stations is not None:
        methods += ["central_clustered", "federated_clustered"]
    methods += ["knn", "mean"]
    table: dict[str, dict[float, float]] = {m: {} for m in methods}
    vocab = records.station_ids()
    for ratio in SWEEP_RATIOS:
        train, test = split_train_test(records, ratio, config.seed)
        for mode in (TrainMode.CENTRAL, TrainMode.FEDERATED):
            model, schema, *_ = _fit_plain(train, vocab, mode, config, include_txn)
            table[mode.value][ratio] = pooled_rmse([score(model, schema, test)])
            if stations is not None:
                result = run_clustered(
                    train, test, stations, cluster_config, mode, config,
                    include_transaction_id=include_txn,
                )
                table[_pipeline_name(mode.value, True)][ratio] = result.pooled_rmse_kwh

        mean_rmse, knn_rmse = _baseline_rmse(train, test, include_txn, cfg["knn_k"])
        table["mean"][ratio] = mean_rmse
        table["knn"][ratio] = knn_rmse
        print(f"ratio {ratio}: " + " ".join(
            f"{m}={table[m][ratio]!r}" for m in methods
        ))

    rows = [
        [m] + [repr(table[m][r]) if table[m][r] is not None else "" for r in SWEEP_RATIOS]
        for m in methods
    ]
    _write_csv(out / "sweep.csv", ["method", *[str(r) for r in SWEEP_RATIOS]], rows)
    # the sweep sets its own ratios; a config file's ratio plays no part
    swept = {k: v for k, v in cfg.items() if k != "ratio"}
    _manifest(out, "evaluate-sweep", swept, {"outputs": ["sweep.csv"]})
    print(f"wrote {out / 'sweep.csv'}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _resolve(args, "evaluate")
    # checked even when they go unused
    config, cluster_config = _train_config(cfg), _cluster_config(cfg)
    if cfg["knn_k"] < 1:
        raise UsageError(f"--knn-k must be >= 1, got {cfg['knn_k']}")
    if args.run_dir is not None and args.include_transaction_id is not None:
        flag = "include-transaction-id" if args.include_transaction_id else (
            "no-include-transaction-id")
        raise UsageError(
            f"--run-dir scores the run with the encoding its manifest records; "
            f"it takes no --{flag}"
        )
    if args.sweep and args.ratio is not None:
        raise UsageError(
            f"--sweep trains at ratios {'/'.join(map(str, SWEEP_RATIOS))}; "
            "it takes no --ratio"
        )
    if args.sweep and args.run_dir is not None:
        raise UsageError("--sweep trains and scores its own models; it takes no --run-dir")
    out = _out_dir(args)
    records, _rejects = _read_transactions(args.transactions)
    if not records:
        raise DegenerateDataError("no valid records to evaluate on")
    if args.sweep:
        return _sweep(args, cfg, config, cluster_config, records, out)

    # inherit split parameters from the run being scored unless overridden
    run_manifest: dict = {}
    if args.run_dir is not None:
        manifest_path = args.run_dir / "manifest.json"
        if not manifest_path.exists():
            raise UsageError(f"{args.run_dir} has no manifest.json (not a train run dir)")
        run_manifest = _read_json_object(manifest_path)
    run_cfg = run_manifest.get("config", {})
    if not isinstance(run_cfg, dict):
        raise DataFormatError(f"{args.run_dir / 'manifest.json'}: config is not an object")

    def inherited(key):
        # a flag wins, then the scored run's value, then config file/default;
        # --run-dir takes no transaction-id flag, so the run's encoding wins
        if getattr(args, key) is None and key in run_cfg:
            try:
                return _typed(key, run_cfg[key])
            except UsageError as e:
                raise DataFormatError(f"{args.run_dir / 'manifest.json'}: {e}") from None
        return cfg[key]

    ratio = _check_ratio(inherited("ratio"))
    seed = inherited("seed")
    include_txn = inherited("include_transaction_id")
    train, test = split_train_test(records, ratio, seed)

    rmse_kwh: dict[str, float] = {}
    total_bytes: dict[str, int] = {}
    uncovered = 0
    if args.run_dir is not None:
        name, value, n_bytes, uncovered = _evaluate_run_dir(
            args.run_dir, run_manifest, test
        )
        if value is not None:
            rmse_kwh[name] = value
        total_bytes[name] = n_bytes
    mean_rmse, knn_rmse = _baseline_rmse(train, test, include_txn, cfg["knn_k"])
    rmse_kwh["mean"] = mean_rmse
    rmse_kwh["knn"] = knn_rmse

    report = EvalReport(
        train_ratio=ratio, rmse_kwh=rmse_kwh, total_bytes=total_bytes
    )
    payload = report.to_dict()
    payload.update(
        {"n_train": len(train), "n_test": len(test), "uncovered_test": uncovered}
    )
    _write_json(out / "report.json", payload)
    for name in sorted(rmse_kwh):
        print(f"{name}: rmse_kwh={rmse_kwh[name]!r}")
    return 0


def cmd_report(args) -> int:
    out = _out_dir(args)
    logs: dict[str, TrafficLog] = {}
    for item in args.logs:
        name, sep, path = item.partition("=")
        if not sep or not name or not path:
            raise UsageError(f"expected NAME=TRAFFIC_CSV, got {item!r}")
        if name in logs:
            raise UsageError(f"duplicate pipeline name {name!r}")
        logs[name] = _read_traffic(Path(path))
    try:
        report = overhead_report(logs, baseline=args.baseline)
    except ValueError as e:
        raise UsageError(str(e)) from None
    _write_json(out / "comparison.json", report.to_dict())
    print(report.format_table())
    return 0


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning (a skipped cluster, say) as one ``fedl: warning:``
    line, without the source location Python adds."""
    print(f"fedl: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.handler(args)
    except UsageError as e:
        print(f"fedl: error: {e}", file=sys.stderr)
        return 1
    except (DataFormatError, DegenerateDataError, DegenerateSplitError,
            EncodingError) as e:
        print(f"fedl: data error: {e}", file=sys.stderr)
        return 2
    except (ShapeError, InfeasibilityError, StalenessError, FloatingPointError,
            OverflowError) as e:
        print(f"fedl: numerical error: {e}", file=sys.stderr)
        return 3
    except FileNotFoundError as e:
        print(f"fedl: error: file not found: {e.filename or e}", file=sys.stderr)
        return 1
    except (IsADirectoryError, PermissionError, NotADirectoryError) as e:
        print(f"fedl: error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"fedl: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
