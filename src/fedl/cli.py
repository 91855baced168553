"""Command-line interface.

Subcommands: ingest, cluster, train, evaluate, sweep, report, synth.  Every
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
import math
import sys
import warnings
from dataclasses import asdict, fields
from datetime import date as _date, timedelta
from pathlib import Path

import numpy as np

from .clustering import ClusterConfig, constrained_kmeans
from .data import (
    STATIONS_HEADER,
    TRANSACTIONS_HEADER,
    EncodingSchema,
    RejectedRow,
    build_schema,
    csv_rows,
    encode_features,
    json_problem,
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

_TRAINING = ("train", "sweep")
_CLUSTERING = ("cluster", *_TRAINING)
_BOOL = {"action": argparse.BooleanOptionalAction}

# Every config-backed option: key -> (default, the commands that take it,
# argparse keywords of its flag).  The flag is ``--`` plus the key with
# dashes; a value resolves as flag > config file > default.
OPTIONS = {
    "seed": (0, ("synth", "evaluate", *_CLUSTERING),
             {"type": int, "help": "base RNG seed"}),
    "ratio": (0.8, ("train", "evaluate"), {"type": float, "help": "training fraction"}),
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
    "include_transaction_id": (True, ("ingest", "evaluate", *_TRAINING), _BOOL),
    "knn_k": (5, ("evaluate", "sweep"), {"type": int}),
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
    _add_common(p, "evaluate")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("sweep", help="train and score every method at ratios 0.8/0.7/0.6/0.5")
    p.add_argument("--transactions", type=Path, required=True)
    p.add_argument("--stations", type=Path, default=None,
                   help="stations CSV (enables the clustered methods)")
    _add_common(p, "sweep")
    p.set_defaults(handler=cmd_sweep)

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
    """The config file's values, each :func:`_typed`; {} for no file.  Any
    problem with the file is a UsageError naming it."""
    def typed(f) -> dict:
        data = _json_object(f)
        unknown = sorted(set(data) - set(DEFAULTS))
        if unknown:
            raise DataFormatError(f"unknown config keys: {', '.join(unknown)}")
        return {key: _typed(key, value) for key, value in data.items()}

    if path is None:
        return {}
    try:
        return _read_input(path, typed)
    except DataFormatError as e:
        raise UsageError(str(e)) from None


def _kind(key: str):
    """Option ``key``'s JSON type, as data.json_problem reads it."""
    kwargs = OPTIONS[key][2]
    if "action" in kwargs:
        return bool
    return tuple(kwargs["choices"]) if "choices" in kwargs else kwargs["type"]


def _typed(key: str, value):
    """A config-file value checked as argparse checks ``key``'s flag, of
    :func:`_kind`'s type (an integer made float for ``type=float``); null
    only where the default is None."""
    if value is None and OPTIONS[key][0] is None:
        return None
    problem = json_problem(value, _kind(key), f"config key {key!r}")
    if problem:
        raise DataFormatError(problem)
    return float(value) if _kind(key) is float else value


# The options whose values have a range: key -> (the test, the range in
# words).  Flags, config files and run manifests are held to the same one.
_RANGES = {
    "seed": (lambda v: v >= 0, ">= 0"),
    "ratio": (lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "knn_k": (lambda v: v >= 1, ">= 1"),
    "noise": (lambda v: math.isfinite(v) and v >= 0.0, "finite and >= 0"),
}


def _range_problem(key: str, value, where: str) -> str | None:
    """Why option ``key``'s ``value``, named ``where``, is outside its
    :data:`_RANGES` range; None when it is inside or ``key`` has none."""
    test, words = _RANGES.get(key, (lambda v: True, ""))
    return None if test(value) else f"{where} must be {words}, got {value}"


def _resolve(args, command: str) -> dict:
    """flag > config file > default, for each option ``command`` takes; a
    value outside its range is a UsageError naming the flag."""
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
        problem = _range_problem(key, resolved[key], "--" + key.replace("_", "-"))
        if problem:
            raise UsageError(problem)
    return resolved


_TRAIN_FIELDS = {f.name for f in fields(TrainConfig)}


def _train_config(cfg: dict) -> TrainConfig:
    """The options named like TrainConfig fields, plus the ``hidden`` widths,
    comma-separated integers >= 1 (sweep takes no mode: it trains both)."""
    widths = [w.strip() for w in cfg["hidden"].split(",")]
    if not all(w.isascii() and w.isdigit() and int(w) >= 1 for w in widths):
        raise UsageError(f"--hidden must be comma-separated integers >= 1, got {cfg['hidden']!r}")
    try:
        return TrainConfig(
            hidden_layers=[int(w) for w in widths],
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


def _out_dir(args) -> Path:
    out = args.out if args.out is not None else Path("fedl_out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _read_input(path: Path, parse):
    """``parse`` of the text file at ``path``, open for reading.  Every input
    file is read here, and only here does a message about a file's
    contents name it: a DataFormatError from ``parse``, or the file not
    being UTF-8 text, becomes a DataFormatError that begins ``"<path>: "``.
    A leading UTF-8 byte-order mark is skipped.  A missing path, or a
    directory, is a UsageError."""
    if not path.exists():
        raise UsageError(f"input file does not exist: {path}")
    if path.is_dir():
        raise UsageError(f"expected a file, got a directory: {path}")
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as f:
            return parse(f)
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not UTF-8 text: {e.reason}") from None
    except DataFormatError as e:
        raise DataFormatError(f"{path}: {e}") from None


def _json_object(f) -> dict:
    """The JSON object that the text file ``f`` holds; DataFormatError when
    it holds no JSON, or JSON of another kind."""
    try:
        data = json.loads(f.read())
    except json.JSONDecodeError as e:  # not UnicodeDecodeError: _read_input names that
        raise DataFormatError(f"not valid JSON: {e}") from None
    if not isinstance(data, dict):
        raise DataFormatError("must hold a JSON object")
    return data


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


# A train run's files with fixed names; _model_files names the others.
MANIFEST, TRAFFIC, ASSIGNMENT = "manifest.json", "traffic.csv", "assignment.csv"
ASSIGNMENT_HEADER = ("station_id", "cluster_id")

# The manifest keys `evaluate --run-dir` reads, with their JSON types as
# data.json_problem reads them; "clusters" only when config.clustering is
# true.  The run's split is its config's _SPLIT keys.
_SPLIT = ("ratio", "seed", "include_transaction_id")
RUN_MANIFEST = {
    "config": {key: _kind(key) for key in (*_SPLIT, "mode", "clustering")},
    "outputs": [str],
    "total_bytes": int,
    "clusters": [{"skipped": bool}],
}


def _manifest(out: Path, command: str, cfg: dict, extra: dict) -> dict:
    payload = {
        "command": command,
        "config": {k: str(v) if isinstance(v, Path) else v for k, v in sorted(cfg.items())},
    }
    manifest = dict(payload)
    manifest["run_id"] = _run_id(payload)
    manifest.update(extra)
    _write_json(out / MANIFEST, manifest)
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
        out / ASSIGNMENT,
        ASSIGNMENT_HEADER,
        [(s.station_id, int(labels[i])) for i, s in enumerate(stations)],
    )


def _write_traffic(path: Path, log: TrafficLog) -> None:
    _write_csv(path, TrafficLog.HEADER, log.to_rows())


def _read_traffic(path: Path) -> TrafficLog:
    def parse(f) -> TrafficLog:
        # read in full first: a decoding error is a ValueError too
        rows = list(csv_rows(f, TrafficLog.HEADER))
        try:
            return TrafficLog.from_rows(row for _, row in rows)
        except (KeyError, ValueError) as e:
            raise DataFormatError(f"bad traffic row: {e}") from None
    return _read_input(path, parse)


def _read_assignment(path: Path) -> dict[str, int]:
    """Station id -> cluster id from an ``assignment.csv``.  The header must
    be :data:`ASSIGNMENT_HEADER`, each row two fields, each station once,
    and each cluster id an integer in [0, number of rows)."""
    def parse(f) -> dict[str, int]:
        rows = list(csv_rows(f, ASSIGNMENT_HEADER))
        cluster_of: dict[str, int] = {}
        for line, row in rows:
            if len(row) != len(ASSIGNMENT_HEADER):
                raise DataFormatError(f"line {line}: expected 2 fields, got {len(row)}")
            station_id, raw = row
            if station_id in cluster_of:
                raise DataFormatError(f"line {line}: duplicate station {station_id!r}")
            try:
                cluster_of[station_id] = int(raw)
            except ValueError:
                raise DataFormatError(
                    f"line {line}: cluster id is not an integer: {raw!r}") from None
            if not 0 <= cluster_of[station_id] < len(rows):
                raise DataFormatError(f"line {line}: cluster id {raw} is outside [0, {len(rows)})")
        return cluster_of
    return _read_input(path, parse)


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
        TRANSACTIONS_HEADER,
        zip(
            map(records.vocabulary.__getitem__, records.station.tolist()),
            records.transaction_id.tolist(),
            map(dates.__getitem__, records.day.tolist()),
            map(times.__getitem__, records.hour.tolist()),
            map(repr, records.energy_kwh.tolist()),
        ),
    )
    _write_csv(out / "stations.csv", STATIONS_HEADER, stations)  # str(float) is repr
    _write_json(out / "generator.json", asdict(meta))
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
    records, rejects = _read_input(args.transactions, parse_transactions)
    schema = build_schema(records, cfg["include_transaction_id"])
    n_stations = len(schema.station_vocabulary)
    if rejects:
        _write_csv(out / "rejects.csv", RejectedRow._fields, rejects)
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
    stations = _read_input(args.stations, parse_stations)
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
        {"outputs": [ASSIGNMENT, "cluster_summary.json"]},
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


def _model_files(cluster: int | None) -> list[str]:
    """The model, schema and metrics file names of a plain run (``cluster``
    None) or of its cluster ``cluster``."""
    suffix = "" if cluster is None else f"_cluster{cluster}"
    return [f"model{suffix}.fedl", f"schema{suffix}.json", f"metrics{suffix}.csv"]


def _write_model(out: Path, cluster: int | None, model, schema, reports) -> list[str]:
    """Write :func:`_model_files`; returns their names."""
    names = _model_files(cluster)
    save_network(model, out / names[0])
    _write_json(out / names[1], schema.to_dict())
    _write_csv(out / names[2], *_metrics_rows(reports))
    return names


def cmd_train(args) -> int:
    cfg = _resolve(args, "train")
    config = _train_config(cfg)
    cluster_config = _cluster_config(cfg)  # checked even when it goes unused
    out = _out_dir(args)
    records, rejects = _read_input(args.transactions, parse_transactions)
    if not records:
        raise DegenerateDataError("no valid records to train on")
    train, test = split_train_test(records, cfg["ratio"], config.seed)
    vocab = records.station_ids()
    include_txn = cfg["include_transaction_id"]
    clustering = cfg["clustering"]
    extra: dict = {
        "n_records": len(records),
        "n_rejects": len(rejects),
        "n_train": len(train),
        "n_test": len(test),
    }
    outputs = [MANIFEST, TRAFFIC]

    if clustering:
        if args.stations is None:
            raise UsageError("--clustering requires --stations <csv>")
        stations = _read_input(args.stations, parse_stations)
        result = run_clustered(
            train, test, stations, cluster_config, config.mode, config,
            include_transaction_id=include_txn,
        )
        _write_assignment(out, stations, result.assignment.labels)
        outputs.append(ASSIGNMENT)
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
            outputs += _write_model(out, c.cluster_id, c.model, c.schema, c.reports)
        extra.update(clusters=cluster_rows, pooled_rmse_kwh=result.pooled_rmse_kwh,
                     uncovered_test=result.uncovered_test)
    else:
        model, schema, reports, traffic = _fit_plain(
            train, vocab, config.mode, config, include_txn
        )
        outputs += _write_model(out, None, model, schema, reports)
        extra.update(epochs_ran=len(reports), stopped_early=len(reports) < config.epochs,
                     final_loss=reports[-1].global_loss, parameter_count=model.parameter_count)
        summary = [
            f"{config.mode.value}: epochs={len(reports)} "
            f"final_loss={reports[-1].global_loss!r} "
            f"params={model.parameter_count} total_bytes={traffic.total_bytes()}"
        ]
    _write_traffic(out / TRAFFIC, traffic)
    extra.update({"total_bytes": traffic.total_bytes(), "outputs": sorted(outputs)})
    _manifest(out, "train", cfg, extra)
    print("\n".join(summary))
    return 0


def _run_file(run_dir: Path, name: str) -> Path:
    """``run_dir / name``, a file the run's manifest says it wrote;
    DataFormatError naming it and the manifest if it is missing."""
    path = run_dir / name
    if not path.exists():
        raise DataFormatError(f"{path} is missing, but {run_dir / MANIFEST} says the run wrote it")
    return path


def _read_manifest(run_dir: Path) -> dict:
    """A train run's manifest, which must have every :data:`RUN_MANIFEST`
    key with its type, and its split in the options' :data:`_RANGES`;
    DataFormatError naming the file otherwise."""
    def checked(f) -> dict:
        manifest = _json_object(f)
        keys = dict(RUN_MANIFEST)
        config = manifest.get("config")
        if not (isinstance(config, dict) and config.get("clustering") is True):
            del keys["clusters"]
        problem = json_problem(manifest, keys) or next(filter(None, (
            _range_problem(key, config[key], f"config.{key}") for key in _SPLIT)), None)
        if problem:
            raise DataFormatError(problem)
        return manifest

    if not (run_dir / MANIFEST).exists():
        raise UsageError(f"{run_dir} has no {MANIFEST} (not a train run dir)")
    return _read_input(run_dir / MANIFEST, checked)


def _evaluate_run_dir(run_dir: Path, manifest: dict, test):
    """Score the model(s) saved by the `fedl train` run whose checked
    manifest is ``manifest``, one per cluster when it is clustered, on the
    given test split.  A cluster's model is read when its ``clusters`` row
    says it was trained (``"skipped": false``); a skipped cluster's test
    records are uncovered.  Every file the manifest lists in ``outputs``
    must exist, and ``traffic.csv`` must total the manifest's ``total_bytes``.

    Returns (pipeline_name, rmse, total_bytes, uncovered_test).
    """
    for output in manifest["outputs"]:
        _run_file(run_dir, output)
    traffic_path = _run_file(run_dir, TRAFFIC)
    total_bytes = _read_traffic(traffic_path).total_bytes()
    if total_bytes != manifest["total_bytes"]:
        raise DataFormatError(
            f"{traffic_path} totals {total_bytes} B, but {run_dir / MANIFEST} records "
            f"total_bytes {manifest['total_bytes']}"
        )
    groups = [(None, test)]  # (cluster, the test records its model scores)
    uncovered = 0
    clustered = manifest["config"]["clustering"]
    if clustered:
        assignment_path = _run_file(run_dir, ASSIGNMENT)
        cluster_of = _read_assignment(assignment_path)
        unknown = sorted(set(test.station_ids()) - set(cluster_of))
        if unknown:
            raise DegenerateDataError(
                f"{assignment_path}: test stations missing: {', '.join(unknown)}"
            )
        rows = manifest["clusters"]
        groups = []
        for k, test_k in enumerate(by_cluster(test, cluster_of, len(cluster_of))):
            if not test_k:
                continue
            if k >= len(rows):
                raise DataFormatError(f"{run_dir / MANIFEST}: clusters has no row {k}")
            if rows[k]["skipped"]:
                uncovered += len(test_k)
                continue
            groups.append((k, test_k))
    scored = []
    for cluster, records in groups:
        model_name, schema_name, _ = _model_files(cluster)
        schema_path = _run_file(run_dir, schema_name)
        schema = _read_input(schema_path, lambda f: EncodingSchema.from_dict(_json_object(f)))
        model_path = _run_file(run_dir, model_name)
        model = load_network(model_path)
        if (model.input_width, model.output_width) != (schema.width, 1):
            raise DataFormatError(
                f"{model_path} maps {model.input_width} inputs to "
                f"{model.output_width} outputs, but {schema_path} encodes "
                f"{schema.width} features into 1 label"
            )
        try:
            scored.append(score(model, schema, records))
        except EncodingError as e:  # a test station that the schema lacks
            where = "" if cluster is None else f" ({assignment_path} puts it in cluster {cluster})"
            raise EncodingError(f"{schema_path}: {e}{where}") from None
    mode = manifest["config"]["mode"]
    name = f"{mode}_clustered" if clustered else mode
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
        encode_features(train, schema)[0], train_y, encode_features(test, schema)[0], k
    )
    return _rmse(actual, mean_pred), _rmse(actual, knn_pred)


def cmd_sweep(args) -> int:
    cfg = _resolve(args, "sweep")
    # the cluster settings are checked even without --stations
    config, cluster_config = _train_config(cfg), _cluster_config(cfg)
    out = _out_dir(args)
    records, _rejects = _read_input(args.transactions, parse_transactions)
    if not records:
        raise DegenerateDataError("no valid records to train on")
    include_txn = cfg["include_transaction_id"]
    stations = _read_input(args.stations, parse_stations) if args.stations is not None else None
    methods = ["central", "federated"]
    if stations is not None:
        methods += ["central_clustered", "federated_clustered"]
    methods += ["knn", "mean"]
    table: dict[str, dict[float, float]] = {m: {} for m in methods}
    vocab = records.station_ids()
    # the grouping depends on the stations and cluster_config alone
    assignment = constrained_kmeans(stations, cluster_config) if stations is not None else None
    for ratio in SWEEP_RATIOS:
        train, test = split_train_test(records, ratio, config.seed)
        for mode in (TrainMode.CENTRAL, TrainMode.FEDERATED):
            model, schema, *_ = _fit_plain(train, vocab, mode, config, include_txn)
            table[mode.value][ratio] = pooled_rmse([score(model, schema, test)])
            if stations is not None:
                result = run_clustered(
                    train, test, stations, cluster_config, mode, config,
                    include_transaction_id=include_txn, assignment=assignment,
                )
                table[f"{mode.value}_clustered"][ratio] = result.pooled_rmse_kwh

        table["mean"][ratio], table["knn"][ratio] = _baseline_rmse(
            train, test, include_txn, cfg["knn_k"])
        print(f"ratio {ratio}: " + " ".join(
            f"{m}={table[m][ratio]!r}" for m in methods
        ))

    rows = [
        [m] + [repr(table[m][r]) if table[m][r] is not None else "" for r in SWEEP_RATIOS]
        for m in methods
    ]
    _write_csv(out / "sweep.csv", ["method", *[str(r) for r in SWEEP_RATIOS]], rows)
    _manifest(out, "sweep", cfg, {"outputs": ["sweep.csv"]})
    print(f"wrote {out / 'sweep.csv'}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _resolve(args, "evaluate")
    given = [("no-" if getattr(args, key) is False else "") + key.replace("_", "-")
             for key in _SPLIT if getattr(args, key) is not None]
    if args.run_dir is not None and given:
        raise UsageError(
            f"--run-dir scores the run on the split its manifest records; it takes no --{given[0]}"
        )
    out = _out_dir(args)
    records, _rejects = _read_input(args.transactions, parse_transactions)
    if not records:
        raise DegenerateDataError("no valid records to evaluate on")
    run_manifest = _read_manifest(args.run_dir) if args.run_dir is not None else None
    # a run is scored on the split it was trained on
    split = run_manifest["config"] if run_manifest is not None else cfg
    ratio, seed, include_txn = (split[key] for key in _SPLIT)
    train, test = split_train_test(records, ratio, seed)

    rmse_kwh: dict[str, float] = {}
    total_bytes: dict[str, int] = {}
    uncovered = 0
    if run_manifest is not None:
        name, value, n_bytes, uncovered = _evaluate_run_dir(args.run_dir, run_manifest, test)
        if value is not None:
            rmse_kwh[name] = value
        total_bytes[name] = n_bytes
    rmse_kwh["mean"], rmse_kwh["knn"] = _baseline_rmse(train, test, include_txn, cfg["knn_k"])

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
    paths: dict[str, str] = {}
    for item in args.logs:
        name, sep, path = item.partition("=")
        if not sep or not name or not path:
            raise UsageError(f"expected NAME=TRAFFIC_CSV, got {item!r}")
        if name in logs:
            raise UsageError(f"duplicate pipeline name {name!r}")
        logs[name], paths[name] = _read_traffic(Path(path)), path
    try:
        report = overhead_report(logs, baseline=args.baseline)
    except ZeroDivisionError as e:
        raise UsageError(f"{paths[args.baseline]}: {e}") from None
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
