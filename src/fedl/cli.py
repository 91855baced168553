"""Command-line interface.

Subcommands: ingest, cluster, train, evaluate, report, synth.  Every
command accepts ``--config`` (flat JSON; explicit flags win), ``--seed``
and ``--out``.  Outputs are deterministic: same inputs, flags and seed
give byte-identical files — no timestamps, no machine identifiers.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical or
infeasibility error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from datetime import date as _date, timedelta
from pathlib import Path

import numpy as np

from .clustering import ClusterConfig, constrained_kmeans
from .data import (
    EncodingSchema,
    PartitionStrategy,
    build_schema,
    encode_features,
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
from .nn import predict
from .sim import (
    TrafficLog,
    TrainConfig,
    TrainMode,
    run_centralized,
    run_clustered,
    run_federated,
)

SWEEP_RATIOS = (0.8, 0.7, 0.6, 0.5)

_TRAINING = ("train", "evaluate")
_CLUSTERING = ("cluster", *_TRAINING)
_BOOL = {"action": argparse.BooleanOptionalAction}

# Every config-backed option: key -> (default, the commands that take it,
# argparse keywords of its flag).  The flag is ``--`` plus the key with
# dashes; a value resolves as flag > config file > default.
OPTIONS = {
    "seed": (0, ("ingest", "synth", "report", *_CLUSTERING),
             {"type": int, "help": "base RNG seed"}),
    "ratio": (0.8, _TRAINING, {"type": float, "help": "training fraction"}),
    "mode": ("central", _TRAINING, {"choices": ["central", "federated"]}),
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
    "parallel": (False, _TRAINING,
                 {**_BOOL, "help": "compute worker gradients in threads (bit-identical output)"}),
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
    """Declare ``command``'s config-backed flags, ``--config`` and ``--out``."""
    for key, (_, commands, kwargs) in OPTIONS.items():
        if command in commands:
            p.add_argument("--" + key.replace("_", "-"), default=None, **kwargs)
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
    return data


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


def _parse_hidden(value) -> tuple[int, ...]:
    if isinstance(value, (list, tuple)):
        widths = tuple(int(v) for v in value)
    else:
        text = str(value).strip()
        widths = tuple(int(p) for p in text.split(",") if p.strip()) if text else ()
    if any(w < 1 for w in widths):
        raise UsageError(f"hidden layer widths must be >= 1, got {value!r}")
    return widths


def _train_config(cfg: dict) -> TrainConfig:
    try:
        return TrainConfig(
            epochs=int(cfg["epochs"]),
            tolerance=float(cfg["tolerance"]),
            patience=int(cfg["patience"]),
            step_size=float(cfg["step_size"]),
            hidden_layers=_parse_hidden(cfg["hidden"]),
            dropout=float(cfg["dropout"]),
            workers=int(cfg["workers"]),
            partition=PartitionStrategy(cfg["partition"]),
            mode=TrainMode(cfg["mode"]),
            parallel=bool(cfg["parallel"]),
            seed=int(cfg["seed"]),
        )
    except ValueError as e:
        raise UsageError(str(e)) from None


def _cluster_config(cfg: dict) -> ClusterConfig:
    return ClusterConfig(
        k=int(cfg["clusters"]),
        theta_low=cfg["theta_low"],
        theta_high=cfg["theta_high"],
        max_iterations=int(cfg["max_iterations"]),
        seed=int(cfg["seed"]),
    )


def _check_ratio(ratio: float) -> float:
    if not (0.0 < float(ratio) < 1.0):
        raise UsageError(f"--ratio must be in (0, 1), got {ratio}")
    return float(ratio)


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


def _metrics_rows(reports, worker_ids):
    rows = []
    for r in reports:
        row = [r.epoch, r.global_loss]
        row.extend(r.worker_losses)
        row.extend([r.bytes_up, r.bytes_down, r.staleness])
        rows.append(row)
    header = ["epoch", "global_loss"]
    header.extend(f"worker_loss_{wid}" for wid in worker_ids)
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


# ---------------------------------------------------------------- commands

def cmd_synth(args) -> int:
    cfg = _resolve(args, "synth")
    if args.n_stations < 1 or args.n_records < 1:
        raise UsageError("--stations and --records must be >= 1")
    out = _out_dir(args)
    records, stations, meta = synth_generate(
        args.n_stations, args.n_records, seed=int(cfg["seed"]),
        noise_std=float(cfg["noise"]),
    )
    monday = _date(2023, 1, 2)  # day_of_week 1 maps to this Monday
    _write_csv(
        out / "transactions.csv",
        ["station_id", "transaction_id", "date", "time", "energy_kwh"],
        [
            (
                r.station_id,
                r.transaction_id,
                (monday + timedelta(days=r.day_of_week - 1)).isoformat(),
                f"{r.hour:02d}:00",
                repr(r.energy_kwh),
            )
            for r in records
        ],
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
    schema = build_schema(records, bool(cfg["include_transaction_id"]))
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
    out = _out_dir(args)
    stations = _read_stations(args.stations)
    if not stations:
        raise DegenerateDataError("stations file holds no stations")
    assignment = constrained_kmeans(stations, _cluster_config(cfg))
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

    Returns (model, schema, reports, traffic, worker_ids).
    """
    schema = build_schema(train, include_txn, station_vocabulary=vocab)
    X, y = encode_features(train, schema)
    if mode is TrainMode.FEDERATED:
        parts = partition_workers(train, config.workers, config.partition)
        model, reports, traffic = run_federated(X, y, parts, config)
        worker_ids = sorted(p.worker_id for p in parts)
    else:
        model, reports, traffic = run_centralized(X, y, config)
        worker_ids = []
    return model, schema, reports, traffic, worker_ids


def _write_model(out: Path, suffix: str, model, schema, reports, worker_ids) -> list[str]:
    """Write ``model{suffix}.fedl``, ``schema{suffix}.json`` and
    ``metrics{suffix}.csv``; returns their names."""
    names = [f"model{suffix}.fedl", f"schema{suffix}.json", f"metrics{suffix}.csv"]
    save_network(model, out / names[0])
    _write_json(out / names[1], schema.to_dict())
    _write_csv(out / names[2], *_metrics_rows(reports, worker_ids))
    return names


def cmd_train(args) -> int:
    cfg = _resolve(args, "train")
    ratio = _check_ratio(cfg["ratio"])
    config = _train_config(cfg)
    out = _out_dir(args)
    records, rejects = _read_transactions(args.transactions)
    if not records:
        raise DegenerateDataError("no valid records to train on")
    train, test = split_train_test(records, ratio, config.seed)
    vocab = sorted({r.station_id for r in records})
    include_txn = bool(cfg["include_transaction_id"])
    clustering = bool(cfg["clustering"])
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
            train, test, stations, _cluster_config(cfg), config.mode, config,
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
            wids = range(c.workers) if config.mode is TrainMode.FEDERATED else []
            outputs += _write_model(
                out, f"_cluster{c.cluster_id}", c.model, c.schema, c.reports, wids
            )
        extra.update(
            {
                "clusters": cluster_rows,
                "pooled_rmse_kwh": result.pooled_rmse_kwh,
                "uncovered_test": result.uncovered_test,
            }
        )
    else:
        model, schema, reports, traffic, worker_ids = _fit_plain(
            train, vocab, config.mode, config, include_txn
        )
        outputs += _write_model(out, "", model, schema, reports, worker_ids)
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
        with _open_input(assignment_path) as f:
            reader = csv.reader(f)
            next(reader)
            station_cluster = {row[0]: int(row[1]) for row in reader if row}
        unknown = sorted(
            {r.station_id for r in test} - set(station_cluster)
        )
        if unknown:
            raise DegenerateDataError(
                f"test stations missing from assignment: {', '.join(unknown)}"
            )
        groups = []
        for k in sorted(set(station_cluster.values())):
            test_k = [r for r in test if station_cluster[r.station_id] == k]
            if not test_k:
                continue
            suffix = f"_cluster{k}"
            if not (run_dir / f"model{suffix}.fedl").exists() or not (
                run_dir / f"schema{suffix}.json"
            ).exists():
                uncovered += len(test_k)  # cluster was skipped at train time
                continue
            groups.append((suffix, test_k))
    from .metrics import rmse as _rmse

    value = None
    if groups:
        predictions = []
        for suffix, records in groups:
            schema_json = (run_dir / f"schema{suffix}.json").read_text(encoding="utf-8")
            schema = EncodingSchema.from_dict(json.loads(schema_json))
            model = load_network(run_dir / f"model{suffix}.fedl")
            X, _ = encode_features(records, schema)
            predictions.append(predict(model, X, schema))
        actual = np.array([r.energy_kwh for _, g in groups for r in g], dtype=np.float64)
        value = _rmse(actual, np.concatenate(predictions))
    return name, value, total_bytes, uncovered


def _baseline_rmse(train, test, include_txn: bool, knn_k: int):
    """(mean RMSE, knn RMSE) on raw kWh labels."""
    from .metrics import rmse as _rmse

    actual = np.array([r.energy_kwh for r in test], dtype=np.float64)
    train_y = np.array([r.energy_kwh for r in train], dtype=np.float64)
    mean_pred = mean_baseline(train_y).predict(len(test))
    vocab = sorted({r.station_id for r in train} | {r.station_id for r in test})
    schema = build_schema(train, include_txn, station_vocabulary=vocab)
    X_train, _ = encode_features(train, schema)
    X_test, _ = encode_features(test, schema)
    k = min(knn_k, X_train.shape[0])
    knn_pred = knn_baseline(X_train, train_y, X_test, k)
    return _rmse(actual, mean_pred), _rmse(actual, knn_pred)


def _sweep(args, cfg, records, out: Path) -> int:
    from .metrics import rmse as _rmse

    config = _train_config(cfg)
    include_txn = bool(cfg["include_transaction_id"])
    knn_k = int(cfg["knn_k"])
    stations = _read_stations(args.stations) if args.stations is not None else None
    methods = ["central", "federated"]
    if stations is not None:
        methods += ["central_clustered", "federated_clustered"]
    methods += ["knn", "mean"]
    table: dict[str, dict[float, float]] = {m: {} for m in methods}
    vocab = sorted({r.station_id for r in records})
    for ratio in SWEEP_RATIOS:
        train, test = split_train_test(records, ratio, config.seed)
        actual = np.array([r.energy_kwh for r in test], dtype=np.float64)
        for mode in (TrainMode.CENTRAL, TrainMode.FEDERATED):
            model, schema, *_ = _fit_plain(train, vocab, mode, config, include_txn)
            X_test, _ = encode_features(test, schema)
            table[mode.value][ratio] = _rmse(actual, predict(model, X_test, schema))
            if stations is not None:
                result = run_clustered(
                    train, test, stations, _cluster_config(cfg), mode, config,
                    include_transaction_id=include_txn,
                )
                table[_pipeline_name(mode.value, True)][ratio] = result.pooled_rmse_kwh

        mean_rmse, knn_rmse = _baseline_rmse(train, test, include_txn, knn_k)
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
    _manifest(out, "evaluate-sweep", cfg, {"outputs": ["sweep.csv"]})
    print(f"wrote {out / 'sweep.csv'}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _resolve(args, "evaluate")
    out = _out_dir(args)
    records, _rejects = _read_transactions(args.transactions)
    if not records:
        raise DegenerateDataError("no valid records to evaluate on")
    if args.sweep:
        return _sweep(args, cfg, records, out)

    # inherit split parameters from the run being scored unless overridden
    run_manifest: dict = {}
    if args.run_dir is not None:
        manifest_path = args.run_dir / "manifest.json"
        if not manifest_path.exists():
            raise UsageError(f"{args.run_dir} has no manifest.json (not a train run dir)")
        run_manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    run_cfg = run_manifest.get("config", {})
    ratio = _check_ratio(
        args.ratio if args.ratio is not None else run_cfg.get("ratio", cfg["ratio"])
    )
    seed = int(args.seed if args.seed is not None else run_cfg.get("seed", cfg["seed"]))
    include_txn = bool(
        run_cfg.get("include_transaction_id", cfg["include_transaction_id"])
    )
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
    mean_rmse, knn_rmse = _baseline_rmse(train, test, include_txn, int(cfg["knn_k"]))
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 1
    try:
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
