import contextlib
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fedl
from fedl.cli import DEFAULTS, _resolve, build_parser, main


def invoke(*argv):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as e:  # argparse exits directly on parse errors
            code = int(e.code or 0)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """A synthetic corpus on disk: transactions.csv + stations.csv."""
    out = tmp_path_factory.mktemp("corpus")
    code, stdout, stderr = invoke(
        "synth", "--stations", 4, "--records", 160, "--seed", 3, "--out", out
    )
    assert code == 0, stderr
    return out


FAST = ("--epochs", 4, "--tolerance", 0, "--hidden", "6", "--ratio", 0.8, "--seed", 1)


# --------------------------------------------------------------- synth


def test_synth_writes_corpus_and_reports(corpus_dir):
    assert (corpus_dir / "transactions.csv").exists()
    assert (corpus_dir / "stations.csv").exists()
    assert (corpus_dir / "generator.json").exists()
    lines = (corpus_dir / "transactions.csv").read_text().strip().splitlines()
    assert lines[0] == "station_id,transaction_id,date,time,energy_kwh"
    assert len(lines) == 161


def test_synth_is_byte_deterministic(tmp_path, corpus_dir):
    other = tmp_path / "again"
    code, _, _ = invoke(
        "synth", "--stations", 4, "--records", 160, "--seed", 3, "--out", other
    )
    assert code == 0
    for name in ("transactions.csv", "stations.csv", "generator.json"):
        assert (other / name).read_bytes() == (corpus_dir / name).read_bytes()


def test_synth_rejects_nonpositive_counts(tmp_path):
    code, _, err = invoke(
        "synth", "--stations", 0, "--records", 5, "--out", tmp_path / "x"
    )
    assert code == 1
    assert "error" in err


# --------------------------------------------------------------- ingest


def test_ingest_reports_counts(tmp_path, corpus_dir):
    out = tmp_path / "ingest"
    code, stdout, _ = invoke(
        "ingest", "--transactions", corpus_dir / "transactions.csv", "--out", out
    )
    assert code == 0
    assert stdout.strip() == "160 records, 4 stations, 0 rejects"
    summary = json.loads((out / "ingest_summary.json").read_text())
    assert summary["records"] == 160
    assert summary["encoded_width"] == 4 + 7 + 24 + 1
    assert not (out / "rejects.csv").exists()  # nothing was rejected


def test_ingest_writes_reject_lines(tmp_path):
    csv_path = tmp_path / "bad.csv"
    csv_path.write_text(
        "station_id,transaction_id,date,time,energy_kwh\n"
        "A,1,2017-03-06,10:00,5.0\n"
        "A,2,2017-03-06,26:00,5.0\n"
        "A,3,2017-03-06,11:00,6.5\n"
        "A,x,2017-03-06,11:00,6.5\n"
    )
    out = tmp_path / "out"
    code, stdout, _ = invoke("ingest", "--transactions", csv_path, "--out", out)
    assert code == 0
    assert "2 records, 1 stations, 2 rejects" in stdout
    rows = (out / "rejects.csv").read_text().strip().splitlines()
    assert rows[0] == "line_number,reason"
    assert rows[1].startswith("3,") and rows[2].startswith("5,")


def test_ingest_bad_header_exits_2(tmp_path):
    csv_path = tmp_path / "wrong.csv"
    csv_path.write_text("a,b,c\n1,2,3\n")
    code, _, err = invoke("ingest", "--transactions", csv_path, "--out", tmp_path / "o")
    assert code == 2
    assert "data error" in err


def test_overflowing_label_statistics_exit_2(tmp_path, corpus_dir):
    # five finite labels of 1e308 overflow the label mean: a data error,
    # so neither command writes a summary or a model
    lines = (corpus_dir / "transactions.csv").read_text().splitlines()
    rows = [line.rsplit(",", 1)[0] + ",1e308" for line in lines[1:6]]
    csv_path = tmp_path / "huge.csv"
    csv_path.write_text("\n".join([lines[0], *rows, *lines[6:]]) + "\n")
    for command, flags in (("ingest", ()), ("train", FAST)):
        code, _, err = invoke(
            command, "--transactions", csv_path, *flags, "--out", tmp_path / command
        )
        assert code == 2, (command, err)
        assert "label statistics" in err
    assert not (tmp_path / "ingest" / "ingest_summary.json").exists()
    assert not (tmp_path / "train" / "model.fedl").exists()


def test_missing_input_exits_1(tmp_path):
    code, _, err = invoke(
        "ingest", "--transactions", tmp_path / "nope.csv", "--out", tmp_path / "o"
    )
    assert code == 1
    assert "error" in err


# --------------------------------------------------------------- cluster


def test_cluster_balanced_pair(tmp_path, corpus_dir):
    out = tmp_path / "cl"
    code, stdout, _ = invoke(
        "cluster", "--stations", corpus_dir / "stations.csv",
        "--clusters", 2, "--seed", 0, "--out", out,
    )
    assert code == 0
    assert "sizes=[2, 2]" in stdout
    rows = (out / "assignment.csv").read_text().strip().splitlines()
    assert rows[0] == "station_id,cluster_id"
    assert len(rows) == 5
    summary = json.loads((out / "cluster_summary.json").read_text())
    assert summary["cluster_sizes"] == [2, 2]
    assert summary["converged"] is True


def test_cluster_single_cluster_labels_all_zero(tmp_path, corpus_dir):
    out = tmp_path / "cl1"
    code, _, _ = invoke(
        "cluster", "--stations", corpus_dir / "stations.csv",
        "--clusters", 1, "--out", out,
    )
    assert code == 0
    rows = (out / "assignment.csv").read_text().strip().splitlines()[1:]
    assert all(row.endswith(",0") for row in rows)


def test_cluster_is_deterministic(tmp_path, corpus_dir):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code, _, _ = invoke(
            "cluster", "--stations", corpus_dir / "stations.csv",
            "--clusters", 2, "--seed", 5, "--out", out,
        )
        assert code == 0
    assert (a / "assignment.csv").read_bytes() == (b / "assignment.csv").read_bytes()
    assert (
        a / "cluster_summary.json"
    ).read_bytes() == (b / "cluster_summary.json").read_bytes()


def test_cluster_infeasible_windows_exit_3(tmp_path, corpus_dir):
    code, _, err = invoke(
        "cluster", "--stations", corpus_dir / "stations.csv",
        "--clusters", 2, "--theta-high", 1, "--out", tmp_path / "x",
    )
    assert code == 3
    assert "numerical error" in err


# --------------------------------------------------------------- train


def test_train_central_writes_artifacts(tmp_path, corpus_dir):
    out = tmp_path / "central"
    code, stdout, _ = invoke(
        "train", "--transactions", corpus_dir / "transactions.csv",
        "--mode", "central", *FAST, "--out", out,
    )
    assert code == 0
    assert stdout.startswith("central: epochs=4 ")
    for name in ("model.fedl", "schema.json", "metrics.csv", "traffic.csv",
                 "manifest.json"):
        assert (out / name).exists(), name
    metrics = (out / "metrics.csv").read_text().strip().splitlines()
    assert metrics[0] == "epoch,global_loss,bytes_up,bytes_down,staleness"
    assert len(metrics) == 5
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["epochs_ran"] == 4
    assert manifest["config"]["mode"] == "central"
    assert len(manifest["run_id"]) == 12
    traffic = (out / "traffic.csv").read_text().strip().splitlines()
    assert traffic[0] == "epoch,direction,payload,bytes"
    assert len(traffic) == 2  # the single dataset upload
    assert ",up,dataset," in traffic[1]


def test_train_federated_single_worker_matches_central_bytes(tmp_path, corpus_dir):
    central, fed = tmp_path / "c", tmp_path / "f"
    code_c, _, _ = invoke(
        "train", "--transactions", corpus_dir / "transactions.csv",
        "--mode", "central", *FAST, "--out", central,
    )
    code_f, stdout, _ = invoke(
        "train", "--transactions", corpus_dir / "transactions.csv",
        "--mode", "federated", "--workers", 1, "--partition", "round_robin",
        *FAST, "--out", fed,
    )
    assert code_c == 0 and code_f == 0
    assert (central / "model.fedl").read_bytes() == (fed / "model.fedl").read_bytes()
    assert (central / "schema.json").read_bytes() == (fed / "schema.json").read_bytes()


def test_train_federated_metrics_carry_worker_columns(tmp_path, corpus_dir):
    out = tmp_path / "fed2"
    code, stdout, _ = invoke(
        "train", "--transactions", corpus_dir / "transactions.csv",
        "--mode", "federated", "--workers", 2, "--partition", "by_station",
        *FAST, "--out", out,
    )
    assert code == 0
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == (
        "epoch,global_loss,worker_loss_0,worker_loss_1,bytes_up,bytes_down,staleness"
    )
    traffic = (out / "traffic.csv").read_text().strip().splitlines()[1:]
    # per epoch: 2 gradients up + 2 models down
    assert len(traffic) == 4 * 4
    assert all(row.rsplit(",", 3)[-1].isdigit() for row in traffic)


def test_train_is_byte_deterministic(tmp_path, corpus_dir):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code, _, _ = invoke(
            "train", "--transactions", corpus_dir / "transactions.csv",
            "--mode", "federated", "--workers", 2, *FAST, "--out", out,
        )
        assert code == 0
    for name in ("model.fedl", "schema.json", "metrics.csv", "traffic.csv",
                 "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_train_clustering_requires_stations(tmp_path, corpus_dir):
    code, _, err = invoke(
        "train", "--transactions", corpus_dir / "transactions.csv",
        "--clustering", *FAST, "--out", tmp_path / "x",
    )
    assert code == 1
    assert "--stations" in err


def test_train_clustered_writes_per_cluster_artifacts(tmp_path, corpus_dir):
    out = tmp_path / "clustered"
    code, stdout, _ = invoke(
        "train", "--transactions", corpus_dir / "transactions.csv",
        "--stations", corpus_dir / "stations.csv", "--clustering",
        "--clusters", 2, *FAST, "--out", out,
    )
    assert code == 0
    assert stdout.startswith("clustered central: pooled_rmse_kwh=")
    assert "cluster 0:" in stdout and "cluster 1:" in stdout
    for k in (0, 1):
        assert (out / f"model_cluster{k}.fedl").exists()
        assert (out / f"schema_cluster{k}.json").exists()
        assert (out / f"metrics_cluster{k}.csv").exists()
    assert (out / "assignment.csv").exists()
    assert (out / "traffic.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["clustered"] is True
    assert manifest["pooled_rmse_kwh"] > 0
    assert len(manifest["clusters"]) == 2
    assert manifest["uncovered_test"] == 0


def test_train_clustered_federated_caps_workers_per_cluster(tmp_path):
    # 3 clusters of 2 stations cannot each feed 4 station-partitioned
    # workers; every cluster trains with as many as its stations fill
    corpus = tmp_path / "corpus"
    code, _, err = invoke(
        "synth", "--stations", 6, "--records", 600, "--seed", 1, "--out", corpus
    )
    assert code == 0, err
    out = tmp_path / "run"
    code, _, err = invoke(
        "train", "--transactions", corpus / "transactions.csv",
        "--stations", corpus / "stations.csv", "--clustering", "--clusters", 3,
        "--mode", "federated", "--workers", 4, *FAST, "--out", out,
    )
    assert code == 0, err
    manifest = json.loads((out / "manifest.json").read_text())
    assert [row["workers"] for row in manifest["clusters"]] == [2, 2, 2]
    for k in range(3):
        header = (out / f"metrics_cluster{k}.csv").read_text().splitlines()[0]
        assert header.split(",")[2:4] == ["worker_loss_0", "worker_loss_1"]
        assert "worker_loss_2" not in header


def test_train_bad_ratio_exits_1(tmp_path, corpus_dir):
    code, _, err = invoke(
        "train", "--transactions", corpus_dir / "transactions.csv",
        "--ratio", 1.5, "--out", tmp_path / "x",
    )
    assert code == 1


def test_train_too_many_workers_exits_2(tmp_path, corpus_dir):
    # 4 stations cannot feed 9 station-partitioned workers
    code, _, err = invoke(
        "train", "--transactions", corpus_dir / "transactions.csv",
        "--mode", "federated", "--workers", 9, *FAST, "--out", tmp_path / "x",
    )
    assert code == 2
    assert "data error" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "extra",
    [(), ("--mode", "federated", "--workers", 2), ("--clustering", "--clusters", 2)],
    ids=["central", "federated", "clustered"],
)
def test_train_non_finite_loss_exits_3(tmp_path, corpus_dir, extra):
    # a step size of 1e300 overflows the loss at epoch 1, which ends the
    # run with a numerical error before any model is written
    out = tmp_path / "run"
    code, _, err = invoke(
        "train", "--transactions", corpus_dir / "transactions.csv",
        "--stations", corpus_dir / "stations.csv", "--step-size", 1e300,
        *extra, *FAST, "--out", out,
    )
    assert code == 3
    assert "non-finite at epoch 1" in err
    assert not list(out.glob("model*.fedl"))


# --------------------------------------------------------------- config file


def test_config_file_supplies_defaults_and_flags_win(tmp_path, corpus_dir):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 3, "hidden": "5", "tolerance": 0.0,
                               "seed": 2, "ratio": 0.8}))
    out = tmp_path / "run"
    code, stdout, _ = invoke(
        "train", "--transactions", corpus_dir / "transactions.csv",
        "--config", cfg, "--epochs", 2, "--out", out,
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 2  # flag beats file
    assert manifest["config"]["hidden"] == "5"  # file beats default
    assert manifest["epochs_ran"] == 2


def test_config_file_unknown_key_exits_1(tmp_path, corpus_dir):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = invoke(
        "train", "--transactions", corpus_dir / "transactions.csv",
        "--config", cfg, "--out", tmp_path / "x",
    )
    assert code == 1
    assert "bogus" in err


# --------------------------------------------------------------- evaluate


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("run") / "central"
    code, _, _ = invoke(
        "train", "--transactions", corpus_dir / "transactions.csv",
        "--mode", "central", "--epochs", 30, "--tolerance", 0, "--hidden", "8",
        "--ratio", 0.7, "--seed", 4, "--out", out,
    )
    assert code == 0
    return out


def test_evaluate_scores_run_and_baselines(tmp_path, corpus_dir, trained_run):
    out = tmp_path / "eval"
    code, stdout, _ = invoke(
        "evaluate", "--transactions", corpus_dir / "transactions.csv",
        "--run-dir", trained_run, "--out", out,
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["rmse_kwh"]) == {"central", "knn", "mean"}
    assert report["train_ratio"] == 0.7  # inherited from the run manifest
    assert report["total_bytes"]["central"] > 0
    assert "central: rmse_kwh=" in stdout
    assert "mean: rmse_kwh=" in stdout
    # scoring is split-stable: the same evaluation twice gives same bytes
    out2 = tmp_path / "eval2"
    code2, stdout2, _ = invoke(
        "evaluate", "--transactions", corpus_dir / "transactions.csv",
        "--run-dir", trained_run, "--out", out2,
    )
    assert (out / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_evaluate_baselines_only(tmp_path, corpus_dir):
    out = tmp_path / "eval"
    code, stdout, _ = invoke(
        "evaluate", "--transactions", corpus_dir / "transactions.csv",
        "--ratio", 0.8, "--seed", 0, "--out", out,
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["rmse_kwh"]) == {"knn", "mean"}


def test_evaluate_clustered_run_dir(tmp_path, corpus_dir):
    run = tmp_path / "run"
    code, _, _ = invoke(
        "train", "--transactions", corpus_dir / "transactions.csv",
        "--stations", corpus_dir / "stations.csv", "--clustering",
        "--clusters", 2, *FAST, "--out", run,
    )
    assert code == 0
    pooled = json.loads((run / "manifest.json").read_text())["pooled_rmse_kwh"]
    out = tmp_path / "eval"
    code, stdout, _ = invoke(
        "evaluate", "--transactions", corpus_dir / "transactions.csv",
        "--run-dir", run, "--out", out,
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    # same split, same models: evaluate reproduces the training-time score
    assert report["rmse_kwh"]["central_clustered"] == pytest.approx(pooled, rel=1e-12)


def test_evaluate_sweep_writes_method_by_ratio_grid(tmp_path, corpus_dir):
    out = tmp_path / "sweep"
    code, stdout, _ = invoke(
        "evaluate", "--transactions", corpus_dir / "transactions.csv",
        "--stations", corpus_dir / "stations.csv", "--sweep",
        "--epochs", 2, "--tolerance", 0, "--hidden", "4", "--workers", 2,
        "--clusters", 2, "--seed", 0, "--out", out,
    )
    assert code == 0, stdout
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    assert rows[0] == "method,0.8,0.7,0.6,0.5"
    methods = [r.split(",")[0] for r in rows[1:]]
    assert methods == [
        "central", "federated", "central_clustered", "federated_clustered",
        "knn", "mean",
    ]
    for row in rows[1:]:
        cells = row.split(",")[1:]
        assert len(cells) == 4
        assert all(float(c) > 0 for c in cells)


def test_evaluate_sweep_without_stations_skips_clustered(tmp_path, corpus_dir):
    out = tmp_path / "sweep"
    code, _, _ = invoke(
        "evaluate", "--transactions", corpus_dir / "transactions.csv", "--sweep",
        "--epochs", 2, "--tolerance", 0, "--hidden", "4", "--workers", 2,
        "--seed", 0, "--out", out,
    )
    assert code == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()
    methods = [r.split(",")[0] for r in rows[1:]]
    assert methods == ["central", "federated", "knn", "mean"]


# --------------------------------------------------------------- report


@pytest.fixture(scope="module")
def two_traffic_logs(tmp_path_factory, corpus_dir):
    base = tmp_path_factory.mktemp("logs")
    c_out, f_out = base / "central", base / "federated"
    invoke(
        "train", "--transactions", corpus_dir / "transactions.csv",
        "--mode", "central", *FAST, "--out", c_out,
    )
    invoke(
        "train", "--transactions", corpus_dir / "transactions.csv",
        "--mode", "federated", "--workers", 2, *FAST, "--out", f_out,
    )
    return c_out / "traffic.csv", f_out / "traffic.csv"


def test_report_compares_pipelines(tmp_path, two_traffic_logs):
    central_csv, federated_csv = two_traffic_logs
    out = tmp_path / "rep"
    code, stdout, _ = invoke(
        "report", f"central={central_csv}", f"federated={federated_csv}", "--out", out,
    )
    assert code == 0
    assert "central" in stdout and "federated" in stdout and "baseline" in stdout
    comparison = json.loads((out / "comparison.json").read_text())
    assert comparison["baseline"] == "central"
    assert set(comparison["total_bytes"]) == {"central", "federated"}
    assert "federated" in comparison["savings_ratio"]


def test_report_identical_log_saves_zero(tmp_path, two_traffic_logs):
    central_csv, _ = two_traffic_logs
    out = tmp_path / "rep"
    code, stdout, _ = invoke(
        "report", f"central={central_csv}", f"again={central_csv}", "--out", out,
    )
    assert code == 0
    comparison = json.loads((out / "comparison.json").read_text())
    assert comparison["savings_ratio"]["again"] == 0.0


def test_report_single_log_exits_1(tmp_path, two_traffic_logs):
    central_csv, _ = two_traffic_logs
    code, _, err = invoke("report", f"central={central_csv}", "--out", tmp_path / "r")
    assert code == 1
    assert "two pipelines" in err


def test_report_malformed_spec_exits_1(tmp_path):
    code, _, err = invoke("report", "justapath.csv", "--out", tmp_path / "r")
    assert code == 1
    assert "NAME=TRAFFIC_CSV" in err


def test_report_non_traffic_csv_exits_2(tmp_path, corpus_dir):
    code, _, err = invoke(
        "report",
        f"central={corpus_dir / 'transactions.csv'}",
        f"other={corpus_dir / 'transactions.csv'}",
        "--out", tmp_path / "r",
    )
    assert code == 2
    assert "data error" in err


# --------------------------------------------------------------- plumbing


def test_no_subcommand_exits_1():
    code, _, _ = invoke()
    assert code == 1


def test_unknown_flag_exits_1(tmp_path, corpus_dir):
    code, _, _ = invoke(
        "ingest", "--transactions", corpus_dir / "transactions.csv", "--frobnicate"
    )
    assert code == 1


def test_each_command_resolves_exactly_its_flags():
    # every config-backed flag a command declares is resolved into its
    # config, and nothing without a flag is
    required = {
        "ingest": ["--transactions", "t.csv"],
        "cluster": ["--stations", "s.csv"],
        "train": ["--transactions", "t.csv"],
        "evaluate": ["--transactions", "t.csv"],
        "report": ["a=t.csv"],
        "synth": ["--stations", "1", "--records", "1"],
    }
    parser = build_parser()
    for command, argv in required.items():
        args = parser.parse_args([command, *argv])
        flags = set(vars(args)) & set(DEFAULTS)
        assert flags == set(_resolve(args, command)), command
        assert "seed" in flags


# The checkout's `src` directory, which holds the imported `fedl` package.
SRC = Path(fedl.__file__).resolve().parents[1]


def _run_launcher(module, attr, *argv):
    """Call `module:attr` the way an installer's console-script launcher does,
    with the checkout's `src` first on the import path."""
    pythonpath = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    code = (
        f"import sys; from {module} import {attr}; "
        f"sys.argv[0] = 'fedl'; sys.exit({attr}())"
    )
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=60, env=env, cwd=SRC.parent,
    )


def test_console_script_is_installed():
    """Installing the project yields a working `fedl` command.

    Checked from the `[project.scripts]` declaration in the checkout's own
    pyproject.toml, without installing: the declared target must resolve to
    a callable, and running it as a launcher would must behave as the CLI.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "fedl" in scripts, "pyproject.toml declares no 'fedl' console script"
    module, _, attr = scripts["fedl"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr, None)), (
        f"console-script target {scripts['fedl']!r} is not a callable"
    )

    proc = _run_launcher(module, attr, "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage: fedl" in proc.stdout
    assert "ingest" in proc.stdout and "train" in proc.stdout

    proc = _run_launcher(module, attr)
    assert proc.returncode == 1
    assert "usage: fedl" in proc.stderr


@pytest.mark.skipif(shutil.which("fedl") is None, reason="fedl not installed")
def test_installed_console_script_runs():
    proc = subprocess.run(
        [shutil.which("fedl"), "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "ingest" in proc.stdout and "train" in proc.stdout
