import contextlib
import importlib
import io
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedl
from fedl.nn import Gradient
from fedl.cli import (
    DEFAULTS, OPTIONS, _read_traffic, _resolve, _write_traffic, build_parser, main,
)
from fedl.data import parse_stations, parse_transactions, synth_generate
from fedl.model_io import load_network
from fedl.sim import Direction, Payload, TrafficEntry, TrafficLog, TrainConfig


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


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    n_stations=st.integers(1, 12),
    n_records=st.integers(1, 40),
)
def test_synth_csv_reads_back_as_the_generated_corpus(seed, n_stations, n_records):
    with tempfile.TemporaryDirectory() as tmp:
        code, _, err = invoke(
            "synth", "--stations", n_stations, "--records", n_records,
            "--seed", seed, "--out", tmp,
        )
        assert code == 0, err
        with open(Path(tmp) / "transactions.csv", newline="") as f:
            records, rejects = parse_transactions(f)
        with open(Path(tmp) / "stations.csv", newline="") as f:
            stations = parse_stations(f)
    expected_records, expected_stations, _ = synth_generate(n_stations, n_records, seed)
    assert rejects == []
    assert records == expected_records
    assert stations == expected_stations


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


def test_zero_clusters_is_a_usage_error(tmp_path, corpus_dir):
    # rejected like --max-iterations 0, before any file is written, also by
    # a command that would not cluster or train, in every command that
    # declares the flag
    data = ("--transactions", corpus_dir / "transactions.csv")
    stations = ("--stations", corpus_dir / "stations.csv")
    for name, argv in {
        "cluster": ("cluster", *stations),
        "train": ("train", *data, *stations, "--clustering", "--epochs", 2),
        "sweep": ("evaluate", *data, *stations, "--sweep", "--epochs", 2),
        "train_unclustered": ("train", *data, "--epochs", 2),
        "sweep_unclustered": ("evaluate", *data, "--sweep", "--epochs", 2),
        "evaluate": ("evaluate", *data),
    }.items():
        out = tmp_path / name
        for bad in (
            ("--clusters", 0), ("--max-iterations", 0), ("--epochs", 0),
            ("--theta-low", -1), ("--theta-low", 5, "--theta-high", 2), ("--knn-k", 0),
        ):
            if argv[0] not in OPTIONS[bad[0][2:].replace("-", "_")][1]:
                continue  # a flag this command does not declare
            code, _, err = invoke(*argv, *bad, "--out", out)
            assert code == 1, (name, bad, err)
            assert err.startswith("fedl: error: "), err
            assert bad[0] != "--knn-k" or "--knn-k" in err, err  # not the kNN's own error
            assert not out.exists() or not any(out.iterdir()), name


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


def lonely_corpus(out: Path, n_lonely: int) -> tuple[Path, Path]:
    """Six stations near (56.46, -3.03) with 300 transactions, and a station
    S6 at (10, 10) with ``n_lonely`` transactions of 7 kWh each.  With two
    clusters of 1 to 6 stations, S6 is a cluster alone whose training labels
    are single-valued, which training reports as one SKIPPED line on stderr.
    Returns (transactions CSV, stations CSV)."""
    code, _, err = invoke(
        "synth", "--stations", 6, "--records", 300, "--seed", 0, "--out", out
    )
    assert code == 0, err
    with open(out / "stations.csv", "a") as f:
        f.write("S6,10.0,10.0\n")
    with open(out / "transactions.csv", "a") as f:
        f.writelines(f"S6,{i},2023-01-02,10:00,7.0\n" for i in range(1, n_lonely + 1))
    return out / "transactions.csv", out / "stations.csv"


LONELY = ("--clustering", "--clusters", 2, "--theta-low", 1, "--theta-high", 6)
SKIPPED = re.compile(r"fedl: warning: cluster \d (.+); skipping its model")
SINGLE_VALUED = "cannot be trained (labels are single-valued; standardization is undefined)"


@pytest.mark.parametrize("mode", ["central", "federated"])
def test_train_skips_a_cluster_with_single_valued_labels(tmp_path, mode):
    transactions, stations = lonely_corpus(tmp_path / "corpus", 1)
    out = tmp_path / "run"
    code, stdout, err = invoke(
        "train", "--transactions", transactions, "--stations", stations, *LONELY,
        "--mode", mode, "--epochs", 3, "--hidden", "6", "--seed", 0, "--out", out,
    )
    assert code == 0, err
    assert SKIPPED.fullmatch(err.rstrip("\n"))[1] == SINGLE_VALUED, err
    manifest = json.loads((out / "manifest.json").read_text())
    (lonely,) = [row for row in manifest["clusters"] if row["stations"] == 1]
    assert lonely["skipped"] and lonely["n_train"] == 1 and lonely["workers"] == 0
    assert not (out / f"model_cluster{lonely['cluster_id']}.fedl").exists()
    assert manifest["pooled_rmse_kwh"] > 0
    assert "(skipped)" in stdout


def test_sweep_skips_a_cluster_with_single_valued_labels(tmp_path):
    transactions, stations = lonely_corpus(tmp_path / "corpus", 1)
    code, _, err = invoke(
        "evaluate", "--transactions", transactions, "--stations", stations,
        "--sweep", "--clusters", 2, "--theta-low", 1, "--theta-high", 6,
        "--epochs", 2, "--hidden", "4", "--workers", 2, "--seed", 0,
        "--out", tmp_path / "sweep",
    )
    assert code == 0, err
    # the smaller training splits leave S6 no training records at all
    reasons = [SKIPPED.fullmatch(line)[1] for line in err.splitlines()]
    assert reasons == [SINGLE_VALUED, "has no training transactions"], err


def test_clustered_run_that_trains_no_cluster_exits_2(tmp_path):
    stations = tmp_path / "stations.csv"
    stations.write_text("station_id,latitude,longitude\nA,56.0,-3.0\nB,57.0,-2.0\n")
    transactions = tmp_path / "transactions.csv"
    transactions.write_text("station_id,transaction_id,date,time,energy_kwh\n" + "".join(
        f"{'AB'[i % 2]},{i},2023-01-02,10:00,5.0\n" for i in range(1, 9)
    ))
    data = ("--transactions", transactions, "--hidden", "4", "--epochs", 2)
    code, _, err = invoke("train", *data, "--out", tmp_path / "plain")
    assert code == 2, err
    out = tmp_path / "clustered"
    code, stdout, err = invoke(
        "train", *data, "--stations", stations, "--clustering", "--clusters", 2,
        "--out", out,
    )
    assert code == 2, err
    assert stdout == ""
    assert err.count("cannot be trained (labels are single-valued") == 2, err
    assert err.startswith("fedl: data error: no cluster can be trained: cluster 0 "), err
    assert not any(out.iterdir())


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


@pytest.mark.parametrize(
    "extra, where",
    [((), ""), (("--mode", "federated", "--workers", 2), " on worker 0")],
    ids=["central", "federated"],
)
def test_train_non_finite_gradient_exits_3(monkeypatch, tmp_path, corpus_dir, extra, where):
    # a gradient that turns non-finite behind a finite loss would leave the
    # last Adam step's parameters non-finite; the run stops before that step
    import fedl.sim

    backward = fedl.sim.backward

    def poisoned(network, tape, targets, workspace=None):
        g = backward(network, tape, targets, workspace=workspace)
        return Gradient(weights=(g.weights[0] * np.inf, *g.weights[1:]), biases=g.biases)

    monkeypatch.setattr(fedl.sim, "backward", poisoned)
    out = tmp_path / "run"
    code, _, err = invoke(
        "train", "--transactions", corpus_dir / "transactions.csv",
        *extra, *FAST, "--out", out,
    )
    assert code == 3
    assert err == f"fedl: numerical error: training gradient became non-finite at epoch 0{where}\n"
    assert not list(out.glob("model*.fedl"))


@pytest.mark.parametrize("step_size", ["nan", "inf"])
def test_train_non_finite_step_size_exits_1(tmp_path, corpus_dir, step_size):
    out = tmp_path / "run"
    code, _, err = invoke(
        "train", "--transactions", corpus_dir / "transactions.csv",
        *FAST, "--step-size", step_size, "--epochs", 1, "--out", out,
    )
    assert code == 1
    assert "step_size must be positive and finite" in err
    assert not list(out.glob("model*.fedl"))


@pytest.mark.parametrize(
    "extra",
    [(), ("--mode", "federated", "--workers", 2)],
    ids=["central", "federated-threads"],
)
def test_diverging_run_reports_only_the_error_line(tmp_path, corpus_dir, extra):
    # in a fresh interpreter, so numpy warnings would reach stderr; with one
    # BLAS thread the workers' steps may run on two threads wherever there
    # are two cores, and both must keep the step's error state
    proc = _run_launcher(
        "fedl.cli", "main", "train",
        "--transactions", str(corpus_dir / "transactions.csv"),
        "--step-size", "1e300", *map(str, extra), *map(str, FAST),
        "--out", str(tmp_path / "run"),
        env={"OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 3
    assert proc.stderr == (
        "fedl: numerical error: training loss became non-finite at epoch 1: inf\n"
    )


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


@pytest.mark.parametrize(
    "entry",
    [{"clustering": "false"}, {"include_transaction_id": "no"}, {"epochs": True},
     {"epochs": 2.7}, {"hidden": [64, 64]}, {"theta_low": [1, 1]},
     {"mode": "serial"}, {"ratio": None}],
    ids=lambda entry: json.dumps(entry),
)
def test_config_file_value_of_the_wrong_type_exits_1(tmp_path, corpus_dir, entry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    out = tmp_path / "run"
    code, _, err = invoke(
        "train", "--transactions", corpus_dir / "transactions.csv",
        "--stations", corpus_dir / "stations.csv", *FAST, "--config", cfg, "--out", out,
    )
    assert code == 1
    assert f"config key {next(iter(entry))!r} must be" in err
    assert not out.exists()


def test_config_file_values_take_their_flags_types(tmp_path, corpus_dir):
    # a JSON integer for a float option is the flag's float, so the file
    # and the flags spell one run; null stays the default of theta_low
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerance": 0, "ratio": 0.8, "clustering": False,
                               "theta_low": None}))
    data = ("train", "--transactions", corpus_dir / "transactions.csv")
    code_f, _, _ = invoke(*data, "--epochs", 4, "--hidden", "6", "--seed", 1,
                          "--config", cfg, "--out", tmp_path / "f")
    code_a, _, _ = invoke(*data, *FAST, "--out", tmp_path / "a")
    assert code_f == code_a == 0
    for name in ("manifest.json", "model.fedl"):
        assert (tmp_path / "f" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()


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


def test_evaluate_corrupt_model_exits_2(tmp_path, corpus_dir, trained_run):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    blob = bytearray((run / "model.fedl").read_bytes())
    blob[12:16] = (0).to_bytes(4, "little")  # the first layer's input width
    (run / "model.fedl").write_bytes(bytes(blob))
    code, _, err = invoke(
        "evaluate", "--transactions", corpus_dir / "transactions.csv",
        "--run-dir", run, "--out", tmp_path / "eval",
    )
    assert code == 2
    assert "data error: bad layer 0" in err


def _model_blob(*layers):
    """A version-1 model container of identity layers with zero parameters,
    one (input width, output width) pair per layer, chained or not."""
    blob = struct.pack("<4sII", b"FEDL", 1, len(layers))
    for in_w, out_w in layers:
        blob += struct.pack("<IIBBd", in_w, out_w, 0, 0, 0.0)
    for in_w, out_w in layers:
        blob += bytes(8 * (out_w * in_w + out_w))
    return blob


@pytest.mark.parametrize("corrupt", [
    lambda width: ((), "at least one layer"),
    lambda width: (((width, 8), (5, 1)), "chain mismatch: 8 -> 5"),
    lambda width: (((width + 1, 8), (8, 1)), f"maps {width + 1} inputs to 1 outputs"),
    lambda width: (((width, 8), (8, 2)), f"maps {width} inputs to 2 outputs"),
], ids=["no-layers", "widths-do-not-chain", "input-width-not-schema", "two-outputs"])
def test_evaluate_model_that_does_not_fit_its_schema_exits_2(
    tmp_path, corpus_dir, trained_run, corrupt
):
    # unchecked, a model with no layers scores the first encoded feature
    # column and exits 0, and the others exit 3 with a numerical error
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    layers, message = corrupt(load_network(run / "model.fedl").input_width)
    (run / "model.fedl").write_bytes(_model_blob(*layers))
    code, _, err = invoke(
        "evaluate", "--transactions", corpus_dir / "transactions.csv",
        "--run-dir", run, "--out", tmp_path / "eval",
    )
    assert code == 2, err
    (line,) = err.splitlines()
    assert line.startswith("fedl: data error:") and "model.fedl" in line
    assert message in line


@pytest.mark.parametrize("flag", ["--include-transaction-id", "--no-include-transaction-id"])
def test_evaluate_run_dir_rejects_transaction_id_flag(tmp_path, corpus_dir, trained_run, flag):
    # the run's manifest fixes its encoding, so the flag could only be ignored
    out = tmp_path / "eval"
    code, _, err = invoke(
        "evaluate", "--transactions", corpus_dir / "transactions.csv",
        "--run-dir", trained_run, flag, "--out", out,
    )
    assert code == 1
    assert f"takes no {flag}" in err
    assert not (out / "report.json").exists()


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


def test_evaluate_clustered_run_dir_with_a_skipped_cluster(tmp_path):
    # seed 2 puts four of S6's five records in the training split and one
    # in the test split
    transactions, stations = lonely_corpus(tmp_path / "corpus", 5)
    run = tmp_path / "run"
    code, _, err = invoke(
        "train", "--transactions", transactions, "--stations", stations, *LONELY,
        "--epochs", 3, "--hidden", "6", "--seed", 2, "--out", run,
    )
    assert code == 0, err
    assert SKIPPED.fullmatch(err.rstrip("\n"))[1] == SINGLE_VALUED, err
    manifest = json.loads((run / "manifest.json").read_text())
    out = tmp_path / "eval"
    code, _, err = invoke(
        "evaluate", "--transactions", transactions, "--run-dir", run, "--out", out
    )
    assert code == 0, err
    report = json.loads((out / "report.json").read_text())
    assert manifest["uncovered_test"] > 0
    assert report["uncovered_test"] == manifest["uncovered_test"]
    assert report["rmse_kwh"]["central_clustered"] == manifest["pooled_rmse_kwh"]


@pytest.fixture(scope="module")
def clustered_run(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("run") / "clustered"
    code, _, err = invoke(
        "train", "--transactions", corpus_dir / "transactions.csv",
        "--stations", corpus_dir / "stations.csv", "--clustering",
        "--clusters", 2, *FAST, "--out", out,
    )
    assert code == 0, err
    return out


def _drop_label_std(text):
    schema = json.loads(text)
    del schema["label_std"]
    return json.dumps(schema)


def _vocabulary_of_numbers(text):
    schema = json.loads(text)
    schema["station_vocabulary"] = [1, 2]
    return json.dumps(schema)


def _manifest_config(**values):
    def corrupt(text):
        manifest = json.loads(text)
        manifest["config"].update(values)
        return json.dumps(manifest)
    return corrupt


def _schema_values(**values):
    def corrupt(text):
        return json.dumps({**json.loads(text), **values})  # writes NaN, Infinity
    return corrupt


def _last_parameter_nan(text):
    # the model file as latin-1 text, one character per byte; its last
    # 8 bytes are the output layer's float64 bias
    return text[:-8] + struct.pack("<d", math.nan).decode("latin-1")


def _assignment_rows(*rows):
    return lambda text: "\n".join(["station_id,cluster_id", *rows]) + "\n"


@pytest.mark.parametrize("name, corrupt", [
    ("assignment.csv", lambda text: ""),
    ("assignment.csv", lambda text: text.replace("station_id,cluster_id", "a,b")),
    ("assignment.csv", _assignment_rows("S0")),
    ("assignment.csv", _assignment_rows("S0,0", "S1,x", "S2,1", "S3,1")),
    ("assignment.csv", _assignment_rows("S0,0", "S1,-1", "S2,1", "S3,1")),
    ("assignment.csv", _assignment_rows("S0,0", "S1,4", "S2,1", "S3,1")),
    ("assignment.csv", _assignment_rows("S0,0", "S0,1", "S2,1", "S3,1")),
    ("schema_cluster0.json", _drop_label_std),
    ("schema_cluster0.json", _vocabulary_of_numbers),
    ("schema_cluster0.json", lambda text: text.replace("false", "0").replace("true", "1")),
    ("schema_cluster0.json", lambda text: text[:-3]),
    ("schema_cluster0.json", _schema_values(label_std=math.nan)),
    ("schema_cluster0.json", _schema_values(label_mean=math.inf)),
    ("schema_cluster0.json", _schema_values(label_std=0)),
    ("schema_cluster0.json", _schema_values(label_std=-1.5)),
    ("schema_cluster0.json", _schema_values(txn_min=10, txn_max=9)),
    ("model_cluster0.fedl", _last_parameter_nan),
    ("manifest.json", lambda text: "[]"),
    ("manifest.json", lambda text: json.dumps({**json.loads(text), "config": []})),
    ("manifest.json", _manifest_config(ratio="abc")),
    ("manifest.json", _manifest_config(include_transaction_id="no")),
    ("manifest.json", _manifest_config(seed=1.5)),
], ids=[
    "empty-assignment", "assignment-header", "one-field-row", "non-integer-cluster",
    "negative-cluster", "cluster-past-row-count", "duplicate-station",
    "schema-lacks-key", "schema-vocabulary-of-numbers", "schema-flag-not-bool",
    "schema-not-json", "schema-std-nan", "schema-mean-infinite", "schema-std-zero",
    "schema-std-negative", "schema-id-range-inverted", "model-parameter-nan",
    "manifest-list", "manifest-config-list",
    "manifest-ratio-string", "manifest-flag-string", "manifest-seed-float",
])
def test_evaluate_corrupt_run_dir_file_exits_2(tmp_path, corpus_dir, clustered_run, name, corrupt):
    run = tmp_path / "run"
    shutil.copytree(clustered_run, run)
    path = run / name
    # latin-1 maps each byte to one character and back, so binary files pass too
    path.write_bytes(corrupt(path.read_bytes().decode("latin-1")).encode("latin-1"))
    code, _, err = invoke(
        "evaluate", "--transactions", corpus_dir / "transactions.csv",
        "--run-dir", run, "--out", tmp_path / "eval",
    )
    assert code == 2, err
    (line,) = err.splitlines()
    assert line.startswith("fedl: data error:") and name in line


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


traffic_entries = st.builds(
    TrafficEntry,
    epoch=st.integers(0, 2**64),
    direction=st.sampled_from(Direction),
    payload=st.sampled_from(Payload),
    n_bytes=st.integers(1, 2**64),
)


@settings(max_examples=50, deadline=None)
@given(entries=st.lists(traffic_entries, max_size=30))
def test_traffic_csv_reads_back_as_the_written_log(entries):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traffic.csv"
        _write_traffic(path, TrafficLog(entries))
        assert _read_traffic(path).entries == tuple(entries)


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
        # a command with no config-backed flag takes no --config either
        assert ("config" in vars(args)) == bool(flags), command
        if not flags:
            continue
        assert flags == set(_resolve(args, command)), command
        # only the commands that draw random numbers take a seed
        assert ("seed" in flags) == (
            command in ("synth", "cluster", "train", "evaluate")
        ), command
        # evaluate's sweep trains both modes and a run dir carries its own
        assert ("mode" in flags) == (command == "train"), command


def test_evaluate_rejects_mode_and_sweep_ratio(tmp_path, corpus_dir):
    data = ("evaluate", "--transactions", corpus_dir / "transactions.csv")
    code, _, err = invoke(*data, "--mode", "central", "--out", tmp_path / "m")
    assert code == 1
    assert "unrecognized arguments: --mode" in err
    code, _, err = invoke(*data, "--sweep", "--ratio", 0.3, "--out", tmp_path / "s")
    assert code == 1
    assert "takes no --ratio" in err
    assert not (tmp_path / "s" / "sweep.csv").exists()
    # a config file's ratio is ignored, as for any key a command does not
    # use, and the sweep's manifest does not record it
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"ratio": 0.3}), encoding="utf-8")
    code, _, _ = invoke(*data, "--sweep", "--config", conf, "--epochs", 2,
                        "--out", tmp_path / "c")
    assert code == 0
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert "ratio" not in manifest["config"]


def test_evaluate_sweep_rejects_a_run_dir(tmp_path, corpus_dir):
    out = tmp_path / "s"
    code, _, err = invoke(
        "evaluate", "--transactions", corpus_dir / "transactions.csv", "--sweep",
        "--run-dir", tmp_path / "nonexistent", "--out", out,
    )
    assert code == 1
    assert "takes no --run-dir" in err
    assert not out.exists()


# The checkout's `src` directory, which holds the imported `fedl` package.
SRC = Path(fedl.__file__).resolve().parents[1]


def _run_launcher(module, attr, *argv, env=()):
    """Call `module:attr` the way an installer's console-script launcher does,
    with the checkout's `src` first on the import path and ``env`` added to
    the environment."""
    pythonpath = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, **dict(env), "PYTHONPATH": os.pathsep.join(pythonpath)}
    code = (
        f"import sys; from {module} import {attr}; "
        f"sys.argv[0] = 'fedl'; sys.exit({attr}())"
    )
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=60, env=env, cwd=SRC.parent,
    )


def test_ingest_leaves_numpy_ma_unimported(tmp_path, corpus_dir):
    # np.unique's first call imports numpy.ma, which every command would pay
    # for at start-up; the clustering commands take distinct rows without it
    code = (
        "import sys; from fedl.cli import main; code = main(); "
        "print('numpy.ma' in sys.modules); sys.exit(code)"
    )
    pythonpath = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    data = ("--transactions", str(corpus_dir / "transactions.csv"))
    stations = ("--stations", str(corpus_dir / "stations.csv"))
    for name, argv in {
        "ingest": ("ingest", *data),
        "cluster": ("cluster", *stations, "--clusters", "2"),
        "train": ("train", *data, *stations, "--clustering", "--clusters", "2",
                  "--epochs", "2"),
    }.items():
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv, "--out", str(tmp_path / name)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, (name, proc.stderr)
        assert proc.stdout.splitlines()[-1] == "False", name


def test_readme_configuration_table_lists_each_commands_keys():
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| Command | Keys |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    documented: dict[str, set] = {}
    for row in table.splitlines():
        commands, keys = row.strip("|").split("|")
        for command in re.findall(r"`(\w+)`", commands):
            documented.setdefault(command, set()).update(re.findall(r"\w+", keys))
    declared: dict[str, set] = {}
    for key, (_, commands, _) in OPTIONS.items():
        for command in commands:
            declared.setdefault(command, set()).add(key)
    assert documented == declared


def test_every_training_knob_is_a_cli_option():
    # hidden_layers is the `hidden` option, parsed from its comma list
    assert {f.name for f in fields(TrainConfig)} - {"hidden_layers"} <= set(OPTIONS)


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
