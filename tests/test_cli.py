import ast
import contextlib
import csv
import importlib
import inspect
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
from fedl import cli
from fedl.nn import Gradient
from fedl.cli import (
    DEFAULTS, OPTIONS, _read_traffic, _resolve, _write_traffic, build_parser, main,
)
from fedl.data import (
    STATIONS_HEADER, EncodingSchema, build_schema, encode_features, parse_stations,
    parse_transactions, partition_workers, synth_generate,
)
from fedl.errors import DataFormatError
from fedl.model_io import load_network
from fedl.sim import (
    Direction, Payload, TrafficEntry, TrafficLog, TrainConfig, run_centralized, run_federated,
)


def invoke(*argv):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as e:  # argparse exits directly on parse errors
            code = int(e.code or 0)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module", autouse=True)
def train_manifests_conform():
    """Every manifest `fedl train` writes in this module has each
    RUN_MANIFEST key with its type, as `evaluate --run-dir` reads it."""
    write = cli._manifest

    def conforming(out, command, cfg, extra):
        manifest = write(out, command, cfg, extra)
        if command == "train":
            try:
                cli._read_manifest(out)
            except DataFormatError as e:
                raise AssertionError(f"train wrote a manifest evaluate rejects: {e}") from None
        return manifest

    cli._manifest = conforming
    yield
    cli._manifest = write


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


@pytest.mark.parametrize("noise", ["nan", "inf", "-inf", "-1"])
def test_synth_rejects_noise_that_is_not_finite_and_nonnegative(tmp_path, noise):
    # nan wrote all-zero energies and inf wrote inf ones, both exiting 0
    out = tmp_path / "x"
    code, stdout, err = invoke(
        "synth", "--stations", 2, "--records", 5, f"--noise={noise}", "--out", out
    )
    assert (code, stdout) == (1, "")
    assert err.splitlines() == [f"fedl: error: --noise must be finite and >= 0, got {float(noise)}"]
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["synth", "cluster", "train", "evaluate", "sweep"])
def test_negative_seed_is_a_usage_error(tmp_path, corpus_dir, command, source):
    # it used to exit 1 with numpy's "expected non-negative integer", and
    # train had made its --out directory by then
    data = ("--transactions", corpus_dir / "transactions.csv")
    argv = {
        "synth": ("synth", "--stations", 2, "--records", 5),
        "cluster": ("cluster", "--stations", corpus_dir / "stations.csv"),
        "train": ("train", *data),
        "evaluate": ("evaluate", *data),
        "sweep": ("sweep", *data),
    }[command]
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"seed": -3}), encoding="utf-8")
    seed = ("--seed=-3",) if source == "flag" else ("--config", conf)
    out = tmp_path / "out"
    code, stdout, err = invoke(*argv, *seed, "--out", out)
    assert (code, stdout) == (1, "")
    assert err.splitlines() == ["fedl: error: --seed must be >= 0, got -3"]
    assert not out.exists()


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


def test_a_directory_given_as_an_input_exits_1(tmp_path):
    code, _, err = invoke("ingest", "--transactions", tmp_path, "--out", tmp_path / "o")
    assert code == 1
    assert err.splitlines() == [f"fedl: error: expected a file, got a directory: {tmp_path}"]


@pytest.mark.parametrize("name", ["transactions.csv", "stations.csv", "conf.json"])
def test_a_leading_byte_order_mark_is_ignored(monkeypatch, tmp_path, corpus_dir, name):
    # each used to exit 2 (a CSV's header) or 1 (a config file's JSON)
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    for root in (plain, marked):
        shutil.copytree(corpus_dir, root)
        (root / "conf.json").write_text(json.dumps({"epochs": 2, "hidden": "5", "seed": 1}))
    (marked / name).write_bytes(b"\xef\xbb\xbf" + (plain / name).read_bytes())
    argv = {
        "transactions.csv": ("ingest", "--transactions", "transactions.csv"),
        "stations.csv": ("cluster", "--stations", "stations.csv"),
        "conf.json": ("train", "--transactions", "transactions.csv", "--config", "conf.json"),
    }[name]
    outputs = []
    for root in (plain, marked):
        monkeypatch.chdir(root)  # the same relative paths, which the manifests record
        code, stdout, err = invoke(*argv, "--out", "out")
        assert code == 0, err
        outputs.append((stdout, {p.name: p.read_bytes() for p in (root / "out").iterdir()}))
    assert outputs[0] == outputs[1]
    if name == "transactions.csv":
        read = [cli._read_input(root / name, parse_transactions) for root in (plain, marked)]
        assert list(read[0][0]) == list(read[1][0]) and read[0][1] == read[1][1] == []


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


@pytest.mark.parametrize("row, problem", [
    ("S9,1.0", "expected 3 fields"),
    (" ,1.0,2.0", "empty station_id"),
    ("S9,north,2.0", "coordinates not numeric"),
])
def test_a_bad_stations_row_exits_2_naming_its_line(tmp_path, corpus_dir, row, problem):
    stations = tmp_path / "stations.csv"
    stations.write_text((corpus_dir / "stations.csv").read_text() + row + "\n")
    code, _, err = invoke("cluster", "--stations", stations, "--out", tmp_path / "cl")
    assert code == 2
    assert err.splitlines() == [f"fedl: data error: {stations}: line 6: {problem}"]


def test_zero_clusters_is_a_usage_error(tmp_path, corpus_dir):
    # rejected like --max-iterations 0, before any file is written, also by
    # a command that would not cluster or train, in every command that
    # declares the flag
    data = ("--transactions", corpus_dir / "transactions.csv")
    stations = ("--stations", corpus_dir / "stations.csv")
    for name, argv in {
        "cluster": ("cluster", *stations),
        "train": ("train", *data, *stations, "--clustering", "--epochs", 2),
        "sweep": ("sweep", *data, *stations, "--epochs", 2),
        "train_unclustered": ("train", *data, "--epochs", 2),
        "sweep_unclustered": ("sweep", *data, "--epochs", 2),
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


def test_every_manifest_names_the_subcommand_that_wrote_it(tmp_path, corpus_dir):
    data = ("--transactions", corpus_dir / "transactions.csv")
    for argv in (
        ("synth", "--stations", 2, "--records", 20),
        ("cluster", "--stations", corpus_dir / "stations.csv", "--clusters", 2),
        ("train", *data, *FAST),
        ("sweep", *data, "--epochs", 2, "--hidden", "4"),
    ):
        out = tmp_path / argv[0]
        code, _, err = invoke(*argv, "--out", out)
        assert code == 0, err
        assert json.loads((out / "manifest.json").read_text())["command"] == argv[0]


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
    assert manifest["config"]["clustering"] is True
    assert "clustered" not in manifest  # config.clustering is its one record
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
        "sweep", "--transactions", transactions, "--stations", stations,
        "--clusters", 2, "--theta-low", 1, "--theta-high", 6,
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


@pytest.mark.parametrize("command, problem", [
    ("train", "no valid records to train on"),
    ("sweep", "no valid records to train on"),
    ("evaluate", "no valid records to evaluate on"),
])
def test_a_transactions_file_whose_every_row_is_rejected_exits_2(tmp_path, command, problem):
    transactions = tmp_path / "transactions.csv"
    transactions.write_text(
        "station_id,transaction_id,date,time,energy_kwh\nS1,x,2023-01-02,08:00,1.0\n"
    )
    out = tmp_path / "out"
    code, _, err = invoke(command, "--transactions", transactions, "--out", out)
    assert code == 2
    assert err.splitlines() == [f"fedl: data error: {problem}"]
    assert not list(out.glob("*.*"))


@pytest.mark.parametrize("tolerance", ["--tolerance=nan", "--tolerance=inf", "config NaN"])
def test_train_non_finite_tolerance_exits_1(tmp_path, corpus_dir, tolerance):
    # nan used to exit 0 and write "tolerance": NaN, which is not JSON, into
    # manifest.json; inf would have written Infinity
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"tolerance": math.nan}))
    given = ("--config", conf) if tolerance == "config NaN" else (tolerance,)
    out = tmp_path / "run"
    code, stdout, err = invoke("train", "--transactions", corpus_dir / "transactions.csv",
                               "--epochs", 1, *given, "--out", out)
    assert (code, stdout) == (1, "")
    assert err.splitlines() == [
        "fedl: error: tolerance must be finite and >= 0 (0 disables early stopping)"
    ]
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("hidden", ["a", "0", "64,,64", "", "8,-1", "\u0664"])
def test_hidden_widths_that_are_not_positive_integers_exit_1_naming_the_flag(
    tmp_path, corpus_dir, hidden, source
):
    # "a" named no flag, "0" named none either, and "64,,64" trained 64,64
    # while the manifest recorded "64,,64"
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"hidden": hidden}))
    given = (f"--hidden={hidden}",) if source == "flag" else ("--config", conf)
    out = tmp_path / "run"
    code, stdout, err = invoke("train", "--transactions", corpus_dir / "transactions.csv",
                               "--epochs", 1, *given, "--out", out)
    assert (code, stdout) == (1, "")
    assert err.splitlines() == [
        f"fedl: error: --hidden must be comma-separated integers >= 1, got {hidden!r}"
    ]
    assert not out.exists()


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


@pytest.fixture(scope="module")
def diverging_corpus(tmp_path_factory):
    """The 8-station corpus on which large step sizes blow the loss up."""
    out = tmp_path_factory.mktemp("diverging")
    code, _, err = invoke("synth", "--stations", 8, "--records", 1500, "--seed", 3, "--out", out)
    assert code == 0, err
    return out


@pytest.mark.parametrize(
    "step_size, loss",
    [(100, "2898730955.48096"), (1e6, "2.916269672385071e+17")],
)
def test_train_whose_loss_blows_up_exits_3(tmp_path, diverging_corpus, step_size, loss):
    # these runs used to exit 0 with test RMSEs of 1,829 and 18.4 million kWh
    out = tmp_path / "run"
    code, stdout, err = invoke(
        "train", "--transactions", diverging_corpus / "transactions.csv", "--mode", "central",
        "--epochs", 40, "--seed", 3, "--step-size", step_size, "--out", out,
    )
    assert (code, stdout) == (3, "")
    assert err.splitlines() == [
        f"fedl: numerical error: training diverged at epoch 1: loss {loss} is more "
        "than 100 times epoch 0's 1294.9558087041362"
    ]
    assert not (out / "manifest.json").exists()
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
        params = g.params.copy()
        params[: g.weights[0].size] *= np.inf  # the first layer's weights
        return Gradient(g.specs, params)

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


@pytest.mark.parametrize("content", [None, b"\xb8", b'{"epochs": 3', b"[3]"],
                         ids=["missing", "not-utf8", "not-json", "not-object"])
def test_config_file_that_is_not_a_json_object_exits_1_naming_it(tmp_path, corpus_dir, content):
    # a file that was not UTF-8 used to exit 1 with a decoder message that
    # named no file
    cfg = tmp_path / "bad.json"
    if content is not None:
        cfg.write_bytes(content)
    out = tmp_path / "run"
    code, _, err = invoke("train", "--transactions", corpus_dir / "transactions.csv",
                          "--config", cfg, "--out", out)
    assert code == 1
    (line,) = err.splitlines()
    assert line.startswith("fedl: error: ") and str(cfg) in line, line
    assert not out.exists()


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


@pytest.fixture(scope="module")
def split_repro(tmp_path_factory):
    """A central run at ratio 0.8 on a 300-record corpus: (transactions, run)."""
    root = tmp_path_factory.mktemp("split_repro")
    code, _, err = invoke("synth", "--stations", 4, "--records", 300, "--seed", 2,
                          "--out", root / "corpus")
    assert code == 0, err
    transactions = root / "corpus" / "transactions.csv"
    code, _, err = invoke("train", "--transactions", transactions, "--mode", "central",
                          "--ratio", 0.8, "--epochs", 3, "--out", root / "run")
    assert code == 0, err
    return transactions, root / "run"


@pytest.mark.parametrize("flag, value", [("--ratio", 0.2), ("--seed", 9)])
def test_evaluate_run_dir_rejects_ratio_and_seed(tmp_path, split_repro, flag, value):
    # --ratio 0.2 used to exit 0 and score on a test split of 240 records,
    # about 180 of which the model was trained on
    transactions, run = split_repro
    out = tmp_path / "eval"
    code, _, err = invoke("evaluate", "--transactions", transactions, "--run-dir", run,
                          flag, value, "--out", out)
    assert code == 1
    assert f"takes no {flag}" in err
    assert not out.exists()


@pytest.mark.parametrize("entry", [{"ratio": 0.2}, {"seed": 9}, {"include_transaction_id": False}])
def test_evaluate_run_dir_ignores_the_split_in_a_config_file(tmp_path, split_repro, entry):
    transactions, run = split_repro
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(entry), encoding="utf-8")
    reports = []
    for name, extra in (("plain", ()), ("config", ("--config", conf))):
        code, _, err = invoke("evaluate", "--transactions", transactions, "--run-dir", run,
                              *extra, "--out", tmp_path / name)
        assert code == 0, err
        reports.append((tmp_path / name / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["n_test"] == 60


def _not_utf8(path):
    """Replace the last character of the file at ``path`` by a byte that
    begins no UTF-8 sequence."""
    blob = path.read_bytes().rstrip(b"\n")
    path.write_bytes(blob[:-1] + b"\xff\n")


@pytest.mark.parametrize("name", ["transactions.csv", "stations.csv", "assignment.csv"])
def test_input_that_is_not_utf8_exits_2_naming_the_file(tmp_path, corpus_dir, clustered_run, name):
    # each used to exit 1 with a decoder message that named no file
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    shutil.copytree(clustered_run, tmp_path / "run")
    transactions = tmp_path / "corpus" / "transactions.csv"
    argv, path = {
        "transactions.csv": (("ingest", "--transactions", transactions), transactions),
        "stations.csv": (("cluster", "--stations", tmp_path / "corpus" / "stations.csv"),
                         tmp_path / "corpus" / "stations.csv"),
        "assignment.csv": (("evaluate", "--transactions", transactions,
                            "--run-dir", tmp_path / "run"), tmp_path / "run" / "assignment.csv"),
    }[name]
    _not_utf8(path)
    code, _, err = invoke(*argv, "--out", tmp_path / "out")
    assert code == 2, err
    (line,) = [line for line in err.splitlines() if line.startswith("fedl:")]
    assert line.startswith("fedl: data error:") and name in line, line


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


def test_evaluate_reads_a_manifest_that_also_records_clustered(
    tmp_path, corpus_dir, clustered_run
):
    # older runs hold a top-level "clustered" beside config.clustering;
    # evaluate reads only the latter, so either value scores the same
    reports = []
    for clustered in (None, True, False):
        run = tmp_path / f"run_{clustered}"
        shutil.copytree(clustered_run, run)
        manifest = json.loads((run / "manifest.json").read_text())
        assert "clustered" not in manifest
        if clustered is not None:
            manifest["clustered"] = clustered
        (run / "manifest.json").write_text(json.dumps(manifest))
        code, _, err = invoke("evaluate", "--transactions", corpus_dir / "transactions.csv",
                              "--run-dir", run, "--out", tmp_path / f"eval_{clustered}")
        assert code == 0, err
        reports.append((tmp_path / f"eval_{clustered}" / "report.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]
    assert "central_clustered" in json.loads(reports[0])["rmse_kwh"]


def _drop_label_std(text):
    schema = json.loads(text)
    del schema["label_std"]
    return json.dumps(schema)


def _vocabulary_of_numbers(text):
    schema = json.loads(text)
    schema["station_vocabulary"] = [1, 2]
    return json.dumps(schema)


def _vocabulary(change):
    def corrupt(text):
        schema = json.loads(text)
        assert len(schema["station_vocabulary"]) > 1
        schema["station_vocabulary"] = change(schema["station_vocabulary"])
        return json.dumps(schema)
    return corrupt


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


def _manifest_values(**values):
    def corrupt(text):
        return json.dumps({**json.loads(text), **values})
    return corrupt


def _cluster_row(**values):
    # cluster 0's row of the manifest's clusters; None deletes the key
    def corrupt(text):
        manifest = json.loads(text)
        row = manifest["clusters"][0]
        row.update(values)
        for key in [k for k, v in values.items() if v is None]:
            del row[key]
        return json.dumps(manifest)
    return corrupt


def _assignment_rows(*rows):
    return lambda text: "\n".join(["station_id,cluster_id", *rows]) + "\n"


def _reassign_first_station(text):
    header, first, *rest = text.splitlines()
    station, cluster = first.split(",")
    return "\n".join([header, f"{station},{1 - int(cluster)}", *rest]) + "\n"


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
    ("manifest.json", _manifest_values(config=[])),
    ("manifest.json", _manifest_config(ratio="abc")),
    ("manifest.json", _manifest_config(include_transaction_id="no")),
    ("manifest.json", _manifest_config(seed=1.5)),
    ("manifest.json", _manifest_config(mode="banana")),
    ("manifest.json", _manifest_config(clustering="false")),
    ("manifest.json", _cluster_row(skipped="false")),
    ("manifest.json", _cluster_row(skipped=None)),
    ("manifest.json", _manifest_values(clusters={})),
    ("manifest.json", _manifest_values(outputs="traffic.csv")),
    ("manifest.json", _manifest_values(outputs=["traffic.csv", 7])),
    ("manifest.json", _manifest_values(total_bytes="0")),
    ("traffic.csv", lambda text: "".join(text.splitlines(keepends=True)[:-1])),
    ("schema_cluster0.json", _vocabulary(lambda vocab: vocab[::-1])),
    ("schema_cluster0.json", _vocabulary(lambda vocab: vocab[:1] + vocab)),
    ("assignment.csv", lambda text: "".join(text.splitlines(keepends=True)[:-1])),
    ("assignment.csv", _reassign_first_station),
    ("schema_cluster0.json", _vocabulary(lambda vocab: [*vocab[:-1], vocab[-1] + "x"])),
    ("schema_cluster0.json", _vocabulary(lambda vocab: vocab[:-1])),
    ("manifest.json", _manifest_values(total_bytes=1)),
    ("manifest.json", lambda text: text.replace('"traffic.csv"', '"traffic.csv", "x.csv"')),
], ids=[
    "empty-assignment", "assignment-header", "one-field-row", "non-integer-cluster",
    "negative-cluster", "cluster-past-row-count", "duplicate-station",
    "schema-lacks-key", "schema-vocabulary-of-numbers", "schema-flag-not-bool",
    "schema-not-json", "schema-std-nan", "schema-mean-infinite", "schema-std-zero",
    "schema-std-negative", "schema-id-range-inverted", "model-parameter-nan",
    "manifest-list", "manifest-config-list",
    "manifest-ratio-string", "manifest-flag-string", "manifest-seed-float",
    "manifest-mode-unknown", "manifest-clustered-string",
    "manifest-skipped-string", "manifest-skipped-missing", "manifest-clusters-object",
    "manifest-outputs-string", "manifest-output-number", "manifest-total-bytes-string",
    "traffic-row-dropped",
    "schema-vocabulary-reversed", "schema-vocabulary-duplicate",
    # the last six used to name only the other file of a disagreeing pair, or none
    "assignment-lacks-a-station", "assignment-moves-a-station", "schema-lacks-a-station",
    "schema-narrower-than-model", "manifest-total-bytes", "manifest-lists-a-missing-file",
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


@pytest.mark.parametrize("key, value, problem", [
    ("ratio", 5.0, "config.ratio must be in (0, 1), got 5.0"),
    ("seed", -3, "config.seed must be >= 0, got -3"),
])
def test_evaluate_manifest_split_out_of_range_exits_2(
    tmp_path, corpus_dir, trained_run, key, value, problem
):
    # ratio 5.0 used to exit 1 naming --ratio, a flag --run-dir rejects, and
    # seed -3 to exit 1 with numpy's "expected non-negative integer"
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    path = run / "manifest.json"
    path.write_text(_manifest_config(**{key: value})(path.read_text()))
    code, _, err = invoke("evaluate", "--transactions", corpus_dir / "transactions.csv",
                          "--run-dir", run, "--out", tmp_path / "eval")
    assert code == 2
    assert err.splitlines() == [f"fedl: data error: {path}: {problem}"]


def _wrong_header(blob):
    return b"a,b\n" + blob[blob.index(b"\n") + 1:]


@pytest.mark.parametrize("name, corrupt", [
    (name, corrupt)
    for name in ("transactions.csv", "stations.csv", "assignment.csv", "traffic.csv")
    for corrupt in (_wrong_header, lambda blob: blob + b"\xb8")
] + [
    (name, corrupt)
    for name in ("schema_cluster0.json", "manifest.json")
    for corrupt in (lambda blob: blob[:-3], lambda blob: b"[]", lambda blob: blob + b"\xb8")
], ids=[
    f"{name}-{how}"
    for name in ("transactions", "stations", "assignment", "traffic")
    for how in ("header", "not-utf8")
] + [
    f"{name}-{how}" for name in ("schema", "manifest") for how in ("not-json", "list", "not-utf8")
])
def test_an_input_file_error_is_one_line_that_begins_with_its_path(
    tmp_path, corpus_dir, clustered_run, name, corrupt
):
    # one reader opens every input file and names it, whatever is wrong
    shutil.copytree(corpus_dir, tmp_path / "corpus")
    shutil.copytree(clustered_run, tmp_path / "run")
    transactions = tmp_path / "corpus" / "transactions.csv"
    path = tmp_path / ("corpus" if name in ("transactions.csv", "stations.csv") else "run") / name
    argv = {
        "transactions.csv": ("ingest", "--transactions", path),
        "stations.csv": ("cluster", "--stations", path),
    }.get(name, ("evaluate", "--transactions", transactions, "--run-dir", tmp_path / "run"))
    path.write_bytes(corrupt(path.read_bytes()))
    code, _, err = invoke(*argv, "--out", tmp_path / "out")
    assert code == 2, err
    (line,) = err.splitlines()
    assert line.startswith(f"fedl: data error: {path}: "), line


def test_a_row_is_numbered_by_the_line_it_ends_on(tmp_path):
    # a quoted field over lines 2 and 3 used to put the row on line 5 at 4
    transactions = tmp_path / "transactions.csv"
    transactions.write_text(
        "station_id,transaction_id,date,time,energy_kwh\n"
        '"S\n1",1,2023-01-02,08:00,1.0\n'
        "S2,2,2023-01-02,09:00,2.0\n"
        "S2,x,2023-01-02,10:00,3.0\n"
    )
    code, _, err = invoke("ingest", "--transactions", transactions, "--out", tmp_path / "in")
    assert code == 0, err
    rejects = (tmp_path / "in" / "rejects.csv").read_text().splitlines()
    assert rejects == ["line_number,reason", "5,transaction_id not an integer: 'x'"]
    stations = tmp_path / "stations.csv"
    stations.write_text('station_id,latitude,longitude\n"A\nB",1.0,2.0\nC,3.0,4.0\nD,999,0\n')
    code, _, err = invoke("cluster", "--stations", stations, "--out", tmp_path / "cl")
    assert code == 2
    assert err.splitlines() == [
        f"fedl: data error: {stations}: line 5: coordinates out of range (999.0, 0.0)"
    ]


# --------------------------------------------------------------- corrupt files, by property

_HOWS = ("truncate", "overwrite", "insert", "delete-line", "duplicate-line")
_TOKENS = (b"NaN", b"1e309", b"null", b'"', b",", b"-1", b"\n")


def _mutated(blob: bytes, how: str, at: int, token: bytes, byte: int) -> bytes:
    """``blob`` with one change, at the offset or line that ``at`` picks."""
    i = at % (len(blob) + 1)
    lines = blob.splitlines(keepends=True) or [b""]
    line = at % len(lines)
    return {
        "truncate": lambda: blob[:i],
        "overwrite": lambda: blob[:i] + bytes([byte]) + blob[i + 1:],
        "insert": lambda: blob[:i] + token + blob[i:],
        "delete-line": lambda: b"".join(lines[:line] + lines[line + 1:]),
        "duplicate-line": lambda: b"".join(lines[:line + 1] + lines[line:]),
    }[how]()


# Every file the property test corrupts, as (where it lies, its name, the
# command that reads it): each file a plain and a clustered run write, each
# input CSV and a config file.
_CORRUPTIBLE = [
    ("plain", name, "evaluate") for name in (cli.MANIFEST, cli.TRAFFIC, *cli._model_files(None))
] + [
    ("clustered", name, "evaluate")
    for name in (cli.MANIFEST, cli.TRAFFIC, cli.ASSIGNMENT,
                 *cli._model_files(0), *cli._model_files(1))
] + [
    ("corpus", "transactions.csv", "ingest"), ("corpus", "transactions.csv", "train"),
    ("corpus", "stations.csv", "cluster"), ("plain", cli.TRAFFIC, "report"),
    ("config", "conf.json", "config"),
]
# The exits README allows for a corrupt file that the command reads: a run
# directory's file or a traffic log exits 0 or 2; a transactions file that
# trains, or a stations file, may also exit 3; a config file exits 0 or 1.
_ALLOWED = {"evaluate": {0, 2}, "ingest": {0, 2}, "train": {0, 2, 3}, "cluster": {0, 2, 3},
            "report": {0, 2}, "config": {0, 1}}


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(_CORRUPTIBLE), how=st.sampled_from(_HOWS),
       at=st.integers(0, 2**20), token=st.sampled_from(_TOKENS), byte=st.integers(0, 255))
def test_a_corrupt_file_exits_as_readme_allows(
    corpus_dir, federated_run, clustered_run, case, how, at, token, byte
):
    where, name, command = case
    transactions = corpus_dir / "transactions.csv"
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / where
        if where == "config":
            copy.mkdir()
            (copy / name).write_text(json.dumps({"ratio": 0.7, "seed": 4, "knn_k": 3}))
        else:
            source = {"plain": federated_run, "clustered": clustered_run, "corpus": corpus_dir}
            shutil.copytree(source[where], copy)
        if where in ("plain", "clustered"):  # every file the run wrote is a case
            assert {p.name for p in copy.iterdir()} == {n for w, n, _ in _CORRUPTIBLE if w == where}
        path = copy / name
        path.write_bytes(_mutated(path.read_bytes(), how, at, token, byte))
        argv = {
            "evaluate": ("evaluate", "--transactions", transactions, "--run-dir", copy),
            "ingest": ("ingest", "--transactions", path),
            "train": ("train", "--transactions", path, *FAST),
            "cluster": ("cluster", "--stations", path),
            "report": ("report", f"base={federated_run / cli.TRAFFIC}", f"corrupt={path}",
                       "--baseline", "base"),
            "config": ("evaluate", "--transactions", transactions, "--config", path),
        }[command]
        code, _, err = invoke(*argv, "--out", Path(tmp) / "out")
    assert code in _ALLOWED[command], err
    if code:
        (line,) = [line for line in err.splitlines() if line.startswith("fedl:")]
        if code == 2 and where in ("plain", "clustered"):
            assert str(path) in line, line


@pytest.fixture(scope="module")
def two_cluster_run(tmp_path_factory):
    """An 8-station corpus and a central run of two clusters that both train
    and both score test records: the run scores with every file in place."""
    root = tmp_path_factory.mktemp("two_clusters")
    corpus, run = root / "corpus", root / "run"
    code, _, err = invoke(
        "synth", "--stations", 8, "--records", 1500, "--seed", 3, "--out", corpus
    )
    assert code == 0, err
    code, _, err = invoke(
        "train", "--transactions", corpus / "transactions.csv",
        "--stations", corpus / "stations.csv", "--clustering", "--clusters", 2,
        "--mode", "central", "--epochs", 5, "--seed", 3, "--out", run,
    )
    assert code == 0, err
    manifest = json.loads((run / "manifest.json").read_text())
    assert [row["skipped"] for row in manifest["clusters"]] == [False, False]
    assert "traffic.csv" in manifest["outputs"]
    code, _, err = invoke(
        "evaluate", "--transactions", corpus / "transactions.csv",
        "--run-dir", run, "--out", root / "eval",
    )
    assert code == 0, err
    report = json.loads((root / "eval" / "report.json").read_text())
    assert report["uncovered_test"] == 0 and report["total_bytes"]["central_clustered"] > 0
    return corpus, run


@pytest.mark.parametrize("name", [
    "model_cluster1.fedl", "schema_cluster0.json", "traffic.csv", "assignment.csv",
    "metrics_cluster0.csv",
])
def test_evaluate_run_dir_missing_a_file_it_wrote_exits_2(tmp_path, two_cluster_run, name):
    # a trained cluster whose model was missing used to count as skipped
    # (exit 0, its test records uncovered), a missing traffic.csv as zero
    # bytes, and a missing metrics file went unnoticed
    corpus, trained = two_cluster_run
    run = tmp_path / "run"
    shutil.copytree(trained, run)
    (run / name).unlink()
    code, _, err = invoke(
        "evaluate", "--transactions", corpus / "transactions.csv",
        "--run-dir", run, "--out", tmp_path / "eval",
    )
    assert code == 2, err
    (line,) = err.splitlines()
    assert line.startswith("fedl: data error:") and name in line
    assert not (tmp_path / "eval" / "report.json").exists()


@pytest.fixture(scope="module")
def federated_run(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("federated_run")
    code, _, err = invoke(
        "train", "--transactions", corpus_dir / "transactions.csv",
        "--mode", "federated", "--workers", 2, *FAST, "--out", out,
    )
    assert code == 0, err
    return out


def _key_paths(table, prefix=()):
    """(path, declared type) of every key of a RUN_MANIFEST-shaped table, a
    key of a list of objects reached through the list's first item."""
    for key, kind in table.items():
        yield (*prefix, key), kind
        if isinstance(kind, list) and isinstance(kind[0], dict):
            yield from _key_paths(kind[0], (*prefix, key, 0))
        elif isinstance(kind, dict):
            yield from _key_paths(kind, (*prefix, key))


@pytest.mark.parametrize("run, path, kind", [
    pytest.param(run, path, kind, id=f"{run}-{'.'.join(map(str, path))}")
    for run in ("federated_run", "clustered_run")
    for path, kind in _key_paths(cli.RUN_MANIFEST)
    if run == "clustered_run" or path[0] != "clusters"  # a plain run has none
])
@pytest.mark.parametrize("tamper", ["delete", "retype"])
def test_evaluate_tampered_manifest_exits_2(tmp_path, corpus_dir, request, run, path, kind, tamper):
    # a federated run whose manifest lost config.mode and the clustering
    # record was scored as central and exited 0
    trained = request.getfixturevalue(run)
    target = tmp_path / "run"
    shutil.copytree(trained, target)
    manifest = json.loads((target / "manifest.json").read_text())
    *parents, key = path
    holder = manifest
    for parent in parents:
        holder = holder[parent]
    if tamper == "delete":
        del holder[key]
    else:
        holder[key] = "1.5" if kind is float else 1.5
    (target / "manifest.json").write_text(json.dumps(manifest))
    code, _, err = invoke(
        "evaluate", "--transactions", corpus_dir / "transactions.csv",
        "--run-dir", target, "--out", tmp_path / "eval",
    )
    assert code == 2, err
    (line,) = err.splitlines()
    assert line.startswith("fedl: data error:") and "manifest.json" in line


def _csv_header(path):
    with open(path, newline="") as f:
        return tuple(next(csv.reader(f)))


def _fitted(mode, include_id):
    """(schema, model, reports, traffic) of a small run in ``mode``."""
    records, _, _ = synth_generate(4, 80, seed=2)
    schema = build_schema(records, include_id)
    X, y = encode_features(records, schema)
    config = TrainConfig(epochs=2, hidden_layers=(3,), seed=1)
    if mode == "federated":
        return schema, *run_federated(X, y, partition_workers(records, 2), config)
    return schema, *run_centralized(X, y, config)


def _schema_case(include_id):
    def case(tmp_path):
        schema, model, reports, _ = _fitted("central", include_id)
        cli._write_model(tmp_path, None, model, schema, reports)
        path = tmp_path / "schema.json"
        on_disk = tuple(sorted(json.loads(path.read_text())))
        assert on_disk == tuple(sorted(f.name for f in fields(EncodingSchema)))
        read = cli._read_input(path, lambda f: EncodingSchema.from_dict(cli._json_object(f)))
        return on_disk, tuple(sorted(EncodingSchema.JSON_TYPES)), schema, read
    return case


def _traffic_case(mode):
    def case(tmp_path):
        traffic = _fitted(mode, True)[-1]
        path = tmp_path / "traffic.csv"
        _write_traffic(path, traffic)
        return _csv_header(path), TrafficLog.HEADER, traffic.entries, _read_traffic(path).entries
    return case


def _assignment_case(tmp_path):
    _, stations, _ = synth_generate(5, 1, seed=4)
    labels = np.array([1, 0, 1, 2, 0])
    cli._write_assignment(tmp_path, stations, labels)
    path = tmp_path / "assignment.csv"
    written = {s.station_id: int(c) for s, c in zip(stations, labels)}
    return _csv_header(path), cli.ASSIGNMENT_HEADER, written, cli._read_assignment(path)


def _stations_case(tmp_path):
    code, _, err = invoke("synth", "--stations", 5, "--records", 20, "--seed", 4,
                          "--out", tmp_path)
    assert code == 0, err
    path = tmp_path / "stations.csv"
    with open(path, newline="") as f:
        read = parse_stations(f)
    return _csv_header(path), STATIONS_HEADER, synth_generate(5, 20, seed=4)[1], read


@pytest.mark.parametrize("case", [
    _schema_case(True), _schema_case(False), _traffic_case("central"),
    _traffic_case("federated"), _assignment_case, _stations_case,
], ids=[
    "schema-with-id", "schema-without-id", "traffic-central", "traffic-federated",
    "assignment", "stations",
])
def test_declared_format_round_trips(tmp_path, case):
    # each file is written by its writer and read by its reader, and its
    # header or key set on disk is its one declaration
    on_disk, declared, written, read = case(tmp_path)
    assert on_disk == declared
    assert read == written


def test_evaluate_sweep_writes_method_by_ratio_grid(tmp_path, corpus_dir, monkeypatch):
    solved = []  # the module through which each K-means was solved
    for module in (cli, fedl.sim):
        def counted(*args, _module=module, _solve=module.constrained_kmeans, **kwargs):
            solved.append(_module)
            return _solve(*args, **kwargs)
        monkeypatch.setattr(module, "constrained_kmeans", counted)
    out = tmp_path / "sweep"
    code, stdout, _ = invoke(
        "sweep", "--transactions", corpus_dir / "transactions.csv",
        "--stations", corpus_dir / "stations.csv",
        "--epochs", 2, "--tolerance", 0, "--hidden", "4", "--workers", 2,
        "--clusters", 2, "--seed", 0, "--out", out,
    )
    assert code == 0, stdout
    # one grouping serves the eight clustered trainings (4 ratios x 2 modes)
    assert solved == [cli]
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
        "sweep", "--transactions", corpus_dir / "transactions.csv",
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


def test_report_duplicate_pipeline_name_exits_1(tmp_path, two_traffic_logs):
    central_csv, federated_csv = two_traffic_logs
    code, _, err = invoke("report", f"a={central_csv}", f"a={federated_csv}",
                          "--out", tmp_path / "r")
    assert code == 1
    assert err.splitlines() == ["fedl: error: duplicate pipeline name 'a'"]


def test_report_non_traffic_csv_exits_2(tmp_path, corpus_dir):
    code, _, err = invoke(
        "report",
        f"central={corpus_dir / 'transactions.csv'}",
        f"other={corpus_dir / 'transactions.csv'}",
        "--out", tmp_path / "r",
    )
    assert code == 2
    assert "data error" in err


def test_report_zero_byte_baseline_exits_1_naming_it_and_its_file(tmp_path, two_traffic_logs):
    _, federated_csv = two_traffic_logs
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(TrafficLog.HEADER) + "\n", encoding="utf-8")
    code, stdout, err = invoke(
        "report", f"central={empty}", f"federated={federated_csv}", "--out", tmp_path / "r",
    )
    assert (code, stdout) == (1, "")
    assert err.splitlines() == [
        f"fedl: error: {empty}: baseline pipeline 'central' moved zero bytes; ratio undefined"
    ]


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
        "sweep": ["--transactions", "t.csv"],
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
            command in ("synth", "cluster", "train", "evaluate", "sweep")
        ), command
        # the sweep trains both modes and a run dir carries its own
        assert ("mode" in flags) == (command == "train"), command


def test_evaluate_rejects_mode_and_sweep_ratio(tmp_path, corpus_dir):
    data = ("--transactions", corpus_dir / "transactions.csv")
    code, _, err = invoke("evaluate", *data, "--mode", "central", "--out", tmp_path / "m")
    assert code == 1
    assert "unrecognized arguments: --mode" in err
    # the sweep sets its own ratios
    code, _, err = invoke("sweep", *data, "--ratio", 0.3, "--out", tmp_path / "s")
    assert code == 1
    assert "unrecognized arguments: --ratio" in err
    assert not (tmp_path / "s").exists()
    # a config file's ratio is ignored, as for any key a command does not
    # use, and the sweep's manifest does not record it
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"ratio": 0.3}), encoding="utf-8")
    code, _, _ = invoke("sweep", *data, "--config", conf, "--epochs", 2,
                        "--out", tmp_path / "c")
    assert code == 0
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert "ratio" not in manifest["config"]


def test_evaluate_sweep_rejects_a_run_dir(tmp_path, corpus_dir):
    # evaluate has no --sweep, and the sweep scores only models it trains
    data = ("--transactions", corpus_dir / "transactions.csv")
    run_dir = ("--run-dir", tmp_path / "nonexistent")
    for command, argv in (("evaluate", ("--sweep", *run_dir)), ("sweep", run_dir)):
        out = tmp_path / command
        code, _, err = invoke(command, *data, *argv, "--out", out)
        assert code == 1
        assert f"unrecognized arguments: {argv[0]}" in err, err
        assert not out.exists()


def test_evaluate_help_lists_only_its_own_flags():
    # no training, clustering or sweep flag: a run directory carries its
    # own settings, and the sweep is `fedl sweep`
    code, stdout, _ = invoke("evaluate", "--help")
    assert code == 0
    assert set(re.findall(r"--[a-z][a-z-]*", stdout)) == {
        "--transactions", "--run-dir", "--ratio", "--seed", "--include-transaction-id",
        "--no-include-transaction-id", "--knn-k", "--config", "--out", "--help",
    }


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


def test_readme_library_use_runs_and_imports_the_package_exports():
    # the package docstring: fedl re-exports exactly the names README
    # "Library use" imports from it
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks
    imported = set()
    namespace: dict = {}
    for block in blocks:
        tree = ast.parse(block)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "fedl":
                imported.update(alias.name for alias in node.names)
        exec(compile(tree, "README.md", "exec"), namespace)
    exported = {
        name for name, value in vars(fedl).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert imported == exported
    assert namespace["knn"].shape == (len(namespace["test"]),)


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


def test_python_dash_m_fedl_runs_the_cli(tmp_path):
    # needs no launcher on PATH, unlike test_installed_console_script_runs
    pythonpath = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "fedl", *argv], capture_output=True,
                              text=True, timeout=60, env=env, cwd=tmp_path)

    proc = run("--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: fedl") and "synth" in proc.stdout
    proc = run("synth", "--stations", "2", "--records", "7", "--out", "corpus")
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "corpus" / "transactions.csv").read_text().splitlines()
    assert lines[0] == "station_id,transaction_id,date,time,energy_kwh" and len(lines) == 8
    proc = run()
    assert proc.returncode == 1 and "usage: fedl" in proc.stderr


@pytest.mark.skipif(shutil.which("fedl") is None, reason="fedl not installed")
def test_installed_console_script_runs():
    proc = subprocess.run(
        [shutil.which("fedl"), "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "ingest" in proc.stdout and "train" in proc.stdout
