"""Run the fedl CLI pipeline on a fixed corpus and print a digest of everything it wrote.

    python3 scripts/artifact_digests.py [--src SRC] [--keep DIR]

Each line is ``sha256  path``: one per file the pipeline wrote, then one
per command's standard output (``<step>.stdout``).  Besides the
synthetic corpus, the pipeline ingests and trains on ``dirty.csv``, a
fixed file with a row for every reason a row is rejected, so the rejects
report and the rejecting parse path are digested too.  A second,
12,000-record corpus trains central and federated sites of several row
blocks each, the last one partial, so block boundaries are digested
as well.  Its one-worker federated run reads the same five blocks as
its central run, and must write the same ``model.fedl``; the script
checks it.  One of its federated runs has hidden widths 32,64,16 and no
dropout, so backward keeps every partial it forms in its scratch arrays
instead of over the tape's dead buffers.  Its central run is also
evaluated on its 2,400 test rows, one full inference block and one
partial, so blocked prediction is digested too.  Two checkouts that
write the same bytes print the same lines, so comparing a change with
its parent is one ``diff``:

    python3 scripts/artifact_digests.py --src ../parent/src > parent.txt
    python3 scripts/artifact_digests.py > change.txt
    diff parent.txt change.txt

``--src`` is the directory holding the ``fedl`` package to run (default:
this checkout's ``src``).  The commands run in a temporary directory with
relative paths, one interpreter each, with BLAS held to one thread, so
training steps run on as many threads as the process has cores.
``train_federated_one_thread`` repeats ``train_federated`` pinned to one
core, where that BLAS thread is then the core count and the steps run on
one thread; its files and its output must digest the same as
``train_federated``'s.  When a file differs from the one it must equal,
the script prints every line and then exits 1, naming the first such file.
(Raising the BLAS thread count instead would change the GEMMs' bits.)
Where the platform cannot pin a process, that step runs unpinned.  The
directory is deleted afterwards unless ``--keep`` names one to use
instead.  Any command that exits non-zero stops the script with exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

T = "corpus/transactions.csv"
T_BLOCKS = "corpus_blocks/transactions.csv"
S = "corpus/stations.csv"
DIRTY = "dirty.csv"


def dirty_corpus() -> str:
    """Valid rows, some with padded fields or seconds, with one row for
    each reject reason and a blank line among them."""
    rejects = [
        "D1,1,2023-01-02,08:00",  # 4 fields
        "D1,2,2023-01-02,08:00,1.0,extra",  # 6 fields
        " ,3,2023-01-02,08:00,1.0",  # empty station_id
        "D1,x,2023-01-02,08:00,1.0",  # transaction_id not an integer
        "D1,4,2023-02-30,08:00,1.0",  # date not ISO-8601
        "D1,5,2023-01-02,25:00,1.0",  # time not HH:MM
        "D1,6,2023-01-02,08:00,abc",  # energy not a number
        "D1,7,2023-01-02,08:00,inf",  # energy not finite
        "D1,8,2023-01-02,08:00,-0.5",  # negative energy
        "",  # a blank line is skipped, not rejected
    ]
    rows = []
    for i in range(90):
        day, hour, minute = 2 + i % 7, (5 * i) % 24, (7 * i) % 60
        time = f"{hour:02d}:{minute:02d}" + (":30" if i % 5 == 0 else "")
        kwh = f"{(13 * i) % 17 + 0.25 * (i % 4)}"
        rows.append(f"D{i % 4}, {100 + i} ,2023-01-{day:02d},{time}, {kwh}")
        if i % 9 == 4:
            rows.append(rejects[i // 9])
    return "\n".join(["station_id,transaction_id,date,time,energy_kwh", *rows]) + "\n"

FEDERATED = ("--mode", "federated", "--workers", "3")
CLUSTERED = ("--clustering", "--stations", S)

# (step name, fedl arguments); each step writes into the directory of its name
PIPELINE = [
    ("corpus", ("synth", "--stations", "8", "--records", "1500", "--seed", "3")),
    ("ingest", ("ingest", "--transactions", T)),
    ("cluster", ("cluster", "--stations", S)),
    ("corpus_blocks", ("synth", "--stations", "8", "--records", "12000", "--seed", "5")),
    # 9,600 training rows: a central site of 5 blocks, two federated of 3 each
    ("train_central_blocks", ("train", "--transactions", T_BLOCKS, "--epochs", "3")),
    ("train_federated_blocks",
     ("train", "--transactions", T_BLOCKS, "--mode", "federated", "--workers", "2",
      "--epochs", "3")),
    # one worker holds every row, so its model.fedl is train_central_blocks'
    ("train_federated_one_worker_blocks",
     ("train", "--transactions", T_BLOCKS, "--mode", "federated", "--workers", "1",
      "--epochs", "3")),
    ("train_federated_widths",
     ("train", "--transactions", T_BLOCKS, "--mode", "federated", "--workers", "2",
      "--epochs", "3", "--hidden", "32,64,16", "--dropout", "0")),
    ("train_central", ("train", "--transactions", T)),
    ("train_federated", ("train", "--transactions", T, *FEDERATED)),
    ("train_federated_one_thread", ("train", "--transactions", T, *FEDERATED)),
    ("train_no_id", ("train", "--transactions", T, "--no-include-transaction-id")),
    ("train_clustered_central", ("train", "--transactions", T, *CLUSTERED)),
    ("train_clustered_federated", ("train", "--transactions", T, *CLUSTERED, *FEDERATED)),
    ("train_clustered_round_robin",
     ("train", "--transactions", T, *CLUSTERED, *FEDERATED, "--partition", "round_robin")),
    ("evaluate_central", ("evaluate", "--transactions", T, "--run-dir", "train_central")),
    # 2,400 test rows: one full prediction block and one partial
    ("evaluate_central_blocks",
     ("evaluate", "--transactions", T_BLOCKS, "--run-dir", "train_central_blocks")),
    ("evaluate_clustered",
     ("evaluate", "--transactions", T, "--run-dir", "train_clustered_federated")),
    ("evaluate_clustered_round_robin",
     ("evaluate", "--transactions", T, "--run-dir", "train_clustered_round_robin")),
    ("sweep", ("evaluate", "--transactions", T, "--sweep", "--stations", S)),
    ("dirty_ingest", ("ingest", "--transactions", DIRTY)),
    ("dirty_train", ("train", "--transactions", DIRTY, *FEDERATED)),
    ("report", ("report", "central=train_central/traffic.csv",
                "federated=train_federated/traffic.csv",
                "clustered=train_clustered_federated/traffic.csv")),
]


# (step, step) whose files and standard output must digest the same
SAME_STEPS = [("train_federated_one_thread", "train_federated")]
# (file, file) that must digest the same
SAME_FILES = [
    ("train_federated_one_worker_blocks/model.fedl", "train_central_blocks/model.fedl"),
]


def first_difference(lines: list[str]) -> str | None:
    """The first pair of files among those that must digest the same that
    do not, as a message; None when every pair matches."""
    digests = {path: digest for digest, path in (line.split("  ", 1) for line in lines)}
    pairs = list(SAME_FILES)
    for a, b in SAME_STEPS:
        pairs.append((f"{a}.stdout", f"{b}.stdout"))
        for path in sorted(digests):  # a file either step lacks differs too
            for mine, other in ((a, b), (b, a)):
                if path.startswith(mine + "/"):
                    pairs.append((path, other + path[len(mine):]))
    for a, b in pairs:
        if digests.get(a) != digests.get(b):
            return f"{a} does not digest as {b}"
    return None


def _pin_to_one_core() -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# steps run on one core by _pin_to_one_core
ONE_CORE = {"train_federated_one_thread"}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_pipeline(src: Path, work: Path) -> list[str]:
    """Run every step in ``work``; return the digest lines."""
    env = {
        **os.environ,
        "PYTHONPATH": str(src),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    (work / DIRTY).write_text(dirty_corpus(), encoding="utf-8")
    stdout_lines = []
    for step, argv in PIPELINE:
        proc = subprocess.run(
            [sys.executable, "-m", "fedl.cli", *argv, "--out", step],
            cwd=work, env=env, capture_output=True,
            preexec_fn=_pin_to_one_core if step in ONE_CORE else None,
        )
        if proc.returncode != 0:
            sys.exit(f"{step}: fedl exited {proc.returncode}\n"
                     f"{proc.stderr.decode(errors='replace')}")
        stdout_lines.append(f"{_sha256(proc.stdout)}  {step}.stdout")
    files = sorted(p for p in work.rglob("*") if p.is_file())
    return [
        f"{_sha256(p.read_bytes())}  {p.relative_to(work).as_posix()}" for p in files
    ] + stdout_lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src",
                        help="directory holding the fedl package to run")
    parser.add_argument("--keep", type=Path, default=None,
                        help="run in this (new or empty) directory and keep it")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "fedl" / "__init__.py").is_file():
        parser.error(f"no fedl package in {src}")
    if args.keep is not None:
        args.keep.mkdir(parents=True, exist_ok=True)
        if any(args.keep.iterdir()):
            parser.error(f"{args.keep} is not empty")
        lines = run_pipeline(src, args.keep.resolve())
    else:
        with tempfile.TemporaryDirectory(prefix="fedl_digests_") as tmp:
            lines = run_pipeline(src, Path(tmp))
    print("\n".join(lines))
    difference = first_difference(lines)
    if difference is not None:
        print(f"artifact_digests: {difference}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
