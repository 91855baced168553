"""Step timestamps for the untraced benchmark.

They patch a function where its caller looks it up (``fedl.cli`` for the
CLI's training calls, ``fedl.sim`` for ``run_clustered``'s) and restore it
on exit.  Each hook adds one ``perf_counter`` read per training step.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path

import fedl.cli


@contextlib.contextmanager
def patched(module, name, make_wrapper):
    original = getattr(module, name)
    setattr(module, name, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, name, original)


@contextlib.contextmanager
def step_stamps(module, names, calls: list):
    """Record, for every call of ``module.<name>`` (a fedl training loop),
    ``[start, after step 1, ..., after step n, end]`` in ``calls``.  The
    steps are timed through the loop's ``on_epoch`` callback."""

    def make_wrapper(train):
        def stamped(*args, on_epoch=None, **kwargs):
            stamps = [time.perf_counter()]
            calls.append(stamps)

            def stamp(epoch, network):
                stamps.append(time.perf_counter())
                if on_epoch is not None:
                    on_epoch(epoch, network)

            try:
                return train(*args, on_epoch=stamp, **kwargs)
            finally:
                stamps.append(time.perf_counter())

        return stamped

    with contextlib.ExitStack() as stack:
        for name in names:
            stack.enter_context(patched(module, name, make_wrapper))
        yield


def run_cli(argv, stamps_path: Path) -> int:
    """Run ``fedl.cli.main(argv)`` in this process and write, for every
    training loop it ran, its step stamps to ``stamps_path`` as JSON."""
    calls: list = []
    with step_stamps(fedl.cli, ("run_centralized", "run_federated"), calls):
        code = fedl.cli.main(argv)
    Path(stamps_path).write_text(json.dumps(calls), encoding="utf-8")
    return code


def step_seconds(calls) -> list[float]:
    """Durations between consecutive step stamps of every recorded call."""
    return [b - a for stamps in calls for a, b in zip(stamps[:-2], stamps[1:-1])]


def call_seconds(calls) -> float:
    return sum(stamps[-1] - stamps[0] for stamps in calls)
