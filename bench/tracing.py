"""Per-layer tracing from outside the program.

The traced run wraps fedl's public functions where their callers look them
up (``fedl.sim.forward`` is what ``run_round`` calls, ``fedl.nn.uniform_hash``
is what a dropout layer calls) and keeps, per layer function, its call
count, its inclusive time and its self time: the inclusive time minus the
time spent in other wrapped functions it called.  Nothing under ``src/``
changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from pathlib import Path

from hooks import patched

# layer function -> the "module.attribute" names its callers look it up by
SITES = {
    "rng.uniform_hash": ["fedl.nn.uniform_hash"],
    "nn.forward": ["fedl.sim.forward"],
    "nn.backward": ["fedl.sim.backward"],
    "nn.adam": ["fedl.sim.adam_step"],
    "nn.predict": ["fedl.nn.predict", "fedl.sim.predict", "fedl.cli.predict"],
    "sim.round": ["fedl.sim.run_round"],
    "sim.aggregate": ["fedl.sim.aggregate_gradients"],
    "clustering.kmeans": ["fedl.sim.constrained_kmeans", "fedl.cli.constrained_kmeans"],
    "clustering.assign": ["fedl.clustering.assign_clusters"],
    "clustering.update": ["fedl.clustering.update_centroids"],
    "metrics.knn": ["fedl.cli.knn_baseline"],
    # the CLI imports rmse inside its functions, so it looks it up on fedl.metrics
    "metrics.rmse": ["fedl.metrics.rmse", "fedl.sim.rmse"],
    "data.synth": ["fedl.data.synth_generate", "fedl.cli.synth_generate"],
    "data.parse": ["fedl.cli.parse_transactions"],
    "data.encode": [
        "fedl.data.encode_features", "fedl.sim.encode_features", "fedl.cli.encode_features",
    ],
    "data.split": ["fedl.data.split_train_test", "fedl.cli.split_train_test"],
    "data.partition": [
        "fedl.data.partition_workers", "fedl.sim.partition_workers",
        "fedl.cli.partition_workers",
    ],
    "model_io.save": ["fedl.cli.save_network"],
    "model_io.load": ["fedl.cli.load_network"],
}

# Work counts taken from a call's arguments and result.
COUNTS = {
    "rng.uniform_hash": [("rng.hash_values", lambda a, r: r.size)],
    "clustering.kmeans": [("clustering.iterations", lambda a, r: r.iterations_used)],
    "metrics.knn": [
        ("metrics.knn_queries", lambda a, r: len(a[2])),
        ("metrics.knn_pairs", lambda a, r: len(a[0]) * len(a[2])),
    ],
    "data.parse": [("data.parse_rows", lambda a, r: len(r[0]) + len(r[1]))],
    "data.encode": [("data.encode_rows", lambda a, r: r[0].shape[0])],
    "model_io.save": [("model_io.bytes", lambda a, r: Path(a[1]).stat().st_size)],
    "model_io.load": [("model_io.bytes", lambda a, r: Path(a[0]).stat().st_size)],
}

CLI_COMMANDS = ("synth", "ingest", "train", "evaluate", "report")

# name -> unit; "better" is "lower" for every one of them
PER_LAYER = {
    "rng.uniform_hash_s": "s",
    "rng.hash_values": "count",
    "nn.forward_s": "s",
    "nn.backward_s": "s",
    "nn.forward_calls": "count",
    "nn.adam_s": "s",
    "nn.predict_s": "s",
    "sim.round_s": "s",
    "sim.round_self_s": "s",
    "sim.aggregate_s": "s",
    "sim.rounds": "count",
    "clustering.kmeans_s": "s",
    "clustering.assign_s": "s",
    "clustering.assign_calls": "count",
    "clustering.update_s": "s",
    "clustering.iterations": "count",
    "metrics.knn_s": "s",
    "metrics.knn_queries": "count",
    "metrics.knn_pairs": "count",
    "metrics.rmse_s": "s",
    "data.synth_s": "s",
    "data.parse_s": "s",
    "data.parse_rows": "count",
    "data.encode_s": "s",
    "data.encode_rows": "count",
    "data.split_s": "s",
    "data.partition_s": "s",
    "model_io.save_s": "s",
    "model_io.load_s": "s",
    "model_io.bytes": "B",
    "cli.start_s": "s",
    **{f"cli.{command}_s": "s" for command in CLI_COMMANDS},
    "trace.overhead_s": "s",
}


class Tracer:
    """Wraps the layer functions while active (``with tracer:``)."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._children: list[float] = []  # time in wrapped callees, per open span
        self._patches = contextlib.ExitStack()

    def __enter__(self) -> "Tracer":
        missing = []
        for layer, sites in SITES.items():
            for site in sites:
                module_name, attr = site.rsplit(".", 1)
                module = importlib.import_module(module_name)
                if getattr(module, attr, None) is None:
                    missing.append(site)
                    continue
                self._patches.enter_context(
                    patched(module, attr, functools.partial(self._wrap, layer)))
        if missing:
            print(f"trace: not found, left untraced: {', '.join(missing)}",
                  file=sys.stderr)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.close()

    @contextlib.contextmanager
    def span(self, layer: str):
        """Time a block as if it were a call of the layer function ``layer``."""
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            children = self._children.pop()
            self.calls[layer] += 1
            self.inclusive[layer] += elapsed
            self.self_time[layer] += elapsed - children
            if self._children:
                self._children[-1] += elapsed

    def _wrap(self, layer: str, fn):
        counts = COUNTS.get(layer, [])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            for name, count in counts:
                self.counts[name] += count(args, result)
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer values of everything traced so far, for every name in
        PER_LAYER except ``cli.start_s`` and ``trace.overhead_s``, which the
        runner measures.  Times are self times, except ``sim.round_s``,
        ``clustering.kmeans_s`` and the ``cli.<command>_s`` spans, which are
        inclusive.  Layers a workload does not touch read 0."""
        out = {f"{layer}_s": self.self_time[layer] for layer in SITES}
        out.update({f"cli.{c}_s": self.inclusive[f"cli.{c}"] for c in CLI_COMMANDS})
        out.update({name: self.counts[name] for c in COUNTS.values() for name, _ in c})
        out.update(
            {
                "sim.round_s": self.inclusive["sim.round"],
                "sim.round_self_s": self.self_time["sim.round"],
                "clustering.kmeans_s": self.inclusive["clustering.kmeans"],
                "nn.forward_calls": self.calls["nn.forward"],
                "sim.rounds": self.calls["sim.round"],
                "clustering.assign_calls": self.calls["clustering.assign"],
            }
        )
        return out
