"""Energy-demand prediction for EV charging stations.

Library + CLI for training demand models three ways — pooled at one site,
federated across simulated worker sites, or per cluster of stations — with
byte-level accounting of the traffic each approach would move.

The package re-exports the names of README "Library use"; everything else
is imported from its module (``fedl.sim``, ``fedl.nn``, ``fedl.metrics``, ...).
"""

from .data import (
    PartitionStrategy,
    build_schema,
    encode_features,
    partition_workers,
    split_train_test,
    synth_generate,
)
from .metrics import knn_baseline
from .sim import TrainConfig, run_federated

__version__ = "0.1.0"
