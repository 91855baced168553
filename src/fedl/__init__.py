"""Energy-demand prediction for EV charging stations.

Library + CLI for training demand models three ways — pooled at one site,
federated across simulated worker sites, or per cluster of stations — with
byte-level accounting of the traffic each approach would move.
"""

from .clustering import (
    ClusterAssignment,
    ClusterConfig,
    assign_clusters,
    constrained_kmeans,
    update_centroids,
)
from .data import (
    EncodingSchema,
    PartitionStrategy,
    RejectedRow,
    StationInfo,
    TransactionRecord,
    WorkerPartition,
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
    FedlError,
    InfeasibilityError,
    ShapeError,
    StalenessError,
)
from .metrics import (
    EvalReport,
    MeanBaseline,
    OverheadReport,
    knn_baseline,
    mean_baseline,
    overhead_report,
    rmse,
)
from .model_io import load_network, save_network
from .nn import (
    Activation,
    AdamState,
    Gradient,
    LayerSpec,
    Mode,
    Network,
    adam_step,
    backward,
    forward,
    init_adam,
    init_network,
    predict,
    sse_loss,
)
from .sim import (
    ClusteredResult,
    RoundReport,
    ServerState,
    TrafficEntry,
    TrafficLog,
    TrainConfig,
    TrainMode,
    WorkerState,
    aggregate_gradients,
    convergence_check,
    local_epoch,
    run_centralized,
    run_clustered,
    run_federated,
    run_round,
)

__version__ = "0.1.0"
