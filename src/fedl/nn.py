"""Dense feed-forward regression network with exact gradients and Adam.

Design points:

* everything is a pure function — networks, gradients and optimiser state
  are never mutated; each step returns fresh (read-only) arrays, so values
  can be shared across threads and repeated calls are bit-identical;
* the training loss is the plain sum of squared errors over the batch
  (no averaging), and gradients are its exact reverse-mode derivatives;
* dropout is the inverted variant: in training mode a fraction ``f`` of a
  layer's activations is zeroed and survivors are scaled by ``1/(1-f)``;
  inference applies no mask and no scaling.  Masks are counter-based
  (see :mod:`fedl.rng`): the mask row of a sample depends only on the
  seed, the layer and the sample's global id, so any sub-batch sees the
  same masks it would inside the full batch.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .rng import uniform_hash


class Activation(enum.Enum):
    TANH = "tanh"
    IDENTITY = "identity"


class Mode(enum.Enum):
    TRAIN = "train"
    INFER = "infer"


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out is a:
        out = out.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LayerSpec:
    """Geometry and behaviour of one dense layer."""

    input_width: int
    output_width: int
    activation: Activation = Activation.TANH
    dropout: float = 0.0  # fraction of this layer's outputs zeroed in training

    def __post_init__(self) -> None:
        if self.input_width < 1 or self.output_width < 1:
            raise ShapeError(
                f"layer widths must be positive, got "
                f"{self.input_width}x{self.output_width}"
            )
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError(f"dropout fraction must be in [0, 1), got {self.dropout}")


@dataclass(frozen=True)
class Network:
    """An immutable stack of dense layers.

    ``weights[l]`` has shape (output_width, input_width); the layer maps
    ``X -> activation(X @ weights[l].T + biases[l])``.
    """

    specs: tuple[LayerSpec, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if not (len(self.specs) == len(self.weights) == len(self.biases)):
            raise ShapeError("specs, weights and biases must have equal length")
        for spec, w, b in zip(self.specs, self.weights, self.biases):
            if w.shape != (spec.output_width, spec.input_width):
                raise ShapeError(
                    f"weight shape {w.shape} does not match spec "
                    f"{spec.output_width}x{spec.input_width}"
                )
            if b.shape != (spec.output_width,):
                raise ShapeError(
                    f"bias shape {b.shape} does not match width {spec.output_width}"
                )

    @property
    def input_width(self) -> int:
        return self.specs[0].input_width

    @property
    def output_width(self) -> int:
        return self.specs[-1].output_width

    @property
    def parameter_count(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


@dataclass(frozen=True)
class Gradient:
    """Per-parameter partials, mirroring a Network's weight/bias shapes."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def matches(self, network: Network) -> bool:
        return len(self.weights) == len(network.weights) and all(
            gw.shape == w.shape and gb.shape == b.shape
            for gw, w, gb, b in zip(
                self.weights, network.weights, self.biases, network.biases
            )
        )


@dataclass(frozen=True)
class AdamState:
    """Adam accumulators plus hyper-parameters; ``steps`` counts updates."""

    eta_weights: tuple[np.ndarray, ...]  # first-moment running average
    eta_biases: tuple[np.ndarray, ...]
    delta_weights: tuple[np.ndarray, ...]  # second-moment running average
    delta_biases: tuple[np.ndarray, ...]
    step_size: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    steps: int = 0


@dataclass(frozen=True)
class LayerTrace:
    inputs: np.ndarray  # what the layer saw
    activated: np.ndarray  # activation output, before any dropout
    mask: np.ndarray | None  # boolean keep-mask, None when no dropout applied


@dataclass(frozen=True)
class Tape:
    """Intermediate values of one forward pass, consumed by backward()."""

    traces: tuple[LayerTrace, ...]
    output: np.ndarray


def init_network(specs, seed: int) -> Network:
    """Create a network with uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights
    and zero biases.  Same specs + seed => bit-identical parameters.
    """
    specs = tuple(specs)
    if not specs:
        raise ShapeError("a network needs at least one layer")
    for prev, nxt in zip(specs, specs[1:]):
        if prev.output_width != nxt.input_width:
            raise ShapeError(
                f"layer chain mismatch: {prev.output_width} -> {nxt.input_width}"
            )
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for spec in specs:
        limit = 1.0 / math.sqrt(spec.input_width)
        w = rng.uniform(-limit, limit, size=(spec.output_width, spec.input_width))
        weights.append(_frozen(w))
        biases.append(_frozen(np.zeros(spec.output_width)))
    return Network(specs=specs, weights=tuple(weights), biases=tuple(biases))


def _apply_layer(
    network: Network,
    layer: int,
    X: np.ndarray,
    mode: Mode,
    seed: int,
    sample_ids: np.ndarray,
) -> tuple[LayerTrace, np.ndarray]:
    """Run one layer: affine map, activation, then dropout if the layer
    carries one and ``mode`` is TRAIN.  Returns (trace, output)."""
    spec = network.specs[layer]
    if X.ndim != 2 or X.shape[1] != spec.input_width:
        raise ShapeError(
            f"layer {layer} expects input width {spec.input_width}, "
            f"got array of shape {X.shape}"
        )
    pre = X @ network.weights[layer].T + network.biases[layer]
    if spec.activation is Activation.TANH:
        act = np.tanh(pre)
    else:
        act = pre
    mask = None
    if spec.dropout > 0.0 and mode is Mode.TRAIN:
        u = uniform_hash(seed, layer, sample_ids, spec.output_width)
        mask = u >= spec.dropout
        out = act * mask / (1.0 - spec.dropout)
    else:
        out = act
    return LayerTrace(inputs=X, activated=act, mask=mask), out


def forward(
    network: Network,
    X,
    mode: Mode = Mode.INFER,
    seed: int = 0,
    sample_ids=None,
) -> tuple[np.ndarray, Tape]:
    """Full forward pass.  Returns (predictions, tape).

    ``sample_ids`` are the rows' global identities, used only to derive
    dropout masks; they default to 0..n-1.  Inference ignores them.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"forward expects a 2-d batch, got shape {X.shape}")
    if sample_ids is None:
        ids = np.arange(X.shape[0], dtype=np.int64)
    else:
        ids = np.asarray(sample_ids, dtype=np.int64)
        if ids.shape != (X.shape[0],):
            raise ShapeError(
                f"sample_ids shape {ids.shape} does not match batch of {X.shape[0]}"
            )
    traces = []
    out = X
    for layer in range(len(network.specs)):
        trace, out = _apply_layer(network, layer, out, mode, seed, ids)
        traces.append(trace)
    return out, Tape(traces=tuple(traces), output=out)


def sse_loss(predictions, targets) -> float:
    """Sum of squared errors over the batch (no averaging)."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise ShapeError(f"prediction shape {p.shape} != target shape {t.shape}")
    d = p - t
    return float(np.sum(d * d))


def backward(network: Network, tape: Tape, targets) -> Gradient:
    """Exact reverse-mode gradient of sse_loss(tape.output, targets)."""
    if len(tape.traces) != len(network.specs):
        raise ShapeError("tape depth does not match network depth")
    for layer, trace in enumerate(tape.traces):
        if trace.inputs.shape[1] != network.specs[layer].input_width:
            raise ShapeError(f"tape layer {layer} does not match network geometry")
    y = tape.output
    t = np.asarray(targets, dtype=np.float64)
    if t.ndim == 1:
        if y.shape[1] != 1 or t.shape[0] != y.shape[0]:
            raise ShapeError(
                f"1-d target of length {t.shape[0]} does not match output {y.shape}"
            )
        t = t.reshape(y.shape)
    elif t.shape != y.shape:
        raise ShapeError(f"target shape {t.shape} != output shape {y.shape}")

    grad_w: list[np.ndarray | None] = [None] * len(network.specs)
    grad_b: list[np.ndarray | None] = [None] * len(network.specs)
    d_out = 2.0 * (y - t)  # dL/d(layer output) for the last layer
    for layer in range(len(network.specs) - 1, -1, -1):
        spec = network.specs[layer]
        trace = tape.traces[layer]
        if trace.mask is not None:
            d_out = d_out * trace.mask / (1.0 - spec.dropout)
        if spec.activation is Activation.TANH:
            d_pre = d_out * (1.0 - trace.activated * trace.activated)
        else:
            d_pre = d_out
        grad_w[layer] = _frozen(d_pre.T @ trace.inputs)
        grad_b[layer] = _frozen(d_pre.sum(axis=0))
        if layer > 0:
            d_out = d_pre @ network.weights[layer]
    return Gradient(weights=tuple(grad_w), biases=tuple(grad_b))


def init_adam(
    network: Network,
    step_size: float = 0.01,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> AdamState:
    zeros_w = tuple(_frozen(np.zeros_like(w)) for w in network.weights)
    zeros_b = tuple(_frozen(np.zeros_like(b)) for b in network.biases)
    return AdamState(
        eta_weights=zeros_w,
        eta_biases=zeros_b,
        delta_weights=tuple(_frozen(np.zeros_like(w)) for w in network.weights),
        delta_biases=tuple(_frozen(np.zeros_like(b)) for b in network.biases),
        step_size=step_size,
        beta1=beta1,
        beta2=beta2,
        epsilon=epsilon,
        steps=0,
    )


def adam_step(
    state: AdamState, network: Network, gradient: Gradient
) -> tuple[AdamState, Network]:
    """One Adam update.  Pure: returns a new (state, network) pair.

    Running averages use fixed decay rates; the bias correction is folded
    into the per-step effective step size
    ``step_size * sqrt(1 - beta2^t) / (1 - beta1^t)``.
    """
    if not gradient.matches(network):
        raise ShapeError("gradient shapes do not match network shapes")
    t = state.steps + 1
    b1, b2 = state.beta1, state.beta2
    lr_t = state.step_size * math.sqrt(1.0 - b2 ** t) / (1.0 - b1 ** t)

    new_eta_w, new_eta_b = [], []
    new_delta_w, new_delta_b = [], []
    new_w, new_b = [], []
    for layer in range(len(network.specs)):
        for (eta, delta, grad, param, out_eta, out_delta, out_param) in (
            (
                state.eta_weights[layer],
                state.delta_weights[layer],
                gradient.weights[layer],
                network.weights[layer],
                new_eta_w,
                new_delta_w,
                new_w,
            ),
            (
                state.eta_biases[layer],
                state.delta_biases[layer],
                gradient.biases[layer],
                network.biases[layer],
                new_eta_b,
                new_delta_b,
                new_b,
            ),
        ):
            eta1 = b1 * eta + (1.0 - b1) * grad
            delta1 = b2 * delta + (1.0 - b2) * grad * grad
            step = lr_t * eta1 / (np.sqrt(delta1) + state.epsilon)
            out_eta.append(_frozen(eta1))
            out_delta.append(_frozen(delta1))
            out_param.append(_frozen(param - step))

    new_state = AdamState(
        eta_weights=tuple(new_eta_w),
        eta_biases=tuple(new_eta_b),
        delta_weights=tuple(new_delta_w),
        delta_biases=tuple(new_delta_b),
        step_size=state.step_size,
        beta1=state.beta1,
        beta2=state.beta2,
        epsilon=state.epsilon,
        steps=t,
    )
    new_network = Network(specs=network.specs, weights=tuple(new_w), biases=tuple(new_b))
    return new_state, new_network


def predict(network: Network, X, schema) -> np.ndarray:
    """Inference in original label units.

    ``schema`` is anything exposing ``label_mean``/``label_std`` (the
    encoding schema the network was trained against).  Dropout is inactive;
    standardized outputs are mapped back to kWh.
    """
    out, _ = forward(network, X, mode=Mode.INFER)
    return out[:, 0] * schema.label_std + schema.label_mean
