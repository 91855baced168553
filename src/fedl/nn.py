"""Dense feed-forward regression network with exact gradients and Adam.

Design points:

* networks, gradients and optimiser state are never mutated: parameters,
  gradients and Adam moments are fresh read-only arrays, so values can be
  shared across threads and repeated calls are bit-identical;
* the batch-sized intermediates of a training step live in a caller-owned
  :class:`Workspace` and are overwritten in place: tapes are views valid
  until the workspace's next step or until :func:`backward` consumes them
  (it writes its partials over the tape's buffers once they are dead, and
  a consumed tape cannot be differentiated again).  A call given no
  workspace makes its own, so results never depend on whether one was
  passed;
* the training loss is the plain sum of squared errors over the batch
  (no averaging), and gradients are its exact reverse-mode derivatives;
* dropout is the inverted variant: in training mode a fraction ``f`` of a
  layer's activations is zeroed and survivors are scaled by ``1/(1-f)``;
  inference applies no mask and no scaling.  Masks are counter-based
  (:func:`fedl.rng.keep_mask`): the mask row of a sample depends only on the
  seed, the layer and the sample's global id, so any sub-batch sees the
  same masks it would inside the full batch.  The hash runs in the layer's
  own activation and dropout-output buffers before the affine map fills
  them, so a workspace holds no hash scratch;
* training steps and inference both work in row blocks of at most
  :data:`STEP_BLOCK_ROWS` rows, each read by :func:`take_rows` (expanded
  from :class:`fedl.data.EncodedFeatures`, or sliced or gathered from an
  ndarray) into the calling thread's workspace (:func:`thread_workspace`):
  :func:`predict` runs its input through it block by block, so its
  scratch holds one block's activations whatever the input's size, and
  reuses what the thread's training steps left there.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .data import EncodedFeatures
from .errors import ShapeError
from .rng import keep_mask

# rows per training-step task and per inference block (README "Threads")
STEP_BLOCK_ROWS = 2048

# Adam's fixed decay rates and denominator guard (the paper never varies them)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class Activation(enum.Enum):
    TANH = "tanh"
    IDENTITY = "identity"


class Mode(enum.Enum):
    TRAIN = "train"
    INFER = "infer"


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark an array this module just created read-only, in place."""
    a.setflags(write=False)
    return a


class Workspace:
    """Scratch arrays for forward and backward, reused across steps.

    Each array is kept at the largest batch it has served and handed out as
    a view of its leading rows, so repeated steps write into the same
    memory instead of allocating it afresh.  One workspace serves one step
    at a time: concurrent steps need one each.
    """

    def __init__(self) -> None:
        self._arrays: dict[tuple, np.ndarray] = {}

    def take(self, name: tuple, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """An uninitialised C-contiguous array of ``shape``: the leading
        ``shape[0]`` rows of the array kept for (name, row shape, dtype),
        grown first if it has fewer rows."""
        key = (name, shape[1:], np.dtype(dtype))
        a = self._arrays.get(key)
        if a is None or a.shape[0] < shape[0]:
            a = np.empty(shape, dtype=dtype)
            self._arrays[key] = a
        return a[: shape[0]]


# Each thread's scratch arrays, kept from one step, training or prediction
# to the next.
_scratch = threading.local()


def thread_workspace() -> Workspace:
    """The calling thread's workspace, made on its first call."""
    if not hasattr(_scratch, "workspace"):
        _scratch.workspace = Workspace()
    return _scratch.workspace


def as_features(X) -> np.ndarray | EncodedFeatures:
    """``X`` itself when it is :class:`EncodedFeatures`, else ``X`` as a
    float64 ndarray."""
    return X if isinstance(X, EncodedFeatures) else np.asarray(X, dtype=np.float64)


def take_rows(X: np.ndarray | EncodedFeatures, rows, workspace: Workspace) -> np.ndarray:
    """Rows ``rows`` (a slice, or an array of in-range ids) of ``X`` as one
    float64 block.

    A slice of an ndarray is a view of it.  Otherwise the block is written
    into ``workspace``'s flat ``("rows",)`` buffer, which serves every
    width: gathered from an ndarray (the gather clips, because a checked
    gather buffers its output), or expanded from EncodedFeatures into the
    bytes ``np.asarray(X)[rows]`` holds."""
    if isinstance(rows, slice) and isinstance(X, np.ndarray):
        return X[rows]
    n = rows.stop - rows.start if isinstance(rows, slice) else len(rows)
    block = workspace.take(("rows",), (n * X.shape[1],)).reshape(n, X.shape[1])
    if isinstance(X, EncodedFeatures):
        return X.rows_into(rows, block)
    return np.take(X, rows, axis=0, mode="clip", out=block)


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
        if not self.specs:
            raise ShapeError("a network needs at least one layer")
        for prev, nxt in zip(self.specs, self.specs[1:]):
            if prev.output_width != nxt.input_width:
                raise ShapeError(
                    f"layer chain mismatch: {prev.output_width} -> {nxt.input_width}"
                )
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
    """Adam accumulators, the step size, and ``steps``, the updates applied
    so far.  The decay rates and epsilon are the module's ``ADAM_*``
    constants.

    Each moment holds one array per parameter array, in the order
    ``(*weights, *biases)``.
    """

    eta: tuple[np.ndarray, ...]  # first-moment running average
    delta: tuple[np.ndarray, ...]  # second-moment running average
    step_size: float = 0.01
    steps: int = 0


@dataclass(frozen=True)
class LayerTrace:
    inputs: np.ndarray  # what the layer saw
    activated: np.ndarray  # activation output, before any dropout
    mask: np.ndarray | None  # boolean keep-mask, None when no dropout applied


@dataclass(eq=False)
class Tape:
    """Intermediate values of one forward pass, consumed by backward().

    Its arrays are views into the forward pass's workspace, valid until that
    workspace's next step or until backward() consumes the tape, which
    overwrites them and sets ``consumed``.
    """

    traces: tuple[LayerTrace, ...]
    output: np.ndarray
    consumed: bool = field(default=False, init=False)


def init_network(specs, seed: int) -> Network:
    """Create a network with uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights
    and zero biases.  Same specs + seed => bit-identical parameters.
    """
    specs = tuple(specs)
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
    workspace: Workspace,
) -> tuple[LayerTrace, np.ndarray]:
    """Run one layer: affine map, activation, then dropout if the layer
    carries one and ``mode`` is TRAIN.  Returns (trace, output), both
    written into ``workspace``.

    A dropout layer hashes its keep-mask first, using its still-empty
    ``activated`` and ``dropped`` buffers (viewed as uint64) as the hash's
    scratch; the affine map and the dropout product then overwrite them,
    so the layer needs no scratch of its own for the hash."""
    spec = network.specs[layer]
    if X.ndim != 2 or X.shape[1] != spec.input_width:
        raise ShapeError(
            f"layer {layer} expects input width {spec.input_width}, "
            f"got array of shape {X.shape}"
        )
    shape = (X.shape[0], spec.output_width)
    act = workspace.take(("activated", layer), shape)
    mask = None
    if spec.dropout > 0.0 and mode is Mode.TRAIN:
        dropped = workspace.take(("dropped", layer), shape)
        mask = keep_mask(
            seed, layer, sample_ids, spec.output_width, spec.dropout,
            # bool: an eighth of a float64 mask's memory, the same products
            out=workspace.take(("mask", layer), shape, np.bool_),
            scratch=(act.view(np.uint64), dropped.view(np.uint64)),
        )
    np.matmul(X, network.weights[layer].T, out=act)
    np.add(act, network.biases[layer], out=act)
    if spec.activation is Activation.TANH:
        np.tanh(act, out=act)
    out = act
    if mask is not None:
        # multiply, then divide: scaling by 1/(1-f) instead would change bits
        out = np.multiply(act, mask, out=dropped)
        np.divide(out, 1.0 - spec.dropout, out=out)
    return LayerTrace(inputs=X, activated=act, mask=mask), out


def forward(
    network: Network,
    X,
    mode: Mode = Mode.INFER,
    seed: int = 0,
    sample_ids=None,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, Tape]:
    """Full forward pass.  Returns (predictions, tape).

    ``sample_ids`` are the rows' global identities, used only to derive
    dropout masks; they default to 0..n-1.  Inference ignores them.  The
    predictions and the tape are views into ``workspace`` (a fresh one when
    None), valid until its next step or until backward() consumes the tape.
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
    if workspace is None:
        workspace = Workspace()
    traces = []
    out = X
    for layer in range(len(network.specs)):
        trace, out = _apply_layer(network, layer, out, mode, seed, ids, workspace)
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


def backward(
    network: Network, tape: Tape, targets, workspace: Workspace | None = None
) -> Gradient:
    """Exact reverse-mode gradient of sse_loss(tape.output, targets).

    Consumes ``tape``: each batch-sized partial is written over a tape
    buffer that is already dead, and a second call on the same tape raises
    ValueError.  A layer's tanh factor ``1 - a*a`` is formed in its own
    ``activated`` buffer.  The partial with respect to layer l's inputs
    goes into (a) those inputs when they are a dropout output, (b) else
    layer l's ``activated`` buffer when it has their width, (c) else
    ``workspace`` (a fresh one when None), as does the output partial.
    The gradient is fresh.
    """
    if tape.consumed:
        raise ValueError("backward already consumed this tape")
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
    if workspace is None:
        workspace = Workspace()
    tape.consumed = True

    # A workspace partial is keyed by its width, and (c) is taken only when
    # a layer's input and output widths differ, so a GEMM never writes into
    # its own operand.
    n = y.shape[0]
    grad_w: list[np.ndarray | None] = [None] * len(network.specs)
    grad_b: list[np.ndarray | None] = [None] * len(network.specs)
    d_out = workspace.take(("partial",), y.shape)
    np.subtract(y, t, out=d_out)
    np.multiply(2.0, d_out, out=d_out)  # dL/d(layer output) for the last layer
    for layer in range(len(network.specs) - 1, -1, -1):
        spec = network.specs[layer]
        trace = tape.traces[layer]
        if trace.mask is not None:
            np.multiply(d_out, trace.mask, out=d_out)
            np.divide(d_out, 1.0 - spec.dropout, out=d_out)
        if spec.activation is Activation.TANH:
            factor = trace.activated
            np.multiply(factor, factor, out=factor)
            np.subtract(1.0, factor, out=factor)
            np.multiply(d_out, factor, out=d_out)
        d_pre = d_out
        grad_w[layer] = _frozen(d_pre.T @ trace.inputs)
        grad_b[layer] = _frozen(d_pre.sum(axis=0))
        if layer > 0:
            if tape.traces[layer - 1].mask is not None:
                d_out = trace.inputs  # (a): dead once grad_w[layer] is formed
            elif spec.output_width == spec.input_width:
                d_out = trace.activated  # (b): no longer read
            else:
                d_out = workspace.take(("partial",), (n, spec.input_width))  # (c)
            if spec.output_width == 1:
                # A k=1 GEMM gives each entry as 0 + a*b: the plain product,
                # but with -0 turned to +0, which adding +0.0 does too.
                np.multiply(d_pre, network.weights[layer], out=d_out)
                np.add(d_out, 0.0, out=d_out)
            else:
                np.matmul(d_pre, network.weights[layer], out=d_out)
    return Gradient(weights=tuple(grad_w), biases=tuple(grad_b))


def init_adam(network: Network, step_size: float = 0.01) -> AdamState:
    zeros = tuple(
        _frozen(np.zeros_like(p)) for p in (*network.weights, *network.biases)
    )
    return AdamState(eta=zeros, delta=zeros, step_size=step_size)


def adam_step(
    state: AdamState, network: Network, gradient: Gradient
) -> tuple[AdamState, Network]:
    """One Adam update.  Pure: returns a new (state, network) pair.

    Running averages decay at :data:`ADAM_BETA1` and :data:`ADAM_BETA2`;
    the bias correction is folded into the per-step effective step size
    ``step_size * sqrt(1 - beta2^t) / (1 - beta1^t)``, and
    :data:`ADAM_EPSILON` guards the denominator.
    """
    if not gradient.matches(network):
        raise ShapeError("gradient shapes do not match network shapes")
    t = state.steps + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    lr_t = state.step_size * math.sqrt(1.0 - b2 ** t) / (1.0 - b1 ** t)

    eta, delta, params = [], [], []
    for m, v, grad, param in zip(
        state.eta, state.delta,
        (*gradient.weights, *gradient.biases), (*network.weights, *network.biases),
    ):
        eta1 = b1 * m + (1.0 - b1) * grad
        delta1 = b2 * v + (1.0 - b2) * grad * grad
        eta.append(_frozen(eta1))
        delta.append(_frozen(delta1))
        params.append(_frozen(param - lr_t * eta1 / (np.sqrt(delta1) + ADAM_EPSILON)))

    n = len(network.specs)
    new_network = Network(
        specs=network.specs, weights=tuple(params[:n]), biases=tuple(params[n:])
    )
    return replace(state, eta=tuple(eta), delta=tuple(delta), steps=t), new_network


def predict(network: Network, X, schema) -> np.ndarray:
    """Inference in original label units.

    ``X`` is an ndarray or :class:`EncodedFeatures`; ``schema`` is anything
    exposing ``label_mean``/``label_std`` (the encoding schema the network
    was trained against).  Dropout is inactive; standardized outputs are
    mapped back to kWh.  The rows go through :func:`forward` in blocks of
    at most :data:`STEP_BLOCK_ROWS`, read by :func:`take_rows`, in the
    calling thread's workspace, and each block's predictions are written
    into its slice of the result, so the scratch holds one block's
    activations however many rows there are.  The bits are those of one
    pass over all the rows.
    """
    X = as_features(X)
    if X.ndim != 2 or X.shape[1] != network.input_width:
        raise ShapeError(
            f"predict expects rows of width {network.input_width}, "
            f"got array of shape {X.shape}"
        )
    result = np.empty(X.shape[0])
    workspace = thread_workspace()
    for start in range(0, X.shape[0], STEP_BLOCK_ROWS):
        rows = slice(start, min(start + STEP_BLOCK_ROWS, X.shape[0]))
        out, _ = forward(
            network, take_rows(X, rows, workspace), mode=Mode.INFER, workspace=workspace
        )
        block = result[rows]
        np.multiply(out[:, 0], schema.label_std, out=block)
        np.add(block, schema.label_mean, out=block)
    return result
