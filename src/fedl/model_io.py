"""Binary model container.

Layout (all integers little-endian):

    magic  b"FEDL"
    u32    format version (currently 1)
    u32    layer count
    per layer: u32 input width | u32 output width | u8 activation code
               | u8 dropout flag | f64 dropout fraction
    parameter block: ``Network.params``, f64 per layer: weights
               (out*in, row-major) | biases (out)

The same network saves to the same bytes every time, so save -> load ->
save round-trips byte-identically.
"""

from __future__ import annotations

import io
import struct
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ShapeError
from .nn import Activation, LayerSpec, Network, parameter_count

MAGIC = b"FEDL"
FORMAT_VERSION = 1

_ACTIVATION_CODES = {Activation.IDENTITY: 0, Activation.TANH: 1}
_CODE_ACTIVATIONS = {v: k for k, v in _ACTIVATION_CODES.items()}

_HEADER = struct.Struct("<4sII")
_LAYER = struct.Struct("<IIBBd")


def network_to_bytes(network: Network) -> bytes:
    buf = io.BytesIO()
    buf.write(_HEADER.pack(MAGIC, FORMAT_VERSION, len(network.specs)))
    for spec in network.specs:
        buf.write(
            _LAYER.pack(
                spec.input_width,
                spec.output_width,
                _ACTIVATION_CODES[spec.activation],
                1 if spec.dropout > 0.0 else 0,
                spec.dropout,
            )
        )
    buf.write(network.params.astype("<f8").tobytes())
    return buf.getvalue()


def network_from_bytes(blob: bytes) -> Network:
    if len(blob) < _HEADER.size:
        raise DataFormatError("model file truncated before header")
    magic, version, n_layers = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise DataFormatError(f"bad magic bytes {magic!r}; not a model container")
    if version != FORMAT_VERSION:
        raise DataFormatError(f"unsupported container version {version}")
    offset = _HEADER.size
    specs: list[LayerSpec] = []
    for _ in range(n_layers):
        if offset + _LAYER.size > len(blob):
            raise DataFormatError("model file truncated in layer table")
        in_w, out_w, act_code, drop_flag, dropout = _LAYER.unpack_from(blob, offset)
        offset += _LAYER.size
        if act_code not in _CODE_ACTIVATIONS:
            raise DataFormatError(f"unknown activation code {act_code}")
        if drop_flag not in (0, 1) or (drop_flag == 0) != (dropout == 0.0):
            raise DataFormatError("inconsistent dropout flag/fraction")
        try:
            specs.append(
                LayerSpec(in_w, out_w, _CODE_ACTIVATIONS[act_code], dropout=dropout)
            )
        except ValueError as e:  # a zero width, or a dropout outside [0, 1)
            raise DataFormatError(f"bad layer {len(specs)}: {e}") from None
    end = offset + 8 * parameter_count(specs)
    if end > len(blob):
        raise DataFormatError("model file truncated in parameter block")
    if end != len(blob):
        raise DataFormatError(f"{len(blob) - end} trailing bytes in model file")
    params = np.frombuffer(blob, dtype="<f8", offset=offset).astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(params))
    if bad.size:
        ends = np.cumsum([parameter_count([spec]) for spec in specs])
        layer = int(np.searchsorted(ends, bad[0], side="right"))
        raise DataFormatError(f"non-finite parameters in layer {layer}")
    try:
        return Network(tuple(specs), params)
    except ShapeError as e:  # no layers, or widths that do not chain
        raise DataFormatError(f"bad layer stack: {e}") from None


def save_network(network: Network, path) -> None:
    Path(path).write_bytes(network_to_bytes(network))


def load_network(path) -> Network:
    """The network saved at ``path``; a malformed file raises
    DataFormatError naming it."""
    try:
        return network_from_bytes(Path(path).read_bytes())
    except DataFormatError as e:
        raise DataFormatError(f"{e} ({path})") from None
