import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedl.errors import DataFormatError
from fedl.model_io import (
    _HEADER,
    _LAYER,
    load_network,
    network_from_bytes,
    network_to_bytes,
    save_network,
)
from fedl.nn import Activation, LayerSpec, init_network


def sample_net(seed=17):
    specs = [
        LayerSpec(5, 8, Activation.TANH),
        LayerSpec(8, 8, Activation.TANH, dropout=0.15),
        LayerSpec(8, 1, Activation.IDENTITY),
    ]
    return init_network(specs, seed)


def test_roundtrip_is_byte_identical():
    net = sample_net()
    blob = network_to_bytes(net)
    clone = network_from_bytes(blob)
    assert network_to_bytes(clone) == blob
    assert clone.specs == net.specs
    for a, b in zip(net.weights, clone.weights):
        assert np.array_equal(a, b)
    for a, b in zip(net.biases, clone.biases):
        assert np.array_equal(a, b)


def test_blob_starts_with_magic():
    assert network_to_bytes(sample_net())[:4] == b"FEDL"


def test_blob_ends_with_the_parameter_vector():
    net = sample_net(seed=5)
    tail = net.params.astype("<f8").tobytes()
    blob = network_to_bytes(net)
    assert len(blob) == _HEADER.size + len(net.specs) * _LAYER.size + len(tail)
    assert blob.endswith(tail)


def test_roundtrip_through_file(tmp_path):
    net = sample_net(seed=4)
    path = tmp_path / "model.fedl"
    save_network(net, path)
    clone = load_network(path)
    assert network_to_bytes(clone) == network_to_bytes(net)


def test_loaded_network_predicts_identically():
    from fedl.nn import Mode, forward

    net = sample_net(seed=9)
    clone = network_from_bytes(network_to_bytes(net))
    X = np.random.default_rng(0).normal(size=(6, 5))
    a, _ = forward(net, X, mode=Mode.INFER)
    b, _ = forward(clone, X, mode=Mode.INFER)
    assert np.array_equal(a, b)


def test_bad_magic_rejected():
    blob = bytearray(network_to_bytes(sample_net()))
    blob[:4] = b"NOPE"
    with pytest.raises(DataFormatError):
        network_from_bytes(bytes(blob))


def test_unknown_version_rejected():
    blob = bytearray(network_to_bytes(sample_net()))
    blob[4] = 99  # little-endian u32 version field
    with pytest.raises(DataFormatError):
        network_from_bytes(bytes(blob))


def test_truncation_rejected():
    blob = network_to_bytes(sample_net())
    with pytest.raises(DataFormatError):
        network_from_bytes(blob[: len(blob) // 2])
    with pytest.raises(DataFormatError):
        network_from_bytes(blob[:6])


def test_trailing_garbage_rejected():
    blob = network_to_bytes(sample_net())
    with pytest.raises(DataFormatError):
        network_from_bytes(blob + b"\x00")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_parameters_rejected(value, tmp_path):
    blob = network_to_bytes(sample_net())
    for at in (len(blob) - 8, _HEADER.size + 3 * _LAYER.size):  # last bias, first weight
        bad = blob[:at] + struct.pack("<d", value) + blob[at + 8:]
        with pytest.raises(DataFormatError, match="non-finite parameters"):
            network_from_bytes(bad)
    path = tmp_path / "model.fedl"
    path.write_bytes(bad)
    with pytest.raises(DataFormatError, match=r"non-finite parameters in layer 0 \(.*model\.fedl\)"):
        load_network(path)


def test_dropout_survives_roundtrip():
    net = sample_net()
    clone = network_from_bytes(network_to_bytes(net))
    assert clone.specs[1].dropout == 0.15
    assert clone.specs[1].activation is Activation.TANH
    assert clone.specs[2].activation is Activation.IDENTITY


@pytest.mark.parametrize(
    "in_w, out_w, dropout", [(8, 8, 1.5), (8, 8, float("nan")), (0, 8, 0.15)],
    ids=["dropout-1.5", "dropout-nan", "width-0"],
)
def test_out_of_range_layer_fields_rejected(in_w, out_w, dropout):
    blob = bytearray(network_to_bytes(sample_net()))
    second = _HEADER.size + _LAYER.size  # the 8x8 dropout layer's entry
    blob[second : second + _LAYER.size] = _LAYER.pack(in_w, out_w, 1, 1, dropout)
    with pytest.raises(DataFormatError):
        network_from_bytes(bytes(blob))


def test_empty_layer_stack_rejected():
    with pytest.raises(DataFormatError, match="at least one layer"):
        network_from_bytes(_HEADER.pack(b"FEDL", 1, 0))


def test_layer_widths_that_do_not_chain_rejected():
    # 5->8, 8->8, 8->1 with the middle layer rewritten as 8->5, and a
    # parameter block sized for the layers as written
    blob = network_to_bytes(sample_net())
    second = _HEADER.size + _LAYER.size
    n_params = (8 * 5 + 8) + (5 * 8 + 5) + (1 * 8 + 1)
    table = (
        blob[:second]
        + _LAYER.pack(8, 5, 1, 1, 0.15)
        + blob[second + _LAYER.size : _HEADER.size + 3 * _LAYER.size]
    )
    with pytest.raises(DataFormatError, match="chain mismatch: 5 -> 8"):
        network_from_bytes(table + bytes(8 * n_params))


@settings(max_examples=8, deadline=None)
@given(
    st.lists(st.integers(1, 4), min_size=2, max_size=4),
    st.sampled_from([0.0, 0.15]),
    st.integers(0, 2**32 - 1),
)
def test_corrupt_blobs_load_or_raise_only_data_format_error(widths, dropout, seed):
    # every truncation, and every single-byte overwrite of the header and
    # the layer table
    specs = [LayerSpec(a, b, Activation.TANH, dropout) for a, b in zip(widths, widths[1:])]
    blob = network_to_bytes(init_network(specs, seed))
    for cut in range(len(blob)):
        with pytest.raises(DataFormatError):
            network_from_bytes(blob[:cut])
    for at in range(_HEADER.size + _LAYER.size * len(specs)):
        corrupt = bytearray(blob)
        for value in range(256):
            corrupt[at] = value
            try:
                network_from_bytes(bytes(corrupt))  # loading is fine too
            except DataFormatError:
                pass
