import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedl.errors import ShapeError
from fedl.nn import (
    Activation,
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
from helpers import finite_diff_gradient, max_relative_error


def tiny_net(widths, seed=0, dropout_last=0.0):
    specs = []
    for i, (a, b) in enumerate(zip(widths, widths[1:])):
        last_hidden = i == len(widths) - 3
        specs.append(
            LayerSpec(
                a,
                b,
                Activation.TANH if i < len(widths) - 2 else Activation.IDENTITY,
                dropout=dropout_last if last_hidden else 0.0,
            )
        )
    return init_network(specs, seed)


# --------------------------------------------------------------- init


def test_init_biases_are_zero():
    net = init_network([LayerSpec(1, 1, Activation.IDENTITY)], seed=123)
    assert net.biases[0][0] == 0.0


def test_init_same_seed_bit_identical():
    specs = [LayerSpec(5, 4), LayerSpec(4, 1, Activation.IDENTITY)]
    a = init_network(specs, seed=99)
    b = init_network(specs, seed=99)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_init_weight_bounds_respect_fan_in():
    net = tiny_net([9, 16, 1], seed=7)
    for spec, w in zip(net.specs, net.weights):
        limit = 1.0 / math.sqrt(spec.input_width)
        assert np.all(np.abs(w) <= limit)


def test_init_paper_scale_shapes():
    # two hidden layers of 64 over a modest input
    net = tiny_net([8, 64, 64, 1], seed=0)
    assert [w.shape for w in net.weights] == [(64, 8), (64, 64), (1, 64)]
    assert net.parameter_count == 64 * 8 + 64 + 64 * 64 + 64 + 64 + 1


def test_init_rejects_chain_mismatch():
    with pytest.raises(ShapeError):
        init_network([LayerSpec(3, 4), LayerSpec(5, 1)], seed=0)


def test_layer_spec_rejects_bad_dropout():
    with pytest.raises(ValueError):
        LayerSpec(2, 2, dropout=1.0)
    with pytest.raises(ShapeError):
        LayerSpec(0, 2)


def test_network_parameters_are_read_only():
    net = tiny_net([3, 4, 1], seed=1)
    with pytest.raises(ValueError):
        net.weights[0][0, 0] = 5.0


# --------------------------------------------------------------- one layer


def test_dense_forward_constant_layer():
    net = Network(
        specs=(LayerSpec(2, 1, Activation.TANH),),
        weights=(np.zeros((1, 2)),),
        biases=(np.array([0.7]),),
    )
    out = forward(net, np.ones((4, 2)))[0]
    assert np.allclose(out, math.tanh(0.7))


def test_dense_forward_rejects_bad_width():
    net = tiny_net([3, 2, 1])
    with pytest.raises(ShapeError):
        forward(net, np.ones((2, 4)))


def test_dropout_count_and_scaling():
    # 10 samples x 100 units = 1000 activations at f=0.15: the zeroed count
    # lands in a generous [100, 200] window, and survivors scale by 1/0.85
    spec = LayerSpec(1, 100, Activation.IDENTITY, dropout=0.15)
    net = Network(
        specs=(spec,),
        weights=(np.ones((100, 1)),),
        biases=(np.zeros(100),),
    )
    X = np.ones((10, 1))
    out = forward(net, X, mode=Mode.TRAIN, seed=21)[0]
    zeroed = int(np.sum(out == 0.0))
    assert 100 <= zeroed <= 200
    survivors = out[out != 0.0]
    assert np.allclose(survivors, 1.0 / 0.85)
    # inference applies neither mask nor scaling
    assert np.array_equal(forward(net, X, mode=Mode.INFER, seed=21)[0], np.ones((10, 100)))


def test_dropout_mask_expectation():
    # over many units the kept fraction concentrates around 1-f (3 sigma)
    spec = LayerSpec(1, 200, Activation.IDENTITY, dropout=0.15)
    net = Network(specs=(spec,), weights=(np.ones((200, 1)),), biases=(np.zeros(200),))
    X = np.ones((50, 1))
    out = forward(net, X, mode=Mode.TRAIN, seed=3)[0]
    n = out.size
    kept = int(np.sum(out != 0.0))
    p = 0.85
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(kept - n * p) < 3 * sigma


# --------------------------------------------------------------- forward


def test_forward_single_identity_layer_is_identity():
    net = Network(
        specs=(LayerSpec(2, 2, Activation.IDENTITY),),
        weights=(np.eye(2),),
        biases=(np.zeros(2),),
    )
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    out, tape = forward(net, X)
    assert np.array_equal(out, X)
    assert tape.output is out


def test_forward_train_mode_is_seed_deterministic():
    net = tiny_net([4, 8, 1], seed=2, dropout_last=0.3)
    X = np.random.default_rng(0).normal(size=(12, 4))
    a, _ = forward(net, X, mode=Mode.TRAIN, seed=77)
    b, _ = forward(net, X, mode=Mode.TRAIN, seed=77)
    c, _ = forward(net, X, mode=Mode.TRAIN, seed=78)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_forward_mask_depends_on_sample_id_not_position():
    # rows hashed under their global ids draw the same dropout mask whether
    # they arrive in a full batch or a shuffled subset (values agree up to
    # BLAS shape-dependent rounding, masks agree exactly)
    net = tiny_net([4, 8, 1], seed=2, dropout_last=0.4)
    X = np.random.default_rng(1).normal(size=(10, 4))
    full, full_tape = forward(net, X, mode=Mode.TRAIN, seed=5)
    subset = np.array([7, 2, 9])
    part, part_tape = forward(net, X[subset], mode=Mode.TRAIN, seed=5, sample_ids=subset)
    for ft, pt in zip(full_tape.traces, part_tape.traces):
        if ft.mask is not None:
            assert np.array_equal(ft.mask[subset], pt.mask)
    assert np.allclose(part, full[subset], rtol=1e-12, atol=0)


def test_forward_rejects_mismatched_sample_ids():
    net = tiny_net([4, 8, 1])
    with pytest.raises(ShapeError):
        forward(net, np.ones((3, 4)), mode=Mode.TRAIN, seed=0, sample_ids=[1, 2])


# --------------------------------------------------------------- sse_loss


def test_sse_known_values():
    assert sse_loss([1.0, 2.0], [0.0, 0.0]) == 5.0
    assert sse_loss([3.0], [0.0]) == 9.0
    assert sse_loss([1.5, -2.0], [1.5, -2.0]) == 0.0


def test_sse_shape_mismatch():
    with pytest.raises(ShapeError):
        sse_loss([1.0, 2.0], [1.0])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
)
def test_sse_additivity_over_concatenation(part_a, part_b):
    pa = np.asarray(part_a)
    pb = np.asarray(part_b)
    ta, tb = pa * 0.5, pb * -0.25
    whole = sse_loss(np.concatenate([pa, pb]), np.concatenate([ta, tb]))
    parts = sse_loss(pa, ta) + sse_loss(pb, tb)
    assert whole == pytest.approx(parts, rel=1e-12, abs=1e-12)


# --------------------------------------------------------------- backward


def test_backward_zero_gradient_at_exact_fit():
    net = Network(
        specs=(LayerSpec(1, 1, Activation.IDENTITY),),
        weights=(np.array([[1.0]]),),
        biases=(np.zeros(1),),
    )
    X = np.array([[0.3], [0.8]])
    out, tape = forward(net, X)
    g = backward(net, tape, X[:, 0])
    assert np.all(g.weights[0] == 0.0)
    assert np.all(g.biases[0] == 0.0)


def test_backward_linear_layer_closed_form():
    # single identity layer: dL/dG = 2(Gx+h-t) x^T, dL/dh = 2(Gx+h-t)
    G = np.array([[0.5, -1.0]])
    h = np.array([0.25])
    net = Network(specs=(LayerSpec(2, 1, Activation.IDENTITY),), weights=(G,), biases=(h,))
    x = np.array([[2.0, 3.0]])
    t = np.array([1.0])
    out, tape = forward(net, x)
    residual = out[0, 0] - t[0]
    g = backward(net, tape, t)
    assert np.allclose(g.weights[0], 2.0 * residual * x, rtol=0, atol=1e-12)
    assert np.allclose(g.biases[0], 2.0 * residual, rtol=0, atol=1e-12)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    net = tiny_net([3, 5, 1], seed=13)
    X = rng.normal(size=(6, 3))
    y = rng.normal(size=6)
    out, tape = forward(net, X, mode=Mode.TRAIN, seed=8)
    g = backward(net, tape, y)
    num_w, num_b = finite_diff_gradient(net, X, y, seed=8, mode=Mode.TRAIN)
    assert max_relative_error(list(g.weights) + list(g.biases), num_w + num_b) < 1e-4


def test_backward_with_dropout_matches_finite_differences():
    rng = np.random.default_rng(5)
    net = tiny_net([3, 6, 1], seed=14, dropout_last=0.4)
    X = rng.normal(size=(5, 3))
    y = rng.normal(size=5)
    out, tape = forward(net, X, mode=Mode.TRAIN, seed=9)
    g = backward(net, tape, y)
    num_w, num_b = finite_diff_gradient(net, X, y, seed=9, mode=Mode.TRAIN)
    assert max_relative_error(list(g.weights) + list(g.biases), num_w + num_b) < 1e-4


def test_backward_rejects_wrong_target_shape():
    net = tiny_net([2, 3, 1])
    out, tape = forward(net, np.ones((4, 2)))
    with pytest.raises(ShapeError):
        backward(net, tape, np.ones(3))


def test_backward_rejects_foreign_tape():
    net_a = tiny_net([2, 3, 1])
    net_b = tiny_net([2, 4, 1])
    _, tape = forward(net_a, np.ones((2, 2)))
    with pytest.raises(ShapeError):
        backward(net_b, tape, np.ones(2))


# --------------------------------------------------------------- adam


def test_adam_zero_gradient_leaves_parameters():
    net = tiny_net([2, 3, 1], seed=3)
    state = init_adam(net)
    zero = Gradient(
        weights=tuple(np.zeros_like(w) for w in net.weights),
        biases=tuple(np.zeros_like(b) for b in net.biases),
    )
    _, updated = adam_step(state, net, zero)
    for a, b in zip(net.weights, updated.weights):
        assert np.array_equal(a, b)


def test_adam_first_step_magnitude():
    # closed form for the first update with moment accumulators at zero:
    # eta_1 = (1-b1) g, delta_1 = (1-b2) g^2,
    # step = lr*sqrt(1-b2)/(1-b1) * eta_1/(sqrt(delta_1)+eps) ~= lr*sign(g)
    net = Network(
        specs=(LayerSpec(1, 1, Activation.IDENTITY),),
        weights=(np.array([[0.5]]),),
        biases=(np.array([0.0]),),
    )
    state = init_adam(net, step_size=0.01)
    g = Gradient(weights=(np.array([[1.0]]),), biases=(np.array([0.0]),))
    _, updated = adam_step(state, net, g)
    delta = abs(updated.weights[0][0, 0] - 0.5)
    assert abs(delta - 0.01) < 1e-6


def test_adam_step_size_nearly_gradient_scale_invariant():
    # the normalized update has |step| ~ lr regardless of gradient scale
    def one_step(gscale):
        net = Network(
            specs=(LayerSpec(1, 1, Activation.IDENTITY),),
            weights=(np.array([[0.0]]),),
            biases=(np.array([0.0]),),
        )
        g = Gradient(weights=(np.array([[gscale]]),), biases=(np.array([0.0]),))
        _, updated = adam_step(init_adam(net), net, g)
        return abs(updated.weights[0][0, 0])

    assert one_step(1.0) == pytest.approx(one_step(1000.0), rel=1e-5)


def test_adam_is_pure_and_deterministic():
    net = tiny_net([2, 4, 1], seed=6)
    state = init_adam(net)
    X = np.random.default_rng(2).normal(size=(5, 2))
    y = np.random.default_rng(3).normal(size=5)
    _, tape = forward(net, X, mode=Mode.TRAIN, seed=1)
    g = backward(net, tape, y)
    s1, n1 = adam_step(state, net, g)
    s2, n2 = adam_step(state, net, g)
    for a, b in zip(n1.weights, n2.weights):
        assert np.array_equal(a, b)
    assert state.steps == 0 and s1.steps == 1
    # original network untouched
    _, n3 = adam_step(s1, n1, g)
    for a, b in zip(n1.weights, net.weights):
        assert not np.array_equal(a, b)


def test_adam_rejects_mismatched_gradient():
    net = tiny_net([2, 3, 1])
    other = tiny_net([2, 4, 1])
    _, tape = forward(other, np.ones((2, 2)))
    g = backward(other, tape, np.ones(2))
    with pytest.raises(ShapeError):
        adam_step(init_adam(net), net, g)


# --------------------------------------------------------------- predict


class _Schema:
    def __init__(self, mean, std):
        self.label_mean = mean
        self.label_std = std


def test_predict_destandardizes():
    net = Network(
        specs=(LayerSpec(1, 1, Activation.IDENTITY),),
        weights=(np.array([[1.0]]),),
        biases=(np.zeros(1),),
    )
    X = np.array([[0.0], [1.0], [-1.0]])
    out = predict(net, X, _Schema(mean=10.0, std=2.0))
    assert np.allclose(out, [10.0, 12.0, 8.0])


def test_predict_ignores_dropout():
    net = tiny_net([3, 8, 1], seed=10, dropout_last=0.5)
    X = np.random.default_rng(4).normal(size=(6, 3))
    a = predict(net, X, _Schema(0.0, 1.0))
    b = predict(net, X, _Schema(0.0, 1.0))
    infer, _ = forward(net, X, mode=Mode.INFER)
    assert np.array_equal(a, b)
    assert np.array_equal(a, infer[:, 0])
