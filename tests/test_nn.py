import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedl.errors import ShapeError
from fedl.nn import (
    STEP_BLOCK_ROWS,
    Activation,
    Gradient,
    LayerSpec,
    Mode,
    Network,
    Workspace,
    adam_step,
    backward,
    forward,
    init_adam,
    init_network,
    predict,
    sse_loss,
)
from helpers import (
    finite_diff_gradient,
    from_layers,
    max_relative_error,
    reference_adam_step,
    reference_backward,
    reference_forward,
)


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


def test_network_rejects_an_empty_stack():
    with pytest.raises(ShapeError, match="at least one layer"):
        Network((), np.empty(0))
    with pytest.raises(ShapeError, match="at least one layer"):
        init_network([], seed=0)


def test_network_rejects_widths_that_do_not_chain():
    specs = (LayerSpec(3, 4), LayerSpec(5, 1))
    with pytest.raises(ShapeError, match="chain mismatch: 4 -> 5"):
        from_layers(
            Network,
            specs=specs,
            weights=(np.zeros((4, 3)), np.zeros((1, 5))),
            biases=(np.zeros(4), np.zeros(1)),
        )


def test_layer_spec_rejects_bad_dropout():
    with pytest.raises(ValueError):
        LayerSpec(2, 2, dropout=1.0)
    with pytest.raises(ShapeError):
        LayerSpec(0, 2)


def test_network_parameters_are_read_only():
    # every vector a Network, Gradient or AdamState holds, and every
    # weights/biases view of one: from init, backward, a site sum of one
    # block and of two, an aggregate, an Adam step and a model file
    from fedl.model_io import network_from_bytes, network_to_bytes
    from fedl.sim import _site_gradients, aggregate_gradients

    net = tiny_net([3, 4, 1], seed=1)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(STEP_BLOCK_ROWS + 5, 3))
    y = rng.normal(size=len(X))
    _, tape = forward(net, X[:7], mode=Mode.TRAIN)
    grad = backward(net, tape, y[:7])
    sites = [np.arange(7), np.arange(len(X))]  # one block, and two summed
    site_sums = [g for g, _ in _site_gradients(net, X, y, sites, 3)]
    aggregate = aggregate_gradients(site_sums)
    state, stepped = adam_step(init_adam(net), net, aggregate)
    loaded = network_from_bytes(network_to_bytes(stepped))
    arrays = [state.eta, state.delta]
    for p in (net, grad, *site_sums, aggregate, stepped, loaded):
        arrays += [p.params, *p.weights, *p.biases]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 5.0


def test_layers_are_views_of_one_vector_in_the_model_file_layout():
    specs = (LayerSpec(3, 2), LayerSpec(2, 1, Activation.IDENTITY))
    for cls in (Network, Gradient):
        p = cls(specs, np.arange(11.0))
        assert [w.tolist() for w in p.weights] == [[[0, 1, 2], [3, 4, 5]], [[8, 9]]]
        assert [b.tolist() for b in p.biases] == [[6, 7], [10]]
        for view in (*p.weights, *p.biases):
            assert np.shares_memory(view, p.params)
        with pytest.raises(ShapeError):
            cls(specs, np.arange(10.0))
        with pytest.raises(ShapeError):
            cls(specs, np.arange(11))


# --------------------------------------------------------------- one layer


def test_dense_forward_constant_layer():
    net = from_layers(
        Network,
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
    net = from_layers(
        Network,
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
    net = from_layers(Network, (spec,), (np.ones((200, 1)),), (np.zeros(200),))
    X = np.ones((50, 1))
    out = forward(net, X, mode=Mode.TRAIN, seed=3)[0]
    n = out.size
    kept = int(np.sum(out != 0.0))
    p = 0.85
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(kept - n * p) < 3 * sigma


# --------------------------------------------------------------- forward


def test_forward_single_identity_layer_is_identity():
    net = from_layers(
        Network,
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
    net = from_layers(
        Network,
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
    net = from_layers(Network, (LayerSpec(2, 1, Activation.IDENTITY),), (G,), (h,))
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


def test_backward_consumes_its_tape():
    # backward writes its partials over the tape's dead buffers, so a second
    # call on the same tape would differentiate overwritten values: it raises
    rng = np.random.default_rng(6)
    net = tiny_net([3, 4, 4, 1], seed=2, dropout_last=0.3)
    X = rng.normal(size=(7, 3))
    y = rng.normal(size=7)
    _, tape = forward(net, X, Mode.TRAIN, seed=3)
    assert not tape.consumed
    g = backward(net, tape, y)
    assert tape.consumed
    with pytest.raises(ValueError, match="consumed"):
        backward(net, tape, y)
    _, ref_tape = reference_forward(net, X, Mode.TRAIN, 3)
    ref_w, ref_b = reference_backward(net, ref_tape, y)
    for got, want in zip((*g.weights, *g.biases), (*ref_w, *ref_b)):
        assert got.tobytes() == want.tobytes()


@st.composite
def _buffer_stacks(draw):
    # widths from a small set, so that a layer's input and output widths are
    # sometimes equal (branch b) and sometimes not (branch c)
    depth = draw(st.integers(2, 5))
    widths = draw(st.lists(st.sampled_from([1, 2, 3, 5]), min_size=depth, max_size=depth))
    widths.append(1)
    specs = [
        LayerSpec(
            a, b,
            draw(st.sampled_from(list(Activation))),
            dropout=draw(st.sampled_from([0.0, 0.3])),
        )
        for a, b in zip(widths, widths[1:])
    ]
    return init_network(specs, draw(st.integers(0, 2**32 - 1)))


def test_backward_buffer_rule_matches_reference_bytes():
    # The partial with respect to layer l's inputs goes (a) over those inputs
    # when they are a dropout output, (b) else over layer l's activations
    # when they have the inputs' width, (c) else into a workspace array of
    # that width.  Either tape buffer then ends holding layer l-1's
    # pre-activation partial; only (c) and the output partial add arrays.
    taken = set()

    @settings(max_examples=60, deadline=None)
    @given(_buffer_stacks(), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def check(net, n, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, net.input_width))
        y = rng.normal(size=n)
        workspace = Workspace()
        _, tape = forward(net, X, Mode.TRAIN, seed, workspace=workspace)
        _, ref_tape = reference_forward(net, X, Mode.TRAIN, seed)
        branch, buffer = {}, {}
        for layer in range(1, len(net.specs)):
            spec, trace = net.specs[layer], tape.traces[layer]
            if tape.traces[layer - 1].mask is not None:
                branch[layer], buffer[layer] = "a", trace.inputs
            elif spec.output_width == spec.input_width:
                branch[layer], buffer[layer] = "b", trace.activated
            else:
                branch[layer] = "c"
        g = backward(net, tape, y, workspace=workspace)
        pre = {}
        ref_w, ref_b = reference_backward(net, ref_tape, y, pre_partials=pre)
        for got, want in zip((*g.weights, *g.biases), (*ref_w, *ref_b)):
            assert got.tobytes() == want.tobytes()
        for layer, array in buffer.items():
            assert array.tobytes() == pre[layer - 1].tobytes()
        partial_widths = {key[1] for key in workspace._arrays if key[0] == ("partial",)}
        assert partial_widths == {(net.output_width,)} | {
            (net.specs[layer].input_width,) for layer, b in branch.items() if b == "c"
        }
        taken.update(branch.values())

    check()
    assert taken == {"a", "b", "c"}


@st.composite
def _layer_stacks(draw):
    widths = draw(st.lists(st.integers(1, 12), min_size=2, max_size=4))
    widths[-1] = 1
    specs = [
        LayerSpec(
            a, b,
            draw(st.sampled_from(list(Activation))),
            dropout=draw(st.sampled_from([0.0, 0.15, 0.5, draw(st.floats(0.0, 0.95))])),
        )
        for a, b in zip(widths, widths[1:])
    ]
    return init_network(specs, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=40, deadline=None)
@given(
    _layer_stacks(),
    st.lists(st.integers(0, 1100), min_size=3, max_size=3),
    st.integers(0, 2**32 - 1),
)
def test_workspace_steps_match_fresh_reference_bytes(net, sizes, seed):
    # one workspace serves a shrinking then growing batch; every step must
    # give the fresh-allocating reference's bits (mask, order of operations
    # and GEMM operand shapes all unchanged)
    big, small, grown = sorted(sizes)[1], sorted(sizes)[0], sorted(sizes)[2] + 1
    rng = np.random.default_rng(seed)
    workspace = Workspace()
    for n in (big, small, grown):
        X = rng.normal(size=(n, net.input_width))
        y = rng.normal(size=n)
        ids = rng.integers(0, 2**62, size=n)
        out, tape = forward(net, X, Mode.TRAIN, seed, ids, workspace=workspace)
        ref_out, ref_tape = reference_forward(net, X, Mode.TRAIN, seed, ids)
        assert out.tobytes() == ref_out.tobytes()
        assert sse_loss(out[:, 0], y) == sse_loss(ref_out[:, 0], y)
        g = backward(net, tape, y, workspace=workspace)
        ref_w, ref_b = reference_backward(net, ref_tape, y)
        for got, want in zip((*g.weights, *g.biases), (*ref_w, *ref_b)):
            assert not got.flags.writeable
            assert got.tobytes() == want.tobytes()


def test_k1_product_plus_zero_matches_the_gemm_bytes():
    # backward forms the (n,1)@(1,k) partial as a product plus +0.0: a k=1
    # GEMM gives each entry as 0 + a*b, which differs from a*b only in
    # turning -0 into +0
    rng = np.random.default_rng(12)
    pool = np.array([
        0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e-200, -1e-200,
        1e200, -1e200, 1.0, -1.5, np.inf, -np.inf,
    ])
    signed_zeros = 0
    for _ in range(200):
        n, k = int(rng.integers(1, 300)), int(rng.integers(1, 70))
        a = np.where(rng.random((n, 1)) < 0.5, rng.choice(pool, (n, 1)),
                     rng.normal(size=(n, 1)) * 10.0 ** rng.integers(-300, 300, (n, 1)))
        b = np.where(rng.random((1, k)) < 0.5, rng.choice(pool, (1, k)),
                     rng.normal(size=(1, k)) * 10.0 ** rng.integers(-300, 300, (1, k)))
        with np.errstate(all="ignore"):
            gemm = a @ b
            product = np.multiply(a, b)
            signed_zeros += int(np.signbit(product[product == 0]).sum())
            np.add(product, 0.0, out=product)
        assert product.tobytes() == gemm.tobytes()
    assert signed_zeros > 0  # the +0.0 is needed


# --------------------------------------------------------------- adam


def test_adam_zero_gradient_leaves_parameters():
    net = tiny_net([2, 3, 1], seed=3)
    state = init_adam(net)
    zero = from_layers(
        Gradient,
        net.specs,
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
    net = from_layers(
        Network,
        specs=(LayerSpec(1, 1, Activation.IDENTITY),),
        weights=(np.array([[0.5]]),),
        biases=(np.array([0.0]),),
    )
    state = init_adam(net, step_size=0.01)
    g = from_layers(Gradient, net.specs, (np.array([[1.0]]),), (np.array([0.0]),))
    _, updated = adam_step(state, net, g)
    delta = abs(updated.weights[0][0, 0] - 0.5)
    assert abs(delta - 0.01) < 1e-6


def test_adam_step_size_nearly_gradient_scale_invariant():
    # the normalized update has |step| ~ lr regardless of gradient scale
    def one_step(gscale):
        net = from_layers(
            Network,
            specs=(LayerSpec(1, 1, Activation.IDENTITY),),
            weights=(np.array([[0.0]]),),
            biases=(np.array([0.0]),),
        )
        g = from_layers(
            Gradient,
            net.specs, weights=(np.array([[gscale]]),), biases=(np.array([0.0]),)
        )
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


def test_adam_step_matches_the_per_array_reference_bit_for_bit():
    # gradients holding +-0.0 and subnormals, whose moments and updates
    # round at the bottom of the range, over several steps
    net = tiny_net([3, 5, 1], seed=8)
    state = init_adam(net, step_size=0.05)
    ref = [[np.zeros_like(a) for a in (*net.weights, *net.biases)]] * 2
    ref_params = [*net.weights, *net.biases]
    rng = np.random.default_rng(12)
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1e-315, 1e-300]
    for t in range(1, 7):
        n = net.params.size
        g = rng.normal(size=n) * 10.0 ** rng.integers(-8, 3, size=n)
        g[rng.choice(g.size, size=len(specials), replace=False)] = specials
        grad = Gradient(net.specs, g)
        state, net = adam_step(state, net, grad)
        *ref, ref_params = reference_adam_step(
            *ref, ref_params, [*grad.weights, *grad.biases], state.step_size, t
        )
        for vector, arrays in zip((state.eta, state.delta, net.params), (*ref, ref_params)):
            views = Network(net.specs, vector)
            for view, a in zip((*views.weights, *views.biases), arrays):
                assert view.tobytes() == a.tobytes()
    assert state.steps == 6


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
    net = from_layers(
        Network,
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


@pytest.mark.parametrize("rows", [0, 1, 2047, 2048, 2049, 4097])
def test_predict_in_blocks_matches_one_reference_pass_bytes(rows):
    # blocks of STEP_BLOCK_ROWS rows, one full and one partial at 2049 and
    # 4097, give the bits of one inference pass over every row
    net = tiny_net([90, 64, 64, 1], seed=3, dropout_last=0.15)
    X = np.random.default_rng(rows).normal(size=(rows, 90))
    schema = _Schema(mean=7.25, std=3.5)
    ref_out, _ = reference_forward(net, X, Mode.INFER)
    expected = ref_out[:, 0] * schema.label_std + schema.label_mean
    got = predict(net, X, schema)
    assert got.shape == (rows,)
    assert got.tobytes() == expected.tobytes()


def test_predict_rejects_rows_of_the_wrong_width_even_when_empty():
    net = tiny_net([3, 4, 1])
    for rows in (0, 5):
        with pytest.raises(ShapeError, match="width 3"):
            predict(net, np.zeros((rows, 4)), _Schema(0.0, 1.0))


def test_predict_scratch_holds_one_block():
    # one pass over all 10,000 rows would hold two 10,000x64 activations,
    # 10.0 MiB; a block's are 2048x64 each
    net = tiny_net([90, 64, 64, 1], seed=1, dropout_last=0.15)
    X = np.random.default_rng(0).normal(size=(10_000, 90))
    tracemalloc.start()
    try:
        predict(net, X, _Schema(0.0, 1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20
