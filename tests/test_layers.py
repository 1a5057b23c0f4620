"""Layer forward rules, backward rules, and the direct-convolution oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsnet.errors import DegenerateStatsError, GeometryError, ShapeError
from hsnet.layers import (
    BatchNormState,
    Conv2dParams,
    avg_pool,
    batch_norm,
    conv2d,
    conv_output_size,
    global_avg_pool,
    linear,
    max_pool,
    relu,
    softmax_cross_entropy,
)
from hsnet.tensor import Rng, Tape, backward, from_array, randn, tensor_sum, zeros

from oracles import direct_conv2d, finite_difference, rel_error


def conv_params(weight, bias=None, stride=1, padding=0, grad=True):
    w = from_array(weight, requires_grad=grad)
    b = from_array(bias, requires_grad=grad) if bias is not None else None
    return Conv2dParams(weight=w, bias=b, stride=stride, padding=padding)


class TestConv2d:
    def test_ones_kernel_hand_case(self):
        x = from_array(np.ones((1, 1, 3, 3)))
        p = conv_params(np.ones((1, 1, 3, 3)), padding=1)
        out = conv2d(x, p)
        expected = [[4, 6, 4], [6, 9, 6], [4, 6, 4]]
        np.testing.assert_array_equal(out.data[0, 0], expected)

    def test_identity_1x1_kernel(self):
        x = randn((2, 1, 4, 5), Rng(0))
        p = conv_params(np.ones((1, 1, 1, 1)))
        assert np.array_equal(conv2d(x, p).data, x.data)

    def test_matches_direct_oracle_exactly(self):
        rng = Rng(17)
        x = randn((2, 2, 6, 7), rng.child("x"))
        w = randn((3, 2, 3, 3), rng.child("w"))
        p = conv_params(w.data, stride=2, padding=1)
        out = conv2d(x, p)
        ref = direct_conv2d(x.data, w.data, stride=2, padding=1)
        assert np.array_equal(out.data, ref)

    def test_bias_matches_oracle(self):
        rng = Rng(18)
        x = randn((1, 3, 5, 5), rng.child("x"))
        w = randn((2, 3, 3, 3), rng.child("w"))
        b = randn((1, 2, 1, 1), rng.child("b"))
        p = conv_params(w.data, bias=b.data, padding=1)
        ref = direct_conv2d(x.data, w.data, padding=1, bias=b.data.reshape(-1))
        np.testing.assert_allclose(conv2d(x, p).data, ref, rtol=0, atol=0)

    def test_channel_mismatch(self):
        x = zeros((1, 3, 4, 4))
        p = conv_params(np.ones((1, 2, 3, 3)))
        with pytest.raises(ShapeError):
            conv2d(x, p)

    def test_geometry_error(self):
        x = zeros((1, 1, 2, 2))
        p = conv_params(np.ones((1, 1, 5, 5)))
        with pytest.raises(GeometryError):
            conv2d(x, p)

    def test_rectangular_kernel_rejected(self):
        with pytest.raises(ShapeError):
            Conv2dParams(weight=zeros((1, 1, 3, 5)))

    def test_gradients_vs_finite_differences(self):
        rng = Rng(19)
        x = randn((2, 2, 5, 5), rng.child("x"), requires_grad=True)
        w = randn((3, 2, 3, 3), rng.child("w"), requires_grad=True)
        b = randn((1, 3, 1, 1), rng.child("b"), requires_grad=True)
        p = Conv2dParams(weight=w, bias=b, stride=2, padding=1)

        def value():
            return tensor_sum(relu(conv2d(x, p))).item()

        with Tape() as tape:
            loss = tensor_sum(relu(conv2d(x, p)))
        backward(tape, loss)

        assert rel_error(x.grad, finite_difference(value, x.data)) < 1e-4
        assert rel_error(w.grad, finite_difference(value, w.data)) < 1e-4
        assert rel_error(b.grad, finite_difference(value, b.data)) < 1e-4

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(3, 9), w=st.integers(3, 9), k=st.sampled_from([1, 3, 5]),
        stride=st.integers(1, 2), pad=st.integers(0, 2),
    )
    def test_shape_formula_property(self, h, w, k, stride, pad):
        x = zeros((1, 1, h, w))
        p = conv_params(np.ones((1, 1, k, k)), stride=stride, padding=pad)
        oh = conv_output_size(h, k, stride, pad)
        ow = conv_output_size(w, k, stride, pad)
        if oh < 1 or ow < 1:
            with pytest.raises(GeometryError):
                conv2d(x, p)
        else:
            assert conv2d(x, p).dims == (1, 1, oh, ow)


def make_bn(c, gamma=1.0, beta=0.0, mean=None, var=None, eps=1e-5, grad=True):
    g = from_array(np.full((1, c, 1, 1), float(gamma)), requires_grad=grad)
    b = from_array(np.full((1, c, 1, 1), float(beta)), requires_grad=grad)
    state = BatchNormState(gamma=g, beta=b, eps=eps)
    if mean is not None:
        state.running_mean = np.asarray(mean, dtype=np.float64)
    if var is not None:
        state.running_var = np.asarray(var, dtype=np.float64)
    return state


class TestBatchNorm:
    def test_eval_hand_case(self):
        x = from_array(np.array([1.0, 2.0, 3.0]).reshape(1, 1, 1, 3))
        state = make_bn(1, mean=[2.0], var=[2.0 / 3.0], eps=0.0)
        out = batch_norm(x, state, "eval")
        np.testing.assert_allclose(
            out.data.reshape(-1), [-1.2247, 0.0, 1.2247], atol=1e-4
        )

    def test_zero_gamma_gives_beta(self):
        x = randn((2, 3, 4, 4), Rng(1))
        state = make_bn(3, gamma=0.0, beta=0.25)
        out = batch_norm(x, state, "train")
        np.testing.assert_array_equal(out.data, np.full(x.dims, 0.25))

    def test_train_normalizes_batch(self):
        x = randn((4, 3, 5, 5), Rng(2))
        out = batch_norm(x, make_bn(3), "train")
        mean = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, 0.0, atol=1e-6)
        np.testing.assert_allclose(var, 1.0, atol=1e-4)

    def test_train_updates_running_stats(self):
        x = randn((4, 2, 3, 3), Rng(3))
        state = make_bn(2)
        before = state.running_mean.copy()
        batch_norm(x, state, "train")
        assert not np.array_equal(state.running_mean, before)

    def test_eval_is_pure(self):
        x = randn((2, 2, 3, 3), Rng(4))
        state = make_bn(2, mean=[0.1, -0.2], var=[1.5, 0.5])
        rm, rv = state.running_mean.copy(), state.running_var.copy()
        a = batch_norm(x, state, "eval")
        b = batch_norm(x, state, "eval")
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(state.running_mean, rm)
        assert np.array_equal(state.running_var, rv)

    def test_degenerate_stats(self):
        x = zeros((1, 3, 1, 1))
        with pytest.raises(DegenerateStatsError):
            batch_norm(x, make_bn(3), "train")

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            batch_norm(zeros((1, 4, 2, 2)), make_bn(3), "eval")

    def test_train_gradients_vs_finite_differences(self):
        x = randn((3, 2, 3, 3), Rng(5), requires_grad=True)
        state = make_bn(2, gamma=1.3, beta=-0.2)

        def value():
            return tensor_sum(relu(batch_norm(x, state, "train"))).item()

        with Tape() as tape:
            loss = tensor_sum(relu(batch_norm(x, state, "train")))
        backward(tape, loss)

        assert rel_error(x.grad, finite_difference(value, x.data)) < 1e-4
        assert rel_error(state.gamma.grad, finite_difference(value, state.gamma.data)) < 1e-4
        assert rel_error(state.beta.grad, finite_difference(value, state.beta.data)) < 1e-4


class TestRelu:
    def test_all_negative_gives_zeros(self):
        x = from_array(-np.abs(randn((1, 2, 3, 3), Rng(0)).data) - 0.1)
        assert not relu(x).data.any()

    def test_all_positive_is_identity(self):
        x = from_array(np.abs(randn((1, 2, 3, 3), Rng(1)).data) + 0.1)
        assert np.array_equal(relu(x).data, x.data)

    def test_gradient_off_the_kink(self):
        raw = randn((1, 2, 4, 4), Rng(2)).data
        raw[np.abs(raw) < 0.05] += 0.1  # keep entries away from 0
        x = from_array(raw, requires_grad=True)

        def value():
            return tensor_sum(relu(x)).item()

        with Tape() as tape:
            loss = tensor_sum(relu(x))
        backward(tape, loss)
        assert rel_error(x.grad, finite_difference(value, x.data)) < 1e-4


class TestPooling:
    def test_avg_pool_constant_invariance(self):
        x = from_array(np.full((1, 2, 4, 4), 3.5))
        out = avg_pool(x, 2, 2)
        np.testing.assert_array_equal(out.data, np.full((1, 2, 2, 2), 3.5))

    def test_hand_case_2x2(self):
        x = from_array(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        assert avg_pool(x, 2, 2).data.reshape(-1)[0] == 2.5
        assert max_pool(x, 2, 2).data.reshape(-1)[0] == 4.0

    def test_global_avg_pool_identity_on_1x1(self):
        x = randn((1, 5, 1, 1), Rng(0))
        assert np.array_equal(global_avg_pool(x).data, x.data)

    def test_pool_geometry_error(self):
        with pytest.raises(GeometryError):
            avg_pool(zeros((1, 1, 2, 2)), 3, 1)

    def test_max_pool_stem_geometry(self):
        out = max_pool(randn((1, 2, 16, 16), Rng(1)), 3, 2, padding=1)
        assert out.dims == (1, 2, 8, 8)

    def test_pool_gradients_vs_finite_differences(self):
        x = randn((1, 2, 6, 6), Rng(3), requires_grad=True)

        for op, kwargs in [
            (avg_pool, dict(k=2, stride=2)),
            (avg_pool, dict(k=3, stride=1)),
            (max_pool, dict(k=2, stride=2)),
            (global_avg_pool, {}),
        ]:
            x.grad = None

            def value():
                return tensor_sum(op(x, **kwargs)).item()

            with Tape() as tape:
                loss = tensor_sum(op(x, **kwargs))
            backward(tape, loss)
            assert rel_error(x.grad, finite_difference(value, x.data)) < 1e-4, op.__name__

    @settings(max_examples=40, deadline=None)
    @given(h=st.integers(2, 9), k=st.integers(1, 4), stride=st.integers(1, 3))
    def test_pool_shape_formula_property(self, h, k, stride):
        x = zeros((1, 1, h, h))
        expected = conv_output_size(h, k, stride, 0)
        if expected < 1:
            with pytest.raises(GeometryError):
                avg_pool(x, k, stride)
        else:
            assert avg_pool(x, k, stride).dims == (1, 1, expected, expected)


class TestLinear:
    def test_identity_weight(self):
        x = randn((3, 4, 1, 1), Rng(0))
        w = from_array(np.eye(4).reshape(4, 4, 1, 1))
        b = zeros((1, 4, 1, 1))
        assert np.array_equal(linear(x, w, b).data, x.data)

    def test_zero_weight_broadcasts_bias(self):
        x = randn((3, 4, 1, 1), Rng(1))
        w = zeros((2, 4, 1, 1))
        b = from_array(np.array([1.5, -2.0]).reshape(1, 2, 1, 1))
        out = linear(x, w, b)
        np.testing.assert_array_equal(out.data, np.tile(b.data, (3, 1, 1, 1)))

    def test_flattens_spatial_input(self):
        x = randn((2, 3, 2, 2), Rng(2))
        w = randn((5, 12, 1, 1), Rng(3))
        out = linear(x, w, None)
        ref = x.data.reshape(2, 12) @ w.data.reshape(5, 12).T
        np.testing.assert_allclose(out.data.reshape(2, 5), ref, rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            linear(zeros((1, 3, 1, 1)), zeros((2, 4, 1, 1)))

    def test_gradients_vs_finite_differences(self):
        rng = Rng(4)
        x = randn((2, 3, 2, 2), rng.child("x"), requires_grad=True)
        w = randn((4, 12, 1, 1), rng.child("w"), requires_grad=True)
        b = randn((1, 4, 1, 1), rng.child("b"), requires_grad=True)

        def value():
            return tensor_sum(linear(x, w, b)).item()

        with Tape() as tape:
            loss = tensor_sum(linear(x, w, b))
        backward(tape, loss)
        assert rel_error(x.grad, finite_difference(value, x.data)) < 1e-4
        assert rel_error(w.grad, finite_difference(value, w.data)) < 1e-4
        assert rel_error(b.grad, finite_difference(value, b.data)) < 1e-4


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_one_hot_target(self):
        logits = zeros((2, 4, 1, 1))
        target = np.zeros((2, 4))
        target[:, 1] = 1.0
        out = softmax_cross_entropy(logits, target)
        assert abs(out.value - np.log(4.0)) < 1e-12

    def test_stationary_at_matching_target(self):
        logits = zeros((3, 4, 1, 1), requires_grad=True)  # softmax is exactly 0.25 everywhere
        target = np.full((3, 4), 0.25)
        with Tape() as tape:
            out = softmax_cross_entropy(logits, target)
        backward(tape, out.scalar)
        assert not logits.grad.any()

    def test_invalid_target_distribution(self):
        logits = zeros((1, 3, 1, 1))
        with pytest.raises(ValueError):
            softmax_cross_entropy(logits, np.array([[0.5, 0.6, 0.1]]))
        with pytest.raises(ValueError):
            softmax_cross_entropy(logits, np.array([[1.2, -0.2, 0.0]]))

    def test_loss_nonnegative(self):
        rng = Rng(6)
        logits = randn((4, 5, 1, 1), rng.child("l"))
        labels = rng.child("y").integers(0, 5, size=4)
        target = np.zeros((4, 5))
        target[np.arange(4), labels] = 1.0
        assert softmax_cross_entropy(logits, target).value >= 0.0

    def test_gradient_identity_vs_finite_differences(self):
        rng = Rng(7)
        logits = randn((3, 4, 1, 1), rng.child("l"), requires_grad=True)
        target = np.full((3, 4), 0.25)
        target[:, 0] = 0.55
        target[:, 1] = 0.05
        target[:, 2:] = 0.2

        def value():
            return softmax_cross_entropy(logits, target).value

        with Tape() as tape:
            out = softmax_cross_entropy(logits, target)
        backward(tape, out.scalar)

        fd = finite_difference(value, logits.data)
        assert rel_error(logits.grad, fd) < 1e-4
        z = logits.data.reshape(3, 4)
        softmax = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        expected = ((softmax - target) / 3).reshape(3, 4, 1, 1)
        np.testing.assert_allclose(logits.grad, expected, rtol=1e-12)
