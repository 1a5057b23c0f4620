"""Channel plans, split/concat semantics, and the stage dataflow."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsnet.errors import ConfigError, ShapeError
from hsnet.hsblock import (
    ConvBn,
    HsBlockConfig,
    HsStage,
    channel_plan,
    concat_channels,
    hs_forward,
    split_channels,
)
from hsnet.layers import BatchNormState, Conv2dParams, batch_norm, conv2d, relu
from hsnet.network import Bottleneck, _make_block, preset
from hsnet.tensor import Rng, Tape, backward, from_array, randn, tensor_sum, zeros

from oracles import finite_difference, rel_error


class TestChannelPlan:
    def test_hand_case_s5_w4(self):
        p = channel_plan(HsBlockConfig(s=5, w=4))
        assert p.conv_in == (4, 6, 7, 7)
        assert p.fwd == (0, 2, 3, 3)
        assert p.out == (4, 2, 3, 4, 7)
        assert p.total_out == 20

    def test_hand_case_s2_w8(self):
        p = channel_plan(HsBlockConfig(s=2, w=8))
        assert p.conv_in == (8,)
        assert p.fwd == (0,)
        assert p.out == (8, 8)
        assert p.total_out == 16

    def test_hand_case_s6_w28(self):
        p = channel_plan(HsBlockConfig(s=6, w=28))
        assert p.conv_in == (28, 42, 49, 52, 54)
        assert p.fwd == (0, 14, 21, 24, 26)
        assert p.out == (28, 14, 21, 25, 26, 54)
        assert p.total_out == 168

    def test_s1_rejected(self):
        with pytest.raises(ConfigError):
            HsBlockConfig(s=1, w=4)

    def test_conservation_spot_checks(self):
        for s in (2, 3, 5, 8, 10):
            for w in (1, 2, 3, 17, 64):
                p = channel_plan(HsBlockConfig(s=s, w=w))
                assert p.total_out == s * w

    def test_floor_closed_form_all_widths(self):
        # conv_in[i] always equals floor(w * (2 - 2^(2-i))), floors included.
        for s in (4, 7, 10):
            for w in range(1, 65):
                p = channel_plan(HsBlockConfig(s=s, w=w))
                for i in range(2, s + 1):
                    assert p.conv_in[i - 2] == int(w * (2.0 - 2.0 ** (2 - i)))

    def test_split_first_variant_conserves(self):
        p = channel_plan(HsBlockConfig(s=4, w=6, variant="split-first"))
        assert p.fwd[0] == 3
        assert p.out[0] == 3
        assert p.total_out == 24

    def test_project_variant_width(self):
        p = channel_plan(HsBlockConfig(s=5, w=4, variant="project"))
        assert p.conv_out == (4, 4, 4, 4)
        assert p.total_out == 4 + 4 + 2 + 2 + 2  # 2w + (s-2)*ceil(w/2)

    def test_uneven_split_keeps_ceiling(self):
        p = channel_plan(HsBlockConfig(s=3, w=5))
        # group 2 conv sees 5 channels: keep 3 (ceil), forward 2 (floor)
        assert p.out[1] == 3 and p.fwd[1] == 2


class TestSplitConcat:
    def test_even_split_slices(self):
        x = randn((2, 20, 3, 3), Rng(0))
        parts = split_channels(x, [4] * 5)
        for i, part in enumerate(parts):
            assert part.dims == (2, 4, 3, 3)
            assert np.array_equal(part.data, x.data[:, 4 * i : 4 * (i + 1)])

    def test_uneven_split(self):
        x = randn((1, 7, 2, 2), Rng(1))
        a, b = split_channels(x, [4, 3])
        assert np.array_equal(a.data, x.data[:, :4])
        assert np.array_equal(b.data, x.data[:, 4:])

    def test_split_whole_is_identity(self):
        x = randn((1, 6, 2, 2), Rng(2))
        (only,) = split_channels(x, [6])
        assert np.array_equal(only.data, x.data)

    def test_split_sum_mismatch(self):
        with pytest.raises(ShapeError):
            split_channels(zeros((1, 7, 2, 2)), [4, 4])

    def test_concat_single_identity(self):
        x = randn((1, 3, 2, 2), Rng(3))
        assert np.array_equal(concat_channels([x]).data, x.data)

    def test_round_trip_bit_identical(self):
        x = randn((2, 9, 4, 4), Rng(4))
        widths = [2, 4, 3]
        parts = split_channels(x, widths)
        back = concat_channels(parts)
        assert np.array_equal(back.data, x.data)
        again = split_channels(back, widths)
        for p, q in zip(parts, again):
            assert np.array_equal(p.data, q.data)

    def test_concat_spatial_mismatch(self):
        with pytest.raises(ShapeError):
            concat_channels([zeros((1, 2, 3, 3)), zeros((1, 2, 4, 3))])

    def test_concat_gradient_routes_slices(self):
        rng = Rng(5)
        a = randn((1, 2, 3, 3), rng.child("a"), requires_grad=True)
        b = randn((1, 3, 3, 3), rng.child("b"), requires_grad=True)

        def value():
            joined = concat_channels([a, b])
            return tensor_sum(hsmul_probe(joined)).item()

        def hsmul_probe(t):
            from hsnet.tensor import mul

            return mul(t, t)

        with Tape() as tape:
            loss = tensor_sum(hsmul_probe(concat_channels([a, b])))
        backward(tape, loss)
        assert rel_error(a.grad, finite_difference(value, a.data)) < 1e-4
        assert rel_error(b.grad, finite_difference(value, b.data)) < 1e-4

    @settings(max_examples=40, deadline=None)
    @given(widths=st.lists(st.integers(0, 5), min_size=1, max_size=5))
    def test_round_trip_property(self, widths):
        total = sum(widths)
        if total == 0:
            return
        x = randn((1, total, 2, 2), Rng(sum(widths) + len(widths)))
        back = concat_channels(split_channels(x, widths))
        assert np.array_equal(back.data, x.data)


def identity_like_stage(cfg, rng_seed=0, positive=False, beta=0.0):
    """Stage with random weights and pass-through eval-mode batch norms."""
    plan = channel_plan(cfg)
    rng = Rng(rng_seed)
    units = []
    for i, (c_in, c_out) in enumerate(zip(plan.conv_in, plan.conv_out)):
        w = randn((c_out, c_in, cfg.k, cfg.k), rng.child(f"w{i}"), std=0.2)
        if positive:
            w = from_array(np.abs(w.data) + 0.01)
        conv = Conv2dParams(weight=w, stride=1, padding=cfg.k // 2)
        gamma = from_array(np.ones((1, c_out, 1, 1)))
        beta_t = from_array(np.full((1, c_out, 1, 1), float(beta)))
        bn = BatchNormState(gamma=gamma, beta=beta_t, eps=0.0)
        units.append(ConvBn(conv=conv, bn=bn))
    stage = HsStage(cfg, units)
    return stage, stage.plan


class TestHsForward:
    def test_channel_conservation_shape(self):
        cfg = HsBlockConfig(s=5, w=4)
        stage, plan = identity_like_stage(cfg)
        x = randn((2, 20, 8, 8), Rng(1))
        out = hs_forward(x, stage, mode="eval")
        assert out.dims == (2, 20, 8, 8)

    def test_s2_equals_half_identity_half_conv(self):
        cfg = HsBlockConfig(s=2, w=5)
        stage, plan = identity_like_stage(cfg, rng_seed=3)
        x = randn((2, 10, 6, 6), Rng(2))
        out = hs_forward(x, stage, mode="eval")

        # hand-built graph: identity on the first half, conv+bn+relu on the second
        x1, x2 = x.data[:, :5], x.data[:, 5:]
        unit = stage.units[0]
        y2 = relu(batch_norm(conv2d(from_array(x2), unit.conv), unit.bn, "eval"))
        expected = np.concatenate([x1, y2.data], axis=1)
        assert np.array_equal(out.data, expected)

    def test_wrong_channel_count(self):
        cfg = HsBlockConfig(s=3, w=4)
        stage, plan = identity_like_stage(cfg)
        with pytest.raises(ShapeError):
            hs_forward(randn((1, 13, 4, 4), Rng(0)), stage)

    @staticmethod
    def _changed_slices(stage, plan, x_base, group_to_zero):
        cfg = stage.cfg
        base = hs_forward(from_array(x_base), stage, mode="eval").data
        x_mod = x_base.copy()
        lo, hi = cfg.w * group_to_zero, cfg.w * (group_to_zero + 1)
        x_mod[:, lo:hi] = 0.0
        moded = hs_forward(from_array(x_mod), stage, mode="eval").data
        bounds = np.cumsum([0] + list(plan.out))
        changed = []
        for i in range(cfg.s):
            sl = slice(bounds[i], bounds[i + 1])
            if not np.array_equal(base[:, sl], moded[:, sl]):
                changed.append(i + 1)
        return changed

    def test_dependency_reach_canonical(self):
        # Group 1 feeds only its own slice; group i >= 2 reaches slices i..s;
        # the last group reaches only the last slice.
        cfg = HsBlockConfig(s=5, w=4)
        stage, plan = identity_like_stage(cfg, rng_seed=7, positive=True, beta=1.0)
        x = np.abs(Rng(9).standard_normal((1, 20, 6, 6))) + 0.05

        assert self._changed_slices(stage, plan, x, 0) == [1]
        assert self._changed_slices(stage, plan, x, 1) == [2, 3, 4, 5]
        assert self._changed_slices(stage, plan, x, 2) == [3, 4, 5]
        assert self._changed_slices(stage, plan, x, 4) == [5]

    def test_dependency_reach_split_first(self):
        # In the split-first variant group 1 also feeds everything downstream.
        cfg = HsBlockConfig(s=4, w=4, variant="split-first")
        stage, plan = identity_like_stage(cfg, rng_seed=8, positive=True, beta=1.0)
        x = np.abs(Rng(10).standard_normal((1, 16, 6, 6))) + 0.05
        assert self._changed_slices(stage, plan, x, 0) == [1, 2, 3, 4]

    def test_receptive_field_depth_structure(self):
        # With positive weights and active ReLUs, the spatial spread of an
        # impulse placed in group 2 grows by k//2 per chained convolution:
        # slice i has gone through i-1 convolutions, slice 1 through none.
        cfg = HsBlockConfig(s=5, w=4, k=3)
        stage, plan = identity_like_stage(cfg, rng_seed=11, positive=True)
        size = 17
        center = size // 2
        x = np.zeros((1, cfg.s * cfg.w, size, size))
        x[0, cfg.w : 2 * cfg.w, center, center] = 1.0

        out = hs_forward(from_array(x), stage, mode="eval").data
        bounds = np.cumsum([0] + list(plan.out))
        assert not out[:, bounds[0] : bounds[1]].any()  # slice 1 untouched
        for i in range(2, cfg.s + 1):
            sl = out[0, bounds[i - 1] : bounds[i]]
            nz = np.argwhere(sl.any(axis=0))
            radius = np.abs(nz - center).max()
            assert radius == (i - 1) * (cfg.k // 2)

    def test_forward_gradient_vs_finite_differences(self):
        cfg = HsBlockConfig(s=3, w=3)
        stage, plan = identity_like_stage(cfg, rng_seed=13)
        x = randn((1, 9, 4, 4), Rng(14), requires_grad=True)

        def value():
            return tensor_sum(hs_forward(x, stage, mode="eval")).item()

        with Tape() as tape:
            loss = tensor_sum(hs_forward(x, stage, mode="eval"))
        backward(tape, loss)
        assert rel_error(x.grad, finite_difference(value, x.data)) < 1e-4

    def test_conservation_random_configs(self):
        rng = Rng(99)
        for trial in range(25):
            s = int(rng.integers(2, 11))
            w = int(rng.integers(1, 33))
            variant = ["preserve", "split-first"][int(rng.integers(0, 2))]
            cfg = HsBlockConfig(s=s, w=w, variant=variant)
            stage, plan = identity_like_stage(cfg, rng_seed=trial)
            x = randn((1, s * w, 4, 4), rng.child(f"x{trial}"))
            out = hs_forward(x, stage, mode="eval")
            assert out.dims[1] == s * w


def hs_block(in_c, out_c, s, w, stride, seed):
    """A split bottleneck named 'blk' with unit final gamma, built as networks build theirs."""
    cfg = preset("tiny-hs")
    cfg.s, cfg.zero_init_gamma = s, False
    return _make_block(cfg, "blk", in_c, w, out_c, stride, Rng(seed), np.float64)


class TestHsBottleneck:
    def test_zero_expand_gives_relu_of_input(self):
        block = hs_block(16, 16, s=4, w=4, stride=1, seed=0)
        name, kind, expand = block.main[-1]
        assert (name, kind, block.shortcut) == ("blk.expand", "conv", [])
        expand.conv.weight.data[:] = 0.0
        x = randn((2, 16, 5, 5), Rng(1))
        out = block.forward(x, mode="train")
        np.testing.assert_allclose(out.data, np.maximum(x.data, 0.0), atol=1e-12)

    def test_stride_two_geometry(self):
        block = hs_block(64, 128, s=4, w=8, stride=2, seed=2)
        out = block.forward(randn((1, 64, 8, 8), Rng(3)), mode="train")
        assert out.dims == (1, 128, 4, 4)

    def test_identity_shortcut_requires_matching_dims(self):
        widening = hs_block(16, 32, s=2, w=8, stride=1, seed=4)
        with pytest.raises(ConfigError):
            Bottleneck("bad", 16, widening.main, [])
        striding = hs_block(16, 16, s=2, w=8, stride=2, seed=4)
        with pytest.raises(ConfigError):
            Bottleneck("bad", 16, striding.main, [])

    def test_backward_vs_finite_differences(self):
        block = hs_block(8, 8, s=3, w=2, stride=1, seed=5)
        x = randn((2, 8, 4, 4), Rng(6), requires_grad=True)

        def value():
            return tensor_sum(block.forward(x, mode="train")).item()

        with Tape() as tape:
            loss = tensor_sum(block.forward(x, mode="train"))
        backward(tape, loss)
        assert rel_error(x.grad, finite_difference(value, x.data)) < 1e-4

        # a couple of parameters too
        stage = next(unit for _, kind, unit in block.main if kind == "hs")
        w = stage.units[0].conv.weight
        assert rel_error(w.grad, finite_difference(value, w.data)) < 1e-4
