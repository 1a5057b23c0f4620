"""Network construction, determinism, geometry, and end-to-end gradients."""

import numpy as np
import pytest

from hsnet.data import smooth_labels
from hsnet.errors import ConfigError, IncompatibilityError, ShapeError
from hsnet.gradcheck import gradcheck
from hsnet.hsblock import HsStage, channel_plan
from hsnet.layers import softmax_cross_entropy
from hsnet.network import build, preset
from hsnet.tensor import Rng, Tape, Tensor4, backward

TINY = preset("tiny-hs")


class TestConfigValidation:
    def test_unknown_block_type(self):
        cfg = preset("tiny-hs")
        cfg.block_type = "dense"
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_hs_needs_s(self):
        cfg = preset("tiny-hs")
        cfg.s = 1
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_custom_width_rule_length(self):
        cfg = preset("tiny-hs")
        cfg.width_rule = (4, 8)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_custom_width_rule_applies(self):
        cfg = preset("tiny-hs")
        cfg.width_rule = (4, 4, 8, 8)
        assert cfg.stage_widths() == (4, 4, 8, 8)

    def test_double_per_stage_rule(self):
        assert preset("tiny-hs").stage_widths() == (4, 8, 16, 32)
        assert preset("resnet50").stage_out_channels() == (256, 512, 1024, 2048)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("resnet5000")


class TestBuild:
    def test_rebuild_is_bit_identical(self):
        a = build(TINY, Rng(11), dtype=np.float64)
        b = build(TINY, Rng(11), dtype=np.float64)
        for (name_a, pa), (name_b, pb) in zip(
            a.parameters().items(), b.parameters().items()
        ):
            assert name_a == name_b
            assert np.array_equal(pa.data, pb.data), name_a

    def test_different_seed_differs(self):
        a = build(TINY, Rng(1), dtype=np.float32)
        b = build(TINY, Rng(2), dtype=np.float32)
        assert not np.array_equal(
            a.parameters()["stem.conv1.conv.weight"].data,
            b.parameters()["stem.conv1.conv.weight"].data,
        )

    def test_parameter_names_unique_and_stable(self):
        net = build(TINY, rng=None)
        names = list(net.parameters())
        assert len(names) == len(set(names))
        assert names == list(build(TINY, rng=None).parameters())

    def test_resnet50_parameter_count(self):
        net = build(preset("resnet50"), rng=None, dtype=np.float32)
        assert net.param_count() == 25_557_032
        assert abs(net.param_count() - 25.56e6) / 25.56e6 < 0.01

    def test_hs_preset_stage_plans_conserve(self):
        cfg = preset("hs-resnet50-28w-6s")
        net = build(cfg, rng=None, dtype=np.float32)
        stages = [unit for block in net.blocks for _, kind, unit in block.main if kind == "hs"]
        assert len(stages) == len(net.blocks) == sum(cfg.stage_blocks)
        for stage in stages:
            assert isinstance(stage, HsStage)
            plan = channel_plan(stage.cfg)
            assert plan.total_out == stage.cfg.s * stage.cfg.w

    def test_all_published_presets_build(self):
        for name in (
            "hs-resnet50-18w-8s",
            "hs-resnet50-22w-7s",
            "hs-resnet50-28w-6s",
            "hs-resnet50-40w-5s",
        ):
            net = build(preset(name), rng=None, dtype=np.float32)
            assert net.param_count() > 0

    def test_zero_gamma_flag(self):
        with_flag = build(TINY, Rng(0), dtype=np.float32)
        assert not with_flag.parameters()["s1.b1.expand.bn.gamma"].data.any()
        cfg = preset("tiny-hs")
        cfg.zero_init_gamma = False
        without = build(cfg, Rng(0), dtype=np.float32)
        assert without.parameters()["s1.b1.expand.bn.gamma"].data.all()


class TestForward:
    def test_tiny_forward_shape_and_finiteness(self):
        net = build(TINY, Rng(3), dtype=np.float64)
        x = Tensor4(Rng(4).standard_normal((2, 3, 32, 32)))
        logits = net.forward(x, mode="train")
        assert logits.dims == (2, 10, 1, 1)
        assert np.isfinite(logits.data).all()

    def test_eval_mode_is_pure(self):
        net = build(TINY, Rng(5), dtype=np.float64)
        x = Tensor4(Rng(6).standard_normal((2, 3, 32, 32)))
        a = net.forward(x, mode="eval")
        b = net.forward(x, mode="eval")
        assert np.array_equal(a.data, b.data)

    def test_batch_independence_in_eval(self):
        net = build(TINY, Rng(7), dtype=np.float64)
        one = Rng(8).standard_normal((1, 3, 32, 32))
        two = np.concatenate([one, one])
        la = net.forward(Tensor4(one), mode="eval").data
        lb = net.forward(Tensor4(two), mode="eval").data
        assert np.array_equal(lb[0], la[0])
        assert np.array_equal(lb[1], la[0])

    def test_input_dims_must_match_config(self):
        net = build(TINY, rng=None)
        with pytest.raises(ShapeError):
            net.forward(Tensor4(np.zeros((1, 3, 16, 16))), mode="eval")

    def test_classic_stem_geometry(self):
        cfg = preset("resnet50")
        cfg.image_size = 64
        net = build(cfg, Rng(9), dtype=np.float32)
        x = Tensor4(np.zeros((1, 3, 64, 64), dtype=np.float32))
        assert net.forward(x, mode="eval").dims == (1, 1000, 1, 1)


class TestStateRoundTrip:
    def test_load_state_round_trip(self):
        net = build(TINY, Rng(10), dtype=np.float32)
        state = {k: v.copy() for k, v in net.state_arrays().items()}
        other = build(TINY, Rng(99), dtype=np.float32)
        other.load_state(state)
        for name, arr in other.state_arrays().items():
            assert np.array_equal(arr, state[name]), name

    def test_load_state_rejects_missing_keys(self):
        net = build(TINY, Rng(0), dtype=np.float32)
        state = dict(net.state_arrays())
        state.pop("head.fc.bias")
        with pytest.raises(IncompatibilityError):
            net.load_state(state)

    def test_load_state_rejects_wrong_shape(self):
        net = build(TINY, Rng(0), dtype=np.float32)
        state = dict(net.state_arrays())
        state["head.fc.bias"] = np.zeros((1, 7, 1, 1), dtype=np.float32)
        with pytest.raises(IncompatibilityError):
            net.load_state(state)


class TestEndToEndGradients:
    def test_gradcheck_small_sample(self):
        report = gradcheck(TINY, samples=6, seed=1)
        assert report.passed, max(report.rows, key=lambda r: r.rel_error)

    def test_loss_backward_reaches_all_parameters(self):
        cfg = preset("tiny-hs")
        cfg.zero_init_gamma = False
        net = build(cfg, Rng(12), dtype=np.float64)
        x = Tensor4(Rng(13).standard_normal((2, 3, 32, 32)))
        targets = smooth_labels(np.array([0, 3]), 10, 0.1)
        net.zero_grads()
        with Tape() as tape:
            out = softmax_cross_entropy(net.forward(x, mode="train"), targets)
        backward(tape, out.scalar)
        missing = [n for n, p in net.parameters().items() if p.grad is None]
        assert missing == []
