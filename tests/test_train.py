"""Schedule, optimizer, checkpoints, and short end-to-end training runs."""

import errno
import json
from pathlib import Path

import numpy as np
import pytest

from hsnet import checkpoint
from hsnet.data import synth_blobs
from hsnet.errors import (
    ConfigError,
    CorruptionError,
    FormatError,
    IncompatibilityError,
    NumericsError,
)
from hsnet.network import build, preset
from hsnet.tensor import Rng
from hsnet.train import (
    DataConfig,
    _load_datasets,
    TrainConfig,
    cosine_lr,
    evaluate,
    load_network_checkpoint,
    net_checkpoint_state,
    sgd_step,
    train,
)

from oracles import sgd_scalar_steps


def tiny_train_config(tmp_seed=42, epochs=2, **overrides):
    cfg = TrainConfig(
        network=preset("tiny-hs"),
        data=DataConfig(kind="synth", k=10, n_per_class=30, n_eval_per_class=5),
        seed=tmp_seed,
        epochs=epochs,
        batch_size=64,
        base_lr=0.05,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 0.4) == 0.4
        assert abs(cosine_lr(50, 100, 0.4) - 0.2) < 1e-15
        assert abs(cosine_lr(100, 100, 0.4)) < 1e-16

    def test_monotone_decay(self):
        values = [cosine_lr(t, 30, 0.1) for t in range(31)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cosine_lr(11, 10, 0.1)
        with pytest.raises(ValueError):
            cosine_lr(-1, 10, 0.1)
        with pytest.raises(ValueError):
            cosine_lr(0, 0, 0.1)


class TestSgd:
    def test_reduces_to_plain_gradient_descent(self):
        p = np.array([1.0, -2.0])
        v = np.zeros(2)
        sgd_step([p], [np.array([0.5, 0.5])], [v], lr=0.1, momentum=0.0, weight_decay=0.0)
        np.testing.assert_allclose(p, [0.95, -2.05], rtol=1e-015)

    def test_zero_grad_zero_velocity_is_fixed_point(self):
        p = np.array([3.0])
        sgd_step([p], [np.zeros(1)], [np.zeros(1)], lr=0.1, momentum=0.9, weight_decay=0.0)
        assert p[0] == 3.0

    def test_two_steps_match_scalar_simulator(self):
        # f(x) = x^2/2 so grad = x; start at 1 with lr 0.1, momentum 0.9
        expected = sgd_scalar_steps(1.0, lambda x: x, lr=0.1, momentum=0.9,
                                    weight_decay=0.0, steps=2)
        p = np.array([1.0])
        v = np.zeros(1)
        for step in range(2):
            sgd_step([p], [p.copy()], [v], lr=0.1, momentum=0.9, weight_decay=0.0)
            np.testing.assert_allclose([p[0], v[0]], expected[step], rtol=1e-15)
        assert abs(p[0] - 0.72) < 1e-15

    def test_weight_decay_term(self):
        expected = sgd_scalar_steps(2.0, lambda x: 0.0, lr=0.1, momentum=0.5,
                                    weight_decay=0.01, steps=3)
        p = np.array([2.0])
        v = np.zeros(1)
        for step in range(3):
            sgd_step([p], [np.zeros(1)], [v], lr=0.1, momentum=0.5, weight_decay=0.01)
            np.testing.assert_allclose([p[0], v[0]], expected[step], rtol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sgd_step([np.zeros(2)], [np.zeros(3)], [np.zeros(2)], 0.1, 0.9, 0.0)


class TestCheckpointFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        net = build(preset("tiny-hs"), Rng(1), dtype=np.float32)
        path = tmp_path / "net.ckpt"
        checkpoint.save(path, net_checkpoint_state(net))
        loaded = checkpoint.load(path)
        for name, arr in net.state_arrays().items():
            assert np.array_equal(loaded[name], arr.astype(np.float32)), name

    def test_corruption_detected(self, tmp_path):
        net = build(preset("tiny-hs"), Rng(2), dtype=np.float32)
        path = tmp_path / "net.ckpt"
        checkpoint.save(path, net_checkpoint_state(net))
        raw = bytearray(path.read_bytes())
        raw[100] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError):
            checkpoint.load(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "short.ckpt"
        path.write_bytes(b"HSNT\x01")
        with pytest.raises(FormatError):
            checkpoint.load(path)

    def test_bad_magic_rejected(self, tmp_path):
        import struct
        import zlib

        body = b"XXXX" + struct.pack("<II", 1, 0)
        path = tmp_path / "bad.ckpt"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FormatError):
            checkpoint.load(path)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "last.ckpt"
        first = net_checkpoint_state(build(preset("tiny-hs"), Rng(1), dtype=np.float32))
        checkpoint.save(path, first)

        class FullDevice:
            """A file that takes the first 4096 bytes written to it, then fails."""

            def __init__(self, f):
                self.f, self.room = f, 4096

            def write(self, data):
                data = bytes(data)
                self.f.write(data[: self.room])
                self.room -= min(self.room, len(data))
                if not self.room:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return len(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        real_open = Path.open
        monkeypatch.setattr(Path, "open", lambda self, mode="r", *args, **kwargs: (
            FullDevice(real_open(self, mode, *args, **kwargs)) if "w" in mode
            else real_open(self, mode, *args, **kwargs)))
        second = net_checkpoint_state(build(preset("tiny-hs"), Rng(2), dtype=np.float32))
        with pytest.raises(OSError):
            checkpoint.save(path, second)
        monkeypatch.undo()

        loaded = checkpoint.load(path)
        assert list(loaded) == list(first)
        assert all(np.array_equal(loaded[k], v) for k, v in first.items())
        assert [f.name for f in tmp_path.iterdir()] == ["last.ckpt"]

    def test_network_restore_and_incompatibility(self, tmp_path):
        net = build(preset("tiny-hs"), Rng(3), dtype=np.float32)
        path = tmp_path / "net.ckpt"
        checkpoint.save(path, net_checkpoint_state(net))
        restored = load_network_checkpoint(path)
        for name, arr in net.state_arrays().items():
            assert np.array_equal(restored.state_arrays()[name], arr), name

        other = build(preset("tiny-plain"), Rng(4), dtype=np.float32)
        state = checkpoint.load(path)
        state.pop(checkpoint.CONFIG_KEY)
        with pytest.raises(IncompatibilityError):
            other.load_state(state)


class TestSynthSplits:
    def test_eval_split_shares_the_train_class_patterns(self):
        train_ds, eval_ds = _load_datasets(tiny_train_config(), Rng(42))
        centroids = np.stack([
            train_ds.images[train_ds.labels == c].mean(axis=0) for c in range(10)
        ]).reshape(10, -1)
        flat = eval_ds.images.reshape(len(eval_ds), 1, -1)
        nearest = ((flat - centroids[None]) ** 2).sum(axis=2).argmin(axis=1)
        assert (nearest == eval_ds.labels).mean() >= 0.9


class TestTrainLoop:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = tiny_train_config(epochs=2)
        rows_a = train(cfg, tmp_path / "a")
        rows_b = train(tiny_train_config(epochs=2), tmp_path / "b")
        assert rows_a == rows_b
        assert (tmp_path / "a" / "log.jsonl").read_bytes() == (
            tmp_path / "b" / "log.jsonl"
        ).read_bytes()
        assert (tmp_path / "a" / "last.ckpt").read_bytes() == (
            tmp_path / "b" / "last.ckpt"
        ).read_bytes()

    def test_lr_column_matches_schedule(self, tmp_path):
        cfg = tiny_train_config(epochs=3)
        rows = train(cfg, tmp_path)
        for row in rows:
            assert row["lr"] == cosine_lr(row["epoch"], cfg.epochs, cfg.base_lr)

    def test_log_is_one_json_object_per_epoch(self, tmp_path):
        cfg = tiny_train_config(epochs=2)
        train(cfg, tmp_path)
        lines = (tmp_path / "log.jsonl").read_text().strip().split("\n")
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert [p["epoch"] for p in parsed] == [0, 1]
        assert set(parsed[0]) == {"epoch", "lr", "train_loss", "train_acc", "eval_acc"}

    def test_best_checkpoint_reproduces_logged_accuracy(self, tmp_path):
        cfg = tiny_train_config(epochs=3)
        rows = train(cfg, tmp_path)
        best_logged = max(r["eval_acc"] for r in rows)
        net = load_network_checkpoint(tmp_path / "best.ckpt")
        _, eval_ds = _load_datasets(cfg, Rng(cfg.seed))
        result = evaluate(net, eval_ds, batch_size=cfg.batch_size,
                          mean=cfg.normalize_mean, std=cfg.normalize_std)
        assert result.top1 == best_logged

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_abort_names_layer(self, tmp_path):
        cfg = tiny_train_config(epochs=1, base_lr=1e18)
        with pytest.raises(NumericsError) as err:
            train(cfg, tmp_path)
        assert "layer" in str(err.value)

    def test_invalid_config_rejected(self, tmp_path):
        cfg = tiny_train_config(momentum=1.5)
        with pytest.raises(ConfigError):
            train(cfg, tmp_path)

    def test_batch_size_larger_than_dataset(self, tmp_path):
        cfg = tiny_train_config(batch_size=100_000)
        with pytest.raises(ConfigError):
            train(cfg, tmp_path)


class TestEvaluate:
    def test_random_net_is_near_chance(self):
        net = build(preset("tiny-hs"), Rng(5), dtype=np.float32)
        ds = synth_blobs(10, 100, 32, Rng(6))
        result = evaluate(net, ds)
        assert abs(result.top1 - 0.10) <= 0.03
        assert result.top5 >= result.top1

    def test_top5_at_least_top1_trained(self, tmp_path):
        cfg = tiny_train_config(epochs=1)
        train(cfg, tmp_path)
        net = load_network_checkpoint(tmp_path / "last.ckpt")
        ds = synth_blobs(10, 20, 32, Rng(7))
        result = evaluate(net, ds)
        assert result.top5 >= result.top1
        assert result.loss >= 0.0
