"""Training loop: SGD with momentum, cosine schedule, logging, checkpoints.

A run is fully determined by its config and seed: data generation,
shuffling, augmentation, mixup and initialization all draw from child
streams of one root rng, keyed by purpose and epoch, and the log is
written as one JSON object per line with deterministic float formatting.
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import checkpoint
from .data import (
    Batch,
    Dataset,
    augment,
    load_cifar10,
    mixup,
    normalize_images,
    smooth_labels,
    synth_blobs,
    synth_patterns,
)
from .errors import ConfigError, IncompatibilityError
from .layers import softmax_cross_entropy
from .network import Network, NetworkConfig, build
from .tensor import Rng, Tape, Tensor4, backward

DEFAULT_MEAN = (0.4914, 0.4822, 0.4465)
DEFAULT_STD = (0.2470, 0.2435, 0.2616)


@dataclass
class DataConfig:
    kind: str = "synth"  # "synth" | "cifar10"
    path: str | None = None
    eval_path: str | None = None
    k: int = 10
    n_per_class: int = 100
    n_eval_per_class: int = 20
    image_size: int = 32
    subset: int = 0  # cifar10: keep only the first N train records

    def validate(self):
        if self.kind not in ("synth", "cifar10"):
            raise ConfigError(f"data kind must be 'synth' or 'cifar10', got {self.kind!r}")
        if self.kind == "cifar10" and not self.path:
            raise ConfigError("cifar10 data needs a path")
        if self.subset < 0:
            raise ConfigError(f"subset must be >= 0, got {self.subset}")


@dataclass
class TrainConfig:
    network: NetworkConfig
    data: DataConfig = field(default_factory=DataConfig)
    seed: int = 0
    epochs: int = 30
    batch_size: int = 128
    base_lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    label_smoothing: float = 0.1
    mixup_alpha: float = 0.0  # 0 disables mixup
    decay_bn_and_bias: bool = False
    precision: str = "float32"
    augment_pad: int = 4
    flip_prob: float = 0.5
    normalize_mean: tuple = DEFAULT_MEAN
    normalize_std: tuple = DEFAULT_STD

    def validate(self):
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not self.base_lr > 0:
            raise ConfigError(f"base_lr must be positive, got {self.base_lr}")
        if self.epochs < 1 or self.batch_size < 2:
            raise ConfigError("need epochs >= 1 and batch_size >= 2")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigError(f"label_smoothing must be in [0, 1), got {self.label_smoothing}")
        if self.mixup_alpha < 0:
            raise ConfigError(f"mixup_alpha must be >= 0, got {self.mixup_alpha}")
        if self.precision not in ("float32", "float64"):
            raise ConfigError(f"precision must be float32 or float64, got {self.precision!r}")
        self.data.validate()
        self.network.validate()

    @property
    def dtype(self):
        return np.float64 if self.precision == "float64" else np.float32


def cosine_lr(t: int, total: int, base_lr: float) -> float:
    """Half-cosine decay: 0.5 * base_lr * (1 + cos(pi * t / total))."""
    if total < 1:
        raise ValueError(f"total steps must be >= 1, got {total}")
    if t < 0 or t > total:
        raise ValueError(f"step {t} outside [0, {total}]")
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * t / total))


def sgd_step(params, grads, velocity, lr, momentum, weight_decay) -> None:
    """v <- momentum*v + grad + weight_decay*param; param <- param - lr*v.

    Classic L2-in-gradient decay. All three sequences must align; arrays
    are updated in place.
    """
    for p, g, v in zip(params, grads, velocity, strict=True):
        if p.shape != g.shape or p.shape != v.shape:
            raise ValueError(f"sgd_step shape mismatch: {p.shape}, {g.shape}, {v.shape}")
        v *= momentum
        v += g
        if weight_decay:
            v += weight_decay * p
        p -= lr * v


def _decayed(name: str) -> bool:
    return name.endswith(".conv.weight") or name == "head.fc.weight"


@dataclass
class EvalResult:
    top1: float
    top5: float
    loss: float


def evaluate(net: Network, ds: Dataset, batch_size: int = 256,
             mean=DEFAULT_MEAN, std=DEFAULT_STD) -> EvalResult:
    """Eval-mode accuracy and mean cross-entropy over a dataset."""
    n = len(ds)
    k = ds.num_classes
    top1 = top5 = 0
    loss_sum = 0.0
    kk = min(5, k)
    for start in range(0, n, batch_size):
        idx = slice(start, min(start + batch_size, n))
        images = normalize_images(ds.images[idx], mean, std).astype(net.dtype)
        labels = ds.labels[idx]
        logits = net.forward(Tensor4(images), mode="eval")
        rows = logits.data.reshape(images.shape[0], k)
        order = np.argsort(-rows, axis=1)
        top1 += int((order[:, 0] == labels).sum())
        top5 += int((order[:, :kk] == labels[:, None]).any(axis=1).sum())
        out = softmax_cross_entropy(logits, smooth_labels(labels, k, 0.0))
        loss_sum += out.value * images.shape[0]
    return EvalResult(top1=top1 / n, top5=top5 / n, loss=loss_sum / n)


def _load_datasets(cfg: TrainConfig, rng: Rng) -> tuple[Dataset, Dataset]:
    d = cfg.data
    if d.kind == "synth":
        # both splits are sampled around the same class patterns
        train_rng = rng.child("data-train")
        patterns = synth_patterns(d.k, d.image_size, train_rng.child("patterns"))
        train = synth_blobs(d.k, d.n_per_class, d.image_size, train_rng, patterns=patterns)
        eval_ds = synth_blobs(d.k, d.n_eval_per_class, d.image_size, rng.child("data-eval"),
                              patterns=patterns)
        return train, eval_ds
    train = load_cifar10(d.path, split="train")
    if d.subset:
        train = Dataset(
            name=f"{train.name}[:{d.subset}]",
            images=train.images[: d.subset],
            labels=train.labels[: d.subset],
            num_classes=train.num_classes,
        )
    if d.eval_path:
        eval_ds = load_cifar10(d.eval_path, split="test")
    else:
        eval_path = Path(d.path)
        eval_ds = (
            load_cifar10(eval_path, split="test") if eval_path.is_dir() else train
        )
    return train, eval_ds


def _format_row(row: dict) -> str:
    return json.dumps(row, sort_keys=True, separators=(", ", ": "))


def net_checkpoint_state(net: Network) -> "OrderedDict[str, np.ndarray]":
    state = OrderedDict()
    state[checkpoint.CONFIG_KEY] = checkpoint.encode_text(
        json.dumps(network_config_to_dict(net.config), sort_keys=True)
    )
    state.update(net.state_arrays())
    return state


def network_config_to_dict(cfg: NetworkConfig) -> dict:
    d = dict(cfg.__dict__)
    d["stage_blocks"] = list(cfg.stage_blocks)
    if not isinstance(cfg.width_rule, str):
        d["width_rule"] = list(cfg.width_rule)
    return d


def network_config_from_dict(d: dict) -> NetworkConfig:
    known = set(NetworkConfig.__dataclass_fields__)
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown network config keys: {sorted(unknown)}")
    return NetworkConfig(**d)


def load_network_checkpoint(path, dtype=np.float32) -> Network:
    """Rebuild the stored network and restore its state."""
    state = checkpoint.load(path)
    if checkpoint.CONFIG_KEY not in state:
        raise IncompatibilityError(f"{path}: checkpoint carries no network config")
    cfg = network_config_from_dict(json.loads(checkpoint.decode_text(state.pop(checkpoint.CONFIG_KEY))))
    net = build(cfg, rng=None, dtype=dtype)
    net.load_state(state)
    return net


def train(cfg: TrainConfig, out_dir) -> list[dict]:
    """Run the full loop; returns the per-epoch rows it also logs.

    Writes ``log.jsonl`` (one row per epoch), ``last.ckpt`` after every
    epoch, and ``best.ckpt`` whenever eval accuracy improves. A NaN loss
    aborts with a diagnostic naming the first offending layer.
    """
    cfg.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dtype = cfg.dtype

    root = Rng(cfg.seed)
    train_ds, eval_ds = _load_datasets(cfg, root)
    k = train_ds.num_classes
    net = build(cfg.network, root.child("init"), dtype=dtype)

    names = list(net.parameters().keys())
    tensors = [net.parameters()[name] for name in names]
    velocity = [np.zeros_like(t.data) for t in tensors]
    decay_flags = [
        cfg.weight_decay if (cfg.decay_bn_and_bias or _decayed(name)) else 0.0
        for name in names
    ]

    rows: list[dict] = []
    best_acc = -1.0
    log_path = out_dir / "log.jsonl"
    n = len(train_ds)
    steps = n // cfg.batch_size  # partial trailing batches are dropped
    if steps < 1:
        raise ConfigError(f"batch_size {cfg.batch_size} exceeds dataset size {n}")

    with log_path.open("w") as log:
        for epoch in range(cfg.epochs):
            lr = cosine_lr(epoch, cfg.epochs, cfg.base_lr)
            order = root.child(f"shuffle/{epoch}").permutation(n)
            aug_rng = root.child(f"augment/{epoch}")
            mix_rng = root.child(f"mixup/{epoch}")

            loss_sum = 0.0
            correct = 0
            seen = 0
            for step in range(steps):
                idx = order[step * cfg.batch_size : (step + 1) * cfg.batch_size]
                images = augment(
                    train_ds.images[idx], aug_rng, pad=cfg.augment_pad, flip_prob=cfg.flip_prob
                )
                images = normalize_images(images, cfg.normalize_mean, cfg.normalize_std)
                labels = train_ds.labels[idx]
                batch = Batch(
                    images=images.astype(dtype),
                    targets=smooth_labels(labels, k, cfg.label_smoothing),
                )
                if cfg.mixup_alpha > 0:
                    batch = mixup(batch, cfg.mixup_alpha, mix_rng)

                net.zero_grads()
                with Tape() as tape:
                    logits = net.forward(Tensor4(batch.images), mode="train")
                    out = softmax_cross_entropy(logits, batch.targets)
                backward(tape, out.scalar)

                grads = [t.grad for t in tensors]
                params = [t.data for t in tensors]
                for name, g in zip(names, grads):
                    if g is None:
                        raise ConfigError(f"parameter {name} received no gradient")
                # decay applies per parameter group (conv/fc weights only by default)
                for p, g, v, wd in zip(params, grads, velocity, decay_flags):
                    sgd_step([p], [g], [v], lr, cfg.momentum, wd)

                loss_sum += out.value
                pred = logits.data.reshape(len(labels), k).argmax(axis=1)
                correct += int((pred == labels).sum())
                seen += len(labels)

            ev = evaluate(
                net, eval_ds, batch_size=cfg.batch_size,
                mean=cfg.normalize_mean, std=cfg.normalize_std,
            )
            row = {
                "epoch": epoch,
                "lr": lr,
                "train_loss": loss_sum / steps,
                "train_acc": correct / seen,
                "eval_acc": ev.top1,
            }
            rows.append(row)
            log.write(_format_row(row) + "\n")
            log.flush()

            checkpoint.save(out_dir / "last.ckpt", net_checkpoint_state(net))
            if ev.top1 > best_acc:
                best_acc = ev.top1
                checkpoint.save(out_dir / "best.ckpt", net_checkpoint_state(net))

    return rows
