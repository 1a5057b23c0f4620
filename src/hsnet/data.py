"""Desk-scale datasets and the in-scope augmentations.

Supports the CIFAR-10 binary layout (one label byte followed by 3072
planar-RGB pixel bytes per record, 10000 records per file), a synthetic
separable-blob generator, random crop with zero padding, horizontal
flips, label smoothing and mixup. Every stage is deterministic given its
rng, so an epoch's batch sequence is reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import betaincinv

from .errors import FormatError
from .tensor import Rng

CIFAR_RECORD_BYTES = 3073
CIFAR_RECORDS_PER_FILE = 10000
CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_FILE = "test_batch.bin"


@dataclass
class Dataset:
    """Images in [0, 1] as (N, 3, H, W) float32 with integer labels."""

    name: str
    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        if self.images.ndim != 4 or self.images.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"images {self.images.shape} and labels {self.labels.shape} disagree"
            )
        if self.images.size and not np.isfinite(self.images).all():
            raise ValueError("images contain non-finite values")
        if self.images.size and (self.images.min() < 0 or self.images.max() > 1):
            raise ValueError("images must lie in [0, 1] before normalization")
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.num_classes
        ):
            raise ValueError(f"labels must lie in [0, {self.num_classes})")

    def __len__(self) -> int:
        return int(self.images.shape[0])


@dataclass
class Batch:
    """Normalized images with probability-row targets."""

    images: np.ndarray  # (N, 3, H, W)
    targets: np.ndarray  # (N, K), rows sum to 1

    def __post_init__(self):
        if self.images.shape[0] != self.targets.shape[0]:
            raise ValueError("images and targets disagree on batch size")
        sums = self.targets.sum(axis=1)
        if self.targets.size and np.any(np.abs(sums - 1.0) > 1e-6):
            raise ValueError("every target row must sum to 1 within 1e-6")


# ---------------------------------------------------------------------------
# CIFAR-10 binary format


def _read_cifar_file(path: Path) -> tuple[np.ndarray, np.ndarray]:
    raw = path.read_bytes()
    if len(raw) % CIFAR_RECORD_BYTES != 0 or len(raw) == 0:
        expected = CIFAR_RECORDS_PER_FILE * CIFAR_RECORD_BYTES
        raise FormatError(
            f"{path}: {len(raw)} bytes is not a whole number of {CIFAR_RECORD_BYTES}-byte "
            f"records (a standard file holds {expected} bytes)"
        )
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
    labels = records[:, 0].astype(np.int64)
    if labels.max(initial=0) > 9:
        raise FormatError(f"{path}: label byte {labels.max()} outside [0, 9]")
    images = records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float32) / 255.0
    return images, labels


def load_cifar10(path, split: str = "train") -> Dataset:
    """Read CIFAR-10 binaries. ``path`` may be a directory holding the
    standard five train files plus test file, or a single .bin file."""
    path = Path(path)
    if path.is_file():
        images, labels = _read_cifar_file(path)
        return Dataset(name=path.stem, images=images, labels=labels, num_classes=10)
    if not path.is_dir():
        raise FileNotFoundError(f"no such file or directory: {path}")
    if split == "train":
        files = [path / f for f in CIFAR_TRAIN_FILES]
    elif split == "test":
        files = [path / CIFAR_TEST_FILE]
    else:
        raise ValueError(f"split must be 'train' or 'test', got {split!r}")
    for f in files:
        if not f.is_file():
            raise FileNotFoundError(f"missing CIFAR-10 file: {f}")
    parts = [_read_cifar_file(f) for f in files]
    images = np.concatenate([p[0] for p in parts])
    labels = np.concatenate([p[1] for p in parts])
    return Dataset(name=f"cifar10-{split}", images=images, labels=labels, num_classes=10)


def write_cifar10(ds: Dataset, path) -> None:
    """Serialize a dataset into the CIFAR-10 binary record layout.

    Requires 3x32x32 images and at most 256 classes. Pixels are rounded
    to bytes, so load(write(ds)) reproduces ds only if ds itself came
    from byte-valued pixels (as loaded datasets do).
    """
    if ds.images.shape[1:] != (3, 32, 32):
        raise FormatError(f"CIFAR layout needs (N, 3, 32, 32) images, got {ds.images.shape}")
    if ds.num_classes > 256:
        raise FormatError("CIFAR layout stores labels in one byte")
    pixels = np.round(ds.images * 255.0).astype(np.uint8).reshape(len(ds), 3072)
    records = np.empty((len(ds), CIFAR_RECORD_BYTES), dtype=np.uint8)
    records[:, 0] = ds.labels.astype(np.uint8)
    records[:, 1:] = pixels
    Path(path).write_bytes(records.tobytes())


# ---------------------------------------------------------------------------
# Synthetic data


def synth_patterns(k: int, image_size: int, rng: Rng) -> np.ndarray:
    """(k, 3, image_size, image_size) class patterns: one fixed
    low-frequency pattern per class with values in [0.3, 0.7]."""
    grid = max(2, image_size // 8)
    coarse = rng.uniform(0.3, 0.7, size=(k, 3, grid, grid))
    reps = -(-image_size // grid)  # ceil
    patterns = np.repeat(np.repeat(coarse, reps, axis=2), reps, axis=3)
    return patterns[:, :, :image_size, :image_size]


def synth_blobs(k: int, n_per_class: int, image_size: int, rng: Rng,
                noise_std: float = 0.1, patterns: np.ndarray | None = None) -> Dataset:
    """Linearly separable classes: Gaussian noise around per-class patterns.

    Samples add noise_std Gaussian noise to their class pattern and clip
    to [0, 1]. The patterns come from ``synth_patterns`` on the stream's
    ``patterns`` child unless given; splits that must agree on what each
    class looks like pass the same patterns. The margin between class
    patterns dwarfs the noise, so a nearest centroid classifier separates
    the classes essentially perfectly.
    """
    if k < 2:
        raise ValueError(f"need at least 2 classes, got {k}")
    if n_per_class < 1 or image_size < 4:
        raise ValueError("n_per_class must be >= 1 and image_size >= 4")
    if patterns is None:
        patterns = synth_patterns(k, image_size, rng.child("patterns"))

    labels = np.repeat(np.arange(k, dtype=np.int64), n_per_class)
    noise = rng.child("noise").standard_normal((k * n_per_class, 3, image_size, image_size))
    images = np.clip(patterns[labels] + noise_std * noise, 0.0, 1.0).astype(np.float32)
    return Dataset(name="synth-blobs", images=images, labels=labels, num_classes=k)


# ---------------------------------------------------------------------------
# Augmentation and target transforms


def augment(images: np.ndarray, rng: Rng, pad: int = 4, flip_prob: float = 0.5) -> np.ndarray:
    """Zero-pad, randomly crop back to size, flip horizontally per image.

    Draw order is fixed: one (N, 2) block of crop offsets, then one (N,)
    block of flip coins, so the transform is reproducible from the rng.
    """
    if pad < 0:
        raise ValueError(f"pad must be >= 0, got {pad}")
    if not 0.0 <= flip_prob <= 1.0:
        raise ValueError(f"flip_prob must be in [0, 1], got {flip_prob}")
    n, c, h, w = images.shape
    if pad == 0 and flip_prob == 0:
        return images.copy()
    out = np.empty_like(images)
    if pad:
        padded = np.pad(images, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        offsets = rng.integers(0, 2 * pad + 1, size=(n, 2))
    else:
        padded = images
        offsets = np.zeros((n, 2), dtype=np.int64)
    flips = rng.uniform(size=n) < flip_prob
    for i in range(n):
        dy, dx = int(offsets[i, 0]), int(offsets[i, 1])
        crop = padded[i, :, dy : dy + h, dx : dx + w]
        out[i] = crop[:, :, ::-1] if flips[i] else crop
    return out


def smooth_labels(labels: np.ndarray, k: int, epsilon: float) -> np.ndarray:
    """(1 - eps) * one_hot + eps / k uniform, one probability row per label."""
    if not 0.0 <= epsilon < 1.0:
        raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
    labels = np.asarray(labels, dtype=np.int64)
    rows = np.full((labels.shape[0], k), epsilon / k, dtype=np.float64)
    rows[np.arange(labels.shape[0]), labels] += 1.0 - epsilon
    return rows


def sample_beta(rng: Rng, alpha: float) -> float:
    """Beta(alpha, alpha) draw by inverse transform on one uniform.

    Inverting the regularized incomplete beta function on the stream's
    own uniform keeps mixing coefficients identical across platforms.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    u = float(rng.uniform())
    return float(betaincinv(alpha, alpha, u))


def mixup(batch: Batch, alpha: float, rng: Rng, lam: float | None = None) -> Batch:
    """Convex-combine the batch with a seeded permutation of itself.

    One lambda ~ Beta(alpha, alpha) is drawn per call (``lam`` overrides
    it, for tests). Images and target rows mix with the same coefficient,
    so target rows still sum to 1.
    """
    if lam is None:
        lam = sample_beta(rng, alpha)
    elif not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    perm = rng.permutation(batch.images.shape[0])
    images = lam * batch.images + (1.0 - lam) * batch.images[perm]
    targets = lam * batch.targets + (1.0 - lam) * batch.targets[perm]
    return Batch(images=images.astype(batch.images.dtype), targets=targets)


def normalize_images(images: np.ndarray, mean, std) -> np.ndarray:
    """Per-channel (x - mean) / std; applied exactly once per image."""
    mean = np.asarray(mean, dtype=images.dtype).reshape(1, -1, 1, 1)
    std = np.asarray(std, dtype=images.dtype).reshape(1, -1, 1, 1)
    if np.any(std <= 0):
        raise ValueError("std entries must be positive")
    return (images - mean) / std
