"""Seeded CIFAR-10-format inputs for the benchmark.

Each class owns one smooth low-frequency pattern, drawn once from the
seed; the train and held-out splits are both sampled around those same
patterns, so what the train split teaches transfers to the held-out one.
The program reads only the files written here.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from hsnet.data import Dataset, write_cifar10
from workloads import NUM_CLASSES

IMAGE_SIZE = 32
GRID = 4  # coarse pattern cells per side; upsampled to IMAGE_SIZE
NOISE_STD = 0.1


def class_patterns(rng: np.random.Generator) -> np.ndarray:
    """(10, 3, 32, 32) patterns in [0.2, 0.8], smooth at the scale of a crop."""
    coarse = rng.uniform(0.2, 0.8, size=(NUM_CLASSES, 3, GRID, GRID))
    reps = IMAGE_SIZE // GRID
    blocky = np.repeat(np.repeat(coarse, reps, axis=2), reps, axis=3)
    # 5-tap box blur along each axis (edge-replicated) softens the cell edges
    k = 5
    padded = np.pad(blocky, ((0, 0), (0, 0), (k // 2, k // 2), (k // 2, k // 2)), mode="edge")
    rows = sum(padded[:, :, i : i + IMAGE_SIZE, :] for i in range(k)) / k
    return sum(rows[:, :, :, j : j + IMAGE_SIZE] for j in range(k)) / k


def sample_split(patterns: np.ndarray, n_per_class: int, rng: np.random.Generator):
    """Class-balanced images in [0, 1] with labels, in a seeded shuffled order."""
    labels = np.repeat(np.arange(NUM_CLASSES, dtype=np.int64), n_per_class)
    labels = labels[rng.permutation(labels.size)]
    noise = rng.standard_normal((labels.size, 3, IMAGE_SIZE, IMAGE_SIZE))
    images = np.clip(patterns[labels] + NOISE_STD * noise, 0.0, 1.0).astype(np.float32)
    return images, labels


def write_inputs(out_dir: Path, seed: int, n_train_per_class: int, n_eval_per_class: int) -> None:
    """Write data_batch_1..5.bin and test_batch.bin for one seed, with the
    program's own writer, so the files are exactly what its loader expects."""
    rng = np.random.default_rng([seed, 0x1F5])
    patterns = class_patterns(rng)
    train_x, train_y = sample_split(patterns, n_train_per_class, rng)
    eval_x, eval_y = sample_split(patterns, n_eval_per_class, rng)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, idx in enumerate(np.array_split(np.arange(train_y.size), 5), start=1):
        part = Dataset(f"train{i}", train_x[idx], train_y[idx], NUM_CLASSES)
        write_cifar10(part, out_dir / f"data_batch_{i}.bin")
    write_cifar10(Dataset("test", eval_x, eval_y, NUM_CLASSES), out_dir / "test_batch.bin")
