"""The benchmark's workloads and the recipe each one trains with."""

from __future__ import annotations

from dataclasses import dataclass

NUM_CLASSES = 10
MIN_EPOCHS = 4  # one warm-up epoch plus three measured ones


@dataclass(frozen=True)
class Workload:
    preset: str
    batch_size: int
    base_lr: float
    train_per_class: int
    eval_per_class: int
    audit_images: int  # held-out prefix evaluated at float64 ...
    audit_batch: int  # ... in batches of this size, timed one by one ...
    audit_passes: int  # ... over this many passes, which must agree bit for bit
    tile_images: int  # audit prefix re-run under a second batch tiling
    nominal_epoch_s: float  # sizes the epoch count from --seconds

    def __post_init__(self):
        if self.audit_images % self.audit_batch or self.tile_images > self.audit_batch:
            raise ValueError("audit batches must be whole and hold the tiling prefix")

    @property
    def audit_batches(self) -> int:
        """Batches in one audit pass."""
        return self.audit_images // self.audit_batch

    def epochs(self, seconds: float) -> int:
        """Epochs for a run of about ``seconds`` of training on the reference host.

        Depends only on the argument, so a run does the same work on
        every commit and every machine.
        """
        return max(MIN_EPOCHS, round(seconds / self.nominal_epoch_s))


WORKLOADS = {
    # im2col copies, batch norm, pooling and the per-image augment loop carry
    # the step; the HS split/concat runs at s=4
    "tiny-hs": Workload(
        preset="tiny-hs", batch_size=128, base_lr=0.1, train_per_class=100,
        eval_per_class=20, audit_images=192, audit_batch=16,
        audit_passes=3, tile_images=8, nominal_epoch_s=2.3),
    # same data and recipe; hsblock does no work, so HS-only changes leave it unmoved
    "tiny-plain": Workload(
        preset="tiny-plain", batch_size=128, base_lr=0.1, train_per_class=100,
        eval_per_class=20, audit_images=192, audit_batch=16,
        audit_passes=3, tile_images=8, nominal_epoch_s=2.3),
    # up to 2048 channels and ~57M parameters: GEMM-bound 1x1 convs, tape
    # overhead, s=6 split/concat, SGD and 217 MiB checkpoint writes carry it
    "hs50": Workload(
        preset="hs-resnet50-28w-6s", batch_size=16, base_lr=0.01, train_per_class=20,
        eval_per_class=4, audit_images=8, audit_batch=2,
        audit_passes=1, tile_images=2, nominal_epoch_s=12.5),
}
