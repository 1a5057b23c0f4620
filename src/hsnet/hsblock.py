"""Hierarchical-split stage: channel plans, split/concat, stage dataflow.

One stage takes s groups of w channels. The first group passes straight
through. Every later group is convolved together with the forwarded half
of its predecessor's output: group i's convolution consumes the raw group
plus floor(c_{i-1}/2) forwarded channels, keeps the ceiling half of its
own output, and forwards the floor half to group i+1. The kept halves and
the final group's full output concatenate back to exactly s*w channels.

Three dataflow variants are supported:

* ``preserve`` (canonical): each group conv maps c_i -> c_i channels, the
  first group is not split. Output width equals input width.
* ``split-first``: the first group is also split, its floor half feeding
  group 2. Output width still equals input width.
* ``project``: each group conv projects back to w channels. Output width
  is 2*w + (s-2)*ceil(w/2), generally below s*w; this variant exists for
  the complexity reconciliation sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .layers import BatchNormState, Conv2dParams, batch_norm, conv2d, relu
from .tensor import Tensor4, op_scope, record

VARIANTS = ("preserve", "split-first", "project")


@dataclass(frozen=True)
class HsBlockConfig:
    """Shape of one hierarchical-split stage.

    s: number of channel groups (>= 2; s = 1 is a plain convolution and
    is rejected). w: channels per group at the split. k: square kernel
    size of the group convolutions. stride 2 halves the spatial extent
    via an average pool applied before the split.
    """

    s: int
    w: int
    k: int = 3
    stride: int = 1
    variant: str = "preserve"

    def __post_init__(self):
        if self.s < 2:
            raise ConfigError(f"s must be >= 2 (got {self.s}); s = 1 is a plain conv")
        if self.w < 1:
            raise ConfigError(f"w must be >= 1, got {self.w}")
        if self.k < 1 or self.k % 2 == 0:
            raise ConfigError(f"kernel size must be odd and >= 1, got {self.k}")
        if self.stride not in (1, 2):
            raise ConfigError(f"stride must be 1 or 2, got {self.stride}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")

    @property
    def mid_channels(self) -> int:
        return self.s * self.w


@dataclass(frozen=True)
class ChannelPlan:
    """Exact per-group widths of one stage.

    conv_in[i-2] is the width entering group i's convolution (i = 2..s)
    and conv_out[i-2] the width it produces. fwd[i-1] is the width
    forwarded from group i to group i+1 (i = 1..s-1); the first entry is
    zero except in the split-first variant. out[i-1] is the width group i
    contributes to the concatenated output (i = 1..s).
    """

    group_width: int
    conv_in: tuple[int, ...]
    conv_out: tuple[int, ...]
    fwd: tuple[int, ...]
    out: tuple[int, ...]

    @property
    def s(self) -> int:
        return len(self.out)

    @property
    def total_out(self) -> int:
        return sum(self.out)


def channel_plan(cfg: HsBlockConfig) -> ChannelPlan:
    """Widths implied by the split recurrence; deterministic in cfg.

    The kept half of an unevenly split group takes the ceiling and the
    lower channel indices; the forwarded half takes the floor.
    """
    s, w = cfg.s, cfg.w
    conv_in: list[int] = []
    conv_out: list[int] = []
    fwd: list[int] = []
    out: list[int] = []

    if cfg.variant == "split-first":
        f1 = w // 2
        fwd.append(f1)
        out.append(w - f1)
    else:
        fwd.append(0)
        out.append(w)

    carry = fwd[0]
    for i in range(2, s + 1):
        c_i = w + carry
        conv_in.append(c_i)
        y_i = w if cfg.variant == "project" else c_i
        conv_out.append(y_i)
        if i < s:
            f_i = y_i // 2
            fwd.append(f_i)
            out.append(y_i - f_i)
            carry = f_i
        else:
            out.append(y_i)

    plan = ChannelPlan(
        group_width=w,
        conv_in=tuple(conv_in),
        conv_out=tuple(conv_out),
        fwd=tuple(fwd),
        out=tuple(out),
    )
    if cfg.variant != "project" and plan.total_out != s * w:
        raise ConfigError(
            f"channel conservation violated: sum(out)={plan.total_out} != {s * w}"
        )
    return plan


# ---------------------------------------------------------------------------
# Channel split / concat


def split_channels(x: Tensor4, widths) -> list[Tensor4]:
    """Split along the channel axis into contiguous ranges.

    The first listed width takes the lowest channel indices. Widths must
    be non-negative and sum to the input channel count.
    """
    widths = [int(v) for v in widths]
    if any(v < 0 for v in widths):
        raise ShapeError(f"widths must be non-negative, got {widths}")
    n, c, h, w = x.dims
    if sum(widths) != c:
        raise ShapeError(f"widths {widths} sum to {sum(widths)}, input has {c} channels")

    parts: list[Tensor4] = []
    start = 0
    for width in widths:
        stop = start + width
        part_data = np.ascontiguousarray(x.data[:, start:stop])
        part = Tensor4._wrap(part_data, x.requires_grad)

        def grad_fn(g, lo=start, hi=stop):
            dx = np.zeros((n, c, h, w), dtype=g.dtype)
            dx[:, lo:hi] = g
            return (dx,)

        record((x,), part, grad_fn)
        parts.append(part)
        start = stop
    return parts


def concat_channels(parts) -> Tensor4:
    """Concatenate along the channel axis, in argument order."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat_channels needs at least one tensor")
    n, _, h, w = parts[0].dims
    dtype = parts[0].data.dtype
    for p in parts[1:]:
        pn, _, ph, pw = p.dims
        if (pn, ph, pw) != (n, h, w):
            raise ShapeError(
                f"concat_channels: batch/spatial mismatch {p.dims} vs {parts[0].dims}"
            )
        if p.data.dtype != dtype:
            raise ShapeError("concat_channels: dtype mismatch")
    out_data = np.concatenate([p.data for p in parts], axis=1)
    out = Tensor4._wrap(out_data, any(p.requires_grad for p in parts))

    widths = [p.dims[1] for p in parts]
    bounds = np.cumsum([0] + widths)

    def grad_fn(g):
        return tuple(
            np.ascontiguousarray(g[:, bounds[i] : bounds[i + 1]])
            for i in range(len(parts))
        )

    record(tuple(parts), out, grad_fn)
    return out


# ---------------------------------------------------------------------------
# Stage container and dataflow


@dataclass
class ConvBn:
    """A convolution with its batch norm; the unit every block composes."""

    conv: Conv2dParams
    bn: BatchNormState


def conv_bn_relu(x: Tensor4, unit: ConvBn, mode: str, name: str, activate: bool = True) -> Tensor4:
    with op_scope(name):
        y = batch_norm(conv2d(x, unit.conv), unit.bn, mode)
        return relu(y) if activate else y


class HsStage:
    """The group convolutions F_2..F_s of one hierarchical-split stage."""

    def __init__(self, cfg: HsBlockConfig, units: list[ConvBn], name: str = "hs"):
        plan = channel_plan(cfg)
        if len(units) != cfg.s - 1:
            raise ConfigError(f"stage needs {cfg.s - 1} conv units, got {len(units)}")
        for idx, unit in enumerate(units):
            expect_in, expect_out = plan.conv_in[idx], plan.conv_out[idx]
            got_out, got_in = unit.conv.weight.dims[0], unit.conv.weight.dims[1]
            if (got_in, got_out) != (expect_in, expect_out):
                raise ConfigError(
                    f"group {idx + 2} conv is {got_in}->{got_out}, plan says "
                    f"{expect_in}->{expect_out}"
                )
        self.cfg = cfg
        self.plan = plan
        self.units = units
        self.name = name
        # the group convolutions as block steps, F_2 first
        self.steps = [(f"{name}.f{i + 2}", "conv_relu", unit) for i, unit in enumerate(units)]


def hs_forward(x: Tensor4, stage: HsStage, mode: str = "train") -> Tensor4:
    """Run the split/conv/forward recurrence over the groups of ``x``.

    The input must carry exactly s*w channels. Group 1 contributes its
    kept part directly; each later group convolves its raw channels
    concatenated after the forwarded half of the previous group's output,
    keeps the lower (ceiling) half, and forwards the rest. The output is
    the concatenation of all kept parts in group order.
    """
    cfg, plan = stage.cfg, stage.plan
    n, c, h, w = x.dims
    if c != cfg.mid_channels:
        raise ShapeError(f"hs stage expects {cfg.mid_channels} channels, got {c}")

    groups = split_channels(x, [cfg.w] * cfg.s)
    kept: list[Tensor4] = []

    if plan.fwd[0]:
        y11, y12 = split_channels(groups[0], [plan.out[0], plan.fwd[0]])
        kept.append(y11)
        carry: Tensor4 | None = y12
    else:
        kept.append(groups[0])
        carry = None

    for i, (name, _, unit) in enumerate(stage.steps, start=2):
        inp = groups[i - 1] if carry is None else concat_channels([groups[i - 1], carry])
        y = conv_bn_relu(inp, unit, mode, name)
        if i < cfg.s:
            y_keep, y_fwd = split_channels(y, [plan.out[i - 1], plan.fwd[i - 1]])
            kept.append(y_keep)
            carry = y_fwd
        else:
            kept.append(y)

    return concat_channels(kept)
