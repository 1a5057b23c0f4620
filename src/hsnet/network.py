"""Deterministic network construction from declarative configs.

Networks follow the 4-stage residual layout: a stem, four stages of
bottleneck blocks (plain or hierarchical-split), global average pooling,
and a linear classifier. Stage j uses width ``base_w * 2**(j-1)`` under
the default ``double-per-stage`` rule and produces ``out_base * 2**(j-1)``
channels; for the 50-layer family out_base is 256, matching the classic
channel progression.

Initialization is Gaussian fan-in scaling for convolutions, 0.01-std
Gaussian for the classifier, unit gamma / zero beta for batch norms (the
final BN of each residual block optionally starts at gamma 0 so blocks
begin as identities). Every parameter draws from its own child stream of
the build rng, keyed by the parameter name, so rebuilding from the same
seed is bit-identical regardless of construction order.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IncompatibilityError, ShapeError
from .hsblock import ConvBn, HsBlockConfig, HsStage, channel_plan, conv_bn_relu, hs_forward
from .layers import BatchNormState, Conv2dParams, avg_pool, global_avg_pool, linear, max_pool, relu
from .tensor import Rng, Tensor4, add, op_scope, randn, zeros

BLOCK_TYPES = ("plain-bottleneck", "hs-bottleneck")
STEMS = ("classic-7x7", "resnet-d-3x3x3")


@dataclass
class NetworkConfig:
    """Declarative description of one network."""

    block_type: str
    stage_blocks: tuple[int, int, int, int]
    base_w: int
    s: int = 0
    width_rule: str | tuple[int, int, int, int] = "double-per-stage"
    stem: str = "resnet-d-3x3x3"
    num_classes: int = 1000
    image_size: int = 224
    variant: str = "preserve"
    stem_channels: int = 64
    out_base: int = 256
    zero_init_gamma: bool = True
    name: str = ""

    def __post_init__(self):
        self.stage_blocks = tuple(int(b) for b in self.stage_blocks)
        if not isinstance(self.width_rule, str):
            self.width_rule = tuple(int(w) for w in self.width_rule)

    def validate(self) -> None:
        if self.block_type not in BLOCK_TYPES:
            raise ConfigError(f"block_type must be one of {BLOCK_TYPES}, got {self.block_type!r}")
        if len(self.stage_blocks) != 4 or any(b < 1 for b in self.stage_blocks):
            raise ConfigError(f"stage_blocks must be 4 positive counts, got {self.stage_blocks}")
        if self.base_w < 1:
            raise ConfigError(f"base_w must be >= 1, got {self.base_w}")
        if self.block_type == "hs-bottleneck" and self.s < 2:
            raise ConfigError(f"hierarchical-split networks need s >= 2, got {self.s}")
        if isinstance(self.width_rule, tuple) and len(self.width_rule) != 4:
            raise ConfigError("a custom width_rule must list 4 per-stage widths")
        if self.width_rule != "double-per-stage" and isinstance(self.width_rule, str):
            raise ConfigError(f"unknown width_rule {self.width_rule!r}")
        if self.stem not in STEMS:
            raise ConfigError(f"stem must be one of {STEMS}, got {self.stem!r}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.image_size < 8:
            raise ConfigError(f"image_size must be >= 8, got {self.image_size}")
        if self.stem_channels < 2 or self.stem_channels % 2:
            raise ConfigError(f"stem_channels must be even and >= 2, got {self.stem_channels}")
        if self.out_base < 1:
            raise ConfigError(f"out_base must be >= 1, got {self.out_base}")

    def stage_widths(self) -> tuple[int, int, int, int]:
        if self.width_rule == "double-per-stage":
            return tuple(self.base_w * (2**j) for j in range(4))
        return self.width_rule

    def stage_mid_channels(self) -> tuple[int, int, int, int]:
        widths = self.stage_widths()
        if self.block_type == "hs-bottleneck":
            return tuple(self.s * w for w in widths)
        return widths

    def stage_out_channels(self) -> tuple[int, int, int, int]:
        return tuple(self.out_base * (2**j) for j in range(4))


# ---------------------------------------------------------------------------
# Blocks as step lists
#
# The stem and both halves of every residual block are lists of steps
# ``(name, kind, unit)``. ``name`` is the op_scope the step runs under
# and the prefix of its parameter names. ``kind`` is one of ``conv_relu``
# and ``conv`` (unit: a ConvBn), ``avg_pool`` and ``max_pool`` (unit:
# None; the geometry is in POOL_GEOMETRY) or ``hs`` (unit: an HsStage).
# Forward, parameter naming and analysis.count all read these lists.

# kernel, stride, padding
POOL_GEOMETRY = {"avg_pool": (2, 2, 0), "max_pool": (3, 2, 1)}


def run(steps, x: Tensor4, mode: str) -> Tensor4:
    """Apply a step list in order."""
    for name, kind, unit in steps:
        if kind == "hs":
            x = hs_forward(x, unit, mode)
        elif kind in POOL_GEOMETRY:
            k, stride, padding = POOL_GEOMETRY[kind]
            with op_scope(name):
                x = (avg_pool if kind == "avg_pool" else max_pool)(x, k, stride, padding)
        else:
            x = conv_bn_relu(x, unit, mode, name, activate=kind == "conv_relu")
    return x


def conv_units(steps):
    """``(name, ConvBn)`` of every convolution in a step list, in order."""
    for name, kind, unit in steps:
        if kind == "hs":
            yield from conv_units(unit.steps)
        elif kind not in POOL_GEOMETRY:
            yield name, unit


class Bottleneck:
    """Residual unit: relu(run(main) + run(shortcut)).

    An empty shortcut is the identity, which needs a main path that keeps
    the channel count and the spatial extent.
    """

    def __init__(self, name: str, in_channels: int, main: list, shortcut: list):
        convs = [unit.conv for _, unit in conv_units(main)]
        if not shortcut and (
            convs[-1].out_channels != in_channels
            or any(conv.stride != 1 for conv in convs)
            or any(kind in POOL_GEOMETRY for _, kind, _ in main)
        ):
            raise ConfigError(f"{name}: identity shortcut needs matching dims and stride 1")
        self.name = name
        self.in_channels = in_channels
        self.main = main
        self.shortcut = shortcut

    def forward(self, x: Tensor4, mode: str) -> Tensor4:
        if x.dims[1] != self.in_channels:
            raise ShapeError(
                f"{self.name}: input has {x.dims[1]} channels, expected {self.in_channels}"
            )
        h = run(self.main, x, mode)
        sc = run(self.shortcut, x, mode)
        with op_scope(f"{self.name}.add"):
            return relu(add(h, sc))


# ---------------------------------------------------------------------------
# Network container


class Network:
    """A built network: named parameters plus a forward entry point."""

    def __init__(self, config: NetworkConfig, stem: list, blocks: list[Bottleneck],
                 head_weight, head_bias, dtype):
        self.config = config
        self.dtype = dtype
        self.stem = stem
        self.blocks = blocks
        self.head_weight = head_weight
        self.head_bias = head_bias
        self._params = self._collect_params()

    def _named_convbns(self):
        yield from conv_units(self.stem)
        for block in self.blocks:
            yield from conv_units(block.main + block.shortcut)

    def _collect_params(self) -> "OrderedDict[str, Tensor4]":
        params: OrderedDict[str, Tensor4] = OrderedDict()
        for name, unit in self._named_convbns():
            params[f"{name}.conv.weight"] = unit.conv.weight
            if unit.conv.bias is not None:
                params[f"{name}.conv.bias"] = unit.conv.bias
            params[f"{name}.bn.gamma"] = unit.bn.gamma
            params[f"{name}.bn.beta"] = unit.bn.beta
        params["head.fc.weight"] = self.head_weight
        params["head.fc.bias"] = self.head_bias
        return params

    def parameters(self) -> "OrderedDict[str, Tensor4]":
        return self._params

    def param_count(self) -> int:
        return sum(int(t.data.size) for t in self._params.values())

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def state_arrays(self) -> "OrderedDict[str, np.ndarray]":
        """All persistent state: parameters plus batch-norm running stats."""
        state: OrderedDict[str, np.ndarray] = OrderedDict()
        for name, tensor in self._params.items():
            state[name] = tensor.data
        for name, unit in self._named_convbns():
            state[f"{name}.bn.running_mean"] = unit.bn.running_mean
            state[f"{name}.bn.running_var"] = unit.bn.running_var
        return state

    def load_state(self, arrays) -> None:
        """Replace every parameter and running stat, cast to the net dtype."""
        current = self.state_arrays()
        missing = sorted(set(current) - set(arrays))
        unexpected = sorted(set(arrays) - set(current))
        if missing or unexpected:
            raise IncompatibilityError(
                f"state mismatch: missing={missing[:5]} unexpected={unexpected[:5]}"
            )
        for name, tensor in self._params.items():
            arr = np.asarray(arrays[name])
            if tuple(arr.shape) != tensor.dims:
                raise IncompatibilityError(
                    f"{name}: shape {arr.shape} does not match {tensor.dims}"
                )
            tensor.data = arr.astype(self.dtype, copy=True)
            tensor.grad = None
        for name, unit in self._named_convbns():
            rm = np.asarray(arrays[f"{name}.bn.running_mean"])
            rv = np.asarray(arrays[f"{name}.bn.running_var"])
            if rm.shape != unit.bn.running_mean.shape or rv.shape != unit.bn.running_var.shape:
                raise IncompatibilityError(f"{name}: running stat shape mismatch")
            unit.bn.running_mean = rm.astype(self.dtype, copy=True)
            unit.bn.running_var = rv.astype(self.dtype, copy=True)

    def forward(self, x: Tensor4, mode: str = "eval") -> Tensor4:
        cfg = self.config
        n, c, h, w = x.dims
        if (c, h, w) != (3, cfg.image_size, cfg.image_size):
            raise ShapeError(
                f"input dims {x.dims} do not match config "
                f"(N, 3, {cfg.image_size}, {cfg.image_size})"
            )
        if x.data.dtype != self.dtype:
            raise ShapeError(f"input dtype {x.data.dtype} != network dtype {self.dtype}")
        out = run(self.stem, x, mode)
        for block in self.blocks:
            out = block.forward(out, mode)
        with op_scope("head.gap"):
            out = global_avg_pool(out)
        with op_scope("head.fc"):
            out = linear(out, self.head_weight, self.head_bias)
        return out


# ---------------------------------------------------------------------------
# Builders


def _conv_weight(name, out_c, in_c, k, rng, dtype) -> Tensor4:
    dims = (out_c, in_c, k, k)
    if rng is None:
        return zeros(dims, dtype=dtype, requires_grad=True)
    std = float(np.sqrt(2.0 / (in_c * k * k)))
    return randn(dims, rng.child(f"param/{name}"), std=std, dtype=dtype, requires_grad=True)


def _make_conv_bn(name, in_c, out_c, k, stride, rng, dtype, gamma: float = 1.0) -> ConvBn:
    weight = _conv_weight(name, out_c, in_c, k, rng, dtype)
    conv = Conv2dParams(weight=weight, bias=None, stride=stride, padding=k // 2)
    gamma_t = Tensor4(np.full((1, out_c, 1, 1), gamma, dtype=dtype), requires_grad=True)
    beta_t = zeros((1, out_c, 1, 1), dtype=dtype, requires_grad=True)
    bn = BatchNormState(gamma=gamma_t, beta=beta_t)
    return ConvBn(conv=conv, bn=bn)


def _make_block(cfg: NetworkConfig, name, in_c, width, out_c, stride, rng, dtype) -> Bottleneck:
    """Plain: 1x1 / 3x3 (carrying the stride) / 1x1. Split: 1x1 reduce, a
    2x2 average pool when striding, the split stage, 1x1 expand. The
    shortcut pools before projecting wherever the main path pools or the
    stem is the 3-conv one; otherwise the projection itself strides."""

    def conv(local, kind, c_in, c_out, k, stride=1, gamma=1.0):
        full = f"{name}.{local}"
        return full, kind, _make_conv_bn(full, c_in, c_out, k, stride, rng, dtype, gamma)

    last_gamma = 0.0 if cfg.zero_init_gamma else 1.0
    hs = cfg.block_type == "hs-bottleneck"
    if hs:
        block_cfg = HsBlockConfig(s=cfg.s, w=width, k=3, stride=stride, variant=cfg.variant)
        plan = channel_plan(block_cfg)
        units = [_make_conv_bn(f"{name}.hs.f{i + 2}", c_in, c_out, block_cfg.k, 1, rng, dtype)
                 for i, (c_in, c_out) in enumerate(zip(plan.conv_in, plan.conv_out))]
        stage = HsStage(block_cfg, units, name=f"{name}.hs")
        main = [conv("reduce", "conv_relu", in_c, block_cfg.mid_channels, 1)]
        if stride == 2:
            main.append((f"{name}.pool", "avg_pool", None))
        main += [(stage.name, "hs", stage),
                 conv("expand", "conv", plan.total_out, out_c, 1, gamma=last_gamma)]
    else:
        main = [
            conv("conv1", "conv_relu", in_c, width, 1),
            conv("conv2", "conv_relu", width, width, 3, stride),
            conv("conv3", "conv", width, out_c, 1, gamma=last_gamma),
        ]
    shortcut = []
    if in_c != out_c or stride != 1:
        pool = stride == 2 and (hs or cfg.stem == "resnet-d-3x3x3")
        if pool:
            shortcut.append((f"{name}.shortcut.pool", "avg_pool", None))
        shortcut.append(conv("shortcut", "conv", in_c, out_c, 1, 1 if pool else stride))
    return Bottleneck(name, in_c, main, shortcut)


def _make_stem(cfg: NetworkConfig, rng, dtype) -> list:
    c = cfg.stem_channels
    if cfg.stem == "classic-7x7":
        convs = [("stem.conv1", 3, c, 7, 2)]
    else:
        half = c // 2
        convs = [
            ("stem.conv1", 3, half, 3, 2),
            ("stem.conv2", half, half, 3, 1),
            ("stem.conv3", half, c, 3, 1),
        ]
    steps = [(name, "conv_relu", _make_conv_bn(name, *geometry, rng, dtype))
             for name, *geometry in convs]
    return steps + [("stem.pool", "max_pool", None)]


def build(cfg: NetworkConfig, rng: Rng | None = None, dtype=np.float64) -> Network:
    """Materialize a network. With ``rng=None`` parameters are zero-filled,
    which is enough for structure walks and complexity counting."""
    cfg.validate()
    dtype = np.dtype(dtype).type
    if dtype not in (np.float32, np.float64):
        raise ConfigError(f"dtype must be float32 or float64, got {dtype}")

    widths = cfg.stage_widths()
    outs = cfg.stage_out_channels()
    stem = _make_stem(cfg, rng, dtype)
    in_c = cfg.stem_channels
    blocks: list[Bottleneck] = []
    for j in range(4):
        for i in range(cfg.stage_blocks[j]):
            stride = 2 if (j > 0 and i == 0) else 1
            blocks.append(_make_block(cfg, f"s{j + 1}.b{i + 1}", in_c, widths[j], outs[j],
                                      stride, rng, dtype))
            in_c = outs[j]

    d = outs[-1]
    if rng is None:
        head_w = zeros((cfg.num_classes, d, 1, 1), dtype=dtype, requires_grad=True)
    else:
        head_w = randn(
            (cfg.num_classes, d, 1, 1), rng.child("param/head.fc.weight"),
            std=0.01, dtype=dtype, requires_grad=True,
        )
    head_b = zeros((1, cfg.num_classes, 1, 1), dtype=dtype, requires_grad=True)

    return Network(cfg, stem, blocks, head_w, head_b, dtype)


# ---------------------------------------------------------------------------
# Presets


def _hs50(name: str, w: int, s: int) -> NetworkConfig:
    return NetworkConfig(
        block_type="hs-bottleneck", stage_blocks=(3, 4, 6, 3), base_w=w, s=s,
        stem="resnet-d-3x3x3", num_classes=1000, image_size=224, name=name,
    )


NETWORK_PRESETS: dict[str, NetworkConfig] = {
    "resnet50": NetworkConfig(
        block_type="plain-bottleneck", stage_blocks=(3, 4, 6, 3), base_w=64,
        stem="classic-7x7", num_classes=1000, image_size=224, name="resnet50",
    ),
    "resnet50-d": NetworkConfig(
        block_type="plain-bottleneck", stage_blocks=(3, 4, 6, 3), base_w=64,
        stem="resnet-d-3x3x3", num_classes=1000, image_size=224, name="resnet50-d",
    ),
    "hs-resnet50-18w-8s": _hs50("hs-resnet50-18w-8s", 18, 8),
    "hs-resnet50-22w-7s": _hs50("hs-resnet50-22w-7s", 22, 7),
    "hs-resnet50-28w-6s": _hs50("hs-resnet50-28w-6s", 28, 6),
    "hs-resnet50-40w-5s": _hs50("hs-resnet50-40w-5s", 40, 5),
    "tiny-hs": NetworkConfig(
        block_type="hs-bottleneck", stage_blocks=(1, 1, 1, 1), base_w=4, s=4,
        stem="resnet-d-3x3x3", stem_channels=32, out_base=64,
        num_classes=10, image_size=32, name="tiny-hs",
    ),
    "tiny-plain": NetworkConfig(
        block_type="plain-bottleneck", stage_blocks=(1, 1, 1, 1), base_w=12,
        stem="resnet-d-3x3x3", stem_channels=32, out_base=64,
        num_classes=10, image_size=32, name="tiny-plain",
    ),
}


def preset(name: str) -> NetworkConfig:
    """Look up a named preset; returns a fresh copy safe to modify."""
    try:
        base = NETWORK_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(NETWORK_PRESETS))
        raise ConfigError(f"unknown preset {name!r}; known presets: {known}") from None
    return NetworkConfig(**{f.name: getattr(base, f.name) for f in base.__dataclass_fields__.values()})
