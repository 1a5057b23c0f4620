"""Complexity accounting: exact parameter/FLOP counts and closed forms.

Conventions, fixed and reported with every result:

* FLOPs count 2 floating-point operations per multiply-accumulate, per
  image (batch 1). Batch norm costs 2 FLOPs per element (inference form:
  one multiply, one add), ReLU 1, average pooling k^2 per output element,
  max pooling k^2 - 1 comparisons, the residual add 1 per element.
* Parameter totals include batch-norm scale/shift pairs and biases, but
  those are also broken out separately so that convolution-weight-only
  numbers can be compared against the closed forms.

Three per-stage figures are computed for hierarchical-split stages:

* ``dense_conv_params``: k^2 * (s*w)^2, the dense k x k convolution the
  stage replaces.
* ``split_params_closed_form``: (s-1) * k^2 * w^2 * ((2^(s-1)-1)/2^(s-1)
  + 1), a fixed-ratio per-group estimate evaluated literally. Its ratio
  term uses the final group's channel fraction for every group, so it
  undercounts channel-preserving stages; the gap against the exact count
  is reported, never patched.
* ``split_params_exact``: the sum of k^2 * c_in * c_out over the actual
  group convolutions of the plan.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .hsblock import HsBlockConfig, channel_plan
from .layers import conv_output_size
from .network import POOL_GEOMETRY, Network, NetworkConfig, build, preset

# Published reference budgets the reconciliation sweep reports deviations
# against: 25.56M parameters for the plain 50-layer control, 27.00M for
# the hierarchical-split variants, and per-preset GFLOPs at 224x224.
CONTROL_PARAMS_M = 25.56
HS_PARAMS_M = 27.00
HS_FLOPS_G = {
    "hs-resnet50-18w-8s": 11.6,
    "hs-resnet50-22w-7s": 12.3,
    "hs-resnet50-28w-6s": 13.1,
    "hs-resnet50-40w-5s": 15.1,
}

FLOP_CONVENTION = "2 FLOPs per multiply-accumulate, batch 1"


# ---------------------------------------------------------------------------
# Closed forms


def dense_conv_params(k: int, s: int, w: int) -> int:
    """Weights of a dense k x k convolution over s*w channels: k^2 s^2 w^2."""
    if k < 1 or s < 1 or w < 1:
        raise ValueError(f"k, s, w must all be >= 1, got {(k, s, w)}")
    return k * k * s * s * w * w


def split_params_closed_form(k: int, s: int, w: int) -> float:
    """Fixed-ratio estimate: (s-1) * k^2 * w^2 * ((2^(s-1)-1)/2^(s-1) + 1)."""
    if s < 2:
        raise ValueError(f"the split estimate needs s >= 2, got {s}")
    ratio = (2 ** (s - 1) - 1) / (2 ** (s - 1)) + 1.0
    return (s - 1) * k * k * w * w * ratio


def split_params_exact(cfg: HsBlockConfig) -> int:
    """Exact group-conv weight count of one stage: sum k^2 * c_in * c_out."""
    plan = channel_plan(cfg)
    return sum(
        cfg.k * cfg.k * c_in * c_out
        for c_in, c_out in zip(plan.conv_in, plan.conv_out)
    )


# ---------------------------------------------------------------------------
# Per-layer walk


@dataclass
class LayerRow:
    name: str
    kind: str
    params: int = 0
    weight_params: int = 0
    bn_params: int = 0
    bias_params: int = 0
    flops: int = 0


@dataclass
class StageForm:
    block: str
    k: int
    s: int
    w: int
    dense_closed_form: int
    split_closed_form: float
    split_exact: int


@dataclass
class ComplexityReport:
    network: str
    image_size: int
    rows: list[LayerRow] = field(default_factory=list)
    stage_forms: list[StageForm] = field(default_factory=list)
    flop_convention: str = FLOP_CONVENTION

    @property
    def params_total(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def params_weights(self) -> int:
        return sum(r.weight_params for r in self.rows)

    @property
    def params_bn(self) -> int:
        return sum(r.bn_params for r in self.rows)

    @property
    def params_bias(self) -> int:
        return sum(r.bias_params for r in self.rows)

    @property
    def params_conv_only(self) -> int:
        return sum(r.weight_params for r in self.rows if r.kind == "conv")

    @property
    def flops_total(self) -> int:
        return sum(r.flops for r in self.rows)


def _conv_rows(rows: list[LayerRow], name: str, unit, hw: int) -> tuple[int, int]:
    conv = unit.conv
    k, out_c = conv.kernel_size, conv.out_channels
    out_hw = conv_output_size(hw, k, conv.stride, conv.padding)
    weight_n = int(conv.weight.data.size)
    bias_n = int(conv.bias.data.size) if conv.bias is not None else 0
    flops = 2 * conv.in_channels * k * k * out_c * out_hw * out_hw + bias_n * out_hw * out_hw
    rows.append(LayerRow(name=f"{name}.conv", kind="conv", params=weight_n + bias_n,
                         weight_params=weight_n, bias_params=bias_n, flops=flops))
    bn_n = int(unit.bn.gamma.data.size + unit.bn.beta.data.size)
    rows.append(LayerRow(name=f"{name}.bn", kind="bn", params=bn_n, bn_params=bn_n,
                         flops=2 * out_c * out_hw * out_hw))
    return out_c, out_hw


def _walk(rows: list[LayerRow], steps, c: int, hw: int) -> tuple[int, int]:
    """Append the rows of a step list entered with c channels at hw x hw;
    returns the shape it leaves."""
    for name, kind, unit in steps:
        if kind == "hs":
            _, hw = _walk(rows, unit.steps, c, hw)
            c = unit.plan.total_out
        elif kind in POOL_GEOMETRY:
            k, stride, padding = POOL_GEOMETRY[kind]
            hw = conv_output_size(hw, k, stride, padding)
            avg = kind == "avg_pool"
            rows.append(LayerRow(name=name, kind="pool_avg" if avg else "pool_max",
                                 flops=(k * k if avg else k * k - 1) * c * hw * hw))
        else:
            c, hw = _conv_rows(rows, name, unit, hw)
            if kind == "conv_relu":
                rows.append(LayerRow(name=f"{name}.relu", kind="relu", flops=c * hw * hw))
    return c, hw


def _stage_form(block: str, cfg: HsBlockConfig) -> StageForm:
    return StageForm(
        block=block, k=cfg.k, s=cfg.s, w=cfg.w,
        dense_closed_form=dense_conv_params(cfg.k, cfg.s, cfg.w),
        split_closed_form=split_params_closed_form(cfg.k, cfg.s, cfg.w),
        split_exact=split_params_exact(cfg),
    )


def count(net: Network, image_size: int | None = None) -> ComplexityReport:
    """Exact per-layer parameter and FLOP table for a built network."""
    cfg = net.config
    hw = image_size if image_size is not None else cfg.image_size
    report = ComplexityReport(network=cfg.name or cfg.block_type, image_size=hw)
    rows = report.rows

    c, hw = _walk(rows, net.stem, 3, hw)
    for block in net.blocks:
        out_c, out_hw = _walk(rows, block.main, c, hw)
        _walk(rows, block.shortcut, c, hw)
        for row_name, kind in ((f"{block.name}.add", "add"), (f"{block.name}.relu", "relu")):
            rows.append(LayerRow(name=row_name, kind=kind, flops=out_c * out_hw * out_hw))
        report.stage_forms += [_stage_form(block.name, unit.cfg)
                               for _, kind, unit in block.main if kind == "hs"]
        c, hw = out_c, out_hw

    rows.append(LayerRow(name="head.gap", kind="gap", flops=c * hw * hw))
    kk, d = net.head_weight.dims[0], net.head_weight.dims[1]
    bias_n = int(net.head_bias.data.size) if net.head_bias is not None else 0
    rows.append(LayerRow(name="head.fc", kind="fc", params=kk * d + bias_n,
                         weight_params=kk * d, bias_params=bias_n, flops=2 * kk * d + bias_n))
    return report


def count_config(cfg: NetworkConfig, image_size: int | None = None) -> ComplexityReport:
    """Count a config without initialized weights (zero-filled build)."""
    return count(build(cfg, rng=None, dtype=np.float32), image_size)


# ---------------------------------------------------------------------------
# Reconciliation sweep


@dataclass
class ReconcileRow:
    preset: str
    variant: str
    width_rule: str
    params_total: int
    params_conv_only: int
    flops_total: int
    dev_params_pct: float
    dev_flops_pct: float
    flops_total_1mac: int
    dev_flops_1mac_pct: float


def _pct(value: float, target: float) -> float:
    return 100.0 * (value - target) / target


def reconcile(presets=None, variants=None, width_rules=None, image_size: int = 224) -> list[ReconcileRow]:
    """Sweep preset x variant x width rule and report budget deviations.

    The plain 50-layer control row is always included. Parameter
    deviations are against 25.56M for the control and 27.00M for the
    split variants; FLOP deviations are against the per-preset GFLOP
    budgets, reported under both the 2-FLOPs-per-MAC convention used
    everywhere in this package and the 1-FLOP-per-MAC alternative.
    """
    presets = list(presets) if presets is not None else list(HS_FLOPS_G)
    variants = list(variants) if variants is not None else ["preserve", "split-first", "project"]
    width_rules = list(width_rules) if width_rules is not None else ["double-per-stage"]

    rows: list[ReconcileRow] = []

    control = count_config(preset("resnet50"), image_size)
    rows.append(
        ReconcileRow(
            preset="resnet50", variant="-", width_rule="double-per-stage",
            params_total=control.params_total,
            params_conv_only=control.params_conv_only,
            flops_total=control.flops_total,
            dev_params_pct=_pct(control.params_total, CONTROL_PARAMS_M * 1e6),
            dev_flops_pct=float("nan"),
            flops_total_1mac=control.flops_total // 2,
            dev_flops_1mac_pct=float("nan"),
        )
    )

    for preset_name in presets:
        target_flops = HS_FLOPS_G.get(preset_name)
        for variant in variants:
            for rule in width_rules:
                cfg = preset(preset_name)
                cfg.variant = variant
                if rule != "double-per-stage":
                    cfg.width_rule = rule
                report = count_config(cfg, image_size)
                flops = report.flops_total
                rows.append(
                    ReconcileRow(
                        preset=preset_name, variant=variant,
                        width_rule=rule if isinstance(rule, str) else str(list(rule)),
                        params_total=report.params_total,
                        params_conv_only=report.params_conv_only,
                        flops_total=flops,
                        dev_params_pct=_pct(report.params_total, HS_PARAMS_M * 1e6),
                        dev_flops_pct=(
                            _pct(flops, target_flops * 1e9) if target_flops else float("nan")
                        ),
                        flops_total_1mac=flops // 2,
                        dev_flops_1mac_pct=(
                            _pct(flops // 2, target_flops * 1e9) if target_flops else float("nan")
                        ),
                    )
                )
    return rows


CSV_COLUMNS = [
    "preset", "variant", "width_rule", "params_total", "params_conv_only",
    "flops_total", "dev_params_pct", "dev_flops_pct",
    "flops_total_1mac", "dev_flops_1mac_pct",
]


def reconcile_csv(rows: list[ReconcileRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow([
            r.preset, r.variant, r.width_rule, r.params_total, r.params_conv_only,
            r.flops_total, f"{r.dev_params_pct:+.2f}", _fmt_nan(r.dev_flops_pct),
            r.flops_total_1mac, _fmt_nan(r.dev_flops_1mac_pct),
        ])
    return buf.getvalue()


def _fmt_nan(v: float) -> str:
    return "" if v != v else f"{v:+.2f}"


def reconcile_text(rows: list[ReconcileRow]) -> str:
    """Aligned human-readable table plus the best-matching combination."""
    header = (
        f"{'preset':<22} {'variant':<12} {'width_rule':<17} "
        f"{'params':>12} {'dev%':>8} {'GFLOPs(2/MAC)':>14} {'dev%':>8} {'dev%(1/MAC)':>12}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.preset:<22} {r.variant:<12} {r.width_rule:<17} "
            f"{r.params_total:>12,} {r.dev_params_pct:>+8.2f} "
            f"{r.flops_total / 1e9:>14.2f} "
            f"{_fmt_nan(r.dev_flops_pct) or '':>8} {_fmt_nan(r.dev_flops_1mac_pct) or '':>12}"
        )
    candidates = [r for r in rows if r.preset != "resnet50"]
    if candidates:
        best = min(candidates, key=lambda r: abs(r.dev_params_pct))
        lines.append("")
        lines.append(
            f"closest parameter budget: {best.preset} / {best.variant} / {best.width_rule} "
            f"at {best.params_total:,} params ({best.dev_params_pct:+.2f}% vs 27.00M); "
            "reported as the nearest combination, not as a confirmed architecture."
        )
    return "\n".join(lines)


def report_text(report: ComplexityReport, full: bool = False) -> str:
    """Human-readable complexity report; ``full`` lists every layer row."""
    lines = [
        f"network: {report.network}  (image size {report.image_size})",
        f"flop convention: {report.flop_convention}",
        "",
    ]
    if full:
        lines.append(f"{'layer':<28} {'kind':<9} {'params':>12} {'FLOPs':>15}")
        lines.append("-" * 68)
        for r in report.rows:
            lines.append(f"{r.name:<28} {r.kind:<9} {r.params:>12,} {r.flops:>15,}")
        lines.append("")
    if report.stage_forms:
        lines.append(
            f"{'split stage':<14} {'k':>2} {'s':>2} {'w':>4} "
            f"{'dense k*k':>12} {'estimate':>12} {'exact':>12}"
        )
        for f_ in report.stage_forms:
            lines.append(
                f"{f_.block:<14} {f_.k:>2} {f_.s:>2} {f_.w:>4} "
                f"{f_.dense_closed_form:>12,} {f_.split_closed_form:>12,.0f} {f_.split_exact:>12,}"
            )
        lines.append("")
    m = report.params_total / 1e6
    lines.append(f"params total: {report.params_total:,} ({m:.2f}M)")
    lines.append(
        f"  weights {report.params_weights:,} | conv-only {report.params_conv_only:,} "
        f"| batch-norm {report.params_bn:,} | bias {report.params_bias:,}"
    )
    lines.append(
        f"flops total: {report.flops_total:,} ({report.flops_total / 1e9:.2f} GFLOPs; "
        f"{report.flops_total / 2e9:.2f} G under 1 FLOP/MAC)"
    )
    return "\n".join(lines)
