"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete. Criteria with stated runtime budgets assert them.
"""

import time

import numpy as np
import pytest

from hsnet.analysis import (
    count_config,
    dense_conv_params,
    reconcile,
    split_params_closed_form,
    split_params_exact,
)
from hsnet.gradcheck import gradcheck
from hsnet.hsblock import HsBlockConfig, channel_plan, hs_forward
from hsnet.layers import Conv2dParams, conv2d
from hsnet.network import preset
from hsnet.tensor import Rng, from_array, randn
from hsnet.train import DataConfig, TrainConfig, train

from datagen import ordering_dataset_path
from oracles import direct_conv2d
from test_hsblock import identity_like_stage


def report(number, ok, detail, elapsed=None, budget=None):
    stamp = ""
    if elapsed is not None:
        stamp = f" [{elapsed:.1f}s" + (f" / budget {budget:.0f}s]" if budget else "]")
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}{stamp}")
    assert ok, f"criterion {number}: {detail}"
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_01_channel_conservation():
    t0 = time.time()
    for s in range(2, 11):
        for w in range(1, 65):
            plan = channel_plan(HsBlockConfig(s=s, w=w))
            assert plan.total_out == s * w, (s, w)

    rng = Rng(101)
    for trial in range(200):
        s = int(rng.integers(2, 11))
        w = int(rng.integers(1, 33))
        cfg = HsBlockConfig(s=s, w=w)
        stage, plan = identity_like_stage(cfg, rng_seed=trial)
        x = randn((1, s * w, 4, 4), rng.child(f"x{trial}"))
        out = hs_forward(x, stage, mode="eval")
        assert out.dims[1] == s * w, (s, w)
    elapsed = time.time() - t0
    report(1, True, "sum(out)=s*w on the full grid; 200 random forwards preserve channels",
           elapsed, 10.0)


def test_criterion_02_closed_form_agreement():
    # The halving recurrence matches w*(2 - 2^(2-i)) exactly whenever the
    # chain stays integral (2^(i-2) divides w); with flooring it matches
    # floor(w*(2 - 2^(2-i))) everywhere. Both are checked on the grid.
    t0 = time.time()
    exact_checked = 0
    for s in range(2, 11):
        for w in range(2, 65, 2):
            plan = channel_plan(HsBlockConfig(s=s, w=w))
            for i in range(2, s + 1):
                closed = w * (2.0 - 2.0 ** (2 - i))
                assert plan.conv_in[i - 2] == int(closed)  # floored form, all cells
                if w % (2 ** (i - 2)) == 0:
                    assert closed == int(closed)
                    assert plan.conv_in[i - 2] == int(closed)
                    exact_checked += 1
    elapsed = time.time() - t0
    report(2, exact_checked > 500,
           f"conv_in matches the closed form exactly on {exact_checked} integral cells "
           "and its floored form on every cell", elapsed)


def test_criterion_03_complexity_inequality():
    t0 = time.time()
    for s in range(2, 11):
        for w in range(1, 65):
            for k in (3, 5):
                cfg = HsBlockConfig(s=s, w=w, k=k)
                assert split_params_exact(cfg) < dense_conv_params(k, s, w), (s, w, k)
    elapsed = time.time() - t0
    report(3, True, "exact split-stage weights < dense k*k weights over the full grid",
           elapsed)


def test_criterion_04_closed_form_exactness():
    rng = Rng(404)
    for _ in range(50):
        s = int(rng.integers(1, 12))
        w = int(rng.integers(1, 65))
        assert dense_conv_params(3, s, w) == 9 * s * s * w * w
    assert split_params_closed_form(3, 2, 4) == 216.0
    assert split_params_closed_form(3, 3, 2) == 126.0
    report(4, True, "dense form is 9*s^2*w^2 on 50 random pairs; estimate hand values 216 and 126 exact")


def test_criterion_05_baseline_parameter_budget():
    t0 = time.time()
    total = count_config(preset("resnet50")).params_total
    elapsed = time.time() - t0
    deviation = abs(total - 25.56e6) / 25.56e6
    report(5, deviation < 0.01,
           f"plain 50-layer baseline has {total:,} params ({deviation * 100:.2f}% from 25.56M)",
           elapsed, 5.0)


def test_criterion_06_budget_reconciliation():
    t0 = time.time()
    rows = reconcile()
    elapsed = time.time() - t0

    sweep = [r for r in rows if r.preset != "resnet50"]
    combos = {(r.preset, r.variant) for r in sweep}
    control = next(r for r in rows if r.preset == "resnet50")
    ok = (
        len(combos) == 12
        and abs(control.dev_params_pct) < 1.0
        and all(np.isfinite(r.dev_flops_pct) for r in sweep)
        and all(np.isfinite(r.dev_flops_1mac_pct) for r in sweep)
    )
    nearest = min(sweep, key=lambda r: abs(r.dev_params_pct))
    report(6, ok,
           "sweep emits 4 presets x 3 variants under both FLOP conventions; control at "
           f"{control.dev_params_pct:+.2f}%; nearest split budget {nearest.preset}/"
           f"{nearest.variant} at {nearest.dev_params_pct:+.2f}% (reported finding)",
           elapsed, 30.0)


def test_criterion_07_gradient_soundness():
    t0 = time.time()
    result = gradcheck(preset("tiny-hs"), samples=20, seed=0, tol=1e-3)
    elapsed = time.time() - t0
    report(7, result.passed,
           f"20 sampled parameters within 1e-3 of central differences "
           f"(max rel {result.max_rel_error:.2e})", elapsed, 120.0)


def test_criterion_08_convolution_oracle_equivalence():
    t0 = time.time()
    rng = Rng(808)
    cases = 0
    while cases < 100:
        n = int(rng.integers(1, 5))
        c = int(rng.integers(1, 6))
        h = int(rng.integers(3, 10))
        w = int(rng.integers(3, 10))
        k = int(rng.integers(0, 3)) * 2 + 1  # 1, 3, 5
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 3))
        oc = int(rng.integers(1, 6))
        if (h + 2 * pad - k) // stride + 1 < 1 or (w + 2 * pad - k) // stride + 1 < 1:
            continue
        x = rng.child(f"x{cases}").standard_normal((n, c, h, w))
        wt = rng.child(f"w{cases}").standard_normal((oc, c, k, k))
        fast = conv2d(
            from_array(x), Conv2dParams(weight=from_array(wt), stride=stride, padding=pad)
        ).data
        ref = direct_conv2d(x, wt, stride=stride, padding=pad)
        assert np.array_equal(fast, ref), (n, c, h, w, k, stride, pad, oc)
        cases += 1
    elapsed = time.time() - t0
    report(8, True, "float64 conv path equals the direct seven-loop oracle bit-for-bit "
           "on 100 random geometries", elapsed, 30.0)


def _toy_training_config(epochs=30):
    return TrainConfig(
        network=preset("tiny-hs"),
        data=DataConfig(kind="synth", k=10, n_per_class=100, n_eval_per_class=20),
        seed=42,
        epochs=epochs,
        batch_size=128,
        base_lr=0.1,
    )


@pytest.mark.slow
def test_criterion_09_toy_training(tmp_path):
    t0 = time.time()
    rows = train(_toy_training_config(), tmp_path / "run1")
    best = max(r["train_acc"] for r in rows)

    train(_toy_training_config(), tmp_path / "run2")
    log1 = (tmp_path / "run1" / "log.jsonl").read_bytes()
    log2 = (tmp_path / "run2" / "log.jsonl").read_bytes()
    ckpt1 = (tmp_path / "run1" / "last.ckpt").read_bytes()
    ckpt2 = (tmp_path / "run2" / "last.ckpt").read_bytes()
    elapsed = time.time() - t0

    report(9, best >= 0.95 and log1 == log2 and ckpt1 == ckpt2,
           f"toy training reached {best * 100:.1f}% train accuracy within 30 epochs at "
           "seed 42; rerun reproduced the log and checkpoint byte-for-byte",
           elapsed, 600.0)


@pytest.mark.slow
def test_criterion_10_relative_ordering(tmp_path):
    t0 = time.time()
    data_path, subset = ordering_dataset_path(tmp_path)

    hs_params = count_config(preset("tiny-hs")).params_total
    plain_params = count_config(preset("tiny-plain")).params_total
    assert abs(hs_params - plain_params) / plain_params < 0.02  # matched budgets

    def run(preset_name, seed):
        cfg = TrainConfig(
            network=preset(preset_name),
            data=DataConfig(kind="cifar10", path=data_path, subset=subset),
            seed=seed,
            epochs=20,
            batch_size=64,
            label_smoothing=0.0,
        )
        rows = train(cfg, tmp_path / f"{preset_name}-{seed}")
        return rows[-1]["train_loss"]

    outcomes = []
    for seed in (0, 1, 2):
        hs_loss = run("tiny-hs", seed)
        plain_loss = run("tiny-plain", seed)
        outcomes.append((seed, hs_loss, plain_loss, hs_loss <= plain_loss))
        print(f"  seed {seed}: split {hs_loss:.4f} vs plain {plain_loss:.4f} "
              f"-> {'split' if hs_loss <= plain_loss else 'plain'} lower")
    wins = sum(1 for *_, won in outcomes if won)
    elapsed = time.time() - t0

    report(10, wins >= 2,
           f"split block's final train loss lower at {wins}/3 seeds on the fixed "
           f"{subset}-image set, 20 epochs, matched budgets "
           f"({hs_params:,} vs {plain_params:,} params); informative target is 3/3, "
           "gate is 2/3", elapsed, 3600.0)
