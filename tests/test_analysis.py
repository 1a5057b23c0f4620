"""Closed forms, exact counting, and the reconciliation sweep."""

import hashlib

import numpy as np
import pytest

from hsnet.analysis import (
    CSV_COLUMNS,
    count,
    count_config,
    dense_conv_params,
    reconcile,
    reconcile_csv,
    reconcile_text,
    report_text,
    split_params_closed_form,
    split_params_exact,
)
from hsnet import hsblock
from hsnet.hsblock import HsBlockConfig
from hsnet.network import build, preset
from hsnet.tensor import Rng, Tensor4, current_scope


class TestClosedForms:
    def test_dense_form_hand_values(self):
        assert dense_conv_params(3, 4, 10) == 14400
        assert dense_conv_params(1, 1, 1) == 1
        assert dense_conv_params(3, 2, 4) == 576

    def test_split_estimate_hand_values(self):
        assert split_params_closed_form(3, 2, 4) == 216.0
        assert split_params_closed_form(3, 3, 2) == 126.0

    def test_split_estimate_below_linear_bound(self):
        # each per-group ratio term is < 2, so the estimate is < 2(s-1)k^2w^2
        for s in range(2, 11):
            for w in (1, 3, 16, 64):
                for k in (3, 5):
                    assert split_params_closed_form(k, s, w) < 2 * (s - 1) * k * k * w * w

    def test_split_exact_hand_values(self):
        assert split_params_exact(HsBlockConfig(s=2, w=4)) == 144
        assert split_params_exact(HsBlockConfig(s=3, w=4)) == 468
        assert split_params_exact(HsBlockConfig(s=3, w=4)) < dense_conv_params(3, 3, 4)
        assert split_params_exact(HsBlockConfig(s=6, w=28)) == 95121

    def test_inequality_spot_grid(self):
        for s in (2, 4, 7, 10):
            for w in (1, 2, 9, 33, 64):
                for k in (3, 5):
                    cfg = HsBlockConfig(s=s, w=w, k=k)
                    assert split_params_exact(cfg) < dense_conv_params(k, s, w)

    def test_monotone_in_w_and_s(self):
        for s in (2, 5, 8):
            values = [split_params_exact(HsBlockConfig(s=s, w=w)) for w in range(1, 40)]
            assert all(b > a for a, b in zip(values, values[1:]))
        for w in (2, 16, 64):
            values = [split_params_exact(HsBlockConfig(s=s, w=w)) for s in range(2, 11)]
            assert all(b > a for a, b in zip(values, values[1:]))


class TestCount:
    def test_totals_equal_sum_of_rows(self):
        report = count_config(preset("tiny-hs"))
        assert report.params_total == sum(r.params for r in report.rows)
        assert report.flops_total == sum(r.flops for r in report.rows)
        assert report.params_total == (
            report.params_weights + report.params_bn + report.params_bias
        )

    def test_resnet50_budget(self):
        report = count_config(preset("resnet50"))
        assert report.params_total == 25_557_032
        assert abs(report.params_total / 25.56e6 - 1.0) < 0.01
        # ~4.11 GMACs at 224x224 under the 2-FLOPs-per-MAC convention
        assert 8.0e9 < report.flops_total < 8.5e9

    def test_count_matches_built_network(self):
        for name in ("tiny-hs", "tiny-plain"):
            net = build(preset(name), Rng(0), dtype=np.float32)
            report = count(net)
            assert report.params_total == net.param_count()

    def test_stage_exact_matches_counted_conv_params(self):
        net = build(preset("tiny-hs"), rng=None, dtype=np.float32)
        report = count(net)
        by_block = {}
        for row in report.rows:
            if ".hs.f" in row.name and row.kind == "conv":
                block = row.name.split(".hs.f")[0]
                by_block[block] = by_block.get(block, 0) + row.weight_params
        assert by_block  # sanity: hs rows exist
        for form in report.stage_forms:
            assert by_block[form.block] == form.split_exact

    def test_report_text_mentions_budget(self):
        text = report_text(count_config(preset("resnet50")))
        assert "25.56M" in text
        assert "2 FLOPs per multiply-accumulate" in text

    def test_image_size_override_scales_flops(self):
        small = count_config(preset("resnet50"), image_size=64)
        large = count_config(preset("resnet50"), image_size=224)
        assert small.flops_total < large.flops_total
        assert small.params_total == large.params_total


    @pytest.mark.parametrize("name, image_size", [
        ("tiny-hs", 32), ("tiny-plain", 32), ("resnet50", 64), ("resnet50-d", 64),
    ])
    def test_forward_runs_the_counted_convolutions(self, name, image_size, monkeypatch):
        cfg = preset(name)
        cfg.image_size = image_size
        net = build(cfg, rng=None, dtype=np.float32)
        calls = []
        real_conv2d = hsblock.conv2d

        def traced_conv2d(x, p):
            out = real_conv2d(x, p)
            oc, ic, k, _ = p.weight.dims
            bias = 0 if p.bias is None else oc * out.dims[2] * out.dims[3]
            calls.append((current_scope(), 2 * ic * k * k * oc * out.dims[2] * out.dims[3] + bias))
            return out

        monkeypatch.setattr(hsblock, "conv2d", traced_conv2d)
        net.forward(Tensor4(np.zeros((1, 3, image_size, image_size), np.float32)), mode="eval")
        convs = [r for r in count(net).rows if r.kind == "conv"]
        assert [scope for scope, _ in calls] == [r.name.removesuffix(".conv") for r in convs]
        assert sum(flops for _, flops in calls) == sum(r.flops for r in convs)


@pytest.fixture(scope="module")
def rows():
    return reconcile()


class TestPinnedCounts:
    """Row counts and totals at each preset's default image size, and the
    sweep's CSV, as the per-block walks produced them."""

    @pytest.mark.parametrize("name, expected", [
        ("hs-resnet50-18w-8s", (474, 45_068_774, 15_607_456_835)),
        ("hs-resnet50-22w-7s", (426, 50_760_808, 17_558_820_683)),
        ("hs-resnet50-28w-6s", (378, 58_914_575, 20_339_659_814)),
        ("hs-resnet50-40w-5s", (330, 77_633_237, 26_708_558_000)),
        ("resnet50", (174, 25_557_032, 8_217_431_528)),
        ("resnet50-d", (183, 25_576_264, 8_700_526_056)),
        ("tiny-hs", (90, 399_337, 6_803_442)),
        ("tiny-plain", (63, 399_322, 6_648_682)),
    ])
    def test_preset_counts(self, name, expected):
        report = count_config(preset(name))
        assert (len(report.rows), report.params_total, report.flops_total) == expected

    def test_reconcile_csv_bytes(self, rows):
        digest = hashlib.sha256(reconcile_csv(rows).encode()).hexdigest()
        assert digest == "5240d8b21e6ead9fafc1997c23e5c7abc3ed29e5e0b921a24dbfceebdd210bd7"


class TestReconcile:

    def test_row_coverage(self, rows):
        combos = {(r.preset, r.variant) for r in rows if r.preset != "resnet50"}
        assert len(combos) == 12  # 4 presets x 3 variants
        assert len(rows) == 13  # plus the control row

    def test_control_row_within_tolerance(self, rows):
        control = next(r for r in rows if r.preset == "resnet50")
        assert abs(control.dev_params_pct) < 1.0

    def test_deviations_are_signed_percentages(self, rows):
        hs_rows = [r for r in rows if r.preset != "resnet50"]
        assert any(r.dev_params_pct > 0 for r in hs_rows)
        for r in hs_rows:
            expected = 100.0 * (r.params_total - 27.00e6) / 27.00e6
            assert abs(r.dev_params_pct - expected) < 1e-9

    def test_both_flop_conventions_reported(self, rows):
        hs = next(r for r in rows if r.preset != "resnet50")
        assert hs.flops_total_1mac * 2 == hs.flops_total - (hs.flops_total % 2)
        assert hs.dev_flops_pct == hs.dev_flops_pct  # not NaN
        assert hs.dev_flops_1mac_pct == hs.dev_flops_1mac_pct

    def test_csv_schema(self, rows):
        text = reconcile_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == len(rows) + 1

    def test_text_report_names_best_match(self, rows):
        text = reconcile_text(rows)
        assert "closest parameter budget" in text
        assert "resnet50" in text
