"""One benchmark run: inputs, training, checks, metrics, result line.

Operations are train steps, eval batches and audit batches. Each check
covers a group of them; if the group raises or its check fails, all of
its operations count as failed and the run is not correct.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path

import numpy as np

import hooks
import inputs
from hsnet.analysis import count
from hsnet.data import load_cifar10, normalize_images
from hsnet.network import preset
from hsnet.tensor import Tensor4
from hsnet.train import (
    DEFAULT_MEAN,
    DEFAULT_STD,
    DataConfig,
    TrainConfig,
    evaluate,
    load_network_checkpoint,
    train,
)
from workloads import NUM_CLASSES, WORKLOADS

LEARN_MARGIN = 0.3  # held-out top-1 must reach chance (0.1) plus this
PRECISION_RTOL = 1e-4  # bound on max |logit32 - logit64| / max |logit64|


class Ledger:
    """Operations attempted and failed, with the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, name: str, ops: int, fn):
        """Run a group of ``ops`` operations; ``fn`` returns (result, problems).

        Returns the result, or None if the group raised.
        """
        self.attempted += ops
        try:
            result, problems = fn()
        except Exception:  # noqa: BLE001 - any failure of the program fails its ops
            traceback.print_exc(file=sys.stderr)
            problems, result = ["raised"], None
        if problems:
            self.failed += ops
            self.problems.extend(f"{name}: {p}" for p in problems)
        return result

    def skip(self, name: str, ops: int) -> None:
        """A group that cannot run because one it needs failed."""
        self.attempted += ops
        self.failed += ops
        self.problems.append(f"{name}: not run")


def run(args, t_process: float, blas_threads: int) -> int:
    w = WORKLOADS[args.workload]
    epochs = w.epochs(args.seconds)
    run_dir = Path.cwd() / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    data_dir, out_dir = run_dir / "data", run_dir / "train"

    start = hooks.clock()
    inputs.write_inputs(data_dir, args.seed, w.train_per_class, w.eval_per_class)
    datagen_s = hooks.clock() - start

    net_cfg = preset(w.preset)
    net_cfg.image_size, net_cfg.num_classes = inputs.IMAGE_SIZE, NUM_CLASSES
    cfg = TrainConfig(
        network=net_cfg, data=DataConfig(kind="cifar10", path=str(data_dir)),
        seed=args.seed, epochs=epochs, batch_size=w.batch_size, base_lr=w.base_lr,
    )
    n_train, n_eval = NUM_CLASSES * w.train_per_class, NUM_CLASSES * w.eval_per_class
    eval_batches = math.ceil(n_eval / w.batch_size)
    check_ops = {"round-trip": eval_batches, "audit": w.audit_passes * w.audit_batches,
                 "precision": w.audit_batches, "tiling": 2}

    rec = hooks.Recorder(full=bool(args.trace))
    ledger = Ledger()
    metrics: dict[str, tuple[float, str]] = {}
    audit_s = None
    try:
        with rec.installed():
            def do_train():
                with rec.training():
                    rows = train(cfg, out_dir)
                return rows, learning_problems(rows)

            rows = ledger.run("train", epochs * (n_train // w.batch_size + eval_batches),
                              do_train)
            if rows is None:
                for name, ops in check_ops.items():
                    ledger.skip(name, ops)
            else:
                audit_s = run_checks(ledger, rec, w, check_ops, rows[-1]["eval_acc"],
                                     out_dir, data_dir)
        if ledger.failed == 0:
            if args.trace:
                metrics = traced_metrics(rec, w, ledger, run_dir)
            else:
                metrics = end_to_end(rec, w, t_process, datagen_s, audit_s)
    finally:
        for ckpt in out_dir.glob("*.ckpt"):
            ckpt.unlink()
        shutil.rmtree(data_dir, ignore_errors=True)

    for problem in ledger.problems:
        print(f"bench: FAILED {problem}", file=sys.stderr)
    result = {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    context = {"workload": args.workload, "seed": args.seed, "epochs": epochs,
               "blas": blas_name(), "blas_threads": blas_threads, "nproc": os.cpu_count()}
    samples = {"step_s": rec.step_times(), "epoch_s": rec.epoch_times(),
               "eval": [(n, end - start) for _, start, end, n in rec.evals],
               "audit_s": audit_s}
    (run_dir / "result.json").write_text(
        json.dumps({**context, **result, "samples": samples}, indent=1) + "\n")
    print(json.dumps(context), file=sys.stderr)
    print(json.dumps(result))
    return 0


def learning_problems(rows: list[dict]) -> list[str]:
    """The loss falls and held-out top-1 clears chance by LEARN_MARGIN."""
    problems = []
    first, last = rows[0], rows[-1]
    if not last["train_loss"] < first["train_loss"]:
        problems.append(f"train_loss {first['train_loss']} -> {last['train_loss']} did not fall")
    floor = 1 / NUM_CLASSES + LEARN_MARGIN
    if not last["eval_acc"] >= floor:
        problems.append(f"held-out top-1 {last['eval_acc']} below {floor}")
    return problems


def run_checks(ledger: Ledger, rec: hooks.Recorder, w, ops: dict[str, int],
               logged_acc: float, out_dir: Path, data_dir: Path) -> list[float] | None:
    """Round trip, float64 audit, two-precision and batch-tiling checks.

    Returns the seconds each audit batch took, or None if the audit failed.
    """
    eval_ds = load_cifar10(data_dir, split="test")
    ckpt = out_dir / "last.ckpt"
    tiles = [(lo, lo + w.audit_batch) for lo in range(0, w.audit_images, w.audit_batch)]

    def forward(net, lo, hi):
        x = normalize_images(eval_ds.images[lo:hi], DEFAULT_MEAN, DEFAULT_STD)
        out = net.forward(Tensor4(x.astype(net.dtype)), mode="eval")
        return out.data.reshape(hi - lo, -1)

    def round_trip():
        net32 = load_network_checkpoint(ckpt, dtype=np.float32)
        top1 = evaluate(net32, eval_ds, batch_size=w.batch_size).top1
        problems = [] if top1 == logged_acc else [
            f"reloaded top-1 {top1} != last logged eval_acc {logged_acc}"]
        # float32 checkpoints are exact, so the reloaded net repeats the trained one bit for bit
        lo, hi = tiles[0]
        if not np.array_equal(forward(net32, lo, hi), forward(rec.net, lo, hi)):
            problems.append("reloaded float32 logits differ from the trained network's")
        return net32, problems

    net32 = ledger.run("round-trip", ops["round-trip"], round_trip)

    def audit():
        net64 = load_network_checkpoint(ckpt, dtype=np.float64)
        passes, seconds = [], []
        with rec.auditing():
            for _ in range(w.audit_passes):
                logits = []
                for lo, hi in tiles:
                    start = hooks.clock()
                    logits.append(forward(net64, lo, hi))
                    seconds.append(hooks.clock() - start)
                passes.append(np.concatenate(logits))
        same = all(np.array_equal(p, passes[0]) for p in passes[1:])
        return (net64, passes[0], seconds), [] if same else [
            "float64 logits differ between audit passes"]

    audited = ledger.run("audit", ops["audit"], audit)
    if audited is None or net32 is None:
        ledger.skip("precision", ops["precision"])
        ledger.skip("tiling", ops["tiling"])
        return None
    net64, logits64, audit_s = audited

    def precision():
        logits32 = np.concatenate([forward(net32, lo, hi) for lo, hi in tiles])
        err = float(np.abs(logits32 - logits64).max() / np.abs(logits64).max())
        print(f"bench: float32 vs float64 logits: max rel diff {err:.3g}", file=sys.stderr)
        return err, [] if err <= PRECISION_RTOL else [f"max rel diff {err:.3g} > {PRECISION_RTOL}"]

    ledger.run("precision", ops["precision"], precision)

    def tiling():
        # the first image alone, then the rest of the prefix: a tiling the audit did not use
        retiled = np.concatenate([forward(net64, 0, 1), forward(net64, 1, w.tile_images)])
        same = np.array_equal(retiled, logits64[: w.tile_images])
        return same, [] if same else ["float64 logits differ between batch tilings"]

    ledger.run("tiling", ops["tiling"], tiling)
    return audit_s


def end_to_end(rec: hooks.Recorder, w, t_process: float, datagen_s: float,
               audit_s: list[float]):
    """The end-to-end metrics. Repeated timings report their best sample
    (see README.md, "Host noise"); set-up is one cold start per run."""
    step_s = [t for epoch, t in rec.step_times() if epoch >= hooks.WARMUP_EPOCHS]
    eval_rates = [n / (end - start) for _, start, end, n in rec.evals]
    first_step = rec.step_starts[0][1]
    return {
        # process start to the first train step, less the benchmark's own input writing
        "setup_s": (first_step - t_process - datagen_s, "s"),
        "train_img_per_s": (w.batch_size / min(step_s), "img/s"),
        "epoch_s": (min(rec.epoch_times()[hooks.WARMUP_EPOCHS:]), "s"),
        "eval_img_per_s": (max(eval_rates), "img/s"),
        "audit_img_per_s": (w.audit_batch / min(audit_s), "img/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


METRIC_UNITS = {"calls": "count", "saves": "count", "nodes": "count",
                "per_s": "GFLOP/s", "share": "ratio"}


def traced_metrics(rec: hooks.Recorder, w, ledger: Ledger, run_dir: Path):
    """Per-layer metrics, the two trace cross-checks and the per-scope table."""
    layer = hooks.per_layer(rec)
    net = rec.net
    conv_weights = sum(1 for name in net.parameters() if name.endswith(".conv.weight"))
    if layer["layers.conv2d.calls"] != conv_weights:
        ledger.problems.append(f"trace: {layer['layers.conv2d.calls']} conv2d calls per step, "
                               f"{conv_weights} conv weights in the net")
    report = count(net)
    counted = w.batch_size * sum(r.flops for r in report.rows if r.kind == "conv")
    traced = {b.get("layers.conv2d.flops") for b in rec.measured_steps()}
    if traced != {counted}:
        ledger.problems.append(f"trace: conv FLOPs per step {sorted(traced)} from call "
                               f"shapes, {counted} from analysis.count")
    write_table(run_dir / "trace_table.tsv", hooks.scope_table(rec, report, w.batch_size))
    return {k: (v, next((u for s, u in METRIC_UNITS.items() if k.endswith(s)), "ms"))
            for k, v in layer.items()}


def write_table(path: Path, rows: list[dict]) -> None:
    cols = ["scope", "fwd_ms", "bwd_ms", "calls", "flops", "gflop_per_s"]
    total = {"scope": "TOTAL", **{c: sum(r[c] for r in rows) for c in cols[1:5]},
             "gflop_per_s": ""}

    def cell(v):
        return f"{v:.4f}" if isinstance(v, float) else str(v)

    lines = ["\t".join(cols)] + ["\t".join(cell(r[c]) for c in cols) for r in rows + [total]]
    path.write_text("\n".join(lines) + "\n")


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"
