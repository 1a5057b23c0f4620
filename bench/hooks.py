"""Timing hooks installed on hsnet's public functions from outside it.

A :class:`Recorder` replaces functions of the imported ``hsnet`` modules
with timing wrappers, in every module namespace that holds them (ops are
imported by name into ``hsblock``, ``network`` and ``train``), and puts
the originals back on exit.

Two levels exist. The boundary hooks are always on: one clock reading at
the start of each epoch (``cosine_lr``), each train step (``augment``)
and around each ``evaluate`` call, and a reference to the network that
``train`` builds. They give the end-to-end figures. The
full trace (``full=True``) adds a wrapper on every layer op, on
``record`` (so each backward rule is charged to the op and ``op_scope``
that recorded it), on the tape's ``backward``, on SGD, data, build and
checkpoint functions; it gives the per-layer figures and the per-scope
table.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from hsnet import checkpoint, hsblock, layers, tensor
from hsnet import train as train_mod
from hsnet.network import Network
from hsnet.tensor import current_scope

clock = time.perf_counter

WARMUP_EPOCHS = 1  # steps and epochs before this index are left out of medians

LAYER_OPS = ("conv2d", "batch_norm", "relu", "max_pool", "avg_pool",
             "global_avg_pool", "linear", "softmax_cross_entropy")
HS_OPS = ("split_channels", "concat_channels")
# op key -> (defining module, function name)
TRACED_OPS = {**{f"layers.{name}": (layers, name) for name in LAYER_OPS},
              **{f"hsblock.{name}": (hsblock, name) for name in HS_OPS},
              "tensor.add": (tensor, "add")}


def median(values, default=0.0) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else default


class Recorder:
    """Collects clock readings from the wrapped functions of one run."""

    def __init__(self, full: bool):
        self.full = full
        self.in_train = False
        self.phase = "setup"  # setup | train | eval | audit | post
        self.epoch = -1
        self.epoch_starts: list[float] = []
        self.train_end = 0.0
        self.step_starts: list[tuple[int, float]] = []
        self.evals: list[tuple[int, float, float, int]] = []  # epoch, start, end, images
        self.samples: dict[str, list[float]] = defaultdict(list)  # per-call figures
        self.steps: list[dict[str, float]] = []  # full trace: one bucket per train step
        self.bucket: dict[str, float] | None = None
        self.scopes: dict[str, list[float]] = {}  # scope -> [fwd_s, bwd_s, calls]
        self.labels: list[str] = []  # fallback scope for ops run outside any op_scope
        self.ops: list[tuple[str, str]] = []  # (op, scope) of the op running now
        self.net: Network | None = None
        self._undo: list = []

    # -- installing -------------------------------------------------------

    def _patch(self, original, wrapper) -> None:
        """Replace ``original`` by ``wrapper`` wherever hsnet binds it by name."""
        for name, module in list(sys.modules.items()):
            if name != "hsnet" and not name.startswith("hsnet."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    @contextmanager
    def installed(self):
        self._patch(train_mod.cosine_lr, self._wrap_cosine_lr(train_mod.cosine_lr))
        self._patch(train_mod.augment, self._wrap_augment(train_mod.augment))
        self._patch(train_mod.evaluate, self._wrap_evaluate(train_mod.evaluate))
        self._patch(train_mod.build, self._wrap_build(train_mod.build))
        if self.full:
            self._install_full()
        try:
            yield self
        finally:
            for module, attr, original in reversed(self._undo):
                setattr(module, attr, original)
            self._undo.clear()

    def _install_full(self) -> None:
        for original, key in ((train_mod.normalize_images, "data.normalize"),
                              (train_mod.sgd_step, "train.sgd")):
            self._patch(original, self._wrap_step_timed(original, key))
        self._patch(train_mod.load_cifar10, self._wrap_sample(train_mod.load_cifar10, "data.load", True))
        self._patch(checkpoint.save, self._wrap_sample(checkpoint.save, "checkpoint.save", True))
        self._patch(checkpoint.load, self._wrap_sample(checkpoint.load, "checkpoint.load", False))
        self._patch(train_mod.backward, self._wrap_backward(train_mod.backward))
        self._patch(hsblock.hs_forward, self._wrap_hs_forward(hsblock.hs_forward))
        for op, (module, attr) in TRACED_OPS.items():
            original = getattr(module, attr)
            self._patch(original, self._wrap_op(original, op))
        self._patch(tensor.record, self._wrap_record(tensor.record))
        forward = Network.forward
        Network.forward = self._wrap_forward(forward)
        self._undo.append((Network, "forward", forward))

    # -- phases driven by the benchmark -----------------------------------

    @contextmanager
    def training(self):
        self.in_train, self.phase = True, "train"
        try:
            yield
        finally:
            self.train_end = clock()
            self.in_train, self.phase, self.bucket = False, "post", None

    @contextmanager
    def auditing(self):
        self.phase = "audit"
        try:
            yield
        finally:
            self.phase = "post"

    # -- accumulation -----------------------------------------------------

    def _add(self, key: str, value: float) -> None:
        if self.bucket is not None and self.phase == "train":
            self.bucket[key] = self.bucket.get(key, 0.0) + value

    def _measured(self) -> bool:
        return self.bucket is not None and self.phase == "train" and self.epoch >= WARMUP_EPOCHS

    def _scope_add(self, scope: str, index: int, value: float) -> None:
        if self._measured():
            self.scopes.setdefault(scope, [0.0, 0.0, 0])[index] += value

    # -- boundary wrappers ------------------------------------------------

    def _wrap_cosine_lr(self, fn):
        def cosine_lr(*args, **kwargs):
            if self.in_train:
                self.epoch += 1
                self.epoch_starts.append(clock())
            return fn(*args, **kwargs)
        return cosine_lr

    def _wrap_augment(self, fn):
        def augment(*args, **kwargs):
            start = clock()
            if self.in_train:
                self.step_starts.append((self.epoch, start))
                if self.full:
                    self.bucket = {}
                    self.steps.append(self.bucket)
                    self.bucket["epoch"] = self.epoch
            out = fn(*args, **kwargs)
            self._add("data.augment", clock() - start)
            return out
        return augment

    def _wrap_evaluate(self, fn):
        def evaluate(net, ds, *args, **kwargs):
            outer, self.phase = self.phase, "eval"
            start = clock()
            try:
                return fn(net, ds, *args, **kwargs)
            finally:
                end = clock()
                self.phase = outer
                if self.in_train:
                    self.evals.append((self.epoch, start, end, len(ds)))
                    self.samples["train.evaluate"].append(end - start)
        return evaluate

    def _wrap_build(self, fn):
        def build(*args, **kwargs):
            start = clock()
            net = fn(*args, **kwargs)
            if self.in_train:
                self.samples["network.build"].append(clock() - start)
                self.net = net
            return net
        return build

    # -- full-trace wrappers ----------------------------------------------

    def _wrap_step_timed(self, fn, key):
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add(key, clock() - start)
        return wrapper

    def _wrap_sample(self, fn, key, train_only):
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                if self.in_train or not train_only:
                    self.samples[key].append(clock() - start)
        return wrapper

    def _wrap_backward(self, fn):
        def backward(tape, loss):
            self._add("tensor.tape_nodes", len(tape.nodes))
            start = clock()
            try:
                return fn(tape, loss)
            finally:
                self._add("tensor.backward", clock() - start)
        return backward

    def _wrap_hs_forward(self, fn):
        def hs_forward(x, stage, *args, **kwargs):
            self.labels.append(stage.name)
            start = clock()
            try:
                return fn(x, stage, *args, **kwargs)
            finally:
                self._add("hsblock.hs_forward", clock() - start)
                self.labels.pop()
        return hs_forward

    def _wrap_forward(self, fn):
        def forward(net, x, mode="eval"):
            start = clock()
            try:
                return fn(net, x, mode)
            finally:
                elapsed = clock() - start
                if mode == "train":
                    self._add("network.forward_train", elapsed)
                elif self.phase == "eval" and self.in_train:
                    self.samples["network.forward_eval"].append(elapsed)
                elif self.phase == "audit":
                    self.samples["network.forward_audit"].append(elapsed)
        return forward

    def _wrap_op(self, fn, op):
        is_conv = op == "layers.conv2d"

        def wrapper(*args, **kwargs):
            scope = current_scope() or (self.labels[-1] if self.labels else "loss")
            self.ops.append((op, scope))
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.ops.pop()
            self._add(f"{op}.fwd", elapsed)
            self._add(f"{op}.calls", 1)
            self._add("ops.fwd", elapsed)
            self._scope_add(scope, 0, elapsed)
            self._scope_add(scope, 2, 1)
            if is_conv:
                self._add("layers.conv2d.flops", conv_flops(args[0], args[1], out))
            return out
        return wrapper

    def _wrap_record(self, fn):
        def record(inputs, output, grad_fn):
            op, scope = self.ops[-1] if self.ops else ("other", current_scope())

            def timed_grad(g):
                start = clock()
                try:
                    return grad_fn(g)
                finally:
                    elapsed = clock() - start
                    self._add(f"{op}.bwd", elapsed)
                    self._add("ops.bwd", elapsed)
                    self._scope_add(scope, 1, elapsed)

            return fn(inputs, output, timed_grad)
        return record

    # -- results ----------------------------------------------------------

    def step_times(self) -> list[tuple[int, float]]:
        """(epoch, seconds) of every train step: from its ``augment`` call to the
        next step's, or to the epoch's ``evaluate`` call for the last one."""
        eval_start = {epoch: start for epoch, start, _, _ in self.evals}
        out = []
        for i, (epoch, start) in enumerate(self.step_starts):
            nxt = self.step_starts[i + 1] if i + 1 < len(self.step_starts) else None
            end = nxt[1] if nxt is not None and nxt[0] == epoch else eval_start.get(
                epoch, self.train_end)
            out.append((epoch, end - start))
        return out

    def epoch_times(self) -> list[float]:
        ends = self.epoch_starts[1:] + [self.train_end]
        return [end - start for start, end in zip(self.epoch_starts, ends)]

    def measured_steps(self) -> list[dict[str, float]]:
        return [b for b in self.steps if b["epoch"] >= WARMUP_EPOCHS]


def conv_flops(x, params, out) -> int:
    """2 per multiply-accumulate (plus one per bias add), from the call's shapes."""
    n, c = x.dims[0], x.dims[1]
    oc, ic, k, _ = params.weight.dims
    _, _, oh, ow = out.dims
    flops = 2 * n * oh * ow * oc * ic * k * k
    if params.bias is not None:
        flops += n * oc * oh * ow
    return flops


def scope_table(recorder: Recorder, report, batch: int) -> list[dict]:
    """Per-``op_scope`` rows: mean fwd/bwd ms and calls per measured train
    step, the scope's FLOPs per step from ``analysis.count`` and the
    achieved forward GFLOP/s."""
    n_steps = max(1, len(recorder.measured_steps()))
    names = list(recorder.scopes)
    flops = dict.fromkeys(names, 0)
    for row in report.rows:
        owner = max((s for s in names if row.name == s or row.name.startswith(s + ".")),
                    key=len, default=None)
        if owner is None and row.name.endswith(".relu"):
            # a block's closing ReLU runs inside its '<block>.add' scope
            owner = row.name[: -len(".relu")] + ".add"
        if owner in flops:
            flops[owner] += row.flops * batch
    rows = []
    for name in names:
        fwd, bwd, calls = recorder.scopes[name]
        fwd_ms, bwd_ms = 1e3 * fwd / n_steps, 1e3 * bwd / n_steps
        rows.append({
            "scope": name,
            "fwd_ms": fwd_ms,
            "bwd_ms": bwd_ms,
            "calls": calls / n_steps,
            "flops": flops[name],
            "gflop_per_s": flops[name] / (fwd_ms * 1e6) if fwd_ms > 0 else 0.0,
        })
    return rows


def per_layer(recorder: Recorder) -> dict[str, float]:
    """Per-layer metrics: medians per measured train step unless named
    per call or per run."""
    steps = recorder.measured_steps()

    def per_step(key):
        return median(b.get(key, 0.0) for b in steps)

    def ms(key):
        return 1e3 * per_step(key)

    def call_ms(key):
        return 1e3 * median(recorder.samples.get(key, []))

    step_s = [t for e, t in recorder.step_times() if e >= WARMUP_EPOCHS]
    out = {
        "data.load_ms": 1e3 * sum(recorder.samples.get("data.load", [])),
        "data.augment_ms": ms("data.augment"),
        "data.normalize_ms": ms("data.normalize"),
        "network.build_ms": 1e3 * sum(recorder.samples.get("network.build", [])),
        "network.forward_train_ms": ms("network.forward_train"),
        "network.forward_eval_ms": call_ms("network.forward_eval"),
        "network.forward_audit_ms": call_ms("network.forward_audit"),
        "tensor.backward_self_ms": 1e3 * median(
            b.get("tensor.backward", 0.0) - b.get("ops.bwd", 0.0) for b in steps),
        "tensor.tape_nodes": per_step("tensor.tape_nodes"),
    }
    for name in LAYER_OPS:
        out[f"layers.{name}.fwd_ms"] = ms(f"layers.{name}.fwd")
        out[f"layers.{name}.bwd_ms"] = ms(f"layers.{name}.bwd")
    out["layers.conv2d.calls"] = per_step("layers.conv2d.calls")
    out["layers.conv2d.gflop_per_s"] = median(
        b["layers.conv2d.flops"] / b["layers.conv2d.fwd"] / 1e9
        for b in steps if b.get("layers.conv2d.fwd"))
    for name in HS_OPS:
        out[f"hsblock.{name}.fwd_ms"] = ms(f"hsblock.{name}.fwd")
        out[f"hsblock.{name}.bwd_ms"] = ms(f"hsblock.{name}.bwd")
    out["hsblock.hs_forward_ms"] = ms("hsblock.hs_forward")
    out["train.sgd_ms"] = ms("train.sgd")
    out["train.evaluate_ms"] = call_ms("train.evaluate")
    out["checkpoint.save_ms"] = call_ms("checkpoint.save")
    out["checkpoint.saves"] = float(len(recorder.samples.get("checkpoint.save", [])))
    out["checkpoint.load_ms"] = call_ms("checkpoint.load")
    out["trace.step_ms"] = 1e3 * min(step_s)  # fastest step, as train_img_per_s reads it
    covered = [
        (b.get("data.augment", 0.0) + b.get("data.normalize", 0.0) + b.get("ops.fwd", 0.0)
         + b.get("ops.bwd", 0.0) + b.get("train.sgd", 0.0)) / t
        for b, t in zip(steps, step_s)
    ]
    out["trace.covered_share"] = median(covered)
    return out
