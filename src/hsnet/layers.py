"""Layer vocabulary: convolution, batch norm, ReLU, pooling, linear, loss.

Forward rules produce fresh tensors and record backward rules on the
active tape. Convolution is cross-correlation (no kernel flip) with zero
padding, implemented as im2col plus a matrix product.

The reduction order of the convolution depends on the precision profile:

* float64 (audit profile): the im2col columns, ordered (channel, kh, kw),
  are accumulated strictly left to right. Each output element then sees
  exactly the same sequence of IEEE-754 multiply/adds as a direct
  seven-loop summation over a zero-padded input, so the fast path is
  bit-identical to the direct oracle.
* float32 (fast profile): BLAS matmul. Run-to-run deterministic for a
  fixed environment, but not bit-comparable to the direct summation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateStatsError, GeometryError, ShapeError
from .tensor import Tensor4, check_finite, record


def conv_output_size(extent: int, k: int, stride: int, padding: int) -> int:
    """Spatial output extent: floor((extent + 2*padding - k)/stride) + 1."""
    return (extent + 2 * padding - k) // stride + 1


@dataclass
class Conv2dParams:
    """Square-kernel 2-D convolution parameters.

    weight has dims (outC, inC, k, k); bias, when present, is one value
    per output channel stored as a (1, outC, 1, 1) tensor.
    """

    weight: Tensor4
    bias: Tensor4 | None = None
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        oc, ic, kh, kw = self.weight.dims
        if kh != kw:
            raise ShapeError(f"kernel must be square, got {kh}x{kw}")
        if self.stride < 1:
            raise ShapeError(f"stride must be >= 1, got {self.stride}")
        if self.padding < 0:
            raise ShapeError(f"padding must be >= 0, got {self.padding}")
        if self.bias is not None and self.bias.dims != (1, oc, 1, 1):
            raise ShapeError(
                f"bias dims {self.bias.dims} do not match out channels {oc}"
            )

    @property
    def out_channels(self) -> int:
        return self.weight.dims[0]

    @property
    def in_channels(self) -> int:
        return self.weight.dims[1]

    @property
    def kernel_size(self) -> int:
        return self.weight.dims[2]


def _im2col(x: np.ndarray, k: int, stride: int, padding: int):
    """Return (cols, oh, ow) with cols of shape (N*oh*ow, C*k*k).

    Column order along the reduction axis is (channel, kh, kw), matching
    the loop order of the direct summation.
    """
    n, c, h, w = x.shape
    oh = conv_output_size(h, k, stride, padding)
    ow = conv_output_size(w, k, stride, padding)
    if oh < 1 or ow < 1:
        raise GeometryError(
            f"conv output {oh}x{ow} < 1 for input {h}x{w}, k={k}, "
            f"stride={stride}, padding={padding}"
        )
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    # (N, C, oh, ow, k, k) -> (N, oh, ow, C, k, k) -> (N*oh*ow, C*k*k)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * k * k)
    return np.ascontiguousarray(cols), oh, ow


def _ordered_matmul(cols: np.ndarray, wf: np.ndarray) -> np.ndarray:
    """cols @ wf with a strict left-to-right reduction over the K axis."""
    m, kdim = cols.shape
    out = np.zeros((m, wf.shape[1]), dtype=cols.dtype)
    tmp = np.empty_like(out)
    for j in range(kdim):
        np.multiply(cols[:, j : j + 1], wf[j : j + 1, :], out=tmp)
        out += tmp
    return out


def _col2im(dcols, n, c, h, w, k, stride, padding, oh, ow):
    hp, wp = h + 2 * padding, w + 2 * padding
    dxp = np.zeros((n, c, hp, wp), dtype=dcols.dtype)
    d6 = dcols.reshape(n, oh, ow, c, k, k).transpose(0, 3, 4, 5, 1, 2)
    for a in range(k):
        for b in range(k):
            dxp[:, :, a : a + oh * stride : stride, b : b + ow * stride : stride] += d6[
                :, :, a, b
            ]
    if padding:
        return dxp[:, :, padding : padding + h, padding : padding + w]
    return dxp


def conv2d(x: Tensor4, p: Conv2dParams) -> Tensor4:
    """Cross-correlation with zero padding; backward for x, weight, bias."""
    n, c, h, w = x.dims
    if c != p.in_channels:
        raise ShapeError(f"conv2d: input has {c} channels, weight expects {p.in_channels}")
    if x.data.dtype != p.weight.data.dtype:
        raise ShapeError(f"conv2d: dtype {x.data.dtype} vs weight {p.weight.data.dtype}")
    k, stride, padding = p.kernel_size, p.stride, p.padding
    oc = p.out_channels

    cols, oh, ow = _im2col(x.data, k, stride, padding)
    wf = p.weight.data.reshape(oc, -1).T  # (C*k*k, outC)
    if x.data.dtype == np.float64:
        flat = _ordered_matmul(cols, wf)
    else:
        flat = cols @ wf
    out_data = flat.reshape(n, oh, ow, oc).transpose(0, 3, 1, 2)
    out_data = np.ascontiguousarray(out_data)
    if p.bias is not None:
        out_data = out_data + p.bias.data
    check_finite(out_data, "conv2d")

    requires = x.requires_grad or p.weight.requires_grad or (
        p.bias is not None and p.bias.requires_grad
    )
    out = Tensor4._wrap(out_data, requires)

    weight, bias = p.weight, p.bias

    def grad_fn(g):
        gf = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * oh * ow, oc)
        dw = (cols.T @ gf).T.reshape(weight.dims)
        dcols = gf @ wf.T
        dx = _col2im(dcols, n, c, h, w, k, stride, padding, oh, ow)
        if bias is None:
            return dx, dw
        db = gf.sum(axis=0).reshape(1, oc, 1, 1)
        return dx, dw, db

    inputs = (x, weight) if bias is None else (x, weight, bias)
    record(inputs, out, grad_fn)
    return out


# ---------------------------------------------------------------------------
# Batch normalization


@dataclass
class BatchNormState:
    """Per-channel affine normalization state.

    Batch statistics use the biased variance (divide by the element
    count), and the running variance stores the same convention. Running
    stats update as ``r <- (1 - momentum) * r + momentum * batch``.
    """

    gamma: Tensor4  # (1, C, 1, 1)
    beta: Tensor4  # (1, C, 1, 1)
    running_mean: np.ndarray = field(default=None)  # (C,)
    running_var: np.ndarray = field(default=None)  # (C,)
    momentum: float = 0.1
    eps: float = 1e-5

    def __post_init__(self):
        c = self.gamma.dims[1]
        if self.gamma.dims != (1, c, 1, 1) or self.beta.dims != (1, c, 1, 1):
            raise ShapeError("gamma/beta must have dims (1, C, 1, 1)")
        dtype = self.gamma.data.dtype
        if self.running_mean is None:
            self.running_mean = np.zeros(c, dtype=dtype)
        if self.running_var is None:
            self.running_var = np.ones(c, dtype=dtype)
        if self.running_mean.shape != (c,) or self.running_var.shape != (c,):
            raise ShapeError("running stats must be one value per channel")
        if np.any(self.running_var < 0):
            raise ValueError("running_var entries must be >= 0")
        if not 0.0 < self.momentum < 1.0:
            raise ValueError(f"momentum must be in (0, 1), got {self.momentum}")
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")

    @property
    def channels(self) -> int:
        return self.gamma.dims[1]


def _check_mode(mode: str) -> None:
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")


def batch_norm(x: Tensor4, state: BatchNormState, mode: str) -> Tensor4:
    """Normalize per channel; train mode uses batch stats and updates the
    running estimates, eval mode is a pure function of the running stats."""
    _check_mode(mode)
    n, c, h, w = x.dims
    if c != state.channels:
        raise ShapeError(f"batch_norm: {c} channels vs state {state.channels}")
    dtype = x.data.dtype

    if mode == "train":
        m = n * h * w
        if m <= 1:
            raise DegenerateStatsError(
                f"batch statistics need more than one element per channel, got {m}"
            )
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))  # biased
        mom = dtype.type(state.momentum)
        state.running_mean = ((1 - mom) * state.running_mean + mom * mean).astype(dtype)
        state.running_var = ((1 - mom) * state.running_var + mom * var).astype(dtype)
    else:
        mean = state.running_mean
        var = state.running_var

    inv = 1.0 / np.sqrt(var + dtype.type(state.eps))
    xhat = (x.data - mean.reshape(1, c, 1, 1)) * inv.reshape(1, c, 1, 1)
    out_data = state.gamma.data * xhat + state.beta.data
    check_finite(out_data, "batch_norm")

    gamma, beta = state.gamma, state.beta
    requires = x.requires_grad or gamma.requires_grad or beta.requires_grad
    out = Tensor4._wrap(out_data, requires)

    if mode == "train":
        m = n * h * w

        def grad_fn(g):
            dgamma = (g * xhat).sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
            dbeta = g.sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
            dxhat = g * gamma.data
            sum_dxhat = dxhat.sum(axis=(0, 2, 3), keepdims=True)
            sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
            dx = (inv.reshape(1, c, 1, 1) / m) * (
                m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat
            )
            return dx, dgamma, dbeta

    else:

        def grad_fn(g):
            dgamma = (g * xhat).sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
            dbeta = g.sum(axis=(0, 2, 3)).reshape(1, c, 1, 1)
            dx = g * (gamma.data * inv.reshape(1, c, 1, 1))
            return dx, dgamma, dbeta

    record((x, gamma, beta), out, grad_fn)
    return out


def relu(x: Tensor4) -> Tensor4:
    out_data = np.maximum(x.data, 0)
    out = Tensor4._wrap(out_data, x.requires_grad)
    mask = x.data > 0
    record((x,), out, lambda g: (g * mask,))
    return out


# ---------------------------------------------------------------------------
# Pooling


def _pool_windows(x: np.ndarray, k: int, stride: int, padding: int):
    n, c, h, w = x.shape
    oh = conv_output_size(h, k, stride, padding)
    ow = conv_output_size(w, k, stride, padding)
    if oh < 1 or ow < 1:
        raise GeometryError(
            f"pool output {oh}x{ow} < 1 for input {h}x{w}, k={k}, stride={stride}"
        )
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    return win, oh, ow


def avg_pool(x: Tensor4, k: int, stride: int, padding: int = 0) -> Tensor4:
    """Windowed mean. Padded positions count as zeros in the mean."""
    n, c, h, w = x.dims
    win, oh, ow = _pool_windows(x.data, k, stride, padding)
    out_data = win.mean(axis=(4, 5))
    check_finite(out_data, "avg_pool")
    out = Tensor4._wrap(np.ascontiguousarray(out_data), x.requires_grad)

    def grad_fn(g):
        hp, wp = h + 2 * padding, w + 2 * padding
        dxp = np.zeros((n, c, hp, wp), dtype=g.dtype)
        share = g / (k * k)
        for a in range(k):
            for b in range(k):
                dxp[:, :, a : a + oh * stride : stride, b : b + ow * stride : stride] += share
        if padding:
            return (dxp[:, :, padding : padding + h, padding : padding + w],)
        return (dxp,)

    record((x,), out, grad_fn)
    return out


def max_pool(x: Tensor4, k: int, stride: int, padding: int = 0) -> Tensor4:
    """Windowed max. Ties route gradient to the first position in
    (kh, kw) scan order. Padding uses -inf so it never wins a window."""
    n, c, h, w = x.dims
    if padding:
        lowest = np.finfo(x.data.dtype).min
        xp = np.pad(
            x.data,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            constant_values=lowest,
        )
        win, oh, ow = _pool_windows(xp, k, stride, 0)
    else:
        win, oh, ow = _pool_windows(x.data, k, stride, 0)
    flat = win.reshape(n, c, oh, ow, k * k)
    arg = flat.argmax(axis=4)
    out_data = np.take_along_axis(flat, arg[..., None], axis=4)[..., 0]
    check_finite(out_data, "max_pool")
    out = Tensor4._wrap(np.ascontiguousarray(out_data), x.requires_grad)

    def grad_fn(g):
        hp, wp = h + 2 * padding, w + 2 * padding
        dxp = np.zeros((n, c, hp, wp), dtype=g.dtype)
        ni, ci, hi, wi = np.indices((n, c, oh, ow))
        rows = hi * stride + arg // k
        cols = wi * stride + arg % k
        np.add.at(dxp, (ni, ci, rows, cols), g)
        if padding:
            return (dxp[:, :, padding : padding + h, padding : padding + w],)
        return (dxp,)

    record((x,), out, grad_fn)
    return out


def global_avg_pool(x: Tensor4) -> Tensor4:
    """Mean over the full spatial extent, producing (N, C, 1, 1)."""
    n, c, h, w = x.dims
    if h * w < 1:
        raise GeometryError("global_avg_pool needs a non-empty spatial extent")
    out_data = x.data.mean(axis=(2, 3), keepdims=True)
    check_finite(out_data, "global_avg_pool")
    out = Tensor4._wrap(out_data, x.requires_grad)

    def grad_fn(g):
        return (np.broadcast_to(g / (h * w), (n, c, h, w)).copy(),)

    record((x,), out, grad_fn)
    return out


# ---------------------------------------------------------------------------
# Linear head and loss


def linear(x: Tensor4, weight: Tensor4, bias: Tensor4 | None = None) -> Tensor4:
    """Affine map of the flattened input: (N, C*H*W) @ weight.T + bias.

    weight has dims (K, D, 1, 1) with D = C*H*W; bias, when present, has
    dims (1, K, 1, 1). The output is (N, K, 1, 1).
    """
    n, c, h, w = x.dims
    d = c * h * w
    kk, dd, one_a, one_b = weight.dims
    if (dd, one_a, one_b) != (d, 1, 1):
        raise ShapeError(f"linear: weight {weight.dims} does not accept input D={d}")
    if bias is not None and bias.dims != (1, kk, 1, 1):
        raise ShapeError(f"linear: bias dims {bias.dims} do not match K={kk}")

    x2 = x.data.reshape(n, d)
    w2 = weight.data.reshape(kk, d)
    # Same profile rule as conv2d: float64 keeps a strict reduction order so
    # results are independent of how BLAS tiles the batch.
    if x.data.dtype == np.float64:
        out2 = _ordered_matmul(x2, np.ascontiguousarray(w2.T))
    else:
        out2 = x2 @ w2.T
    if bias is not None:
        out2 = out2 + bias.data.reshape(1, kk)
    out_data = out2.reshape(n, kk, 1, 1)
    check_finite(out_data, "linear")

    requires = x.requires_grad or weight.requires_grad or (
        bias is not None and bias.requires_grad
    )
    out = Tensor4._wrap(out_data, requires)

    def grad_fn(g):
        g2 = g.reshape(n, kk)
        dx = (g2 @ w2).reshape(n, c, h, w)
        dw = (g2.T @ x2).reshape(weight.dims)
        if bias is None:
            return dx, dw
        db = g2.sum(axis=0).reshape(1, kk, 1, 1)
        return dx, dw, db

    inputs = (x, weight) if bias is None else (x, weight, bias)
    record(inputs, out, grad_fn)
    return out


@dataclass
class LossOutput:
    """Mean cross-entropy value; ``scalar`` is the tape-recorded (1,1,1,1)
    tensor to pass to backward."""

    value: float
    scalar: Tensor4


def softmax_cross_entropy(logits: Tensor4, target: np.ndarray) -> LossOutput:
    """Mean over the batch of -sum(target * log softmax(logits)).

    ``logits`` must be (N, K, 1, 1); ``target`` is an (N, K) array of
    probability rows (each non-negative, summing to 1 within 1e-6). The
    analytic gradient is (softmax(logits) - target) / N.
    """
    n, k, h, w = logits.dims
    if (h, w) != (1, 1):
        raise ShapeError(f"logits must be (N, K, 1, 1), got {logits.dims}")
    target = np.asarray(target)
    if target.shape != (n, k):
        raise ShapeError(f"target shape {target.shape} != ({n}, {k})")
    if np.any(target < 0):
        raise ValueError("target rows must be non-negative")
    row_sums = target.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-6):
        raise ValueError("each target row must sum to 1 within 1e-6")

    z = logits.data.reshape(n, k)
    z = z - z.max(axis=1, keepdims=True)
    exp = np.exp(z)
    denom = exp.sum(axis=1, keepdims=True)
    logp = z - np.log(denom)
    p = exp / denom

    value = float(-(target * logp).sum() / n)
    grad = ((p - target) / n).astype(logits.data.dtype).reshape(n, k, 1, 1)

    scalar_data = np.array(value, dtype=logits.data.dtype).reshape(1, 1, 1, 1)
    check_finite(scalar_data, "softmax_cross_entropy")
    scalar = Tensor4._wrap(scalar_data, logits.requires_grad)

    record((logits,), scalar, lambda g: (g.reshape(-1)[0] * grad,))
    return LossOutput(value=value, scalar=scalar)
