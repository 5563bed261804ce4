"""Minimal dense reverse-mode autodiff over 2-D float64 arrays.

Values are computed eagerly; a tape records every primitive application in
insertion order, so the reverse sweep is a single walk backwards over the
tape. Only the primitives the forecasting models need are provided: matmul,
a handful of elementwise ops, column concatenation, row gather/scatter, and
per-segment softmax and weighted sums for edge attention, which take one
column per attention head. Segments must be sorted, in range and non-empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested primitive."""


class SegmentError(ValueError):
    """Segment ids are unsorted or out of range, or a segment has no members."""


class GraphContractError(ValueError):
    """A tape-level contract was violated (e.g. non-scalar loss)."""


class NumericError(ArithmeticError):
    """A gradient check met a non-finite loss."""


def _as_matrix(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D array, got shape {arr.shape}")
    return arr


class Node:
    """One tape entry: a primitive application and its cached output."""

    __slots__ = ("tape", "kind", "value", "grad", "_parents", "_backward")

    def __init__(self, tape: "Tape", kind: str, value: np.ndarray,
                 parents=(), backward=None):
        self.tape = tape
        self.kind = kind
        self.value = value
        self.grad = None
        self._parents = tuple(parents)
        self._backward = backward
        tape.nodes.append(self)

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def __repr__(self):
        return f"Node({self.kind}, shape={self.value.shape})"


class Tape:
    """Computation graph: nodes in insertion order (inputs always precede use)."""

    def __init__(self):
        self.nodes: list[Node] = []

    def leaf(self, value, kind: str = "leaf") -> Node:
        return Node(self, kind, _as_matrix(value).copy())

    def constant(self, value) -> Node:
        return self.leaf(value, kind="const")


def _binary_shape_check(a: Node, b: Node, op: str) -> None:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{op}: shapes {a.value.shape} and {b.value.shape} differ")


def add(a: Node, b: Node) -> Node:
    _binary_shape_check(a, b, "add")
    out = Node(a.tape, "add", a.value + b.value, (a, b))

    def backward(g):
        a.accumulate(g)
        b.accumulate(g)

    out._backward = backward
    return out


def sub(a: Node, b: Node) -> Node:
    _binary_shape_check(a, b, "sub")
    out = Node(a.tape, "sub", a.value - b.value, (a, b))

    def backward(g):
        a.accumulate(g)
        b.accumulate(-g)

    out._backward = backward
    return out


def scale(a: Node, c: float) -> Node:
    out = Node(a.tape, "scale", a.value * float(c), (a,))

    def backward(g):
        a.accumulate(g * float(c))

    out._backward = backward
    return out


def mul_array(a: Node, const) -> Node:
    """Elementwise product with a fixed (non-differentiated) array."""
    carr = _as_matrix(const)
    if carr.shape != a.value.shape:
        raise ShapeError(f"mul_array: shapes {a.value.shape} and {carr.shape} differ")
    out = Node(a.tape, "mul_array", a.value * carr, (a,))

    def backward(g):
        a.accumulate(g * carr)

    out._backward = backward
    return out


def add_rowvec(a: Node, b: Node) -> Node:
    """Add a 1 x cols row vector to every row of a (the bias pattern)."""
    if b.value.shape != (1, a.value.shape[1]):
        raise ShapeError(
            f"add_rowvec: bias shape {b.value.shape} does not match (1, {a.value.shape[1]})")
    out = Node(a.tape, "add_rowvec", a.value + b.value, (a, b))

    def backward(g):
        a.accumulate(g)
        b.accumulate(g.sum(axis=0, keepdims=True))

    out._backward = backward
    return out


def matmul(a: Node, b: Node) -> Node:
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(
            f"matmul: inner dims of {a.value.shape} and {b.value.shape} do not match")
    out = Node(a.tape, "matmul", a.value @ b.value, (a, b))

    def backward(g):
        a.accumulate(g @ b.value.T)
        b.accumulate(a.value.T @ g)

    out._backward = backward
    return out


def elu(a: Node) -> Node:
    x = a.value
    neg = x <= 0.0
    val = x.copy()
    val[neg] = np.expm1(x[neg])
    out = Node(a.tape, "elu", val, (a,))

    def backward(g):
        # d/dx ELU = 1 for x>0, exp(x) = ELU(x)+1 for x<=0
        gx = g.copy()
        gx[neg] *= val[neg] + 1.0
        a.accumulate(gx)

    out._backward = backward
    return out


def leaky_relu(a: Node, alpha: float = 0.2) -> Node:
    x = a.value
    neg = x <= 0.0
    out = Node(a.tape, "leaky_relu", np.where(neg, alpha * x, x), (a,))

    def backward(g):
        a.accumulate(g * np.where(neg, alpha, 1.0))

    out._backward = backward
    return out


def absolute(a: Node) -> Node:
    out = Node(a.tape, "abs", np.abs(a.value), (a,))
    sign = np.sign(a.value)  # subgradient 0 at exactly 0

    def backward(g):
        a.accumulate(g * sign)

    out._backward = backward
    return out


def sum_all(a: Node) -> Node:
    out = Node(a.tape, "sum_all", np.array([[a.value.sum()]]), (a,))

    def backward(g):
        a.accumulate(np.full_like(a.value, g[0, 0]))

    out._backward = backward
    return out


def concat_cols(parts: list[Node]) -> Node:
    if not parts:
        raise ShapeError("concat_cols: no parts")
    rows = parts[0].value.shape[0]
    for p in parts:
        if p.value.shape[0] != rows:
            raise ShapeError(
                f"concat_cols: row counts differ ({rows} vs {p.value.shape[0]})")
    out = Node(parts[0].tape, "concat_cols",
               np.concatenate([p.value for p in parts], axis=1), tuple(parts))
    offsets = np.cumsum([0] + [p.value.shape[1] for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            p.accumulate(g[:, lo:hi])

    out._backward = backward
    return out


def gather_rows(a: Node, idx) -> Node:
    idx = np.asarray(idx, dtype=np.intp)
    out = Node(a.tape, "gather_rows", a.value[idx], (a,))

    def backward(g):
        acc = np.zeros_like(a.value)
        np.add.at(acc, idx, g)
        a.accumulate(acc)

    out._backward = backward
    return out


def slice_rows(a: Node, lo: int, hi: int) -> Node:
    """Rows lo:hi of a; the gradient scatters back into that band."""
    if not 0 <= lo < hi <= a.value.shape[0]:
        raise ShapeError(f"slice_rows: [{lo}, {hi}) outside {a.value.shape}")
    out = Node(a.tape, "slice_rows", a.value[lo:hi].copy(), (a,))

    def backward(g):
        acc = np.zeros_like(a.value)
        acc[lo:hi] = g
        a.accumulate(acc)

    out._backward = backward
    return out


def gather_rows_mixed(a: Node, b: Node, idx, use_b) -> Node:
    """Per-row gather from a or b: row k is b[idx[k]] where use_b[k] else a[idx[k]].

    Lets edge messages pull a parent's full representation while self edges
    pull the node's spatial-temporal-only representation, without ever
    touching the other source (exact-zero leakage, not merely small).
    """
    if a.value.shape[1] != b.value.shape[1]:
        raise ShapeError(
            f"gather_rows_mixed: widths {a.value.shape[1]} and {b.value.shape[1]} differ")
    idx = np.asarray(idx, dtype=np.intp)
    use_b = np.asarray(use_b, dtype=bool)
    val = a.value[idx]
    val[use_b] = b.value[idx[use_b]]
    out = Node(a.tape, "gather_rows_mixed", val, (a, b))

    def backward(g):
        acc_a = np.zeros_like(a.value)
        acc_b = np.zeros_like(b.value)
        np.add.at(acc_a, idx[~use_b], g[~use_b])
        np.add.at(acc_b, idx[use_b], g[use_b])
        a.accumulate(acc_a)
        b.accumulate(acc_b)

    out._backward = backward
    return out


def _segment_starts(seg_ids, num_segments: int) -> tuple[np.ndarray, np.ndarray]:
    """seg_ids as an index array, and the offset where each segment starts.

    Segments must be sorted, in range and non-empty (the graph edge layout),
    so every per-segment reduction is one contiguous reduceat.
    """
    seg_ids = np.asarray(seg_ids, dtype=np.intp)
    starts = np.flatnonzero(np.diff(seg_ids, prepend=seg_ids[:1] - 1))
    if not np.array_equal(seg_ids[starts], np.arange(num_segments)):
        raise SegmentError(f"segment ids are not 0..{num_segments - 1} in sorted "
                           "order, each at least once")
    return seg_ids, starts


def weighted_segment_sum(values: Node, weights: Node, seg_ids, num_segments: int) -> Node:
    """Per segment s and weight column k, the sum over entries e of segment s
    of weights[e, k] * values[e].

    values is (m, h) and weights (m, H); the result is (n, H*h) with column
    k's sums in columns k*h:(k+1)*h, so one call aggregates every attention
    head. The weighted intermediate never reaches the tape.
    """
    m, h = values.value.shape
    if weights.value.shape[0] != m:
        raise ShapeError(
            f"weighted_segment_sum: {weights.value.shape[0]} weight rows for {m} values")
    seg_ids, starts = _segment_starts(seg_ids, num_segments)
    w = weights.value
    heads = w.shape[1]
    # one head at a time keeps the temporary at h x m, and its (h, m) layout
    # lets every segment sum run over contiguous memory
    v_t = np.ascontiguousarray(values.value.T)
    weighted = np.empty_like(v_t)
    acc = np.empty((heads * h, num_segments))
    for k in range(heads):
        np.multiply(v_t, w[:, k], out=weighted)
        np.add.reduceat(weighted, starts, axis=1, out=acc[k * h:(k + 1) * h])
    out = Node(values.tape, "weighted_segment_sum", acc.T, (values, weights))

    def backward(g):
        g_rows = g[seg_ids].reshape(m, heads, h)
        values.accumulate(np.einsum("mkh,mk->mh", g_rows, w))
        weights.accumulate(np.einsum("mkh,mh->mk", g_rows, values.value))

    out._backward = backward
    return out


def segment_softmax(scores: Node, seg_ids, num_segments: int) -> Node:
    """Softmax of each column of an (m, H) score matrix within each segment.

    Segments must be sorted, in range and non-empty. Max-subtraction inside
    each segment keeps exp in range; the result is unchanged by adding any
    constant to a whole segment of a column.
    """
    seg_ids, starts = _segment_starts(seg_ids, num_segments)
    s = scores.value
    e = np.exp(s - np.maximum.reduceat(s, starts, axis=0)[seg_ids])
    p = e / np.add.reduceat(e, starts, axis=0)[seg_ids]
    out = Node(scores.tape, "segment_softmax", p, (scores,))

    def backward(g):
        gp = g * p
        scores.accumulate(gp - p * np.add.reduceat(gp, starts, axis=0)[seg_ids])

    out._backward = backward
    return out


def backward(tape: Tape, loss: Node) -> None:
    """Reverse accumulation from a scalar loss over the whole tape."""
    if loss.value.shape != (1, 1):
        raise GraphContractError(f"loss must be 1x1, got shape {loss.value.shape}")
    if loss.tape is not tape:
        raise GraphContractError("loss node does not belong to this tape")
    loss.grad = np.ones((1, 1))
    for node in reversed(tape.nodes):
        if node.grad is None or node._backward is None:
            continue
        node._backward(node.grad)


def first_nonfinite_kind(tape: Tape) -> str | None:
    """Kind of the earliest tape node holding a non-finite value, if any."""
    for node in tape.nodes:
        if not np.all(np.isfinite(node.value)):
            return node.kind
    return None


# ---------------------------------------------------------------------------
# Adam optimizer


@dataclass
class AdamState:
    """Bias-corrected Adam moments per parameter name."""

    lr: float = 0.004
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_init(params: dict[str, np.ndarray], lr: float = 0.004,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    state = AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    for name, p in params.items():
        state.m[name] = np.zeros_like(p)
        state.v[name] = np.zeros_like(p)
    return state


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState) -> None:
    """One in-place bias-corrected Adam update over all named parameters."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for name in params:
        g = grads[name]
        p = params[name]
        if g.shape != p.shape:
            raise ShapeError(
                f"adam_step: gradient shape {g.shape} does not match "
                f"parameter '{name}' shape {p.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


# ---------------------------------------------------------------------------
# Finite-difference gradient checking


def finite_difference_grads(loss_fn, params: dict[str, np.ndarray],
                            h: float = 1e-5) -> dict[str, np.ndarray]:
    """Central-difference gradient of loss_fn(params) for every entry."""
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = loss_fn(params)
            flat[k] = orig - h
            down = loss_fn(params)
            flat[k] = orig
            gflat[k] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def grad_check(loss_and_grads_fn, params: dict[str, np.ndarray],
               h: float = 1e-5, denom_floor: float = 1e-6) -> dict[str, float]:
    """Max relative error between analytic and central-difference gradients.

    loss_and_grads_fn(params) must return (loss_value, grads_dict) and be
    deterministic. Raises NumericError when the loss is non-finite.
    """
    loss, analytic = loss_and_grads_fn(params)
    if not math.isfinite(loss):
        raise NumericError(f"non-finite loss {loss} during gradient check")

    def loss_only(p):
        value, _ = loss_and_grads_fn(p)
        return value

    numeric = finite_difference_grads(loss_only, params, h=h)
    report = {}
    for name in params:
        a = analytic[name]
        n = numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), denom_floor)
        report[name] = float(np.max(np.abs(a - n) / denom)) if a.size else 0.0
    return report


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out)), shape (fan_in, fan_out)."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))
