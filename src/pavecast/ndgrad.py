"""Minimal dense reverse-mode autodiff over 2-D float64 arrays.

Values are computed eagerly; a tape records every primitive application in
insertion order, so the reverse sweep is a single walk backwards over the
tape. Only the primitives the forecasting models need are provided: matmul,
a handful of elementwise ops, row and column concatenation, row gather, and
for edge attention a per-target softmax and a fused aggregation, both over an
EdgeLayout built and validated once per edge set. The aggregation is one
sparse product for every head at once, over a CSR structure binned by row
length so each bin takes batched matmuls; its backward pass is the
transposed product plus, for the coefficients, one dot product per edge and
head. No per-edge copy of a representation is kept on the tape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested primitive."""


class SegmentError(ValueError):
    """An edge layout's parent counts and source rows do not fit together."""


class GraphContractError(ValueError):
    """A tape-level contract was violated (e.g. non-scalar loss)."""


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
        """A node whose value is a read-only view of value, not a copy: a write
        through it raises. It still follows in-place updates of value itself,
        as adam_step makes, so run a tape's backward before those."""
        view = _as_matrix(value).view()
        view.flags.writeable = False
        return Node(self, kind, view)

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
    val = np.maximum(x, np.expm1(np.minimum(x, 0.0)))
    out = Node(a.tape, "elu", val, (a,))

    def backward(g):
        # d/dx ELU = 1 for x>0, exp(x) = ELU(x)+1 for x<=0
        a.accumulate(g * np.where(x > 0.0, 1.0, val + 1.0))

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


def _concat(parts: list[Node], axis: int, kind: str) -> Node:
    if not parts:
        raise ShapeError(f"{kind}: no parts")
    other = parts[0].value.shape[1 - axis]
    for p in parts:
        if p.value.shape[1 - axis] != other:
            raise ShapeError(f"{kind}: {('row', 'column')[1 - axis]} counts differ "
                             f"({other} vs {p.value.shape[1 - axis]})")
    out = Node(parts[0].tape, kind,
               np.concatenate([p.value for p in parts], axis=axis), tuple(parts))
    offsets = np.cumsum([0] + [p.value.shape[axis] for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            p.accumulate(g[:, lo:hi] if axis else g[lo:hi])

    out._backward = backward
    return out


def concat_cols(parts: list[Node]) -> Node:
    return _concat(parts, 1, "concat_cols")


def concat_rows(parts: list[Node]) -> Node:
    return _concat(parts, 0, "concat_rows")


def gather_rows(a: Node, idx) -> Node:
    """Rows idx of a (non-negative, repeats allowed); the gradient sums each
    row's copies in idx order, one bincount per column."""
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size and idx.min() < 0:
        raise ShapeError("gather_rows: negative row index")
    out = Node(a.tape, "gather_rows", a.value[idx], (a,))

    def backward(g):
        n, width = a.value.shape[0], math.prod(a.value.shape[1:])
        g = g.reshape(len(idx), width)
        acc = np.empty((n, width))
        for j in range(width):
            acc[:, j] = np.bincount(idx, weights=g[:, j], minlength=n)
        a.accumulate(acc.reshape(a.value.shape))

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


class EdgeLayout:
    """Edges grouped by target row, validated once and shared by every
    segment softmax and aggregation over them.

    counts[i] is the number of parent edges of target row i; its edges are
    its self loop, then those parents, and targets follow one another in
    row order, so every per-target reduction is one contiguous reduceat.
    src gives each of the m = n + sum(counts) edges' source row; a self
    loop's source must be its own target. Scoring and aggregation both find
    the self loops at starts.

    The parent edges are a CSR matrix stored row-binned: targets with the
    same parent count c form one bin, whose edge positions are a (targets, c)
    block, so a bin aggregates with batched matmuls. source_bins bins
    the same edges by source row, for the transposed product.
    """

    def __init__(self, src, counts):
        src = np.asarray(src, dtype=np.intp)
        counts = np.asarray(counts, dtype=np.intp)
        n = len(counts)
        if np.any(counts < 0):
            raise SegmentError("a target has a negative parent count")
        sizes = counts + 1
        if len(src) != sizes.sum():
            raise SegmentError(f"{len(src)} edges for {n} targets with "
                               f"{sizes.sum() - n} parent edges")
        if len(src) and not 0 <= src.min() <= src.max() < n:
            raise SegmentError(f"source rows outside 0..{n - 1}")
        starts = np.cumsum(sizes) - sizes
        if not np.array_equal(src[starts], np.arange(n)):
            raise SegmentError("a target's first edge is not its self loop")
        self.n = n
        self.src = src
        self.counts = counts
        self.starts = starts  # (n,) each target's self-loop edge
        self.dst = np.repeat(np.arange(n), sizes)  # (m,) each edge's target

    @cached_property
    def bins(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(targets, (targets, c) positions of their parent edges), one entry
        per parent count c > 0."""
        return _bins(self.starts + 1, self.counts)

    @cached_property
    def source_bins(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(sources, (sources, d) positions of their parent edges), one entry
        per out-degree d > 0; only a backward pass needs them."""
        pos = np.delete(np.arange(len(self.src)), self.starts)
        pos = pos[np.argsort(self.src[pos], kind="stable")]
        degree = np.bincount(self.src[pos], minlength=self.n)
        return [(sources, pos[k]) for sources, k in _bins(np.cumsum(degree) - degree, degree)]


def _bins(first, lengths) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each length l > 0: the ids of that length, and the (ids, l) block
    of first[id] + 0..l-1."""
    out = []
    for length in np.flatnonzero(np.bincount(lengths)[1:]) + 1:
        ids = np.flatnonzero(lengths == length)
        out.append((ids, first[ids, None] + np.arange(length)))
    return out


def csr_aggregate(parents: Node, self_rep: Node, coefs: Node, layout: EdgeLayout) -> Node:
    """Per target row i and coefficient column k, the sum over i's parent
    edges e of coefs[e, k] * parents[src e], plus coefs[self edge, k] *
    self_rep[i].

    parents and self_rep are (n, h), coefs (m, H) in layout's edge order; the
    result is (n, H*h) with column k's sums in columns k*h:(k+1)*h, so one
    call aggregates every attention head. The self term never reads parents,
    so a row's own parents-side input cannot reach its own output. The
    backward pass sends each parent edge's gradient to its source by the
    transposed product, and gives each coefficient the dot product of its
    target's gradient with what the edge carried.
    """
    x, s, w = parents.value, self_rep.value, coefs.value
    if s.shape != x.shape or len(x) != layout.n or len(w) != len(layout.src):
        raise ShapeError(f"csr_aggregate: parents {x.shape}, self_rep {s.shape} and "
                         f"{len(w)} coefficient rows for {layout.n} targets and "
                         f"{len(layout.src)} edges")
    (n, h), heads = x.shape, w.shape[1]
    w_self = w[layout.starts]
    acc = w_self[:, :, None] * s[:, None, :]  # (n, H, h)
    # one matmul per bin and head on contiguous operands: a head's sums then do
    # not depend on how many heads share the call
    w_t = np.ascontiguousarray(w.T)
    for rows, pos in layout.bins:
        x_src = x[layout.src[pos]]
        for k in range(heads):
            acc[rows, k] += np.matmul(w_t[k][pos][:, None, :], x_src)[:, 0]
    out = Node(parents.tape, "csr_aggregate", acc.reshape(n, heads * h),
               (parents, self_rep, coefs))

    def backward(g):
        g3 = g.reshape(n, heads, h)
        self_rep.accumulate(np.einsum("nk,nkh->nh", w_self, g3))
        gw = np.empty_like(w)
        gw[layout.starts] = np.einsum("nkh,nh->nk", g3, s)
        sent = np.empty((len(w), h))  # per parent edge, the gradient of what it carried
        for rows, pos in layout.bins:
            g_rows = g3[rows]
            gw[pos] = np.matmul(x[layout.src[pos]], g_rows.transpose(0, 2, 1))
            sent[pos] = np.matmul(w[pos], g_rows)
        gx = np.zeros_like(x)
        for sources, pos in layout.source_bins:
            gx[sources] = sent[pos].sum(axis=1)
        parents.accumulate(gx)
        coefs.accumulate(gw)

    out._backward = backward
    return out


def segment_softmax(scores: Node, layout: EdgeLayout) -> Node:
    """Softmax of each column of an (m, H) score matrix within each target's
    edges.

    Max-subtraction inside each segment keeps exp in range; the result is
    unchanged by adding any constant to a whole segment of a column.
    """
    dst, starts = layout.dst, layout.starts
    s = scores.value
    e = np.exp(s - np.maximum.reduceat(s, starts, axis=0)[dst])
    p = e / np.add.reduceat(e, starts, axis=0)[dst]
    out = Node(scores.tape, "segment_softmax", p, (scores,))

    def backward(g):
        gp = g * p
        scores.accumulate(gp - p * np.add.reduceat(gp, starts, axis=0)[dst])

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


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out)), shape (fan_in, fan_out)."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))
