"""Minimal dense reverse-mode autodiff over 2-D float64 arrays.

Values are computed eagerly; a tape records every primitive application in
insertion order, so the reverse sweep is a single walk backwards over the
tape. Only the primitives the forecasting models need are provided: matmul,
a handful of elementwise ops, row and column concatenation, row gather, and
for edge attention a per-target softmax and a fused aggregation, both over an
EdgeLayout built and validated once per edge set. The aggregation is one
sparse product for every head at once, over a CSR structure cut into runs
of consecutive rows with one parent count, so each run takes one batched
matmul for all its rows and heads, in place; rows ordered by parent count
make each count one run. Its backward pass is the transposed product plus,
for the coefficients, one dot product per edge and head. No per-edge copy
of a representation is kept on the tape.

Workspace. Full-batch training repeats one sweep, with the same array shapes
in the same order, every epoch. Freed large arrays go back to the kernel, so
each epoch would fault its memory in afresh. A Workspace is a pool of flat
float64 buffers that outlives the tapes: every primitive writes its forward
output and its large backward temporaries with numpy's out= into
Tape.out(shape) or Tape.empty(shape), which lend a view of the best-fitting
free buffer. Only arrays of at least POOLED_MIN_ELEMENTS elements (128 KiB,
glibc's default mmap threshold) are pooled. For smaller ones, and on a tape
without a workspace, Tape.out gives None, so numpy allocates the result as
it would without out=, and Tape.empty gives np.empty. The arithmetic is the
same either way.

An array goes back to the pool when nothing reads it any more:
- a non-leaf node's value and gradient, right after its backward has run,
  since every consumer of the node came later on the tape and has run its
  own backward by then;
- a backward temporary once it has been used, and a gradient handed to
  Node.accumulate(fresh=True) once it has been added into an existing one.
  On first arrival such a gradient is adopted, not copied;
- everything else when the next Tape(workspace) starts. Leaf gradients are
  never returned mid-sweep, so the gradients a sweep computes stay valid
  until the next tape on the same workspace starts. Read a non-leaf node's
  value (the loss, the predictions) before the backward sweep.

Gathers into pooled buffers use np.take with mode="clip", since with
mode="raise" numpy copies through a buffer of its own. Clip would map an
index past the last row to the last row, so every index is bounds-checked
first: gather_rows checks its caller's, and EdgeLayout validates the source
rows its aggregation gathers.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

POOLED_MIN_ELEMENTS = 1 << 14  # 128 KiB of float64, glibc's default mmap threshold


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


class Workspace:
    """Flat float64 buffers lent to the tapes that name this workspace.

    A request takes the free buffer of least capacity that holds it, or a
    new buffer of exactly its size if none does, and gets a view of the
    buffer's head in the requested shape. The workspace records each view
    it lends, so give() takes back exactly those and ignores other arrays.
    """

    def __init__(self):
        self._sizes: list[int] = []        # free buffers' capacities, ascending
        self._free: list[np.ndarray] = []  # the free buffers, in that order
        self._lent: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # id(view): (view, buffer)

    @property
    def nbytes(self) -> int:
        """Total capacity of the buffers, free and lent: a new buffer raises it."""
        return 8 * (sum(self._sizes) + sum(buf.size for _, buf in self._lent.values()))

    def take(self, shape) -> np.ndarray:
        size = math.prod(shape)
        i = bisect.bisect_left(self._sizes, size)
        if i < len(self._sizes):
            del self._sizes[i]
            buf = self._free.pop(i)
        else:
            buf = np.empty(size)
        view = buf[:size].reshape(shape)
        self._lent[id(view)] = view, buf
        return view

    def give(self, arr: np.ndarray) -> None:
        """Take back arr's buffer if arr is a view this workspace lent."""
        lent = self._lent.pop(id(arr), None)
        if lent is not None:
            self._put(lent[1])

    def reclaim(self) -> None:
        """Take back every lent buffer."""
        for _, buf in self._lent.values():
            self._put(buf)
        self._lent.clear()

    def _put(self, buf: np.ndarray) -> None:
        i = bisect.bisect_left(self._sizes, buf.size)
        self._sizes.insert(i, buf.size)
        self._free.insert(i, buf)


class Node:
    """One tape entry: a primitive application and its cached output."""

    __slots__ = ("tape", "kind", "value", "grad", "_backward")

    def __init__(self, tape: "Tape", kind: str, value: np.ndarray):
        self.tape = tape
        self.kind = kind
        self.value = value
        self.grad = None
        self._backward = None
        tape.nodes.append(self)

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def accumulate(self, grad: np.ndarray, fresh: bool = False) -> None:
        """Add grad into this node's gradient. fresh means the caller made
        grad for this call alone: a first arrival adopts it, a later one
        returns it to the pool once added. Any other grad is copied."""
        if self.grad is None:
            if fresh:
                self.grad = grad
            else:
                self.grad = self.tape.empty(grad.shape)
                np.copyto(self.grad, grad)
        else:
            self.grad += grad
            if fresh:
                self.tape.release(grad)


class Tape:
    """Computation graph: nodes in insertion order (inputs always precede use).

    A tape on a workspace takes its large arrays from it, and starting one
    takes back everything the workspace's previous tape still held."""

    def __init__(self, workspace: Workspace | None = None):
        self.nodes: list[Node] = []
        self.workspace = workspace
        if workspace is not None:
            workspace.reclaim()

    def out(self, shape) -> np.ndarray | None:
        """numpy's out= for a float64 result of this shape: a view the
        workspace lends if the result is large, else None, so numpy
        allocates it."""
        if self.workspace is None or math.prod(shape) < POOLED_MIN_ELEMENTS:
            return None
        return self.workspace.take(shape)

    def empty(self, shape) -> np.ndarray:
        """An uninitialized float64 array, lent by the workspace if it is large."""
        out = self.out(shape)
        return np.empty(shape) if out is None else out

    def release(self, arr: np.ndarray) -> None:
        """Return arr to the workspace, if it lent it: nothing reads arr after."""
        if self.workspace is not None:
            self.workspace.give(arr)

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
    tape = a.tape
    out = Node(tape, "add", np.add(a.value, b.value, out=tape.out(a.shape)))

    def backward(g):
        a.accumulate(g)
        b.accumulate(g)

    out._backward = backward
    return out


def sub(a: Node, b: Node) -> Node:
    _binary_shape_check(a, b, "sub")
    tape = a.tape
    out = Node(tape, "sub", np.subtract(a.value, b.value, out=tape.out(a.shape)))

    def backward(g):
        a.accumulate(g)
        b.accumulate(np.negative(g, out=tape.out(g.shape)), fresh=True)

    out._backward = backward
    return out


def scale(a: Node, c: float) -> Node:
    c, tape = float(c), a.tape
    out = Node(tape, "scale", np.multiply(a.value, c, out=tape.out(a.shape)))

    def backward(g):
        a.accumulate(np.multiply(g, c, out=tape.out(g.shape)), fresh=True)

    out._backward = backward
    return out


def mul_array(a: Node, const) -> Node:
    """Elementwise product with a fixed (non-differentiated) array."""
    carr = _as_matrix(const)
    if carr.shape != a.value.shape:
        raise ShapeError(f"mul_array: shapes {a.value.shape} and {carr.shape} differ")
    tape = a.tape
    out = Node(tape, "mul_array", np.multiply(a.value, carr, out=tape.out(a.shape)))

    def backward(g):
        a.accumulate(np.multiply(g, carr, out=tape.out(g.shape)), fresh=True)

    out._backward = backward
    return out


def add_rowvec(a: Node, b: Node) -> Node:
    """Add a 1 x cols row vector to every row of a (the bias pattern)."""
    if b.value.shape != (1, a.value.shape[1]):
        raise ShapeError(
            f"add_rowvec: bias shape {b.value.shape} does not match (1, {a.value.shape[1]})")
    tape = a.tape
    out = Node(tape, "add_rowvec", np.add(a.value, b.value, out=tape.out(a.shape)))

    def backward(g):
        a.accumulate(g)
        b.accumulate(g.sum(axis=0, keepdims=True), fresh=True)

    out._backward = backward
    return out


def matmul(a: Node, b: Node) -> Node:
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(
            f"matmul: inner dims of {a.value.shape} and {b.value.shape} do not match")
    tape = a.tape
    out = Node(tape, "matmul", np.matmul(a.value, b.value, out=tape.out(
        (a.value.shape[0], b.value.shape[1]))))

    def backward(g):
        a.accumulate(np.matmul(g, b.value.T, out=tape.out(a.shape)), fresh=True)
        b.accumulate(np.matmul(a.value.T, g, out=tape.out(b.shape)), fresh=True)

    out._backward = backward
    return out


def elu(a: Node) -> Node:
    x, tape = a.value, a.tape
    val = np.minimum(x, 0.0, out=tape.out(x.shape))
    np.expm1(val, out=val)
    np.maximum(x, val, out=val)
    out = Node(tape, "elu", val)

    def backward(g):
        # d/dx ELU = 1 for x>0, exp(x) = ELU(x)+1 for x<=0; ELU(x)+1 > 1 just
        # where x > 0, so the minimum with 1 picks the same factor everywhere
        d = np.add(val, 1.0, out=tape.out(x.shape))
        np.minimum(d, 1.0, out=d)
        a.accumulate(np.multiply(g, d, out=d), fresh=True)

    out._backward = backward
    return out


def leaky_relu(a: Node, alpha: float = 0.2) -> Node:
    """x where x > 0, else alpha * x. For 0 < alpha <= 1, alpha * x lies
    between 0 and x, so max(x, alpha * x) picks it with the same bits on
    every input, +-0.0, +-inf and NaN included; at alpha = 0, 0 * inf is NaN."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"leaky_relu: alpha must be in (0, 1], got {alpha}")
    x, tape = a.value, a.tape
    val = np.multiply(x, alpha, out=tape.out(x.shape))
    np.maximum(x, val, out=val)
    out = Node(tape, "leaky_relu", val)

    def backward(g):
        d = tape.empty(g.shape)
        np.copyto(d, g)
        a.accumulate(np.multiply(g, alpha, out=d, where=x <= 0.0), fresh=True)

    out._backward = backward
    return out


def absolute(a: Node) -> Node:
    tape = a.tape
    out = Node(tape, "abs", np.abs(a.value, out=tape.out(a.shape)))
    sign = np.sign(a.value)  # subgradient 0 at exactly 0

    def backward(g):
        a.accumulate(np.multiply(g, sign, out=tape.out(g.shape)), fresh=True)

    out._backward = backward
    return out


def sum_all(a: Node) -> Node:
    tape = a.tape
    out = Node(tape, "sum_all", np.array([[a.value.sum()]]))

    def backward(g):
        full = tape.empty(a.shape)
        full.fill(g[0, 0])
        a.accumulate(full, fresh=True)

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
    tape = parts[0].tape
    offsets = np.cumsum([0] + [p.value.shape[axis] for p in parts])
    shape = (offsets[-1], other) if axis == 0 else (other, offsets[-1])
    out = Node(tape, kind, np.concatenate([p.value for p in parts], axis=axis,
                                          out=tape.out(shape)))

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            p.accumulate(g[:, lo:hi] if axis else g[lo:hi])

    out._backward = backward
    return out


def concat_cols(parts: list[Node]) -> Node:
    return _concat(parts, 1, "concat_cols")


def concat_rows(parts: list[Node]) -> Node:
    return _concat(parts, 0, "concat_rows")


def _take_rows(tape: Tape, arr: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """arr[idx] along the first axis, idx already known to be in range."""
    return arr.take(idx, axis=0, mode="clip", out=tape.out(idx.shape + arr.shape[1:]))


def gather_rows(a: Node, idx) -> Node:
    """Rows idx of a (in range, repeats allowed); the gradient sums each
    row's copies in idx order, one bincount per column."""
    idx = np.asarray(idx, dtype=np.intp)
    n = a.value.shape[0]
    if idx.size and idx.min() < 0:
        raise ShapeError("gather_rows: negative row index")
    if idx.size and idx.max() >= n:
        raise ShapeError(f"gather_rows: row index {idx.max()} outside {n} rows")
    tape = a.tape
    out = Node(tape, "gather_rows", _take_rows(tape, a.value, idx))

    def backward(g):
        width = math.prod(a.value.shape[1:])
        g = g.reshape(len(idx), width)
        acc = tape.empty(a.shape)
        flat = acc.reshape(n, width)
        for j in range(width):
            flat[:, j] = np.bincount(idx, weights=g[:, j], minlength=n)
        a.accumulate(acc, fresh=True)

    out._backward = backward
    return out


def slice_rows(a: Node, lo: int, hi: int) -> Node:
    """Rows lo:hi of a; the gradient scatters back into that band."""
    if not 0 <= lo < hi <= a.value.shape[0]:
        raise ShapeError(f"slice_rows: [{lo}, {hi}) outside {a.value.shape}")
    tape = a.tape
    val = tape.empty((hi - lo,) + a.value.shape[1:])
    np.copyto(val, a.value[lo:hi])
    out = Node(tape, "slice_rows", val)

    def backward(g):
        acc = tape.empty(a.shape)
        acc.fill(0.0)
        acc[lo:hi] = g
        a.accumulate(acc, fresh=True)

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

    The parent edges are a CSR matrix. Consecutive rows with the same parent
    count c form a run, whose edges are one contiguous (rows, 1 + c) block,
    self loops first, so a run aggregates with one batched matmul that reads
    and writes its rows in place. Any row order is valid; rows sorted by
    parent count give the fewest runs. source_bins groups the same edges by
    source row, for the transposed product.
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
    def runs(self) -> list[tuple[int, int, int]]:
        """(first row, end row, c) for each maximal run of rows first..end-1
        with the same parent count c > 0, in row order."""
        firsts = np.flatnonzero(np.diff(self.counts, prepend=-1))
        ends = np.append(firsts[1:], self.n)
        return [(first, end, c) for first, end, c in
                zip(firsts.tolist(), ends.tolist(), self.counts[firsts].tolist()) if c]

    def run_edges(self, first: int, end: int, c: int) -> slice:
        """The edges of a run's rows, a (end - first, 1 + c) block once reshaped."""
        lo = int(self.starts[first])
        return slice(lo, lo + (end - first) * (1 + c))

    @cached_property
    def source_bins(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(sources, (sources, d) positions of their parent edges), one entry
        per out-degree d > 0; only a backward pass needs them."""
        pos = np.delete(np.arange(len(self.src)), self.starts)
        pos = pos[np.argsort(self.src[pos], kind="stable")]
        degree = np.bincount(self.src[pos], minlength=self.n)
        first = np.cumsum(degree) - degree
        bins = []
        for d in np.flatnonzero(np.bincount(degree)[1:]) + 1:
            sources = np.flatnonzero(degree == d)
            bins.append((sources, pos[first[sources, None] + np.arange(d)]))
        return bins


def csr_aggregate(parents: Node, self_rep: Node, coefs: Node, layout: EdgeLayout) -> Node:
    """Per target row i and coefficient column k, the sum over i's parent
    edges e of coefs[e, k] * parents[src e], plus coefs[self edge, k] *
    self_rep[i].

    parents and self_rep are (n, h), coefs (m, H) in layout's edge order; the
    result is (n, H*h) with column k's sums in columns k*h:(k+1)*h, so one
    call aggregates every attention head. The self term never reads parents,
    so a row's own parents-side input cannot reach its own output. Each run
    of layout.runs is computed in place: its batched product writes straight
    into its output rows, and the self term is added there; a row without
    parents gets the self term alone. The backward pass sends each parent
    edge's gradient to its source by the transposed product, and gives each
    coefficient the dot product of its target's gradient with what the edge
    carried; both write through views of the run's edge block.
    """
    x, s, w = parents.value, self_rep.value, coefs.value
    if s.shape != x.shape or len(x) != layout.n or len(w) != len(layout.src):
        raise ShapeError(f"csr_aggregate: parents {x.shape}, self_rep {s.shape} and "
                         f"{len(w)} coefficient rows for {layout.n} targets and "
                         f"{len(layout.src)} edges")
    (n, h), heads = x.shape, w.shape[1]
    tape = parents.tape
    w_self = w[layout.starts]
    value = tape.empty((n, heads * h))  # the node's value is this very array
    acc = value.reshape(n, heads, h)

    def self_term(lo, hi, out):
        return np.multiply(w_self[lo:hi, :, None], s[lo:hi, None, :], out=out)

    done = 0  # rows before this one hold their sums
    for first, end, c in layout.runs:
        self_term(done, first, acc[done:first])  # rows without parents
        edges = layout.run_edges(first, end, c)
        x_src = _take_rows(tape, x, layout.src[edges].reshape(-1, 1 + c)[:, 1:])
        # one batched matmul for every head, each (row, head) its own 1 x c by
        # c x h product: a head's sums then do not depend on how many heads
        # share the call. The coefficients are copied into a contiguous
        # (rows, heads, c) block first; read through a transposed view with
        # stride heads, BLAS would sum them in another order.
        block = tape.empty((end - first, heads, c))
        np.copyto(block, w[edges].reshape(-1, 1 + c, heads)[:, 1:].transpose(0, 2, 1))
        np.matmul(block[:, :, None, :], x_src[:, None],
                  out=acc[first:end].reshape(-1, heads, 1, h))
        tape.release(block)
        tape.release(x_src)
        term = self_term(first, end, tape.out((end - first, heads, h)))
        acc[first:end] += term
        tape.release(term)
        del block, x_src, term  # without a workspace, this frees them
        done = end
    self_term(done, n, acc[done:])
    out = Node(tape, "csr_aggregate", value)

    def backward(g):
        g3 = g.reshape(n, heads, h)
        self_rep.accumulate(np.einsum("nk,nkh->nh", w_self, g3, out=tape.out((n, h))),
                            fresh=True)
        gw = tape.empty(w.shape)
        gw[layout.starts] = np.einsum("nkh,nh->nk", g3, s)
        sent = tape.empty((len(w), h))  # per parent edge, the gradient of what it carried
        for first, end, c in layout.runs:
            edges = layout.run_edges(first, end, c)
            g_rows = g3[first:end]
            x_src = _take_rows(tape, x, layout.src[edges].reshape(-1, 1 + c)[:, 1:])
            np.matmul(x_src, g_rows.transpose(0, 2, 1),
                      out=gw[edges].reshape(-1, 1 + c, heads)[:, 1:])
            tape.release(x_src)
            np.matmul(w[edges].reshape(-1, 1 + c, heads)[:, 1:], g_rows,
                      out=sent[edges].reshape(-1, 1 + c, h)[:, 1:])
        gx = tape.empty(x.shape)
        gx.fill(0.0)
        for sources, pos in layout.source_bins:
            sent_pos = _take_rows(tape, sent, pos)
            gx[sources] = sent_pos.sum(axis=1)
            tape.release(sent_pos)
        tape.release(sent)
        parents.accumulate(gx, fresh=True)
        coefs.accumulate(gw, fresh=True)

    out._backward = backward
    return out


def segment_softmax(scores: Node, layout: EdgeLayout) -> Node:
    """Softmax of each column of an (m, H) score matrix within each target's
    edges.

    Max-subtraction inside each segment keeps exp in range; the result is
    unchanged by adding any constant to a whole segment of a column.
    """
    dst, starts = layout.dst, layout.starts
    s, tape = scores.value, scores.tape
    e = _take_rows(tape, np.maximum.reduceat(s, starts, axis=0), dst)
    np.subtract(s, e, out=e)
    np.exp(e, out=e)
    p = _take_rows(tape, np.add.reduceat(e, starts, axis=0), dst)
    np.divide(e, p, out=p)
    tape.release(e)
    out = Node(tape, "segment_softmax", p)

    def backward(g):
        gp = np.multiply(g, p, out=tape.out(g.shape))
        sums = _take_rows(tape, np.add.reduceat(gp, starts, axis=0), dst)
        np.multiply(p, sums, out=sums)
        np.subtract(gp, sums, out=gp)
        tape.release(sums)
        scores.accumulate(gp, fresh=True)

    out._backward = backward
    return out


def backward(tape: Tape, loss: Node) -> None:
    """Reverse accumulation from a scalar loss over the whole tape. A non-leaf
    node's value and gradient go back to the tape's workspace, if it has one,
    right after its backward: every consumer of it has run by then."""
    if loss.value.shape != (1, 1):
        raise GraphContractError(f"loss must be 1x1, got shape {loss.value.shape}")
    if loss.tape is not tape:
        raise GraphContractError("loss node does not belong to this tape")
    loss.grad = np.ones((1, 1))
    for node in reversed(tape.nodes):
        if node.grad is None or node._backward is None:
            continue
        node._backward(node.grad)
        tape.release(node.grad)
        tape.release(node.value)


def first_nonfinite_kind(tape: Tape) -> str | None:
    """Kind of the earliest tape node holding a non-finite value, if any."""
    for node in tape.nodes:
        if not np.all(np.isfinite(node.value)):
            return node.kind
    return None


# ---------------------------------------------------------------------------
# Adam optimizer


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam moments per parameter name, at step t."""

    lr: float
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_init(params: dict[str, np.ndarray], lr: float) -> AdamState:
    state = AdamState(lr=lr)
    for name, p in params.items():
        state.m[name] = np.zeros_like(p)
        state.v[name] = np.zeros_like(p)
    return state


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState) -> None:
    """One in-place bias-corrected Adam update over all named parameters."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
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
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out)), shape (fan_in, fan_out)."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))
