import ast
import inspect
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pavecast import ndgrad as ng

from conftest import WatchedWorkspace
from gradcheck import NumericError, grad_check
from oracles import dense_chain, edge_scores_chain


def finite_diff(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences of scalar f w.r.t. every entry of x (mutated in place)."""
    g = np.zeros_like(x)
    flat, gflat = x.reshape(-1), g.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        up = f()
        flat[k] = orig - h
        down = f()
        flat[k] = orig
        gflat[k] = (up - down) / (2 * h)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def weighted_sum(node: ng.Node, weights) -> ng.Node:
    """sum(node * weights) as a 1x1 node whose backward hands node the
    upstream gradient times weights: a loss that seeds node's gradient with
    exactly weights."""
    weights = np.asarray(weights, dtype=np.float64).reshape(node.shape)
    out = ng.Node(node.tape, "weighted_sum", np.array([[np.sum(node.value * weights)]]))
    out._backward = lambda g: node.accumulate(weights * g[0, 0], fresh=True)
    return out


def zero_scores(t, x, alpha=0.2):
    """edge_scores over one target whose len(x) edges read a zero
    representation with zero self and source weights and a unit time
    weight, so each edge's score before the leaky ReLU is its x + 0.0."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    layout = ng.EdgeLayout(np.zeros(len(x), dtype=np.intp), [len(x) - 1])
    head = t.leaf([[0.0], [0.0], [1.0]])
    return ng.edge_scores(t.leaf([[0.0]]), [head], layout, dt=x, alpha=alpha)


# ---------------------------------------------------------------------------
# what ndgrad offers


def test_every_public_primitive_has_a_caller_in_src():
    """ndgrad keeps only what the package calls: each public function and
    class it defines is read as ng.<name> or ndgrad.<name> somewhere in
    src/pavecast outside ndgrad.py. Its exceptions are raised, not called,
    so they are not counted."""
    public = {name for name, obj in vars(ng).items()
              if not name.startswith("_") and getattr(obj, "__module__", None) == ng.__name__
              and (inspect.isfunction(obj)
                   or inspect.isclass(obj) and not issubclass(obj, Exception))}
    called = set()
    for path in Path(ng.__file__).parent.glob("*.py"):
        if path.name != "ndgrad.py":
            called.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                          if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                          and node.value.id in ("ng", "ndgrad"))
    assert "edge_scores" in public and "dense" in public
    assert sorted(public - called) == []


# ---------------------------------------------------------------------------
# leaves


@pytest.mark.parametrize("value", [np.arange(6.0).reshape(2, 3), np.arange(4.0)])
def test_leaf_is_a_read_only_view_of_its_input(value):
    t = ng.Tape()
    node = t.leaf(value)
    assert np.shares_memory(node.value, value)
    with pytest.raises(ValueError, match="read-only"):
        node.value[0, 0] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        node.value += 1.0
    assert value.flags.writeable and value.reshape(-1)[0] == 0.0


# ---------------------------------------------------------------------------
# matmul: dense without its ELU, and with a zero bias


def linear(t, a, b):
    """a @ b as dense(a, b, 0, act=False)."""
    return ng.dense(a, b, t.leaf(np.zeros((1, b.shape[1]))), act=False)


def test_matmul_identity():
    t = ng.Tape()
    m = t.leaf([[1.0, 2.0], [3.0, 4.0]])
    eye = t.leaf(np.eye(2))
    out = linear(t, eye, m)
    assert np.array_equal(out.value, m.value)


def test_matmul_hand_product():
    t = ng.Tape()
    a = t.leaf([[1.0, 2.0], [3.0, 4.0]])
    b = t.leaf([[0.0], [1.0]])
    out = linear(t, a, b)
    assert np.array_equal(out.value, [[2.0], [4.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    t = ng.Tape()
    a = t.leaf(np.zeros((2, 3)))
    b = t.leaf(np.zeros((2, 3)))
    with pytest.raises(ng.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        linear(t, a, b)


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a_val = rng.uniform(-2, 2, (3, 4))
    b_val = rng.uniform(-2, 2, (4, 2))

    t = ng.Tape()
    a = t.leaf(a_val)
    b = t.leaf(b_val)
    loss = ng.sum_all(linear(t, a, b))
    ng.backward(t, loss)

    def loss_of_a():
        t2 = ng.Tape()
        return ng.sum_all(linear(t2, t2.leaf(a_val), t2.leaf(b_val))).value[0, 0]

    fd = finite_diff(loss_of_a, a_val)
    assert rel_err(a.grad, fd) < 1e-6


# ---------------------------------------------------------------------------
# elementwise


def unit_dense(t, x):
    """dense's ELU alone: x @ [[1]] + [[0]] for a one-column x."""
    return ng.dense(t.leaf(x), t.leaf([[1.0]]), t.leaf([[0.0]]))


def test_activation_fixed_points():
    t = ng.Tape()
    assert unit_dense(t, [[0.0]]).value[0, 0] == 0.0
    assert zero_scores(t, [0.0]).value[0, 0] == 0.0


def test_elu_negative_value():
    out = unit_dense(ng.Tape(), [[-1.0]])
    assert out.value[0, 0] == pytest.approx(math.exp(-1) - 1, abs=1e-12)


def test_elu_edge_values():
    out = unit_dense(ng.Tape(), [[-np.inf], [np.nan], [np.inf], [-0.0]])
    assert np.array_equal(out.value, [[-1.0], [np.nan], [np.inf], [0.0]], equal_nan=True)


@pytest.mark.parametrize("act", [True, False], ids=["elu", "linear"])
@pytest.mark.parametrize("pooled", [False, True], ids=["plain", "workspace"])
def test_dense_equals_the_three_step_chain_bit_for_bit(rng, act, pooled):
    """Value and every gradient, with and without a workspace, on arrays of
    pooled size."""
    _, inputs = big_inputs(rng)
    x, w, b = inputs["x"], inputs["w"], inputs["b"]
    g = rng.standard_normal((len(x), w.shape[1]))  # what reaches dense's output
    ws = WatchedWorkspace() if pooled else None
    tape = ng.Tape(ws)
    leaves = [tape.leaf(v) for v in (x, w, b)]
    out = ng.dense(*leaves, act=act)
    got = [out.value.tobytes()]
    ng.backward(tape, weighted_sum(out, g))
    got += [leaf.grad.tobytes() for leaf in leaves]
    assert got == [a.tobytes() for a in dense_chain(x, w, b, act, g)]
    assert ws is None or (ws.lends > 0 and ws.overlaps == 0)


# edge_scores' leaky ReLU, reached through the time slot of zero_scores


def test_leaky_relu_negative_slope():
    out = zero_scores(ng.Tape(), [-2.0], alpha=0.2)
    assert out.value[0, 0] == pytest.approx(-0.4, abs=1e-12)


@pytest.mark.parametrize("alpha", [1e-300, 0.2, 0.5, 1.0])
def test_leaky_relu_has_the_bits_of_the_masked_form(alpha):
    tiny = np.nextafter(0.0, 1.0)
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny, 2.2e-308, -2.2e-308]
    rng = np.random.default_rng(3)
    dt = np.concatenate([special, rng.standard_normal(500) * 10.0 ** rng.integers(-320, 308, 500)])
    # the zero projections add 0.0 to each dt: a score is never -0.0, and
    # every other special value reaches the activation as it is
    x = dt + 0.0
    masked = x.copy()
    with np.errstate(all="ignore"):
        np.multiply(x, alpha, out=masked, where=x <= 0.0)
        out = zero_scores(ng.Tape(), dt, alpha=alpha).value[:, 0]
    assert np.array_equal(out.view(np.int64), masked.view(np.int64))


@pytest.mark.parametrize("alpha", [0.0, -0.2, 1.5, np.nan])
def test_leaky_relu_rejects_a_slope_outside_zero_to_one(alpha):
    with pytest.raises(ValueError, match="alpha must be in"):
        zero_scores(ng.Tape(), [1.0], alpha=alpha)


def test_binary_shape_mismatch():
    t = ng.Tape()
    a = t.leaf(np.zeros((2, 2)))
    b = t.leaf(np.zeros((2, 3)))
    with pytest.raises(ng.ShapeError):
        ng.sub(a, b)


# ---------------------------------------------------------------------------
# concat_cols: edge_scores concatenates its heads' weight columns

# integer inputs, so every score before the activation is exact; the
# layout is LAYOUT3 (below): 0 <- self; 1 <- self, 0, 2; 2 <- self, 1
SCORE_Z = np.array([[1.0, -2.0], [3.0, 0.0], [-1.0, 2.0]])
SCORE_HEADS = [np.array([[1.0], [2.0], [-1.0], [1.0]]), np.array([[0.0], [-1.0], [3.0], [2.0]])]


def test_concat_single_part_is_identity():
    t = ng.Tape()
    out = ng.edge_scores(t.leaf(SCORE_Z), [t.leaf(SCORE_HEADS[0])], LAYOUT3)
    raw = np.concatenate([SCORE_Z[SEG3], SCORE_Z[SRC3]], axis=1) @ SCORE_HEADS[0]
    assert np.array_equal(out.value, np.where(raw > 0, raw, 0.2 * raw))


def test_concat_orders_entries():
    t = ng.Tape()
    both = ng.edge_scores(t.leaf(SCORE_Z), [t.leaf(w) for w in SCORE_HEADS], LAYOUT3)
    assert both.shape == (6, 2)
    for k, w in enumerate(SCORE_HEADS):
        one = ng.edge_scores(t.leaf(SCORE_Z), [t.leaf(w)], LAYOUT3)
        assert np.array_equal(both.value[:, k:k + 1], one.value)


def test_concat_row_mismatch():
    t = ng.Tape()
    with pytest.raises(ng.ShapeError):
        ng.edge_scores(t.leaf(SCORE_Z), [t.leaf(SCORE_HEADS[0]), t.leaf(np.zeros((5, 1)))],
                       LAYOUT3)


def test_concat_backward_splits_all_ones():
    """Each head's weight gradient is its own column's."""
    t = ng.Tape()
    heads = [t.leaf(w) for w in SCORE_HEADS]
    ng.backward(t, ng.sum_all(ng.edge_scores(t.leaf(SCORE_Z), heads, LAYOUT3)))
    for head, w in zip(heads, SCORE_HEADS):
        t1 = ng.Tape()
        one = t1.leaf(w)
        ng.backward(t1, ng.sum_all(ng.edge_scores(t1.leaf(SCORE_Z), [one], LAYOUT3)))
        assert np.array_equal(head.grad, one.grad)


# ---------------------------------------------------------------------------
# edge_scores


def test_edge_scores_time_slot_and_decay_hand_value_and_gradient():
    """A negative score takes the slope, then the decay scales it, and the
    gradient goes back through both."""
    layout = ng.EdgeLayout([0, 1, 0], [0, 1])
    t = ng.Tape()
    z_st, head = t.leaf([[1.0], [-2.0]]), t.leaf([[1.0], [1.0], [2.0]])
    out = ng.edge_scores(z_st, [head], layout, dt=[0.0, 0.0, 1.5], decay=[1.0, 0.5, 0.25],
                         alpha=0.5)
    # raw scores 2, -4 and -2 + 1 + 3 = 2
    assert np.array_equal(out.value, [[2.0], [-1.0], [0.5]])
    ng.backward(t, ng.sum_all(out))
    # d/ds: 1, 0.5 * 0.5, 0.25
    assert np.array_equal(z_st.grad, [[2.0 + 0.25], [0.25 + 0.25 + 0.25]])
    assert np.array_equal(head.grad, [[1.0 - 0.5 - 0.5], [1.0 - 0.5 + 0.25], [0.375]])


SCORE_MODULES = list(itertools.product([False, True], repeat=3))  # sends_z, time_slot, decay


@pytest.mark.parametrize("sends_z,time_slot,decay", SCORE_MODULES,
                         ids=["-".join(name for name, on in zip(("z", "dt", "decay"), mods) if on)
                              or "plain" for mods in SCORE_MODULES])
@pytest.mark.parametrize("pooled", [False, True], ids=["plain", "workspace"])
def test_edge_scores_equal_the_separate_chain_bit_for_bit(rng, sends_z, time_slot, decay,
                                                          pooled):
    """Value and the z_st, z and per-head gradients, for every combination
    of the Modules switches sends_z, time_slot and decay, with and without a
    workspace, on arrays of pooled size. Some rows of z_st and z are zero,
    so without the time slot some scores are exactly 0."""
    layout, inputs = big_inputs(rng)
    n, d = inputs["x"].shape
    z_st, z = inputs["x"].copy(), rng.standard_normal((n, d))
    z_st[::7] = 0.0
    z[::5] = 0.0
    heads = [w[:2 * d + time_slot] for w in inputs["att"]]
    dt = inputs["dt"] if time_slot else None
    dec = inputs["decay"] if decay else None
    g = rng.standard_normal((len(layout.src), len(heads)))  # what reaches the scores
    ws = WatchedWorkspace() if pooled else None
    tape = ng.Tape(ws)
    leaves = [tape.leaf(z_st), *([tape.leaf(z)] if sends_z else []),
              *(tape.leaf(w) for w in heads)]
    out = ng.edge_scores(leaves[0], leaves[1 + sends_z:], layout,
                         z=leaves[1] if sends_z else None, dt=dt, decay=dec)
    got = [out.value.tobytes()]
    ng.backward(tape, weighted_sum(out, g))
    got += [leaf.grad.tobytes() for leaf in leaves]
    want = edge_scores_chain(z_st, z if sends_z else None, heads, layout, dt, dec, 0.2, g)
    assert got == [a.tobytes() for a in want]
    assert ws is None or (ws.lends > 0 and ws.overlaps == 0)


# ---------------------------------------------------------------------------
# segment_softmax


def segments(seg_ids, n):
    """A layout over the given sorted segments; parent edges read their own
    row."""
    return ng.EdgeLayout(seg_ids, np.bincount(seg_ids, minlength=n) - 1)


def test_segment_softmax_singleton():
    t = ng.Tape()
    out = ng.segment_softmax(t.leaf([[3.7]]), segments([0], 1))
    assert out.value[0, 0] == 1.0


def test_segment_softmax_equal_scores():
    t = ng.Tape()
    out = ng.segment_softmax(t.leaf([[0.5]] * 4), segments([0, 0, 0, 0], 1))
    assert np.allclose(out.value, 0.25, atol=1e-15)


def test_segment_softmax_hand_value():
    t = ng.Tape()
    out = ng.segment_softmax(t.leaf([[0.0], [math.log(3.0)]]), segments([0, 0], 1))
    assert out.value[:, 0] == pytest.approx([0.25, 0.75], abs=1e-12)


def test_segment_softmax_empty_segment():
    with pytest.raises(ng.SegmentError):
        segments([0, 0], 2)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.floats(-2, 2), min_size=1, max_size=8),
       st.floats(-5, 5))
def test_segment_softmax_sums_to_one_and_shift_invariant(scores, shift):
    one = segments([0] * len(scores), 1)
    t = ng.Tape()
    p = ng.segment_softmax(t.leaf(np.array(scores).reshape(-1, 1)), one)
    assert abs(p.value.sum() - 1.0) < 1e-12

    t2 = ng.Tape()
    p2 = ng.segment_softmax(t2.leaf(np.array(scores).reshape(-1, 1) + shift), one)
    assert np.allclose(p.value, p2.value, atol=1e-12)


def test_segment_softmax_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    s_val = rng.uniform(-2, 2, (6, 1))
    layout = segments([0, 0, 1, 1, 1, 2], 3)
    w = rng.uniform(-1, 1, (6, 1))  # weights make the loss sensitive per entry

    def run():
        t = ng.Tape()
        s = t.leaf(s_val)
        p = ng.segment_softmax(s, layout)
        loss = weighted_sum(p, w)
        return t, s, loss

    t, s, loss = run()
    ng.backward(t, loss)
    fd = finite_diff(lambda: run()[2].value[0, 0], s_val)
    assert rel_err(s.grad, fd) < 1e-6


# ---------------------------------------------------------------------------
# backward contracts


def test_backward_identity_gradient():
    t = ng.Tape()
    p = t.leaf([[2.5]])
    ng.backward(t, p)
    assert p.grad[0, 0] == 1.0


def test_backward_quadratic_hand_gradient():
    # p feeds both matmul operands: sum(P @ P) has gradient 1 P^T + P^T 1
    t = ng.Tape()
    p = t.leaf([[1.0, -2.0], [0.5, 3.0]])
    loss = ng.sum_all(linear(t, p, p))
    ng.backward(t, loss)
    ones = np.ones((2, 2))
    assert np.allclose(p.grad, ones @ p.value.T + p.value.T @ ones, atol=1e-12)


def test_backward_rejects_non_scalar_loss():
    t = ng.Tape()
    p = t.leaf(np.ones((2, 2)))
    with pytest.raises(ng.GraphContractError):
        ng.backward(t, p)


def test_backward_rejects_a_loss_from_another_tape():
    other = ng.Tape()
    loss = ng.sum_all(other.leaf(np.ones((2, 2))))
    with pytest.raises(ng.GraphContractError, match="does not belong to this tape"):
        ng.backward(ng.Tape(), loss)


def scores_of(t, heads=((4, 1),), z=(3, 2), **kw):
    """edge_scores on LAYOUT3 with zero inputs of the given shapes."""
    return ng.edge_scores(t.leaf(np.zeros((3, 2))), [t.leaf(np.zeros(s)) for s in heads],
                          LAYOUT3, z=t.leaf(np.zeros(z)), **kw)


@pytest.mark.parametrize("call", [
    lambda t: t.leaf(np.zeros((2, 2, 2))),
    lambda t: scores_of(t, decay=np.ones(5)),  # the decay multiply: one entry per edge
    lambda t: ng.dense(t.leaf(np.zeros((2, 3))), t.leaf(np.zeros((3, 3))),
                       t.leaf(np.zeros((1, 2)))),
    lambda t: ng.dense(t.leaf(np.zeros((2, 3))), t.leaf(np.zeros((2, 3))),
                       t.leaf(np.zeros((1, 3)))),
    lambda t: scores_of(t, heads=()),  # no head weights to concatenate
    lambda t: scores_of(t, dt=np.ones(6)),  # the time slot's row past the weights' end
    lambda t: scores_of(t, dt=np.ones(7), heads=((5, 1),)),
    lambda t: scores_of(t, z=(3, 3)),
    lambda t: ng.edge_scores(t.leaf(np.zeros((4, 2))), [t.leaf(np.zeros((4, 1)))], LAYOUT3),
], ids=["3d-leaf", "mul_array", "dense-bias", "dense-inner-dims", "concat-no-parts",
        "slice-past-end", "scores-dt-length", "scores-z-width", "scores-rows"])
def test_malformed_shapes_raise_shape_error(call):
    with pytest.raises(ng.ShapeError):
        call(ng.Tape())


def test_first_nonfinite_kind_names_the_earliest_or_none():
    t = ng.Tape()
    a = t.leaf([[1.0, -1.0]])
    eye, zero = t.leaf(np.eye(2)), t.leaf(np.zeros((1, 2)))
    ng.dense(a, eye, zero)
    assert ng.first_nonfinite_kind(t) is None
    with np.errstate(invalid="ignore"):
        ng.dense(ng.scale(a, np.inf), eye, zero)  # [inf, -inf], then NaN from inf * 0
    assert ng.first_nonfinite_kind(t) == "scale"


def test_evaluation_is_deterministic():
    rng = np.random.default_rng(7)
    a_val = rng.uniform(-2, 2, (5, 3))
    w_val = rng.uniform(-2, 2, (3, 4))
    b_val = rng.uniform(-2, 2, (1, 4))

    def run():
        t = ng.Tape()
        out = ng.dense(t.leaf(a_val), t.leaf(w_val), t.leaf(b_val))
        return ng.sum_all(out).value.copy()

    assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# gather / scatter primitives


def test_gather_rows_values_and_gradient():
    t = ng.Tape()
    a = t.leaf(np.arange(6.0).reshape(3, 2))
    out = ng.gather_rows(a, [2, 0, 2])
    assert np.array_equal(out.value, [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]])
    ng.backward(t, ng.sum_all(out))
    assert np.array_equal(a.grad, [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])


def test_gather_rows_gradient_sums_repeated_rows_like_a_one_hot_product(rng):
    idx = np.concatenate([rng.integers(0, 6, 60), [2, 2, 2]])  # row 6 never gathered
    t = ng.Tape()
    a = t.leaf(rng.standard_normal((7, 5)))
    weights = rng.standard_normal((len(idx), 5))
    ng.backward(t, weighted_sum(ng.gather_rows(a, idx), weights))
    one_hot = np.zeros((len(idx), 7))
    one_hot[np.arange(len(idx)), idx] = 1.0
    assert np.allclose(a.grad, one_hot.T @ weights, rtol=0.0, atol=1e-12)
    assert not a.grad[6].any()
    # the per-column bincount adds each row's copies in the same order as
    # a sequential scatter-add
    scattered = np.zeros((7, 5))
    np.add.at(scattered, idx, weights)
    assert np.array_equal(a.grad, scattered)
    for bad in ([0, -1], [0, 7]):  # before the first row, past the last
        with pytest.raises(ng.ShapeError):
            ng.gather_rows(a, bad)


def test_concat_rows_values_and_gradient():
    """edge_scores with z stacks the source slot's projections of z and
    z_st: a parent edge reads z's, a self loop z_st's, and each gets the
    gradient of what it sent. [self || source] weights of ones on one-wide
    representations."""
    layout = ng.EdgeLayout([0, 1, 0], [0, 1])  # 0 <- self; 1 <- self, 0
    t = ng.Tape()
    z_st, z, head = t.leaf([[1.0], [2.0]]), t.leaf([[10.0], [20.0]]), t.leaf([[1.0], [1.0]])
    out = ng.edge_scores(z_st, [head], layout, z=z)
    assert np.array_equal(out.value, [[2.0], [4.0], [12.0]])
    ng.backward(t, ng.sum_all(out))
    assert np.array_equal(z.grad, [[1.0], [0.0]])  # row 1 sends no parent edge
    assert np.array_equal(z_st.grad, [[2.0], [3.0]])
    assert np.array_equal(head.grad, [[5.0], [13.0]])


# ---------------------------------------------------------------------------
# csr_aggregate

# edges per target, self term first: 0 <- self; 1 <- self, 0, 2; 2 <- self, 1
SEG3 = np.array([0, 1, 1, 1, 2, 2])
SRC3 = np.array([0, 1, 0, 2, 2, 1])
LAYOUT3 = ng.EdgeLayout(SRC3, [0, 2, 1])


def test_csr_aggregate_hand_value_and_gradient():
    t = ng.Tape()
    parents = t.leaf([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    self_rep = t.leaf([[10.0, 10.0], [20.0, 20.0], [30.0, 30.0]])
    coefs = t.leaf([[0.5], [0.25], [2.0], [3.0], [1.0], [4.0]])
    out = ng.csr_aggregate(parents, self_rep, coefs, LAYOUT3)
    # self terms read only self_rep, parent edges only parents
    assert np.array_equal(out.value, [[5, 5], [10, 8], [30, 34]])
    ng.backward(t, ng.sum_all(out))
    assert np.array_equal(parents.grad, [[2, 2], [4, 4], [3, 3]])
    assert np.array_equal(self_rep.grad, [[0.5, 0.5], [0.25, 0.25], [1, 1]])
    assert np.array_equal(coefs.grad, [[20], [40], [1], [2], [60], [1]])


def test_csr_aggregate_matches_per_edge_loop():
    rng = np.random.default_rng(11)
    p_val, s_val = rng.uniform(-2, 2, (3, 4)), rng.uniform(-2, 2, (3, 4))
    w_val = rng.uniform(-2, 2, (6, 2))
    t = ng.Tape()
    out = ng.csr_aggregate(t.leaf(p_val), t.leaf(s_val), t.leaf(w_val), LAYOUT3)
    manual = np.zeros((3, 8))
    for e, (i, j) in enumerate(zip(SEG3, SRC3)):
        first = e == 0 or SEG3[e - 1] != i
        for k in range(2):
            manual[i, 4 * k:4 * (k + 1)] += w_val[e, k] * (s_val[i] if first else p_val[j])
    assert np.allclose(out.value, manual, atol=1e-14)


def test_csr_aggregate_forward_equals_per_head_matmuls_bit_for_bit():
    """All heads of a run in one batched product give every head the bits of
    one matmul per run and head, with and without a workspace. Sorted by
    parent count, the runs are large enough that the workspace lends the
    kernel's temporaries; unsorted, most runs hold a single row."""
    rng = np.random.default_rng(12)
    n, heads, h = 400, 3, 64
    x, s = rng.uniform(-2, 2, (n, h)), rng.uniform(-2, 2, (n, h))
    unsorted = rng.integers(0, 5, n)
    for sort in (True, False):
        counts = np.sort(unsorted) if sort else unsorted
        src = np.concatenate([[i, *rng.integers(0, n, c)] for i, c in enumerate(counts)])
        layout = ng.EdgeLayout(src, counts)
        lengths = [end - first for first, end, _ in layout.runs]
        if sort:
            assert lengths == [np.count_nonzero(counts == c) for c in (1, 2, 3, 4)]
        else:
            assert lengths.count(1) > 100
        w = rng.uniform(0, 1, (len(src), heads))
        want = w[layout.starts][:, :, None] * s[:, None, :]
        for first, end, c in layout.runs:
            pos = layout.starts[first:end, None] + 1 + np.arange(c)
            for k in range(heads):
                want[first:end, k] += np.matmul(w[pos, k][:, None, :], x[src[pos]])[:, 0]
        for workspace in (None, WatchedWorkspace()):
            t = ng.Tape(workspace)
            out = ng.csr_aggregate(t.leaf(x), t.leaf(s), t.leaf(w), layout)
            assert np.array_equal(out.value, want.reshape(n, heads * h))
        assert workspace.lends > (1 if sort else 0)
        assert workspace.overlaps == 0


def test_segment_ops_columns_equal_single_column_calls():
    rng = np.random.default_rng(5)
    s_val = rng.uniform(-2, 2, (6, 3))
    p_val, self_val = rng.uniform(-2, 2, (3, 4)), rng.uniform(-2, 2, (3, 4))
    t = ng.Tape()
    p = ng.segment_softmax(t.leaf(s_val), LAYOUT3)
    agg = ng.csr_aggregate(t.leaf(p_val), t.leaf(self_val), p, LAYOUT3)
    assert p.shape == (6, 3) and agg.shape == (3, 12)
    for k in range(3):
        pk = ng.segment_softmax(t.leaf(s_val[:, k:k + 1]), LAYOUT3)
        assert np.array_equal(p.value[:, k:k + 1], pk.value)
        aggk = ng.csr_aggregate(t.leaf(p_val), t.leaf(self_val), pk, LAYOUT3)
        assert np.array_equal(agg.value[:, 4 * k:4 * (k + 1)], aggk.value)


def test_segment_ops_gradients_match_finite_differences_three_heads():
    rng = np.random.default_rng(6)
    vals = [rng.uniform(-2, 2, (3, 4)), rng.uniform(-2, 2, (3, 4)),
            rng.uniform(-2, 2, (6, 3))]
    mix = rng.uniform(-1, 1, (3, 12))  # every output entry weighs differently

    def run(softmax):
        # all three inputs of csr_aggregate, the coefficients either as a free
        # leaf or as the softmax of a score leaf
        t = ng.Tape()
        xs = [t.leaf(v) for v in vals]
        coefs = ng.segment_softmax(xs[2], LAYOUT3) if softmax else xs[2]
        out = ng.csr_aggregate(xs[0], xs[1], coefs, LAYOUT3)
        return t, xs, weighted_sum(out, mix)

    for softmax in (False, True):
        t, xs, loss = run(softmax)
        ng.backward(t, loss)
        for x, v in zip(xs, vals):
            fd = finite_diff(lambda: run(softmax)[2].value[0, 0], v)
            assert rel_err(x.grad, fd) < 1e-6


def test_csr_aggregate_shape_mismatch():
    t = ng.Tape()
    with pytest.raises(ng.ShapeError):
        ng.csr_aggregate(t.leaf(np.zeros((3, 4))), t.leaf(np.zeros((3, 5))),
                         t.leaf(np.ones((6, 1))), LAYOUT3)
    with pytest.raises(ng.ShapeError):
        ng.csr_aggregate(t.leaf(np.zeros((3, 4))), t.leaf(np.zeros((3, 4))),
                         t.leaf(np.ones((5, 1))), LAYOUT3)


# (src, counts) pairs that do not form segments of SEG3's shape
@pytest.mark.parametrize("seg", [([0, 2, 1, 0, 1, 2], [0, 2, 1]),  # targets 1 and 2 interleaved
                                 (SRC3.tolist() + [2], [0, 2, 1]),  # past the last segment
                                 (SRC3, [0, 3, -1]),              # negative count
                                 (SRC3[:5], [0, 2, 1])])           # segment 2 missing an edge
def test_segment_ops_reject_bad_ids(seg):
    with pytest.raises(ng.SegmentError):
        ng.EdgeLayout(*seg)


@pytest.mark.parametrize("src", [[0, 1, 3, 2, 2, 1], [0, 1, -1, 2, 2, 1]])
def test_edge_layout_rejects_source_out_of_range(src):
    with pytest.raises(ng.SegmentError):
        ng.EdgeLayout(src, [0, 2, 1])


def test_edge_layout_rejects_self_loop_not_first():
    # target 1's self loop is its second edge: aggregation would read
    # parents[1] into row 1 and take parents[0] as its self term
    with pytest.raises(ng.SegmentError):
        ng.EdgeLayout([0, 0, 1, 2, 2, 1], [0, 2, 1])


def test_edge_layout_runs_rows_by_parent_count_and_bins_sources():
    # runs: (first row, end row, parent count) of rows with parents
    assert LAYOUT3.runs == [(1, 2, 2), (2, 3, 1)]
    assert LAYOUT3.starts.tolist() == [0, 1, 4]
    assert LAYOUT3.dst.tolist() == SEG3.tolist()
    assert [(s.tolist(), p.tolist()) for s, p in LAYOUT3.source_bins] == [
        ([0, 1, 2], [[2], [5], [3]])]


def test_edge_layout_sorted_by_parent_count_has_one_run_per_count():
    counts = [0, 0, 1, 1, 1, 3, 3, 4]
    src = np.concatenate([[i, *[max(i - 1, 0)] * c] for i, c in enumerate(counts)])
    layout = ng.EdgeLayout(src, counts)
    assert layout.runs == [(2, 5, 1), (5, 7, 3), (7, 8, 4)]
    assert [src[layout.run_edges(*run)].tolist() for run in layout.runs[1:]] == [
        [5, 4, 4, 4, 6, 5, 5, 5], [7, 6, 6, 6, 6]]
    assert ng.EdgeLayout([0], [0]).runs == []


# ---------------------------------------------------------------------------
# property: every differentiable primitive vs central differences; "elu" is
# dense with its ELU, "dense" the layer without it. edge_scores runs once per
# combination of its source slot reading z, its time slot and its decay
# (sends_z, time_slot, decay), on LAYOUT3. Four combinations keep the ids of
# the primitives that did that part of scoring before edge_scores: "matmul"
# the slots' projections alone, "add" the time slot added to them, "concat"
# the stacked z and z_st projections, and "leaky_relu" the activation
# followed by the decay multiply.

EDGE_SCORES = {"matmul": (False, False, False), "add": (False, True, False),
               "concat": (True, False, False), "leaky_relu": (False, False, True),
               "edge_scores-z-dt": (True, True, False), "edge_scores-z-decay": (True, False, True),
               "edge_scores-dt-decay": (False, True, True),
               "edge_scores-z-dt-decay": (True, True, True)}
PRIMS = ["sub", "scale", "elu", "abs", "dense", "gather", "segment_softmax", *EDGE_SCORES]


def _build_prim(kind, t, xs):
    if kind in EDGE_SCORES:
        sends_z, time_slot, decay = EDGE_SCORES[kind]
        return ng.edge_scores(xs[0], xs[6:8] if time_slot else xs[8:10], LAYOUT3,
                              z=xs[1] if sends_z else None,
                              dt=[0.0, 0.0, 0.7, 1.3, 0.0, 0.4] if time_slot else None,
                              decay=[1.0, 1.0, 0.6, 0.8, 1.0, 0.9] if decay else None)
    if kind == "sub":
        return ng.sub(xs[0], xs[1])
    if kind == "scale":
        return ng.scale(xs[0], 1.7)
    if kind == "elu":
        return ng.dense(xs[0], xs[3], xs[5])
    if kind == "abs":
        return ng.absolute(xs[0])
    if kind == "dense":
        return ng.dense(xs[0], xs[3], xs[5], act=False)
    if kind == "gather":
        return ng.gather_rows(xs[0], [1, 0, 1, 2])
    if kind == "segment_softmax":
        return ng.segment_softmax(xs[4], segments([0, 0, 1, 1, 1], 2))
    raise AssertionError(kind)


@pytest.mark.parametrize("kind", PRIMS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_primitive_gradients_match_finite_differences(kind, seed):
    rng = np.random.default_rng(seed)
    vals = [rng.uniform(-2, 2, (3, 4)), rng.uniform(-2, 2, (3, 4)),
            rng.uniform(-2, 2, (1, 4)), rng.uniform(-2, 2, (4, 2)),
            rng.uniform(-2, 2, (5, 1)), rng.uniform(-2, 2, (1, 2)),
            rng.uniform(-2, 2, (9, 1)), rng.uniform(-2, 2, (9, 1)),  # heads with a time slot
            rng.uniform(-2, 2, (8, 1)), rng.uniform(-2, 2, (8, 1))]  # and without
    # no row reads vals[2] any more; it is still drawn so the later ones stay put
    if kind == "abs":
        # keep entries away from the |x| kink where FD is meaningless
        vals[0] = np.where(np.abs(vals[0]) < 0.05, 0.5, vals[0])
    mix = np.sin(1 + np.arange(60)).reshape(-1)  # fixed non-uniform weights

    def run():
        t = ng.Tape()
        xs = [t.leaf(v) for v in vals]
        out = _build_prim(kind, t, xs)
        return t, xs, weighted_sum(out, mix[:out.value.size])

    t, xs, loss = run()
    ng.backward(t, loss)
    for i, v in enumerate(vals):
        if xs[i].grad is None:
            continue
        fd = finite_diff(lambda: run()[2].value[0, 0], v)
        assert rel_err(xs[i].grad, fd) < 1e-4, f"{kind} input {i}"


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_is_fixed_point():
    params = {"p": np.array([[1.0, -2.0]])}
    state = ng.adam_init(params, lr=0.004)
    ng.adam_step(params, {"p": np.zeros((1, 2))}, state)
    assert np.array_equal(params["p"], [[1.0, -2.0]])
    assert np.all(state.m["p"] == 0) and np.all(state.v["p"] == 0)
    assert state.t == 1


def test_adam_first_step_closed_form():
    params = {"p": np.array([[0.0]])}
    state = ng.adam_init(params, lr=0.004)
    ng.adam_step(params, {"p": np.array([[1.0]])}, state)
    assert params["p"][0, 0] == pytest.approx(-0.004, abs=1e-9)


def scalar_adam_oracle(p0, grads, lr=0.004, b1=0.9, b2=0.999, eps=1e-8):
    """Independent scalar Adam: plain Python floats, one value at a time."""
    p, m, v = p0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        p = p - lr * m_hat / (math.sqrt(v_hat) + eps)
    return p


def test_adam_matches_scalar_oracle_bit_for_bit():
    rng = np.random.default_rng(42)
    p0 = float(rng.uniform(-1, 1))
    gs = [float(g) for g in rng.uniform(-2, 2, 10)]

    params = {"p": np.array([[p0]])}
    state = ng.adam_init(params, lr=0.004)
    for g in gs:
        ng.adam_step(params, {"p": np.array([[g]])}, state)

    assert params["p"][0, 0] == scalar_adam_oracle(p0, gs)


def test_adam_shape_mismatch():
    params = {"p": np.zeros((2, 2))}
    state = ng.adam_init(params, lr=0.004)
    with pytest.raises(ng.ShapeError):
        ng.adam_step(params, {"p": np.zeros((2, 3))}, state)


# ---------------------------------------------------------------------------
# grad_check harness


def _linear_model(params):
    t = ng.Tape()
    w = t.leaf(params["w"])
    x = t.leaf(np.arange(6.0).reshape(2, 3) / 3.0)
    loss = ng.sum_all(linear(t, x, w))
    ng.backward(t, loss)
    return loss.value[0, 0], {"w": w.grad}


def test_grad_check_linear_model_exact():
    report = grad_check(_linear_model, {"w": np.random.default_rng(1).uniform(-1, 1, (3, 2))})
    assert report["w"] < 1e-9


def _mlp_model(params):
    t = ng.Tape()
    w1 = t.leaf(params["w1"])
    b1 = t.leaf(params["b1"])
    w2 = t.leaf(params["w2"])
    b2 = t.leaf(params["b2"])
    x = t.leaf(np.sin(np.arange(8.0)).reshape(2, 4))
    h = ng.dense(x, w1, b1)
    loss = ng.sum_all(ng.dense(h, w2, b2))
    ng.backward(t, loss)
    return loss.value[0, 0], {"w1": w1.grad, "b1": b1.grad, "w2": w2.grad, "b2": b2.grad}


def test_grad_check_two_layer_elu_mlp():
    rng = np.random.default_rng(5)
    params = {"w1": rng.uniform(-1, 1, (4, 3)), "b1": rng.uniform(-1, 1, (1, 3)),
              "w2": rng.uniform(-1, 1, (3, 1)), "b2": rng.uniform(-1, 1, (1, 1))}
    report = grad_check(_mlp_model, params)
    assert max(report.values()) < 1e-5


def test_grad_check_reports_nonfinite_loss():
    def bad(params):
        return float("nan"), {"w": np.zeros((1, 1))}

    with pytest.raises(NumericError):
        grad_check(bad, {"w": np.zeros((1, 1))})


# ---------------------------------------------------------------------------
# workspace


def big_inputs(rng, n=300, d=60, heads=3):
    """Inputs whose arrays reach the pooling threshold: (n, d) rows, and
    about 18 parents a row."""
    counts = rng.integers(8, 29, n)
    src = np.concatenate([[i, *rng.integers(0, n, c)] for i, c in enumerate(counts)])
    layout = ng.EdgeLayout(src, counts)
    return layout, dict(x=rng.standard_normal((n, d)), w=rng.standard_normal((d, d)) / 8,
                        b=rng.standard_normal((1, d)),
                        att=list(rng.standard_normal((heads, 2 * d + 1, 1))),
                        dt=rng.uniform(0.0, 2.0, len(src)),
                        decay=rng.uniform(0.5, 1.0, len(src)))


def big_sweep(tape, layout, inputs):
    """Every primitive once, on arrays of pooled size; returns the leaves and
    the loss."""
    leaves = {name: tape.leaf(inputs[name]) for name in ("x", "w", "b")}
    leaves.update((f"att{k}", tape.leaf(w)) for k, w in enumerate(inputs["att"]))
    x = leaves["x"]
    h = ng.dense(x, leaves["w"], leaves["b"])
    g = ng.sub(ng.scale(h, 0.5), x)
    heads = [leaves[f"att{k}"] for k in range(len(inputs["att"]))]
    scores = ng.edge_scores(g, heads, layout, z=h, dt=inputs["dt"], decay=inputs["decay"])
    agg = ng.csr_aggregate(h, g, ng.segment_softmax(scores, layout), layout)
    rows = np.concatenate([np.arange(10), np.arange(layout.n)])  # rows 0-9 twice
    return leaves, ng.sum_all(ng.absolute(ng.gather_rows(agg, rows)))


def test_workspace_sweeps_equal_plain_sweeps_bit_for_bit(rng):
    """Repeated sweeps on one workspace give the values and gradients of a
    tape without one, reuse the first sweep's buffers, and never lend memory
    that a live array still holds."""
    layout, inputs = big_inputs(rng)
    tape = ng.Tape()
    leaves, loss = big_sweep(tape, layout, inputs)
    ng.backward(tape, loss)
    want = [loss.value.tobytes()] + [leaf.grad.tobytes() for leaf in leaves.values()]
    ws = WatchedWorkspace()
    held = []
    for _ in range(3):
        tape = ng.Tape(ws)
        leaves, loss = big_sweep(tape, layout, inputs)
        got = [loss.value.tobytes()]
        ng.backward(tape, loss)
        assert got + [leaf.grad.tobytes() for leaf in leaves.values()] == want
        held.append(ws.nbytes)
    assert ws.lends > 0 and ws.overlaps == 0
    assert held[1] == held[2]


def test_workspace_gradients_hold_until_the_next_tape(rng):
    layout, inputs = big_inputs(rng)
    ws = ng.Workspace()
    tape = ng.Tape(ws)
    leaves, loss = big_sweep(tape, layout, inputs)
    ng.backward(tape, loss)
    grad = leaves["x"].grad
    kept = grad.copy()
    assert not grad.flags.owndata  # a view the workspace lent
    # another sweep without the workspace, and one on a second workspace
    for other in (ng.Tape(), ng.Tape(ng.Workspace())):
        ng.backward(other, big_sweep(other, layout, inputs)[1])
    assert np.array_equal(grad, kept)


def test_workspace_pools_only_large_arrays():
    ws = ng.Workspace()
    tape = ng.Tape(ws)
    small = tape.empty((ng.POOLED_MIN_ELEMENTS - 1, 1))
    large = tape.empty((ng.POOLED_MIN_ELEMENTS, 1))
    assert small.flags.owndata and not large.flags.owndata
    assert ws.nbytes == 8 * ng.POOLED_MIN_ELEMENTS


def test_workspace_lends_the_smallest_free_buffer_that_holds_a_request():
    ws = ng.Workspace()
    views = [ws.take((size,)) for size in (300, 100, 200)]
    for view in views:
        ws.give(view)
    ws.give(np.empty(100))  # not lent by it: ignored
    view = ws.take((10, 15))
    assert view.shape == (10, 15) and np.shares_memory(view, views[2])
    assert ws.nbytes == 8 * 600
    ws.take((301,))
    assert ws.nbytes == 8 * 901
