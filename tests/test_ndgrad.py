import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pavecast import ndgrad as ng


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


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    t = ng.Tape()
    m = t.leaf([[1.0, 2.0], [3.0, 4.0]])
    eye = t.leaf(np.eye(2))
    out = ng.matmul(eye, m)
    assert np.array_equal(out.value, m.value)


def test_matmul_hand_product():
    t = ng.Tape()
    a = t.leaf([[1.0, 2.0], [3.0, 4.0]])
    b = t.leaf([[0.0], [1.0]])
    out = ng.matmul(a, b)
    assert np.array_equal(out.value, [[2.0], [4.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    t = ng.Tape()
    a = t.leaf(np.zeros((2, 3)))
    b = t.leaf(np.zeros((2, 3)))
    with pytest.raises(ng.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        ng.matmul(a, b)


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    a_val = rng.uniform(-2, 2, (3, 4))
    b_val = rng.uniform(-2, 2, (4, 2))

    t = ng.Tape()
    a = t.leaf(a_val)
    b = t.leaf(b_val)
    loss = ng.sum_all(ng.matmul(a, b))
    ng.backward(t, loss)

    def loss_of_a():
        t2 = ng.Tape()
        return ng.sum_all(ng.matmul(t2.leaf(a_val), t2.leaf(b_val))).value[0, 0]

    fd = finite_diff(loss_of_a, a_val)
    assert rel_err(a.grad, fd) < 1e-6


# ---------------------------------------------------------------------------
# elementwise


def test_activation_fixed_points():
    t = ng.Tape()
    z = t.leaf([[0.0]])
    assert ng.elu(z).value[0, 0] == 0.0
    assert ng.leaky_relu(z).value[0, 0] == 0.0


def test_elu_negative_value():
    t = ng.Tape()
    out = ng.elu(t.leaf([[-1.0]]))
    assert out.value[0, 0] == pytest.approx(math.exp(-1) - 1, abs=1e-12)


def test_leaky_relu_negative_slope():
    t = ng.Tape()
    out = ng.leaky_relu(t.leaf([[-2.0]]), alpha=0.2)
    assert out.value[0, 0] == pytest.approx(-0.4, abs=1e-12)


def test_binary_shape_mismatch():
    t = ng.Tape()
    a = t.leaf(np.zeros((2, 2)))
    b = t.leaf(np.zeros((2, 3)))
    with pytest.raises(ng.ShapeError):
        ng.add(a, b)


# ---------------------------------------------------------------------------
# concat_cols


def test_concat_single_part_is_identity():
    t = ng.Tape()
    a = t.leaf([[1.0, 2.0]])
    assert np.array_equal(ng.concat_cols([a]).value, a.value)


def test_concat_orders_entries():
    t = ng.Tape()
    out = ng.concat_cols([t.leaf([[1.0, 2.0]]), t.leaf([[3.0]])])
    assert np.array_equal(out.value, [[1.0, 2.0, 3.0]])


def test_concat_row_mismatch():
    t = ng.Tape()
    with pytest.raises(ng.ShapeError):
        ng.concat_cols([t.leaf(np.zeros((2, 1))), t.leaf(np.zeros((3, 1)))])


def test_concat_backward_splits_all_ones():
    t = ng.Tape()
    a = t.leaf(np.arange(4.0).reshape(2, 2))
    b = t.leaf(np.arange(2.0).reshape(2, 1))
    loss = ng.sum_all(ng.concat_cols([a, b]))
    ng.backward(t, loss)
    assert np.array_equal(a.grad, np.ones((2, 2)))
    assert np.array_equal(b.grad, np.ones((2, 1)))


# ---------------------------------------------------------------------------
# segment_softmax


def test_segment_softmax_singleton():
    t = ng.Tape()
    out = ng.segment_softmax(t.leaf([[3.7]]), [0], 1)
    assert out.value[0, 0] == 1.0


def test_segment_softmax_equal_scores():
    t = ng.Tape()
    out = ng.segment_softmax(t.leaf([[0.5]] * 4), [0, 0, 0, 0], 1)
    assert np.allclose(out.value, 0.25, atol=1e-15)


def test_segment_softmax_hand_value():
    t = ng.Tape()
    out = ng.segment_softmax(t.leaf([[0.0], [math.log(3.0)]]), [0, 0], 1)
    assert out.value[:, 0] == pytest.approx([0.25, 0.75], abs=1e-12)


def test_segment_softmax_empty_segment():
    t = ng.Tape()
    with pytest.raises(ng.SegmentError):
        ng.segment_softmax(t.leaf([[1.0], [2.0]]), [0, 0], 2)


@settings(deadline=None, max_examples=30)
@given(st.lists(st.floats(-2, 2), min_size=1, max_size=8),
       st.floats(-5, 5))
def test_segment_softmax_sums_to_one_and_shift_invariant(scores, shift):
    t = ng.Tape()
    p = ng.segment_softmax(t.leaf(np.array(scores).reshape(-1, 1)),
                           [0] * len(scores), 1)
    assert abs(p.value.sum() - 1.0) < 1e-12

    t2 = ng.Tape()
    p2 = ng.segment_softmax(t2.leaf(np.array(scores).reshape(-1, 1) + shift),
                            [0] * len(scores), 1)
    assert np.allclose(p.value, p2.value, atol=1e-12)


def test_segment_softmax_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    s_val = rng.uniform(-2, 2, (6, 1))
    seg = np.array([0, 0, 1, 1, 1, 2])
    w = rng.uniform(-1, 1, (6, 1))  # weights make the loss sensitive per entry

    def run():
        t = ng.Tape()
        s = t.leaf(s_val)
        p = ng.segment_softmax(s, seg, 3)
        loss = ng.sum_all(ng.mul_array(p, w))
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
    loss = ng.sum_all(ng.matmul(p, p))
    ng.backward(t, loss)
    ones = np.ones((2, 2))
    assert np.allclose(p.grad, ones @ p.value.T + p.value.T @ ones, atol=1e-12)


def test_backward_rejects_non_scalar_loss():
    t = ng.Tape()
    p = t.leaf(np.ones((2, 2)))
    with pytest.raises(ng.GraphContractError):
        ng.backward(t, p)


def test_evaluation_is_deterministic():
    rng = np.random.default_rng(7)
    a_val = rng.uniform(-2, 2, (5, 3))
    w_val = rng.uniform(-2, 2, (3, 4))

    def run():
        t = ng.Tape()
        out = ng.elu(ng.matmul(t.leaf(a_val), t.leaf(w_val)))
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


def test_gather_rows_mixed_selects_per_row():
    t = ng.Tape()
    a = t.leaf(np.ones((2, 2)) * 10)
    b = t.leaf(np.ones((2, 2)) * 20)
    out = ng.gather_rows_mixed(a, b, [0, 1, 0], [False, True, True])
    assert np.array_equal(out.value, [[10, 10], [20, 20], [20, 20]])
    ng.backward(t, ng.sum_all(out))
    assert np.array_equal(a.grad, [[1, 1], [0, 0]])
    assert np.array_equal(b.grad, [[1, 1], [1, 1]])


def test_weighted_segment_sum_matches_manual():
    rng = np.random.default_rng(11)
    v_val = rng.uniform(-2, 2, (5, 3))
    w_val = rng.uniform(-2, 2, (5, 1))
    seg = np.array([0, 1, 1, 0, 2])

    t = ng.Tape()
    v = t.leaf(v_val)
    w = t.leaf(w_val)
    out = ng.weighted_segment_sum(v, w, seg, 3)
    manual = np.zeros((3, 3))
    for k in range(5):
        manual[seg[k]] += w_val[k, 0] * v_val[k]
    assert np.allclose(out.value, manual, atol=1e-14)

    ng.backward(t, ng.sum_all(out))
    fd_v = finite_diff(
        lambda: _wss_loss(v_val, w_val, seg), v_val)
    fd_w = finite_diff(
        lambda: _wss_loss(v_val, w_val, seg), w_val)
    assert rel_err(v.grad, fd_v) < 1e-6
    assert rel_err(w.grad, fd_w) < 1e-6


def _wss_loss(v_val, w_val, seg):
    t = ng.Tape()
    out = ng.weighted_segment_sum(t.leaf(v_val), t.leaf(w_val), seg, 3)
    return ng.sum_all(out).value[0, 0]


# ---------------------------------------------------------------------------
# property: every differentiable primitive vs central differences

PRIMS = ["add", "sub", "scale", "elu", "leaky_relu", "abs",
         "add_rowvec", "matmul", "concat", "gather", "segment_softmax"]


def _build_prim(kind, t, xs):
    if kind == "add":
        return ng.add(xs[0], xs[1])
    if kind == "sub":
        return ng.sub(xs[0], xs[1])
    if kind == "scale":
        return ng.scale(xs[0], 1.7)
    if kind == "elu":
        return ng.elu(xs[0])
    if kind == "leaky_relu":
        return ng.leaky_relu(xs[0], alpha=0.2)
    if kind == "abs":
        return ng.absolute(xs[0])
    if kind == "add_rowvec":
        return ng.add_rowvec(xs[0], xs[2])
    if kind == "matmul":
        return ng.matmul(xs[0], xs[3])
    if kind == "concat":
        return ng.concat_cols([xs[0], xs[1]])
    if kind == "gather":
        return ng.gather_rows(xs[0], [1, 0, 1, 2])
    if kind == "segment_softmax":
        return ng.segment_softmax(xs[4], [0, 0, 1, 1, 1], 2)
    raise AssertionError(kind)


@pytest.mark.parametrize("kind", PRIMS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_primitive_gradients_match_finite_differences(kind, seed):
    rng = np.random.default_rng(seed)
    vals = [rng.uniform(-2, 2, (3, 4)), rng.uniform(-2, 2, (3, 4)),
            rng.uniform(-2, 2, (1, 4)), rng.uniform(-2, 2, (4, 2)),
            rng.uniform(-2, 2, (5, 1))]
    if kind == "abs":
        # keep entries away from the |x| kink where FD is meaningless
        vals[0] = np.where(np.abs(vals[0]) < 0.05, 0.5, vals[0])
    mix = np.sin(1 + np.arange(60)).reshape(-1)  # fixed non-uniform weights

    def run():
        t = ng.Tape()
        xs = [t.leaf(v) for v in vals]
        out = _build_prim(kind, t, xs)
        w = mix[: out.value.size].reshape(out.value.shape)
        return t, xs, ng.sum_all(ng.mul_array(out, w))

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
    state = ng.adam_init(params)
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
    state = ng.adam_init(params)
    with pytest.raises(ng.ShapeError):
        ng.adam_step(params, {"p": np.zeros((2, 3))}, state)


# ---------------------------------------------------------------------------
# grad_check harness


def _linear_model(params):
    t = ng.Tape()
    w = t.leaf(params["w"])
    x = t.leaf(np.arange(6.0).reshape(2, 3) / 3.0)
    loss = ng.sum_all(ng.matmul(x, w))
    ng.backward(t, loss)
    return loss.value[0, 0], {"w": w.grad}


def test_grad_check_linear_model_exact():
    report = ng.grad_check(_linear_model, {"w": np.random.default_rng(1).uniform(-1, 1, (3, 2))})
    assert report["w"] < 1e-9


def _mlp_model(params):
    t = ng.Tape()
    w1 = t.leaf(params["w1"])
    b1 = t.leaf(params["b1"])
    w2 = t.leaf(params["w2"])
    x = t.leaf(np.sin(np.arange(8.0)).reshape(2, 4))
    h = ng.elu(ng.add_rowvec(ng.matmul(x, w1), b1))
    loss = ng.sum_all(ng.elu(ng.matmul(h, w2)))
    ng.backward(t, loss)
    return loss.value[0, 0], {"w1": w1.grad, "b1": b1.grad, "w2": w2.grad}


def test_grad_check_two_layer_elu_mlp():
    rng = np.random.default_rng(5)
    params = {"w1": rng.uniform(-1, 1, (4, 3)), "b1": rng.uniform(-1, 1, (1, 3)),
              "w2": rng.uniform(-1, 1, (3, 1))}
    report = ng.grad_check(_mlp_model, params)
    assert max(report.values()) < 1e-5


def test_grad_check_reports_nonfinite_loss():
    def bad(params):
        return float("nan"), {"w": np.zeros((1, 1))}

    with pytest.raises(ng.NumericError):
        ng.grad_check(bad, {"w": np.zeros((1, 1))})
