"""Finite-difference gradient checking for the tests.

Central differences over every parameter entry, compared with the tape's
analytic gradients as a max relative error per parameter.
"""

import math

import numpy as np


class NumericError(ArithmeticError):
    """A gradient check met a non-finite loss."""


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
