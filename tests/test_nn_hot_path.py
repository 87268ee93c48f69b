"""Equivalence tests for the tuned ``repro.nn`` training hot path.

``Adam.step`` runs a cache-blocked, in-place update and binary ops skip the
gradients of constant operands.  The textbook Adam expression below is the
reference the blocked update must equal bit for bit; the end-to-end SHA-256
pins live in ``test_nn_bitwise_pins.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Adam, Tensor
from repro.nn.module import Parameter
from repro.nn.optim import _BLOCK

LR, BETAS, EPS = 0.01, (0.9, 0.999), 1e-8


def _textbook_adam(thetas, grads_per_step, weight_decay):
    """Reference Adam: ``p - lr*(m/b1)/(sqrt(v/b2)+eps)`` on ``grad + wd*p``."""
    beta1, beta2 = BETAS
    thetas = [np.array(theta) for theta in thetas]
    ms = [np.zeros_like(theta) for theta in thetas]
    vs = [np.zeros_like(theta) for theta in thetas]
    for t, grads in enumerate(grads_per_step, start=1):
        bias1 = 1.0 - beta1 ** t
        bias2 = 1.0 - beta2 ** t
        for i, grad in enumerate(grads):
            if grad is None:
                continue
            if weight_decay:
                grad = grad + weight_decay * thetas[i]
            ms[i] = ms[i] * beta1 + (1.0 - beta1) * grad
            vs[i] = vs[i] * beta2 + (1.0 - beta2) * grad ** 2
            thetas[i] = thetas[i] - LR * (ms[i] / bias1) / (np.sqrt(vs[i] / bias2) + EPS)
    return thetas


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def _run_both(datas, grad_mask, weight_decay, steps=5):
    """Step ``Adam`` and the reference on the same random gradients."""
    rng = np.random.default_rng(0)
    params = [Parameter(data) for data in datas]
    originals = [param.data for param in params]
    expected_start = [np.array(param.data) for param in params]
    grads_per_step = [
        [rng.normal(size=param.data.shape) if grad_mask(i, t) else None
         for i, param in enumerate(params)]
        for t in range(steps)
    ]
    optimizer = Adam(params, lr=LR, betas=BETAS, eps=EPS, weight_decay=weight_decay)
    for grads in grads_per_step:
        for param, grad in zip(params, grads):
            param.grad = grad
        optimizer.step()
    expected = _textbook_adam(expected_start, grads_per_step, weight_decay)
    return params, originals, expected


@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
def test_blocked_adam_equals_textbook_bitwise(weight_decay):
    rng = np.random.default_rng(1)
    shapes = [
        (2879, 64),           # the encoder's first layer: not a multiple of the block
        (64,),                # a 1-D bias
        (2 * _BLOCK + 123,),  # a long 1-D parameter split into blocks
        (3, _BLOCK + 5),      # rows longer than a block
        (),                   # a scalar parameter
        (7, 3),               # its grad stays None on every step
    ]
    datas = [rng.normal(size=shape) for shape in shapes]
    params, originals, expected = _run_both(
        datas, lambda i, t: i != 5 and not (i == 1 and t == 2), weight_decay)
    for param, original, reference in zip(params, originals, expected):
        assert param.data is original, "step() must update param.data in place"
        assert _bits(param.data) == _bits(reference)
    assert _bits(params[5].data) == _bits(datas[5])


@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
def test_adam_updates_f_ordered_and_strided_parameters(weight_decay):
    rng = np.random.default_rng(2)
    f_ordered = np.asfortranarray(rng.normal(size=(300, 70)))
    base = rng.normal(size=(40, 2 * _BLOCK // 10))
    strided = base[::2, 1::3]
    assert not strided.flags.c_contiguous and not strided.flags.f_contiguous
    before = base.copy()
    params, originals, expected = _run_both(
        [f_ordered, strided], lambda i, t: True, weight_decay)
    for param, original, reference in zip(params, originals, expected):
        assert param.data is original
        assert _bits(param.data) == _bits(reference)
    # The strided parameter is a view: the update lands in its base array,
    # and only in the viewed elements.
    assert _bits(base[::2, 1::3]) == _bits(expected[1])
    untouched = np.ones(base.shape, dtype=bool)
    untouched[::2, 1::3] = False
    assert _bits(base[untouched]) == _bits(before[untouched])


# --------------------------------------------------------------------------- #
# dead gradients: a constant operand's gradient is never computed
# --------------------------------------------------------------------------- #
# Each case is built so that computing the constant's gradient overflows; under
# ``np.errstate(over="raise")`` that would raise, so the test fails if the dead
# product is ever evaluated.

def _backward_raising_on_overflow(out: Tensor, upstream: float) -> None:
    with np.errstate(over="raise"):
        out.backward(np.full(out.shape, upstream))


def test_matmul_skips_constant_input_gradient():
    x = Tensor(np.full((5, 3), 1e-300))
    w = Tensor(np.full((3, 4), 1e308), requires_grad=True)
    with np.errstate(over="raise"):
        out = x @ w
    _backward_raising_on_overflow(out, 1.0)   # grad @ w.T would be 4e308
    assert x.grad is None
    assert _bits(w.grad) == _bits(x.data.T @ np.ones((5, 4)))


def test_mul_skips_constant_operand_gradient():
    x = Tensor(np.full((3, 2), 1e-300))
    y = Tensor(np.full((3, 2), 1e300), requires_grad=True)
    for out in (x * y, y * x):
        y.zero_grad()
        _backward_raising_on_overflow(out, 1e10)   # grad * y would be 1e310
        assert x.grad is None
        assert _bits(y.grad) == _bits(np.full((3, 2), 1e10) * x.data)


def test_div_skips_constant_denominator_gradient():
    x = Tensor(np.full((3, 2), 2.0), requires_grad=True)
    y = Tensor(np.full((3, 2), 1e200))
    with np.errstate(over="raise"):
        out = x / y
    _backward_raising_on_overflow(out, 1.0)   # y ** 2 would be 1e400
    assert y.grad is None
    assert _bits(x.grad) == _bits(np.ones((3, 2)) / y.data)


def test_div_skips_constant_numerator_gradient():
    x = Tensor(np.full((3, 2), 1e-300))
    y = Tensor(np.full((3, 2), 1e-10), requires_grad=True)
    with np.errstate(over="raise"):
        out = x / y
    _backward_raising_on_overflow(out, 1e300)   # grad / y would be 1e310
    assert x.grad is None
    upstream = np.full((3, 2), 1e300)
    assert _bits(y.grad) == _bits(-upstream * x.data / (y.data ** 2))


def test_adopted_gradients_never_alias():
    """A fresh gradient is adopted as ``grad`` and later ones add into it;
    ``+`` hands one upstream array to both operands, so it must be copied,
    or accumulating into one operand's grad would leak into the other's."""
    rng = np.random.default_rng(3)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    x1, x2 = rng.normal(size=(5, 4)), rng.normal(size=(6, 4))
    ((Tensor(x1) @ w).sum() + (Tensor(x2) @ w).sum()).backward()
    assert _bits(w.grad) == _bits(x1.T @ np.ones((5, 3)) + x2.T @ np.ones((6, 3)))

    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    ((a + b) + a).sum().backward()
    assert _bits(a.grad) == _bits(np.full(3, 2.0))
    assert _bits(b.grad) == _bits(np.ones(3))
