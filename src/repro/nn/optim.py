"""Gradient-based optimizers for the neural-network substrate."""

from __future__ import annotations

import math

import numpy as np

from repro.nn.module import Parameter

# Elements per Adam block: six float64 blocks (parameter, gradient, two
# moments, two scratch buffers) of 128 KiB each stay in a core's L2 cache.
_BLOCK = 1 << 14


class Optimizer:
    """Base class: holds a parameter list and implements ``zero_grad``.

    ``step()`` updates every ``param.data`` array in place, so any array that
    aliases a parameter sees the update.
    """

    def __init__(self, parameters: list[Parameter]):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, parameters: list[Parameter], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data -= self.lr * grad


def _rows_per_block(shape: tuple[int, ...]) -> int:
    """Leading-axis rows per Adam block for an at least 1-D ``shape``.

    A block holds about ``_BLOCK`` elements, or one row when a row is longer.
    """
    return max(1, _BLOCK // max(1, math.prod(shape[1:])))


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015) with L2 weight decay.

    The decay is coupled: ``weight_decay * θ`` is added to the gradient before
    the moment estimates (plain L2 regularisation, not AdamW's decoupled
    decay).

    :meth:`step` walks each parameter in row blocks of about ``_BLOCK``
    elements and runs the whole update on a block while it is in cache,
    writing through two persistent scratch buffers.  Each element goes through
    the same IEEE operations, in the same order, as the textbook expression
    ``θ - lr * (m / b1) / (sqrt(v / b2) + eps)``; element-wise arithmetic does
    not depend on blocking or layout, so the result is bit for bit the same.
    """

    def __init__(self, parameters: list[Parameter], lr: float = 0.001,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        shapes = [np.atleast_1d(p.data).shape for p in self.parameters]
        block = max(min(shape[0], _rows_per_block(shape)) * math.prod(shape[1:])
                    for shape in shapes)
        self._scratch = np.empty((2, block))

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            arrays = np.atleast_1d(param.data, param.grad, m, v)
            rows = _rows_per_block(arrays[0].shape)
            for start in range(0, len(arrays[0]), rows):
                self._update_block(*(a[start:start + rows] for a in arrays), bias1, bias2)

    def _update_block(self, theta: np.ndarray, grad: np.ndarray, m: np.ndarray,
                      v: np.ndarray, bias1: float, bias2: float) -> None:
        """The textbook Adam update of one block, in place, operation by operation."""
        first, second = (buffer[:theta.size].reshape(theta.shape) for buffer in self._scratch)
        if self.weight_decay:
            grad = np.add(grad, np.multiply(self.weight_decay, theta, out=first), out=first)
        m *= self.beta1
        m += np.multiply(1.0 - self.beta1, grad, out=second)
        v *= self.beta2
        v += np.multiply(1.0 - self.beta2, np.square(grad, out=second), out=second)
        denom = np.add(np.sqrt(np.divide(v, bias2, out=second), out=second), self.eps,
                       out=second)
        step = np.multiply(self.lr, np.divide(m, bias1, out=first), out=first)
        theta -= np.divide(step, denom, out=first)


def clip_gradients(parameters: list[Parameter], max_norm: float) -> float:
    """Clip the global L2 norm of all parameter gradients to ``max_norm``.

    Returns the pre-clipping global norm.  Parameters whose gradient is
    ``None`` are ignored.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(sum(np.sum(g ** 2) for g in grads)))
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for param in parameters:
            if param.grad is not None:
                param.grad = param.grad * scale
    return total
