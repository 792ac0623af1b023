"""The Adam optimiser and the gradient-state primitives of the training step.

Embedding tables receive their gradients as sparse ``(row_indices, rows)``
contributions (see :meth:`repro.nn.tensor.Tensor.gather_rows`), and Adam
consumes them without ever densifying into a full-vocabulary buffer.  The
sparse update is *exactly* equivalent to the dense one: a row whose Adam
state is all-zero and whose gradient is zero would receive a zero update,
so only rows that have ever been touched need to be visited.  Rows
touched at least once keep decaying momentum like the dense update would, so
float64 trajectories are bit-identical to the historical dense behaviour.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.nn.tensor import Tensor

#: One parameter's gradient state: ``(dense_grad, sparse_row_contributions)``.
#: Either half may be ``None``; see :func:`capture_gradients`.
GradientState = tuple[Optional[np.ndarray], Optional[list]]


def capture_gradients(parameters: Sequence[Tensor]) -> list[GradientState]:
    """Detach and return every parameter's accumulated gradient state.

    After the call all parameters hold no gradient, so a subsequent backward
    pass accumulates into fresh buffers.  This is the primitive behind the
    trainer's per-graph gradient decomposition: ``Trainer.graph_contributions``
    runs each graph's backward in isolation between two captures, in-process
    or in a forked worker, and ``Trainer._step`` sums the contributions in
    graph order.  That order does not depend on how the graphs are spread
    over worker processes, which is what makes ``workers=N`` replay
    ``workers=1`` bit-for-bit.
    """
    captured: list[GradientState] = []
    for parameter in parameters:
        captured.append((parameter._grad, parameter.grad_rows))
        parameter._grad = None
        parameter.grad_rows = None
    return captured


def restore_gradients(parameters: Sequence[Tensor], state: Sequence[GradientState]) -> None:
    """Reinstate gradient state previously taken by :func:`capture_gradients`."""
    for parameter, (grad, rows) in zip(parameters, state):
        parameter._grad = grad
        parameter.grad_rows = rows


def accumulate_gradients(parameters: Sequence[Tensor], contribution: Sequence[GradientState]) -> None:
    """Add one captured contribution onto the parameters' gradients.

    Dense parts are summed element-wise (the first contribution is adopted,
    later ones added in call order — the associativity that defines the
    decomposed numerics); sparse row contributions are appended in order, so
    :meth:`~repro.nn.tensor.Tensor.coalesce_grad_rows` later reduces them in
    the same sequence a serial accumulation would have recorded.
    """
    for parameter, (grad, rows) in zip(parameters, contribution):
        if grad is not None:
            if parameter._grad is None:
                parameter._grad = grad
            else:
                parameter._grad += grad
        if rows:
            if parameter.grad_rows is None:
                parameter.grad_rows = []
            parameter.grad_rows.extend(rows)


class Adam:
    """Adam optimiser (Kingma & Ba), the default for all experiments."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        self.parameters = [p for p in parameters if p.requires_grad]
        if not self.parameters:
            raise ValueError("optimizer received no trainable parameters")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        #: Rows of each parameter whose Adam state is (possibly) non-zero.
        #: ``None`` until the parameter first receives a sparse gradient.
        self._active_rows: list[Optional[np.ndarray]] = [None for _ in self.parameters]

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def clip_gradients(self, max_norm: float) -> float:
        """Scale all gradients so their global L2 norm is at most ``max_norm``.

        Returns the pre-clipping norm, which the trainer logs to spot
        divergence early.  Sparse row gradients participate in the norm and
        the scaling without being densified; a parameter that somehow holds
        both a dense and a sparse gradient is merged first so overlapping
        rows are not double-counted.
        """
        total = 0.0
        for parameter in self.parameters:
            if parameter._grad is not None and parameter.grad_rows:
                parameter.densify_grad()
            if parameter._grad is not None:
                total += float((parameter._grad**2).sum())
            else:
                sparse = parameter.coalesce_grad_rows()
                if sparse is not None:
                    total += float((sparse[1] ** 2).sum())
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for parameter in self.parameters:
                if parameter._grad is not None:
                    parameter._grad *= scale
                elif parameter.grad_rows:
                    parameter.grad_rows[0][1][...] *= scale
        return norm

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for slot, (parameter, m, v) in enumerate(zip(self.parameters, self._m, self._v)):
            if parameter.grad_rows and parameter._grad is not None:
                # Mixed dense+sparse usage: fall back to the dense update.
                parameter.densify_grad()
            if parameter._grad is None and parameter.grad_rows:
                self._sparse_step(slot, parameter, m, v, bias1, bias2)
                continue
            if parameter._grad is None:
                # No gradient at all this step: skip, like the dense update.
                continue
            if self._active_rows[slot] is not None:
                # The parameter switched to dense gradients: from here on all
                # rows may carry state, so stop tracking the active subset.
                self._active_rows[slot] = None
            grad = parameter._grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            parameter.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def _sparse_step(
        self,
        slot: int,
        parameter: Tensor,
        m: np.ndarray,
        v: np.ndarray,
        bias1: float,
        bias2: float,
    ) -> None:
        indices, rows = parameter.coalesce_grad_rows()
        active = self._active_rows[slot]
        if active is None:
            active = np.zeros(parameter.data.shape[0], dtype=bool)
            # If the parameter ever received dense gradients before, any row
            # may hold state; seed the active set from the stored moments.
            if self._step_count > 1:
                nonzero = (m != 0).any(axis=tuple(range(1, m.ndim))) if m.ndim > 1 else m != 0
                active |= nonzero
        active[indices] = True
        self._active_rows[slot] = active
        rows_to_update = np.flatnonzero(active)
        if rows_to_update.size > parameter.data.shape[0] // 2:
            # Most rows carry state: the vectorised full-table update is
            # cheaper than fancy-indexed row updates (and identical in value).
            m *= self.beta1
            m[indices] += (1.0 - self.beta1) * rows
            v *= self.beta2
            v[indices] += (1.0 - self.beta2) * rows**2
            parameter.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            return
        m[rows_to_update] *= self.beta1
        m[indices] += (1.0 - self.beta1) * rows
        v[rows_to_update] *= self.beta2
        v[indices] += (1.0 - self.beta2) * rows**2
        m_hat = m[rows_to_update] / bias1
        v_hat = v[rows_to_update] / bias2
        parameter.data[rows_to_update] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
