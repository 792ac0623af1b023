"""Data-parallel epoch execution over forked worker processes.

``TrainingConfig.workers`` splits every batch's graphs across N forked
workers.  The team is only transport.  Each worker encodes its share of the
batch through the :class:`~repro.core.trainer.BatchPlan` it inherited by
fork and, after the parent has run the loss, backpropagates those graphs
through :meth:`~repro.core.trainer.Trainer.graph_contributions`, the
isolated per-graph backward the serial trainer runs in-process.  The parent
hands the contributions to :meth:`~repro.core.trainer.Trainer._step` in
graph order, so ``workers=N`` runs the serial step's arithmetic in the
serial order and replays ``workers=1`` bit-for-bit in any dtype.

A graph goes to the same worker in every epoch, so with a resident plan each
worker keeps the batches of its own graphs in its forked copy of the plan and
the parent's copy stays empty; a streaming (lazy) plan keeps nothing.

Data flows through shared memory wherever it is dense:

* model parameters are re-homed into ``RawArray``-backed buffers before the
  fork, so the parent's in-place Adam updates are visible to every worker
  without any per-step broadcast;
* forward embeddings, the loss gradient w.r.t. them, and per-graph dense
  parameter contributions travel through preallocated shared buffers sized
  by ``max_symbols_per_batch`` / ``graphs_per_batch``.

Only the sparse row-wise embedding gradients (small, variable-shaped) and
control messages go over the pipes.  The protocol is lock-step per batch —
encode, ack, backward, gradients — so no locks are needed: pipe ordering is
the synchronisation.

Workers fork only where :func:`~repro.utils.cores.fork_context` allows
(``fork`` exists, no other thread runs); elsewhere, or where fork is denied,
the trainer runs the serial path, which computes identical numbers.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.nn.tensor import Tensor
from repro.utils.cores import fork_context


def _shared_view(context, shape: tuple, dtype) -> np.ndarray:
    """A numpy array backed by anonymous shared memory (inherited over fork)."""
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    nbytes = count * np.dtype(dtype).itemsize
    buffer = context.RawArray("b", max(1, nbytes))
    return np.frombuffer(buffer, dtype=dtype, count=count).reshape(shape)


def _rehome_parameters(context, parameters: Sequence[Tensor]) -> None:
    """Move every parameter's storage into shared memory, preserving values.

    Must run before the fork; afterwards the parent's in-place optimiser
    updates (`data -= ...`, `data[rows] -= ...`) are immediately visible in
    every worker.  Gradients stay process-local — only ``data`` is shared.
    """
    for parameter in parameters:
        data = np.ascontiguousarray(parameter.data)
        view = _shared_view(context, data.shape, data.dtype)
        view[...] = data
        parameter.data = view


@dataclass
class _WorkerState:
    """Everything a forked worker needs; inherited by fork, never pickled."""

    connection: object
    trainer: object
    plan: object
    embeddings: np.ndarray  # (max_symbols_per_batch, dim) shared, worker-written
    gradients: np.ndarray  # (max_symbols_per_batch, dim) shared, parent-written
    slots: np.ndarray  # (graphs_per_batch, total_dense) shared, worker-written
    offsets: np.ndarray  # flattened start offset of each parameter in a slot row


def _worker_main(state: _WorkerState) -> None:
    connection = state.connection
    trainer, plan = state.trainer, state.plan
    samples_by_graph = plan.split.samples_by_graph()
    assigned: list = []
    outputs: list = []
    try:
        while True:
            kind, body = connection.recv()
            if kind == "stop":
                return
            if kind == "encode":
                assigned, outputs = body, []
                for _, graph_index, count, row in assigned:
                    output = trainer.encoder(plan.graph_batch(graph_index, samples_by_graph[graph_index][:count]))
                    state.embeddings[row : row + count] = output.data
                    outputs.append(output)
                connection.send(("encoded", None))
            elif kind == "backward":
                seeds = [state.gradients[row : row + count] for _, _, count, row in assigned]
                payload = []
                for (position, _, _, _), contribution in zip(assigned, trainer.graph_contributions(outputs, seeds)):
                    dense_slots: list[int] = []
                    sparse: list[tuple] = []
                    for slot, (grad, grad_rows) in enumerate(contribution):
                        if grad is not None:
                            start = int(state.offsets[slot])
                            state.slots[position, start : start + grad.size] = np.ravel(grad)
                            dense_slots.append(slot)
                        if grad_rows:
                            sparse.append((slot, grad_rows))
                    payload.append((position, dense_slots, sparse))
                outputs = []
                connection.send(("grads", payload))
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown worker message {kind!r}")
    except (EOFError, KeyboardInterrupt):  # parent went away
        return
    except BaseException:
        try:
            connection.send(("error", traceback.format_exc()))
        except Exception:
            pass


class WorkerTeam:
    """Parent-side handle on the forked data-parallel workers."""

    def __init__(self, processes, connections, embeddings, gradients, slots, offsets, sizes) -> None:
        self._processes = processes
        self._connections = connections
        self.embeddings = embeddings
        self.gradients = gradients
        self.slots = slots
        self.offsets = offsets
        self.sizes = sizes

    @classmethod
    def start(cls, trainer, plan) -> Optional["WorkerTeam"]:
        """Fork the team, or return ``None`` where that is impossible.

        Mirrors the ingest pool's graceful degradation: where
        :func:`~repro.utils.cores.fork_context` refuses or the OS denies
        ``fork``, the serial path produces bit-identical results anyway.
        """
        config = trainer.config
        context = fork_context()
        if context is None:
            return None
        parameters = trainer.optimizer.parameters
        dtype = trainer.dtype
        dim = trainer.encoder.output_dim
        try:
            _rehome_parameters(context, parameters)
            embeddings = _shared_view(context, (config.max_symbols_per_batch, dim), dtype)
            gradients = _shared_view(context, (config.max_symbols_per_batch, dim), dtype)
            sizes = np.asarray([int(parameter.data.size) for parameter in parameters], dtype=np.int64)
            offsets = np.zeros(len(parameters) + 1, dtype=np.int64)
            np.cumsum(sizes, out=offsets[1:])
            slots = _shared_view(context, (config.graphs_per_batch, int(offsets[-1])), dtype)
        except (OSError, PermissionError):
            return None
        processes = []
        connections = []
        try:
            for _ in range(config.workers):
                parent_end, child_end = context.Pipe()
                state = _WorkerState(
                    connection=child_end,
                    trainer=trainer,
                    plan=plan,
                    embeddings=embeddings,
                    gradients=gradients,
                    slots=slots,
                    offsets=offsets,
                )
                process = context.Process(target=_worker_main, args=(state,), daemon=True)
                process.start()
                child_end.close()
                processes.append(process)
                connections.append(parent_end)
        except (OSError, PermissionError):
            for connection in connections:
                connection.close()
            for process in processes:
                if process.is_alive():
                    process.terminate()
                process.join(timeout=5)
            return None
        return cls(processes, connections, embeddings, gradients, slots, offsets, sizes)

    # -- per-batch protocol ------------------------------------------------------------

    def _expect(self, worker: int, kind: str):
        message = self._connections[worker].recv()
        if message[0] == "error":
            raise RuntimeError(f"training worker {worker} failed:\n{message[1]}")
        if message[0] != kind:  # pragma: no cover - defensive
            raise RuntimeError(f"worker {worker} sent {message[0]!r}, expected {kind!r}")
        return message[1]

    def run_batch(self, trainer, graph_indices, samples_per_graph) -> float:
        """One :meth:`~repro.core.trainer.Trainer._step` with each graph's
        forward and backward run by the worker it is assigned to."""
        nonempty = [(index, len(group)) for index, group in zip(graph_indices, samples_per_graph) if group]
        assignments: list[list] = [[] for _ in self._connections]
        row = 0
        for position, (graph_index, count) in enumerate(nonempty):
            assignments[position % len(assignments)].append((position, graph_index, count, row))
            row += count
        active = [worker for worker, assigned in enumerate(assignments) if assigned]
        for worker in active:
            self._connections[worker].send(("encode", assignments[worker]))
        for worker in active:
            self._expect(worker, "encoded")
        embeddings = Tensor(np.array(self.embeddings[:row]), requires_grad=True)
        contributions = self._contributions(trainer.optimizer.parameters, embeddings, active, len(nonempty))
        return trainer._step(embeddings, samples_per_graph, contributions)

    def _contributions(self, parameters, embeddings: Tensor, active: list[int], count: int):
        """Seed the workers' backwards and yield their contributions in graph order.

        A generator: its body runs once ``Trainer._step`` reads it, after the
        loss backward has left the seed gradient on ``embeddings``.
        """
        self.gradients[: embeddings.data.shape[0]] = embeddings._grad
        for worker in active:
            self._connections[worker].send(("backward", None))
        received: dict[int, tuple] = {}
        for worker in active:
            for position, dense_slots, sparse in self._expect(worker, "grads"):
                received[position] = (dense_slots, sparse)
        for position in range(count):
            dense_slots, sparse = received[position]
            contribution: list[list] = [[None, None] for _ in parameters]
            for slot in dense_slots:
                start = int(self.offsets[slot])
                flat = np.array(self.slots[position, start : start + int(self.sizes[slot])])
                contribution[slot][0] = flat.reshape(parameters[slot].data.shape)
            for slot, grad_rows in sparse:
                contribution[slot][1] = grad_rows
            yield [tuple(entry) for entry in contribution]

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        for connection in self._connections:
            try:
                connection.send(("stop", None))
            except (BrokenPipeError, OSError):
                pass
        for process, connection in zip(self._processes, self._connections):
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=5)
            connection.close()
        self._processes = []
        self._connections = []
