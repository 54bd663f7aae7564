"""Minimal reverse-mode autograd over NumPy with a simulated device clock.

This is the reproduction's stand-in for PyTorch: GNN layers are built
from :class:`Tensor` operations whose numeric semantics run in NumPy and
whose *device time* is charged to a :class:`repro.gnn.device.SimDevice`
ledger — forward and backward — so training profiles decompose the same
way the paper's PyTorch-profiler numbers do.

The op set is exactly what GCN/GraphSAGE training needs: matmul, bias
add, relu, dropout, log_softmax, masked NLL loss, concat, plus the graph
aggregation op defined in :mod:`repro.gnn.aggregate`.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

import numpy as np

from repro.gnn.device import SimDevice

__all__ = ["Tensor", "Parameter", "no_grad_context"]


class Tensor:
    """A float32 array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: Optional[List["Tensor"]] = None,
        backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents or []
        self._backward = backward
        self.name = name

    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def accumulate_grad(self, g: np.ndarray) -> None:
        g = np.asarray(g, dtype=np.float32)
        if g.shape != self.data.shape:
            raise ValueError(f"gradient shape {g.shape} != tensor shape {self.data.shape}")
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Reverse-mode accumulation through the recorded graph."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without gradient requires a scalar output")
            grad = np.ones_like(self.data)
        self.accumulate_grad(grad)

        # Post-order DFS with an explicit stack, in the order a recursive
        # visit takes.  No self-referencing closure: the graph is freed by
        # reference counting once the caller drops the output.
        topo: List[Tensor] = []
        seen: Set[int] = {id(self)}
        stack = [(self, iter(self._parents))]
        while stack:
            t, parents = stack[-1]
            for p in parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    break
            else:
                stack.pop()
                topo.append(t)
        for t in reversed(topo):
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad}{tag})"


class Parameter(Tensor):
    """A trainable tensor (always requires grad)."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class no_grad_context:
    """Marker context: callers pass ``training=False`` to functional ops
    instead; provided for API familiarity in examples."""

    def __enter__(self):  # pragma: no cover - convenience shim
        return self

    def __exit__(self, *exc):  # pragma: no cover
        return False


def glorot(shape, rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    fan_in, fan_out = shape[0], shape[-1]
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)
