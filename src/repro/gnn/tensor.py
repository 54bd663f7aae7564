"""Minimal reverse-mode autograd over NumPy with a simulated device clock.

This is the reproduction's stand-in for PyTorch: GNN layers are built
from :class:`Tensor` operations whose numeric semantics run in NumPy and
whose *device time* is charged to a :class:`repro.gnn.device.SimDevice`
ledger — forward and backward — so training profiles decompose the same
way the paper's PyTorch-profiler numbers do.

The op set is exactly what GCN/GraphSAGE training needs: matmul, bias
add, relu, dropout, log_softmax, masked NLL loss, concat, plus the graph
aggregation op defined in :mod:`repro.gnn.aggregate`.

A tensor built with no backward closure is a leaf (parameters, inputs);
every other tensor is a graph node.  :meth:`Tensor.backward` frees the
graph as it goes, like PyTorch with ``retain_graph=False``: it pops each
node off the topological order and, once the node's closure has run,
drops its gradient, parents and closure.  An intermediate therefore
dies as soon as it has passed its gradient on (unless the caller still
holds it), not when ``backward()`` returns, and a second ``backward()``
that reaches a released node raises ``RuntimeError``.  Leaves keep
their ``.grad``.

**Sparse operand.**  A leaf that does not require grad may also carry
the CSR form of its data and that CSR's transpose (``csr``/``csr_t``):
the citation twins' bag-of-words input features, 2.8-2.9% dense.  The
dense ``.data`` stays, so every op reads the tensor as before and
:attr:`Tensor.size` still counts M·F; only
:func:`repro.gnn.functional.matmul` looks at ``csr`` and multiplies the
sparse form.  The tensor's type decides, not a flag: a CSR on a tensor
that requires grad or has a backward closure raises ``ValueError``,
because nothing would compute its (dense) gradient.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = ["Tensor", "Parameter", "no_grad_context"]


def _released(grad: np.ndarray) -> None:
    """Closure of a node whose graph an earlier ``backward()`` freed."""
    raise RuntimeError(
        "backward() through a node whose graph was already freed by an earlier backward()"
    )


class Tensor:
    """A float32 array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name",
                 "csr", "csr_t")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: Optional[List["Tensor"]] = None,
        backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
        csr: Optional[CSRMatrix] = None,
        csr_t: Optional[CSRMatrix] = None,
    ):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents or []
        self._backward = backward
        self.name = name
        if csr is not None or csr_t is not None:
            if self.requires_grad or backward is not None:
                raise ValueError("only a leaf that does not require grad may carry a CSR")
            if csr is None or csr_t is None:
                raise ValueError("csr and csr_t come together")
            if csr.shape != self.data.shape or csr_t.shape != self.data.shape[::-1]:
                raise ValueError(
                    f"CSR shapes {csr.shape}/{csr_t.shape} do not match data {self.data.shape}"
                )
        #: sparse form of ``data`` and its transpose (see the module docstring)
        self.csr = csr
        self.csr_t = csr_t

    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def accumulate_grad(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add ``g`` into ``.grad``.  ``fresh`` means the caller has just
        computed ``g`` and holds it nowhere else, so a first gradient is
        kept as is instead of copied (the backward closures' products)."""
        g = np.asarray(g, dtype=np.float32)
        if g.shape != self.data.shape:
            raise ValueError(f"gradient shape {g.shape} != tensor shape {self.data.shape}")
        if self.grad is None:
            self.grad = g if fresh else g.copy()
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Reverse-mode accumulation through the recorded graph, freeing
        each non-leaf node once its closure has run."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without gradient requires a scalar output")
            grad = np.ones_like(self.data)
        self.accumulate_grad(grad)

        # Post-order DFS with an explicit stack, in the order a recursive
        # visit takes.  No self-referencing closure, so reference counting
        # frees each node once it is popped and released below (unless
        # the caller still holds it).
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
        while topo:
            t = topo.pop()
            if t._backward is None:  # a leaf keeps its gradient
                continue
            if t.grad is not None:
                t._backward(t.grad)
            t.grad = None
            t._parents = []
            t._backward = _released

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
