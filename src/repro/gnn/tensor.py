"""Minimal reverse-mode autograd over NumPy with a simulated device clock.

This is the reproduction's stand-in for PyTorch: GNN layers are built
from :class:`Tensor` operations whose numeric semantics run in NumPy and
whose *device time* is charged to a :class:`repro.gnn.device.SimDevice`
ledger — forward and backward — so training profiles decompose the same
way the paper's PyTorch-profiler numbers do.

The op set is exactly what GCN/GraphSAGE training needs: matmul, bias
add, relu, dropout, log_softmax, masked NLL loss, concat, plus the graph
aggregation op defined in :mod:`repro.gnn.aggregate`.

**Graph nodes hold no activations.**  The autograd graph is made of
:class:`Node` objects, not tensors.  A node holds the gradient,
``requires_grad``, its parent nodes, the backward closure and the shape;
a :class:`Tensor` holds ``data`` (and the optional CSR) plus its node.
Each op's closure captures its inputs' nodes and only the arrays its
backward reads (like the tensors a PyTorch ``autograd.Function`` saves):
relu its mask, dropout its keep mask, max aggregation its argmax,
log_softmax its own output, matmul the operands of the products it
differentiates, sum aggregation the graph; bias add, concat and the loss
keep sizes only.  So an intermediate's array dies as soon as the caller drops
the tensor, not when ``backward()`` reaches it, and an eval forward
holds no graph's worth of activations.  ``Tensor.grad``,
``requires_grad``, ``_parents`` and ``_backward`` read the node, and
``_backward`` also writes it.

A node built with no backward closure is a leaf (parameters, inputs);
every other node is a graph node.  :meth:`Tensor.backward` frees the
graph as it goes, like PyTorch with ``retain_graph=False``: it pops each
node off the topological order and, once the node's closure has run,
drops its gradient, parents and closure, so what the closure saved dies
with it.  A second ``backward()`` that reaches a released node raises
``RuntimeError``.  Leaves keep their ``.grad``.

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

from typing import Callable, List, Optional, Set, Tuple

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = ["Node", "Tensor", "Parameter"]

Closure = Callable[[np.ndarray], None]


def _released(grad: np.ndarray) -> None:
    """Closure of a node whose graph an earlier ``backward()`` freed."""
    raise RuntimeError(
        "backward() through a node whose graph was already freed by an earlier backward()"
    )


class Node:
    """One vertex of the autograd graph: a tensor's gradient state
    without its data."""

    __slots__ = ("grad", "requires_grad", "parents", "closure", "shape")

    def __init__(self, shape: Tuple[int, ...], requires_grad: bool,
                 parents: List["Node"], closure: Optional[Closure]):
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self.parents = parents
        self.closure = closure
        self.shape = shape

    def accumulate_grad(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add ``g`` into ``.grad``.  ``fresh`` means the caller has just
        computed ``g`` and holds it nowhere else, so a first gradient is
        kept as is instead of copied (the backward closures' products)."""
        g = np.asarray(g, dtype=np.float32)
        if g.shape != self.shape:
            raise ValueError(f"gradient shape {g.shape} != tensor shape {self.shape}")
        if self.grad is None:
            self.grad = g if fresh else g.copy()
        else:
            self.grad += g

    def backward(self, grad: np.ndarray) -> None:
        """Reverse-mode accumulation from this node, freeing each
        non-leaf node once its closure has run."""
        self.accumulate_grad(grad)

        # Post-order DFS with an explicit stack, in the order a recursive
        # visit takes.  No self-referencing closure, so reference counting
        # frees each node once it is popped and released below.
        topo: List[Node] = []
        seen: Set[int] = {id(self)}
        stack = [(self, iter(self.parents))]
        while stack:
            node, parents = stack[-1]
            for p in parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p.parents)))
                    break
            else:
                stack.pop()
                topo.append(node)
        while topo:
            node = topo.pop()
            if node.closure is None:  # a leaf keeps its gradient
                continue
            if node.grad is not None:
                node.closure(node.grad)
            node.grad = None
            node.parents = []
            node.closure = _released


class Tensor:
    """A float32 array with optional gradient tracking (through its
    :class:`Node`)."""

    __slots__ = ("data", "name", "csr", "csr_t", "node")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: Optional[List["Tensor"]] = None,
        backward: Optional[Closure] = None,
        name: str = "",
        csr: Optional[CSRMatrix] = None,
        csr_t: Optional[CSRMatrix] = None,
    ):
        self.data = np.asarray(data, dtype=np.float32)
        self.node = Node(self.data.shape, requires_grad,
                         [p.node for p in parents or ()], backward)
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
    # Gradient state lives on the node.  ``_backward`` is settable so a
    # caller can wrap a closure (a profiler timing the backward).
    @property
    def grad(self) -> Optional[np.ndarray]:
        return self.node.grad

    @property
    def requires_grad(self) -> bool:
        return self.node.requires_grad

    @property
    def _parents(self) -> List[Node]:
        return self.node.parents

    @property
    def _backward(self) -> Optional[Closure]:
        return self.node.closure

    @_backward.setter
    def _backward(self, value: Optional[Closure]) -> None:
        self.node.closure = value

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
        self.node.accumulate_grad(g, fresh)

    def zero_grad(self) -> None:
        self.node.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Reverse-mode accumulation through the recorded graph (see
        :meth:`Node.backward`)."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without gradient requires a scalar output")
            grad = np.ones_like(self.data)
        self.node.backward(grad)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad}{tag})"


class Parameter(Tensor):
    """A trainable tensor (always requires grad)."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


def glorot(shape, rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    fan_in, fan_out = shape[0], shape[-1]
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)
