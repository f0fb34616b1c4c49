"""What the two searches over a CNOT list share: the estimator and the
queue that scores their leaves.

The relabel search (:func:`~qlayout.relabel.global_adjust`) and the
lookahead router (:func:`~qlayout.routing.route_circuit`) both read the
CNOTs as the input's (control, target) pairs through a dense permutation
``perm[q]``, and both rank what they leave behind by :func:`estimate_cost`
of its residue: the intermediate-vertex counts, distance - 1, of the CNOTs
still illegal from a start index on (:func:`residual_intermediates`).  The
router finds its next illegal CNOT with :func:`first_illegal`; the relabel
search runs the same scan inside its own loop, where one call per node
would cost more than the scan.

Each leaf scores its whole residue, but not one at a time.  Neither search
reads a cost while it runs, so the leaves are queued in exploration order
and scored in blocks (:class:`Leaves`), and the first cheapest one wins,
as if each had been scored when it was reached.  The queue owns the span a
leaf scores, from its start to the end of the list, and counts the leaf x
CNOT elements it holds.  A block large enough to pay for it is scored with
numpy (:meth:`Leaves.score`): one gather of distances less 1, the
intermediate-vertex counts, over every leaf and CNOT, and an exact integer
sum per leaf, so the estimates, and with them the decisions, are the same
bits as leaf by leaf.
"""
from __future__ import annotations

from functools import cached_property
from itertools import islice
from typing import Any, Sequence

import numpy as np

from .coupling import CouplingGraph, DisconnectedGraphError
from .ir import price

#: flat accounting cost of one SWAP: 3 CNOTs + 4 direction-fix H
SWAP_COST = price(3, 4)


def estimate_cost(intermediate_counts: Sequence[int]) -> float:
    """Discounted SWAP-cost estimate for a list of illegal CNOTs.

    With n entries, the i-th (1-based) contributes
    ((n - i) / n)^2 * m_i * 34 where m_i is its intermediate-vertex count:
    later repairs are increasingly perturbed by earlier ones, so their
    estimates are damped, down to zero weight for the last entry.

    The sum is exact: 34 * sum((n - i)^2 * m_i) in integers, then one
    correctly rounded division by n^2.  The result does not depend on the
    order of summation, so a vectorized sum (see :meth:`Leaves.score`)
    gives the same bits.
    """
    n = len(intermediate_counts)
    if n == 0:
        return 0.0
    total = 0
    k = n
    for m in intermediate_counts:
        k -= 1  # n - i for the i-th entry
        total += k * k * m
    return SWAP_COST * total / (n * n)


def first_illegal(cnots: Sequence[tuple[int, int]], graph: CouplingGraph,
                  start: int, perm: Sequence[int]) -> int:
    """Index of the first CNOT at or after ``start`` that is not an edge of
    the undirected view, each qubit q read as ``perm[q]``; -1 if none."""
    dist = graph.distances
    for i in range(start, len(cnots)):
        c, t = cnots[i]
        if dist[perm[c]][perm[t]] != 1:
            return i
    return -1


def residual_intermediates(cnots: Sequence[tuple[int, int]], graph: CouplingGraph,
                           start: int, perm: Sequence[int]) -> list[int]:
    """Intermediate-vertex counts, distance - 1, of the illegal CNOTs at or
    after ``start``, in order, each qubit q read as ``perm[q]``.  A CNOT is
    illegal exactly when its distance is not 1, and -2 marks a pair in two
    components."""
    dist = graph.distances
    counts = [d - 1 for c, t in islice(cnots, start, None) if (d := dist[perm[c]][perm[t]]) != 1]
    if not graph.is_connected and -2 in counts:
        raise DisconnectedGraphError("no path between the qubits of an illegal CNOT")
    return counts


#: leaf x CNOT elements a queue lets wait before it scores its leaves: on
#: the relabel search's large blocks, fewer and larger ones cost fewer numpy
#: calls per leaf; the router's blocks are flushed by :meth:`Leaves.take`
#: long before they reach it
_BLOCK_ELEMENTS = 8192

#: leaves a queue lets wait before it scores them, however few elements
#: they hold: each holds a permutation as wide as the graph
_BLOCK_LEAVES = 256

#: smallest block scored with numpy: below it, the fixed cost of the numpy
#: calls exceeds that of scoring each leaf in Python
_NUMPY_MIN_ELEMENTS = 128


class Leaves:
    """The leaves of a search over ``cnots``, scored in blocks.

    A leaf is (perm, start, base, tag): a dense permutation, the index of
    its first CNOT still to score, a base cost and a tag; its cost is the
    base plus the estimate of its residue, ``cnots[start:]``.  A search
    queues its leaves with :meth:`add` in exploration order; the queue
    counts the leaf x CNOT elements they hold, ``len(cnots) - start`` each,
    and once :data:`_BLOCK_ELEMENTS` of them or :data:`_BLOCK_LEAVES` leaves
    wait, it scores them together (:meth:`flush`).  The leaf bound is what
    bounds its memory: a legal terminal holds no element but a whole
    permutation.  :meth:`take` flushes the rest and returns the first leaf
    of least cost, as a search that scored each leaf when it reached it
    would keep, and starts over for the next search on the same CNOTs.
    """

    def __init__(self, cnots: Sequence[tuple[int, int]], graph: CouplingGraph):
        self.cnots, self.graph, self.size = cnots, graph, len(cnots)
        self.pending: list[tuple[Sequence[int], int, float, Any]] = []
        self.elements = 0
        self.best: tuple[float, Any] = (float("inf"), None)

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Controls and targets of the CNOTs as two index arrays."""
        pairs = np.array(self.cnots, dtype=np.intp).reshape(self.size, 2)
        return pairs[:, 0], pairs[:, 1]

    @cached_property
    def gaps(self) -> np.ndarray:
        """The graph's distances less 1: 0 on an edge, the intermediate-vertex
        count off it, -2 across components."""
        return self.graph.distance_array - 1

    @cached_property
    def index(self) -> np.ndarray:
        """The CNOT indices, ``arange(len(cnots))``."""
        return np.arange(self.size)

    def add(self, perm: Sequence[int], start: int, base: float, tag: Any) -> None:
        """Queue the leaf (perm, start, base, tag), and score the queue once
        it holds a block."""
        self.pending.append((perm, start, base, tag))
        self.elements += self.size - start
        if self.elements >= _BLOCK_ELEMENTS or len(self.pending) >= _BLOCK_LEAVES:
            self.flush()

    def flush(self) -> None:
        """Score the pending leaves, keep the first cheapest so far and empty
        the queue."""
        pending = self.pending
        best_cost, best_tag = self.best
        for (_, _, base, tag), estimate in zip(pending, self.score(pending, self.elements)):
            cost = base + estimate
            if cost < best_cost:
                best_cost, best_tag = cost, tag
        self.best = (best_cost, best_tag)
        pending.clear()
        self.elements = 0

    def take(self) -> tuple[float, Any]:
        """(cost, tag) of the first cheapest leaf since the last take."""
        self.flush()
        best, self.best = self.best, (float("inf"), None)
        return best

    def score(self, block: Sequence[tuple[Sequence[int], int, float, Any]],
              elements: int) -> list[float]:
        """``estimate_cost(residual_intermediates(cnots, graph, start, perm))``
        for each leaf of ``block``, bit for bit; the leaves hold ``elements``
        leaf x CNOT elements.

        A large block gathers :attr:`gaps` for every leaf over the CNOTs from
        the smallest start on, zeroes those before each leaf's own start
        (they may be illegal under its permutation; there are none when all
        starts are equal), and ranks the illegal ones by a running count.
        The weighted sum is exact in int64, so the one division per leaf
        rounds as in :func:`estimate_cost`.
        """
        cnots, graph, size = self.cnots, self.graph, self.size
        # size^3 * num_qubits bounds the weighted sum, which must fit in int64
        if elements < _NUMPY_MIN_ELEMENTS or size ** 3 * graph.num_qubits >= 2 ** 63:
            return [estimate_cost(residual_intermediates(cnots, graph, start, perm))
                    if start < size else 0.0 for perm, start, _, _ in block]
        starts = [leaf[1] for leaf in block]
        first = min(starts)
        controls, targets = self.columns
        perms = np.array([leaf[0] for leaf in block], dtype=np.intp)
        # each CNOT's wire pair under each permutation, as a flat index of gaps
        pairs = perms.take(controls[first:], axis=1)
        pairs *= graph.num_qubits
        pairs += perms.take(targets[first:], axis=1)
        gap = self.gaps.take(pairs)
        if max(starts) > first:
            gap[self.index[first:] < np.array(starts)[:, None]] = 0
        if not graph.is_connected and (gap < 0).any():
            raise DisconnectedGraphError("no path between the qubits of an illegal CNOT")
        rank = np.add.accumulate(gap != 0, axis=1, dtype=np.int64)
        counts = rank[:, -1:].copy()
        rank -= counts
        rank *= rank
        total = np.einsum("ij,ij->i", rank, gap)
        return [SWAP_COST * t / (k * k) if k else 0.0
                for t, k in zip(total.tolist(), counts[:, 0].tolist())]
