"""Hardware layout as a coupling graph.

Edges are the CNOT pairs the hardware can execute.  A directed graph
restricts the control->target orientation; routing always works on the
undirected view and orientation is repaired afterwards by the direction
fixer.  Shortest paths break ties toward the lexicographically smallest
vertex sequence so every consumer is deterministic.
"""
from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


class DisconnectedGraphError(ValueError):
    """Raised when routing needs a path that does not exist."""


#: the four canonical layouts, by name
LAYOUTS = ("linear", "circle", "central", "neighbour")


@dataclass(frozen=True)
class CouplingGraph:
    """``num_qubits`` vertices and a set of (control, target) edges."""

    num_qubits: int
    edges: frozenset[tuple[int, int]]
    directed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset((int(a), int(b)) for a, b in self.edges))
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop at qubit {a}")
            if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
                raise ValueError(f"edge ({a},{b}) outside 0..{self.num_qubits - 1}")

    def _check_index(self, q: int) -> None:
        if not (0 <= q < self.num_qubits):
            raise IndexError(f"qubit {q} outside 0..{self.num_qubits - 1}")

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Sorted undirected adjacency lists, indexed by vertex."""
        adj: list[set[int]] = [set() for _ in range(self.num_qubits)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return tuple(tuple(sorted(s)) for s in adj)

    @cached_property
    def distances(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs BFS distances on the undirected view; -1 if unreachable."""
        rows = []
        for src in range(self.num_qubits):
            dist = [-1] * self.num_qubits
            dist[src] = 0
            queue = deque([src])
            while queue:
                u = queue.popleft()
                for v in self.neighbors[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        queue.append(v)
            rows.append(tuple(dist))
        return tuple(rows)

    @cached_property
    def adjacency_matrix(self) -> tuple[tuple[bool, ...], ...]:
        """n x n: whether a CNOT between the two qubits is legal in some
        orientation.  Unchecked table for hot loops; see :meth:`is_legal_cnot`."""
        rows = [[False] * self.num_qubits for _ in range(self.num_qubits)]
        for a, b in self.edges:
            rows[a][b] = rows[b][a] = True
        return tuple(tuple(row) for row in rows)

    @cached_property
    def intermediates_matrix(self) -> tuple[tuple[int, ...], ...]:
        """n x n: interior vertices on a shortest path, ``max(distance - 1, 0)``,
        or -1 where no path exists.  Unchecked table for hot loops."""
        return tuple(tuple(max(d - 1, 0) if d >= 0 else -1 for d in row)
                     for row in self.distances)

    @cached_property
    def intermediates_array(self) -> np.ndarray:
        """:attr:`intermediates_matrix` as an int64 array, for gathers over
        many qubit pairs at once: 0 on edges, at least 1 off them, -1
        across components."""
        return np.array(self.intermediates_matrix, dtype=np.int64).reshape(
            self.num_qubits, self.num_qubits)

    @cached_property
    def is_connected(self) -> bool:
        return self.num_qubits > 0 and all(d >= 0 for d in self.distances[0])

    def is_legal_cnot(self, control: int, target: int, respect_direction: bool = True) -> bool:
        """Whether cx(control, target) can run as written.

        With ``respect_direction`` false (or on an undirected graph) either
        orientation of an edge counts.
        """
        self._check_index(control)
        self._check_index(target)
        if self.directed and respect_direction:
            return (control, target) in self.edges
        return self.adjacency_matrix[control][target]

    def shortest_path(self, a: int, b: int) -> list[int]:
        """Minimal-hop path a..b; among ties, the lexicographically smallest
        vertex sequence (walk greedily to the smallest-index next vertex)."""
        self._check_index(a)
        self._check_index(b)
        dist_to_b = self.distances[b]
        if dist_to_b[a] < 0:
            raise DisconnectedGraphError(f"no path between qubits {a} and {b}")
        path = [a]
        cur = a
        while cur != b:
            closer = dist_to_b[cur] - 1
            # neighbors are sorted, so the first one closer to b is the smallest
            for v in self.neighbors[cur]:
                if dist_to_b[v] == closer:
                    break
            path.append(cur := v)
        return path


def make_layout(kind: str, n: int) -> CouplingGraph:
    """Build one of the four canonical undirected layouts, named in
    :data:`LAYOUTS` (in any case).

    linear: chain i-(i+1).  circle: chain plus the closing edge (n-1)-0.
    central: star with hub 0.  neighbour: row-major 2D grid, ceil(sqrt(n))
    columns, horizontal and vertical edges.
    """
    name = kind.lower()
    if name not in LAYOUTS:
        raise ValueError(f"unknown layout {kind!r}; expected one of {list(LAYOUTS)}")
    minimum = 3 if name == "circle" else 2
    if n < minimum:
        raise ValueError(f"{name} layout needs at least {minimum} qubits")
    edges: set[tuple[int, int]]
    if name == "linear":
        edges = {(i, i + 1) for i in range(n - 1)}
    elif name == "circle":
        edges = {(i, i + 1) for i in range(n - 1)}
        edges.add((n - 1, 0))
    elif name == "central":
        edges = {(0, i) for i in range(1, n)}
    else:
        cols = math.isqrt(n)
        if cols * cols < n:
            cols += 1
        edges = set()
        for v in range(n):
            if (v % cols) != cols - 1 and v + 1 < n:
                edges.add((v, v + 1))
            if v + cols < n:
                edges.add((v, v + cols))
    return CouplingGraph(n, frozenset(edges), directed=False)


def coupling_from_json(text: str) -> CouplingGraph:
    """A graph from ``{"n": int, "edges": [[int, int], ...], "directed": bool}``;
    ``directed`` defaults to false.  Values are not coerced: a float, a
    string or a boolean where an integer belongs is an error."""
    data = json.loads(text)
    try:
        n, edges, directed = data["n"], data["edges"], data.get("directed", False)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed coupling graph JSON: {exc}") from exc
    if not (type(n) is int and type(directed) is bool and type(edges) is list
            and all(type(e) is list and len(e) == 2 and all(type(q) is int for q in e)
                    for e in edges)):
        raise ValueError("malformed coupling graph JSON: expected an integer n, "
                         "[integer, integer] edges and a boolean directed")
    return CouplingGraph(n, frozenset(map(tuple, edges)), directed)


def load_coupling(spec: str | Path) -> CouplingGraph:
    """Load a graph from a JSON file, or build one from the shorthand
    ``layout:NAME:N`` (e.g. ``layout:central:5``)."""
    text = str(spec)
    if text.startswith("layout:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected layout:NAME:N, got {text!r}")
        return make_layout(parts[1], int(parts[2]))
    return coupling_from_json(Path(spec).read_text())
