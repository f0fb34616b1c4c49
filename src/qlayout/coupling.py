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

from .ir import MAX_REGISTER, _int_arg, _is_digits


class DisconnectedGraphError(ValueError):
    """Raised when routing needs a path that does not exist."""


#: the four canonical layouts, by name
LAYOUTS = ("linear", "circle", "central", "neighbour")


@dataclass(frozen=True)
class CouplingGraph:
    """``num_qubits`` vertices, 1 to :data:`~qlayout.ir.MAX_REGISTER`, and
    a set of (control, target) edges.

    One table, :attr:`distances`, built on first use, answers every
    question the searches ask of a qubit pair: it is an edge of the
    undirected view exactly at distance 1, and a shortest path between
    the two has distance - 1 intermediate vertices."""

    num_qubits: int
    edges: frozenset[tuple[int, int]]
    directed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "num_qubits", _int_arg(self.num_qubits, "num_qubits"))
        if not 1 <= self.num_qubits <= MAX_REGISTER:
            raise ValueError(f"a coupling graph has 1 to {MAX_REGISTER} qubits "
                             f"(MAX_REGISTER), got {self.num_qubits}")
        object.__setattr__(self, "edges", frozenset(
            (_int_arg(a, "edge endpoint"), _int_arg(b, "edge endpoint")) for a, b in self.edges))
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

    def _bfs(self, src: int) -> list[int]:
        """BFS distances from ``src`` on the undirected view; -1 if unreachable."""
        dist = [-1] * self.num_qubits
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in self.neighbors[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    @cached_property
    def distances(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs BFS distances on the undirected view; -1 if unreachable."""
        return tuple(tuple(self._bfs(src)) for src in range(self.num_qubits))

    @cached_property
    def distance_array(self) -> np.ndarray:
        """:attr:`distances` as an int64 array, for gathers over many qubit
        pairs at once."""
        return np.array(self.distances, dtype=np.int64).reshape(self.num_qubits, self.num_qubits)

    @cached_property
    def is_connected(self) -> bool:
        return self.num_qubits > 0 and -1 not in self._bfs(0)

    def is_legal_cnot(self, control: int, target: int, respect_direction: bool = True) -> bool:
        """Whether cx(control, target) can run as written.

        With ``respect_direction`` false (or on an undirected graph) either
        orientation of an edge counts.
        """
        self._check_index(control)
        self._check_index(target)
        if self.directed and respect_direction:
            return (control, target) in self.edges
        return self.distances[control][target] == 1

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
    n = _int_arg(n, "n")
    if not minimum <= n <= MAX_REGISTER:
        raise ValueError(f"{name} layout needs {minimum} to {MAX_REGISTER} qubits (MAX_REGISTER)")
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


def _unique_keys(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object that names no key twice; a repeated key is a ValueError."""
    if len(dict(pairs)) != len(pairs):
        raise ValueError(f"a JSON object repeats a key: {[k for k, _ in pairs]!r}")
    return dict(pairs)


def coupling_from_json(text: str) -> CouplingGraph:
    """A graph from ``{"n": int, "edges": [[int, int], ...], "directed": bool}``;
    ``directed`` defaults to false.  Values are not coerced: a float, a
    string or a boolean where an integer belongs is an error, and so are a
    key named twice and any other key (a misspelled ``directed`` would
    otherwise leave a directed chip undirected)."""
    data = json.loads(text, object_pairs_hook=_unique_keys)
    try:
        n, edges, directed = data["n"], data["edges"], data.get("directed", False)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed coupling graph JSON: {exc}") from exc
    unknown = data.keys() - {"n", "edges", "directed"}
    if unknown:
        raise ValueError(f"malformed coupling graph JSON: unknown key(s) {sorted(unknown)}")
    if not (type(n) is int and type(directed) is bool and type(edges) is list
            and all(type(e) is list and len(e) == 2 and all(type(q) is int for q in e)
                    for e in edges)):
        raise ValueError("malformed coupling graph JSON: expected an integer n, "
                         "[integer, integer] edges and a boolean directed")
    return CouplingGraph(n, frozenset(map(tuple, edges)), directed)


def load_coupling(spec: str | Path) -> CouplingGraph:
    """Load a graph from a JSON file, or build one from the shorthand
    ``layout:NAME:N`` (e.g. ``layout:central:5``), N in ASCII decimal
    digits, as the QASM reader reads a register size."""
    text = str(spec)
    if text.startswith("layout:"):
        parts = text.split(":")
        if len(parts) != 3 or not _is_digits(parts[2]):
            raise ValueError(f"expected layout:NAME:N, N in decimal digits, got {text!r}")
        return make_layout(parts[1], int(parts[2]))
    return coupling_from_json(Path(spec).read_text())
