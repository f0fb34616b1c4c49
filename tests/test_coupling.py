"""Layout generators, adjacency/legality queries, shortest paths vs BFS."""
import itertools
import json
from collections import deque

import numpy as np
import pytest

import qlayout as ql
from qlayout.coupling import CouplingGraph, DisconnectedGraphError, make_layout


def bfs_distance(edges: set[tuple[int, int]], n: int, a: int, b: int) -> int:
    """Independent oracle: plain BFS over an adjacency dict."""
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for x, y in edges:
        adj[x].add(y)
        adj[y].add(x)
    dist = {a: 0}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist.get(b, -1)


def random_connected_graph(rng: np.random.Generator, n: int) -> CouplingGraph:
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}  # random tree
    for _ in range(int(rng.integers(0, n))):
        a, b = rng.choice(n, size=2, replace=False)
        edges.add((int(min(a, b)), int(max(a, b))))
    return CouplingGraph(n, frozenset(edges))


class TestLayouts:
    def test_linear_edges(self):
        g = make_layout("linear", 4)
        assert {frozenset(e) for e in g.edges} == {frozenset(e) for e in [(0, 1), (1, 2), (2, 3)]}

    def test_central_edges(self):
        g = make_layout("central", 5)
        assert {frozenset(e) for e in g.edges} == {frozenset((0, i)) for i in range(1, 5)}
        assert g.neighbors[0] == (1, 2, 3, 4)

    def test_circle_edges(self):
        g = make_layout("circle", 5)
        assert g.neighbors[0] == (1, 4)
        assert all(len(g.neighbors[q]) == 2 for q in range(5))

    def test_grid_2x2(self):
        g = make_layout("neighbour", 4)
        assert {frozenset(e) for e in g.edges} == {
            frozenset(e) for e in [(0, 1), (2, 3), (0, 2), (1, 3)]}

    @pytest.mark.parametrize("n", range(2, 17))
    def test_grid_matches_coordinate_construction(self, n):
        # oracle: rebuild edges from (row, col) coordinates and compare degrees
        g = make_layout("neighbour", n)
        cols = int(np.ceil(np.sqrt(n)))
        coord = {v: divmod(v, cols) for v in range(n)}
        expected = set()
        for a, b in itertools.combinations(range(n), 2):
            (ra, ca), (rb, cb) = coord[a], coord[b]
            if abs(ra - rb) + abs(ca - cb) == 1:
                expected.add(frozenset((a, b)))
        assert {frozenset(e) for e in g.edges} == expected
        assert g.is_connected

    @pytest.mark.parametrize("kind", ["linear", "circle", "central", "neighbour"])
    @pytest.mark.parametrize("n", [3, 5, 9, 12])
    def test_layouts_connected_and_undirected(self, kind, n):
        g = make_layout(kind, n)
        assert g.is_connected and not g.directed

    def test_linear_ends_have_degree_one(self):
        g = make_layout("linear", 6)
        assert len(g.neighbors[0]) == 1 and len(g.neighbors[5]) == 1
        assert all(len(g.neighbors[q]) == 2 for q in range(1, 5))

    def test_minimum_sizes(self):
        with pytest.raises(ValueError):
            make_layout("circle", 2)
        with pytest.raises(ValueError):
            make_layout("linear", 1)
        with pytest.raises(ValueError):
            make_layout("mesh", 4)


class TestLegality:
    def test_long_range_pair_illegal(self):
        g = CouplingGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 4)}), directed=True)
        assert not g.is_legal_cnot(1, 4, respect_direction=False)

    def test_adjacent_pair_legal_on_chain(self):
        assert make_layout("linear", 4).is_legal_cnot(1, 2, respect_direction=False)

    def test_direction_respected_on_directed_graphs(self):
        g = CouplingGraph(2, frozenset({(0, 1)}), directed=True)
        assert g.is_legal_cnot(0, 1)
        assert not g.is_legal_cnot(1, 0)
        assert g.is_legal_cnot(1, 0, respect_direction=False)

    def test_undirected_graph_ignores_orientation(self):
        g = CouplingGraph(2, frozenset({(0, 1)}), directed=False)
        assert g.is_legal_cnot(1, 0) and g.is_legal_cnot(0, 1)

    def test_index_checked(self):
        with pytest.raises(IndexError):
            make_layout("linear", 3).is_legal_cnot(0, 3)


class TestShortestPath:
    def test_unique_chain_path(self):
        g = make_layout("linear", 4)
        assert g.shortest_path(0, 3) == [0, 1, 2, 3]
        assert g.intermediates_matrix[0][3] == 2

    def test_adjacent_has_no_intermediates(self):
        g = make_layout("circle", 5)
        assert g.shortest_path(0, 4) == [0, 4]
        assert g.intermediates_matrix[0][4] == 0

    def test_star_routes_through_hub(self):
        g = make_layout("central", 5)
        assert g.shortest_path(1, 2) == [1, 0, 2]

    def test_tie_break_is_lexicographic(self):
        g = make_layout("circle", 4)  # 0-2 via 1 or via 3
        assert g.shortest_path(0, 2) == [0, 1, 2]
        assert g.shortest_path(2, 0) == [2, 1, 0]

    def test_lexicographic_among_all_shortest(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = random_connected_graph(rng, 7)
            a, b = rng.choice(7, size=2, replace=False)
            got = g.shortest_path(int(a), int(b))
            d = bfs_distance(set(g.edges), 7, int(a), int(b))
            assert len(got) == d + 1
            # exhaustive oracle: enumerate every path of the same hop count
            paths = _all_paths(g, int(a), int(b), d)
            assert got == min(paths)

    def test_matches_bfs_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(3, 10))
            g = random_connected_graph(rng, n)
            a, b = rng.choice(n, size=2, replace=False)
            path = g.shortest_path(int(a), int(b))
            assert path[0] == a and path[-1] == b
            assert all(g.is_legal_cnot(x, y, respect_direction=False)
                       for x, y in zip(path, path[1:]))
            assert len(path) - 1 == bfs_distance(set(g.edges), n, int(a), int(b))

    def test_disconnected_raises(self):
        g = CouplingGraph(4, frozenset({(0, 1), (2, 3)}))
        assert not g.is_connected
        with pytest.raises(DisconnectedGraphError):
            g.shortest_path(0, 3)
        assert g.distances[1][2] == g.intermediates_matrix[1][2] == -1


def _all_paths(g: CouplingGraph, a: int, b: int, depth: int) -> list[list[int]]:
    """Every simple path from a to b with exactly ``depth`` hops."""
    out = []

    def walk(v, path):
        if len(path) - 1 > depth:
            return
        if v == b and len(path) - 1 == depth:
            out.append(list(path))
            return
        for w in g.neighbors[v]:
            if w not in path:
                path.append(w)
                walk(w, path)
                path.pop()

    walk(a, [a])
    return out


class TestConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            CouplingGraph(3, frozenset({(1, 1)}))

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            CouplingGraph(3, frozenset({(0, 3)}))

    def test_json_round_trip(self):
        g = CouplingGraph(4, frozenset({(0, 1), (1, 2), (3, 2)}), directed=True)
        text = json.dumps({"n": g.num_qubits, "directed": g.directed,
                           "edges": sorted([a, b] for a, b in g.edges)})
        back = ql.coupling_from_json(text)
        assert back == g

    def test_layout_shorthand(self):
        g = ql.load_coupling("layout:central:5")
        assert g == make_layout("central", 5)
        with pytest.raises(ValueError):
            ql.load_coupling("layout:central")

    def test_json_file_loading(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"n": 3, "directed": false, "edges": [[0,1],[1,2]]}')
        g = ql.load_coupling(path)
        assert g.num_qubits == 3 and not g.directed
        path.write_text('{"n": 3}')
        with pytest.raises(ValueError, match="malformed"):
            ql.load_coupling(path)

    @pytest.mark.parametrize("text", [
        '{"n": 2, "directed": "false", "edges": [[0, 1]]}',  # bool("false") is True
        '{"n": 2, "directed": 0, "edges": [[0, 1]]}',
        '{"n": 3.9, "edges": [[0, 1]]}',
        '{"n": true, "edges": []}',
        '{"n": "3", "edges": [[0, 1]]}',
        '{"n": 3, "edges": [[0, 1.9]]}',
        '{"n": 3, "edges": [[0, "1"]]}',
        '{"n": 3, "edges": [[0, false]]}',
        '{"n": 3, "edges": [[0, 1, 2]]}',
        '{"n": 3, "edges": [0, 1]}',
        '{"n": 3, "edges": {"0": 1}}',
    ])
    def test_json_values_are_not_coerced(self, text):
        with pytest.raises(ValueError, match="malformed coupling graph JSON"):
            ql.coupling_from_json(text)
