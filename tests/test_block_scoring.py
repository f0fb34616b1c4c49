"""Block scoring of search leaves: the relabel search and the lookahead
router must decide exactly as the leaf-by-leaf searches below, which
score each leaf as soon as it is reached.

The oracles do not share the code they check: the relabel search's
candidate rescan and the router's SWAP-chain repairs are copied here as
they were before the searches stopped recomputing them at every node
(``ref_*`` below)."""
import itertools
from bisect import bisect_left
from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlayout as ql
from conftest import circuits, connected_graphs, lookahead_choose, queued_leaves
from qlayout import routing, search
from qlayout.coupling import CouplingGraph, DisconnectedGraphError
from qlayout.relabel import SearchLimits, _partners, global_adjust
from qlayout.ir import GateKind, QubitMapping
from qlayout.routing import CONTROL_MOVE_COST, _repairs, route_circuit
from qlayout.search import (
    SWAP_COST,
    Leaves,
    estimate_cost,
    first_illegal,
    residual_intermediates,
)


def ref_legalizing_swaps(ill, graph, cnots, passed, end, perm, inverse):
    """Wire pairs (moved, nbr) whose transposition legalizes ``ill`` and
    keeps every CNOT in ``cnots[:end]`` legal, found by rereading the passed
    CNOTs on both exchanged qubits (``passed`` is :func:`ref_cnot_index`)."""
    dist = graph.distances
    control, target = ill
    for fixed, moved in ((target, control), (control, target)):
        for nbr in graph.neighbors[fixed]:
            if nbr == moved:
                continue
            a, b = inverse[moved], inverse[nbr]
            perm[a], perm[b] = nbr, moved
            ok = all(dist[perm[cnots[i][0]]][perm[cnots[i][1]]] == 1
                     for q in (a, b) for i in passed[q][:bisect_left(passed[q], end)])
            perm[a], perm[b] = moved, nbr
            if ok:
                yield moved, nbr


def ref_cnot_index(cnots, num_qubits):
    """Per qubit, the ascending indices of the CNOTs that touch it."""
    touching = [[] for _ in range(num_qubits)]
    for i, (c, t) in enumerate(cnots):
        touching[c].append(i)
        touching[t].append(i)
    return touching


#: which endpoint of an illegal CNOT a repair moves
CONTROL, TARGET = "control", "target"


def ref_stops(ill, path, mover):
    inter = list(path[1:-1])
    return [ill[0]] + inter if mover == CONTROL else [ill[1]] + inter[::-1]


def ref_search_cost(stops, mover):
    return SWAP_COST * (len(stops) - 1) + (CONTROL_MOVE_COST if mover == CONTROL else 0)


#: one routing decision: the mover, the SWAPs in order, the relabeling they
#: induce on every later gate, and the search cost
RefChain = namedtuple("RefChain", "mover swaps relabeling search_cost")


def ref_chain(ill, path, mover):
    """The chain for ``ill`` along ``path``, built from scratch."""
    stops = ref_stops(ill, path, mover)
    moves = {stops[0]: stops[-1]} | dict(zip(stops[1:], stops))
    return RefChain(mover, tuple(zip(stops, stops[1:])),
                    QubitMapping.from_dict(moves), ref_search_cost(stops, mover))


def ref_relabeled(perm, stops):
    step = list(range(len(perm)))
    step[stops[0]] = stops[-1]
    for prev, cur in zip(stops, stops[1:]):
        step[cur] = prev
    return [step[q] for q in perm]


def ref_repairs(ill, graph, perm):
    """Both repairs of ``ill``, control moved first, each recomputed from
    ``shortest_path``: (mover, search cost, ``perm`` then the chain)."""
    path = graph.shortest_path(*ill)
    for mover in (CONTROL, TARGET):
        stops = ref_stops(ill, path, mover)
        yield mover, ref_search_cost(stops, mover), ref_relabeled(perm, stops)


def oracle_global_adjust(circuit, graph, limits=None, terminals=None, nodes=None):
    """The relabel search with every leaf scored when it is reached.

    It rescans the passed CNOTs for each candidate at every node.  When
    given, ``terminals`` collects each terminal it ranks, as (perm, start),
    in order, the identity fallback last, and ``nodes`` each branching
    node's candidates."""
    limits = limits or SearchLimits()
    cnots = [g.qubits for g in circuit.gates if g.kind is GateKind.CNOT]
    width = max(circuit.num_qubits, graph.num_qubits)
    passed = ref_cnot_index(cnots, width)
    perm = list(range(width))
    inverse = list(range(width))
    best = None
    budget = limits.max_nodes
    terminals = [] if terminals is None else terminals
    nodes = [] if nodes is None else nodes

    def offer(start):
        nonlocal best
        terminals.append((tuple(perm), start))
        cost = estimate_cost(residual_intermediates(cnots, graph, start, perm))
        if best is None or cost < best[1]:
            best = (tuple(perm), cost)

    def search(start):
        nonlocal budget
        i = first_illegal(cnots, graph, start, perm)
        if i < 0:
            offer(len(cnots))
            return
        if budget <= 0:
            offer(i)
            return
        budget -= 1
        c, t = cnots[i]
        swaps = list(ref_legalizing_swaps((perm[c], perm[t]), graph, cnots, passed, i,
                                          perm, inverse))
        nodes.append(swaps)
        if not swaps:
            offer(i)
            return
        for moved, nbr in swaps:
            if budget <= 0:
                break
            a, b = inverse[moved], inverse[nbr]
            perm[a], perm[b], inverse[moved], inverse[nbr] = nbr, moved, b, a
            search(i + 1)
            perm[a], perm[b], inverse[moved], inverse[nbr] = moved, nbr, a, b

    search(0)
    offer(0)
    wires, cost = best
    return QubitMapping(tuple(enumerate(wires))), cost


def oracle_choose_chain(ill, cnots, start, perm, graph, lookahead):
    """The lookahead decision with every leaf scored when it is reached."""
    best_cost = float("inf")
    best_mover = None

    def descend(ill, start, perm, acc, lead, depth):
        nonlocal best_cost, best_mover
        for mover, step_cost, moved in ref_repairs(ill, graph, perm):
            cost = acc + step_cost
            first = mover if lead is None else lead
            j = first_illegal(cnots, graph, start, moved)
            if j >= 0 and depth < lookahead:
                c, t = cnots[j]
                descend((moved[c], moved[t]), j + 1, moved, cost, first, depth + 1)
                continue
            if j >= 0:
                cost += estimate_cost(residual_intermediates(cnots, graph, j, moved))
            if cost < best_cost:
                best_cost, best_mover = cost, first

    descend(ill, start, perm, 0.0, None, 1)
    return ref_chain(ill, graph.shortest_path(*ill), best_mover), best_cost


def oracle_route(circuit, graph, lookahead, placement=None):
    """The router's loop over :func:`oracle_choose_chain`, which decides
    afresh every time, from qubit q on wire ``placement(q)`` (default: the
    identity): gates, final wire permutation, search cost and SWAP count."""
    dist = graph.distances
    cnots = [g.qubits for g in circuit.gates if g.kind is GateKind.CNOT]
    wire = list(range(graph.num_qubits))
    if placement is not None:
        wire = [placement(q) for q in wire]
    out = []
    k = search_cost = swaps = 0
    for g in circuit.gates:
        if g.kind is GateKind.CNOT:
            k += 1
            c, t = g.qubits
            while dist[wire[c]][wire[t]] != 1:
                chain, _ = oracle_choose_chain((wire[c], wire[t]), cnots, k, wire, graph,
                                               lookahead)
                for a, b in chain.swaps:
                    out += [ql.cx(a, b), ql.cx(b, a), ql.cx(a, b)]
                step = chain.relabeling.as_dict()
                wire = [step.get(w, w) for w in wire]
                search_cost += chain.search_cost
                swaps += len(chain.swaps)
        out.append(ql.Gate(g.kind, tuple(wire[q] for q in g.qubits), g.params, g.clbit))
    return out, wire, search_cost, swaps


@st.composite
def graph_and_cnots(draw, max_cnots=24, min_cnots=0):
    """A connected graph and a CNOT-only circuit on its qubits."""
    graph = draw(connected_graphs(max_qubits=8))
    q = st.integers(min_value=0, max_value=graph.num_qubits - 1)
    pairs = draw(st.lists(st.tuples(q, q).filter(lambda p: p[0] != p[1]),
                          min_size=min_cnots, max_size=max_cnots))
    return graph, pairs


def cnot_circuit(n, pairs):
    return ql.Circuit(n, 0, tuple(ql.cx(c, t) for c, t in pairs))


SIZES = (1, 7, "default")


@pytest.fixture(scope="class", params=list(itertools.product(SIZES, SIZES)),
                ids=lambda p: f"block={p[0]}-numpy_from={p[1]}")
def block_sizes(request):
    """Flushes mid-search, ties across block boundaries, and both the
    per-leaf and the numpy scoring path.  A block size bounds both the
    elements and the leaves a queue lets wait."""
    block, numpy_from = request.param
    with pytest.MonkeyPatch.context() as mp:
        if block != "default":
            mp.setattr(search, "_BLOCK_ELEMENTS", block)
            mp.setattr(search, "_BLOCK_LEAVES", block)
        if numpy_from != "default":
            mp.setattr(search, "_NUMPY_MIN_ELEMENTS", numpy_from)
        yield


@pytest.mark.usefixtures("block_sizes")
class TestGlobalAdjustMatchesLeafByLeaf:
    @settings(max_examples=40, deadline=None)
    @given(case=graph_and_cnots(),
           max_nodes=st.sampled_from([1, 3, 17, 4096]))
    def test_cnot_circuits(self, case, max_nodes):
        graph, pairs = case
        circuit = cnot_circuit(graph.num_qubits, pairs)
        limits = SearchLimits(max_nodes=max_nodes)
        mapping, est = global_adjust(circuit, graph, limits)
        ref_mapping, ref_est = oracle_global_adjust(circuit, graph, limits)
        assert mapping == ref_mapping
        assert est.hex() == ref_est.hex()

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_mixed_circuits(self, data):
        graph = data.draw(connected_graphs())
        circuit = data.draw(circuits(max_qubits=graph.num_qubits, max_gates=20))
        mapping, est = global_adjust(circuit, graph)
        ref_mapping, ref_est = oracle_global_adjust(circuit, graph)
        assert mapping == ref_mapping
        assert est.hex() == ref_est.hex()


@pytest.mark.usefixtures("block_sizes")
class TestLookaheadMatchesLeafByLeaf:
    @settings(max_examples=40, deadline=None)
    @given(case=graph_and_cnots(), data=st.data(),
           lookahead=st.integers(min_value=1, max_value=4))
    def test_lookahead_choose(self, case, data, lookahead):
        graph, pairs = case
        q = st.integers(min_value=0, max_value=graph.num_qubits - 1)
        ill = data.draw(st.tuples(q, q).filter(lambda p: p[0] != p[1]))
        mapping, cost = lookahead_choose(ill, pairs, graph, lookahead)
        chain, ref_cost = oracle_choose_chain(ill, pairs, 0, range(graph.num_qubits),
                                              graph, lookahead)
        assert mapping == chain.relabeling
        assert cost.hex() == ref_cost.hex()

    @settings(max_examples=30, deadline=None)
    @given(case=graph_and_cnots(max_cnots=30), data=st.data(),
           lookahead=st.integers(min_value=1, max_value=6))
    def test_route_circuit(self, case, data, lookahead):
        # every decision after the first starts mid-list, on a moved
        # permutation, at the node the decision before it chose
        graph, pairs = case
        n = graph.num_qubits
        placement = QubitMapping(tuple(enumerate(data.draw(st.permutations(range(n))))))
        circuit = cnot_circuit(n, pairs)
        result = route_circuit(circuit, graph, lookahead, initial_mapping=placement)
        gates, wire, search_cost, swaps = oracle_route(circuit, graph, lookahead, placement)
        assert list(result.circuit.gates) == gates
        assert result.final_mapping == QubitMapping(tuple(enumerate(wire)))
        assert (result.search_cost, result.swaps_emitted) == (search_cost, swaps)


#: central n = 8 at depth 30, from the relabel search's placement as in
#: ``transpile``: about 150 decisions, each but the first rooted at the
#: node the one before it chose
LONG_CIRCUIT = ql.gen_random_circuit(8, 30, 20250808)


@pytest.mark.parametrize("lookahead", [1, 4, 6])
@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
def test_long_route_equals_fresh_decisions(directed, lookahead):
    graph = ql.make_layout("central", 8)
    graph = CouplingGraph(8, graph.edges, directed=directed)
    placement, _ = global_adjust(LONG_CIRCUIT, graph)
    result = route_circuit(LONG_CIRCUIT, graph, lookahead, initial_mapping=placement)
    gates, wire, search_cost, swaps = oracle_route(LONG_CIRCUIT, graph, lookahead, placement)
    assert list(result.circuit.gates) == gates
    assert result.final_mapping == QubitMapping(tuple(enumerate(wire)))
    assert (result.search_cost, result.swaps_emitted) == (search_cost, swaps)
    assert swaps > 100


class TestKeptSubtree:
    def route_counting(self, monkeypatch, lookahead, fresh):
        """Route ``LONG_CIRCUIT`` on central-8, with every decision searching
        from a childless copy of its root if ``fresh``; the result and, per
        decision, the number of tree nodes it expands."""
        per_decision = []
        choose, children = routing._choose_repair, routing._children

        def counting_choose(leaves, repairs, root, lookahead):
            per_decision.append(0)
            if fresh:
                root = [None, root[1], root[2], None]
            return choose(leaves, repairs, root, lookahead)

        def counting_children(*args):
            per_decision[-1] += 1
            return children(*args)

        with monkeypatch.context() as mp:
            mp.setattr(routing, "_choose_repair", counting_choose)
            mp.setattr(routing, "_children", counting_children)
            result = route_circuit(LONG_CIRCUIT, ql.make_layout("central", 8), lookahead)
        return result, per_decision

    @pytest.mark.parametrize("lookahead", [1, 2, 4, 6])
    def test_a_decision_expands_only_the_new_bottom_level(self, monkeypatch, lookahead):
        # the first decision expands its root and up to 2^L - 2 nodes below
        # it; each later one at most the 2^(L-1) nodes on its last level
        # above the horizon, and never its root, which a fresh search expands
        result, kept = self.route_counting(monkeypatch, lookahead, fresh=False)
        fresh_result, fresh = self.route_counting(monkeypatch, lookahead, fresh=True)
        assert result == fresh_result
        assert len(kept) == len(fresh) > 100
        assert kept[0] == fresh[0] <= 2 ** lookahead - 1
        assert max(kept[1:]) <= 2 ** (lookahead - 1)
        if lookahead > 1:
            assert sum(fresh) - sum(kept) >= len(kept) - 1

    @settings(max_examples=40, deadline=None)
    @given(case=graph_and_cnots(min_cnots=12), data=st.data(),
           lookahead=st.integers(min_value=1, max_value=5))
    def test_each_chosen_root_decides_as_a_fresh_search(self, case, data, lookahead):
        # down the chain of chosen nodes from a random permutation, the
        # decision that reuses the levels built before it is the one a
        # search from a childless copy of its root makes
        graph, pairs = case
        perm = data.draw(st.permutations(range(graph.num_qubits)))
        shared, repairs = Leaves(pairs, graph), {}
        root = [None, perm, first_illegal(pairs, graph, 0, perm), None]
        while root[2] >= 0:
            fresh, fresh_cost = routing._choose_repair(
                Leaves(pairs, graph), {}, [None, root[1], root[2], None], lookahead)
            root, cost = routing._choose_repair(shared, repairs, root, lookahead)
            assert root[:3] == fresh[:3] and cost.hex() == fresh_cost.hex()


def searched_and_rescanned(graph, pairs, limits):
    """The terminals ``global_adjust`` queues over the CNOTs ``pairs``, and
    those of the oracle, which rescans at every node, with the oracle's
    branching nodes' candidates."""
    circuit = cnot_circuit(graph.num_qubits, pairs)
    terminals, nodes = [], []
    oracle_global_adjust(circuit, graph, limits, terminals, nodes)
    return queued_leaves(global_adjust, circuit, graph, limits), terminals, nodes


class TestCandidateCheck:
    """The masks the search tests its candidates with keep the candidates
    of a rescan, in the same order: the search reaches the oracle's
    terminals, one by one."""

    @settings(max_examples=80, deadline=None)
    @given(case=graph_and_cnots(max_cnots=30), max_nodes=st.sampled_from([1, 17, 300, 10**6]))
    def test_terminals_match_the_rescan(self, case, max_nodes):
        graph, pairs = case
        searched, rescanned, _ = searched_and_rescanned(graph, pairs, SearchLimits(max_nodes))
        assert searched == rescanned

    def test_search_reaches_adjacent_and_shared_neighbour_swaps(self):
        # a 4-cycle with a chord: the search exchanges adjacent wires (whose
        # masks swap a bit for a bit) and wires with a neighbour in common
        # (whose two flips cancel), and reaches every terminal of the rescan
        graph = CouplingGraph(5, frozenset({(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4)}))
        pairs = [(0, 4), (0, 2), (1, 2), (2, 1), (4, 0), (4, 1), (3, 4), (4, 2), (4, 3), (4, 2)]
        searched, rescanned, nodes = searched_and_rescanned(graph, pairs,
                                                            SearchLimits(max_nodes=10**6))
        assert searched == rescanned
        swaps = [pair for found in nodes for pair in found]
        assert len(nodes) > 20
        assert any(graph.distances[moved][nbr] == 1 for moved, nbr in swaps)
        assert any(set(graph.neighbors[moved]) & set(graph.neighbors[nbr]) for moved, nbr in swaps)

    def test_partner_rows(self):
        cnots = [(0, 1), (1, 2), (0, 1)]
        zero = [0] * 4
        assert _partners(zero, cnots, 0, 3) == [0b10, 0b101, 0b10, 0]
        assert _partners(zero, cnots, 0, 0) == zero
        first = _partners(zero, cnots, 0, 1)
        assert _partners(first, cnots, 1, 2) == [0b10, 0b101, 0b10, 0]
        # a row is extended into a new list: the parent's row stays as it was
        assert first == [0b10, 0b1, 0, 0] and zero == [0] * 4


class TestRepairTable:
    @settings(max_examples=60, deadline=None)
    @given(graph=connected_graphs(max_qubits=8), data=st.data())
    def test_cached_repair_equals_one_built_fresh(self, graph, data):
        # every ordered pair, twice: the second round reads the table
        n = graph.num_qubits
        pairs = data.draw(st.permutations([(c, t) for c in range(n) for t in range(n) if c != t]))
        table = {}
        for _ in range(2):
            for ill in pairs:
                path = graph.shortest_path(*ill)
                fresh = []
                for mover in (CONTROL, TARGET):
                    stops = ref_stops(ill, path, mover)
                    step = tuple(ref_relabeled(range(n), stops))
                    chain = ref_chain(ill, path, mover)
                    assert chain.relabeling == QubitMapping(tuple(enumerate(step)))
                    assert chain.swaps == tuple(zip(stops, stops[1:]))
                    fresh.append((chain.search_cost, step, tuple(stops)))
                assert list(_repairs(ill, graph, table)) == fresh
        assert len(table) == len(pairs)

    def test_a_table_ends_with_its_routing_call(self):
        # the pair (0, 3) is repaired through wire 4 on the circle and through
        # wires 1 and 2 on the line: a repair kept from the first call would
        # route the second circuit with the circle's chain
        circuit = cnot_circuit(5, [(0, 3), (1, 3), (0, 2)])
        for graph in (ql.make_layout("circle", 5), ql.make_layout("linear", 5)):
            result = route_circuit(circuit, graph)
            gates, wire, search_cost, swaps = oracle_route(circuit, graph, 4)
            assert list(result.circuit.gates) == gates
            assert (result.search_cost, result.swaps_emitted) == (search_cost, swaps)

    def test_routed_wires_are_ints(self):
        graph = ql.make_layout("linear", 3)
        routed = route_circuit(cnot_circuit(3, [(0, 2)]), graph)
        assert routed.swaps_emitted == 1
        assert all(type(q) is int for g in routed.circuit.gates for q in g.qubits)


def reference_scores(cnots, graph, block):
    return [estimate_cost(residual_intermediates(cnots, graph, start, perm))
            for perm, start in block]


@pytest.fixture(params=[1, "default"], ids=["numpy", "default"])
def numpy_from(request, monkeypatch):
    if request.param != "default":
        monkeypatch.setattr(search, "_NUMPY_MIN_ELEMENTS", request.param)


@pytest.mark.usefixtures("numpy_from")
class TestScoreBlock:
    CHAIN4 = ql.make_layout("linear", 4)
    CNOTS = [(0, 1), (0, 3), (1, 2), (0, 2), (2, 3)]  # illegal: (0, 3) and (0, 2)

    def scores(self, cnots, graph, block):
        elements = sum(len(cnots) - start for _, start in block)
        got = Leaves(cnots, graph).score([(perm, start, 0.0, None) for perm, start in block],
                                         elements)
        assert [x.hex() for x in got] == [x.hex() for x in reference_scores(cnots, graph, block)]
        return got

    def test_empty_residue(self):
        identity = list(range(4))
        assert self.scores(self.CNOTS, self.CHAIN4, [(identity, 5)]) == [0.0]
        assert self.scores([(0, 1), (2, 3)], self.CHAIN4, [(identity, 0)]) == [0.0]

    def test_start_after_the_last_illegal_cnot(self):
        assert self.scores(self.CNOTS, self.CHAIN4, [(list(range(4)), 4)]) == [0.0]

    def test_single_illegal_cnot_weighs_nothing(self):
        assert self.scores(self.CNOTS, self.CHAIN4, [(list(range(4)), 2)]) == [0.0]

    def test_equal_starts_need_no_mask(self):
        # one start for the whole block: the gather begins there, and no
        # CNOT before it is read, not even (0, 1), illegal under the third
        identity, flipped, moved = list(range(4)), [3, 2, 1, 0], [2, 0, 1, 3]
        block = [(identity, 1), (flipped, 1), (moved, 1)]
        assert self.scores(self.CNOTS, self.CHAIN4, block) == [17.0, 17.0, 0.0]

    @settings(max_examples=60, deadline=None)
    @given(case=graph_and_cnots(max_cnots=40), data=st.data())
    def test_equal_starts_equal_leaf_by_leaf(self, case, data):
        graph, cnots = case
        start = data.draw(st.integers(min_value=0, max_value=len(cnots)))
        perms = data.draw(st.lists(st.permutations(range(graph.num_qubits)), min_size=1,
                                   max_size=12))
        self.scores(cnots, graph, [(perm, start) for perm in perms])

    def test_starts_differ_within_a_block(self):
        identity, flipped = list(range(4)), [3, 2, 1, 0]
        block = [(identity, 0), (identity, 1), (flipped, 3), (identity, 2), (flipped, 0)]
        got = self.scores(self.CNOTS, self.CHAIN4, block)
        assert got[0] == got[1] == estimate_cost([2, 1]) == 17.0
        assert got[3] == 0.0

    @settings(max_examples=100, deadline=None)
    @given(case=graph_and_cnots(max_cnots=40), data=st.data())
    def test_equals_leaf_by_leaf(self, case, data):
        graph, cnots = case
        n = graph.num_qubits
        leaf = st.tuples(st.permutations(range(n)),
                         st.integers(min_value=0, max_value=len(cnots)))
        block = data.draw(st.lists(leaf, max_size=12))
        self.scores(cnots, graph, block)


class TestQueue:
    CHAIN4, CNOTS = TestScoreBlock.CHAIN4, TestScoreBlock.CNOTS

    def test_add_counts_the_span_and_flushes_at_the_block(self, monkeypatch):
        monkeypatch.setattr(search, "_BLOCK_ELEMENTS", 8)
        identity, flipped = list(range(4)), [3, 2, 1, 0]
        leaves = Leaves(self.CNOTS, self.CHAIN4)
        # each leaf counts len(cnots) - start elements: 5, then 1, then 2
        leaves.add(identity, 0, 0.0, "a")  # residue (0, 3), (0, 2): 17.0
        assert (len(leaves.pending), leaves.elements) == (1, 5)
        leaves.add(identity, 4, 2.0, "b")  # (2, 3) is legal: 2.0
        assert (len(leaves.pending), leaves.elements) == (2, 6)
        leaves.add(flipped, 3, 2.0, "c")  # one illegal CNOT weighs nothing: 2.0
        assert (len(leaves.pending), leaves.elements) == (0, 0)
        assert leaves.best == (2.0, "b")
        leaves.add(identity, 5, 2.0, "d")  # nothing left to score
        assert (len(leaves.pending), leaves.elements) == (1, 0)
        # the first cheapest leaf across the flush, then a fresh start
        assert leaves.take() == (2.0, "b")
        assert leaves.take() == (float("inf"), None)
        leaves.add(flipped, 3, 1.0, "e")
        assert leaves.take() == (1.0, "e")


@pytest.mark.usefixtures("numpy_from")
class TestDisconnectedGraph:
    TWO_PAIRS = CouplingGraph(4, frozenset({(0, 1), (2, 3)}))

    @pytest.mark.parametrize("pairs", [[(0, 2)], [(0, 1), (1, 2)]])
    def test_cnot_across_components_raises(self, pairs):
        with pytest.raises(DisconnectedGraphError):
            global_adjust(cnot_circuit(4, pairs), self.TWO_PAIRS)

    def test_legal_circuit_keeps_the_identity(self):
        mapping, est = global_adjust(cnot_circuit(4, [(0, 1)]), self.TWO_PAIRS)
        assert mapping.is_identity and est == 0.0
