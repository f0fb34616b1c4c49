"""Golden outputs of the full pipeline, pinned bit for bit.

Any change to a routing or relabeling decision -- a tie broken the other
way, a float summed in another order -- changes at least one of these
digests, mappings or counts.  The values were recorded before the relabel
search and the router moved to dense permutations and precomputed
tables, and that rewrite must reproduce them exactly.

The relabel search is capped below its default node budget on the wide
cases so the whole file runs in about a second; the cap itself is part of
what is pinned.
"""
import hashlib

import pytest

import qlayout as ql
from qlayout.coupling import CouplingGraph
from qlayout.relabel import SearchLimits
from qlayout.pipeline import PipelineConfig

# (layout, n, su4_depth, seed, relabel node cap, directed,
#  sha256 of the emitted QASM, initial_mapping.pairs, final_mapping.pairs,
#  swaps_emitted, search_cost)
GOLDEN = [
    ('linear', 16, 2, 20252408, 512, False,
     'af86beec43cf5df2758f30b4a6a245cbec8a126d2ea42eb9420846e606f31faa',
     ((1, 2), (2, 6), (5, 12), (6, 1), (7, 13), (8, 10), (9, 7), (10, 5), (12, 9),
      (13, 8)),
     ((1, 2), (2, 7), (3, 4), (4, 6), (5, 12), (6, 14), (7, 11), (8, 5), (9, 8),
      (10, 3), (11, 1), (12, 10), (13, 9), (14, 13)),
     34, 1160),
    ('circle', 16, 2, 20252409, 512, False,
     'c9999a063d13e00a323fd41afc7823f4165f92d84bf8d681ad9eb67f90ae93c7',
     ((1, 3), (2, 8), (3, 1), (5, 12), (7, 13), (8, 10), (10, 11), (11, 15), (12, 14),
      (13, 7), (14, 5), (15, 2)),
     ((1, 3), (2, 5), (3, 2), (4, 1), (5, 13), (6, 7), (7, 14), (8, 9), (9, 10),
      (10, 12), (11, 15), (12, 11), (13, 8), (14, 4), (15, 6)),
     12, 420),
    ('central', 16, 2, 20252410, 512, False,
     '865125aebfa0bdee2d3f743544cb3647c041680f47b87f8034fb8c3dd57fc67c',
     ((0, 15), (15, 0)),
     ((0, 4), (1, 15), (2, 8), (4, 0), (6, 14), (7, 1), (8, 12), (9, 10), (10, 6),
      (12, 2), (13, 7), (14, 9), (15, 13)),
     14, 476),
    ('neighbour', 16, 2, 20252411, 512, False,
     '0bd6bef85ce653a8195baee144ef1a76c133cfc4628c1f2f77e8720b36edbf67',
     ((0, 15), (2, 0), (3, 6), (5, 12), (6, 3), (8, 11), (9, 5), (11, 13), (12, 8),
      (13, 9), (15, 2)),
     ((0, 15), (2, 0), (3, 6), (5, 12), (6, 3), (8, 11), (9, 5), (11, 13), (12, 8),
      (13, 9), (15, 2)),
     0, 0),
    ('linear', 32, 2, 20254008, 256, False,
     '735722b3fd80b8d171ba604724a42a30d56a4f0ef2f9577172a8beab45387d15',
     ((0, 24), (3, 11), (4, 28), (7, 30), (8, 27), (9, 4), (10, 7), (11, 3), (12, 16),
      (14, 10), (16, 0), (17, 19), (19, 20), (20, 17), (22, 8), (24, 9), (27, 22),
      (28, 12), (30, 14)),
     ((0, 22), (1, 14), (3, 16), (4, 28), (5, 18), (7, 29), (8, 30), (9, 24), (10, 8),
      (11, 4), (12, 1), (13, 12), (14, 5), (15, 26), (16, 0), (17, 11), (18, 15),
      (19, 17), (20, 7), (21, 19), (22, 10), (23, 21), (24, 9), (25, 23), (26, 25),
      (27, 20), (28, 3), (29, 27), (30, 13)),
     116, 3972),
    ('circle', 32, 2, 20254009, 256, False,
     'a94fe6e13b3f6c9eeaf0ceec881d4336e2a1c18dfa03e530461ff6ac9f658468',
     ((1, 3), (2, 7), (3, 1), (4, 23), (6, 16), (7, 2), (8, 29), (10, 28), (13, 6),
      (16, 10), (19, 30), (22, 24), (23, 8), (24, 22), (26, 27), (27, 19), (28, 26),
      (29, 4), (30, 13)),
     ((0, 6), (1, 4), (2, 18), (3, 1), (4, 23), (5, 31), (6, 5), (7, 2), (8, 30),
      (10, 28), (11, 12), (12, 11), (13, 20), (15, 3), (16, 10), (17, 16), (18, 22),
      (19, 25), (20, 17), (21, 19), (22, 24), (23, 8), (24, 21), (25, 0), (26, 27),
      (27, 15), (28, 26), (29, 7), (30, 13), (31, 29)),
     75, 2574),
    ('central', 32, 2, 20254010, 256, False,
     '19052a06490299f28332501bd168b586f9a9b3f693f23da5a879291136a791be',
     ((0, 23), (23, 0)),
     ((0, 23), (1, 27), (2, 22), (3, 25), (4, 3), (5, 9), (6, 31), (7, 6), (9, 11),
      (11, 26), (13, 28), (17, 21), (21, 7), (22, 5), (23, 1), (25, 2), (26, 4),
      (27, 0), (28, 30), (30, 17), (31, 13)),
     31, 1054),
    ('neighbour', 32, 2, 20254011, 256, False,
     '406a4248acbda936560830c26a7f664e0e8d0d454a9b6a239793fd9f89cfa98b',
     ((0, 30), (1, 2), (2, 28), (4, 25), (5, 24), (9, 18), (13, 5), (15, 31), (16, 0),
      (18, 16), (19, 29), (23, 19), (24, 27), (25, 4), (26, 9), (27, 23), (28, 26),
      (29, 13), (30, 1), (31, 15)),
     ((0, 30), (1, 0), (2, 27), (3, 8), (4, 28), (5, 18), (7, 20), (8, 13), (9, 12),
      (10, 16), (12, 19), (13, 5), (15, 25), (16, 2), (18, 22), (19, 29), (20, 4),
      (22, 15), (23, 7), (24, 26), (25, 3), (26, 1), (27, 23), (28, 31), (29, 24),
      (30, 10), (31, 9)),
     27, 930),
    ('central', 8, 8, 20250808, 4096, True,
     'f98315d0cd8204c75067e347b8966552fc971dc1833a7520d3b7e92361117668',
     ((0, 7), (7, 0)),
     ((0, 6), (2, 5), (3, 7), (4, 2), (5, 0), (6, 4), (7, 3)),
     28, 960),
]


@pytest.mark.parametrize(
    "layout, n, depth, seed, max_nodes, directed, digest, initial, final, swaps, cost",
    GOLDEN, ids=[f"{g[0]}{'-directed' if g[5] else ''}-n{g[1]}" for g in GOLDEN])
def test_pipeline_output_is_pinned(layout, n, depth, seed, max_nodes, directed,
                                   digest, initial, final, swaps, cost):
    graph = ql.make_layout(layout, n)
    if directed:
        graph = CouplingGraph(n, graph.edges, directed=True)
    circuit = ql.gen_random_circuit(n, depth, seed)
    result = ql.transpile(circuit, graph,
                          PipelineConfig(global_limits=SearchLimits(max_nodes=max_nodes)))
    assert hashlib.sha256(ql.emit_qasm(result.circuit).encode()).hexdigest() == digest
    assert result.initial_mapping.pairs == initial
    assert result.final_mapping.pairs == final
    assert result.swaps_emitted == swaps
    assert result.search_cost == cost
