"""The paper's invariants on every graph with at most seven vertices.

networkx's graph atlas lists all 1,252 of them up to isomorphism.  Each
goes through `corpus`'s checks at a raised cap: the RAAG verdict comes
with killed relators and PSO b0 equal to the tree generators; a loop
comes with pairing 1 and b1(PSO) >= 1; PSA Euler < 0 exactly on SIL
graphs; RAAG b0 is the center rank.  Each support graph's certificate,
each defining graph's edge set and each generator dictionary are also
compared with the rules they replaced: a loop search from every root, a
commutation test over every pair of records, and a flood fill per edge
for its far side.  The dictionary is compared at the default basepoints
and with every owner's basepoints moved.  The sweep is never sampled.
"""

import time

import pytest
from oracles import all_roots_forest_certificate, atlas, far_side_dictionary, pairwise_presentation_edges

from raagbns import cli
from raagbns.bns import maximal_delta_psets, maximal_psets
from raagbns.errors import CapExceeded
from raagbns.graphs import SimpleGraph, forest_certificate, support_graph
from raagbns.presentations import generator_dictionary, presentation_graph

# edgeless(7), the atlas's largest choice tree, has 286 M nodes
RAISED_CAP = 10 ** 9

# vertex count -> (RAAG verdicts, not-RAAG verdicts).  Derived apart from
# raagbns: a graph is on the RAAG side iff each vertex's support graph,
# built from the definitions with networkx, is a forest.
VERDICTS = {1: (1, 0), 2: (2, 0), 3: (4, 0), 4: (10, 1), 5: (29, 5), 6: (128, 28), 7: (842, 202)}


def moved_basepoints(th):
    """Each owner's trees' greatest nodes, last tree first, so that every
    basepoint and the preferred tree leave their defaults where they can."""
    out = {}
    for a, tree, _ in th.basepoints:
        out.setdefault(a, []).insert(0, tree[-1])
    return out


@pytest.fixture(scope="module")
def graphs_by_size():
    out = {}
    for g in atlas():
        out.setdefault(len(g.vertices), []).append(g)
    return out


def test_atlas_has_every_graph_up_to_seven_vertices(graphs_by_size):
    assert {n: len(gs) for n, gs in graphs_by_size.items()} == {n: sum(v) for n, v in VERDICTS.items()}


@pytest.mark.parametrize("n", sorted(VERDICTS))
def test_corpus_checks_hold_on_every_atlas_graph(n, graphs_by_size, monkeypatch):
    monkeypatch.setenv("RAAGBNS_CAP", str(RAISED_CAP))
    verdicts, capped, failed, differ = [0, 0], [], [], []
    for g in graphs_by_size[n]:
        try:
            is_raag, checks = cli._corpus_checks(g)
        except CapExceeded:
            capped.append(sorted(g.edges))
            continue
        if not checks or not all(checks.values()):
            failed.append((sorted(g.edges), checks))
        verdicts[not is_raag] += 1
        for a in g.vertices:
            d = support_graph(g, a)
            if forest_certificate(d) != all_roots_forest_certificate(d):
                differ.append((sorted(g.edges), a))
        if is_raag:
            th = presentation_graph(g)
            if th.graph.edges != pairwise_presentation_edges(g, th):
                differ.append((sorted(g.edges), "presentation graph"))
            for chosen in (th, presentation_graph(g, moved_basepoints(th))):
                if generator_dictionary(g, chosen) != far_side_dictionary(g, chosen):
                    differ.append((sorted(g.edges), "dictionary", chosen.preferred))
    assert capped == [] and failed == [] and differ == []
    assert tuple(verdicts) == VERDICTS[n]


def test_edgeless7_maximal_sets_within_budget():
    # the choice-tree walk this replaced took minutes here
    g = SimpleGraph("abcdefg", [])
    start = time.perf_counter()
    psets = maximal_psets(g, cap=RAISED_CAP)
    deltas = maximal_delta_psets(g, cap=RAISED_CAP)
    elapsed = time.perf_counter() - start
    assert (len(psets), len(deltas)) == (21, 35)
    assert elapsed < 5, f"{elapsed:.2f} s"
