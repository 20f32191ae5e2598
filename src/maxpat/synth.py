"""Seeded random instances and subpattern sampling.

Everything takes an explicit random.Random so callers control determinism.
Sizes default to well inside the oracle guard and small enough that even a
tournament-shaped encoding of a transaction stays enumerable; these
instances exist to be cross-checked, not to be impressive.
"""

import random

from .core import Database
from .domains import (
    DIGRAPH, GRAPH, ITEMSET, SEQUENCE,
    Itemset, LabelledGraph, Sequence,
)


def random_itemset_db(rng: random.Random, n_labels=8, n_txns=8, max_items=4,
                      pair_items=False, markers=False, directed=False,
                      allow_empty=True) -> Database:
    """Plain itemset database; with ``pair_items`` the items are the label
    pairs of random edges instead, smaller label first, the shape the
    connectivity predicate expects.  With ``markers`` the pairs also hold
    the marker (a, a) of every label, and with ``directed`` they run either
    way: the items of the edge-itemset encodings, whose preimage
    predicates accept no itemset without markers."""
    if pair_items:
        labels = range(1, n_labels + 1)
        pool = [(a, b) for a in labels for b in labels
                if a < b or a == b and markers or a > b and directed]
    else:
        pool = list(range(1, n_labels + 1))
    txns = []
    for _ in range(n_txns):
        lo = 0 if allow_empty else 1
        k = rng.randint(lo, min(max_items, len(pool)))
        txns.append(Itemset(rng.sample(pool, k)))
    return Database(ITEMSET, tuple(txns))


def random_sequence_db(rng: random.Random, n_labels=8, n_txns=8,
                       max_events=4, allow_empty=True) -> Database:
    txns = []
    for _ in range(n_txns):
        lo = 0 if allow_empty else 1
        k = rng.randint(lo, min(max_events, n_labels))
        txns.append(Sequence(rng.sample(range(1, n_labels + 1), k)))
    return Database(SEQUENCE, tuple(txns))


def random_connected_graph(rng: random.Random, n_labels=8, max_vertices=5,
                           max_extra_edges=2, directed=False,
                           tree=False, acyclic=True) -> LabelledGraph:
    """Random connected graph: spanning tree plus a few extra edges.

    Directed graphs orient every edge along a random vertex order when
    ``acyclic`` (giving a dag) and randomly otherwise, which may create
    opposing arc pairs.
    """
    k = rng.randint(1, min(max_vertices, n_labels))
    vertices = rng.sample(range(1, n_labels + 1), k)
    order = {v: i for i, v in enumerate(vertices)}
    undirected = set()
    for i in range(1, k):
        undirected.add(tuple(sorted((vertices[i], rng.choice(vertices[:i])))))
    if not tree:
        pool = [(a, b) for a in vertices for b in vertices
                if a < b and (a, b) not in undirected]
        extra = rng.randint(0, min(max_extra_edges, len(pool)))
        undirected.update(rng.sample(pool, extra))
    if not directed:
        return LabelledGraph(frozenset(vertices), frozenset(undirected))
    edges = set()
    for a, b in undirected:
        if order[a] > order[b]:
            a, b = b, a
        if acyclic or rng.random() < 0.8:
            edges.add((a, b))
        else:
            edges.add((b, a))
            if rng.random() < 0.3:
                edges.add((a, b))  # opposing pair, fine outside dag databases
    return LabelledGraph(frozenset(vertices), frozenset(edges), directed=True)


def random_graph_db(rng: random.Random, n_labels=8, n_txns=6, max_vertices=5,
                    directed=False, tree=False, acyclic=True) -> Database:
    txns = tuple(
        random_connected_graph(rng, n_labels, max_vertices,
                               directed=directed, tree=tree, acyclic=acyclic)
        for _ in range(n_txns))
    return Database(DIGRAPH if directed else GRAPH, txns)


def random_db(rng: random.Random, domain: str, **kw) -> Database:
    if domain == ITEMSET:
        return random_itemset_db(rng, **kw)
    if domain == SEQUENCE:
        return random_sequence_db(rng, **kw)
    if domain == GRAPH:
        return random_graph_db(rng, directed=False, **kw)
    if domain == DIGRAPH:
        return random_graph_db(rng, directed=True, **kw)
    raise ValueError(f"unknown domain {domain!r}")


def random_connected_subgraph(rng: random.Random, g: LabelledGraph,
                              min_edges=0) -> LabelledGraph:
    """Grow a connected subgraph edge by edge from a random seed edge, or
    fall back to a single vertex."""
    if not g.edges or (min_edges == 0 and rng.random() < 0.2):
        return LabelledGraph(frozenset({rng.choice(sorted(g.vertices))}),
                             frozenset(), g.directed)
    target = rng.randint(max(1, min_edges), len(g.edges))
    chosen = [rng.choice(sorted(g.edges))]
    vertices = set(chosen[0])
    while len(chosen) < target:
        frontier = [e for e in sorted(g.edges)
                    if e not in chosen and (e[0] in vertices or e[1] in vertices)]
        if not frontier:
            break
        e = rng.choice(frontier)
        chosen.append(e)
        vertices.update(e)
    return LabelledGraph(frozenset(vertices), frozenset(chosen), g.directed)


def random_subpattern(rng: random.Random, t):
    """A random pattern contained in the given transaction."""
    if isinstance(t, Itemset):
        k = rng.randint(0, len(t.items))
        return Itemset(rng.sample(t.items, k))
    if isinstance(t, Sequence):
        k = rng.randint(0, len(t.events))
        picks = sorted(rng.sample(range(len(t.events)), k))
        return Sequence(tuple(t.events[i] for i in picks))
    return random_connected_subgraph(rng, t)
