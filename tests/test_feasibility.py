from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maxpat.domains import Itemset, Sequence
from maxpat.errors import DomainMismatchError
from maxpat.feasibility import (
    ALWAYS, CONNECTED_EDGES, And, PreimageExistsAnd,
    connected_edge_itemset, describe, evaluate, item_labels,
)
from maxpat.reductions import GraphToEdgeItemset, ItemsetToSequence


def test_always():
    assert evaluate(ALWAYS, Itemset())
    assert evaluate(ALWAYS, Sequence([1, 2]))


def test_connected_examples():
    assert connected_edge_itemset([(1, 2), (2, 3)])
    assert not connected_edge_itemset([(1, 2), (3, 4)])
    assert connected_edge_itemset([(1, 1)])          # bare marker
    assert connected_edge_itemset([(1, 1), (1, 2), (2, 2)])
    assert not connected_edge_itemset([(1, 1), (2, 2)])
    assert not connected_edge_itemset([])            # empty is infeasible


def test_pruned_predicates_have_no_step_reduction():
    """The predicates that prune the join climb are the split-stable ones;
    every preimage predicate, alone or in a conjunction, names its
    reduction instead."""
    for phi in (ALWAYS, CONNECTED_EDGES, And((ALWAYS, CONNECTED_EDGES)),
                And((CONNECTED_EDGES, And((ALWAYS, CONNECTED_EDGES))))):
        assert phi.step_reduction is None, phi
    r = GraphToEdgeItemset()
    pre = PreimageExistsAnd(r, ALWAYS)
    assert pre.step_reduction is r
    assert And((CONNECTED_EDGES, pre)).step_reduction is r
    assert And((ALWAYS, And((pre, CONNECTED_EDGES)))).step_reduction is r


def test_non_predicates_are_refused():
    for bad in (None, "always", (ALWAYS,), lambda p: True):
        with pytest.raises(TypeError):
            evaluate(bad, Itemset())
        with pytest.raises(TypeError):
            describe(bad)


def test_connected_edges_wants_pair_items():
    with pytest.raises(DomainMismatchError):
        evaluate(CONNECTED_EDGES, Itemset([1, 2]))
    with pytest.raises(DomainMismatchError):
        evaluate(CONNECTED_EDGES, Sequence([(1, 2)]))


def test_split_stability_is_real_not_just_a_flag():
    """Every feasible set of size m must contain a feasible subset of each
    smaller positive size.  Exhaustive over a 4-label edge universe."""
    pool = [(a, b) for a in range(1, 5) for b in range(a, 5)]
    for m in range(1, 5):
        for items in combinations(pool, m):
            if not connected_edge_itemset(items):
                continue
            for k in range(1, m):
                assert any(connected_edge_itemset(sub)
                           for sub in combinations(items, k)), items


def test_mergeable_soundness_exhaustive():
    """The connectivity merge hint, asked as the join climb asks it (every
    pair at once, over label bitsets), may only reject a pair whose union
    really is infeasible, and accepts only pairs whose label sets
    intersect; checked exhaustively for all pairs of connected sets over 4
    labels."""
    pool = [(a, b) for a in range(1, 5) for b in range(a, 5)]
    sets = [frozenset(c) for k in (1, 2) for c in combinations(pool, k)
            if connected_edge_itemset(c)]
    labels = np.array([[sum(1 << (x - 1) for x in item_labels(s))]
                       for s in sets], dtype=np.uint64)
    a, b = (ix.ravel() for ix in np.indices((len(sets), len(sets))))
    hint = CONNECTED_EDGES.merge_hint(labels, a, b)
    assert hint.shape == a.shape
    for i, j, ok in zip(a, b, hint):
        if ok:
            assert item_labels(sets[i]) & item_labels(sets[j]), (i, j)
        else:
            assert not connected_edge_itemset(sets[i] | sets[j]), (i, j)


def test_item_labels():
    assert item_labels([(1, 2), (2, 3)]) == {1, 2, 3}
    assert item_labels([(4, 4)]) == {4}
    assert item_labels([7]) == {7}


def test_preimage_predicate():
    r = GraphToEdgeItemset()
    phi = PreimageExistsAnd(r, ALWAYS)
    assert evaluate(phi, Itemset([(1, 1), (2, 2), (1, 2)]))
    assert not evaluate(phi, Itemset([(1, 2)]))       # markers missing
    assert not evaluate(phi, Itemset([(1, 1), (2, 2)]))  # decodes disconnected
    # the induced predicate is the bare preimage test, accepting exactly
    # the images
    seq = ItemsetToSequence().induced_feasibility(ALWAYS)
    assert isinstance(seq, PreimageExistsAnd)
    assert evaluate(seq, Sequence([1, 3]))
    assert not evaluate(seq, Sequence([3, 1]))


def test_preimage_domain_check():
    phi = PreimageExistsAnd(GraphToEdgeItemset(), ALWAYS)
    with pytest.raises(DomainMismatchError):
        evaluate(phi, Sequence([1]))


def test_and_combination():
    phi = And((CONNECTED_EDGES, PreimageExistsAnd(GraphToEdgeItemset(), ALWAYS)))
    assert evaluate(phi, Itemset([(1, 1), (2, 2), (1, 2)]))
    assert not evaluate(phi, Itemset([(1, 1), (2, 2)]))


def test_prune_proxy_encloses_the_decodable_family():
    """Everything the preimage predicate accepts spells a connected graph,
    so it also passes the connectivity predicate."""
    phi = PreimageExistsAnd(GraphToEdgeItemset(), ALWAYS)
    pool = [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (1, 3)]
    for k in range(1, len(pool) + 1):
        for sub in combinations(pool, k):
            p = Itemset(sub)
            if evaluate(phi, p):
                assert evaluate(CONNECTED_EDGES, p)


def test_describe():
    assert describe(ALWAYS) == "always"
    assert describe(CONNECTED_EDGES) == "connected-edges"
    phi = PreimageExistsAnd(GraphToEdgeItemset(), ALWAYS)
    assert describe(phi) == "preimage(g2fis)"
    assert "connected-edges" in describe(And((CONNECTED_EDGES, phi)))


@given(st.frozensets(st.tuples(st.integers(1, 5), st.integers(1, 5)),
                     min_size=1, max_size=4))
def test_connectivity_matches_component_count(items):
    items = frozenset(tuple(sorted(t)) for t in items)
    labels = item_labels(items)
    # independent union-find over the pair labels
    parent = {x: x for x in labels}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in items:
        parent[find(a)] = find(b)
    n_comp = len({find(x) for x in labels})
    assert connected_edge_itemset(items) == (n_comp == 1)
