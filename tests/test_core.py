import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maxpat.core import (
    Database, batch_patterns, check_tau, graph_db, is_frequent,
    is_maximal_feasible, itemset_db, pattern_batch, sequence_db, support,
)
from maxpat.domains import (
    DIGRAPH, GRAPH, ITEMSET, SEQUENCE, BOUNDED_DEGREE, DAG, TREE,
    GraphClass, Itemset, LabelledGraph, Sequence,
)
from maxpat.errors import DatabaseError, DomainMismatchError
from maxpat.feasibility import ALWAYS, CONNECTED_EDGES
from maxpat.incidence import Incidence
from maxpat.synth import random_db


def edge(u, v):
    return LabelledGraph(frozenset({u, v}), frozenset({(u, v)}))


def test_check_tau():
    assert check_tau(1) == 1
    assert check_tau(7) == 7
    for bad in (0, -3, True, 1.0, "2"):
        with pytest.raises((TypeError, ValueError)):
            check_tau(bad)


def test_database_validates_domain_tag():
    with pytest.raises(ValueError):
        Database("bogus", ())
    with pytest.raises(ValueError):
        # class on a non-graph domain is a caller bug, not a data problem
        Database("itemset", (), GraphClass(TREE))


def test_database_rejects_wrong_domain_transaction():
    with pytest.raises(DatabaseError) as ei:
        Database("itemset", (Itemset([1]), Sequence([2])))
    assert "transaction 1" in str(ei.value)


def test_database_rejects_disconnected_graph():
    disc = LabelledGraph(frozenset({1, 2, 3}), frozenset({(1, 2)}))
    with pytest.raises(DatabaseError):
        graph_db([disc])


def test_database_rejects_mixed_label_kinds_across_transactions():
    with pytest.raises(DatabaseError):
        itemset_db([{1, 2}, {(1, 2)}])


def test_database_enforces_graph_class():
    tri = LabelledGraph(frozenset({1, 2, 3}),
                        frozenset({(1, 2), (1, 3), (2, 3)}))
    graph_db([tri], GraphClass(BOUNDED_DEGREE, 2))  # fine
    with pytest.raises(DatabaseError):
        graph_db([tri], GraphClass(TREE))
    arc = LabelledGraph(frozenset({1, 2}), frozenset({(1, 2)}), directed=True)
    Database(DIGRAPH, (arc,), GraphClass(DAG))
    with pytest.raises(DatabaseError):
        Database(GRAPH, (arc,))


def test_universe():
    db = itemset_db([{1, 2}, {2, 5}])
    assert db.universe == {1, 2, 5}
    gdb = graph_db([edge(1, 2)])
    assert gdb.universe == {1, 2}


def _relabelled(p, label):
    """``p`` with every plain label x renamed ``label(x)``."""
    if isinstance(p, LabelledGraph):
        return LabelledGraph({label(v) for v in p.vertices},
                             {(label(a), label(b)) for a, b in p.edges},
                             p.directed)
    return type(p)([label(x) for x in p])


def _interleaved(incidence, rng, ordered):
    """``incidence`` with its entries shuffled, the rows interleaved; with
    ``ordered`` each row's slots take its entries in order."""
    order = np.array(rng.sample(range(len(incidence.rows)),
                                len(incidence.rows)), dtype=np.intp)
    if ordered:
        slots = np.argsort(incidence.rows[order], kind="stable")
        order[slots] = np.argsort(incidence.rows, kind="stable")
    return Incidence(tuple(c[order] for c in incidence.labels),
                     incidence.rows[order], incidence.n_rows)


@pytest.mark.parametrize("kind", ["plain", "huge", "pairs", "huge-pairs"])
@pytest.mark.parametrize("domain", [ITEMSET, SEQUENCE, GRAPH, DIGRAPH])
def test_batch_patterns_inverts_pattern_batch(domain, kind):
    """``batch_patterns`` reads back the patterns that ``pattern_batch``
    reads, entry for entry, on plain labels and label pairs, past int64
    too, and empty itemsets and sequences; so it does with the rows of
    the batch interleaved and each row's entries shuffled, but for a
    sequence's, which keep their order.  Equal labels share one
    object."""
    rng = random.Random(f"{domain}-{kind}")
    shift = 2**64 if "huge" in kind else 0

    def label(x):
        return (x + shift, 2 * x + shift) if "pairs" in kind else x + shift
    for _ in range(6):
        ps = tuple(_relabelled(p, label) for p in random_db(rng, domain))
        batch = pattern_batch(domain, ps)
        got = batch_patterns(domain, batch)
        assert got == ps and list(map(repr, got)) == list(map(repr, ps))
        parts = batch if domain in (GRAPH, DIGRAPH) else (batch,)
        mixed = [_interleaved(b, rng, domain == SEQUENCE) for b in parts]
        assert batch_patterns(domain, mixed if len(mixed) == 2
                              else mixed[0]) == ps
        if domain in (ITEMSET, SEQUENCE):
            entries = [x for p in got for x in p]
            assert len(set(map(id, entries))) == len(set(entries))


def test_support_is_multiset_count():
    db = itemset_db([{1, 2}, {1, 2}, {2}])
    assert support(Itemset([1, 2]), db) == 2
    assert support(Itemset([2]), db) == 3
    assert support(Itemset(), db) == 3
    assert support(Itemset([9]), db) == 0


def test_support_domain_mismatch():
    db = itemset_db([{1}])
    with pytest.raises(DomainMismatchError):
        support(Sequence([1]), db)


def test_sequence_support_respects_order():
    db = sequence_db([(1, 2, 3), (3, 2, 1)])
    assert support(Sequence([1, 3]), db) == 1
    assert support(Sequence([2]), db) == 2
    assert support(Sequence([]), db) == 2


def test_graph_support():
    path = LabelledGraph(frozenset({1, 2, 3}), frozenset({(1, 2), (2, 3)}))
    db = graph_db([path, edge(1, 2)])
    assert support(edge(1, 2), db) == 2
    assert support(edge(2, 3), db) == 1
    assert support(LabelledGraph(frozenset({3}), frozenset()), db) == 1


def test_is_frequent():
    db = itemset_db([{1}, {1}, {2}])
    assert is_frequent(Itemset([1]), db, 2)
    assert not is_frequent(Itemset([2]), db, 2)


def test_is_maximal_feasible():
    db = itemset_db([{1, 2}, {1, 2}, {2, 3}])
    assert is_maximal_feasible(Itemset([1, 2]), db, 2, ALWAYS)
    assert not is_maximal_feasible(Itemset([2]), db, 2, ALWAYS)   # not maximal
    assert not is_maximal_feasible(Itemset([3]), db, 2, ALWAYS)   # not frequent
    assert is_maximal_feasible(Itemset([2]), db, 3, ALWAYS)


def test_is_maximal_feasible_with_connectivity():
    db = itemset_db([{(1, 2), (3, 4)}, {(1, 2), (3, 4)}])
    # the full transaction is frequent but disconnected, so each edge wins
    assert is_maximal_feasible(Itemset([(1, 2)]), db, 2, CONNECTED_EDGES)
    assert not is_maximal_feasible(Itemset([(1, 2), (3, 4)]), db, 2,
                                   CONNECTED_EDGES)


@given(st.frozensets(st.integers(1, 6), max_size=4),
       st.frozensets(st.integers(1, 6), max_size=4))
def test_support_antimonotone(a, b):
    """p <= q forces supp(p) >= supp(q) on a fixed database."""
    db = itemset_db([{1, 2, 3}, {2, 3, 4}, {1, 3, 5}, {2, 4, 6}])
    p, q = Itemset(a & b), Itemset(a | b)
    assert support(p, db) >= support(q, db)
