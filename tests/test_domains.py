import random
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import _one_larger, _one_smaller
from maxpat import miner
from maxpat.core import batch_patterns
from maxpat.incidence import label_array
from maxpat.domains import (
    DIGRAPH, GRAPH, ITEMSET, SEQUENCE,
    BOUNDED_DEGREE, DAG, DIRECTED, GENERAL, TREE,
    GraphClass, Itemset, LabelledGraph, Sequence,
    canonical_key, connected_components, is_acyclic, is_connected,
    item_labels, pattern_domain, pattern_leq, pattern_size, spans,
    undirected_degrees, validate_class,
)
from maxpat.errors import DomainMismatchError, PatternError
from maxpat.feasibility import connected_edge_itemset
from maxpat.synth import random_db

ints = st.integers(min_value=1, max_value=9)
int_sets = st.frozensets(ints, max_size=5)


def test_itemset_canonicalizes():
    assert Itemset([3, 1, 2, 1]).items == (1, 2, 3)
    assert Itemset([]).items == ()
    assert Itemset({(2, 5), (1, 1)}).items == ((1, 1), (2, 5))


def test_itemset_as_set():
    assert Itemset([2, 1]).as_set() == {1, 2}


@given(st.one_of(
    st.frozensets(st.integers(1, 10**6), max_size=8),
    st.frozensets(st.tuples(st.integers(1, 12), st.integers(1, 12)),
                  max_size=8)), st.data())
def test_trusted_itemset_equals_validated(labels, data):
    want = Itemset(labels)
    got = Itemset._trusted(tuple(sorted(labels)))
    assert got == want and hash(got) == hash(want)
    assert got.items == want.items and repr(got) == repr(want)
    assert got.as_set() == want.as_set() == labels

    events = tuple(data.draw(st.permutations(sorted(labels))))
    want, got = Sequence(events), Sequence._trusted(events)
    assert got == want and hash(got) == hash(want)
    assert got.events == want.events and repr(got) == repr(want)

    if not labels:
        return
    directed = data.draw(st.booleans())
    # stored edges run smaller label first when undirected
    pairs = [(u, v) for u in sorted(labels) for v in sorted(labels)
             if u < v or (directed and u != v)]
    edges = data.draw(st.frozensets(st.sampled_from(pairs))) if pairs \
        else frozenset()
    want = LabelledGraph(labels, edges, directed)
    got = LabelledGraph._trusted(labels, edges, directed)
    assert got == want and hash(got) == hash(want)
    assert repr(got) == repr(want)
    assert (got.vertices, got.edges, got.directed) == \
           (want.vertices, want.edges, want.directed)


@pytest.mark.parametrize("bad", [0, -1, True, "x", 1.5, (1,), (1, 2, 3),
                                 (0, 1), (1, "a")])
def test_bad_labels_rejected(bad):
    with pytest.raises(PatternError):
        Itemset([bad])


def test_itemset_rejects_mixed_kinds():
    with pytest.raises(PatternError):
        Itemset([1, (1, 2)])


def test_sequence_rejects_repeats():
    with pytest.raises(PatternError):
        Sequence([1, 2, 1])


def test_sequence_keeps_order():
    assert Sequence([3, 1, 2]).events == (3, 1, 2)


def test_graph_rejects_empty():
    with pytest.raises(PatternError):
        LabelledGraph(frozenset(), frozenset())


def test_graph_rejects_self_loop():
    with pytest.raises(PatternError):
        LabelledGraph(frozenset({1}), frozenset({(1, 1)}))


def test_graph_rejects_dangling_edge():
    with pytest.raises(PatternError):
        LabelledGraph(frozenset({1, 2}), frozenset({(1, 3)}))


@pytest.mark.parametrize("vertices, edge", [
    ({1, 2}, (True, 2)),            # equal to vertex 1, but not a label
    ({1, 2}, (1.0, 2)),
    ({1, 2}, (1, 0)),
    ({1, 2}, (1, (1, 2))),          # mixed kinds
    ({(1, 1), (1, 2)}, ((1, True), (1, 2))),
    ({1, 2}, (2, 2)),               # self-loop
    ({1, 2}, (1, 3)),               # outside the vertex set
    ({1, 2}, (1, 2, 3)),
    ({1, 2}, ([1], 2)),             # unhashable
])
def test_graph_rejects_bad_edges(vertices, edge):
    for directed in (False, True):
        with pytest.raises(PatternError):
            LabelledGraph(frozenset(vertices), [edge], directed)


def test_undirected_edges_normalized():
    g = LabelledGraph(frozenset({1, 2}), frozenset({(2, 1)}))
    assert g.edges == frozenset({(1, 2)})


def test_directed_keeps_orientation():
    g = LabelledGraph(frozenset({1, 2}), frozenset({(2, 1)}), directed=True)
    assert g.edges == frozenset({(2, 1)})
    # an opposing pair is two distinct arcs
    g2 = LabelledGraph(frozenset({1, 2}), frozenset({(1, 2), (2, 1)}),
                       directed=True)
    assert len(g2.edges) == 2


def test_connectivity_and_degrees():
    g = LabelledGraph(frozenset({1, 2, 3}), frozenset({(1, 2)}))
    assert not is_connected(g)
    path = LabelledGraph(frozenset({1, 2, 3}), frozenset({(1, 2), (2, 3)}))
    assert is_connected(path)
    assert undirected_degrees(path) == {1: 1, 2: 2, 3: 1}


def _bfs_connected(vertices, edges):
    # the reference: one breadth-first component that holds every vertex
    return bool(vertices) and \
        len(next(connected_components(vertices, edges))) == len(vertices)


def test_connectivity_agrees_with_bfs():
    rng = random.Random(7)
    for trial in range(3000):
        n = rng.randint(1, 8)
        if trial % 3 == 0:
            labels = rng.sample([(a, b) for a in range(1, 4)
                                 for b in range(1, 4)], n)
        else:
            labels = rng.sample(range(1, 13), n)
        directed = trial % 2 == 1
        pairs = [(u, v) for u in labels for v in labels
                 if u != v and (directed or u < v)]
        p = rng.random()
        edges = [e for e in pairs if rng.random() < p / 2]
        g = LabelledGraph(frozenset(labels), frozenset(edges), directed)
        assert is_connected(g) == _bfs_connected(g.vertices, g.edges), g

        # pair items over plain labels, with markers (a, a)
        items = {(rng.randint(1, 6), rng.randint(1, 6))
                 for _ in range(rng.randint(0, 7))}
        assert connected_edge_itemset(items) == _bfs_connected(
            item_labels(items), [(a, b) for a, b in items if a != b]), items


def test_connectivity_of_a_long_path():
    # edges 2-3, 3-4, ... come first, so union-find grows one chain whose
    # far end the last edge (1, 2) must climb: a recursive find would
    # overflow.  A list keeps that order; a graph's frozenset would not.
    n = 100_000
    vertices = frozenset(range(1, n + 1))
    links = [(i, i + 1) for i in range(2, n)]
    assert spans(vertices, links + [(1, 2)])
    assert connected_edge_itemset(links + [(1, 2)])
    assert is_connected(LabelledGraph(vertices, frozenset(links + [(1, 2)])))
    # n - 1 edges, one of them a chord, with vertex 1 left out
    assert not spans(vertices, links + [(2, 4)])
    assert not connected_edge_itemset(links + [(2, 4), (1, 1)])
    assert not is_connected(LabelledGraph(vertices,
                                          frozenset(links + [(2, 4)])))


def test_acyclicity():
    dag = LabelledGraph(frozenset({1, 2, 3}),
                        frozenset({(1, 2), (2, 3), (1, 3)}), directed=True)
    assert is_acyclic(dag)
    cyc = LabelledGraph(frozenset({1, 2}), frozenset({(1, 2), (2, 1)}),
                        directed=True)
    assert not is_acyclic(cyc)


def test_validate_class():
    star = LabelledGraph(frozenset({1, 2, 4}), frozenset({(1, 4), (2, 4)}))
    assert validate_class(star, GraphClass(TREE))
    assert validate_class(star, GraphClass(BOUNDED_DEGREE, 2))
    assert validate_class(star, GraphClass(GENERAL))
    assert not validate_class(star, GraphClass(DAG))  # not directed
    tri = LabelledGraph(frozenset({1, 2, 3}),
                        frozenset({(1, 2), (1, 3), (2, 3)}))
    assert not validate_class(tri, GraphClass(TREE))
    assert validate_class(tri, GraphClass(BOUNDED_DEGREE, 2))
    dag = LabelledGraph(frozenset({1, 2}), frozenset({(1, 2)}), directed=True)
    assert validate_class(dag, GraphClass(DAG))
    assert validate_class(dag, GraphClass(DIRECTED))
    assert not validate_class(dag, GraphClass(GENERAL))  # wrong directedness
    disc = LabelledGraph(frozenset({1, 2, 3}), frozenset({(1, 2)}))
    assert not validate_class(disc, GraphClass(GENERAL))


def test_graph_class_str():
    assert str(GraphClass(BOUNDED_DEGREE, 3)) == "bdg:3"
    assert str(GraphClass(TREE)) == "tree"


def test_pattern_domain():
    assert pattern_domain(Itemset([1])) == ITEMSET
    assert pattern_domain(Sequence([1])) == SEQUENCE
    g = LabelledGraph(frozenset({1}), frozenset())
    assert pattern_domain(g) == GRAPH
    d = LabelledGraph(frozenset({1}), frozenset(), directed=True)
    assert pattern_domain(d) == DIGRAPH


def test_leq_semantics():
    assert pattern_leq(Itemset([1]), Itemset([1, 2]))
    assert Itemset([1]) != Itemset([1, 2])           # strictly below
    assert pattern_leq(Itemset([1]), Itemset([1]))   # reflexive, not strict
    assert not pattern_leq(Itemset([3]), Itemset([1, 2]))
    assert pattern_leq(Sequence([1, 3]), Sequence([1, 2, 3]))
    assert not pattern_leq(Sequence([3, 1]), Sequence([1, 2, 3]))
    sub = LabelledGraph(frozenset({1, 2}), frozenset({(1, 2)}))
    sup = LabelledGraph(frozenset({1, 2, 3}), frozenset({(1, 2), (2, 3)}))
    assert pattern_leq(sub, sup)
    assert not pattern_leq(sup, sub)
    # vertex-only containment counts too
    assert pattern_leq(LabelledGraph(frozenset({3}), frozenset()), sup)


def test_leq_across_domains_raises():
    with pytest.raises(DomainMismatchError):
        pattern_leq(Itemset([1]), Sequence([1]))
    g = LabelledGraph(frozenset({1}), frozenset())
    d = LabelledGraph(frozenset({1}), frozenset(), directed=True)
    with pytest.raises(DomainMismatchError):
        pattern_leq(g, d)


def test_sizes_and_labels():
    assert pattern_size(Itemset([1, 2])) == 2
    assert pattern_size(Sequence([])) == 0
    g = LabelledGraph(frozenset({1, 2}), frozenset({(1, 2)}))
    assert pattern_size(g) == 3
    assert item_labels(Itemset([(1, 2), (2, 3)])) == {1, 2, 3}
    assert item_labels(g.vertices) == {1, 2}


def test_canonical_key_sorts_itemsets():
    pats = [Itemset([2]), Itemset([1, 2]), Itemset([1])]
    ordered = sorted(pats, key=canonical_key)
    assert [p.items for p in ordered] == [(1,), (1, 2), (2,)]


# containment must be a partial order on every domain

@given(int_sets, int_sets)
def test_itemset_leq_antisymmetric(a, b):
    p, q = Itemset(a), Itemset(b)
    if pattern_leq(p, q) and pattern_leq(q, p):
        assert p == q


@given(int_sets, int_sets, int_sets)
def test_itemset_leq_transitive(a, b, c):
    p, q, r = Itemset(a), Itemset(b), Itemset(c)
    if pattern_leq(p, q) and pattern_leq(q, r):
        assert pattern_leq(p, r)


seq_events = st.lists(ints, unique=True, max_size=5)


@given(seq_events, seq_events)
def test_sequence_leq_antisymmetric(a, b):
    p, q = Sequence(a), Sequence(b)
    assert pattern_leq(p, p)
    if pattern_leq(p, q) and pattern_leq(q, p):
        assert p == q


@given(seq_events, seq_events, seq_events)
def test_sequence_leq_transitive(a, b, c):
    p, q, r = Sequence(a), Sequence(b), Sequence(c)
    if pattern_leq(p, q) and pattern_leq(q, r):
        assert pattern_leq(p, r)


def _validated(q):
    if isinstance(q, Itemset):
        return Itemset(q.items)
    if isinstance(q, Sequence):
        return Sequence(q.events)
    return LabelledGraph(q.vertices, q.edges, q.directed)


def _random_level(rng, domain, alphabet):
    """A size k, and distinct itemsets or sequences of size k over
    ``alphabet``, a random share of all of them, every one when the share
    is 1."""
    k = rng.randint(1, min(3, len(alphabet)))
    make = Itemset if domain == ITEMSET else Sequence
    pick = combinations if domain == ITEMSET else permutations
    keep = rng.choice((0.4, 0.7, 1.0))
    return k, [make(t) for t in pick(sorted(alphabet), k)
               if rng.random() < keep]


def _shifted(p, shift):
    """``p`` with every label x renamed x + shift."""
    if isinstance(p, LabelledGraph):
        return LabelledGraph({v + shift for v in p.vertices},
                             {(a + shift, b + shift) for a, b in p.edges},
                             p.directed)
    return type(p)([x + shift for x in p])


def _grow(domain, level, k, alphabet):
    """The step climb's grower (``miner._grow``) on patterns: the patterns
    of ``level``, all of level ``k`` (None at level 0; a graph's level is
    its edge count + 1) over ``alphabet``, as source rows (a lone vertex v
    is the code of (v, v)), and the rows it grows as patterns
    (``core.batch_patterns`` of ``miner._row_batch``)."""
    alphabet = sorted(alphabet)
    rank = {x: i for i, x in enumerate(alphabet)}
    n = len(alphabet)

    def row(p):
        if domain in (ITEMSET, SEQUENCE):
            return [rank[x] for x in p]
        if k == 1:
            return [rank[v] * (n + 1) for v in p.vertices]
        return sorted(rank[a] * n + rank[b] for a, b in p.edges)
    width = k - 1 if domain in (GRAPH, DIGRAPH) and k > 1 else k
    rows = None if level is None else np.array(
        [row(p) for p in level], dtype=np.intp).reshape(len(level), width)
    grown = miner._grow(rows, k, n, domain)
    labels = label_array(lambda: iter(alphabet), n)
    return list(batch_patterns(domain, miner._row_batch(domain, grown,
                                                        labels)))


def _check_grown(grown, want):
    assert len(grown) == len(set(grown))
    assert set(grown) == want
    for q in grown:
        v = _validated(q)
        assert q == v and repr(q) == repr(v)


@pytest.mark.parametrize("domain", [ITEMSET, SEQUENCE, GRAPH, DIGRAPH])
def test_grow_yields_every_pattern_one_element_larger(domain):
    """The step climb's grower takes a whole level of source rows.  A graph
    level grows every pattern by one element; an itemset or a sequence one
    element larger is grown iff it is one larger than a pattern of the
    level and every one-smaller sub-pattern of it is in the level, so a
    level holding every pattern of its size grows every pattern one
    larger.  The alphabet may be empty, and its labels may lie past 2**63:
    the rows hold ranks."""
    rng = random.Random(17)
    kw = {"acyclic": False} if domain == DIGRAPH else {}  # antiparallel arcs
    tuples = domain in (ITEMSET, SEQUENCE)
    for shift in (0, 2**63):
        for i in range(30):
            alphabet = [x + shift for x in
                        rng.sample(range(1, 6), rng.randint(0, 5) if i else 0)]
            _check_grown(_grow(domain, None, 0, alphabet),
                         _one_larger(domain, None, alphabet))
            if tuples:
                k, level = _random_level(rng, domain, alphabet) \
                    if alphabet else (1, [])
                levels = {k: level}
            else:
                graphs = dict.fromkeys(
                    _shifted(p, shift) for p in random_db(
                        rng, domain, n_labels=5, n_txns=3, **kw))
                alphabet = sorted(set(alphabet).union(
                    *(p.vertices for p in graphs)))
                levels = {}
                for p in graphs:
                    k = len(p.edges) + 1
                    _check_grown(_grow(domain, [p], k, alphabet),
                                 _one_larger(domain, p, alphabet))
                    levels.setdefault(k, []).append(p)
            for k, level in levels.items():
                want = {q for p in level
                        for q in _one_larger(domain, p, alphabet)
                        if not tuples or _one_smaller(q) <= set(level)}
                _check_grown(_grow(domain, level, k, alphabet), want)


@pytest.mark.parametrize("domain", [ITEMSET, SEQUENCE])
def test_grow_needs_every_one_smaller_sub_pattern(domain):
    """A pattern is grown from the level of its one-smaller sub-patterns,
    and from no level that lacks any one of them, over labels past 2**63
    too."""
    rng = random.Random(19)
    for shift in (0, 2**63):
        for _ in range(30):
            for q in random_db(rng, domain, n_labels=6, n_txns=3):
                if len(q) < 2:
                    continue
                q = _shifted(q, shift)
                alphabet = sorted(item_labels(q))
                level = sorted(_one_smaller(q), key=canonical_key)
                assert q in _grow(domain, level, len(q) - 1, alphabet)
                for missing in level:
                    rest = [p for p in level if p != missing]
                    assert q not in _grow(domain, rest, len(q) - 1,
                                          alphabet), (q, missing)
