import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ITEMSET_ENCODINGS
from maxpat.core import Database, graph_db, itemset_db
from maxpat.domains import (
    DIGRAPH, ITEMSET, SEQUENCE, DAG, TREE,
    Itemset, LabelledGraph, Sequence, item_labels, pattern_domain,
    pattern_leq, validate_class,
)
from maxpat.errors import (
    DatabaseError, DomainMismatchError, NoPreimageError, PatternError,
    ReductionIdError,
)
from maxpat.feasibility import ALWAYS, PreimageExistsAnd
from maxpat.miner import mine_max_ffis
from maxpat.oracle import oracle_max
from maxpat.reductions import (
    _MARKERS, REDUCTION_IDS, Composed, GraphToBoundedDegree,
    GraphToEdgeItemset, ItemsetToSequence, ItemsetToStar, SequenceToDag,
    bind_from_target, bind_reduction, encode_rows, invert_database,
    lift_results, reduce_database,
)
from maxpat.synth import random_connected_graph, random_db, random_subpattern


def graph(vs, es, directed=False):
    return LabelledGraph(frozenset(vs), frozenset(es), directed=directed)


# ---------------------------------------------------------------------------
# itemset -> star tree

def test_star_forward():
    r = ItemsetToStar(4)
    g = r.forward(Itemset({1, 3}))
    assert sorted(g.vertices) == [1, 3, 4]
    assert sorted(g.edges) == [(1, 4), (3, 4)]
    assert not g.directed
    assert validate_class(g, r.target_class)


def test_star_empty_itemset_is_bare_root():
    r = ItemsetToStar(4)
    g = r.forward(Itemset())
    assert g.vertices == frozenset({4})
    assert not g.edges
    assert r.inverse(g) == Itemset()


def test_star_rejects_items_at_or_above_root():
    r = ItemsetToStar(3)
    with pytest.raises(PatternError):
        r.forward(Itemset({3}))
    with pytest.raises(PatternError):
        r.forward(Itemset({5}))


def test_star_inverse_rejects_non_stars():
    r = ItemsetToStar(4)
    assert r.inverse(graph({1, 2}, {(1, 2)})) is None       # no root
    assert r.inverse(graph({1}, set())) is None             # bare non-root
    path = graph({1, 2, 4}, {(1, 2), (2, 4)})               # not a star
    assert r.inverse(path) is None
    # a star around the wrong hub
    assert r.inverse(graph({1, 2, 3}, {(1, 3), (2, 3)})) is None
    # an isolated vertex beside the star breaks exactness
    assert r.inverse(graph({1, 2, 4}, {(1, 4)})) is None


# ---------------------------------------------------------------------------
# itemset -> ascending sequence

def test_seq_forward():
    r = ItemsetToSequence()
    assert r.forward(Itemset({9, 2, 5})).events == (2, 5, 9)
    assert r.forward(Itemset()).events == ()


def test_seq_inverse_requires_ascending():
    r = ItemsetToSequence()
    assert r.inverse(Sequence([2, 5, 9])) == Itemset({2, 5, 9})
    assert r.inverse(Sequence([5, 2])) is None
    assert r.inverse(Sequence([])) == Itemset()


# ---------------------------------------------------------------------------
# graph -> degree-3 incidence gadget

def test_bdg3_triangle_frozen():
    # stop labels are (v-1)*n + i, so paths occupy 1..3, 4..6 and 7..9
    r = GraphToBoundedDegree(3)
    tri = graph({1, 2, 3}, {(1, 2), (1, 3), (2, 3)})
    img = r.forward(tri)
    assert sorted(img.vertices) == [1, 2, 3, 4, 5, 6, 7, 8, 9]
    assert sorted(img.edges) == [
        (1, 2), (2, 3),          # path of vertex 1
        (2, 4),                  # cross for edge {1, 2}
        (3, 7),                  # cross for edge {1, 3}
        (4, 5), (5, 6),          # path of vertex 2
        (6, 8),                  # cross for edge {2, 3}
        (7, 8), (8, 9)]          # path of vertex 3
    assert r.inverse(img) == tri
    assert validate_class(img, r.target_class)
    assert r.target_class.degree_bound == 3


def test_bdg3_inverse_rejects_partial_gadgets():
    r = GraphToBoundedDegree(2)
    e = graph({1, 2}, {(1, 2)})
    img = r.forward(e)
    assert r.inverse(img) == e
    # drop one path stop (label 2 = stop (1, 2)): not an image any more
    broken = graph(set(img.vertices) - {2},
                   {ed for ed in img.edges if 2 not in ed})
    assert r.inverse(broken) is None


def test_bdg3_degree_bound_holds_on_random_graphs():
    rng = random.Random(3)
    r = GraphToBoundedDegree(6)
    from maxpat.domains import undirected_degrees
    for _ in range(50):
        g = random_connected_graph(rng, n_labels=6, max_vertices=5)
        img = r.forward(g)
        assert max(undirected_degrees(img).values()) <= 3
        assert r.inverse(img) == g


# ---------------------------------------------------------------------------
# graph -> edge itemset (undirected and directed)

def test_g2fis_triangle_frozen():
    r = GraphToEdgeItemset()
    tri = graph({1, 2, 3}, {(1, 2), (1, 3), (2, 3)})
    assert r.forward(tri).items == (
        (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))


def test_g2fis_single_edge_frozen():
    r = GraphToEdgeItemset()
    assert r.forward(graph({4, 7}, {(4, 7)})).items == ((4, 4), (4, 7), (7, 7))


def test_g2fis_bare_vertex():
    r = GraphToEdgeItemset()
    assert r.forward(graph({5}, set())).items == ((5, 5),)
    assert r.inverse(Itemset({(5, 5)})) == graph({5}, set())


def test_g2fis_inverse_needs_all_markers():
    r = GraphToEdgeItemset()
    assert r.inverse(Itemset({(1, 2)})) is None
    assert r.inverse(Itemset({(1, 1), (1, 2)})) is None
    assert r.inverse(Itemset({(1, 1), (2, 2), (1, 2)})) == graph({1, 2}, {(1, 2)})


def test_g2fis_inverse_needs_connectivity():
    r = GraphToEdgeItemset()
    assert r.inverse(Itemset({(1, 1), (2, 2)})) is None


def test_g2fis_inverse_refuses_reversed_pairs():
    # the image of the edge 1--2 holds (1, 2), never (2, 1)
    r = GraphToEdgeItemset()
    assert r.inverse(Itemset({(1, 1), (2, 2), (2, 1)})) is None
    db = itemset_db([{(1, 1), (2, 2), (2, 1)}, {(1, 1), (2, 2), (1, 2)}])
    res = mine_max_ffis(db, 1, r.induced_feasibility(ALWAYS))
    assert res.maximal == (Itemset({(1, 1), (1, 2), (2, 2)}),)


def test_dirg2fis():
    r = GraphToEdgeItemset(directed=True)
    arc = graph({1, 2}, {(2, 1)}, directed=True)
    assert r.forward(arc).items == ((1, 1), (2, 1), (2, 2))
    assert r.inverse(Itemset({(1, 1), (2, 2), (2, 1)})) == arc
    assert r.inverse(Itemset({(1, 2), (2, 3)})) is None
    assert r.source_domain == DIGRAPH and r.target_domain == ITEMSET


def test_dirg2fis_opposing_pair_roundtrip():
    r = GraphToEdgeItemset(directed=True)
    g = graph({1, 2}, {(1, 2), (2, 1)}, directed=True)
    assert r.inverse(r.forward(g)) == g


def test_g2fis_induced_feasibility_carries_connectivity():
    r = GraphToEdgeItemset()
    phi = r.induced_feasibility(ALWAYS)
    assert phi == PreimageExistsAnd(r, ALWAYS)
    assert phi.step_reduction is r


# ---------------------------------------------------------------------------
# sequence -> transitive tournament dag

def test_seq2dag_frozen():
    r = SequenceToDag()
    d = r.forward(Sequence([3, 1, 2]))
    assert d.directed
    assert sorted(d.vertices) == [1, 2, 3]
    assert sorted(d.edges) == [(1, 2), (3, 1), (3, 2)]
    assert r.inverse(d) == Sequence([3, 1, 2])
    assert validate_class(d, r.target_class)


def test_seq2dag_rejects_empty():
    with pytest.raises(PatternError):
        SequenceToDag().forward(Sequence([]))


def test_seq2dag_inverse_rejects_non_tournaments():
    r = SequenceToDag()
    assert r.inverse(graph({1, 2, 3}, {(1, 2), (2, 3)}, directed=True)) is None
    cyc = graph({1, 2}, {(1, 2), (2, 1)}, directed=True)
    assert r.inverse(cyc) is None
    assert r.inverse(graph({7}, set(), directed=True)) == Sequence([7])


# ---------------------------------------------------------------------------
# identity / composition plumbing

def test_composed_checks_domains():
    with pytest.raises(DomainMismatchError):
        Composed(ItemsetToSequence(), GraphToEdgeItemset())


def test_composed_roundtrip_and_metadata():
    chain = Composed(ItemsetToSequence(), SequenceToDag())
    p = Itemset({2, 4})
    img = chain.forward(p)
    assert img.directed and sorted(img.edges) == [(2, 4)]
    assert chain.inverse(img) == p
    assert chain.source_domain == ITEMSET
    assert chain.target_domain == DIGRAPH
    assert chain.target_class.kind == DAG
    assert chain.id == "compose:fis2seq,seq2dag"


def test_composed_needs_two_links_and_stays_flat():
    for links in [(), (ItemsetToSequence(),)]:
        with pytest.raises(ReductionIdError):
            Composed(*links)
    chain = Composed(Composed(ItemsetToSequence(), SequenceToDag()),
                     GraphToEdgeItemset(directed=True))
    assert chain.links == (ItemsetToSequence(), SequenceToDag(),
                           GraphToEdgeItemset(directed=True))
    assert chain == bind_reduction(chain.id)


def test_a_pattern_domain_is_checked_once(monkeypatch):
    """A chain checks a pattern's domain where it enters, not once per
    link, and the database-level maps check no transaction's domain; a
    pattern of the wrong domain is still refused."""
    checks = []

    def counting(p):
        checks.append(p)
        return pattern_domain(p)

    db = itemset_db([{1, 2}, {2, 3}, {1, 2}])
    chain = bind_reduction("compose:fis2tree,g2bdg3,g2fis", db)
    monkeypatch.setattr("maxpat.reductions.pattern_domain", counting)
    image = chain.forward(Itemset({1, 2}))
    assert len(checks) == 1
    checks.clear()
    assert chain.inverse(image) == Itemset({1, 2})
    assert sorted(chain.image_items(Itemset({1, 2}))) == list(image.items)
    assert len(checks) == 2
    checks.clear()
    reduce_database(chain, db)
    encode_rows(chain, db)
    assert checks == []
    for call, wrong in [(chain.forward, Sequence([1, 2])),
                        (chain.image_items, graph({1, 2}, {(1, 2)})),
                        (chain.inverse, Sequence([1, 2]))]:
        with pytest.raises(DomainMismatchError):
            call(wrong)


def test_reduce_database_and_lift():
    r = GraphToEdgeItemset()
    db = graph_db([graph({1, 2}, {(1, 2)}), graph({2, 3}, {(2, 3)})])
    enc = reduce_database(r, db)
    assert enc.domain == ITEMSET
    assert enc.transactions[0].items == ((1, 1), (1, 2), (2, 2))
    lifted = lift_results(r, enc.transactions)
    assert lifted == (graph({1, 2}, {(1, 2)}), graph({2, 3}, {(2, 3)}))


def test_reduce_database_wraps_transaction_errors():
    chain = Composed(ItemsetToSequence(), SequenceToDag())
    db = itemset_db([{1}, set()])
    with pytest.raises(DatabaseError) as ei:
        reduce_database(chain, db)
    assert "transaction 1" in str(ei.value)


def _with_repeats(rng, db, n_txns=40):
    """``n_txns`` transactions drawn from ``db`` with replacement, each one
    rebuilt so that equal transactions are distinct objects."""
    return Database(db.domain, tuple(_revalidated(rng.choice(db.transactions))
                                     for _ in range(n_txns)))


@pytest.mark.parametrize("rid", ["g2fis", "dirg2fis", "seq2dag",
                                 "compose:seq2dag,dirg2fis", "fis2tree"])
def test_reduce_database_maps_each_distinct_transaction_once(rid):
    """The image database equals the validating per-transaction
    construction, and equal transactions share one image."""
    rng = random.Random(rid)
    domain = bind_reduction(rid).source_domain
    kw = {"allow_empty": False} if domain == SEQUENCE else {}
    shared = 0
    for _ in range(8):
        db = _with_repeats(rng, random_db(rng, domain, n_txns=6, **kw))
        r = bind_reduction(rid, db)
        got = reduce_database(r, db)
        want = Database(r.target_domain,
                        tuple(r.forward(t) for t in db), r.target_class)
        assert got == want
        first = {}
        for t, image in zip(db, got.transactions):
            assert first.setdefault(t, image) is image
        assert len({id(x) for x in got.transactions}) == len(set(db))
        shared += len(db) - len(set(db))
    assert shared > 100


@pytest.mark.parametrize("rid, txns, first", [
    ("g2fis", [graph({(1, 2)}, set()), graph({(1, 2), (2, 3)},
                                             {((1, 2), (2, 3))}),
               graph({(1, 2)}, set())], 0),
    ("seq2dag", [Sequence([1, 2]), Sequence(), Sequence([2]), Sequence(),
                 Sequence()], 1),
])
def test_reduce_database_reports_a_repeated_rejection_at_its_first_index(
        rid, txns, first):
    r = bind_reduction(rid)
    db = Database(r.source_domain, tuple(txns))
    with pytest.raises(DatabaseError) as ei:
        reduce_database(r, db)
    assert ei.value.index == first


def test_reduce_database_tags_target_class():
    r = ItemsetToStar(5)
    enc = reduce_database(r, itemset_db([{1, 2}]))
    assert enc.graph_class is not None and enc.graph_class.kind == TREE


def test_lift_results_raises_on_non_images():
    r = GraphToEdgeItemset()
    with pytest.raises(NoPreimageError):
        lift_results(r, [Itemset({(1, 2)})])


def test_bind_reduction_parameters_come_from_the_universe():
    db = itemset_db([{1, 4}, {2}])
    r = bind_reduction("fis2tree", db)
    assert r.root == 5
    gdb = graph_db([graph({2, 6}, {(2, 6)})])
    r2 = bind_reduction("g2bdg3", gdb)
    assert r2.n == 6


def test_bind_reduction_compose_left_fold():
    db = itemset_db([{1, 2}, {1, 2}])
    chain = bind_reduction("compose:fis2seq,seq2dag,dirg2fis", db)
    assert chain.source_domain == ITEMSET
    assert chain.target_domain == ITEMSET
    img = chain.forward(Itemset({1, 2}))
    assert img.items == ((1, 1), (1, 2), (2, 2))
    assert chain.inverse(img) == Itemset({1, 2})
    # the id flattens so that it parses back through bind_reduction
    assert chain.id == "compose:fis2seq,seq2dag,dirg2fis"
    again = bind_reduction(chain.id, db)
    assert again.forward(Itemset({1, 2})) == img


def test_bind_reduction_rejects_unknown():
    db = itemset_db([{1}])
    with pytest.raises(ValueError):
        bind_reduction("nope", db)
    assert set(REDUCTION_IDS) == {
        "fis2tree", "fis2seq", "g2bdg3", "g2fis", "dirg2fis", "seq2dag"}


@pytest.mark.parametrize("rid", REDUCTION_IDS + (
    "compose:fis2seq,seq2dag,dirg2fis", "compose:fis2tree,g2bdg3,g2fis"))
def test_registry_round_trip(rid):
    """Every registry entry, bound from a source database, maps it to a
    database that inverts back to it; binding from that image gives the
    same reduction with the same parameters."""
    rng = random.Random(rid)
    domain = bind_reduction(rid).source_domain
    for _ in range(12):
        # chains through seq2dag cannot picture an empty transaction
        kw = ({"allow_empty": "seq2dag" not in rid}
              if domain in (ITEMSET, SEQUENCE) else {})
        db = random_db(rng, domain, **kw)
        r = bind_reduction(rid, db)
        image = reduce_database(r, db)
        assert invert_database(rid, image) == db
        assert bind_from_target(rid, image) == r


def _near(rng, q):
    """``q`` and the valid target patterns one edit away from it: an item,
    edge or event dropped or reversed, one added, a sequence shuffled."""
    if isinstance(q, LabelledGraph):
        xs = sorted(q.vertices)
    else:
        xs = list(q.items if isinstance(q, Itemset) else q.events)
    new = max(item_labels(xs), default=0) + 1
    picks = range(1, new + 1)
    if isinstance(q, Itemset):
        make = Itemset
        edits = [xs[:i] + xs[i + 1:] for i in range(len(xs))]
        edits += [xs[:i] + [x[::-1]] + xs[i + 1:]
                  for i, x in enumerate(xs) if isinstance(x, tuple)]
        edits.append(xs + [(rng.choice(picks), rng.choice(picks))])
    elif isinstance(q, Sequence):
        make = Sequence
        edits = [xs[:i] + xs[i + 1:] for i in range(len(xs))]
        edits += [xs[:i] + [xs[i + 1], xs[i]] + xs[i + 2:]
                  for i in range(len(xs) - 1)]
        edits += [xs[::-1], rng.sample(xs, len(xs)), xs + [new], [new] + xs]
    else:
        def make(e):
            return LabelledGraph(frozenset(e[0]), frozenset(e[1]), q.directed)
        es = sorted(q.edges)
        edits = [(xs, es[:i] + es[i + 1:]) for i in range(len(es))]
        edits += [(xs, es[:i] + [e[::-1]] + es[i + 1:])
                  for i, e in enumerate(es)]
        edits += [([v for v in xs if v != w],
                   [e for e in es if w not in e]) for w in xs]
        edits.append((xs, es + [(rng.choice(xs), rng.choice(xs))]))
        edits.append((xs + [new], es + [(rng.choice(xs), new)]))
    out = [q]
    for e in edits:
        try:
            out.append(make(e))
        except PatternError:
            pass  # not a pattern at all
    return out


@pytest.mark.parametrize("rid", REDUCTION_IDS + (
    "compose:fis2seq,seq2dag,dirg2fis", "compose:fis2tree,g2bdg3,g2fis"))
def test_inverse_is_none_off_the_image(rid):
    """Guarantee 3 on images and on patterns one edit away from them:
    inverse(q) is None or a pattern whose image is q itself."""
    rng = random.Random(rid)
    domain = bind_reduction(rid).source_domain
    decoded = refused = 0
    for _ in range(12):
        kw = ({"allow_empty": "seq2dag" not in rid}
              if domain in (ITEMSET, SEQUENCE) else {})
        db = random_db(rng, domain, **kw)
        r = bind_reduction(rid, db)
        for t in db.transactions:
            for q in _near(rng, r.forward(t)):
                p = r.inverse(q)
                assert p is None or r.forward(p) == q, (q, p)
                decoded += p is not None
                refused += p is None
    assert decoded and refused


def _revalidated(p):
    """``p`` built again from its fields by the validating constructor."""
    if isinstance(p, Itemset):
        return Itemset(p.items)
    if isinstance(p, Sequence):
        return Sequence(p.events)
    return LabelledGraph(p.vertices, p.edges, p.directed)


@pytest.mark.parametrize("rid", ["fis2tree", "fis2seq", "g2bdg3"])
def test_unvalidated_results_equal_validated_construction(rid):
    """These maps build their results without validating them again, from
    patterns that were validated: every image, and every preimage of a
    pattern one edit away from an image, must equal its validating
    construction, with equal hash and repr."""
    rng = random.Random(rid)
    checked = 0
    for _ in range(12):
        db = random_db(rng, bind_reduction(rid).source_domain)
        r = bind_reduction(rid, db)
        for t in db.transactions:
            image = r.forward(t)
            for x in [image, *map(r.inverse, _near(rng, image))]:
                if x is None:
                    continue
                want = _revalidated(x)
                assert x == want and hash(x) == hash(want), x
                assert repr(x) == repr(want)
                checked += 1
    assert checked > 50


def test_forward_rejects_wrong_domain():
    with pytest.raises(DomainMismatchError):
        ItemsetToSequence().forward(Sequence([1]))
    # image_items checks the source domain as forward does
    for directed in (False, True):
        r = GraphToEdgeItemset(directed=directed)
        for p in (graph({1, 2}, {(1, 2)}, directed=not directed),
                  Itemset([1, 2]), Sequence([1, 2])):
            for encode in (r.forward, r.image_items):
                with pytest.raises(DomainMismatchError):
                    encode(p)


# ---------------------------------------------------------------------------
# order preservation / reflection, property-style

small_sets = st.frozensets(st.integers(1, 6), max_size=4)


@given(small_sets, small_sets)
def test_star_preserves_and_reflects_order(a, b):
    r = ItemsetToStar(7)
    p, q = Itemset(a), Itemset(b)
    assert pattern_leq(p, q) == pattern_leq(r.forward(p), r.forward(q))


@given(small_sets, small_sets)
def test_seq_preserves_and_reflects_order(a, b):
    r = ItemsetToSequence()
    p, q = Itemset(a), Itemset(b)
    assert pattern_leq(p, q) == pattern_leq(r.forward(p), r.forward(q))


@given(st.lists(st.integers(1, 6), unique=True, min_size=1, max_size=5),
       st.lists(st.integers(1, 6), unique=True, min_size=1, max_size=5))
def test_seq2dag_preserves_and_reflects_order(xs, ys):
    r = SequenceToDag()
    p, q = Sequence(xs), Sequence(ys)
    assert pattern_leq(p, q) == pattern_leq(r.forward(p), r.forward(q))


@settings(max_examples=40)
@given(st.randoms(use_true_random=False))
def test_graph_reductions_preserve_and_reflect_order(pyr):
    g = random_connected_graph(pyr, n_labels=5, max_vertices=4)
    h = random_connected_graph(pyr, n_labels=5, max_vertices=4)
    for r in (GraphToBoundedDegree(5), GraphToEdgeItemset()):
        assert pattern_leq(g, h) == pattern_leq(r.forward(g), r.forward(h))
        assert r.inverse(r.forward(g)) == g


@settings(max_examples=40)
@given(st.randoms(use_true_random=False))
def test_dirg2fis_preserves_and_reflects_order(pyr):
    r = GraphToEdgeItemset(directed=True)
    g = random_connected_graph(pyr, n_labels=5, max_vertices=4, directed=True)
    h = random_connected_graph(pyr, n_labels=5, max_vertices=4, directed=True)
    assert pattern_leq(g, h) == pattern_leq(r.forward(g), r.forward(h))
    assert r.inverse(r.forward(g)) == g


@settings(max_examples=60)
@given(st.randoms(use_true_random=False), st.booleans())
def test_edge_itemset_forward_equals_validated_construction(pyr, directed):
    # forward skips re-validating labels the graph already checked; its
    # image must equal the one the validating constructor builds
    r = GraphToEdgeItemset(directed=directed)
    g = random_connected_graph(pyr, n_labels=7, max_vertices=6,
                               max_extra_edges=4, directed=directed,
                               acyclic=False)
    want = Itemset(tuple((v, v) for v in g.vertices) + tuple(g.edges))
    got = r.forward(g)
    assert got == want and got.items == want.items
    assert hash(got) == hash(want)


@pytest.mark.parametrize("g, items", [
    (graph({4, 1, 3, 2}, {(1, 2), (2, 3), (1, 3), (3, 4)}),
     ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4))),
    # both arcs of a pair
    (graph({1, 2, 3}, {(1, 2), (2, 1), (2, 3)}, directed=True),
     ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 3))),
    # arcs into smaller labels sort before their source's own marker
    (graph({1, 2, 3}, {(3, 1), (3, 2), (2, 1)}, directed=True),
     ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3))),
    (graph({5, 9}, {(9, 5), (5, 9)}, directed=True),
     ((5, 5), (5, 9), (9, 5), (9, 9))),
])
def test_edge_itemset_forward_frozen_against_validated_construction(g, items):
    r = GraphToEdgeItemset(directed=g.directed)
    got = r.forward(g)
    want = Itemset([(v, v) for v in g.vertices] + list(g.edges))
    assert got.items == want.items == items
    assert got == want and hash(got) == hash(want)


@pytest.mark.parametrize("directed", [False, True])
def test_edge_itemset_forward_rejects_pair_labels(directed):
    g = graph({(1, 2), (2, 3)}, {((1, 2), (2, 3))}, directed=directed)
    with pytest.raises(PatternError):
        GraphToEdgeItemset(directed=directed).forward(g)


def _edge_itemset(r, p):
    """The image of ``p`` under ``r``, a reduction ending in an edge-itemset
    link, with that link spelled out through the validating constructor:
    a marker pair per vertex and one pair per edge."""
    for link in r.links[:-1] if isinstance(r, Composed) else ():
        p = link.forward(p)
    return Itemset([(v, v) for v in p.vertices] + list(p.edges))


@pytest.mark.parametrize("rid", ITEMSET_ENCODINGS)
def test_image_items_list_the_forward_image(rid):
    """``image_items`` lists exactly the items of ``forward``, for seeded
    transactions and sub-patterns of them, and rejects what ``forward``
    rejects."""
    rng = random.Random(rid)
    domain = bind_reduction(rid).source_domain
    listed = rejected = 0
    for _ in range(10):
        db = random_db(rng, domain, n_txns=6)
        r = bind_reduction(rid, db)
        for p in [*db, *(random_subpattern(rng, t) for t in db)]:
            try:
                want = r.forward(p).items
            except PatternError:
                with pytest.raises(PatternError):
                    r.image_items(p)
                rejected += 1
                continue
            assert tuple(sorted(r.image_items(p))) == want
            assert want == _edge_itemset(r, p).items
            listed += 1
    assert listed > 50
    # only the sequence chain has a pattern without an image: <>
    assert bool(rejected) == rid.startswith("compose:fis2seq")


@pytest.mark.parametrize("directed", [False, True])
def test_edge_itemset_image_items_reject_pair_labels(directed):
    g = graph({(1, 2), (2, 3)}, {((1, 2), (2, 3))}, directed=directed)
    markers = dict(_MARKERS)
    with pytest.raises(PatternError):
        GraphToEdgeItemset(directed=directed).image_items(g)
    assert _MARKERS == markers  # rejected before any label got a marker


# support transfer: supp(p, db) == supp(f(p), f(db)) for every reduction,
# which is the fact the whole mining pipeline stands on

def test_support_transfer_g2fis():
    from maxpat.core import support
    rng = random.Random(5)
    r = GraphToEdgeItemset()
    for _ in range(30):
        txns = [random_connected_graph(rng, n_labels=5, max_vertices=4)
                for _ in range(4)]
        db = graph_db(txns)
        enc = reduce_database(r, db)
        p = random_connected_graph(rng, n_labels=5, max_vertices=3)
        assert support(p, db) == support(r.forward(p), enc)


def test_max_count_preserved_small_chain():
    """Mining the image with the induced predicate finds exactly the images
    of the source answers (spot check; the acceptance suite hammers this)."""
    db = itemset_db([{1, 2}, {1, 2}, {2, 3}])
    chain = bind_reduction("compose:fis2seq,seq2dag,dirg2fis", db)
    enc = reduce_database(chain, db)
    src = oracle_max(db, 2, ALWAYS)
    tgt = oracle_max(enc, 2, chain.induced_feasibility(ALWAYS))
    assert len(src) == len(tgt)
    assert lift_results(chain, tgt) == src
