import random
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxpat import reductions
from maxpat.core import Database, graph_db, itemset_db, pattern_batch
from maxpat.domains import (
    DIGRAPH, GRAPH, ITEMSET, SEQUENCE, DAG, TREE,
    Itemset, LabelledGraph, Sequence, item_labels, pattern_domain,
    pattern_leq, pattern_size, validate_class,
)
from maxpat.errors import (
    DatabaseError, DomainMismatchError, NoPreimageError, PatternError,
    ReductionIdError,
)
from maxpat.feasibility import ALWAYS, PreimageExistsAnd
from maxpat.incidence import Incidence
from maxpat.miner import mine_max_ffis
from maxpat.oracle import enumerate_patterns, oracle_max
from maxpat.reductions import (
    REDUCTION_IDS, Composed, GraphToBoundedDegree,
    GraphToEdgeItemset, ItemsetToSequence, ItemsetToStar, Reduction,
    SequenceToDag,
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


def test_bdg3_inverse_needs_connectivity():
    # two vertices' paths and no cross edge: the image of a disconnected
    # graph, which is no graph pattern
    r = GraphToBoundedDegree(2)
    assert r.inverse(graph({1, 2, 3, 4}, {(1, 2), (3, 4)})) is None


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
    assert chain.forward(Itemset({1, 2})) == image
    assert len(checks) == 2
    checks.clear()
    image_db = reduce_database(chain, db)
    encode_rows(chain, db)
    assert invert_database(chain.id, image_db) == db
    assert checks == []
    for call, wrong in [(chain.forward, Sequence([1, 2])),
                        (chain.forward, graph({1, 2}, {(1, 2)})),
                        (chain.inverse, Sequence([1, 2])),
                        (partial(invert_database, chain.id),
                         Database(GRAPH, ()))]:
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
    construction, on databases where most transactions repeat."""
    rng = random.Random(rid)
    domain = bind_reduction(rid).source_domain
    kw = {"allow_empty": False} if domain == SEQUENCE else {}
    repeats = 0
    for _ in range(8):
        db = _with_repeats(rng, random_db(rng, domain, n_txns=6, **kw))
        r = bind_reduction(rid, db)
        got = reduce_database(r, db)
        want = Database(r.target_domain,
                        tuple(r.forward(t) for t in db), r.target_class)
        assert got == want
        repeats += len(db) - len(set(db))
    assert repeats > 100


@pytest.mark.parametrize("rid", REDUCTION_IDS + ("compose:fis2tree,g2fis",))
def test_reduce_database_of_an_empty_database(rid):
    r = bind_reduction(rid)
    got = reduce_database(r, Database(r.source_domain))
    assert got == Database(r.target_domain, (), r.target_class)
    assert len(got) == 0


@pytest.mark.parametrize("rid, txns, first", [
    ("g2fis", [graph({(1, 2)}, set()), graph({(1, 2), (2, 3)},
                                             {((1, 2), (2, 3))}),
               graph({(1, 2)}, set())], 0),
    ("seq2dag", [Sequence([1, 2]), Sequence(), Sequence([2]), Sequence(),
                 Sequence()], 1),
    ("fis2tree", [Itemset(), Itemset([2]), Itemset([1, 3])], 1),
    ("g2bdg3", [graph({1}, set()), graph({1, 2}, {(1, 2)}),
                graph({3}, set())], 1),
])
def test_reduce_database_reports_a_repeated_rejection_at_its_first_index(
        rid, txns, first):
    r = bind_reduction(rid)
    db = Database(r.source_domain, tuple(txns))
    with pytest.raises(DatabaseError) as ei:
        reduce_database(r, db)
    assert ei.value.index == first


@pytest.mark.parametrize("rid", ["g2fis", "compose:seq2dag,dirg2fis",
                                 "fis2tree"])
def test_invert_database_inverts_each_distinct_transaction_once(
        rid, monkeypatch):
    """Equal transactions on the target side, as distinct objects, are
    inverted once and share one preimage, and the database inverts back to
    the source."""
    calls = []

    def recorded(self, qs, _fn=Reduction._inverses):
        calls.extend(qs)
        return _fn(self, qs)
    monkeypatch.setattr(Reduction, "_inverses", recorded)
    rng = random.Random(rid)
    domain = bind_reduction(rid).source_domain
    kw = {"allow_empty": False} if domain == SEQUENCE else {}
    for _ in range(6):
        db = _with_repeats(rng, random_db(rng, domain, n_txns=5, **kw))
        image = _with_repeats(rng, reduce_database(bind_reduction(rid, db),
                                                   db))
        calls.clear()
        got = invert_database(rid, image)
        assert len(calls) == len(set(image)) < len(image)
        assert got == Database(domain, tuple(
            bind_from_target(rid, image).inverse(q) for q in image))
        first = {}
        for q, p in zip(image, got.transactions):
            assert first.setdefault(q, p) is p


def test_invert_database_reports_a_repeated_rejection_at_its_first_index(
        monkeypatch):
    calls = []

    def recorded(self, qs, _fn=Reduction._inverses):
        calls.extend(qs)
        return _fn(self, qs)
    monkeypatch.setattr(Reduction, "_inverses", recorded)
    # an edge pair without the markers of its ends images no graph
    db = itemset_db([{(1, 1)}, {(1, 1)}, {(1, 2)}, {(1, 1)}, {(1, 2)}])
    with pytest.raises(DatabaseError) as ei:
        invert_database("g2fis", db)
    assert ei.value.index == 2
    assert calls == [Itemset({(1, 1)}), Itemset({(1, 2)})]


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


def _bound_via_images(rid, db):
    """``bind_reduction`` as it bound before it read batches: a link that
    reads the database reads the universe of the image database of ``db``
    under the links before it."""
    links = reductions._links(rid)
    bound = []
    for k, link in enumerate(links):
        if not isinstance(link, Reduction):
            link = link[0](max(db.universe, default=0))
        bound.append(link)
        if reductions._reads_db(links[k + 1:]):
            db = reduce_database(link, db)
    return bound[0] if len(bound) == 1 else Composed(*bound)


def _binding(bind, rid, db):
    try:
        return bind(rid, db)
    except DatabaseError as e:
        return str(e), e.index


def test_binding_reads_batches_as_it_read_image_databases():
    """Every chain of up to three registry links with a ``fis2tree`` or
    ``g2bdg3`` link binds from the batches of the images to the reduction
    that the image databases bind, or refuses the same transaction with
    the same message, on plain and on pair labels."""
    def meet(a, b):
        return bind_reduction(a).target_domain \
            == bind_reduction(b).source_domain
    chains = [(rid,) for rid in REDUCTION_IDS]
    for k in (1, 2):
        chains += [c + (rid,) for c in chains if len(c) == k
                   for rid in REDUCTION_IDS if meet(c[-1], rid)]
    rids = [c[0] if len(c) == 1 else "compose:" + ",".join(c)
            for c in chains if {"fis2tree", "g2bdg3"} & set(c)]
    rng = random.Random(5)
    refused = 0
    for rid in rids:
        domain = bind_reduction(rid).source_domain
        for _ in range(4):
            for kw in [{}, {"pair_items": True}] if domain == ITEMSET \
                    else [{}]:
                db = random_db(rng, domain, **kw)
                want = _binding(_bound_via_images, rid, db)
                assert _binding(bind_reduction, rid, db) == want, rid
                refused += isinstance(want, tuple)
    assert len(rids) == 21 and refused > 20


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


def _shifted(db, by):
    """``db`` with every label raised by ``by``."""
    def up(p):
        if isinstance(p, Itemset):
            return Itemset([x + by for x in p.items])
        if isinstance(p, Sequence):
            return Sequence([x + by for x in p.events])
        return LabelledGraph(frozenset(v + by for v in p.vertices),
                             frozenset((a + by, b + by) for a, b in p.edges),
                             p.directed)
    return Database(db.domain, tuple(map(up, db.transactions)))


#: small source databases, whose images stay within the oracle's guard
_SMALL = {ITEMSET: {"n_labels": 4, "n_txns": 3, "max_items": 3},
          SEQUENCE: {"n_labels": 4, "n_txns": 3, "max_events": 3},
          GRAPH: {"n_labels": 4, "n_txns": 3, "max_vertices": 3},
          DIGRAPH: {"n_labels": 4, "n_txns": 3, "max_vertices": 3}}


@pytest.mark.parametrize("rid", [
    *(rid for rid in REDUCTION_IDS if rid != "fis2seq"),
    pytest.param("fis2seq", marks=pytest.mark.skip(
        reason="a sub-pattern of an increasing sequence increases, so no "
               "sub-pattern of a fis2seq image is off the image")),
    "compose:fis2tree,g2fis", "compose:fis2seq,seq2dag,dirg2fis",
    pytest.param("compose:fis2tree,g2bdg3,g2fis", marks=pytest.mark.skip(
        reason="the image of a star on two leaves has 17 items, above the "
               "oracle guard")),
])
def test_inverse_agrees_with_a_search_of_the_source(rid):
    """Every sub-pattern q of an image database inverts to the sub-pattern
    of the source database whose image is q, or to None when there is
    none.  The search is complete: q lies below the image of a transaction
    t, and since the reduction reflects containment its preimage lies
    below t.  The labels are also shifted past 2**63, but not through
    g2bdg3, whose images have as many stops per vertex as the top label."""
    rng = random.Random(rid)
    domain = bind_reduction(rid).source_domain
    kw = dict(_SMALL[domain])
    if "g2bdg3" in rid:
        kw.update(n_labels=3, max_vertices=2)
    if "seq2dag" in rid:
        kw["allow_empty"] = False  # seq2dag cannot picture <>
    decoded = refused = 0
    for _ in range(6):
        db = random_db(rng, domain, **kw)
        for source in [db] if "g2bdg3" in rid else [db, _shifted(db, 2**63)]:
            r = bind_reduction(rid, source)
            preimage = {}
            for p in enumerate_patterns(source):
                try:
                    preimage[r.forward(p)] = p
                except PatternError:
                    pass  # the empty sequence has no seq2dag image
            for q in enumerate_patterns(reduce_database(r, source)):
                p = r.inverse(q)
                assert p == preimage.get(q), (q, p)
                decoded += p is not None
                refused += p is None
    assert decoded and refused


_PAIRS = graph({(1, 2), (2, 3)}, {((1, 2), (2, 3))})


@pytest.mark.parametrize("r, q", [
    # pair labels into the star and the path bundle
    (ItemsetToStar(4), _PAIRS),
    (GraphToBoundedDegree(2), _PAIRS),
    (GraphToBoundedDegree(2), graph({(1, 1)}, set())),
    # plain ints into the edge itemset
    (GraphToEdgeItemset(), Itemset({1, 2})),
    (GraphToEdgeItemset(directed=True), Itemset({1})),
    (Composed(ItemsetToStar(3), GraphToEdgeItemset()), Itemset({1, 3})),
    # stops past n*n
    (GraphToBoundedDegree(2), graph({5}, set())),
    (GraphToBoundedDegree(2), graph({3, 4, 5}, {(3, 4), (4, 5)})),
    (GraphToBoundedDegree(2), graph({2**64}, set())),
    # marker-less itemsets
    (GraphToEdgeItemset(), Itemset({(1, 2)})),
    (GraphToEdgeItemset(directed=True), Itemset({(2, 1), (1, 3)})),
    (GraphToEdgeItemset(), Itemset()),
    (Composed(ItemsetToSequence(), SequenceToDag(),
              GraphToEdgeItemset(directed=True)), Itemset({(1, 2)})),
], ids=repr)
def test_targets_that_decode_to_nothing_invert_to_none(r, q):
    assert r.inverse(q) is None


@pytest.mark.parametrize("r, q", [
    (ItemsetToStar(4), Itemset({1})),
    (GraphToBoundedDegree(2), graph({1, 2}, {(1, 2)}, directed=True)),
    (GraphToEdgeItemset(), graph({1}, set())),
    (GraphToEdgeItemset(directed=True), Sequence([(1, 1)])),
    (SequenceToDag(), graph({1, 2}, {(1, 2)})),
    (ItemsetToSequence(), Itemset({1})),
], ids=repr)
def test_a_target_of_the_wrong_domain_is_refused(r, q):
    with pytest.raises(DomainMismatchError):
        r.inverse(q)


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
    for directed in (False, True):
        r = GraphToEdgeItemset(directed=directed)
        for p in (graph({1, 2}, {(1, 2)}, directed=not directed),
                  Itemset([1, 2]), Sequence([1, 2])):
            with pytest.raises(DomainMismatchError):
                r.forward(p)


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


@pytest.mark.parametrize("directed", [False, True])
def test_edge_itemset_image_items_reject_pair_labels(directed):
    # the item rows of the image (the map that encodes transactions and a
    # step climb's grown levels) refuse pair labels as forward does
    g = graph({(1, 2), (2, 3)}, {((1, 2), (2, 3))}, directed=directed)
    with pytest.raises(PatternError):
        GraphToEdgeItemset(directed=directed)._batch(
            pattern_batch(DIGRAPH if directed else GRAPH, [g]))


# ---------------------------------------------------------------------------
# batch maps: every link maps flat arrays of patterns at once, and must map
# each pattern to the image its docstring spells out


def _column(labels):
    return np.array(labels, dtype=np.int64 if max(labels, default=0) < 2**63
                    else object)


def _components(x):
    """The plain labels that spell out ``x``: a label, a label pair, or an
    edge between either."""
    return sum(map(_components, x), ()) if isinstance(x, tuple) else (x,)


def _reference_batch(domain, patterns, rng=None):
    """The batch of ``patterns``, built one label at a time: itemsets and
    sequences as an incidence of their entries in order, graphs as one of
    their vertices and one of their (head, tail) edges, a column per
    component of a label pair.  With ``rng`` the rows are interleaved at
    random, a sequence's entries kept in order and any other row's
    entries shuffled."""
    def incidence(rows, width, ordered=False):
        flat = [_components(x) for row in rows for x in row]
        columns = list(zip(*flat)) if flat else [[]] * width
        batch = Incidence(
            tuple(_column(list(c)) for c in columns),
            np.array([i for i, row in enumerate(rows) for _ in row],
                     dtype=np.intp), len(rows))
        if rng is None:
            return batch
        order = np.array(rng.sample(range(len(flat)), len(flat)),
                         dtype=np.intp)
        if ordered:  # each row's slots take its entries in order
            slots = np.argsort(batch.rows[order], kind="stable")
            order[slots] = np.argsort(batch.rows, kind="stable")
        return Incidence(tuple(c[order] for c in batch.labels),
                         batch.rows[order], batch.n_rows)
    if domain in (GRAPH, DIGRAPH):
        return (incidence([sorted(g.vertices) for g in patterns], 1),
                incidence([sorted(g.edges) for g in patterns], 2))
    return incidence([tuple(p) for p in patterns], 1, domain == SEQUENCE)


def _batch_rows(domain, batch):
    """Each row of a batch of ``domain`` patterns as its image compares:
    the entries in order for a sequence, their sorted tuple for an itemset,
    and the vertex and edge sets for a graph."""
    if domain in (GRAPH, DIGRAPH):
        vertices, edges = (_batch_rows(SEQUENCE, b) for b in batch)
        return [(frozenset(v), frozenset(e)) for v, e in zip(vertices, edges)]
    columns = [c.tolist() for c in batch.labels]
    rows = [[] for _ in range(batch.n_rows)]
    for r, x in zip(batch.rows.tolist(),
                    zip(*columns) if len(columns) == 2 else columns[0]):
        rows[r].append(x)
    return [tuple(sorted(row)) if domain == ITEMSET else tuple(row)
            for row in rows]


def _image_row(q):
    if isinstance(q, LabelledGraph):
        return (q.vertices, q.edges)
    return tuple(q)


def _reference_image(r, p):
    """The image of ``p`` under ``r`` as the docstring of each link spells
    it out, built through the validating constructors: a chain folds its
    links left to right."""
    if isinstance(r, Composed):
        for link in r.links:
            p = _reference_image(link, p)
        return p
    if isinstance(r, ItemsetToStar):
        return graph(set(p.items) | {r.root}, {(x, r.root) for x in p.items})
    if isinstance(r, ItemsetToSequence):
        return Sequence(sorted(p.items))
    if isinstance(r, GraphToBoundedDegree):
        def stop(v, i):
            return (v - 1) * r.n + i
        return graph(
            {stop(v, i) for v in p.vertices for i in range(1, r.n + 1)},
            {(stop(v, i), stop(v, i + 1))
             for v in p.vertices for i in range(1, r.n)}
            | {(stop(a, b), stop(b, a)) for a, b in p.edges})
    if isinstance(r, GraphToEdgeItemset):
        return Itemset([(v, v) for v in p.vertices] + list(p.edges))
    assert isinstance(r, SequenceToDag)
    return graph(p.events, {(a, b) for i, a in enumerate(p.events)
                            for b in p.events[i + 1:]}, directed=True)


def _shifted(db, shift):
    """``db`` with every plain label x renamed 2x + shift."""
    def label(x):
        return 2 * x + shift
    if db.domain == ITEMSET:
        return itemset_db([map(label, t.items) for t in db])
    if db.domain == SEQUENCE:
        return Database(SEQUENCE, tuple(Sequence(tuple(map(label, t.events)))
                                        for t in db))
    return Database(db.domain, tuple(
        graph(map(label, g.vertices),
              [(label(a), label(b)) for a, b in g.edges], g.directed)
        for g in db))


_BATCHED = REDUCTION_IDS + (
    "compose:fis2tree,g2bdg3,g2fis", "compose:fis2seq,seq2dag,dirg2fis",
    "compose:fis2tree,g2fis", "compose:seq2dag,dirg2fis",
    "compose:g2bdg3,g2fis")


@pytest.mark.parametrize("rid", _BATCHED)
def test_batch_maps_agree_with_forward(rid):
    """Each link's batch map, and each chain's, gives every pattern of a
    batch the image that the link's docstring spells out, row for row,
    with the batch's rows in order or interleaved; and so does
    ``forward``.  Labels past int64 too, where the map allows them: the
    path bundle makes as many stops per vertex as its largest label, so
    stops past int64 (a label above 3 * 10**9) cannot be built at all."""
    rng = random.Random(rid)
    domain = bind_reduction(rid).source_domain
    checked = 0
    # labels up to 2**63 - 1, so a star's root can be 2**63; labels past it
    for shift in [0] if "g2bdg3" in rid else [0, 2**63 - 17, 2**64]:
        for _ in range(6):
            db = _shifted(random_db(rng, domain, n_txns=6), shift)
            r = bind_reduction(rid, db)
            patterns = list(db) + [random_subpattern(rng, t) for t in db]
            if "seq2dag" in rid:  # which pictures no empty sequence
                patterns = [p for p in patterns if pattern_size(p)]
            want = [_reference_image(r, p) for p in patterns]
            assert [r.forward(p) for p in patterns] == want, (rid, shift)
            want = list(map(_image_row, want))
            for order in (None, rng):
                got = r._batch(_reference_batch(domain, patterns, order))
                assert _batch_rows(r.target_domain, got) == want, (rid, shift)
            checked += len(patterns)
    assert checked > 50


@pytest.mark.parametrize("r, p, message", [
    (ItemsetToStar(5), Itemset([3, 5, 7]),
     "item 5 collides with root label 5"),
    (Composed(ItemsetToStar(5), GraphToEdgeItemset()), Itemset([1, 6]),
     "item 6 collides with root label 5"),
    (bind_reduction("compose:fis2tree,g2fis"), Itemset([(1, 2), (2, 3)]),
     "fis2tree needs plain int labels, got (1, 2)"),
    (GraphToBoundedDegree(3), graph({2, 5, 7}, {(2, 5), (5, 7)}),
     "vertex label 7 outside 1..3"),
    (GraphToBoundedDegree(3), graph({(1, 2)}, set()),
     "g2bdg3 needs plain int labels, got (1, 2)"),
    (Composed(ItemsetToStar(10), GraphToBoundedDegree(4),
              GraphToEdgeItemset()), Itemset([1, 2]),
     "vertex label 10 outside 1..4"),
    (SequenceToDag(), Sequence(), "the empty sequence has no graph image"),
    (bind_reduction("compose:fis2seq,seq2dag,dirg2fis"), Itemset(),
     "the empty sequence has no graph image"),
    (bind_reduction("compose:seq2dag,dirg2fis"), Sequence([(1, 2)]),
     "dirg2fis needs plain int labels, got (1, 2)"),
    # the first pair in the sequence's own order
    (bind_reduction("compose:seq2dag,dirg2fis"), Sequence([(2, 3), (1, 2)]),
     "dirg2fis needs plain int labels, got (2, 3)"),
    (GraphToEdgeItemset(), graph({(1, 2)}, set()),
     "g2fis needs plain int labels, got (1, 2)"),
    # pairs made inside the chain, by its first link
    (bind_reduction("compose:g2fis,fis2tree,g2fis"), graph({1, 2}, {(1, 2)}),
     "fis2tree needs plain int labels, got (1, 1)"),
], ids=["star-root", "star-chain-root", "star-chain-pairs", "path-bundle",
        "path-bundle-pairs", "path-bundle-chain", "dag-empty",
        "dag-chain-empty", "dag-pair", "dag-pairs", "edge-itemset-pairs",
        "star-after-edge-itemset"])
def test_batch_maps_refuse_what_forward_refuses(r, p, message):
    """A pattern that a map cannot take is refused, in these words, by
    ``forward`` and by the batch map of a batch that holds it."""
    with pytest.raises(PatternError) as got:
        r.forward(p)
    assert str(got.value) == message
    with pytest.raises(PatternError) as got:
        r._batch(_reference_batch(r.source_domain, [p]))
    assert str(got.value) == message


def test_inverses_void_only_the_candidate_the_map_refuses():
    """A decoded candidate that the batch map refuses (a leaf above the
    star's root decodes to an item that collides with it) voids its own
    target pattern alone, wherever it stands in the list."""
    r = ItemsetToStar(5)
    star = graph({1, 2, 5}, {(1, 5), (2, 5)})
    above = graph({5, 7}, {(5, 7)})
    lone = graph({3, 5}, {(3, 5)})
    assert r._decode(above) == Itemset([7])
    assert r._inverses([star, above, lone, graph({1, 2}, {(1, 2)})]) \
        == [Itemset([1, 2]), None, Itemset([3]), None]
    assert r._inverses([above]) == [None]
    assert r._inverses([]) == []


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
