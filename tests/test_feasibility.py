import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maxpat.domains import (
    DIGRAPH, GRAPH, ITEMSET, SEQUENCE, Itemset, Sequence, pattern_size,
)
from maxpat.errors import DomainMismatchError, PatternError
from maxpat.feasibility import (
    ALWAYS, CONNECTED_EDGES, And, Predicate, PreimageExistsAnd,
    connected_edge_itemset, describe, evaluate, item_labels, judge,
)
from maxpat.reductions import (
    REDUCTION_IDS, GraphToEdgeItemset, ItemsetToSequence, SequenceToDag,
    bind_from_target, bind_reduction,
)
from maxpat.synth import random_db, random_subpattern


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


@dataclass(frozen=True)
class _EvenSize(Predicate):
    """A predicate outside the algebra, which the default list form judges
    one pattern at a time: a pattern of even size."""

    def evaluate(self, p):
        return pattern_size(p) % 2 == 0

    def describe(self):
        return "even-size"


def _judged(phi, patterns, step=None, sources=None):
    """``judge`` as one bool per pattern."""
    got = judge(phi, lambda: patterns, step,
                None if sources is None else lambda: sources)
    return np.broadcast_to(got, len(patterns)).tolist()


def _unbuilt():
    raise AssertionError("a list was built that no conjunct reads")


def _inner(rng, domain):
    """A predicate other than ``ALWAYS`` on patterns of ``domain``: a
    preimage through another reduction where one lands there, and a size
    test on plain itemsets."""
    if domain == GRAPH:
        return PreimageExistsAnd(bind_from_target(
            "fis2tree", random_db(rng, GRAPH, n_labels=5)), ALWAYS)
    return {SEQUENCE: PreimageExistsAnd(ItemsetToSequence(), ALWAYS),
            DIGRAPH: PreimageExistsAnd(SequenceToDag(), ALWAYS)}.get(
        domain, _EvenSize())


def _images_and_others(rng, r, n):
    """Source patterns of ``r`` with their images, and a shuffled list of
    those images mixed with target patterns that are mostly no image:
    sub-patterns of images and patterns drawn in the target domain."""
    kw = {"pair_items": True, "markers": True,
          "directed": r.id == "dirg2fis"} \
        if r.target_domain == ITEMSET else {}
    sources, images = [], []
    for s in random_db(rng, r.source_domain, n_labels=5, n_txns=n):
        try:
            images.append(r.forward(s))
        except PatternError:  # seq2dag cannot picture <>
            continue
        sources.append(s)
    others = [random_subpattern(rng, q) for q in images] + list(
        random_db(rng, r.target_domain, n_labels=5, n_txns=n, **kw))
    mixed = images + others
    rng.shuffle(mixed)
    return sources, images, mixed


@pytest.mark.parametrize("rid", REDUCTION_IDS + (
    "compose:seq2dag,dirg2fis", "compose:fis2tree,g2fis"))
def test_judge_matches_evaluate_through_each_reduction(rid):
    """The list form of a preimage predicate, alone and with another
    predicate as its inner one, answers as ``evaluate`` does on each
    pattern, on a mix of images and other patterns; under a step climb on
    its own reduction it reads the sources and answers the same, and
    without the sources it builds nothing under ``ALWAYS``."""
    rng = random.Random(rid)
    accepted = 0
    for _ in range(8):
        source = random_db(rng, bind_reduction(rid).source_domain,
                           n_labels=5)
        r = bind_reduction(rid, source)
        sources, images, mixed = _images_and_others(rng, r, 6)
        for phi in (PreimageExistsAnd(r, ALWAYS),
                    PreimageExistsAnd(r, _inner(rng, r.source_domain))):
            want = [evaluate(phi, q) for q in mixed]
            assert _judged(phi, mixed) == want, (phi, mixed)
            assert _judged(phi, images, r, sources) == \
                [evaluate(phi, q) for q in images]
            accepted += sum(want)
        assert judge(PreimageExistsAnd(r, ALWAYS), _unbuilt, r, _unbuilt) \
            is True
    assert accepted > 0


def test_judge_matches_evaluate_on_itemsets():
    """``ALWAYS``, connectivity and their conjunctions with a preimage
    predicate, in either order, judge a list as ``evaluate`` judges each
    pattern; ``ALWAYS`` builds no list."""
    rng = random.Random(83)
    g2fis = PreimageExistsAnd(GraphToEdgeItemset(), ALWAYS)
    phis = [ALWAYS, CONNECTED_EDGES, And((CONNECTED_EDGES, g2fis)),
            And((g2fis, CONNECTED_EDGES)), And((ALWAYS, CONNECTED_EDGES)),
            And((g2fis, And((ALWAYS, CONNECTED_EDGES))))]
    mixed = 0
    for _ in range(20):
        ps = list(random_db(rng, ITEMSET, pair_items=True, markers=True,
                            n_labels=4, max_items=6, n_txns=10))
        for phi in phis:
            want = [evaluate(phi, p) for p in ps]
            assert _judged(phi, ps) == want, (phi, ps)
            mixed += 0 < sum(want) < len(want)
    assert mixed > 20
    assert judge(ALWAYS, _unbuilt) is True


def test_judge_and_short_circuits():
    """A conjunct judges only what the ones before it accepted, as
    ``evaluate`` does: a preimage through g2fis rejects plain itemsets
    before connectivity, which would refuse them, sees any."""
    ps = [Itemset([1, 2]), Itemset([3]), Itemset()]
    phi = And((PreimageExistsAnd(GraphToEdgeItemset(), ALWAYS),
               CONNECTED_EDGES))
    assert [evaluate(phi, p) for p in ps] == _judged(phi, ps) \
        == [False] * 3
    with pytest.raises(DomainMismatchError):
        judge(And(phi.parts[::-1]), lambda: ps)


def test_judge_and_stops_once_a_conjunct_rejects_all():
    """Under a step climb, once a preimage conjunct on the step reduction
    rejects every source, no later conjunct builds the images."""
    chain = bind_reduction("compose:seq2dag,dirg2fis")
    phi = And((PreimageExistsAnd(chain, _EvenSize()),
               PreimageExistsAnd(GraphToEdgeItemset(directed=True), ALWAYS)))
    odd = [Sequence([1]), Sequence([3, 1, 2])]
    assert list(judge(phi, _unbuilt, chain, lambda: odd)) == [False] * 2


def test_judge_refuses_what_evaluate_refuses():
    """A preimage predicate refuses a pattern off its reduction's target
    domain anywhere in the list, and connectivity refuses plain items."""
    g2fis = PreimageExistsAnd(GraphToEdgeItemset(), ALWAYS)
    with pytest.raises(DomainMismatchError):
        judge(g2fis, lambda: [Itemset([(1, 1)]), Sequence([1])])
    with pytest.raises(DomainMismatchError):
        judge(CONNECTED_EDGES, lambda: [Itemset([(1, 2)]), Itemset([1, 2])])
    with pytest.raises(TypeError):
        judge(None, lambda: [])


def test_judge_of_the_empty_list():
    chain = bind_reduction("compose:seq2dag,dirg2fis")
    for phi in (ALWAYS, CONNECTED_EDGES, PreimageExistsAnd(chain, ALWAYS),
                PreimageExistsAnd(chain, _EvenSize()),
                And((CONNECTED_EDGES, PreimageExistsAnd(chain, ALWAYS)))):
        assert _judged(phi, []) == []
        assert _judged(phi, [], chain, []) == []
