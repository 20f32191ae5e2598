import json
import random
import subprocess
import sys
import time
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import ITEMSET_ENCODINGS
from maxpat import _kernels, domains, miner
from maxpat.core import Database, graph_db, itemset_db, sequence_db, support
from maxpat.domains import (
    DIGRAPH, GRAPH, ITEMSET, SEQUENCE, Itemset, LabelledGraph, Sequence,
    item_labels, pattern_leq, pattern_size,
)
from maxpat.errors import (
    DatabaseError, DomainMismatchError, ExtendError, PatternError,
)
from maxpat.feasibility import (
    ALWAYS, CONNECTED_EDGES, And, PreimageExistsAnd, evaluate,
)
from maxpat.io import render_pattern
from maxpat.miner import (
    count_maximal, extend, extendible, extendible_k, mine, mine_max_ffis,
    mine_via_reduction,
)
from maxpat.oracle import enumerate_patterns, oracle_max
from maxpat.reductions import (
    GraphToEdgeItemset, ItemsetToSequence, ItemsetToStar, SequenceToDag,
    bind_reduction, lift_results, reduce_database,
)
from maxpat.synth import (
    random_db, random_graph_db, random_itemset_db, random_sequence_db,
)


def test_worked_example_and_level_stats():
    db = itemset_db([{1, 2}, {1, 2}, {2, 3}])
    res = mine(db, 2, ALWAYS)
    assert res.maximal == (Itemset({1, 2}),)
    assert [(s.level, s.candidates, s.frequent, s.feasible_frequent)
            for s in res.stats] == [(1, 3, 2, 2), (2, 1, 1, 1)]
    assert res.tau == 2 and res.phi == "always"


def test_tau_above_db_size_yields_nothing():
    db = itemset_db([{1}])
    assert mine(db, 2, ALWAYS).maximal == ()
    assert mine(itemset_db([]), 1, ALWAYS).maximal == ()


def test_empty_itemset_is_the_answer_when_nothing_overlaps():
    db = itemset_db([{1}, {2}])
    assert mine(db, 2, ALWAYS).maximal == (Itemset(),)


def test_unknown_mode_is_refused():
    db = itemset_db([{(1, 2)}])
    for mode in ("levelwise", "sideways"):
        with pytest.raises(ValueError):
            mine_max_ffis(db, 1, ALWAYS, mode=mode)


def test_modes_agree_on_connectivity():
    rng = random.Random(23)
    for _ in range(25):
        db = random_itemset_db(rng, n_labels=5, n_txns=5, max_items=4,
                               pair_items=True)
        for tau in range(1, len(db.transactions) + 1):
            a = mine_max_ffis(db, tau, CONNECTED_EDGES, mode="auto")
            b = mine_max_ffis(db, tau, CONNECTED_EDGES, mode="postfilter")
            assert a.maximal == b.maximal
            # same generator in both modes, so the level tables line up too
            assert [(s.level, s.candidates) for s in a.stats] == \
                   [(s.level, s.candidates) for s in b.stats]


def test_auto_mode_proxy_matches_postfilter_on_bare_preimage():
    """A bare preimage predicate has no merge hint of its own, so the
    frequency-only climb of postfilter mode wanders through disconnected
    sets, while auto mode climbs through the images of grown graphs; the
    answers must agree."""
    rng = random.Random(41)
    for _ in range(12):
        gdb = random_graph_db(rng, n_labels=6, n_txns=5, max_vertices=4)
        r = bind_reduction("g2fis", gdb)
        db = reduce_database(r, gdb)
        phi = PreimageExistsAnd(r, ALWAYS)
        assert phi.step_reduction is r
        for tau in range(1, len(db.transactions) + 1):
            a = mine_max_ffis(db, tau, phi, mode="auto")
            b = mine_max_ffis(db, tau, phi, mode="postfilter")
            assert a.maximal == b.maximal


def test_step_climb_matches_postfilter_and_oracle_on_sequences():
    """The order-dag chain can grow its preimages, so auto mode climbs
    through images alone; the frequency-only join climb of postfilter mode
    and the oracle are the references."""
    rng = random.Random(43)
    chain = bind_reduction("compose:seq2dag,dirg2fis")
    runs = 0
    for _ in range(30):
        db = random_sequence_db(rng, n_labels=rng.randint(2, 6),
                                n_txns=rng.randint(1, 6), max_events=4,
                                allow_empty=False)
        for phi in (ALWAYS, PreimageExistsAnd(ItemsetToSequence(), ALWAYS)):
            for tau in range(1, len(db) + 1):
                want = oracle_max(db, tau, phi)
                for via in (lambda m: mine(db, tau, phi, mode=m),
                            lambda m: mine_via_reduction(chain, db, tau, phi,
                                                         mode=m)):
                    auto, post = via("auto"), via("postfilter")
                    assert auto.maximal == post.maximal == want, (db, tau)
                    if phi is ALWAYS:
                        # every set the step climb counts is an image
                        assert all(s.frequent == s.feasible_frequent
                                   for s in auto.stats)
                    runs += 1
    assert runs > 300


def _chain_dbs(rid, rng):
    """Seeded small source databases for ``rid``; the graph chains through
    g2bdg3 also get one without vertex 1, whose stop labels then exclude
    every source label."""
    src = bind_reduction(rid).source_domain
    if src == ITEMSET:
        return [random_itemset_db(rng, n_labels=rng.randint(2, 5),
                                  n_txns=rng.randint(1, 6))
                for _ in range(12)]
    dbs = [random_graph_db(rng, n_labels=4, n_txns=rng.randint(1, 5),
                           max_vertices=4, directed=src == DIGRAPH)
           for _ in range(12)]
    if "g2bdg3" in rid:
        edge = LabelledGraph(frozenset({2, 3}), frozenset({(2, 3)}))
        dbs.append(graph_db([edge, edge,
                             LabelledGraph(frozenset({3}), frozenset())]))
    return dbs


@pytest.mark.parametrize("rid", [
    "compose:fis2seq,seq2dag,dirg2fis", "compose:fis2tree,g2bdg3,g2fis",
    "compose:fis2tree,g2fis", "g2fis", "dirg2fis", "compose:g2bdg3,g2fis"])
def test_every_chain_climbs_to_the_oracle_answer(rid):
    """Auto mode climbs through the images of grown source patterns on
    every chain.  It must find the oracle's answer through
    ``mine_via_reduction`` and, lifted, straight from the reduced database,
    where the empty pattern only shows when the chain can encode it; the
    frequency-only postfilter climb is the reference where it stays small
    (through g2bdg3 it does not)."""
    rng = random.Random(53)
    runs = 0
    for db in _chain_dbs(rid, rng):
        r = bind_reduction(rid, db)
        src = Database(db.domain, tuple(t for t in db if pattern_size(t)))
        reduced = reduce_database(r, src)
        try:
            encodes_empty = r.forward(Itemset()) is not None
        except (PatternError, DomainMismatchError):
            encodes_empty = False
        phi = PreimageExistsAnd(r, ALWAYS)
        for tau in range(1, len(db) + 1):
            want = oracle_max(db, tau, ALWAYS)
            assert mine_via_reduction(r, db, tau).maximal == want, (db, tau)
            want = oracle_max(src, tau, ALWAYS)
            if not encodes_empty:
                want = tuple(p for p in want if pattern_size(p))
            res = mine_max_ffis(reduced, tau, phi)
            assert lift_results(r, res.maximal) == want, (db, tau)
            if "g2bdg3" not in rid:
                post = mine_max_ffis(reduced, tau, phi, mode="postfilter")
                assert post.maximal == res.maximal, (db, tau)
            runs += 1
    assert runs > 30


def _grow_unchecked(domain, level, labels):
    """The step climb's grow without the Apriori check, the reference the
    pruned climb is compared with: every itemset or sequence one element
    larger than a pattern of ``level``, a new item or a new label at any
    position; graphs grow as before."""
    if level is None or domain not in (ITEMSET, SEQUENCE):
        return domains.grow(domain, level, labels)
    out = {}
    for p in level:
        t = tuple(p)
        for x in labels:
            if x in t:
                continue
            if domain == ITEMSET:
                out[tuple(sorted(t + (x,)))] = Itemset
            else:
                for i in range(len(t) + 1):
                    out[t[:i] + (x,) + t[i:]] = Sequence
    return [make(q) for q, make in out.items()]


def _climb(monkeypatch, reduced, tau, phi, grow):
    """Mine ``reduced`` with ``grow`` in the step climb, and the sets it
    found frequent, in the order the climb asked the predicate about them."""
    asked = []

    def recorded(phi, q, _fn=miner.evaluate):
        asked.append(q)
        return _fn(phi, q)
    with monkeypatch.context() as m:
        m.setattr(miner, "grow", grow)
        m.setattr(miner, "evaluate", recorded)
        res = mine_max_ffis(reduced, tau, phi)
    return res, asked[:sum(s.frequent for s in res.stats)]


@pytest.mark.parametrize("rid", [
    "compose:seq2dag,dirg2fis", "compose:fis2seq,seq2dag,dirg2fis",
    "compose:fis2tree,g2fis"])
def test_apriori_step_climb_is_complete_and_counts_less(rid, monkeypatch):
    """With the Apriori check the step climb still counts the image of every
    frequent source pattern the oracle enumerates, and each of its levels
    counts no more candidates than the climb without the check, which
    finds the same frequent sets."""
    rng = random.Random(61)
    runs = fewer = 0
    for _ in range(25):
        n_labels = rng.randint(2, 6)
        if rid.startswith("compose:seq2dag"):
            db = random_sequence_db(rng, n_labels=n_labels,
                                    n_txns=rng.randint(1, 6), max_events=5,
                                    allow_empty=False)
        else:
            db = random_itemset_db(rng, n_labels=n_labels,
                                   n_txns=rng.randint(1, 6), max_items=5,
                                   allow_empty=False)
        r = bind_reduction(rid, db)
        reduced = reduce_database(r, db)
        phi = PreimageExistsAnd(r, ALWAYS)
        patterns = [p for p in enumerate_patterns(db) if pattern_size(p)]
        for tau in range(1, len(db) + 1):
            res, found = _climb(monkeypatch, reduced, tau, phi,
                                domains.grow)
            ref, ref_found = _climb(monkeypatch, reduced, tau, phi,
                                    _grow_unchecked)
            want = {r.forward(p) for p in patterns if support(p, db) >= tau}
            assert len(found) == len(set(found)) and set(found) == want
            assert set(ref_found) == want and res.maximal == ref.maximal
            assert len(res.stats) <= len(ref.stats)
            for s, s_ref in zip(res.stats, ref.stats):
                assert s.candidates <= s_ref.candidates, (db, tau)
                assert (s.frequent, s.feasible_frequent) == \
                    (s_ref.frequent, s_ref.feasible_frequent)
            fewer += res.stats != ref.stats
            runs += 1
    assert runs > 60 and fewer > runs // 4


def _noisy_images(rng, n_labels, n_txns):
    """Pair-itemset transactions near images of sequences under the
    order-dag chain: stray markers and arcs in either direction added, an
    item sometimes dropped."""
    labels = range(1, n_labels + 1)
    txns = []
    for _ in range(n_txns):
        ev = rng.sample(labels, rng.randint(1, min(3, n_labels)))
        items = {(a, a) for a in ev} | set(combinations(ev, 2))
        for _ in range(rng.randint(0, 3)):
            items.add((rng.choice(labels), rng.choice(labels)))
        if len(items) > 1 and rng.random() < 0.3:
            items.discard(rng.choice(sorted(items)))
        txns.append(items)
    return itemset_db(txns)


def test_step_climb_on_pair_itemsets_that_are_not_images():
    rng = random.Random(47)
    chain = bind_reduction("compose:seq2dag,dirg2fis")
    runs = 0
    for _ in range(40):
        db = _noisy_images(rng, rng.randint(2, 5), rng.randint(1, 6))
        for phi in (PreimageExistsAnd(chain, ALWAYS),
                    chain.induced_feasibility(ALWAYS)):
            assert phi.step_reduction is chain
            for tau in range(1, len(db) + 1):
                auto = mine_max_ffis(db, tau, phi)
                post = mine_max_ffis(db, tau, phi, mode="postfilter")
                assert auto.maximal == post.maximal == \
                    oracle_max(db, tau, phi), (db, tau)
                runs += 1
    assert runs > 200
    # a chain that does not end in itemsets is refused as before
    with pytest.raises(DomainMismatchError):
        mine_max_ffis(itemset_db([{(1, 1)}]), 1,
                      PreimageExistsAnd(SequenceToDag(), ALWAYS))


def _bucket_join(survivors, labels_of, hint):
    """The join step as a per-pair loop, the reference for
    ``miner._generate``: bucket each survivor under its (k-2)-subsets and
    keep the sorted union of every pair in a bucket that ``hint`` passes."""
    buckets = {}
    for i, s in enumerate(survivors):
        for j, x in enumerate(s):
            buckets.setdefault(s[:j] + s[j + 1:], []).append((x, i))
    out = set()
    for shared, entries in buckets.items():
        for (xa, ia), (xb, ib) in combinations(entries, 2):
            if hint(labels_of[ia], labels_of[ib]):
                out.add(tuple(sorted(shared + (xa, xb))))
    return sorted(out)


def _labels_meet(a, b):
    return not a.isdisjoint(b)


_HINTS = [(ALWAYS, lambda a, b: True),
          (CONNECTED_EDGES, _labels_meet),
          (And((ALWAYS, CONNECTED_EDGES)), _labels_meet)]


def _join_families(rng):
    """Item universes with families of distinct sorted index tuples of one
    size: random subfamilies of sizes 1 to 6, which a pruned climb leaves
    without some (k-1)-subsets of the sets they join into, edge cases, and
    sizes 12 to 14 whose rows pack into two words."""
    pairs = sorted({tuple(sorted(p)) for p in combinations(range(1, 8), 2)}
                   | {(a, a) for a in range(1, 8)})
    universes = [lambda n: sorted(rng.sample(range(1, 40), n)),
                 lambda n: sorted(rng.sample(range(10**9 - 40, 10**9), n)),
                 lambda n: sorted(rng.sample(pairs, n))]
    for _ in range(240):
        m = rng.randint(1, 6)
        n_items = rng.randint(m + 1, m + 5)
        keep = rng.choice((0.3, 0.6, 0.9))
        fam = [c for c in combinations(range(n_items), m)
               if rng.random() < keep]
        yield rng.choice(universes)(n_items), m, fam
    plain = list(range(1, 7))
    for m in (1, 2, 3):
        yield plain, m, []                                  # no survivor
        yield plain, m, [tuple(range(m))]                   # one survivor
    yield plain, 3, [(0, 1, 2), (3, 4, 5)]                  # runs of one
    yield plain, 2, [(0, 1), (0, 2), (3, 4), (1, 5)]        # some of one
    yield [(1, 2), (3, 4), (5, 6), (2, 3)], 1, [(0,), (1,), (2,), (3,)]
    yield [10**9 - 1, 10**9, 10**9 + 1], 1, [(0,), (1,), (2,)]
    # 20 items pack 12 to a word, so these keys or unions take two words
    for m in (12, 13, 14):
        pick = sorted(rng.sample(range(20), 15))
        yield list(range(1, 21)), m, [c for c in combinations(pick, m)
                                      if rng.random() < 0.6]


@pytest.mark.parametrize("block_bytes", [None, 512])
def test_generate_matches_bucket_join(block_bytes, monkeypatch):
    """The array join builds the same candidate list as the per-pair
    bucket join, order included, under every merge hint; with a tiny block
    size every level is split into many blocks of a few pairs."""
    if block_bytes is not None:
        monkeypatch.setattr(_kernels, "_BLOCK_BYTES", block_bytes)
    rng = random.Random(59)
    unclosed = families = 0
    for labels, m, fam in _join_families(rng):
        survivors = np.array(fam, dtype=np.intp).reshape(-1, m)
        item_bits = miner._label_bitsets(labels)
        labels_of = [item_labels(labels[i] for i in s) for s in fam]
        wants = [_bucket_join(fam, labels_of, hint) for _, hint in _HINTS]
        for (phi, _), want in zip(_HINTS, wants):
            got = miner._generate(survivors, item_bits, phi)
            assert got.dtype == np.intp and got.shape[1] == m + 1
            assert list(map(tuple, got.tolist())) == want, (labels, fam, phi)
        members = set(fam)
        families += 1
        unclosed += any(c[:j] + c[j + 1:] not in members
                        for c in wants[0] for j in range(m + 1))
    assert unclosed > families // 2


def test_constrained_candidates_never_exceed_unconstrained():
    rng = random.Random(29)
    for _ in range(25):
        db = random_itemset_db(rng, n_labels=5, n_txns=4, max_items=4,
                               pair_items=True)
        for tau in (1, 2):
            con = mine_max_ffis(db, tau, CONNECTED_EDGES).stats
            unc = mine_max_ffis(db, tau, ALWAYS).stats
            for s_con, s_unc in zip(con, unc):
                assert s_con.candidates <= s_unc.candidates


def test_feasibility_is_not_antimonotone_but_mining_still_works():
    """Two disconnected pair-sets whose union is connected: pruning that
    assumed subset-feasibility would lose the union."""
    a = Itemset({(1, 2), (3, 4)})
    b = Itemset({(2, 3), (4, 5)})
    union = Itemset(a.as_set() | b.as_set())
    assert not evaluate(CONNECTED_EDGES, a)
    assert not evaluate(CONNECTED_EDGES, b)
    assert evaluate(CONNECTED_EDGES, union)

    db = itemset_db([union.as_set(), union.as_set()])
    res = mine_max_ffis(db, 2, CONNECTED_EDGES)
    assert res.maximal == (union,)
    assert res.maximal == oracle_max(db, 2, CONNECTED_EDGES)


def test_maximal_is_an_antichain():
    rng = random.Random(31)
    for _ in range(20):
        db = random_itemset_db(rng, n_labels=6, n_txns=5, max_items=5)
        out = mine(db, 2, ALWAYS).maximal
        for p in out:
            for q in out:
                assert p == q or not pattern_leq(p, q)


def test_mine_via_reduction_needs_itemset_target():
    db = itemset_db([{1, 2}])
    with pytest.raises(DomainMismatchError):
        mine_via_reduction(ItemsetToStar(3), db, 1, ALWAYS)


def test_mine_via_reduction_checks_source_domain():
    db = sequence_db([(1, 2)])
    chain = bind_reduction("compose:fis2seq,seq2dag,dirg2fis",
                           itemset_db([{1, 2}]))
    with pytest.raises(DomainMismatchError):
        mine_via_reduction(chain, db, 1, ALWAYS)


def test_sequences_with_empty_transactions():
    db = sequence_db([(), (1, 2), (1, 2)])
    assert mine(db, 2, ALWAYS).maximal == (Sequence([1, 2]),)
    # tau hits the empty transactions only through the empty pattern
    assert mine(db, 3, ALWAYS).maximal == (Sequence(),)
    all_empty = sequence_db([(), ()])
    assert mine(all_empty, 2, ALWAYS).maximal == (Sequence(),)
    chain = bind_reduction("compose:seq2dag,dirg2fis")
    assert mine_via_reduction(chain, db, 2).maximal == (Sequence([1, 2]),)
    assert mine_via_reduction(chain, db, 3).maximal == (Sequence(),)
    assert mine_via_reduction(chain, all_empty, 2).maximal == (Sequence(),)


def test_count_maximal():
    db = itemset_db([{1, 2}, {1, 2}, {2, 3}])
    assert count_maximal(db, 1, ALWAYS) == 2
    assert count_maximal(db, 2, ALWAYS) == 1


def test_extend_walks_canonical_order():
    db = itemset_db([{1, 2}, {1, 2}, {2, 3}])
    known = []
    seen = []
    while True:
        nxt = extend(db, 1, ALWAYS, known)
        if nxt is None:
            break
        seen.append(nxt)
        known.append(nxt)
    assert tuple(seen) == oracle_max(db, 1, ALWAYS)
    assert not extendible(db, 1, ALWAYS, known)


def test_extend_rejects_bogus_known():
    db = itemset_db([{1, 2}, {1, 2}, {2, 3}])
    with pytest.raises(ExtendError):
        extend(db, 2, ALWAYS, [Itemset({3})])


def test_extendible_k_bound():
    db = itemset_db([{1, 2}, {1, 2}, {2, 3}])
    assert extendible_k(db, 1, ALWAYS, [], 1)
    first = extend(db, 1, ALWAYS, [])
    with pytest.raises(ExtendError):
        extendible_k(db, 1, ALWAYS, [first], 1)
    assert extendible_k(db, 1, ALWAYS, [first], 2)


def test_phi_descriptor_is_a_string():
    db = graph_db([LabelledGraph(frozenset({1, 2}), frozenset({(1, 2)}))])
    res = mine(db, 1, ALWAYS)
    assert isinstance(res.phi, str) and res.phi == "always"


def test_repeat_runs_are_identical():
    rng = random.Random(37)
    db = random_itemset_db(rng, n_labels=7, n_txns=6, max_items=5)
    first = mine(db, 2, ALWAYS)
    again = mine(db, 2, ALWAYS)
    assert first.maximal == again.maximal
    assert first.stats == again.stats


@settings(max_examples=50)
@given(st.data())
def test_miner_matches_oracle_on_random_itemsets(data):
    labels = data.draw(st.integers(2, 6))
    txns = data.draw(st.lists(
        st.frozensets(st.integers(1, labels), max_size=4), max_size=5))
    db = itemset_db(txns)
    tau = data.draw(st.integers(1, max(1, len(txns))))
    assert mine(db, tau, ALWAYS).maximal == oracle_max(db, tau, ALWAYS)


@settings(max_examples=50)
@given(st.data())
def test_miner_output_supports_match_definition(data):
    txns = data.draw(st.lists(
        st.frozensets(st.integers(1, 6), max_size=4), min_size=1, max_size=5))
    db = itemset_db(txns)
    tau = data.draw(st.integers(1, len(txns)))
    for p in mine(db, tau, ALWAYS).maximal:
        assert support(p, db) >= tau


def pinned_instances():
    """Seeded small instances, one per mining path: plain itemsets, pair
    itemsets under connectivity, sequences through the order-dag chain and
    graphs through the edge-itemset encoding.  The trap instance is where
    an Apriori check on the join climb would make the unconstrained climb
    count fewer candidates at level 3 than the connectivity one, so its
    rows fail loudly on any change to the candidate set."""
    rng = random.Random(3)
    items = itemset_db([rng.sample(range(1, 9), rng.randint(2, 6))
                        for _ in range(14)])
    rng = random.Random(4)
    pool = list(combinations(range(1, 6), 2))
    pairs = itemset_db([rng.sample(pool, rng.randint(2, 6))
                        for _ in range(10)])
    rng = random.Random(5)
    seqs = sequence_db([rng.sample(range(1, 7), rng.randint(2, 5))
                        for _ in range(12)])
    rng = random.Random(6)
    graphs = []
    for _ in range(10):
        vs = rng.sample(range(1, 7), rng.randint(2, 5))
        es = {tuple(sorted((vs[i], rng.choice(vs[:i]))))
              for i in range(1, len(vs))}
        es.add(tuple(sorted(rng.sample(vs, 2))))
        graphs.append(LabelledGraph(frozenset(vs), frozenset(es)))
    trap = itemset_db([{(1, 3), (2, 3), (3, 4)}, {(1, 2), (2, 3)},
                       {(1, 4), (3, 4)}, set()])
    return {"itemsets": (items, 3, ALWAYS, "auto"),
            "pairs": (pairs, 2, CONNECTED_EDGES, "auto"),
            "sequences": (seqs, 2, ALWAYS, "auto"),
            "graphs": (graph_db(graphs), 2, ALWAYS, "auto"),
            "trap": (trap, 1, ALWAYS, "auto"),
            "trap-pruned": (trap, 1, CONNECTED_EDGES, "auto"),
            "trap-postfilter": (trap, 1, CONNECTED_EDGES, "postfilter")}


# (level, candidates, frequent, feasible) rows and rendered answers of the
# instances above, recorded from the label-keyed climb (the sequence and
# graph rows from the step climb, whose levels count events, or edges plus
# one, the sequence rows with its Apriori check); the perfbench digests
# cover answers only, so these also hold the level tables still
PINNED = {
    "itemsets": (
        [(1, 8, 8, 8), (2, 28, 20, 20), (3, 42, 7, 7), (4, 5, 1, 1)],
        ["{1 2}", "{1 4}", "{1 8}", "{2 3}", "{2 4}", "{2 5}", "{2 6}",
         "{2 7}", "{2 8}", "{3 5}", "{4 5 6}", "{4 5 7 8}", "{5 6 7}",
         "{6 7 8}"]),
    "pairs": (
        [(1, 10, 9, 9), (2, 24, 11, 11), (3, 17, 5, 5), (4, 4, 0, 0)],
        ["{1,2 1,3 3,5}", "{1,2 1,4 1,5}", "{1,2 2,3}", "{1,3 1,4 3,5}",
         "{1,3 2,3 2,5}", "{1,3 2,3 3,5}", "{1,5 4,5}", "{3,4}"]),
    "sequences": (
        [(1, 6, 6, 6), (2, 24, 14, 14), (3, 14, 1, 1)],
        ["<2 1>", "<2 4>", "<2 5>", "<2 6>", "<3 1>", "<3 2>", "<4 1>",
         "<4 5>", "<4 6>", "<5 1>", "<5 6>", "<6 1 2>"]),
    "graphs": (
        [(1, 6, 6, 6), (2, 12, 8, 8), (3, 34, 2, 2), (4, 14, 1, 1),
         (5, 8, 0, 0)],
        ["1 2 | 1~2", "1 3 5 6 | 1~5 3~6 5~6", "2 4 | 2~4", "2 5 | 2~5",
         "3 4 | 3~4", "4 6 | 4~6"]),
    "trap": (
        [(1, 5, 5, 5), (2, 10, 5, 5), (3, 5, 1, 1)],
        ["{1,2 2,3}", "{1,3 2,3 3,4}", "{1,4 3,4}"]),
    "trap-pruned": (
        [(1, 5, 5, 5), (2, 8, 5, 5), (3, 5, 1, 1)],
        ["{1,2 2,3}", "{1,3 2,3 3,4}", "{1,4 3,4}"]),
    "trap-postfilter": (
        [(1, 5, 5, 5), (2, 8, 5, 5), (3, 5, 1, 1)],
        ["{1,2 2,3}", "{1,3 2,3 3,4}", "{1,4 3,4}"]),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_level_tables_and_answers_are_pinned(name):
    db, tau, phi, mode = pinned_instances()[name]
    res = mine(db, tau, phi, mode=mode)
    assert [(s.level, s.candidates, s.frequent, s.feasible_frequent)
            for s in res.stats] == PINNED[name][0]
    assert [render_pattern(p) for p in res.maximal] == PINNED[name][1]


def test_benchmark_wrap_points_are_called(monkeypatch):
    """perfbench times the layers by replacing these module attributes, so
    the miner has to look each one up there, or that layer reads zero."""
    targets = [(_kernels, "count_supports"), (_kernels, "pack_rows"),
               (miner, "evaluate"), (miner, "encode_rows"),
               (miner, "lift_results"), (miner, "climb_rows")]
    calls = set()
    for mod, name in targets:
        def counted(*args, _fn=getattr(mod, name), _name=name, **kwargs):
            calls.add(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    db = graph_db([LabelledGraph(frozenset({1, 2, 3}),
                                 frozenset({(1, 2), (2, 3)}))] * 2)
    assert mine(db, 2).maximal == db.transactions[:1]
    assert calls == {name for _, name in targets}

    # the encoded size is Σ len(image) over the encoded transactions: equal
    # graphs still count once each
    climbed = []

    def recorded(rows, *args, _fn=miner.climb_rows):
        climbed.append(rows)
        return _fn(rows, *args)
    monkeypatch.setattr(miner, "climb_rows", recorded)
    rng = random.Random(4)
    pool = random_graph_db(rng, n_txns=4).transactions
    dup = graph_db([LabelledGraph(g.vertices, g.edges)
                    for g in rng.choices(pool, k=30)])
    mine(dup, 3)
    r = GraphToEdgeItemset()
    assert len(set(dup)) < len(climbed[0]) == len(dup)
    assert (sum(map(len, climbed[0]))
            == sum(len(r.forward(t)) for t in dup))


@pytest.mark.parametrize("rid", ITEMSET_ENCODINGS)
def test_climb_packs_the_rows_of_the_image_database(rid, monkeypatch):
    """``mine_via_reduction`` packs, row for row, the items of the validated
    image database of the transactions other than the empty one, with
    repeats kept."""
    packed = []

    def recorded(rows, *args, _fn=miner._tidsets):
        if not packed:  # the first packing is the transactions'
            packed.append([sorted(row) for row in rows])
        return _fn(rows, *args)
    monkeypatch.setattr(miner, "_tidsets", recorded)
    rng = random.Random(rid)
    domain = bind_reduction(rid).source_domain
    empty = Itemset() if domain == ITEMSET else None
    repeats = empties = 0
    for _ in range(6):
        pool = random_db(rng, domain, n_txns=5).transactions
        db = Database(domain, tuple(rng.choices(pool, k=20)))
        r = bind_reduction(rid, db)
        kept = Database(domain, tuple(t for t in db if t != empty))
        packed.clear()
        mine_via_reduction(r, db, 3)
        assert packed[0] == [list(q.items)
                             for q in reduce_database(r, kept).transactions]
        repeats += len(db) - len(set(db))
        empties += len(db) - len(kept)
    assert repeats > 50
    assert bool(empties) == (domain == ITEMSET)


@pytest.mark.parametrize("db, first", [
    (graph_db([LabelledGraph(frozenset({(1, 2), (2, 3)}),
                             frozenset({((1, 2), (2, 3))}))] * 2), 0),
    (sequence_db([(), ((1, 2),), (), ((2, 3), (1, 2))]), 1),
], ids=["g2fis", "seq2dag-dirg2fis"])
def test_mine_reports_a_rejected_transaction_at_its_first_index(db, first):
    with pytest.raises(DatabaseError) as ei:
        mine(db, 1)
    assert ei.value.index == first


def test_mining_result_reports_seconds_per_phase():
    rng = random.Random(12)
    for domain in (ITEMSET, SEQUENCE, GRAPH, DIGRAPH):
        db = random_db(rng, domain, n_txns=20)
        start = time.perf_counter()
        res = mine(db, 3)
        wall = time.perf_counter() - start
        assert set(res.seconds) == {"encode", "pack", "climb", "maximal",
                                    "lift"}
        assert all(s >= 0 for s in res.seconds.values())
        assert sum(res.seconds.values()) <= wall
        if domain == ITEMSET:
            assert res.seconds["encode"] == 0
        assert res == mine(db, 3)  # timings take no part in equality


def _nested_tidsets(db):
    """The tidsets as the miner packed them before the flat pass, the
    reference for it: items numbered in label order, a nested list of
    index lists per transaction, flattened again."""
    items = sorted({x for t in db.transactions for x in t.items})
    index = {x: i for i, x in enumerate(items)}
    rows = [[index[x] for x in t.items] for t in db.transactions]
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    flat = np.fromiter(chain.from_iterable(rows), dtype=np.intp,
                       count=int(lengths.sum()))
    rids = np.repeat(np.arange(len(rows), dtype=np.intp), lengths)
    return _kernels.pack_rows(flat, rids, len(items), len(rows))


_WIDE = random.Random(11)


@pytest.mark.parametrize("txns", [
    [{1, 5, 9}, {5}, {2, 9}, {1, 2, 5, 9}],
    [{(1, 1), (1, 2), (2, 2)}, {(2, 2)}, {(1, 2), (2, 3)}, {(3, 3)}],
    [{3, 4}, set(), {4}],
    [],
    # 70 transactions over up to 100 labels: two words per tidset
    [_WIDE.sample(range(1, 101), _WIDE.randint(0, 5)) for _ in range(70)],
], ids=["plain", "pairs", "empty-transaction", "empty-database", "wide"])
def test_flat_packing_matches_nested_construction(txns, monkeypatch):
    packed = []

    def recorded(*args, _fn=miner._tidsets):
        packed.append(_fn(*args))
        return packed[-1]
    monkeypatch.setattr(miner, "_tidsets", recorded)
    db = itemset_db(txns)
    mine_max_ffis(db, 1)
    want = _nested_tidsets(db)
    assert packed[0].dtype == want.dtype
    assert packed[0].shape == want.shape and np.array_equal(packed[0], want)


_CAPPED_MINE = r'''
import json
import resource
import sys

cap = 384 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

from maxpat.core import itemset_db
from maxpat.miner import mine_max_ffis

res = mine_max_ffis(itemset_db(json.loads(sys.argv[1])), int(sys.argv[2]))
print(json.dumps([sorted(p.items) for p in res.maximal]))
'''


def _capped_mine(txns, tau):
    pytest.importorskip("resource")
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MINE, json.dumps(txns), str(tau)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return sorted(json.loads(proc.stdout))


def _exhaustive_maximal(txns, n_labels, tau):
    """The maximal frequent itemsets over labels 1..n_labels, from all
    2^n_labels subsets as bitmasks."""
    masks = np.arange(1 << n_labels)
    sup = np.zeros(1 << n_labels, dtype=np.int64)
    for t in txns:
        tm = sum(1 << (x - 1) for x in t)
        sup += (masks & tm) == masks
    frequent = sup >= tau
    maximal = frequent.copy()
    for b in range(n_labels):
        maximal &= ~(frequent[masks | (1 << b)] & (masks >> b & 1 == 0))
    return sorted([b + 1 for b in range(n_labels) if m >> b & 1]
                  for m in np.flatnonzero(maximal))


def test_dense_maximality_filter_fits_in_memory():
    # tens of thousands of frequent sets used to make the maximality filter
    # broadcast them against each other and ask for gigabytes
    rng = random.Random(7)
    txns = [rng.sample(range(1, 19), 14) for _ in range(150)]
    assert _capped_mine(txns, 30) == _exhaustive_maximal(txns, 18, 30)


def test_dense_join_climb_fits_in_memory():
    # the itemsets-dense shape: the join climb builds about 1.2 million
    # unions for 111 thousand candidates, so it has to expand its pairs a
    # block at a time
    rng = random.Random(11)
    txns = [rng.sample(range(1, 21), 15) for _ in range(300)]
    assert _capped_mine(txns, 40) == _exhaustive_maximal(txns, 20, 40)
