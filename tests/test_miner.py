import json
import random
import subprocess
import sys
import time
from itertools import chain, combinations, compress

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import ITEMSET_ENCODINGS, _one_larger, _one_smaller
from maxpat import _kernels, core, io, miner, reductions
from maxpat.core import (
    Database, batch_patterns, graph_db, itemset_db, sequence_db, support,
)
from maxpat.domains import (
    DIGRAPH, GRAPH, ITEMSET, SEQUENCE, Itemset, LabelledGraph, Sequence,
    item_labels, pattern_leq, pattern_size,
)
from maxpat.errors import (
    DatabaseError, DomainMismatchError, ExtendError, PatternError,
)
from maxpat.feasibility import (
    ALWAYS, CONNECTED_EDGES, And, PreimageExistsAnd,
    connected_edge_itemset, evaluate,
)
from maxpat.incidence import item_incidence, label_array, lookup, number
from maxpat.io import render_pattern
from maxpat.miner import (
    count_maximal, extend, extendible, extendible_k, mine, mine_max_ffis,
    mine_via_reduction,
)
from maxpat.oracle import (
    enumerate_patterns, oracle_all_feasible_frequent, oracle_max,
)
from maxpat.reductions import (
    GraphToEdgeItemset, ItemsetToSequence, ItemsetToStar, SequenceToDag,
    Composed, bind_from_target, bind_reduction, encode_rows, lift_results,
    reduce_database,
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
            # postfilter joins every frequent set, auto the feasible ones
            assert len(a.stats) <= len(b.stats)
            for s_auto, s_post in zip(a.stats, b.stats):
                assert s_auto.level == s_post.level
                assert s_auto.candidates <= s_post.candidates


def test_postfilter_level_table_counts_every_frequent_set():
    """Postfilter mines on frequency alone, so its level table counts
    every frequent set of each size, and the feasible ones among them, as
    the oracle does: the table ``maxpat stats`` prints."""
    differ = 0
    for seed in range(100):
        db = random_itemset_db(random.Random(seed), n_labels=5, n_txns=6,
                               max_items=4, pair_items=True)
        for tau in (1, 2):
            post = mine_max_ffis(db, tau, CONNECTED_EDGES, mode="postfilter")
            auto = mine_max_ffis(db, tau, CONNECTED_EDGES)
            want = oracle_all_feasible_frequent(db, tau, CONNECTED_EDGES)
            want.pop(0, None)  # the empty itemset has no level
            assert {s.level: (s.frequent, s.feasible_frequent)
                    for s in post.stats if s.frequent} == want, (seed, tau)
            differ += auto.stats != post.stats
    assert differ > 100


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


def _grow_unchecked(rows, level, n, domain, _grow=miner._grow):
    """The step climb's grower without the Apriori check, the reference the
    pruned climb is compared with: every itemset or sequence row one
    element larger than a row of ``level``, a new rank in order or a new
    rank at any position; the one-element rows and graphs grow as the
    climb grows them."""
    if level == 0 or domain not in (ITEMSET, SEQUENCE):
        return _grow(rows, level, n, domain)
    out = set()
    for t in map(tuple, rows.tolist()):
        for x in range(n):
            if x in t:
                continue
            if domain == ITEMSET:
                out.add(tuple(sorted(t + (x,))))
            else:
                out.update(t[:i] + (x,) + t[i:] for i in range(len(t) + 1))
    return np.array(sorted(out), dtype=np.intp).reshape(len(out), level + 1)


def _climb(monkeypatch, reduced, tau, phi, grow):
    """Mine ``reduced`` with ``grow`` as the step climb's grower, and the
    source patterns of the sets it found frequent, in the order the climb
    asked the predicate about them."""
    asked = []

    def recorded(phi, patterns, step, sources, _fn=miner.judge):
        asked.extend(sources())
        return _fn(phi, patterns, step, sources)
    with monkeypatch.context() as m:
        m.setattr(miner, "_grow", grow)
        m.setattr(miner, "judge", recorded)
        res = mine_max_ffis(reduced, tau, phi)
    return res, asked[:sum(s.frequent for s in res.stats)]


@pytest.mark.parametrize("rid", [
    "compose:seq2dag,dirg2fis", "compose:fis2seq,seq2dag,dirg2fis",
    "compose:fis2tree,g2fis"])
def test_apriori_step_climb_is_complete_and_counts_less(rid, monkeypatch):
    """With the Apriori check the step climb still counts the image of every
    frequent source pattern the oracle enumerates, and asks the predicate
    about each such pattern once, and each of its levels counts no more
    candidates than the climb without the check, which finds the same
    frequent sets."""
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
                                miner._grow)
            ref, ref_found = _climb(monkeypatch, reduced, tau, phi,
                                    _grow_unchecked)
            want = {p for p in patterns if support(p, db) >= tau}
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


def _judging_images(phi, patterns, step=None, sources=None):
    """A step climb's judgement in which every conjunct asks about each
    image alone: the reference for ``judge``."""
    return [evaluate(phi, p) for p in patterns()]


def _source_predicates(db):
    """Predicates on ``db``'s own patterns: ``ALWAYS``, and one per domain
    that a step climb through it asks about the grown sources.  On graphs
    and digraphs they are non-monotone (criterion 5): being a star around
    the largest label, or a transitive tournament, holds for a pattern but
    not for all its sub-patterns, nor for all its super-patterns."""
    inner = {GRAPH: lambda: bind_from_target("fis2tree", db),
             DIGRAPH: SequenceToDag,
             SEQUENCE: ItemsetToSequence}.get(db.domain)
    return [ALWAYS] + ([PreimageExistsAnd(inner(), ALWAYS)] if inner else [])


@pytest.mark.parametrize("rid", ITEMSET_ENCODINGS)
def test_step_climb_answers_with_the_lifted_sources(rid, monkeypatch):
    """In mode auto ``mine_via_reduction`` answers with the source patterns
    that the step climb grew, judged on the sources: the answer of lifting
    the maximal images that the climb finds when it judges every image,
    with the same level table, and the oracle's.  The empty source pattern
    is reported where it alone is frequent."""
    rng = random.Random(rid)
    domain = bind_reduction(rid).source_domain
    empty = miner._empty_pattern(domain)
    kw = {"max_vertices": 4} if domain in (GRAPH, DIGRAPH) else {}
    runs = bottoms = 0
    for _ in range(12):
        db = random_db(rng, domain, n_labels=4, n_txns=rng.randint(2, 6),
                       **kw)
        r = bind_reduction(rid, db)
        images = reduce_database(
            r, Database(domain, tuple(t for t in db if t != empty)))
        for phi in _source_predicates(db):
            for tau in range(1, len(db) + 1):
                got = mine_via_reduction(r, db, tau, phi)
                with monkeypatch.context() as m:
                    m.setattr(miner, "judge", _judging_images)
                    ref = mine_max_ffis(images, tau, r.induced_feasibility(phi))
                want = lift_results(r, ref.maximal)
                if not want and empty is not None and tau <= len(db) \
                        and evaluate(phi, empty):
                    want = (empty,)
                assert got.maximal == want == oracle_max(db, tau, phi), (
                    db, tau, phi)
                assert got.stats == ref.stats
                bottoms += got.maximal == (empty,)
                runs += 1
    assert runs > 40 and bool(bottoms) == (empty is not None)


@pytest.mark.parametrize("rid", [
    "compose:fis2tree,g2fis", "compose:fis2tree,g2bdg3,g2fis",
    "compose:fis2seq,seq2dag,dirg2fis"])
def test_step_climb_reports_the_empty_source_pattern_alone(rid):
    """Where only the empty itemset is frequent, a star chain counts its
    image (the bare root, held by every row) at the bottom of the climb,
    which answers with the empty itemset itself; the order-dag chain cannot
    picture it, and ``mine_via_reduction`` reports it beside the climb."""
    db = itemset_db([{1}, {2}, {3}])
    r = bind_reduction(rid, db)
    assert mine_via_reduction(r, db, 2).maximal == (Itemset(),) \
        == oracle_max(db, 2, ALWAYS)
    images = mine_max_ffis(reduce_database(r, db), 2,
                           r.induced_feasibility(ALWAYS)).maximal
    assert lift_results(r, images) == (
        (Itemset(),) if "fis2tree" in rid else ())


def test_step_climb_builds_images_only_for_conjuncts_that_read_them(
        monkeypatch):
    """The step climb judges a preimage conjunct on its own step reduction
    by the source it grew, and builds an image only for a conjunct that
    reads it: a preimage through another reduction, or connectivity.  The
    answers and level tables are those of judging every image, and the
    oracle's, and the sources it answers with are the lifted images."""
    rng = random.Random(59)
    chain = bind_reduction("compose:seq2dag,dirg2fis")
    on_step = PreimageExistsAnd(chain,
                                PreimageExistsAnd(ItemsetToSequence(), ALWAYS))
    phis = {on_step: False,
            And((on_step, PreimageExistsAnd(GraphToEdgeItemset(directed=True),
                                            ALWAYS))): True,
            And((CONNECTED_EDGES, PreimageExistsAnd(chain, ALWAYS))): True}
    built = dict.fromkeys(phis, 0)

    def counting(phi, patterns, step, sources, _fn=miner.judge):
        def build():
            built[phi] += 1
            return patterns()
        return _fn(phi, build, step, sources)
    runs = 0
    for _ in range(30):
        db = _noisy_images(rng, rng.randint(2, 5), rng.randint(1, 6))
        rows = item_incidence([t.items for t in db])
        for phi in phis:
            for tau in range(1, len(db) + 1):
                with monkeypatch.context() as m:
                    m.setattr(miner, "judge", counting)
                    got = mine_max_ffis(db, tau, phi)
                    sources = miner.climb_rows(rows, tau, phi, sources=True)
                    m.setattr(miner, "judge", _judging_images)
                    ref = mine_max_ffis(db, tau, phi)
                assert got == ref and got.stats == ref.stats, (db, tau)
                assert got.maximal == oracle_max(db, tau, phi), (db, tau)
                assert sources.maximal == lift_results(chain, got.maximal)
                assert sources.stats == got.stats
                runs += 1
    assert runs > 200
    assert all(bool(n) == reads for (phi, reads), n in
               zip(phis.items(), built.values())), built


@pytest.mark.parametrize("domain", [SEQUENCE, GRAPH, DIGRAPH])
def test_step_climb_builds_a_source_pattern_per_maximal_answer(
        domain, monkeypatch):
    """In mode auto with ``ALWAYS`` the step climb grows, counts and judges
    source rows, and builds a source pattern (``_trusted``) for each
    maximal answer and for nothing else."""
    rng = random.Random(domain)
    cls = Sequence if domain == SEQUENCE else LabelledGraph
    trusted = cls._trusted
    runs = 0
    for _ in range(10):
        db = random_db(rng, domain, n_txns=6)
        for tau in (1, 2, 3):
            built = []

            def counted(_cls, *args):
                built.append(args)
                return trusted(*args)
            with monkeypatch.context() as m:
                m.setattr(cls, "_trusted", classmethod(counted))
                res = mine(db, tau)
            assert res.maximal == oracle_max(db, tau, ALWAYS), (db, tau)
            # the empty sequence is reported beside the climb
            assert len(built) == sum(map(bool, map(pattern_size,
                                                   res.maximal)))
            runs += len(built) > 1
    assert runs > 15


@pytest.mark.parametrize("domain", [GRAPH, DIGRAPH])
def test_mining_a_parsed_graph_file_builds_no_transaction(domain,
                                                          monkeypatch):
    """A graph file that the batch parser reads is counted, encoded and
    mined from its batch: ``len``, ``universe``, ``encode_rows`` and
    ``mine`` build no transaction and no graph but the answer's, and the
    answer is the one mined from the line parser's database."""
    source = random_db(random.Random(domain), domain, n_txns=300,
                       max_vertices=6)
    text = io.write_database(source)
    built = []
    trusted, post_init = LabelledGraph._trusted, LabelledGraph.__post_init__

    def counted(cls, *args):
        built.append(args)
        return trusted(*args)

    def validated(self):
        built.append(self)
        post_init(self)
    with monkeypatch.context() as m:
        m.setattr(LabelledGraph, "_trusted", classmethod(counted))
        m.setattr(LabelledGraph, "__post_init__", validated)
        db = io.parse_database(text, domain)
        assert len(db) == 300 and db.universe == source.universe
        encode_rows(miner._ENCODINGS[domain], db)
        res = mine(db, 20)
        assert db._transactions is None
        assert len(built) == len(res.maximal) > 1
    assert res == mine(io._parse_graph_lines(text), 20)
    assert db == source


@pytest.mark.parametrize("domain", [ITEMSET, SEQUENCE])
def test_mining_a_parsed_line_file_builds_no_transaction(domain,
                                                         monkeypatch):
    """An itemset or sequence file that the batch parser reads is counted,
    encoded and mined from its batch: ``len``, ``universe``,
    ``encode_rows`` and ``mine`` build no transaction and no itemset or
    sequence but the answer's, the items that the join climb judges and
    the empty pattern that the encoding leaves out; ``mine_max_ffis``
    reads no pattern into a batch, and the answer is the one mined from
    the line parser's database."""
    size = "max_items" if domain == ITEMSET else "max_events"
    source = random_db(random.Random(domain), domain, n_txns=300,
                       **{size: 6})
    text, universe = io.write_database(source), source.universe
    cls = Itemset if domain == ITEMSET else Sequence
    built, read = [], []
    trusted, post_init = cls._trusted, cls.__post_init__
    read_rows = core.item_incidence

    def counted(_cls, *args):
        built.append(args)
        return trusted(*args)

    def validated(self):
        post_init(self)
        if len(self):
            built.append(self)

    def reading(rows):
        read.append(rows)
        return read_rows(rows)
    with monkeypatch.context() as m:
        m.setattr(cls, "_trusted", classmethod(counted))
        m.setattr(cls, "__post_init__", validated)
        m.setattr(core, "item_incidence", reading)
        db = io.parse_database(text, domain)
        assert len(db) == 300 and db.universe == universe
        if domain == SEQUENCE:
            encode_rows(miner._ENCODINGS[domain], db, skip=Sequence())
        res = mine(db, 20)
        assert db._transactions is None and read == []
        # under ALWAYS neither climb builds a pattern it does not answer
        assert len(built) == len(res.maximal)
        assert len(res.maximal) > 1
    assert res == mine(io._parse_lines(text, domain), 20)
    assert db == source


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
    # labels past int64 stay Python ints in object columns
    yield [(2**64, 2**64 + 1), (2**64 + 1, 2**65), (2**65 + 1, 2**65 + 1)], \
        1, [(0,), (1,), (2,)]


@pytest.mark.parametrize("block_bytes", [None, 512])
def test_generate_matches_bucket_join(block_bytes, monkeypatch):
    """The array join builds the same candidate list as the per-pair
    bucket join, order included, under every merge hint; with a tiny block
    size every level is split into many blocks of a few pairs."""
    if block_bytes is not None:
        monkeypatch.setattr(_kernels, "_CACHE_BYTES", block_bytes)
    rng = random.Random(59)
    unclosed = families = 0
    for labels, m, fam in _join_families(rng):
        survivors = np.array(fam, dtype=np.intp).reshape(-1, m)
        items = item_incidence([labels]).labels
        labels_of = [item_labels(labels[i] for i in s) for s in fam]
        wants = [_bucket_join(fam, labels_of, hint) for _, hint in _HINTS]
        for (phi, _), want in zip(_HINTS, wants):
            got = miner._generate(survivors, items, phi)
            assert got.dtype == np.intp and got.shape[1] == m + 1
            assert list(map(tuple, got.tolist())) == want, (labels, fam, phi)
        members = set(fam)
        families += 1
        unclosed += any(c[:j] + c[j + 1:] not in members
                        for c in wants[0] for j in range(m + 1))
    assert unclosed > families // 2


def test_inserted_matches_a_row_sort():
    """``_inserted`` puts each row's new entry in its place, as sorting
    the row with it would: rows of width 0 to 8, no rows, new entries
    below, between and above a row's, over plain item indices and over
    the edge codes a * n + b (a < b) of a graph level."""
    rng = np.random.default_rng(30)
    n = 9
    codes = np.array([a * n + b for a in range(n) for b in range(a + 1, n)])
    for universe in (np.arange(20), codes):
        for m in range(9):
            for count in (0, 1, 60):
                picks = [rng.choice(universe, m + 1, replace=False)
                         for _ in range(count)]
                rows = np.array([np.sort(p[:m]) for p in picks],
                                dtype=np.intp).reshape(count, m)
                new = np.array([p[m] for p in picks], dtype=np.intp)
                got = miner._inserted(rows, new)
                assert got.dtype == np.intp and got.shape == (count, m + 1)
                assert np.array_equal(
                    got, np.sort(np.column_stack((rows, new)), axis=1))
    rows = np.array([[2, 4, 6]] * 4, dtype=np.intp)
    assert miner._inserted(rows, np.array([0, 3, 5, 7])).tolist() == [
        [0, 2, 4, 6], [2, 3, 4, 6], [2, 4, 5, 6], [2, 4, 6, 7]]


def test_row_keys_sort_like_the_rows():
    """``_row_keys`` keys a row by one int64 word while it fits one, and
    by a byte string of its words past that.  Either way ``_key_rows``
    gives the rows back, equal rows key equal, and a stable sort of the
    keys orders the rows as ``np.lexsort`` does: 0 to 2w + 1 columns, w
    to a word, over 2, 1 000 and 2**20 items, with no rows, with repeats
    and with the largest entry in every column."""
    rng = np.random.default_rng(37)
    for n_items in (2, 1000, 2**20):
        _, per_word = miner._packing(n_items)
        for k in sorted({0, 1, 2, per_word - 1, per_word, per_word + 1,
                         2 * per_word, 2 * per_word + 1}):
            for count in (0, 60):
                rows = rng.integers(0, n_items, size=(count, k))
                if count:
                    rows[0], rows[1] = 0, n_items - 1
                    rows = np.vstack((rows, rows[::7]))
                keys = miner._row_keys(rows, n_items)
                assert keys.shape == (len(rows),)
                assert (keys.dtype == np.int64) == (k <= per_word)
                assert np.array_equal(miner._key_rows(keys, k, n_items),
                                      rows)
                assert np.array_equal(
                    np.argsort(keys, kind="stable"),
                    np.lexsort(rows.T[::-1]) if k else np.arange(len(rows)))
                assert len(miner._distinct(keys)) \
                    == len(set(map(tuple, rows.tolist())))


def test_lookup_finds_row_keys_of_either_kind():
    """``lookup`` searches a single column as it is: sorted row keys of
    one int64 word and of two words, as byte strings, alike."""
    rng = np.random.default_rng(41)
    for k in (3, 9):  # over 1 000 items, six to a word
        rows = rng.integers(0, 1000, size=(200, k))
        rows[150:] = rows[:50]
        keys = miner._row_keys(rows, 1000)
        assert keys.dtype == (np.int64 if k == 3 else np.dtype("V16"))
        known = miner._distinct(keys[:100])
        at = {r: i for i, r in enumerate(map(tuple, miner._key_rows(
            known, k, 1000).tolist()))}
        assert lookup((known,), (keys,)).tolist() == [
            at.get(r, -1) for r in map(tuple, rows.tolist())]
        assert lookup((known,), (keys[:0],)).tolist() == []
        assert lookup((known[:0],), (keys,)).tolist() == [-1] * len(keys)


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


def test_auto_join_climb_judges_level_one_alone(monkeypatch):
    """Without a step reduction, the merge hint keeps two feasible items
    exactly when their union is feasible, and two feasible sets sharing an
    item have a feasible union, so every candidate that ``_generate``
    hands the auto climb from level 2 on is connected, and
    the climb judges only the frequent sets of level 1.  Postfilter
    judges every frequent set.  Neither builds a set to judge under
    ``ALWAYS``, which accepts them all, and under any other predicate
    either judges the empty itemset when nothing was collected
    (``_bottom``)."""
    generated = []
    evaluated = []

    def recorded(survivors, items, phi, _fn=miner._generate):
        generated.append(_fn(survivors, items, phi))
        return generated[-1]

    def counted(phi, patterns, *args, _fn=miner.judge):
        def build():
            built = patterns()
            evaluated.extend(built)
            return built
        return _fn(phi, build, *args)
    monkeypatch.setattr(miner, "_generate", recorded)
    monkeypatch.setattr(miner, "judge", counted)
    rng = random.Random(67)
    joined = 0
    for _ in range(60):
        db = random_itemset_db(rng, n_labels=5, n_txns=5, max_items=5,
                               pair_items=True)
        items = sorted({x for t in db for x in t.items})
        for phi in (ALWAYS, CONNECTED_EDGES, And((ALWAYS, CONNECTED_EDGES))):
            for tau in range(1, len(db) + 1):
                generated.clear()
                evaluated.clear()
                auto = mine_max_ffis(db, tau, phi)
                bottom = not any(s.feasible_frequent for s in auto.stats)
                judged = phi != ALWAYS
                assert len(evaluated) == judged * (auto.stats[0].frequent
                                                   + bottom)
                for rows in generated if phi != ALWAYS else ():
                    joined += len(rows)
                    assert all(connected_edge_itemset([items[i] for i in row])
                               for row in rows.tolist())
                evaluated.clear()
                post = mine_max_ffis(db, tau, phi, mode="postfilter")
                assert len(evaluated) == judged * (sum(
                    s.frequent for s in post.stats) + bottom)
    assert joined > 1000


def _padded_levels(rng, n_items):
    """Distinct non-empty sets of item indices below ``n_items``, dealt
    into levels of sorted rows padded at the end with ``n_items``: empty
    levels, levels of one size, and levels of two or more sizes, as a
    grown graph level images to sets of two sizes."""
    sets = {frozenset(rng.sample(range(n_items), rng.randint(1, n_items)))
            for _ in range(rng.randint(0, 25))}
    sets = list(sets)
    rng.shuffle(sets)
    levels = []
    while sets or rng.random() < 0.3:
        cut = rng.randint(0, len(sets))
        chunk, sets = sets[:cut], sets[cut:]
        width = max(map(len, chunk), default=rng.randint(0, 2)) \
            + rng.randint(0, 1)
        levels.append(np.array([sorted(c) + [n_items] * (width - len(c))
                                for c in chunk], dtype=np.intp)
                      .reshape(len(chunk), width))
    return levels


def test_maximal_among_padded_levels_matches_pairwise_subsets():
    """``_maximal_among`` marks, per level, each row with no strict
    superset among the rows of all the levels, whatever their widths and
    padding: a pairwise subset test in Python is the reference."""
    rng = random.Random(71)
    mixed = empty = 0
    for _ in range(300):
        n_items = rng.randint(1, 9)
        levels = _padded_levels(rng, n_items)
        if not any(map(len, levels)):
            continue
        sets = [[frozenset(row) - {n_items} for row in m.tolist()]
                for m in levels]
        every = [s for level in sets for s in level]
        got = miner._maximal_among(levels, n_items)
        assert [m.tolist() for m in got] == [
            [not any(s < t for t in every) for s in level] for level in sets]
        mixed += any(len(set(map(len, level))) > 1 for level in sets)
        empty += any(len(m) == 0 for m in levels)
    assert mixed > 100 and empty > 50


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
        [(1, 5, 5, 5), (2, 10, 5, 5), (3, 5, 1, 1)],
        ["{1,2 2,3}", "{1,3 2,3 3,4}", "{1,4 3,4}"]),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_level_tables_and_answers_are_pinned(name):
    db, tau, phi, mode = pinned_instances()[name]
    res = mine(db, tau, phi, mode=mode)
    assert [(s.level, s.candidates, s.frequent, s.feasible_frequent)
            for s in res.stats] == PINNED[name][0]
    assert [render_pattern(p) for p in res.maximal] == PINNED[name][1]


@pytest.mark.parametrize("domain", [ITEMSET, SEQUENCE, GRAPH])
def test_tiny_blocks_mine_the_default_answers(domain, monkeypatch):
    """With blocks of 64 bytes every pack, count and join is split into
    blocks of a row or a few: the answers and level tables stay those of
    the default block sizes, on a pinned instance and on one whose tidsets
    take two words."""
    name = {ITEMSET: "itemsets", SEQUENCE: "sequences", GRAPH: "graphs"}
    db, tau, phi, mode = pinned_instances()[name[domain]]
    wide = random_db(random.Random(17), domain, n_txns=100)
    runs = [(db, tau, phi, mode), (wide, 3, ALWAYS, "auto")]
    want = [mine(*run) for run in runs]
    monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 64)
    monkeypatch.setattr(_kernels, "_CACHE_BYTES", 64)
    for run, res in zip(runs, want):
        got = mine(*run)
        assert got.maximal == res.maximal and got.stats == res.stats


def test_benchmark_wrap_points_are_called(monkeypatch):
    """perfbench times the layers by replacing module attributes, so the
    miner has to look each of these up there, or that layer reads zero.
    Mining through a reduction in mode auto lifts nothing, and either
    climb judges its levels with ``judge``, the feasibility layer's wrap
    point (perfbench's tracer still wraps ``evaluate``, which no climb
    calls)."""
    targets = [(_kernels, "count_supports"), (_kernels, "pack_rows"),
               (miner, "judge"), (miner, "encode_rows"),
               (miner, "climb_rows")]
    calls = set()
    for mod, name in targets:
        def counted(*args, _fn=getattr(mod, name), _name=name, **kwargs):
            calls.add(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    db = graph_db([LabelledGraph(frozenset({1, 2, 3}),
                                 frozenset({(1, 2), (2, 3)}))] * 2)
    assert mine(db, 2).maximal == db.transactions[:1]
    edges = itemset_db([{(1, 2), (2, 3)}] * 2)
    assert mine(edges, 2, CONNECTED_EDGES).maximal == edges.transactions[:1]
    assert calls == {name for _, name in targets}

    # the encoded size is Σ len(image) over the encoded transactions: equal
    # graphs still count once each
    climbed = []

    def recorded(incidence, *args, _fn=miner.climb_rows, **kwargs):
        climbed.append(incidence)
        return _fn(incidence, *args, **kwargs)
    monkeypatch.setattr(miner, "climb_rows", recorded)
    rng = random.Random(4)
    pool = random_graph_db(rng, n_txns=4).transactions
    dup = graph_db([LabelledGraph(g.vertices, g.edges)
                    for g in rng.choices(pool, k=30)])
    mine(dup, 3)
    r = GraphToEdgeItemset()
    assert len(set(dup)) < climbed[0].n_rows == len(dup)
    assert len(climbed[0].rows) == sum(len(r.forward(t)) for t in dup)
    assert (np.bincount(climbed[0].rows, minlength=len(dup)).tolist()
            == [len(r.forward(t)) for t in dup])


@pytest.mark.parametrize("rid", ITEMSET_ENCODINGS)
def test_climb_packs_the_rows_of_the_image_database(rid, monkeypatch):
    """``mine_via_reduction`` packs, row for row, the items of the validated
    image database of the transactions other than the empty one, with
    repeats kept."""
    packed = []

    def recorded(incidence, _fn=miner._pack):
        items, tidsets = _fn(incidence)
        packed.append((incidence, _listed(items), tidsets))
        return items, tidsets
    monkeypatch.setattr(miner, "_pack", recorded)
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
        image = reduce_database(r, kept)
        (incidence, items, tidsets), = packed
        assert incidence.n_rows == len(image)
        assert (len(incidence.rows)
                == sum(len(q) for q in image.transactions))
        assert (_packed_rows(items, tidsets, incidence.n_rows)
                == [list(q.items) for q in image.transactions])
        assert np.array_equal(tidsets, _nested_tidsets(image))
        repeats += len(db) - len(set(db))
        empties += len(db) - len(kept)
    assert repeats > 50
    assert bool(empties) == (domain == ITEMSET)


@pytest.mark.parametrize("db, first", [
    (graph_db([LabelledGraph(frozenset({(1, 2), (2, 3)}),
                             frozenset({((1, 2), (2, 3))}))] * 2), 0),
    (graph_db([LabelledGraph(frozenset({(1, 2), (2, 3)}),
                             frozenset({((2, 3), (1, 2))}), directed=True),
               LabelledGraph(frozenset({(1, 2)}), frozenset(),
                             directed=True)], directed=True), 0),
    (sequence_db([(), ((1, 2),), (), ((2, 3), (1, 2))]), 1),
], ids=["g2fis", "dirg2fis", "seq2dag-dirg2fis"])
def test_mine_reports_a_rejected_transaction_at_its_first_index(db, first):
    with pytest.raises(DatabaseError) as ei:
        mine(db, 1)
    assert ei.value.index == first
    # the message is the one the transaction's own encoding raises
    with pytest.raises(PatternError) as own:
        miner._ENCODINGS[db.domain].forward(db.transactions[first])
    assert str(ei.value) == f"transaction {first}: cannot reduce: {own.value}"


def test_a_rejected_transaction_is_found_by_bisection(monkeypatch):
    """A refused batch's first refused row is found by bisecting on
    prefixes of the rows: on 1 000 transactions, two of them refused,
    ``encode_rows`` names the first with its own encoding's message in at
    most 2 * ceil(log2 n) + 2 batch maps."""
    rng = random.Random(7)
    txns = [rng.sample(range(1, 9), rng.randint(1, 4)) for _ in range(1000)]
    txns[997] = txns[998] = ()
    db = sequence_db(txns)
    r = bind_reduction("seq2dag")
    with pytest.raises(PatternError) as own:
        r.forward(db.transactions[997])
    maps = []
    batch = SequenceToDag._batch

    def counted(self, seq):
        maps.append(seq)
        return batch(self, seq)
    monkeypatch.setattr(SequenceToDag, "_batch", counted)
    with pytest.raises(DatabaseError) as ei:
        encode_rows(r, db)
    assert ei.value.index == 997
    assert str(ei.value) == f"transaction 997: cannot reduce: {own.value}"
    # (n - 1).bit_length() is ceil(log2 n)
    assert len(maps) <= 2 * (len(txns) - 1).bit_length() + 2


def _relabelled(db, f):
    """``db`` with every plain label x, alone or in a pair, renamed f(x)."""
    def label(x):
        return tuple(map(f, x)) if isinstance(x, tuple) else f(x)

    def renamed(t):
        if isinstance(t, Itemset):
            return Itemset(tuple(map(label, t.items)))
        if isinstance(t, Sequence):
            return Sequence(tuple(map(label, t.events)))
        return LabelledGraph(frozenset(map(label, t.vertices)),
                             frozenset((f(a), f(b)) for a, b in t.edges),
                             directed=t.directed)
    return Database(db.domain, tuple(map(renamed, db.transactions)))


@pytest.mark.parametrize("rename", [
    lambda x: 2**63 + 7 * x,        # labels past int64
    lambda x: 2**64 - 3 * x,        # past int64, in reverse order
    lambda x: 10**9 + 11 * x,       # pair codes fit int64, past any table
    lambda x: 4 * 10**9 - x,        # labels fit int64, pair codes do not
], ids=["2**63", "2**64-reversed", "1e9", "4e9-reversed"])
def test_huge_labels_mine_to_the_oracle_answer(rename):
    """Labels far above the item count are numbered exactly, on every
    domain and for plain labels and pairs alike: an int64 numbering that
    overflowed would mine a wrong answer without a word."""
    rng = random.Random(29)
    runs = 0
    for domain, kw in [(ITEMSET, {}), (ITEMSET, {"pair_items": True}),
                       (GRAPH, {}), (DIGRAPH, {}), (SEQUENCE, {})]:
        for _ in range(3):
            db = _relabelled(random_db(rng, domain, n_labels=5, n_txns=6,
                                       **kw), rename)
            for tau in (1, 2, 3):
                assert mine(db, tau).maximal == oracle_max(db, tau, ALWAYS), (
                    db, tau)
                runs += 1
    assert runs == 45


def _edge_itemset(r, p):
    """The image of ``p`` under ``r``, a reduction ending in an edge-itemset
    link, with that link spelled out through the validating constructor:
    a marker pair per vertex and one pair per edge."""
    for link in r.links[:-1] if isinstance(r, Composed) else ():
        p = link.forward(p)
    return Itemset([(v, v) for v in p.vertices] + list(p.edges))


@pytest.mark.parametrize("rid", ITEMSET_ENCODINGS)
def test_grown_levels_are_numbered_forward_images(rid):
    """Each level of the step climb holds the source rows that hold every
    pattern one element larger than a frequent pattern of the level below
    (for an itemset or a sequence, one whose one-smaller sub-patterns are
    all frequent), each beside a row of the sorted item indices of
    ``forward``'s image of it, padded at the end with the padding item;
    it drops a pattern whose image has an item the database lacks (one
    with a label no transaction holds, among others) together with its
    row; labels past int64 too, where the chain allows them (``g2bdg3``
    makes a path as long as its largest label)."""
    rng = random.Random(rid)
    domain = bind_reduction(rid).source_domain
    empty = miner._empty_pattern(domain)
    shifts = [0] if "g2bdg3" in rid else [0, 2**63]
    kept = dropped = 0
    for shift in shifts:
        for _ in range(4):
            db = _relabelled(random_db(rng, domain, n_txns=6),
                             lambda x: 2 * x + shift)
            r = bind_reduction(rid, db)
            columns, tidsets = miner._pack(encode_rows(r, db, skip=empty))
            items = _listed(columns)
            index = {x: i for i, x in enumerate(items)}
            alphabet = sorted(r.source_labels(item_labels(items))
                              | {1 + shift})
            labels = label_array(lambda: iter(alphabet), len(alphabet))
            level, grown, k = None, None, 0
            while level != []:
                grown, rows = miner._images(
                    r, miner._grow(grown, k, len(alphabet), domain), labels,
                    columns)
                k += 1
                sources = list(batch_patterns(
                    domain, miner._row_batch(domain, grown, labels)))
                want = {}
                for q in {q for p in level or [None]
                          for q in _one_larger(domain, p, alphabet)
                          if level is None or domain in (GRAPH, DIGRAPH)
                          or _one_smaller(q) <= set(level)}:
                    image = r.forward(q).items
                    assert image == _edge_itemset(r, q).items
                    if all(x in index for x in image):
                        want[q] = [index[x] for x in image]
                    else:
                        dropped += 1
                assert len(set(sources)) == len(sources)
                assert set(sources) == set(want)
                assert rows.tolist() == [
                    sorted(want[q]) + [len(items)] * (
                        rows.shape[1] - len(want[q])) for q in sources]
                kept += len(sources)
                frequent = _kernels.count_supports(
                    miner._padded(tidsets), rows) >= 1
                level = list(compress(sources, frequent))
                grown = grown[frequent]
    # every database drops at least the one-element pattern of 1 + shift
    assert kept > 50 and dropped >= 4 * len(shifts)


def test_lookup_finds_numbered_items_and_nothing_else():
    """``lookup`` gives each entry's index among the numbered items, and -1
    for no item: a label or code above the largest item's, a pair whose
    second label reaches the base (its code would be another pair's), and
    an entry of the other kind; past int64 as below it."""
    def find(items, *columns):
        return lookup(item_incidence([items]).labels, tuple(
            np.array(c, dtype=object if max(c, default=0) >= 2**63 else None)
            for c in columns)).tolist()

    assert find([1, 5, 9], [9, 1, 2, 10, 5]) == [2, 0, -1, -1, 1]
    # base 4: (1, 5) and (0, 5) would code as (2, 1) and (1, 1)
    assert find([(1, 1), (1, 3), (2, 1)], [1, 2, 1, 0, 3, 1],
                [3, 1, 5, 5, 1, 1]) == [1, 2, -1, -1, -1, 0]
    assert find([1, 2], [1], [1]) == find([(1, 1)], [1]) == [-1]
    assert find([], [1]) == find([], [1], [1]) == [-1]
    huge = [2**63, 2**64]
    assert find(huge, [2**64, 3, 2**63, 2**65]) == [1, -1, 0, -1]
    assert find(huge, [3, 7]) == [-1, -1]
    assert find([1, 5], [5, 2**64]) == [1, -1]
    assert find([(1, 2**63), (2**64, 1)], [2**64, 1, 1, 2**64],
                [1, 2**63, 2**63 + 1, 2]) == [1, 0, -1, -1]
    # on the labels it numbered, the lookup gives number's own indices
    rng = np.random.default_rng(3)
    for top in (50, 2**40, 2**70):
        for width in (1, 2):
            labels = tuple(np.array([int(x) for x in rng.integers(
                1, 60, size=40)], dtype=object) * (top // 60) + 1
                for _ in range(width))
            labels = tuple(c.astype(np.int64) if top < 2**62 else c
                           for c in labels)
            items, index = number(labels)
            assert lookup(items, labels).tolist() == index.tolist()


@pytest.mark.parametrize("kind", ["plain", "pairs", "chain", "wide",
                                  "past-int64"])
def test_number_past_the_table_matches_a_reference(kind):
    """Codes past the lookup table are numbered by one sort of keys that
    carry each entry's position, or by ``np.unique`` when they are too
    wide for that or past int64: either way the sorted distinct labels,
    int64 or, past it, Python ints, and each entry's index among them, as
    a sorted set and a dict find them.  ``chain`` has the pairs (x, x) and
    (x, x + 1) of a path bundle, dense components whose codes still pass
    the table."""
    rng = np.random.default_rng(31)

    def drawn(top, count=5000):
        pool = rng.choice(np.arange(1, top, top // 997), 300, replace=False)
        return rng.choice(pool, count)

    x = rng.integers(1, 5000, size=20000)
    labels = {"plain": (drawn(2**40),),
              "pairs": (drawn(2**20), drawn(2**20)),
              "chain": (x, x + rng.integers(0, 2, size=len(x))),
              "wide": (drawn(2**62),),
              "past-int64": (drawn(2**62).astype(object) * 8,
                             drawn(2**20))}[kind]
    items, index = number(labels)
    entries = list(zip(*(c.tolist() for c in labels)))
    want = sorted(set(entries))
    assert list(zip(*(c.tolist() for c in items))) == want
    assert {c.dtype for c in items} == {
        np.dtype(object if kind == "past-int64" else np.int64)}
    at = {e: i for i, e in enumerate(want)}
    assert index.tolist() == [at[e] for e in entries]


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


def _listed(columns):
    """The items that ``miner._pack`` numbers as label columns, as a list
    of labels or of label pairs."""
    lists = [c.tolist() for c in columns]
    return lists[0] if len(lists) == 1 else list(zip(*lists))


def _packed_rows(items, tidsets, n_rows):
    """The rows that ``tidsets`` packs over the numbered ``items``, each as
    the sorted list of the items whose bit it sets."""
    r = np.arange(n_rows)
    member = (tidsets[:, r >> 6] >> (r & 63).astype(np.uint64)) & np.uint64(1)
    return [[items[i] for i in np.flatnonzero(col)] for col in member.T]


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

    def recorded(incidence, _fn=miner._pack):
        packed.append(_fn(incidence))
        return packed[-1]
    monkeypatch.setattr(miner, "_pack", recorded)
    db = itemset_db(txns)
    mine_max_ffis(db, 1)
    (items, tidsets), = packed
    want = _nested_tidsets(db)
    assert _listed(items) == sorted(
        {x for t in db.transactions for x in t.items})
    assert tidsets.dtype == want.dtype
    assert tidsets.shape == want.shape and np.array_equal(tidsets, want)


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


def test_mining_itemsets_leaves_numpy_ma_unloaded():
    """``np.unique`` without ``return_inverse`` imports ``numpy.ma`` on
    first use, a megabyte that a mine would load for nothing: neither the
    join climb nor ``Database.universe`` calls it."""
    code = ("import sys\n"
            "from maxpat.core import itemset_db\n"
            "from maxpat.miner import mine\n"
            "db = itemset_db([[1, 2, 3], [1, 2], [2, 3], [1, 3]] * 50)\n"
            "assert len(mine(db, 60).maximal) == 3 and len(db.universe) == 3\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


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
