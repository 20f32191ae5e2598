"""End-to-end acceptance checks.

Each test prints one ``[criterion N] PASS/FAIL`` line on the real stdout so
the verdicts survive pytest's capture, and fails loudly otherwise.  All
comparisons are exact; the random instances are seeded, sized to stay well
inside the brute-force oracle's guard, and swept over every meaningful
support threshold where the criterion calls for it.
"""

import functools
import os
import random
import subprocess
import sys
import time

from maxpat.core import itemset_db
from maxpat.domains import (
    DIGRAPH, GRAPH, ITEMSET, SEQUENCE, Itemset, Sequence,
    canonical_key, pattern_domain, pattern_leq, undirected_degrees,
    validate_class,
)
from maxpat.errors import PatternError
from maxpat.feasibility import ALWAYS, CONNECTED_EDGES, evaluate
from maxpat.miner import (
    extend, extendible, extendible_k, mine, mine_max_ffis,
)
from maxpat.oracle import oracle_max
from maxpat.reductions import (
    bind_reduction, lift_results, reduce_database,
)
from maxpat.synth import (
    random_db, random_graph_db, random_itemset_db, random_sequence_db,
    random_subpattern,
)
from maxpat import cli


BUDGET_SECONDS = 120


def _emit(capfd, line):
    if capfd is not None:
        with capfd.disabled():
            print(line, flush=True)
    else:  # direct invocation outside pytest
        sys.__stdout__.write(line + "\n")
        sys.__stdout__.flush()


def criterion(n):
    """Print the verdict line for criterion ``n`` on the real stdout, past
    pytest's capture.  Wrapped tests declare a ``capfd`` fixture for the
    decorator's use and return their detail string."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            capfd = kwargs.get("capfd")
            try:
                detail = fn(*args, **kwargs)
            except BaseException as e:
                msg = str(e).splitlines()[0] if str(e) else type(e).__name__
                _emit(capfd, f"[criterion {n}] FAIL: {msg}")
                raise
            _emit(capfd, f"[criterion {n}] PASS: {detail}")

        return wrapper

    return deco


def _txn_count(rng):
    # mostly small so full tau sweeps stay cheap, with a tail up to 20
    return rng.randint(7, 20) if rng.random() < 0.1 else rng.randint(1, 6)


# ---------------------------------------------------------------------------
# criterion 1: the miner agrees with the brute-force oracle everywhere


def _c1_instances(domain, rng):
    """500 seeded instances; itemset alternates plain databases with the
    pair-item shape where the connectivity predicate applies."""
    for i in range(500):
        n_txns = _txn_count(rng)
        if domain == ITEMSET and i % 2 == 1:
            db = random_itemset_db(rng, n_labels=rng.randint(3, 5),
                                   n_txns=n_txns, max_items=4,
                                   pair_items=True)
            yield db, (ALWAYS, CONNECTED_EDGES)
        elif domain == ITEMSET:
            db = random_itemset_db(rng, n_labels=rng.randint(3, 12),
                                   n_txns=n_txns, max_items=5)
            yield db, (ALWAYS,)
        elif domain == SEQUENCE:
            yield random_sequence_db(rng, n_labels=rng.randint(2, 8),
                                     n_txns=n_txns), (ALWAYS,)
        else:
            yield random_graph_db(rng, n_labels=rng.randint(2, 6),
                                  n_txns=n_txns,
                                  max_vertices=rng.randint(1, 4),
                                  directed=domain == DIGRAPH,
                                  acyclic=rng.random() < 0.5), (ALWAYS,)


@criterion(1)
def test_criterion_1_oracle_equivalence(capfd):
    started = time.monotonic()
    runs = 0
    for d_idx, domain in enumerate((ITEMSET, SEQUENCE, GRAPH, DIGRAPH)):
        rng = random.Random(1000 + d_idx)
        n = 0
        for db, phis in _c1_instances(domain, rng):
            n += 1
            for tau in range(1, len(db.transactions) + 1):
                for phi in phis:
                    want = oracle_max(db, tau, phi)
                    got = mine(db, tau, phi).maximal
                    assert got == want, (
                        f"{domain} tau={tau}: miner {got} != oracle {want}")
                    runs += 1
        assert n >= 500
    elapsed = time.monotonic() - started
    assert elapsed < BUDGET_SECONDS, f"took {elapsed:.1f}s"
    return (f"4x500 instances, {runs} mining runs matched the oracle "
            f"exactly in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: every reduction preserves order, round-trips, lands in its
# class, and commutes with mining


def _itemset_src(rng, allow_empty=True):
    return random_itemset_db(rng, n_labels=rng.randint(2, 6),
                             n_txns=rng.randint(1, 6), max_items=4,
                             allow_empty=allow_empty)


def _reduction_cases():
    """(chain id, source generator); sources sized so that the target-side
    miner and the source-side oracle both stay cheap — the path-bundle
    images in particular grow with |V| * max label."""
    return (
        ("fis2tree", _itemset_src),
        ("fis2seq", _itemset_src),
        ("g2bdg3", lambda rng: random_graph_db(
            rng, n_labels=3, n_txns=rng.randint(1, 5), max_vertices=2)),
        ("g2fis", lambda rng: random_graph_db(
            rng, n_labels=rng.randint(2, 6), n_txns=rng.randint(1, 6),
            max_vertices=4)),
        ("dirg2fis", lambda rng: random_graph_db(
            rng, n_labels=rng.randint(2, 6), n_txns=rng.randint(1, 6),
            max_vertices=4, directed=True, acyclic=rng.random() < 0.5)),
        ("seq2dag", lambda rng: random_sequence_db(
            rng, n_labels=rng.randint(2, 6), n_txns=rng.randint(1, 6),
            allow_empty=False)),
        ("compose:fis2seq,seq2dag",
         lambda rng: _itemset_src(rng, allow_empty=False)),
    )


def _image_or_none(r, p):
    try:
        return r.forward(p)
    except PatternError:
        return None


def _mine_target(r, target_db, tau):
    phi = r.induced_feasibility(ALWAYS)
    if r.target_domain == ITEMSET:
        return mine_max_ffis(target_db, tau, phi).maximal
    return mine(target_db, tau, phi).maximal


@criterion(2)
def test_criterion_2_reduction_property_suite(capfd):
    started = time.monotonic()
    totals = []
    for rid, make in _reduction_cases():
        rng = random.Random(2000 + len(rid))
        instances = pairs = 0
        for _ in range(200):
            src = make(rng)
            r = bind_reduction(rid, src)
            target_db = reduce_database(r, src)
            instances += 1

            # round-trip identity and target-class membership, per txn
            for t, img in zip(src.transactions, target_db.transactions):
                assert pattern_domain(img) == r.target_domain
                if r.target_class is not None:
                    assert validate_class(img, r.target_class), (rid, img)
                assert r.inverse(img) == t, (rid, t)

            # order preservation and reflection on sampled pattern pairs
            pool = []
            for t in src.transactions:
                for cand in (t, random_subpattern(rng, t),
                             random_subpattern(rng, t)):
                    img = _image_or_none(r, cand)
                    if img is not None:
                        pool.append((cand, img))
            for _ in range(min(12, len(pool) * 2)):
                (p, fp), (q, fq) = rng.choice(pool), rng.choice(pool)
                assert pattern_leq(p, q) == pattern_leq(fp, fq), (rid, p, q)
                pairs += 1

            # the mining square: count equality and exact lifted results
            tau = rng.randint(1, len(src.transactions))
            src_max = oracle_max(src, tau, ALWAYS)
            target_max = _mine_target(r, target_db, tau)
            representable = [p for p in src_max
                             if _image_or_none(r, p) is not None]
            assert len(representable) == len(target_max), (rid, tau)

            lifted = lift_results(r, target_max)
            if not lifted and tau <= len(src.transactions):
                empty = {ITEMSET: Itemset(), SEQUENCE: Sequence()}.get(
                    r.source_domain)
                if empty is not None and evaluate(ALWAYS, empty):
                    lifted = (empty,)
            assert tuple(sorted(lifted, key=canonical_key)) == src_max, (
                rid, tau)
        totals.append(f"{rid}:{instances}")
        assert instances >= 200
        assert pairs >= 200
    elapsed = time.monotonic() - started
    assert elapsed < BUDGET_SECONDS, f"took {elapsed:.1f}s"
    return ("round-trip, order both ways, class membership and the mining "
            f"square held on {', '.join(totals)} instances in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: the degree-bounded encoding never exceeds degree three


@criterion(3)
def test_criterion_3_degree_bound(capfd):
    rng = random.Random(3000)
    worst = 0
    for _ in range(200):
        src = random_graph_db(rng, n_labels=rng.randint(2, 8),
                              n_txns=rng.randint(1, 6),
                              max_vertices=rng.randint(1, 6))
        r = bind_reduction("g2bdg3", src)
        for t in src.transactions:
            img = r.forward(t)
            degrees = undirected_degrees(img)
            top = max(degrees.values())
            worst = max(worst, top)
            assert top <= 3, (t, img)
            assert validate_class(img, r.target_class)
    return f"200 databases, every image within degree 3 (worst seen {worst})"


# ---------------------------------------------------------------------------
# criterion 4: constrained pruning only ever shrinks the climb, and both
# feasibility modes mine the same answer


@criterion(4)
def test_criterion_4_pruning_guarantees(capfd):
    rng = random.Random(4000)
    checked = trimmed = 0
    for _ in range(150):
        db = random_itemset_db(rng, n_labels=rng.randint(3, 5),
                               n_txns=rng.randint(1, 6), max_items=4,
                               pair_items=True)
        for tau in range(1, len(db.transactions) + 1):
            pruned = mine_max_ffis(db, tau, CONNECTED_EDGES, mode="auto")
            plain = mine_max_ffis(db, tau, ALWAYS)
            for s_con, s_unc in zip(pruned.stats, plain.stats):
                assert s_con.candidates <= s_unc.candidates, (db, tau)
                if s_con.candidates < s_unc.candidates:
                    trimmed += 1
            post = mine_max_ffis(db, tau, CONNECTED_EDGES, mode="postfilter")
            assert pruned.maximal == post.maximal, (db, tau)
            checked += 1
    assert trimmed > 0
    return (f"{checked} runs: constrained candidates never exceeded "
            f"unconstrained (strictly fewer {trimmed} times) and both modes "
            "agreed")


# ---------------------------------------------------------------------------
# criterion 5: feasibility is genuinely non-monotone and the miner copes


@criterion(5)
def test_criterion_5_non_monotone_regression(capfd):
    a = Itemset({(1, 2), (3, 4)})
    b = Itemset({(2, 3), (4, 5)})
    union = Itemset(a.as_set() | b.as_set())
    assert not evaluate(CONNECTED_EDGES, a)
    assert not evaluate(CONNECTED_EDGES, b)
    assert evaluate(CONNECTED_EDGES, union)

    db = itemset_db([union.as_set(), union.as_set()])
    assert mine(db, 2, CONNECTED_EDGES).maximal == (union,)
    assert oracle_max(db, 2, CONNECTED_EDGES) == (union,)
    return ("two infeasible pair-sets with a feasible union, mined and "
            "cross-checked")


# ---------------------------------------------------------------------------
# criterion 6: a constrained maximal count can strictly exceed the
# unconstrained one, visible straight from the stats subcommand


@criterion(6)
def test_criterion_6_constrained_count_can_exceed(tmp_path, capfd):
    graphs = tmp_path / "two.db"
    graphs.write_text(
        "t # 1\nv 1\nv 2\nv 3\nv 4\ne 1 2\ne 1 3\ne 3 4\n"
        "t # 2\nv 1\nv 2\nv 3\nv 4\ne 1 2\ne 2 4\ne 3 4\n")
    out = tmp_path / "stats.txt"
    code = cli.main(["stats", "--input", str(graphs), "--domain", "graph",
                     "--reduce", "g2fis", "--phi", "connected-edges",
                     "--tau", "2", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    sweep = lines[lines.index("# sweep") + 2:]
    rows = [tuple(map(int, line.split("\t"))) for line in sweep]
    exceeding = [(t, alw, con) for t, alw, con in rows if con > alw]
    assert exceeding, rows
    t, alw, con = exceeding[0]
    return (f"stats sweep shows {con} constrained vs {alw} unconstrained "
            f"maximal patterns at tau={t}")


# ---------------------------------------------------------------------------
# criterion 7: extend enumerates the maximal set one pattern at a time


@criterion(7)
def test_criterion_7_extend_semantics(capfd):
    rng = random.Random(7000)
    walked = 0
    for domain in (ITEMSET, SEQUENCE, GRAPH, DIGRAPH):
        for _ in range(25):
            kw = {"n_labels": rng.randint(2, 5)}
            if domain in (GRAPH, DIGRAPH):
                kw["max_vertices"] = 3
                kw["n_txns"] = rng.randint(1, 5)
            db = random_db(rng, domain, **kw)
            if not db.transactions:
                continue
            tau = rng.randint(1, len(db.transactions))
            want = list(oracle_max(db, tau, ALWAYS))
            known = []
            while True:
                has_more = len(known) < len(want)
                assert extendible(db, tau, ALWAYS, known) == has_more
                assert extendible_k(db, tau, ALWAYS, known,
                                    len(known) + 1) == has_more
                nxt = extend(db, tau, ALWAYS, known)
                if nxt is None:
                    break
                assert nxt == want[len(known)], (domain, tau, known)
                known.append(nxt)
            assert known == want, (domain, tau)
            walked += 1
    assert walked >= 90
    return (f"{walked} instances enumerated their maximal sets in canonical "
            "order, one extension at a time")


# ---------------------------------------------------------------------------
# criterion 8: outputs are byte-identical across runs and hash seeds


_DETERMINISM_SCRIPT = r'''
import hashlib
import random

from maxpat.domains import DIGRAPH, GRAPH, ITEMSET, SEQUENCE
from maxpat.feasibility import ALWAYS, CONNECTED_EDGES
from maxpat.io import render_pattern, render_result
from maxpat.miner import extend, mine, mine_max_ffis, mine_via_reduction
from maxpat.oracle import oracle_max
from maxpat.reductions import bind_reduction, reduce_database
from maxpat.synth import (
    random_db, random_graph_db, random_itemset_db, random_sequence_db,
)

RIDS = ("fis2tree", "fis2seq", "g2bdg3", "g2fis", "dirg2fis", "seq2dag",
        "compose:fis2seq,seq2dag,dirg2fis")


def build_batch():
    rng = random.Random(20260825)
    plain = [random_db(rng, d)
             for d in (ITEMSET, SEQUENCE, GRAPH, DIGRAPH) for _ in range(3)]
    pair = [random_itemset_db(rng, n_labels=4, pair_items=True)
            for _ in range(3)]
    srcs = {
        "fis2tree": random_itemset_db(rng, n_labels=5),
        "fis2seq": random_itemset_db(rng, n_labels=5),
        "g2bdg3": random_graph_db(rng, n_labels=3, max_vertices=2),
        "g2fis": random_graph_db(rng, n_labels=5, max_vertices=4),
        "dirg2fis": random_graph_db(rng, n_labels=5, max_vertices=4,
                                    directed=True),
        "seq2dag": random_sequence_db(rng, n_labels=5, allow_empty=False),
        "compose:fis2seq,seq2dag,dirg2fis":
            random_itemset_db(rng, n_labels=4, allow_empty=False),
    }
    return plain, pair, srcs


def transcript(batch):
    plain, pair, srcs = batch
    out = []
    for i, db in enumerate(plain):
        for tau in (1, 2):
            out.append(f"== plain {i} tau {tau}")
            out.append(render_result(mine(db, tau, ALWAYS)))
            out.append("oracle " + "; ".join(
                render_pattern(p) for p in oracle_max(db, tau, ALWAYS)))
    for i, db in enumerate(pair):
        for tau in (1, 2):
            res = mine(db, tau, CONNECTED_EDGES, mode="postfilter")
            out.append(f"== pair {i} tau {tau}")
            out.append(render_result(res))
            out.append(render_result(mine(db, tau, CONNECTED_EDGES,
                                          mode="auto")))
    for rid in RIDS:
        src = srcs[rid]
        r = bind_reduction(rid, src)
        out.append(f"== reduction {rid}")
        if r.target_domain == ITEMSET:
            out.append(render_result(mine_via_reduction(r, src, 2)))
        else:
            target = reduce_database(r, src)
            out.append(render_result(
                mine(target, 2, r.induced_feasibility(ALWAYS))))
    db = plain[0]
    known = []
    while True:
        nxt = extend(db, 1, ALWAYS, known)
        if nxt is None:
            break
        known.append(nxt)
    out.append("extend-walk " + "; ".join(render_pattern(p) for p in known))
    return "\n".join(out)


if __name__ == "__main__":
    text = transcript(build_batch())
    print("sha256:" + hashlib.sha256(text.encode()).hexdigest())
'''


@criterion(8)
def test_criterion_8_run_determinism(tmp_path, capfd):
    script = tmp_path / "determinism_probe.py"
    script.write_text(_DETERMINISM_SCRIPT)

    def run(hash_seed):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return proc.stdout.split("sha256:")[1].split()[0]

    assert run("0") == run("1"), "transcripts differ across runs"
    return "identical bytes from two runs under PYTHONHASHSEED 0 and 1"
