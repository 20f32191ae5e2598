"""Brute-force reference implementation.

Enumerates every candidate subpattern of every transaction, computes support
by scanning, and filters maximality quadratically.  No pruning, no sharing
with the miner beyond the pattern types and the predicates' list form
(``feasibility.accepted``), which the tests also replace with
``evaluate`` on each pattern; the point is to be an independent authority
the miner can be checked against.  A hard size guard
keeps the exponential cost honest: instances above it raise instead of
silently taking forever, and callers are expected to use the miner there.
"""

from collections import Counter
from itertools import combinations

from .core import Database, check_tau, support
from .domains import (
    DIGRAPH, GRAPH, ITEMSET, SEQUENCE,
    Itemset, LabelledGraph, Sequence,
    canonical_key, is_connected, pattern_leq, pattern_size,
)
from .errors import OracleGuardError
from .feasibility import accepted

#: both the label-universe size and the per-transaction size must stay at or
#: below this for the oracle to accept an instance
GUARD = 16


def check_guard(db: Database):
    if len(db.universe) > GUARD:
        raise OracleGuardError(
            f"label universe {len(db.universe)} exceeds the oracle guard "
            f"({GUARD}); use the miner for instances this large")
    for i, t in enumerate(db.transactions):
        if pattern_size(t) > GUARD:
            raise OracleGuardError(
                f"transaction {i} has size {pattern_size(t)}, above the "
                f"oracle guard ({GUARD}); use the miner for instances this large")


def _itemset_subpatterns(db):
    seen = set()
    for t in db.transactions:
        items = t.items
        for r in range(len(items) + 1):
            for combo in combinations(items, r):
                seen.add(combo)
    seen.add(())
    return [Itemset(c) for c in seen]


def _sequence_subpatterns(db):
    seen = set()
    for t in db.transactions:
        ev = t.events
        for r in range(len(ev) + 1):
            # labels are distinct, so position combinations enumerate each
            # subsequence exactly once, already in order
            for combo in combinations(ev, r):
                seen.add(combo)
    seen.add(())
    return [Sequence(c) for c in seen]


def _connected_subgraphs(t: LabelledGraph):
    """All connected subgraphs of one transaction: the single vertices plus
    every connected nonempty edge subset (a connected subgraph with an edge
    has no room for stray isolated vertices)."""
    out = [LabelledGraph(frozenset({v}), frozenset(), t.directed)
           for v in t.vertices]
    edges = sorted(t.edges)
    for r in range(1, len(edges) + 1):
        for combo in combinations(edges, r):
            vertices = frozenset(x for e in combo for x in e)
            g = LabelledGraph(vertices, frozenset(combo), t.directed)
            if is_connected(g):
                out.append(g)
    return out


def enumerate_patterns(db: Database) -> list:
    """Every distinct subpattern of the database's transactions (plus the
    empty itemset / sequence), guard permitting."""
    check_guard(db)
    if db.domain == ITEMSET:
        return _itemset_subpatterns(db)
    if db.domain == SEQUENCE:
        return _sequence_subpatterns(db)
    assert db.domain in (GRAPH, DIGRAPH)
    seen = set()
    out = []
    for t in db.transactions:
        for g in _connected_subgraphs(t):
            if g not in seen:
                seen.add(g)
                out.append(g)
    return out


def oracle_max(db: Database, tau: int, phi) -> tuple:
    """All maximal feasible frequent patterns, canonically ordered."""
    check_tau(tau)
    good = [p for p in accepted(phi, enumerate_patterns(db))
            if support(p, db) >= tau]
    out = []
    for p in good:
        if not any(q != p and pattern_leq(p, q) for q in good):
            out.append(p)
    return tuple(sorted(out, key=canonical_key))


def oracle_all_feasible_frequent(db: Database, tau: int, phi) -> dict:
    """Per-size counts {size: (frequent, feasible_frequent)} over all
    frequent patterns, the shape the stats tables are built from."""
    check_tau(tau)
    frequent = [p for p in enumerate_patterns(db) if support(p, db) >= tau]
    feasible = Counter(map(pattern_size, accepted(phi, frequent)))
    counts = Counter(map(pattern_size, frequent))
    return {size: (n, feasible[size]) for size, n in sorted(counts.items())}
