import os
from itertools import chain, combinations, permutations

from hypothesis import HealthCheck, settings

from maxpat.domains import (
    DIGRAPH, ITEMSET, SEQUENCE, Itemset, LabelledGraph, Sequence,
    is_connected, pattern_leq,
)
from maxpat.reductions import REDUCTION_IDS, bind_reduction

# some examples mine dozens of databases, so per-example deadlines
# would flag slow examples, not slow code
settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("thorough", deadline=None, max_examples=400)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


#: every registered id that reaches itemsets, and two chains that do: the
#: encodings the miner's index-space path is checked on
ITEMSET_ENCODINGS = tuple(
    rid for rid in REDUCTION_IDS
    if bind_reduction(rid).target_domain == ITEMSET) + (
    "compose:fis2tree,g2bdg3,g2fis", "compose:fis2seq,seq2dag,dirg2fis")


def _one_larger(domain, p, alphabet):
    """Brute force: every valid pattern one element larger than ``p`` (the
    one-element patterns when ``p`` is None) whose new label, if it has
    one, is in ``alphabet``; for graphs, the connected ones."""
    if domain == ITEMSET:
        base = p.items if p is not None else ()
        return {Itemset(base + (x,)) for x in alphabet if x not in base}
    if domain == SEQUENCE:
        base = p.events if p is not None else ()
        return {q for x in alphabet if x not in base
                for q in map(Sequence, permutations(base + (x,)))
                if p is None or pattern_leq(p, q)}
    directed = domain == DIGRAPH
    if p is None:
        return {LabelledGraph({x}, (), directed) for x in alphabet}
    out = set()
    extra = [x for x in alphabet if x not in p.vertices]
    for new in chain.from_iterable(combinations(extra, k) for k in range(3)):
        vs = p.vertices | set(new)
        pairs = (permutations(vs, 2) if directed
                 else combinations(sorted(vs), 2))
        for e in pairs:
            if e not in p.edges:
                q = LabelledGraph(vs, p.edges | {e}, directed)
                if is_connected(q):
                    out.add(q)
    return out


def _one_smaller(q):
    """The sub-patterns of an itemset or a sequence with one element
    dropped."""
    t = q.items if isinstance(q, Itemset) else q.events
    return {type(q)(t[:i] + t[i + 1:]) for i in range(len(t))}
