"""Seeded input generators for the mine() benchmark.

Each workload is generated here from the seed alone, not by
``maxpat.synth``, so that edits to the program's own generator cannot
change what the benchmark measures.  A generator returns one database as
text in the program's input format; the benchmark parses it back with
``io.parse_database``.

A run mines a pool of ``pool`` instances drawn from its seed, one after
another, so that the median of a run is taken over several draws of the
workload rather than over one draw whose candidate count happens to be high
or low.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    domain: str  # an io.parse_database domain
    tau: int
    pool: int  # instances per run
    memory_limit_mib: int  # address-space limit of the workload's process
    params: dict
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("itemsets-skewed", "itemset", 40, 6, 4096,
             {"transactions": 2000, "labels": 500, "size": "Poisson(15)",
              "label_weights": "i^-0.8", "phi": "always"},
             "support counting dominates while reductions and feasibility do "
             "no work, so a faster support kernel shows here first"),
    Workload("sequences-dag", "sequence", 24, 6, 4096,
             {"sequences": 600, "labels": 10, "length": "uniform 3-8",
              "chain": "seq2dag,dirg2fis", "phi": "always"},
             "the order-dag encoding makes about 300 candidates per feasible "
             "set, so the candidate count drives counting, packing, "
             "feasibility and generation alike"),
    Workload("graphs-wide", "graph", 400, 1, 4096,
             {"graphs": 20000, "labels": 8, "vertices": "uniform 2-8",
              "edges": "spanning tree + uniform 0-3 extra",
              "chain": "g2fis", "phi": "always"},
             "many transactions and few candidates: parsing, validation, "
             "reduce_database and row packing dominate"),
    Workload("itemsets-dense", "itemset", 40, 1, 1024,
             {"transactions": 300, "labels": 20, "size": 15, "phi": "always"},
             "dense frequent sets stress the maximality filter and memory; "
             "the miner fails here with MemoryError"),
)}


def _rng(name, seed, instance):
    # one independent stream per workload, seed and pool instance
    return np.random.default_rng([seed, instance, sum(map(ord, name))])


def _lines(rows):
    return "".join(" ".join(map(str, r)) + "\n" for r in rows)


def itemsets_skewed(seed, instance=0):
    rng = _rng("itemsets-skewed", seed, instance)
    n_labels = 500
    weights = np.arange(1, n_labels + 1, dtype=float) ** -0.8
    weights /= weights.sum()
    rows = []
    for _ in range(2000):
        size = int(min(max(rng.poisson(15), 1), n_labels))
        rows.append(sorted(int(x) + 1 for x in
                           rng.choice(n_labels, size, replace=False, p=weights)))
    return _lines(rows)


def sequences_dag(seed, instance=0):
    rng = _rng("sequences-dag", seed, instance)
    return _lines([int(x) + 1 for x in rng.permutation(10)[:rng.integers(3, 9)]]
                  for _ in range(600))


def graphs_wide(seed, instance=0):
    rng = _rng("graphs-wide", seed, instance)
    out = []
    for i in range(20000):
        n = int(rng.integers(2, 9))
        labels = [int(x) + 1 for x in rng.permutation(8)[:n]]
        edges = set()
        for j in range(1, n):  # random spanning tree
            u, v = labels[j], labels[int(rng.integers(0, j))]
            edges.add((min(u, v), max(u, v)))
        missing = [(a, b) for a in sorted(labels) for b in sorted(labels)
                   if a < b and (a, b) not in edges]
        extra = min(int(rng.integers(0, 4)), len(missing))
        for k in rng.choice(len(missing), extra, replace=False):
            edges.add(missing[int(k)])
        out.append(f"t # {i}\n")
        out.extend(f"v {v}\n" for v in sorted(labels))
        out.extend(f"e {u} {v}\n" for u, v in sorted(edges))
    return "".join(out)


def itemsets_dense(seed, instance=0):
    rng = _rng("itemsets-dense", seed, instance)
    return _lines(sorted(int(x) + 1 for x in rng.permutation(20)[:15])
                  for _ in range(300))


GENERATORS = {
    "itemsets-skewed": itemsets_skewed,
    "sequences-dag": sequences_dag,
    "graphs-wide": graphs_wide,
    "itemsets-dense": itemsets_dense,
}
