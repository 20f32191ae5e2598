"""One benchmark run of one workload, in the workload's own process.

The run is a closed loop: one caller, one mine() at a time, no extra
threads.  It generates the pool of instances from the seed, parses each one
(set-up), builds the answer checks, and then calls mine() until the run's
seconds are up, checking every answer outside the timed region.

With tracing off it reports the end-to-end metrics.  With tracing on it
mines the pool's first instance only, alternating traced and untraced calls,
so that the counts repeat exactly and the tracing overhead is the difference
of the two medians.
"""

import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from maxpat import _kernels, io
from maxpat.feasibility import ALWAYS
from maxpat.miner import mine

from checks import Checker, answer_digest, dense_reference, expected_digests
from tracing import Tracer, self_seconds
from workloads import GENERATORS, WORKLOADS

SPANS_DIR = Path(__file__).resolve().parent.parent / ".perfbench"
# set-up is repeated, cycling through the pool, until it has been timed for
# this long, so that the median of a millisecond parse is steady
SETUP_SECONDS = 2.0


def environment():
    return {
        "kernel_backend": _kernels.backend(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "MAXPAT_KERNELS": os.environ.get("MAXPAT_KERNELS", "auto"),
    }


def _memory_error(e):
    """Type and requested size of a MemoryError; numpy's carries the array
    shape it failed to allocate."""
    out = {"error": "MemoryError"}
    shape = getattr(e, "shape", None)
    if shape is not None:
        out["shape"] = list(shape)
        out["requested_bytes"] = int(np.prod(shape)) * e.dtype.itemsize
    return out


def _peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _layers(spans, res):
    """Per-layer metrics of one traced mine() call; ``res`` is None when the
    call failed, which leaves out the counts that come from its result."""
    def total(name):
        return sum(s.seconds for s in spans if s.name == name)

    def notes(name, key):
        return [s.note[key] for s in spans if s.name == name and s.note]

    own = self_seconds(spans)
    root = next(s for s in spans if s.name == "mine")
    counts = notes("kernels.count", "rows")
    accepted = notes("feasibility.evaluate", "accepted")
    source = sum(notes("reductions.reduce", "source_size"))
    encoded = sum(notes("reductions.reduce", "encoded_size"))
    out = {
        "kernels.count_s": total("kernels.count"),
        "kernels.count_calls": len(counts),
        "kernels.rows_counted": sum(counts),
        "kernels.bytes_computed": sum(notes("kernels.count", "bytes")),
        "kernels.pack_s": total("kernels.pack"),
        "feasibility.evaluate_s": total("feasibility.evaluate"),
        "feasibility.evaluate_calls": len(accepted),
        "feasibility.accept_ratio": sum(accepted) / max(len(accepted), 1),
        "miner.self_s": sum(own[s.id] for s in spans
                            if s.name == "miner.mine_max_ffis"),
        "reductions.reduce_share": total("reductions.reduce") / root.seconds,
        "reductions.lift_share": total("reductions.lift") / root.seconds,
        # without a reduction the miner sees the source database itself
        "reductions.items_per_txn": encoded / source if source else 1.0,
    }
    if res is not None:
        stats = res.stats
        candidates = sum(s.candidates for s in stats)
        feasible = sum(s.feasible_frequent for s in stats)
        out.update({
            "miner.levels": len(stats),
            "miner.candidates": candidates,
            "miner.frequent": sum(s.frequent for s in stats),
            "miner.feasible": feasible,
            "miner.maximal": len(res.maximal),
            "miner.peak_level_candidates": max((s.candidates for s in stats),
                                               default=0),
            "miner.yield": feasible / max(candidates, 1),
        })
    return out


def _median_layers(per_call):
    """Median of each time over the traced calls; counts are the same in
    every call of one instance and are taken from the first."""
    out = dict(per_call[0])
    for key in out:
        if key.endswith(("_s", "_share")):
            out[key] = statistics.median(c[key] for c in per_call)
    return out


def run(name, seed, seconds, trace):
    w = WORKLOADS[name]
    tracer = Tracer() if trace else None
    texts = [GENERATORS[name](seed, i) for i in range(w.pool)]

    setup_times, dbs = [], []
    while len(setup_times) < w.pool or sum(setup_times) < SETUP_SECONDS:
        op = -1 - len(setup_times)
        start = time.perf_counter()
        with tracer.operation(op, "setup") if trace else nullcontext():
            db = io.parse_database(texts[len(setup_times) % w.pool], w.domain)
        setup_times.append(time.perf_counter() - start)
        if len(dbs) < w.pool:
            dbs.append(db)
    del texts, db

    start = time.perf_counter()
    digests = expected_digests(name, seed)
    checkers = []
    for i, db in enumerate(dbs):
        reference = (dense_reference(db, w.tau, w.params["labels"])
                     if name == "itemsets-dense" else None)
        checkers.append(Checker(db, w.tau, ALWAYS,
                                digests[i] if digests else None, reference))
    check_setup_s = time.perf_counter() - start

    plain, traced, layers, problems, failures = [], [], [], [], []
    seen = {}
    attempted = 0
    deadline = time.perf_counter() + seconds
    while True:
        is_traced = trace and attempted % 2 == 0
        k = 0 if trace else attempted % w.pool
        first_span = len(tracer.spans) if trace else 0
        start = time.perf_counter()
        attempted += 1
        try:
            with tracer.operation(attempted, "mine") if is_traced \
                    else nullcontext():
                res = mine(dbs[k], w.tau)
        except MemoryError as e:
            # recorded once, never retried: the next call would fail alike
            failures.append(_memory_error(e))
            if is_traced:
                layers.append(_layers(tracer.spans[first_span:], None))
            break
        took = time.perf_counter() - start
        wrong = checkers[k].problems(res)
        if wrong:
            problems.extend(wrong)
            failures.append({"error": "wrong answer", "instance": k,
                             "problems": wrong[:5]})
        else:
            (traced if is_traced else plain).append(took)
            if is_traced:
                layers.append(_layers(tracer.spans[first_span:], res))
            seen[k] = answer_digest(res)
        if time.perf_counter() >= deadline and (not trace or attempted >= 2):
            break

    metrics = {}
    if trace:
        parses = [s.seconds for s in tracer.spans if s.name == "io.parse"]
        metrics["io.parse_s"] = statistics.median(parses)
        if layers:
            metrics.update(_median_layers(layers))
        if plain and traced:
            metrics["trace.overhead_s"] = (statistics.median(traced)
                                           - statistics.median(plain))
        spans_file = SPANS_DIR / f"spans-{name}-seed{seed}.jsonl.gz"
        tracer.write(spans_file)
    else:
        spans_file = None
        metrics["setup_s"] = statistics.median(setup_times)
        if plain:
            metrics["mine_s"] = statistics.median(plain)
            metrics["peak_rss_mb"] = _peak_rss_mib()

    failed = len(failures)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": {
            "workload": name, "seed": seed, "tau": w.tau,
            "params": w.params, "pool": w.pool,
            "memory_limit_mib": w.memory_limit_mib, "why": w.why,
            "error_rate": failed / attempted,
            "failures": failures,
            "mine_samples": len(plain), "traced_samples": len(traced),
            "mine_times_s": plain,
            "setup_samples": len(setup_times),
            "check_setup_s": check_setup_s,
            "digests": [seen.get(i) for i in range(w.pool)],
            "digests_checked": digests is not None,
            "spans_file": str(spans_file.relative_to(SPANS_DIR.parent))
            if spans_file else None,
            "environment": environment(),
            "not_measured": "cli.py is not on this path; the miner's self "
                            "time is not split into generation and the "
                            "maximality filter",
        },
    }


def main(name, seed, seconds, trace):
    """Process entry: cap the address space, run, and write the result as
    JSON to standard output, which carries nothing else."""
    limit = WORKLOADS[name].memory_limit_mib * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    result = sys.stdout
    sys.stdout = sys.stderr
    json.dump(run(name, seed, seconds, trace), result)
    result.flush()


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]),
         bool(int(sys.argv[4])))
