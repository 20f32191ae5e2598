"""Seeded end-to-end benchmark of maxpat.mine(), with a traced per-layer split.

    python3 perfbench/run.py --workload sequences-dag --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in a process of its own, under the address-space limit
its table entry sets, so a workload that blows up cannot touch memory
outside that limit.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the run's notes (workload parameters, environment,
failures, sample counts, digests).  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones and writes the spans to
``.perfbench/``.  ``--workload all`` runs every workload in turn, prints a
table of the end-to-end metrics and error rates, and ends with one JSON
object keyed by workload.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# a workload process that has not answered this long after its measuring
# time is over is killed and the run fails
CHILD_MARGIN_S = 120
BENCHMARK = ROOT / "BENCHMARK.json"


def run_in_child(name, seed, seconds, trace, src):
    """Run one workload in a fresh interpreter and return its result, or
    None when the process ended without sending one.  The process is killed
    and waited for on every way out of here, so none outlives the run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "measure.py"), name, str(seed),
         str(seconds), str(trace)],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=env)
    try:
        out, _ = proc.communicate(timeout=seconds + CHILD_MARGIN_S)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not out.strip():
        return None
    return json.loads(out)


def _terminate(signum, frame):
    # turn SIGTERM into an exception so that run_in_child reaps its child
    raise SystemExit(128 + signum)


def with_units(metrics):
    spec = json.loads(BENCHMARK.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "maxpat" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing: {src}/maxpat",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_in_child(name, args.seed, args.seconds, args.trace, src)
        if res is None:
            print(f"perfbench: {name}: the workload process died without "
                  f"a result", file=sys.stderr)
            return 1
        print(json.dumps(res["notes"]), flush=True)
        res["metrics"] = with_units(res["metrics"])
        results[name] = res

    notes = {name: res.pop("notes") for name, res in results.items()}
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    row = "{:<18}{:<28}{:>14}  {}"
    print(row.format("workload", "metric", "value", "unit"))
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(row.format(name, metric, f"{m['value']:.6g}", m["unit"]))
        causes = sorted({f["error"] for f in notes[name]["failures"]})
        print(row.format(name, "error_rate",
                         f"{notes[name]['error_rate']:.6g}",
                         f"{res['failed']}/{res['attempted']} failed "
                         f"{', '.join(causes)}".rstrip()))
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
