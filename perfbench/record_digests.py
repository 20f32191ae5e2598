"""Write digests.json: the answer digest of every pool instance, for the
default seed and the held-out seed, of each workload the miner completes.

    python3 perfbench/record_digests.py

Run it only when a change to the program is meant to change the answers.
Every answer must pass the other checks first, so a wrong answer is never
recorded.  itemsets-dense has no digest: its exhaustive reference checks it
exactly whenever the miner completes it.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from maxpat import io  # noqa: E402
from maxpat.feasibility import ALWAYS  # noqa: E402
from maxpat.miner import mine  # noqa: E402

from checks import DIGESTS, Checker, answer_digest  # noqa: E402
from workloads import GENERATORS, WORKLOADS  # noqa: E402

SEEDS = (1, 2)  # the default seed and the held-out one


def main():
    out = {}
    for name, w in WORKLOADS.items():
        if name == "itemsets-dense":
            continue
        for seed in SEEDS:
            digests = []
            for i in range(w.pool):
                db = io.parse_database(GENERATORS[name](seed, i), w.domain)
                res = mine(db, w.tau)
                wrong = Checker(db, w.tau, ALWAYS).problems(res)
                if wrong:
                    sys.exit(f"{name} seed {seed} instance {i}: {wrong[0]}")
                digests.append(answer_digest(res))
            out.setdefault(name, {})[str(seed)] = digests
            print(name, seed, digests, flush=True)
    DIGESTS.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
