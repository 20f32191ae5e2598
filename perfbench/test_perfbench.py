"""Tests of the benchmark itself.  Not part of the program's test suite:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import GENERATORS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def _traced(seed):
    out = _run("--workload", "sequences-dag", "--seed", str(seed),
               "--seconds", "1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    *_, notes, result = out.stdout.splitlines()
    return json.loads(notes), json.loads(result)


def _counts(result):
    return json.dumps({k: m["value"] for k, m in result["metrics"].items()
                       if k == "kernels.rows_counted"
                       or (k.startswith("miner.") and k != "miner.self_s")},
                      sort_keys=True)


def test_same_seed_repeats_counts_and_digests():
    (notes_a, a), (notes_b, b) = _traced(3), _traced(3)
    assert a["correct"] and a["failed"] == 0
    assert _counts(a) == _counts(b)
    assert notes_a["digests"] == notes_b["digests"]
    assert notes_a["digests"][0] is not None


def test_another_seed_changes_the_inputs():
    for name, generate in GENERATORS.items():
        assert generate(1) == generate(1), name
        assert generate(1) != generate(2), name


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run("--workload", "graphs-wide", "--seconds", "1", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
