"""Self-tests of the benchmark: ``python3 perfbench/run.py --selftest``.

* ``BENCHMARK.json`` lists exactly the metrics ``run.py`` prints;
* a smoke-sized run of every workload prints every named metric with its
  unit, untraced and traced, and all its answers check out;
* the same runs with one reference answer corrupted are caught;
* the compare mode's verdicts on made-up records;
* in a directory with only ``BENCHMARK.json`` and the benchmark, a run exits
  non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import harness
import suite
from run import END_TO_END, PER_LAYER, WORKLOADS

SMOKE = ("--smoke",)
SMOKE_SECONDS = 1


def _check_benchmark_json(fail):
    doc = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want_e2e = [{"name": n, "unit": u, "better": suite.DIRECTION[n], "bound": b} for n, u, b in END_TO_END]
    want_layer = [{"name": n, "unit": u, "better": _layer_direction(n)} for n, u in PER_LAYER]
    if doc["end_to_end"] != want_e2e:
        fail("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if doc["per_layer"] != want_layer:
        fail("BENCHMARK.json per_layer differs from run.PER_LAYER")
    if [w["name"] for w in doc["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.WORKLOADS")


def _layer_direction(name: str) -> str:
    higher = ("_per_s", ".found_ratio", ".calls", ".kets", ".matchings", ".witnesses")
    return "higher" if name.endswith(higher) else "lower"


def _contract_line(line: dict, names_units: list[tuple[str, str]], fail, what: str):
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: keys {sorted(line)}")
        return
    if not isinstance(line["attempted"], int) or line["attempted"] < 1 or not isinstance(line["failed"], int):
        fail(f"{what}: attempted/failed {line['attempted']!r}/{line['failed']!r}")
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    if got != dict(names_units):
        fail(f"{what}: metrics/units differ: {sorted(set(got) ^ set(dict(names_units)))}")
    for name, m in line["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail(f"{what}: {name} is not a number")


def _compare_cases(fail):
    def rec(values):
        return suite.summarize(values)

    parent = rec([10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1])
    cases = [
        ([v * 1.5 for v in parent["values"]], "lower", 0.25, "worse"),
        ([v * 0.7 for v in parent["values"]], "lower", 0.25, "better"),
        ([v * 1.01 for v in parent["values"]], "lower", 0.25, "within-bound"),
        ([v * 0.7 for v in parent["values"]], "higher", 0.25, "worse"),
    ]
    for values, direction, bound, want in cases:
        got = suite.verdict(parent, rec(values), direction, bound)
        if got != want:
            fail(f"compare verdict {got}, expected {want}")
    wide = rec([5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0])
    got = suite.verdict(wide, rec([v * 0.95 for v in wide["values"]]), "lower", 0.1)
    if got != "unresolved":
        fail(f"compare verdict on a wide parent {got}, expected unresolved")


def _bare_directory(fail):
    """Only BENCHMARK.json and perfbench/: the run must fail cleanly."""
    bare = harness.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(harness.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            fail("a run without the program exited 0 or printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures: list[str] = []
    fail = failures.append
    _check_benchmark_json(fail)
    _compare_cases(fail)
    for w in WORKLOADS:
        line, report, _ = suite.run_one(harness.ROOT, w, 7, SMOKE_SECONDS, 0, SMOKE)
        _contract_line(line, [(n, u) for n, u, _ in END_TO_END], fail, f"{w} trace 0")
        if not line["correct"]:
            fail(f"{w} smoke run failed jobs: {report['failures']}")
        line, _, _ = suite.run_one(harness.ROOT, w, 7, SMOKE_SECONDS, 1, SMOKE)
        _contract_line(line, PER_LAYER, fail, f"{w} trace 1")
        line, report, _ = suite.run_one(harness.ROOT, w, 7, SMOKE_SECONDS, 0, SMOKE + ("--corrupt-reference",))
        if line["correct"] or not line["failed"]:
            fail(f"{w}: a corrupted reference answer went unnoticed")
        print(f"selftest {w}: ok so far ({len(failures)} failures)", flush=True)
    _bare_directory(fail)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0
