"""Result records and the compare mode.

``--suite PARENT CHANGE`` takes two checkouts, each holding this benchmark
under ``perfbench/``, and runs every workload on both with seeds
1..``RUNS``.  For each seed the two sides run back to back, alternating
which goes first, so drift of the machine's speed hits both alike.  It
writes a record of each side to ``.bench_out/suite-parent.json`` and
``.bench_out/suite-change.json`` with the Python version, core count,
commit, seeds, sample counts and the median and quartiles of every metric,
then compares them.  Give the same checkout twice to see how far two sets of
runs of one commit agree.

``--compare PARENT CHANGE`` reads two records and gives, per workload and
metric, both medians and quartiles and a verdict:

* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
* ``better``: the change wins at least nine tenths of the seed-paired runs
  and the medians differ by more than the parent's quartile distance;
* ``unresolved``: the parent's quartile distance is wider than the bound and
  neither of the above holds;
* ``within-bound``: none of these.

Each workload also gets a ``failed`` line: ``worse`` when the change's runs
have more failing jobs without a known defect than the parent's.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
from run import END_TO_END, REPORT_ONLY, WORKLOADS

RUNS = 10
RUN_TIMEOUT_S = 900

DIRECTION = {name: "lower" for name, _, _ in END_TO_END}
DIRECTION.update({"jobs_per_s": "higher", "trials_per_s_w1": "higher", "trials_per_s_w2": "higher",
                  "failed_ratio": "lower"})
BOUND = {name: bound for name, _, bound in END_TO_END + REPORT_ONLY}


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def _commit(checkout: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0,
            extra=()) -> tuple[dict, dict, str]:
    """One benchmark process in ``checkout``; returns (contract line, report
    line, stdout)."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace), *extra],
                          cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise harness.BenchError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-500:]}")
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(l[len("report "):]) for l in lines if l.startswith("report "))
    return json.loads(lines[-1]), report, proc.stdout


def _record(checkout: Path, seconds: float, rows_by_workload: dict) -> dict:
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "checkout": str(checkout),
        "commit": _commit(checkout),
        "seconds": seconds,
        "runs": RUNS,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    report_units = {n: u for n, u, _ in REPORT_ONLY}
    for w, rows in rows_by_workload.items():
        metrics = {}
        for name, m in rows[0][1]["metrics"].items():
            metrics[name] = {"unit": m["unit"], **summarize([r[1]["metrics"][name]["value"] for r in rows])}
        for name in rows[0][2]["report_metrics"]:
            metrics[name] = {"unit": report_units[name],
                             **summarize([r[2]["report_metrics"][name] for r in rows])}
        failures: dict[str, int] = {}
        for _, _, report in rows:
            for f in report["failures"]:
                failures[f["job"]] = failures.get(f["job"], 0) + f["count"]
        record["workloads"][w] = {
            "seeds": [r[0] for r in rows],
            "correct": [r[1]["correct"] for r in rows],
            "attempted": [r[1]["attempted"] for r in rows],
            "failed": [r[1]["failed"] for r in rows],
            "failing_jobs": failures,
            "metrics": metrics,
        }
    return record


def run_suite(parent: str, change: str, seconds: float) -> int:
    sides = {"parent": Path(parent).resolve(), "change": Path(change).resolve()}
    rows = {side: {w: [] for w in WORKLOADS} for side in sides}
    for w in WORKLOADS:
        for seed in range(1, RUNS + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                line, report, _ = run_one(sides[side], w, seed, seconds)
                rows[side][w].append((seed, line, report))
                print(f"{side} {w} seed={seed} correct={line['correct']} attempted={line['attempted']} "
                      f"failed={line['failed']} "
                      + " ".join(f"{m}={v['value']:.4g}" for m, v in line["metrics"].items()), flush=True)
    paths = {}
    for side, checkout in sides.items():
        record = _record(checkout, seconds, rows[side])
        paths[side] = harness.OUT / f"suite-{side}.json"
        paths[side].parent.mkdir(parents=True, exist_ok=True)
        paths[side].write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"--- {side}: {paths[side]}")
        print_record(record)
    return compare(paths["parent"], paths["change"])


def print_record(record: dict):
    print(f"python {record['python']}, nproc {record['nproc']}, commit {record['commit']}, "
          f"{record['runs']} runs x {record['seconds']} s")
    for w, data in record["workloads"].items():
        print(f"[{w}] seeds {data['seeds'][0]}..{data['seeds'][-1]}, jobs per run "
              f"{min(data['attempted'])}..{max(data['attempted'])}, failing jobs {data['failing_jobs'] or 'none'}")
        for name, m in data["metrics"].items():
            bound = BOUND.get(name)
            flag = "  (spread > bound/3)" if bound and m["spread"] > bound / 3 else ""
            print(f"  {name:18s} median {m['median']:.5g} {m['unit']}  q1 {m['q1']:.5g}  q3 {m['q3']:.5g}  "
                  f"spread {m['spread']:.3f}" + (f"  bound {bound}" if bound else "") + flag)


def verdict(parent: dict, change: dict, direction: str, bound: float) -> str:
    pm, cm = parent["median"], change["median"]
    sign = 1 if direction == "lower" else -1
    if pm == 0:
        return "worse" if sign * (cm - pm) > 0 else "within-bound"
    if sign * (cm - pm) / pm > bound:
        return "worse"
    pairs = list(zip(parent["values"], change["values"]))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > parent["q3"] - parent["q1"]:
        return "better"
    if (parent["q3"] - parent["q1"]) / pm > bound:
        all_better = all(sign * (c - p) < 0 for c in change["values"] for p in parent["values"])
        return "better" if all_better else "unresolved"
    return "within-bound"


def compare(parent_path, change_path) -> int:
    parent = json.loads(Path(parent_path).read_text(encoding="utf-8"))
    change = json.loads(Path(change_path).read_text(encoding="utf-8"))
    if parent["seconds"] != change["seconds"]:
        print(f"warning: run length differs ({parent['seconds']} s vs {change['seconds']} s)")
    print(f"parent {parent['commit']} ({parent['runs']} runs)  vs  change {change['commit']} ({change['runs']} runs)")
    worse = 0
    for w in parent["workloads"]:
        if w not in change["workloads"]:
            print(f"[{w}] missing from the change record")
            continue
        print(f"[{w}]")
        # Known defects fail a share of jobs that varies with the decks a run
        # reaches, so failed_ratio has a bound; any other failure is worse.
        pf, cf = (sum(side["workloads"][w]["failed"]) for side in (parent, change))
        v = "worse" if cf > pf else "within-bound"
        worse += v == "worse"
        print(f"  {'failed':18s} parent {pf}  change {cf} jobs failing without a known defect  -> {v}")
        for name, pm in parent["workloads"][w]["metrics"].items():
            cm = change["workloads"][w]["metrics"].get(name)
            if cm is None or name not in DIRECTION:
                continue
            v = verdict(pm, cm, DIRECTION[name], BOUND[name])
            worse += v == "worse"
            print(f"  {name:18s} parent {pm['median']:.5g} [{pm['q1']:.5g}, {pm['q3']:.5g}]  "
                  f"change {cm['median']:.5g} [{cm['q1']:.5g}, {cm['q3']:.5g}] {pm['unit']}  -> {v}")
    return 1 if worse else 0
