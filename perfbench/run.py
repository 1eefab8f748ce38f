"""photongraph benchmark.

One run, from the root of a checkout:

    python3 perfbench/run.py --workload design --seed 1 --seconds 20 --trace 0

prints one line per metric and, last, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives the
end-to-end metrics of an untraced run; ``--trace 1`` runs the same jobs
untraced and then traced and gives the per-layer metrics per deck,
including the tracing overhead.  Workloads and metrics are described in
``perfbench/WORKLOADS.md``.

Other modes:

    python3 perfbench/run.py --suite PARENT_CHECKOUT CHANGE_CHECKOUT --seconds 25
    python3 perfbench/run.py --compare PARENT.json CHANGE.json
    python3 perfbench/run.py --selftest
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import Counter

import harness
from harness import MODULES, BenchError, Tracer

WORKLOADS = ("design", "combinatorics", "ensemble", "cli")

# (name, unit, bound): bound is the share of the parent's median by which a
# metric may worsen before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", 0.25),
    ("jobs_per_s", "1/s", 0.25),
    ("job_p50_ms", "ms", 0.25),
    ("job_p90_ms", "ms", 0.25),
    ("peak_rss_mb", "MiB", 0.2),
]

# Figures every run reports beside the contract line, with the bound the
# compare mode applies to them.
REPORT_ONLY = [
    ("failed_ratio", "ratio", 0.25),
    ("known_defect_hits", "count", None),
    ("job_samples", "count", None),
    ("trials_per_s_w1", "1/s", 0.25),
    ("trials_per_s_w2", "1/s", 0.25),
    ("calibration_ms", "ms", None),
]

_FUNCTIONS = [
    "states.state_from_graph", "states.frustration_scan", "states.verify_target",
    "states.serialize_state", "states.parse_state", "states.search_graph_for_state",
    "networks.network_state", "networks.network_amplitude",
    "networks.ensemble_scan.w1", "networks.ensemble_scan.w2",
    "matching.enumerate_pm", "matching.max_disjoint_pms", "matching.enumerate_factorizations",
    "matching.classify_layers", "matching.scan_ghz_dimension",
    "feasibility.tutte_check", "feasibility.hall_check",
    "counting.hafnian", "counting.permanent",
    "graph.random_graph", "graph.parse_graph", "graph.serialize_graph", "graph.merge_graphs",
    "compiler.synthesize_setup", "compiler.serialize_plan", "compiler.parse_plan", "compiler.plan_to_graph",
    "cli.main", "cli.process",
]

# Times and counts summed over a traced run are divided by the decks it ran,
# so a faster layer lowers its figure instead of fitting more decks.
PER_LAYER = (
    [(f"{f}.self_s", "s/deck") for f in _FUNCTIONS]
    + [
        ("states.state_from_graph.calls", "count/deck"),
        ("states.state_from_graph.kets", "count/deck"),
        ("states.state_from_graph.covers_per_ket", "covers/ket"),
        ("states.search_graph_for_state.found_ratio", "ratio"),
        ("networks.ensemble_scan.w1.trials_per_s", "1/s"),
        ("networks.ensemble_scan.w2.trials_per_s", "1/s"),
        ("networks.pool_overhead_s", "s/deck"),
        ("matching.enumerate_pm.matchings", "count/deck"),
        ("matching.enumerate_pm.matchings_per_s", "1/s"),
        ("feasibility.witnesses", "count/deck"),
        ("counting.hafnian.calls", "count/deck"),
        ("cli.import_ms", "ms"),
        ("cli.startup_share", "ratio"),
    ]
    + [(f"{m}.self_s", "s/deck") for m in MODULES]
    + [(f"{m}.errors", "count/deck") for m in MODULES]
    + [
        ("bench.job.self_s", "s/deck"),
        ("bench.job.total_s", "s/deck"),
        ("bench.trace_overhead", "ratio"),
    ]
)

SETUP_ROUNDS = 9


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _setup(args, mod, gauge):
    """Set up ``SETUP_ROUNDS`` times; return the workload and each round's
    (seconds, ``Gauge`` step).  A round imports the program afresh, builds
    inputs, reference answers and fixture files, and warms up on the first
    job of the first deck."""
    built = []

    def build():
        if built:
            built.pop().close()
        pg = harness.load_program()
        w = mod.build(pg, args.seed, args.smoke, args.corrupt_reference)
        built.append(w)
        harness.run_job(w.deck(0)[0], Tracer(False))
        return w

    return harness.timed_setup(build, 1 if args.smoke else SETUP_ROUNDS, gauge)


def _e2e(decks, setup_s) -> dict:
    """Throughput is correct jobs over the run's job time; latencies are
    over all jobs."""
    results = [r for deck in decks for r in deck]
    latencies = [r.latency * 1e3 for r in results]
    return {
        "setup_s": setup_s,
        "jobs_per_s": sum(r.error is None for r in results) / sum(r.latency for r in results),
        "job_p50_ms": harness.percentile(latencies, 50),
        "job_p90_ms": harness.percentile(latencies, 90),
        "peak_rss_mb": harness.peak_rss_mb(),
    }


def _per_layer(tr: Tracer, decks: int, job_spans: int, job_counts: Counter,
               untraced_s: float, traced_s: float, probe: dict) -> dict:
    """Per-layer figures per deck.  The first ``job_spans`` spans and
    ``job_counts`` come from the ``decks`` traced decks and are divided by
    ``decks``; the spans and counts the workload's probe added after them
    cover one deck's worth of work and are taken as they are."""
    out = {name: 0.0 for name, _ in PER_LAYER}
    counts = Counter({key: value / decks for key, value in job_counts.items()})
    counts.update(tr.counts - job_counts)
    out.update((key, value) for key, value in counts.items() if key in out)
    spans = {span_id: (name, parent) for span_id, name, _, _, parent in tr.spans}

    def in_job(parent):
        while parent is not None and spans[parent][0] != "bench.job":
            parent = spans[parent][1]
        return parent is not None

    for k, (span_id, name, duration, self_s) in enumerate(tr.self_times()):
        if k < job_spans:
            duration, self_s = duration / decks, self_s / decks
        if f"{name}.self_s" in out:
            out[f"{name}.self_s"] += self_s
        module = name.split(".", 1)[0]
        if module in MODULES and in_job(spans[span_id][1]):
            out[f"{module}.self_s"] += self_s
        if name == "bench.job":
            out["bench.job.total_s"] += duration
    kets = out["states.state_from_graph.kets"]
    out["states.state_from_graph.covers_per_ket"] = counts["states.state_from_graph.covers"] / kets if kets else 0.0
    pm_s = out["matching.enumerate_pm.self_s"]
    out["matching.enumerate_pm.matchings_per_s"] = out["matching.enumerate_pm.matchings"] / pm_s if pm_s else 0.0
    searches = counts["states.search_graph_for_state.calls"]
    out["states.search_graph_for_state.found_ratio"] = (
        counts["states.search_graph_for_state.found"] / searches if searches else 0.0)
    out.update(probe)
    out["bench.trace_overhead"] = traced_s / untraced_s - 1
    return out


def run_once(args) -> int:
    mod = __import__("cli_workload" if args.workload == "cli" else args.workload)
    gauge = harness.Gauge(*getattr(mod, "GAUGE", ()))
    workload, setup_rounds = _setup(args, mod, gauge)
    try:
        if args.trace:
            tr = Tracer(True)
            untraced, traced, decks = harness.paired_loop(workload.deck, args.seconds, tr)
            job_spans, job_counts = len(tr.spans), Counter(tr.counts)
            probe = workload.probe(tr, traced, decks)
            metrics = _per_layer(tr, decks, job_spans, job_counts, sum(r.latency for r in untraced),
                                 sum(r.latency for r in traced), probe)
            units = dict(PER_LAYER)
            tr.dump(harness.OUT / f"trace-{args.workload}-{args.seed}.jsonl")
            results = untraced + traced
            report_metrics = {}
        else:
            decks = harness.closed_loop(workload.deck, args.seconds, Tracer(False), gauge)
            # From here on every time is at the reference speed.
            for deck in decks:
                for r in deck:
                    r.latency = gauge.scaled(r.latency, r.step)
            setup_s = statistics.median(gauge.scaled(t, step) for t, step in setup_rounds)
            metrics = _e2e(decks, setup_s)
            units = {name: unit for name, unit, _ in END_TO_END}
            report_metrics = workload.extras(decks)
            report_metrics["calibration_ms"] = statistics.median(gauge.times) * 1e3
            results = [r for deck in decks for r in deck]
    finally:
        workload.close()

    failed = [r for r in results if r.error is not None]
    failures = harness.failure_lines(results)
    known = [r for r in failed if r.defect is not None]
    correct = len(known) == len(failed)
    report_metrics["failed_ratio"] = len(failed) / len(results)
    report_metrics["known_defect_hits"] = len(known)
    report_metrics["job_samples"] = len(results)

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, value in metrics.items():
        print(f"# metric {name} = {value!r} {units[name]}")
    report_units = {name: unit for name, unit, _ in REPORT_ONLY}
    for name, value in report_metrics.items():
        print(f"# metric {name} = {value!r} {report_units[name]}")
    for f in failures:
        tag = f" [known defect: {f['known_defect']}]" if f["known_defect"] else ""
        print(f"# failed {f['count']}x {f['job']}: {f['error']}{tag}")
    print("report " + json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                                  "report_metrics": report_metrics, "failures": failures}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failed) - len(known),
        "metrics": {name: {"value": harness.finite(float(value)), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs and one set-up round")
    parser.add_argument("--corrupt-reference", action="store_true", dest="corrupt_reference",
                        help="falsify one reference answer (self-test of the checks)")
    parser.add_argument("--suite", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="run every workload on two checkouts in alternation, write a record of each")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.compare:
            import suite
            return suite.compare(*args.compare)
        if args.suite:
            import suite
            return suite.run_suite(*args.suite, args.seconds)
        if args.selftest:
            import selftest
            return selftest.main()
        if not args.workload:
            parser.error("--workload is required")
        if args.seconds <= 0:
            parser.error("--seconds must be positive")
        return run_once(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
