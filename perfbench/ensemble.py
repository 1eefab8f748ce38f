"""``ensemble`` workload: one ``ensemble_scan`` per job over p in
{0.3, 0.5, 0.7}, alternating ``workers=1`` and ``workers=2`` (two workers is the
core count of the 2-core host the workload was sized on) on n = 10 and n = 12.

Why: the work is thousands of small hafnians plus ``random_graph``, and with
two workers one process-pool start per p value; no other layer runs, so this
isolates the counting kernel and the pool.
"""

from __future__ import annotations

import random

import refs
from harness import Job, Workload, check

P_VALUES = (0.3, 0.5, 0.7)
TRIALS = 200
# (n, workers) per deck: n = 10 twice as often as n = 12, so the median job
# is an n = 10 scan and the 90th percentile an n = 12 one.
SCHEDULE = ((10, 1), (10, 2), (10, 1), (10, 2), (12, 1), (12, 2))


def build(pg, seed: int, smoke: bool, corrupt: bool):
    rng = random.Random(f"ensemble:{seed}")
    trials = 20 if smoke else TRIALS
    schedule = ((6, 1), (6, 2)) if smoke else SCHEDULE
    configs = {n: rng.randrange(1 << 30) for n in sorted({n for n, _ in schedule})}
    expected = {
        n: [refs.ensemble_histogram(n, p, trials, s) for p in P_VALUES] for n, s in configs.items()
    }
    if corrupt:
        first = expected[min(configs)][0]
        key = min(first)
        first[key] += 1
    last: dict[tuple[int, int], list] = {}

    def make(n, workers):
        name = f"scan-n{n}-w{workers}"
        span = f"networks.ensemble_scan.w{workers}"

        def run(tr):
            reports = tr.call(span, pg.ensemble_scan, n, P_VALUES, trials, configs[n], workers=workers)
            hists = [r.pm_count_histogram for r in reports]
            check([r.p for r in reports] == list(P_VALUES) and all(r.trials == trials for r in reports),
                  "report headers are wrong")
            for r, h in zip(reports, hists):
                exists = sum(f for c, f in h.items() if c > 0) / trials
                check(r.pm_exists_fraction == exists, "pm_exists_fraction disagrees with the histogram")
            check(hists == expected[n], f"n={n} histograms differ from the reference")
            other = last.get((n, 3 - workers))
            check(other is None or other == hists, "histograms differ between 1 and 2 workers")
            last[(n, workers)] = hists
        return Job(name, run)

    deck_jobs = [make(n, w) for n, w in schedule]

    def extras(decks):
        """Trials per second of scan time with each worker count."""
        out = {}
        for w in (1, 2):
            mine = [r for deck in decks for r in deck if r.name.endswith(f"-w{w}")]
            out[f"trials_per_s_w{w}"] = len(mine) * trials * len(P_VALUES) / sum(r.latency for r in mine)
        return out

    def probe(tr, results, decks):
        # Serial replay of one deck's trial seeds, one span per call, to
        # split a trial between random_graph and the hafnian.
        for n, _ in schedule:
            for p in P_VALUES:
                for t in range(trials):
                    g = tr.call("graph.random_graph", pg.random_graph, n, p, pg.trial_seed(configs[n], t))
                    tr.call("counting.hafnian", pg.hafnian, g.adjacency())
                    tr.count("counting.hafnian.calls")
        scan_s = {w: sum(s for _, name, _, s in tr.self_times() if name == f"networks.ensemble_scan.w{w}")
                  for w in (1, 2)}
        done = {w: sum(1 for r in results if r.name.endswith(f"-w{w}")) * trials * len(P_VALUES) for w in (1, 2)}
        return {
            "networks.ensemble_scan.w1.trials_per_s": done[1] / scan_s[1] if scan_s[1] else 0.0,
            "networks.ensemble_scan.w2.trials_per_s": done[2] / scan_s[2] if scan_s[2] else 0.0,
            # A deck runs the same configurations once with each worker
            # count, so a pool that cost nothing would make w2 = w1 / 2.
            "networks.pool_overhead_s": (scan_s[2] - scan_s[1] / 2) / decks,
        }

    return Workload(lambda i: deck_jobs, extras=extras, probe=probe)
