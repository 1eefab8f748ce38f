"""Random-network ensembles and first-order coincidence amplitudes.

Every edge is a pair source firing with probability ``p``; to first order
each edge contributes one photon pair, so a 2n-fold coincidence picks up one
factor of ``p`` per crystal in a perfect matching.  Ensemble statistics
sample G(n, p) graphs with per-trial seeds derived by hashing (seed, trial),
making runs reproducible independently of execution order or parallelism.

A trial goes from its seed to its count without building a graph: the
edge pairs come from the sampler behind :func:`~photongraph.graph.random_graph`
(so a trial's graph is ``random_graph(n, p, trial_seed(seed, trial))``), are
written into one bitmask of later neighbours per vertex and handed to the
unit-graph matching counter of :mod:`~photongraph.counting`, which gives
the hafnian of the graph's adjacency matrix.  Since no trial calls
``hafnian``, a scan applies its order guard itself, before any sampling.
With several workers, one process pool per scan takes every (p, trial
range) chunk, with no more processes than cores or chunks; the pool class is
imported only then, so a serial scan never loads ``concurrent.futures.process``
(and only the network terms import :mod:`~photongraph.states`).
"""

from __future__ import annotations

import hashlib
import os
from collections import Counter

from .counting import _check_hafnian_order, _unit_matchings
from .errors import DomainError
from .graph import ExperimentGraph, _Record, _gnp_pairs

__all__ = [
    "EnsembleReport",
    "ensemble_scan",
    "trial_seed",
    "network_amplitude",
    "network_state",
    "report_csv_rows",
]


def __getattr__(name: str):
    """``networks.ProcessPoolExecutor`` is imported on first access and kept
    as a module attribute (PEP 562)."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


class EnsembleReport(_Record):
    n: int
    p: float
    trials: int
    seed: int
    pm_exists_fraction: float
    pm_count_histogram: dict[int, int]


def trial_seed(seed: int, trial: int) -> int:
    """64-bit per-trial seed from a counter-mixed hash of (seed, trial)."""
    digest = hashlib.sha256(f"{seed}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _count_range(n: int, p: float, seed: int, start: int, stop: int) -> Counter:
    """Histogram of perfect-matching counts over trials ``start..stop-1``,
    straight from the sampled index pairs to the bitmasks of later
    neighbours that the unit-graph counter takes."""
    counts: Counter = Counter()
    for trial in range(start, stop):
        later = [0] * n
        for i, j in _gnp_pairs(n, p, trial_seed(seed, trial)):
            later[i] |= 1 << j
        counts[_unit_matchings(later)] += 1
    return counts


def ensemble_scan(
    n: int,
    p_values,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> list[EnsembleReport]:
    """Sample ``trials`` graphs per probability and report the fraction with
    at least one perfect matching plus the full count histogram.  Every
    argument, and the hafnian order guard on ``n``, is checked before any
    sampling.  With ``workers > 1`` one process pool serves every
    probability; it gets no more processes than the machine has cores or
    than there are trial chunks to send, so a large ``workers`` forks no
    more than that."""
    if n % 2 != 0 or n < 2:
        raise DomainError(f"vertex count must be even and >= 2 for matching statistics, got {n}")
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    p_values = list(p_values)
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"edge probability must lie in [0, 1], got {p}")
    _check_hafnian_order(n)
    workers = min(workers, os.cpu_count() or 1)
    chunk = max(1, trials // (workers * 4))
    bounds = list(range(0, trials, chunk)) + [trials]
    spans = list(zip(bounds, bounds[1:]))
    workers = min(workers, len(spans) * len(p_values))
    if workers > 1:
        pool_class = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
        with pool_class(max_workers=workers) as pool:
            futures = [[pool.submit(_count_range, n, p, seed, lo, hi) for lo, hi in spans] for p in p_values]
            histograms = [sum((future.result() for future in per_p), Counter()) for per_p in futures]
    else:
        histograms = [_count_range(n, p, seed, 0, trials) for p in p_values]
    reports = []
    for p, counts in zip(p_values, histograms):
        existing = sum(freq for count, freq in counts.items() if count > 0)
        reports.append(EnsembleReport(n=n, p=float(p), trials=trials, seed=seed, pm_exists_fraction=existing / trials,
                                      pm_count_histogram=dict(sorted(counts.items()))))
    return reports


def _check_network(g: ExperimentGraph, p: float):
    if not 0.0 < p <= 1.0:
        raise DomainError(f"pair probability must lie in (0, 1], got {p}")
    if g.measured:
        raise DomainError("network amplitudes are defined for unmeasured graphs")
    if len(g.vertices) % 2 != 0:
        raise DomainError("odd path count: no full coincidence is possible")


def network_state(g: ExperimentGraph, p: float, *, override_limits: bool = False) -> QuantumState:
    """Unnormalized first-order coincidence terms: every cover amplitude is
    scaled by p^(pairs), one factor per firing crystal.  Kets are pruned at
    p = 1, before scaling, so a small p drops no ket."""
    from .states import QuantumState, state_from_graph
    _check_network(g, p)
    weight = p ** (len(g.vertices) // 2)
    state = state_from_graph(g, override_limits=override_limits)
    return QuantumState({k: a * weight for k, a in state.terms.items()})


def network_amplitude(g: ExperimentGraph, p: float, *, override_limits: bool = False) -> complex:
    """Lowest-order 2n-fold coincidence amplitude:
    p^n * sum over perfect matchings of the edge-amplitude products."""
    from .states import _cover_amplitude_sum
    _check_network(g, p)
    return _cover_amplitude_sum(g, override_limits=override_limits) * p ** (len(g.vertices) // 2)


def report_csv_rows(reports: list[EnsembleReport]) -> list[tuple]:
    """Rows (p, fraction, count, frequency), one per histogram bucket."""
    rows = []
    for r in reports:
        for count, freq in sorted(r.pm_count_histogram.items()):
            rows.append((r.p, r.pm_exists_fraction, count, freq))
    return rows
