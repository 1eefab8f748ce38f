"""Random-network ensembles and first-order coincidence amplitudes.

Every edge is a pair source firing with probability ``p``; to first order
each edge contributes one photon pair, so a 2n-fold coincidence picks up one
factor of ``p`` per crystal in a perfect matching.  Ensemble statistics
sample G(n, p) graphs with per-trial seeds derived by hashing (seed, trial),
making runs reproducible independently of execution order or parallelism.

A trial goes from its seed to its counts at every p of a scan without
building a graph: the sampler behind :func:`~photongraph.graph.random_graph`
draws one uniform per vertex pair, and the pair is an edge at each p above
its draw (so a trial's graph at p is ``random_graph(n, p, trial_seed(seed,
trial))``, and its graphs are nested as p grows).  Each edge gets the tier
of the smallest p that holds it.  A batch of trials is packed into one
integer per vertex pair, with a byte-aligned slot per trial and a field per
p that is set where the pair is an edge, and the matching counter behind
:func:`~photongraph.counting.hafnian`, combining by ``&``, counts every
trial's graph at every p in one pass, giving the hafnian of each graph's
adjacency matrix.  Since the trials run that counter without calling
``hafnian``, a scan applies the hafnian's order guard itself, before any
sampling.  With several workers, capped at the core count and at one worker
per whole batch of trials, the caller counts one contiguous trial range and
forks a child per other range, which pipes its histograms back as
``marshal`` bytes and counts its range in batches of its own (only the
network terms import :mod:`~photongraph.states`).
"""

from __future__ import annotations

import hashlib
import marshal
import math
import os
from bisect import bisect_right
from collections import Counter
from functools import partial
from itertools import compress
from operator import and_, gt

from .counting import _check_hafnian_order, _matching_sum
from .errors import DomainError, PhotonGraphError
from .graph import ExperimentGraph, _Record, _gnp_draws

__all__ = [
    "EnsembleReport",
    "ensemble_scan",
    "trial_seed",
    "network_amplitude",
    "network_state",
    "report_csv_rows",
]

_BATCH_BITS = 1 << 13  # packed width of a batch's count, whatever the number of p


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


def _batch_size(n: int, top, slot: int) -> int:
    """Trials counted in one pass of the matching DP: as many slots of
    ``slot`` bytes as ``_BATCH_BITS`` holds, so a count's width, and with it
    the DP's memory, does not grow with the number of p.  On 20 or more
    vertices with every p below 0.2 (``top`` is the largest), the trials of
    a batch share few live sets and the wide fields cost more than the
    shared walk saves, so a batch is one trial."""
    if n >= 20 and top < 0.2:
        return 1
    return max(1, _BATCH_BITS // (8 * slot))


def _packing(n: int, p_values: list) -> tuple[list, int, int, int]:
    """How a scan packs its counts: the distinct p in increasing order (its
    tiers), the bits of one count field, the bytes of a trial's slot, which
    holds a field per tier, and the trials of a batch."""
    tiers = sorted(set(p_values))
    width = math.prod(range(n - 1, 0, -2)).bit_length()
    slot = -(-len(tiers) * width // 8)
    return tiers, width, slot, _batch_size(n, tiers[-1], slot)


def _count_range(n: int, p_values: list, seed: int, start: int, stop: int) -> list[Counter]:
    """Histograms of perfect-matching counts over trials ``start..stop-1``,
    one per p in the given order.  A trial is seeded and drawn once: each
    pair's tier is the number of distinct p at or below its draw, so it is
    an edge at every p above its draw.  A trial whose largest graph has an
    isolated vertex counts 0 at every p; the others are packed
    :func:`_batch_size` at a time, one byte-aligned slot per trial with a
    field per p, and the matching counter counts a whole batch in one
    pass."""
    tiers, width, slot, size = _packing(n, p_values)
    above = partial(gt, tiers[-1])  # an edge of the largest graph, for a p of any real type
    shifts = range(0, len(tiers) * width, width)
    field = (1 << width) - 1
    # a pair of tier t is an edge in fields t and up; tier len(tiers) in none
    marks = [sum(field << shift for shift in shifts[t:]).to_bytes(slot, "little") for t in range(len(tiers) + 1)]
    ones = sum(1 << shift for shift in shifts).to_bytes(slot, "little")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # byte k of a vertex's mask is set if pair k holds the vertex
    ends = [sum(1 << 8 * k for k, pair in enumerate(pairs) if v in pair) for v in range(n)]
    histograms = [Counter() for _ in tiers]
    batch: list[list[float]] = []
    held = 0  # byte k is set if pair k is an edge of some largest graph of the batch

    def count_batch():
        keep = [[0] * n for _ in range(n)]
        for k in compress(range(len(pairs)), held.to_bytes(len(pairs), "little")):
            i, j = pairs[k]
            keep[i][j] = int.from_bytes(b"".join([marks[bisect_right(tiers, draws[k])] for draws in batch]), "little")
        total = _matching_sum(keep, int.from_bytes(ones * len(batch), "little"), and_)
        raw = total.to_bytes(len(batch) * slot, "little")
        values = [int.from_bytes(raw[k:k + slot], "little") for k in range(0, len(raw), slot)]
        for counts, shift in zip(histograms, shifts):
            counts.update([value >> shift & field for value in values])
        batch.clear()

    unmatched = 0
    for trial in range(start, stop):
        draws = _gnp_draws(n, trial_seed(seed, trial))
        largest = int.from_bytes(bytes(map(above, draws)), "little")
        if not all(map(largest.__and__, ends)):
            unmatched += 1
            continue
        batch.append(draws)
        held |= largest
        if len(batch) == size:
            count_batch()
            held = 0
    if batch:
        count_batch()
    if unmatched:
        for counts in histograms:
            counts[0] += unmatched
    by_p = dict(zip(tiers, histograms))
    return [Counter(by_p[p]) for p in p_values]


def _fork_share(n: int, p_values: list, seed: int, start: int, stop: int):
    """Fork a child that pipes the histograms of trials ``start..stop-1`` of
    every p back as ``marshal`` bytes, and return ``collect``, which reaps it."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child leaves by os._exit, never into the caller's stack
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                pipe.write(marshal.dumps([dict(counts) for counts in _count_range(n, p_values, seed, start, stop)]))
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write)

    def collect(kill: bool = False):
        data = None
        try:
            with open(read, "rb") as pipe:
                data = None if kill else pipe.read()  # to EOF: it can outgrow the pipe buffer
        finally:
            if data is None:
                from signal import SIGKILL
                os.kill(pid, SIGKILL)
            status = os.waitpid(pid, 0)[1]
        if not kill and (status or not data):
            raise PhotonGraphError(f"ensemble worker {pid} failed (wait status {status})", reason="worker-failed")
        return None if kill else marshal.loads(data)

    return collect


def ensemble_scan(
    n: int,
    p_values,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> list[EnsembleReport]:
    """Sample ``trials`` graphs per probability and report, per p in the
    given order, the fraction with at least one perfect matching plus the
    full count histogram.  A trial is sampled and counted once for all p:
    its graphs are nested, and a report equals that of a one-p scan.  Every
    argument, and the hafnian order guard on ``n``, is checked before any
    sampling.  ``workers`` processes, capped at the core count and at one
    worker per whole batch of trials, each count one trial range in batches
    of their own: the caller counts the first and adds the histograms of the
    other workers, forked children which never outlive the call.  Without
    ``os.fork`` it runs serially; with no p it samples nothing."""
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
    if not p_values:
        return []
    # a share of less than one batch is worth less than the fork that counts it
    batches = max(1, trials // _packing(n, p_values)[-1])
    workers = min(workers, os.cpu_count() or 1, batches) if hasattr(os, "fork") else 1
    bounds = [trials * k // workers for k in range(workers + 1)]
    children = []
    try:  # extend keeps the children forked before a failed fork
        children.extend(_fork_share(n, p_values, seed, lo, hi) for lo, hi in zip(bounds[1:], bounds[2:]))
        histograms = _count_range(n, p_values, seed, 0, bounds[1])
        while children:
            for counts, theirs in zip(histograms, children.pop()()):
                counts.update(theirs)
    finally:
        for collect in children:
            collect(kill=True)
    return [EnsembleReport(n=n, p=float(p), trials=trials, seed=seed, pm_exists_fraction=(trials - counts[0]) / trials,
                           pm_count_histogram=dict(sorted(counts.items()))) for p, counts in zip(p_values, histograms)]


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
