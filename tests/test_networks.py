"""Random-network ensembles and first-order amplitudes."""

from __future__ import annotations

import functools
import math
import os
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import photongraph as pg
from photongraph import Edge, ExperimentGraph

from fixt import double_edge, k4_ghz
from oracles import pairing_masks


def test_endpoints_are_exact():
    reports = pg.ensemble_scan(6, [0.0, 1.0], 200, 7)
    assert reports[0].pm_exists_fraction == 0.0
    assert reports[0].pm_count_histogram == {0: 200}
    assert reports[1].pm_exists_fraction == 1.0
    assert reports[1].pm_count_histogram == {pg.count_pm_formula(3): 200}


@functools.lru_cache(maxsize=None)
def _pm_count_table(n: int) -> dict[int, list[int]]:
    """For each perfect-matching count of a graph on n vertices, how many of
    the graphs with k edges have it, for k = 0..m with m = n(n-1)/2: a count
    has probability sum_k table[count][k]·p^k·(1-p)^(m-k) in G(n, p)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    masks = pairing_masks(n, {pq: k for k, pq in enumerate(pairs)})
    table = {}
    for sub in range(1 << len(pairs)):
        count = sum(mask & sub == mask for mask in masks)
        table.setdefault(count, [0] * (len(pairs) + 1))[sub.bit_count()] += 1
    return table


def _exact_pm_distribution(n: int, p: float) -> dict[int, float]:
    return {
        count: sum(graphs * p**k * (1 - p) ** (len(row) - 1 - k) for k, graphs in enumerate(row))
        for count, row in _pm_count_table(n).items()
    }


def _exact_pm_probability(n: int, p: float) -> float:
    return sum(prob for count, prob in _exact_pm_distribution(n, p).items() if count)


def _binomial_interval(trials: int, prob: float, alpha: float) -> tuple[int, int]:
    """The central interval [lo, hi] of Binomial(trials, prob): the mass
    below lo and the mass above hi are each at most alpha / 2, summed from
    the exact pmf."""
    pmf = [
        math.exp(math.lgamma(trials + 1) - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                 + k * math.log(prob) + (trials - k) * math.log1p(-prob))
        for k in range(trials + 1)
    ]
    lo, below = 0, 0.0
    while below + pmf[lo] <= alpha / 2:
        below += pmf[lo]
        lo += 1
    hi, above = trials, 0.0
    while above + pmf[hi] <= alpha / 2:
        above += pmf[hi]
        hi -= 1
    return lo, hi


def test_fraction_matches_exact_probability():
    p = 0.5
    trials = 1500
    report = pg.ensemble_scan(6, [p], trials, 2024)[0]
    exact = _exact_pm_probability(6, p)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(report.pm_exists_fraction - exact) <= 3 * sigma


def test_count_histograms_match_the_exact_distribution():
    """Seeded count histograms at n = 6 against the exact distribution of the
    perfect-matching count over all 2^15 graphs on 6 vertices.

    At each p, a count whose expected frequency T·P is at least 10 is its own
    bucket, and the other counts are pooled into one.  Over T independent
    trials a bucket's frequency is Binomial(T, P), so it leaves its central
    interval of mass 1 - alpha with probability at most alpha.  With
    alpha = 1e-4 / (buckets checked), a union bound puts the chance that a
    correct sampler fails this test at 1e-4 or less.  A count of probability
    zero must not occur at all."""
    trials, ps = 3000, [0.3, 0.5, 0.7]
    checks = []
    for p, report in zip(ps, pg.ensemble_scan(6, ps, trials, 6)):
        exact = _exact_pm_distribution(6, p)
        observed = report.pm_count_histogram
        assert all(exact.get(count, 0.0) > 0 for count in observed)
        big = [count for count, prob in exact.items() if trials * prob >= 10]
        checks += [(p, count, observed.get(count, 0), exact[count]) for count in big]
        rest = [count for count in exact if count not in big]
        if rest:
            pooled = sum(observed.get(count, 0) for count in rest), sum(exact[count] for count in rest)
            checks.append((p, "pooled", *pooled))
    alpha = 1e-4 / len(checks)
    outside = []
    for p, bucket, frequency, prob in checks:
        lo, hi = _binomial_interval(trials, prob, alpha)
        if not lo <= frequency <= hi:
            outside.append((p, bucket, frequency, (lo, hi)))
    assert not outside


def _shared_edge_counts(m: int) -> list[int]:
    """c_k for k = 0..m: the perfect matchings of K_2m that share exactly k
    edges with a fixed one, M.  Choose the k shared edges of M, C(m, k)
    ways, and match the other 2j = 2(m - k) vertices with none of M's edges
    among them, D(j) = sum_i (-1)^i C(j, i) (2j - 2i - 1)!! ways, by
    inclusion-exclusion over the edges of M that such a matching holds."""
    def avoiding(j: int) -> int:
        return sum((-1) ** i * math.comb(j, i) * math.prod(range(1, 2 * (j - i), 2)) for i in range(j + 1))

    return [math.comb(m, k) * avoiding(m - k) for k in range(m + 1)]


@pytest.mark.parametrize(
    "n, trials, ps",
    [
        (12, 10000, [0.3, 0.5, 0.7]),
        (14, 2000, [0.5, 0.7]),
        (16, 2000, [0.5, 0.7]),
        (18, 2000, [0.5, 0.7]),
        (20, 1000, [0.5, 0.7]),
    ],
    ids=["12", "14", "16", "18", "20"],
)
def test_mean_count_matches_the_exact_moments(n, trials, ps):
    """The sample mean of the perfect-matching count of G(n, p) against
    E = N·p^(n/2), N = (n - 1)!!, within 5 standard errors.

    The count is the sum over the N matchings M of K_n of [M in G], so
    E[X^2] = sum over pairs (M, M') of p^|M u M'| = N·sum_k c_k·p^(n-k),
    where c_k counts the matchings sharing k edges with a fixed one (the
    same for every M by symmetry; the closed form is checked against a
    brute-force count at n = 12), and Var X = E[X^2] - E^2.  The mean of T
    independent trials has standard error sqrt(Var X / T).  By the central
    limit theorem it is near normal, and a normal leaves 5 standard errors
    with probability 5.7e-7; Chebyshev's bound, which holds whatever the
    shape, is 1/25 per p."""
    shared = _shared_edge_counts(n // 2)
    if n == 12:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        masks = pairing_masks(n, {pq: k for k, pq in enumerate(pairs)})
        brute = Counter((mask & masks[0]).bit_count() for mask in masks)
        assert shared == [brute[k] for k in range(n // 2 + 1)] == [6040, 3264, 900, 160, 30, 0, 1]
    matchings = sum(shared)
    assert matchings == math.prod(range(1, n, 2))
    for p, report in zip(ps, pg.ensemble_scan(n, ps, trials, n)):
        mean = matchings * p ** (n // 2)
        variance = matchings * sum(c * p ** (n - k) for k, c in enumerate(shared)) - mean**2
        sample_mean = sum(count * freq for count, freq in report.pm_count_histogram.items()) / trials
        assert abs(sample_mean - mean) <= 5 * math.sqrt(variance / trials), p


@given(
    n=st.integers(min_value=1, max_value=8).map(lambda half: 2 * half),
    seed=st.integers(min_value=0, max_value=2**32),
    trial=st.integers(min_value=0, max_value=10**6),
    ps=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6).map(sorted),
)
@settings(max_examples=60, deadline=None)
def test_one_trial_never_counts_fewer_matchings_at_a_higher_p(n, seed, trial, ps):
    # a trial's graphs are nested as p grows, so each keeps the matchings
    # of the graphs below it
    from photongraph.networks import _count_range

    histograms = _count_range(n, ps, seed, trial, trial + 1)
    counts = [count for histogram in histograms for count in histogram.elements()]
    assert len(counts) == len(ps)
    assert counts == sorted(counts)


def test_reports_are_deterministic():
    a = pg.ensemble_scan(6, [0.3, 0.7], 300, 99)
    b = pg.ensemble_scan(6, [0.3, 0.7], 300, 99)
    assert a == b


def test_histogram_sums_to_trials():
    report = pg.ensemble_scan(6, [0.4], 500, 5)[0]
    assert sum(report.pm_count_histogram.values()) == 500


def test_fraction_monotone_in_p():
    # per-trial seeds couple the samples: edge sets are nested as p grows,
    # so the existence fraction is monotone, not just in expectation
    ps = [0.1, 0.3, 0.5, 0.7, 0.9]
    reports = pg.ensemble_scan(6, ps, 400, 31)
    fractions = [r.pm_exists_fraction for r in reports]
    assert fractions == sorted(fractions)


def test_parallel_workers_match_serial(monkeypatch):
    # two cores, whatever the host has, and batches of 8 trials, so workers=2
    # forks a child for the 80 trials
    from photongraph import networks

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(networks, "_batch_size", lambda *args: 8)
    for seed in (12, 13, 14):
        serial = pg.ensemble_scan(6, [0.2, 0.5, 0.9], 80, seed)
        parallel = pg.ensemble_scan(6, [0.2, 0.5, 0.9], 80, seed, workers=2)
        assert serial == parallel


@given(
    n=st.integers(min_value=1, max_value=6).map(lambda half: 2 * half),
    trials=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32),
    ps=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4)
    .map(lambda ps: ps + [0.0, 1.0, (ps or [0.5])[0]])
    .flatmap(st.permutations),
    workers=st.sampled_from([1, 2]),
)
@example(n=6, trials=20, seed=3, ps=[k / 400 for k in range(1, 301)], workers=2)  # more p than a byte has tiers
@settings(max_examples=40, deadline=None)
def test_a_scan_reports_each_p_as_a_one_p_scan_does(n, trials, seed, ps, workers):
    # two cores, whatever the host has, and batches of one trial, so
    # workers=2 forks a child from two trials on
    from photongraph import networks

    with mock.patch.object(os, "cpu_count", lambda: 2), mock.patch.object(networks, "_batch_size", lambda *args: 1):
        reports = pg.ensemble_scan(n, ps, trials, seed, workers=workers)
    assert reports == [pg.ensemble_scan(n, [p], trials, seed)[0] for p in ps]


def test_the_fields_of_one_count_stay_apart_at_the_order_guard():
    # 23!! matchings of K24 sit beside an empty field and a repeated p
    k24 = math.prod(range(23, 0, -2))
    assert k24 == 316234143225
    reports = pg.ensemble_scan(24, [1.0, 0.0, 1.0], 1, 5)
    assert [r.pm_count_histogram for r in reports] == [{k24: 1}, {0: 1}, {k24: 1}]
    # three trials' full fields side by side in one batch
    reports = pg.ensemble_scan(24, [1.0, 0.0, 1.0], 3, 5)
    assert [r.pm_count_histogram for r in reports] == [{k24: 3}, {0: 3}, {k24: 3}]


def test_a_batch_mixes_trials_with_an_isolated_vertex_and_matchable_ones():
    from photongraph.networks import _count_range

    n, ps, seed = 8, (0.1, 0.35), 17
    graphs = [[pg.random_graph(n, p, pg.trial_seed(seed, trial)) for p in ps] for trial in range(16)]
    isolated = [any(largest.degree(v) == 0 for v in largest.vertices) for *_, largest in graphs]
    assert any(isolated) and not all(isolated)
    counts = [[pg.hafnian(g.adjacency()) for g in trial] for trial in graphs]
    assert any(trial[-1] for trial in counts)
    assert _count_range(n, ps, seed, 0, 16) == [Counter(trial[k] for trial in counts) for k in range(len(ps))]


@given(
    n=st.integers(min_value=1, max_value=6).map(lambda half: 2 * half),
    start=st.integers(min_value=0, max_value=8),
    length=st.integers(min_value=1, max_value=9),
    batch=st.sampled_from([1, 2, 3]),
    seed=st.integers(min_value=0, max_value=2**32),
    ps=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=3)
    .map(lambda ps: ps + [0.0, 1.0, (ps or [0.5])[0]])
    .flatmap(st.permutations),
)
@settings(max_examples=40, deadline=None)
def test_batches_count_every_trial_as_its_hafnian(n, start, length, batch, seed, ps):
    # small batches, so a trial range starts and ends anywhere in a batch
    from photongraph import networks

    with mock.patch.object(networks, "_batch_size", lambda *args: batch):
        histograms = networks._count_range(n, ps, seed, start, start + length)
    trials = range(start, start + length)
    assert histograms == [
        Counter(pg.hafnian(pg.random_graph(n, p, pg.trial_seed(seed, trial)).adjacency()) for trial in trials)
        for p in ps
    ]


def test_a_batch_keeps_its_packed_width_whatever_the_number_of_p():
    from photongraph.networks import _BATCH_BITS, _batch_size

    for n in (10, 12, 24):
        width = math.prod(range(n - 1, 0, -2)).bit_length()
        for tiers in range(1, 41):
            slot = -(-tiers * width // 8)
            size = _batch_size(n, 0.5, slot)
            assert size >= 1 and (size == 1 or 8 * slot * size <= _BATCH_BITS)
    assert _batch_size(12, 0.7, 6) >= 100  # a dense three-p scan at n = 12 packs at least 100 trials


@pytest.mark.parametrize(
    "n, p, batched",
    [(18, 0.1, True), (20, 0.15, False), (20, 0.2, True), (22, 0.175, False), (22, 0.2, True), (24, 0.15, False)],
)
def test_sparse_scans_on_many_vertices_count_one_trial_at_a_time(n, p, batched):
    # with every p below 0.2 on 20 or more vertices a batch is one trial;
    # either way every count is its trial's hafnian
    from fractions import Fraction

    from photongraph.networks import _batch_size, _count_range

    assert (_batch_size(n, p, 5) > 1) == batched
    assert _batch_size(n, Fraction(p), 5) == _batch_size(n, p, 5)
    histograms = _count_range(n, [p / 2, p], 3, 0, 6)
    assert histograms == [
        Counter(pg.hafnian(pg.random_graph(n, q, pg.trial_seed(3, trial)).adjacency()) for trial in range(6))
        for q in (p / 2, p)
    ]


def test_integer_and_fraction_probabilities_count_as_their_floats():
    from fractions import Fraction

    assert pg.ensemble_scan(6, [0, 1, Fraction(1, 2)], 50, 7) == pg.ensemble_scan(6, [0.0, 1.0, 0.5], 50, 7)


def test_trial_seed_mixing():
    seeds = {pg.trial_seed(1, t) for t in range(100)}
    assert len(seeds) == 100
    assert pg.trial_seed(1, 0) != pg.trial_seed(2, 0)


def test_ensemble_domain_errors():
    with pytest.raises(pg.DomainError):
        pg.ensemble_scan(5, [0.5], 10, 0)
    with pytest.raises(pg.DomainError):
        pg.ensemble_scan(6, [0.5], 0, 0)
    with pytest.raises(pg.DomainError):
        pg.ensemble_scan(6, [1.5], 10, 0)


@pytest.mark.parametrize("workers", [0, -3])
def test_ensemble_rejects_fewer_than_one_worker(workers):
    with pytest.raises(pg.DomainError):
        pg.ensemble_scan(6, [0.5], 10, 0, workers=workers)


@pytest.fixture
def no_sampling(monkeypatch):
    from photongraph import networks

    def no_work(*args, **kwargs):
        raise AssertionError("sampling or a fork started before every argument was checked")

    monkeypatch.setattr(networks, "_count_range", no_work)
    monkeypatch.setattr(os, "fork", no_work)


@pytest.mark.parametrize("workers", [1, 2])
def test_ensemble_checks_every_p_before_sampling(no_sampling, workers):
    with pytest.raises(pg.DomainError):
        pg.ensemble_scan(6, [0.2, 0.5, 1.5], 10, 0, workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_ensemble_refuses_large_orders_before_sampling(no_sampling, workers):
    with pytest.raises(pg.ScaleLimitError) as err:
        pg.ensemble_scan(26, [0.5], 10, 0, workers=workers)
    assert str(err.value) == "hafnian order 26 exceeds the guard (<= 24)"


@pytest.mark.parametrize(
    "cpus, workers, trials, batch, ps, sizes",
    [
        (8, 100_000, 3, 1, [0.5], [1, 1]),  # three one-trial batches: the caller and two children
        (2, 100_000, 50, 1, [0.3, 0.7], [25]),  # two cores: one child
        (8, 4, 1, 1, [0.5], []),  # one trial: no child
        (None, 4, 50, 1, [0.5], []),  # core count unknown: no child
        (8, 4, 50, 1, [], []),  # no p: no child
        (8, 4, 50, 25, [0.5], [25]),  # two whole batches: one child
        (8, 4, 49, 25, [0.5], []),  # less than two whole batches: no child
        (8, 4, 99, 25, [0.5], [33, 33]),  # three whole batches: two children
        (8, 4, 2048, None, [0.5], [1024]),  # two batches of 1024 trials, as n = 4 packs them: one child
        (8, 4, 2047, None, [0.5], []),  # less than two such batches: no child
    ],
)
def test_pool_size_is_capped_by_cores_and_batches(monkeypatch, cpus, workers, trials, batch, ps, sizes):
    """``sizes`` lists the trial count of each child a scan starts, with
    ``batch`` trials a batch (``None``: the scan's own batch size); an
    in-process stand-in for the fork counts its share at once."""
    from photongraph import networks

    started = []
    if batch is not None:
        monkeypatch.setattr(networks, "_batch_size", lambda *args: batch)

    def fork_share(n, p_values, seed, start, stop):
        started.append(stop - start)
        histograms = [dict(counts) for counts in networks._count_range(n, p_values, seed, start, stop)]
        return lambda kill=False: None if kill else histograms

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(networks, "_fork_share", fork_share)
    reports = pg.ensemble_scan(4, ps, trials, 1, workers=workers)
    assert started == sizes
    assert reports == pg.ensemble_scan(4, ps, trials, 1)


@pytest.mark.parametrize("n", [10, 12])
def test_the_benchmark_decks_scans_count_in_the_caller(monkeypatch, n):
    """200 trials at three p are less than two batches at n = 10 and 12, so
    two workers on two cores count them in the caller without a fork."""
    def no_fork():
        raise AssertionError("a scan of less than two batches forked")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    ps = [0.3, 0.5, 0.7]
    assert pg.ensemble_scan(n, ps, 200, 9, workers=2) == pg.ensemble_scan(n, ps, 200, 9)


def test_a_scan_of_many_p_caps_its_workers_at_its_first_chunks_batch(monkeypatch):
    """300 p at n = 6 count in chunks of 255 p (8 trials a batch) and 45 p
    (44 trials a batch), so 12 trials are less than two batches of either
    chunk and two workers on two cores count them without a child."""
    from photongraph import networks

    started = []
    fork_share = networks._fork_share
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(networks, "_fork_share", lambda *args: started.append(args) or fork_share(*args))
    ps = [k / 400 for k in range(1, 301)]
    assert pg.ensemble_scan(6, ps, 12, 3, workers=2) == pg.ensemble_scan(6, ps, 12, 3)
    assert started == []


@pytest.mark.parametrize("n", [4, 8, 12, 16])
def test_a_scans_existence_count_is_the_blossoms(n):
    """The trials of a scan with a perfect matching, by the matching
    counter, are those whose graph ``tutte_check`` finds one in."""
    ps, trials = [0.1, 0.2, 0.35, 0.6], 200
    for report in pg.ensemble_scan(n, ps, trials, 17):
        graphs = (pg.random_graph(n, report.p, pg.trial_seed(17, t)) for t in range(trials))
        matchable = sum(isinstance(pg.tutte_check(g), tuple) for g in graphs)
        assert trials - report.pm_count_histogram.get(0, 0) == matchable


@pytest.fixture
def fail_share(monkeypatch):
    """Two cores, batches of four trials, so a 40-trial scan forks, and a
    ``_count_range`` that raises the exception given to
    ``fail_share(exc, in_caller)`` in the caller or in a child; after the
    test no child of this process is left."""
    from photongraph import networks

    count_range, caller, failure = networks._count_range, os.getpid(), []

    def count_or_fail(*args):
        if failure and (os.getpid() == caller) == failure[1]:
            raise failure[0]
        return count_range(*args)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(networks, "_batch_size", lambda *args: 4)
    monkeypatch.setattr(networks, "_count_range", count_or_fail)
    yield lambda exc, in_caller: failure.extend((exc, in_caller))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_child_is_a_worker_failed_error(fail_share):
    fail_share(RuntimeError("the child's share failed"), False)
    with pytest.raises(pg.PhotonGraphError) as err:
        pg.ensemble_scan(6, [0.2, 0.5], 40, 3, workers=2)
    assert err.value.reason == "worker-failed"


def test_the_cli_reports_a_failed_child_on_one_line(fail_share, capsys):
    from photongraph import cli

    fail_share(RuntimeError("the child's share failed"), False)
    argv = ["random", "--n", "6", "--p", "0.5", "--trials", "40", "--seed", "3", "--threads", "2"]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: worker-failed: ") and err.count("\n") == 1


@pytest.mark.parametrize("exc", [RuntimeError("the caller's share failed"), KeyboardInterrupt()])
def test_a_failed_caller_share_propagates_after_the_children_are_reaped(fail_share, exc):
    fail_share(exc, True)
    with pytest.raises(type(exc)):
        pg.ensemble_scan(12, [0.2, 0.5], 4000, 3, workers=2)


def test_a_large_child_histogram_comes_through_the_pipe(monkeypatch):
    """A child's histograms can be far larger than the 64 KiB pipe buffer;
    the caller reads them whole before it reaps the child."""
    from photongraph import networks

    big = {count: count for count in range(20_000)}
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(networks, "_batch_size", lambda *args: 1)
    monkeypatch.setattr(networks, "_count_range", lambda n, p_values, *args: [Counter(big) for _ in p_values])
    report = pg.ensemble_scan(6, [0.5], 2, 0, workers=2)[0]
    assert report.pm_count_histogram == {count: 2 * count for count in range(20_000)}


@pytest.mark.parametrize("n", range(2, 15, 2))
def test_trial_counts_are_hafnians_of_the_sampled_graphs(n):
    from photongraph.networks import _count_range

    ps = (0.0, 0.3, 0.7, 1.0)
    for trial in range(6):
        counts = [pg.hafnian(pg.random_graph(n, p, pg.trial_seed(41, trial)).adjacency()) for p in ps]
        assert _count_range(n, ps, 41, trial, trial + 1) == [Counter({count: 1}) for count in counts]


def test_single_edge_amplitude_is_p():
    g = ExperimentGraph(["a", "b"], [Edge("x", "a", "b")])
    for p in (0.1, 0.5, 1.0):
        assert abs(pg.network_amplitude(g, p) - p) <= 1e-12


def test_k4_terms_scale_with_p_squared():
    p = 0.3
    state = pg.network_state(k4_ghz(), p)
    assert set(state.terms) == {(0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2)}
    for amp in state.terms.values():
        assert abs(amp - p**2) <= 1e-12
    assert abs(pg.network_amplitude(k4_ghz(), p) - 3 * p**2) <= 1e-12


def test_frustrated_double_edge_amplitude_vanishes():
    g = double_edge(math.pi)
    for p in (0.2, 0.8, 1.0):
        assert abs(pg.network_amplitude(g, p)) <= 1e-12


def test_network_state_at_unit_p_matches_state_synthesis():
    g = k4_ghz()
    assert pg.states_equal(pg.network_state(g, 1.0), pg.state_from_graph(g))


def test_network_state_keeps_small_p_kets():
    rng = random.Random(8)
    k8 = pg.complete_graph(8)
    g = ExperimentGraph(
        k8.vertices,
        [Edge(e.id, e.u, e.v, rng.randrange(2), rng.randrange(2), 1.0, rng.uniform(-math.pi, math.pi)) for e in k8.edges],
    )
    state = pg.network_state(g, 1e-3)
    amp = pg.network_amplitude(g, 1e-3)
    assert state.terms
    assert abs(sum(state.terms.values()) - amp) <= 1e-9 * abs(amp)


def test_overflowing_network_amplitude_is_a_domain_error():
    g = ExperimentGraph(["a", "b"], [Edge("x", "a", "b", amp_mag=1e308), Edge("y", "a", "b", amp_mag=1e308)])
    with pytest.raises(pg.DomainError) as err:
        pg.network_amplitude(g, 1.0)
    assert err.value.reason == "overflow"


def test_network_amplitude_rejects_odd_graphs():
    g = ExperimentGraph(["a", "b", "c"], [Edge("x", "a", "b")])
    with pytest.raises(pg.DomainError):
        pg.network_amplitude(g, 0.5)


def test_csv_rows():
    from photongraph.networks import report_csv_rows

    reports = pg.ensemble_scan(4, [0.5], 50, 3)
    rows = report_csv_rows(reports)
    assert all(row[0] == 0.5 for row in rows)
    assert sum(row[3] for row in rows) == 50
