"""``combinatorics`` workload: jobs that need explicit matchings or witnesses
and never build a state (the target search builds only small candidates).

Why: the matching engine, the feasibility checks, the GHZ scan and the
target search do the work; state assembly for large graphs does none, so a
faster state kernel should leave this workload unchanged while faster
enumeration, a polynomial Tutte check or a pruned GHZ scan show in its tail.
"""

from __future__ import annotations

import json
import math
import random

import refs
from harness import Job, Workload, check

GNP_DRAWS = 8


def _rng(seed: int, *key) -> random.Random:
    return random.Random(f"combinatorics:{seed}:{':'.join(map(str, key))}")


def _names(prefix, n):
    return [f"{prefix}{i}" for i in range(n)]


def _complete_edges(names):
    return [(f"e{k}", u, v, 0, 0, 1) for k, (u, v) in
            enumerate((names[i], names[j]) for i in range(len(names)) for j in range(i + 1, len(names)))]


def _gnp_edges(names, p, rng, planted=False):
    """Seeded G(n, p), optionally with a planted perfect matching."""
    n = len(names)
    pairs = set()
    if planted:
        order = list(range(n))
        rng.shuffle(order)
        pairs |= {(min(a, b), max(a, b)) for a, b in zip(order[0::2], order[1::2])}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                pairs.add((i, j))
    return [(f"e{k}", names[i], names[j], 0, 0, 1) for k, (i, j) in enumerate(sorted(pairs))]


def _bipartite_edges(xs, ys, p, rng, blocked=()):
    """Random bipartite edges; rows in ``blocked`` only reach ys[:len-1]."""
    edges = []
    for i, x in enumerate(xs):
        allowed = ys[: len(blocked) - 1] if i in blocked else ys
        for y in allowed:
            if rng.random() < p:
                edges.append((f"e{len(edges)}", x, y, 0, 0, 1))
    return edges


def _adj_bits(names, edges):
    index = {v: i for i, v in enumerate(names)}
    adj = [0] * len(names)
    for _, u, v, *_ in edges:
        adj[index[u]] |= 1 << index[v]
        adj[index[v]] |= 1 << index[u]
    return adj


def build(pg, seed: int, smoke: bool, corrupt: bool):
    def graph(names, edges, layers=None):
        return pg.ExperimentGraph(names, [
            pg.Edge(eid, u, v, mu, mv, layer=None if layers is None else layers[eid])
            for eid, u, v, mu, mv, _ in edges])

    M, F, C, S = pg.matching, pg.feasibility, pg.counting, pg.states
    jobs: list[tuple[str, object]] = []

    def add(name, fn):
        jobs.append((name, fn))

    # --- enumeration -------------------------------------------------------
    def enum_job(names, edges, expected):
        g = graph(names, edges)

        def run(tr):
            pms = tr.call("matching.enumerate_pm", M.enumerate_pm, g, override_limits=True)
            tr.count("matching.enumerate_pm.matchings", len(pms))
            check(len(pms) == expected, f"{len(pms)} matchings, expected {expected}")
            check(len(set(pms)) == len(pms) and pms == sorted(pms), "matchings repeat or are unsorted")
            for pm in pms[:: max(1, len(pms) // 8)]:
                check(refs.is_perfect_matching(names, edges, pm), f"{pm} is not a perfect matching")
        return run

    for n in (10, 12) if not smoke else (6,):
        names = _names(f"v{_rng(seed, 'names', n).randrange(1000)}.", n)
        add(f"pm-k{n}", enum_job(names, _complete_edges(names), refs.complete_pm_count(n)))
    # The number of perfect matchings of G(n, p), and with it the time to
    # enumerate them, varies by a factor of ten between seeds.  Of
    # GNP_DRAWS graphs the one whose count is nearest the median count is
    # kept, so that the seed changes the graph but not the size of the job
    # or of the set-up.
    for n, p, typical in ((12, 0.4, 30), (14, 0.5, 830))[: 1 if smoke else 2]:
        rng = _rng(seed, "gnp", n)
        names = _names("v", n)
        drawn = []
        for _ in range(GNP_DRAWS):
            edges = _gnp_edges(names, p, rng)
            drawn.append((abs(refs.count_pm_bits(_adj_bits(names, edges)) - typical), edges))
        edges = min(drawn, key=lambda d: d[0])[1]
        add(f"pm-gnp{n}", enum_job(names, edges, refs.count_pm_bits(_adj_bits(names, edges))))

    # --- layers, disjoint matchings, factorizations ------------------------
    def layered_complete(n, rng):
        names = _names("w", n)
        rng.shuffle(names)
        edges, layers = [], {}
        for tag, rnd in enumerate(refs.round_robin(n)):
            for i, j in rnd:
                u, v = sorted((names[i], names[j]))
                eid = f"L{tag}.{u}{v}"
                edges.append((eid, u, v, 0, 0, 1))
                layers[eid] = tag
        return sorted(names), edges, layers

    for n in (6, 8)[: 1 if smoke else 2]:
        names, edges, layers = layered_complete(n, _rng(seed, "layers", n))
        g = graph(names, edges, layers)
        tags = {}
        for eid, tag in layers.items():
            tags.setdefault(tag, set()).add(eid)

        def layers_job(tr, g=g, n=n, tags=tags):
            rep = tr.call("matching.classify_layers", M.classify_layers, g)
            check(sorted(map(frozenset, rep.layer_matchings), key=sorted)
                  == sorted(map(frozenset, tags.values()), key=sorted), "layer matchings are not the layers")
            check(len(rep.maverick_matchings) == refs.complete_pm_count(n) - (n - 1), "wrong maverick count")
        add(f"layers-k{n}", layers_job)

    for n in (6, 8)[: 1 if smoke else 2]:
        names = _names("v", n)
        edges = _complete_edges(names)
        g = graph(names, edges)

        def disjoint_job(tr, g=g, n=n, names=names, edges=edges):
            d, witness = tr.call("matching.max_disjoint_pms", M.max_disjoint_pms, g)
            check(d == refs.complete_disjoint_pms(n), f"d = {d}, expected {n - 1}")
            used = [eid for pm in witness for eid in pm]
            check(len(witness) == d and len(used) == len(set(used)), "witness matchings overlap")
            check(all(refs.is_perfect_matching(names, edges, pm) for pm in witness), "witness is not perfect")
        add(f"ghz-max-k{n}", disjoint_job)

    if not smoke:
        names = _names("v", 8)
        edges = _complete_edges(names)
        g8 = graph(names, edges)

        def factor_job(tr, names=names, edges=edges):
            fs = tr.call("matching.enumerate_factorizations", M.enumerate_factorizations, g8)
            check(len(fs) == refs.K8_FACTORIZATIONS, f"{len(fs)} factorizations, expected 6240")
            for fz in fs[:: len(fs) // 16]:
                ids = [eid for f in fz.factors for eid in f]
                check(len(fz.factors) == 7 and sorted(ids) == sorted(e[0] for e in edges),
                      "factorization does not partition the edges")
                check(all(refs.is_perfect_matching(names, edges, f) for f in fz.factors), "factor not perfect")
        add("factorize-k8", factor_job)

    # --- counting kernels on bipartite graphs -------------------------------
    rng = _rng(seed, "bip")
    xs, ys = _names("x", 6), _names("y", 6)
    edges = _bipartite_edges(xs, ys, rng.uniform(0.4, 0.6), rng)
    names = xs + ys
    g = graph(names, edges)
    expected = refs.count_pm_bits(_adj_bits(names, edges)) + (1 if corrupt else 0)

    def count_job(tr, g=g, xs=xs, ys=ys, expected=expected):
        by_enum = len(tr.call("matching.enumerate_pm", M.enumerate_pm, g))
        tr.count("matching.enumerate_pm.matchings", by_enum)
        by_haf = tr.call("counting.hafnian", C.hafnian, g.adjacency())
        tr.count("counting.hafnian.calls")
        bi = g.biadjacency((xs, ys))
        by_perm = tr.call("counting.permanent", C.permanent, [list(r) for r in bi.entries])
        check(by_perm == by_haf, f"permanent {by_perm} != hafnian {by_haf}")
        check(by_enum == by_haf == expected, f"enumeration {by_enum}, hafnian {by_haf}, reference {expected}")
    add("count-bip", count_job)

    # --- Hall ---------------------------------------------------------------
    for label, blocked in (("hall-yes", ()), ("hall-no", (0, 2, 4))):
        rng = _rng(seed, label)
        xs, ys = _names("x", 7), _names("y", 7)
        edges = _bipartite_edges(xs, ys, 0.5, rng, blocked)
        if not blocked:  # plant a perfect matching
            have = {(e[1], e[2]) for e in edges}
            edges += [(f"p{i}", x, y, 0, 0, 1) for i, (x, y) in enumerate(zip(xs, ys)) if (x, y) not in have]
        names = xs + ys
        g = graph(names, edges)
        exists = refs.count_pm_bits(_adj_bits(names, edges)) > 0

        def hall_job(tr, g=g, xs=xs, ys=ys, names=names, edges=edges, exists=exists):
            res = tr.call("feasibility.hall_check", F.hall_check, g, (xs, ys))
            if isinstance(res, tuple):
                check(exists, "hall_check found a matching where none exists")
                check(refs.is_perfect_matching(names, edges, res), "hall matching is not perfect")
            else:
                tr.count("feasibility.witnesses")
                check(not exists, "hall_check reported a witness but a perfect matching exists")
                w = set(res.subset_w)
                nbr = refs.neighborhood(edges, w)
                check(w <= set(xs) and nbr == set(res.neighborhood), "Hall witness neighborhood is wrong")
                check(len(nbr) < len(w), "Hall witness has |N(W)| >= |W|")
        add(label, hall_job)

    # --- Tutte --------------------------------------------------------------
    tutte_inputs = []
    for n in (12, 14)[: 1 if smoke else 2]:
        names = _names("v", n)
        tutte_inputs.append((f"tutte-yes{n}", names, _gnp_edges(names, 0.25, _rng(seed, "tutte-yes", n), planted=True)))
    for k in (10, 12, 14) if not smoke else (10,):
        tag = _rng(seed, "tutte-names", len(tutte_inputs)).randrange(1000)
        names = _names(f"k{tag}.", k) + _names(f"s{tag}.", 3) + _names(f"t{tag}.", 3)
        edges = _complete_edges(names[:k])
        for tri in (names[k:k + 3], names[k + 3:]):
            edges += [(f"{a}{b}", a, b, 0, 0, 1) for a, b in ((tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2]))]
        tutte_inputs.append((f"tutte-k{k}+2k3", names, edges))
    for label, names, edges in tutte_inputs:
        g = graph(names, edges)
        exists = refs.count_pm_bits(_adj_bits(names, edges)) > 0

        def tutte_job(tr, g=g, names=names, edges=edges, exists=exists):
            res = tr.call("feasibility.tutte_check", F.tutte_check, g)
            if isinstance(res, tuple):
                check(exists, "tutte_check found a matching where none exists")
                check(refs.is_perfect_matching(names, edges, res), "tutte matching is not perfect")
            else:
                tr.count("feasibility.witnesses")
                check(not exists, "tutte_check reported a witness but a perfect matching exists")
                odd = refs.odd_components(names, edges, set(res.subset_u))
                check(len(odd) > len(res.subset_u), "Tutte witness leaves too few odd components")
                check(set(odd) == set(map(frozenset, res.odd_components)), "Tutte witness components are wrong")
        add(label, tutte_job)

    # --- GHZ scan and target search -----------------------------------------
    for n in (4, 6)[: 1 if smoke else 2]:
        def scan_job(tr, n=n):
            d, witness = tr.call("matching.scan_ghz_dimension", M.scan_ghz_dimension, n)
            check(d == refs.ghz_dimension(n), f"scan found d = {d}, the bound is {refs.ghz_dimension(n)}")
            wv = list(witness.vertices)
            we = [(e.id, e.u, e.v, 0, 0, 1) for e in witness.edges]
            pms = refs.covers(wv, we)
            used = [k for pm in pms for k in pm]
            check(len(pms) == d and len(used) == len(set(used)), "scan witness is not a GHZ graph of dimension d")
        add(f"ghz-scan-{n}", scan_job)

    targets = ((6, 2), (8, 2), (4, 3), (6, 3)) if not smoke else ((4, 3),)
    for n, d in targets:
        doc = [{"modes": [m] * n, "amp_mag": 1 / math.sqrt(d), "amp_phase_rad": 0.0} for m in range(d)]
        target = S.parse_state(json.dumps(doc))
        want = {(m,) * n: 1 / math.sqrt(d) for m in range(d)}
        feasible = d <= refs.ghz_dimension(n)

        def search_job(tr, target=target, want=want, feasible=feasible):
            hit = tr.call("states.search_graph_for_state", S.search_graph_for_state, target, max_edges=8)
            tr.count("states.search_graph_for_state.calls")
            check((hit is not None) == feasible, f"search {'missed' if feasible else 'found'} a graph")
            if hit is None:
                return
            tr.count("states.search_graph_for_state.found")
            check(tr.call("states.verify_target", S.verify_target, hit, target) is True, "hit fails verify_target")
            got = refs.brute_state(list(hit.vertices), [(e.id, e.u, e.v, e.mode_u, e.mode_v, e.amplitude)
                                                        for e in hit.edges])
            check(refs.same_state_up_to_phase(want, got), "hit graph's state is not the target")
        add(f"search-ghz{n}x{d}", search_job)

    deck_jobs = [Job(name, fn) for name, fn in jobs]
    return Workload(lambda i: deck_jobs)
