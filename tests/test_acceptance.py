"""Acceptance suite: one test per criterion, each printing a pass/fail line
and asserting its runtime budget."""

from __future__ import annotations

import math
import random
import time
from itertools import combinations

import photongraph as pg
from photongraph import Edge, ExperimentGraph, vertex_names
from photongraph.feasibility import TutteWitness

from fixt import four_layer6, k4_ghz, k6_factored, layered6, double_edge
from oracles import pairing_masks

INV_SQRT3 = 1 / math.sqrt(3)


def _finish(num: int, description: str, ok: bool, started: float, limit: float):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[acceptance {num:02d}] {status} ({elapsed:.2f}s, budget {limit:.0f}s) {description}")
    assert ok, f"criterion {num} failed"
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget"


def test_criterion_01_k4_fixture():
    t0 = time.perf_counter()
    g = k4_ghz()
    pms = pg.enumerate_pm(g)
    state = pg.state_from_graph(g, normalize=True)
    ok = len(pms) == 3
    ok = ok and set(state.terms) == {(0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2)}
    ok = ok and all(abs(a - INV_SQRT3) <= 1e-9 for a in state.terms.values())
    _finish(1, "K4: 3 matchings, uniform 3-dim GHZ state", ok, t0, 1.0)


def test_criterion_02_layered_six_vertex_fixture():
    t0 = time.perf_counter()
    g = layered6()
    pms = pg.enumerate_pm(g)
    state = pg.state_from_graph(g, normalize=True)
    expected = {(0,) * 6, (1,) * 6, (2,) * 6, (1, 2, 1, 2, 0, 0)}
    report = pg.classify_layers(g)
    ok = len(pms) == 4
    ok = ok and set(state.terms) == expected
    ok = ok and all(abs(a - 0.5) <= 1e-9 for a in state.terms.values())
    ok = ok and len(report.layer_matchings) == 3 and len(report.maverick_matchings) == 1
    _finish(2, "6-vertex 9-edge fixture: 4 terms incl. the maverick, 3+1 split", ok, t0, 1.0)


def test_criterion_03_complete_graph_counts():
    t0 = time.perf_counter()
    expected = {1: 1, 2: 3, 3: 15, 4: 105, 5: 945, 6: 10395}
    ok = True
    for n, value in expected.items():
        ok = ok and pg.count_pm_formula(n) == value
        pms = pg.enumerate_pm(pg.complete_graph(2 * n), override_limits=True)
        ok = ok and len(pms) == value
    report = pg.classify_layers(k6_factored())
    ok = ok and len(report.layer_matchings) == 5 and len(report.maverick_matchings) == 10
    _finish(3, "K_2n counts match (2n)!/(n!2^n) for n<=6; K6 splits 5+10", ok, t0, 30.0)


def test_criterion_04_four_disjoint_layers():
    t0 = time.perf_counter()
    g = four_layer6()
    pms = pg.enumerate_pm(g)
    report = pg.classify_layers(g)
    ok = len(pms) == 8
    ok = ok and len(report.layer_matchings) == 4 and len(report.maverick_matchings) == 4
    _finish(4, "four disjoint layers on 6 vertices: 8 matchings, 4+4 split", ok, t0, 1.0)


def test_criterion_05_ghz_theorem_scan():
    t0 = time.perf_counter()
    d6, _ = pg.scan_ghz_dimension(6)
    d4, witness4 = pg.scan_ghz_dimension(4)
    ok = d6 == 2 and d4 == 3
    pms = pg.enumerate_pm(witness4)
    ok = ok and len(pms) == 3
    ok = ok and all(not set(a) & set(b) for a, b in combinations(pms, 2))
    _finish(5, "pruned pairing-family scan: GHZ dimension 2 for n=6, 3 for n=4", ok, t0, 300.0)


def test_criterion_06_matrix_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(60001)
    for _ in range(200):
        n = rng.choice([2, 4, 6, 8, 10, 12])
        g = pg.random_graph(n, rng.uniform(0.1, 0.95), rng.getrandbits(48))
        # dense 12-vertex samples may exceed the 60-edge default guard
        ok = ok and pg.hafnian(g.adjacency()) == len(pg.enumerate_pm(g, override_limits=True))
    for _ in range(200):
        k = rng.randrange(1, 8)
        xs = [f"x{i}" for i in range(k)]
        ys = [f"y{i}" for i in range(k)]
        edges = [
            Edge(f"e{i}{j}", xs[i], ys[j])
            for i in range(k)
            for j in range(k)
            if rng.random() < rng.uniform(0.2, 0.95)
        ]
        g = ExperimentGraph(xs + ys, edges)
        bi = g.biadjacency((xs, ys))
        ok = ok and pg.permanent([list(r) for r in bi.entries]) == len(pg.enumerate_pm(g))
    _finish(6, "hafnian/permanent equal enumeration on 200+200 random graphs", ok, t0, 120.0)


def test_criterion_07_hall_tutte_agreement():
    t0 = time.perf_counter()
    ok = True
    # exhaustive over all simple graphs with |V| <= 6
    for n in range(1, 7):
        names = vertex_names(n)
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [
                Edge(f"e{s}", names[i], names[j])
                for s, (i, j) in enumerate(pairs)
                if mask >> s & 1
            ]
            g = ExperimentGraph(names, edges)
            exists = len(pg.enumerate_pm(g)) > 0
            ok = ok and isinstance(pg.tutte_check(g), tuple) == exists
            try:
                part_x, part_y = g.bipartition()
            except pg.NotBipartiteError:
                continue
            if len(part_x) == len(part_y):
                ok = ok and isinstance(pg.hall_check(g), tuple) == exists
        if not ok:
            break
    # randomized beyond, up to 14 vertices
    rng = random.Random(70707)
    for _ in range(500):
        n = rng.randrange(2, 15)
        g = pg.random_graph(n, rng.uniform(0.05, 0.5), rng.getrandbits(48))
        exists = len(pg.enumerate_pm(g)) > 0
        result = pg.tutte_check(g)
        ok = ok and isinstance(result, tuple) == exists
        if isinstance(result, TutteWitness):
            ok = ok and len(result.odd_components) > len(result.subset_u)
    # the triangles-plus-hub fixture
    from fixt import spider

    witness = pg.tutte_check(spider())
    ok = ok and isinstance(witness, TutteWitness)
    ok = ok and witness.subset_u == ("d",) and len(witness.odd_components) == 3
    _finish(7, "matchability verdicts agree with enumeration; spider witness U={d}", ok, t0, 180.0)


def test_criterion_08_frustration():
    t0 = time.perf_counter()
    rows = pg.frustration_scan(double_edge(), "II", [0.0, math.pi / 2, math.pi])
    expected = [4.0, 2.0, 0.0]
    ok = all(abs(intensity - want) <= 1e-9 for (_, intensity), want in zip(rows, expected))
    _finish(8, "double edge intensity |1+e^{i phi}|^2 at phi in {0, pi/2, pi}", ok, t0, 1.0)


def test_criterion_09_merge_swap():
    t0 = time.perf_counter()
    merged = pg.merge_graphs(
        k4_ghz(("a", "b", "c", "d")), k4_ghz(("e", "f", "g", "h")), [("d", "e")]
    )
    state = pg.state_from_graph(merged, normalize=True)
    ok = set(state.terms) == {(0,) * 6, (1,) * 6, (2,) * 6}
    ok = ok and all(abs(a - INV_SQRT3) <= 1e-9 for a in state.terms.values())
    ok = ok and pg.is_ghz_like(state)
    _finish(9, "merged double-K4 gives the 6-photon 3-dimensional GHZ state", ok, t0, 1.0)


def test_criterion_10_factorization_counts():
    t0 = time.perf_counter()
    ok = len(pg.enumerate_factorizations(k4_ghz())) == 1
    ok = ok and len(pg.enumerate_factorizations(pg.complete_graph(6))) == 6
    _finish(10, "1-factorization counts: K4 -> 1, K6 -> 6", ok, t0, 60.0)


def test_criterion_11_round_trips():
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(111111)
    for _ in range(1000):
        g = pg.random_graph(rng.randrange(0, 11), rng.random(), rng.getrandbits(48))
        ok = ok and pg.parse_graph(pg.serialize_graph(g)) == g
    for _ in range(200):
        g = pg.random_graph(rng.randrange(2, 11), rng.uniform(0.1, 0.9), rng.getrandbits(48))
        plan = pg.synthesize_setup(g)
        placed = []
        for layer in plan.layers:
            paths: set[str] = set()
            for c in layer:
                ok = ok and c.u not in paths and c.v not in paths
                paths.update((c.u, c.v))
                placed.append(c.id)
        ok = ok and sorted(placed) == sorted(e.id for e in g.edges)
        back = pg.plan_to_graph(plan)
        structural = lambda gr: sorted(
            (e.id, e.u, e.v, e.mode_u, e.mode_v, e.amp_mag, e.amp_phase_rad) for e in gr.edges
        )
        ok = ok and structural(back) == structural(g) and back.vertices == g.vertices
    _finish(11, "1000 document and 200 plan round-trips; every layer is a matching", ok, t0, 60.0)


def test_criterion_12_random_network_statistics():
    t0 = time.perf_counter()
    n, p, trials = 6, 0.5, 10000
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pair_pos = {pq: k for k, pq in enumerate(pairs)}
    masks = pairing_masks(n, pair_pos)
    m = len(pairs)
    exact = 0.0
    for sub in range(1 << m):
        if any(mask & sub == mask for mask in masks):
            k = sub.bit_count()
            exact += p**k * (1 - p) ** (m - k)

    reports = pg.ensemble_scan(n, [0.0, p, 1.0], trials, 121212)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    ok = reports[0].pm_exists_fraction == 0.0
    ok = ok and reports[2].pm_exists_fraction == 1.0
    ok = ok and reports[2].pm_count_histogram == {pg.count_pm_formula(n // 2): trials}
    ok = ok and abs(reports[1].pm_exists_fraction - exact) <= 3 * sigma
    _finish(12, "ensemble fraction matches the exact subgraph expectation within 3 sigma", ok, t0, 60.0)
