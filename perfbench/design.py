"""``design`` workload: one setup-design request per job.

A job takes one graph document through parse -> normalized state ->
write/read the state -> verify -> 8-phase frustration scan of one edge ->
setup plan round trip, and on unmeasured K8/K10 graphs and the fixtures also
computes the first-order network state and amplitude at a seeded p.

Why: cover enumeration and state assembly do most of the work here, and the
number of mode labels decides how many covers land on each ket.
"""

from __future__ import annotations

import cmath
import json
import math
import random

import refs
from harness import Job, Workload, check

PHASES = 8
P_LOW, P_HIGH, P_STRATA = 0.001, 0.1, 8


def _rng(seed: int, *key) -> random.Random:
    return random.Random(f"design:{seed}:{':'.join(map(str, key))}")


def _edge(eid, u, v, mu, mv, mag=1.0, phase=0.0, layer=None) -> dict:
    rec = {"id": eid, "u": u, "v": v, "mode_u": mu, "mode_v": mv, "amp_mag": mag, "amp_phase_rad": phase}
    if layer is not None:
        rec["layer"] = layer
    return rec


def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


def complete_doc(n: int, modes: int, rng: random.Random) -> dict:
    """K_n with seeded endpoint modes in [0, modes), magnitudes and phases.

    Each vertex's n - 1 edge ends carry every mode equally often, in seeded
    order.  With modes drawn independently per end, the number of kets of
    K12 with 3 modes ranged from 6400 to 8600 between seeds (K10 with 2
    modes: 200 to 430), and so did the job's memory; balanced, it stays
    within 8300 to 9300 (420 to 500)."""
    names = _names("p", n)
    ends = []
    for _ in range(n):
        labels = [k % modes for k in range(n - 1)]
        rng.shuffle(labels)
        ends.append(labels)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            edges.append(_edge(f"e{len(edges)}", names[i], names[j], ends[i].pop(), ends[j].pop(),
                               rng.uniform(0.5, 1.5), rng.uniform(-math.pi, math.pi)))
    return {"vertices": names, "edges": edges}


def k4_ghz_doc(prefix="", rng=None) -> dict:
    """Three layers on four paths; layer i pumps modes (i, i)."""
    a, b, c, d = (prefix + x for x in "abcd")
    rows = [(a, b, 0), (c, d, 0), (a, c, 1), (b, d, 1), (a, d, 2), (b, c, 2)]
    edges = []
    for k, (u, v, m) in enumerate(rows):
        mag, phase = (rng.uniform(0.5, 1.5), rng.uniform(-math.pi, math.pi)) if rng else (1.0, 0.0)
        edges.append(_edge(f"{prefix}E{k}", u, v, m, m, mag, phase, layer=m))
    return {"vertices": [a, b, c, d], "edges": edges}


def layered6_doc() -> dict:
    """Six paths, three layers of three crystals: 4 matchings."""
    rows = [("a", "b", 0), ("c", "d", 0), ("e", "f", 0), ("a", "c", 1), ("b", "e", 1),
            ("d", "f", 1), ("b", "d", 2), ("a", "e", 2), ("c", "f", 2)]
    return {"vertices": list("abcdef"),
            "edges": [_edge(f"L{m}{u}{v}", u, v, m, m, layer=m) for u, v, m in rows]}


def k6_factored_doc() -> dict:
    """K6 tagged with a 1-factorization; layer i pumps modes (i, i)."""
    names = list("abcdef")
    edges = []
    for layer, rnd in enumerate(refs.round_robin(6)):
        for i, j in rnd:
            edges.append(_edge(f"{names[i]}{names[j]}", names[i], names[j], layer, layer, layer=layer))
    return {"vertices": names, "edges": edges}


def ref_edges(doc) -> list[tuple]:
    return [(e["id"], e["u"], e["v"], e["mode_u"], e["mode_v"], cmath.rect(e["amp_mag"], e["amp_phase_rad"]))
            for e in doc["edges"]]


def merged_ref(halves, pairs) -> tuple[list, list, set]:
    """What merging the halves at ``pairs`` must give: the second vertex of
    each pair is renamed to the first and becomes measured."""
    rename = {b: a for a, b in pairs}
    vertices, edges = [], []
    for doc in halves:
        vertices += [v for v in doc["vertices"] if v not in rename]
        for eid, u, v, mu, mv, amp in ref_edges(doc):
            edges.append((eid, rename.get(u, u), rename.get(v, v), mu, mv, amp))
    return vertices, edges, {a for a, _ in pairs}


class Entry:
    """One corpus graph with everything its checks need."""

    def __init__(self, name, docs, pairs=(), network=False):
        self.name = name
        self.docs = docs
        self.texts = [json.dumps(d) for d in docs]
        self.pairs = list(pairs)
        self.network = network
        self.closed_form = None


def _adjacency(vertices, edges, ket=None) -> list[list[complex]]:
    """Amplitude-weighted adjacency, keeping only edges consistent with
    ``ket`` when one is given."""
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    m = [[0j] * n for _ in range(n)]
    for _, u, v, mu, mv, amp in edges:
        i, j = index[u], index[v]
        if ket is not None and (ket[i] != mu or ket[j] != mv):
            continue
        m[i][j] += amp
        m[j][i] += amp
    return m


def _sample_kets(vertices, edges, rng, complete: bool, count=3) -> set[tuple[int, ...]]:
    """Kets of random covers: random pairings of K_n, or random picks from the
    brute-force cover list of a small graph."""
    index = {v: i for i, v in enumerate(vertices)}
    if complete:
        by_pair = {(index[e[1]], index[e[2]]): e for e in edges}
        picks = []
        for _ in range(count):
            order = list(range(len(vertices)))
            rng.shuffle(order)
            picks.append([by_pair[(min(a, b), max(a, b))] for a, b in zip(order[0::2], order[1::2])])
    else:
        cover_list = refs.covers(vertices, edges)
        picks = [[edges[k] for k in rng.choice(cover_list)] for _ in range(count)]
    kets = set()
    for pick in picks:
        ket = [0] * len(vertices)
        for _, u, v, mu, mv, _ in pick:
            ket[index[u]], ket[index[v]] = mu, mv
        kets.add(tuple(ket))
    return kets


def build(pg, seed: int, smoke: bool, corrupt: bool):
    """Corpus, reference answers and the deck function."""
    hafnian = pg.hafnian
    entries = [
        Entry("k4-ghz", [k4_ghz_doc()], network=True),
        Entry("layered6", [layered6_doc()], network=True),
        Entry("k6-factored", [k6_factored_doc()], network=True),
    ]
    # Closed forms: the K4 GHZ fixture is (|0000> + |1111> + |2222>)/sqrt(3);
    # layered-6 has four kets of amplitude 1/2, three of them |mmmmmm>.
    entries[0].closed_form = lambda t: refs.same_state_up_to_phase({(m,) * 4: 1 / math.sqrt(3) for m in range(3)}, t)
    entries[1].closed_form = lambda t: (len(t) == 4 and all(abs(abs(a) - 0.5) <= 1e-9 for a in t.values())
                                        and all((m,) * 6 in t for m in range(3)))
    rng = _rng(seed, "merge")
    for label, count in (("merge2-a", 2), ("merge2-b", 2), ("merge3", 3)):
        halves = [k4_ghz_doc(f"{label[-1]}{h}", rng) for h in range(count)]
        pairs = [(halves[h]["vertices"][3], halves[h + 1]["vertices"][0]) for h in range(count - 1)]
        entries.append(Entry(label, halves, pairs))
    sizes = [(8, "a"), (8, "b"), (10, "")] if not smoke else [(8, "a")]
    for n, tag in sizes:
        for modes in (1, 2, 3):
            doc = complete_doc(n, modes, _rng(seed, n, modes, tag))
            entries.append(Entry(f"k{n}-m{modes}{tag}", [doc], network=True))
    k12 = [] if smoke else [Entry(f"k12-m{m}", [complete_doc(12, m, _rng(seed, 12, m))]) for m in (1, 2, 3)]

    for e in entries + k12:
        if e.pairs:
            vertices, edges, measured = merged_ref(e.docs, e.pairs)
            e.vertices = vertices
            e.ref_state_raw = refs.brute_state(vertices, edges, measured, normalize=False)
            e.covers = len(refs.covers(vertices, edges, measured))
        else:
            doc = e.docs[0]
            vertices, edges = doc["vertices"], ref_edges(doc)
            e.vertices = vertices
            # The state kernel is checked against the hafnian kernel: the
            # amplitude of ket k is haf(A_k), A_k keeping the edges
            # consistent with k; the sum over kets is haf(A).
            e.h_full = hafnian(_adjacency(vertices, edges))
            e.h_abs = hafnian([[abs(x) for x in row] for row in _adjacency(vertices, edges)])
            n = len(vertices)
            complete = len(edges) == n * (n - 1) // 2 and len({(r[1], r[2]) for r in edges}) == len(edges)
            kets = _sample_kets(vertices, edges, _rng(seed, "kets", e.name), complete)
            e.h_kets = {k: hafnian(_adjacency(vertices, edges, k)) for k in kets}
            e.covers = refs.complete_pm_count(n) if complete else len(refs.covers(vertices, edges))
        e.scan_edge = _rng(seed, "edge", e.name).choice(e.docs[0]["edges"])
        e.strata = list(range(P_STRATA))
        _rng(seed, "strata", e.name).shuffle(e.strata)
    if corrupt:
        entries[0].h_full *= 1.5

    def deck(i: int) -> list[Job]:
        chosen = entries + ([k12[i % 3]] if k12 else [])
        return [Job(e.name, _runner(pg, e, i, _rng(seed, "deck", i, e.name))) for e in chosen]

    return Workload(deck)


def _runner(pg, e: Entry, i: int, rng: random.Random):
    graph_mod, states, compiler, networks = pg.graph, pg.states, pg.compiler, pg.networks
    own = e.scan_edge["amp_phase_rad"]
    phases = [own] + [rng.uniform(-math.pi, math.pi) for _ in range(PHASES - 1)]
    # p is drawn from [P_LOW, P_HIGH] stratified over decks, so every run
    # sees the same spread of p and about the same number of jobs that hit
    # the absolute-tolerance defect.
    p = P_LOW + (P_HIGH - P_LOW) * (e.strata[i % P_STRATA] + rng.random()) / P_STRATA

    def run(tr):
        halves = [tr.call("graph.parse_graph", graph_mod.parse_graph, t) for t in e.texts]
        g = halves[0]
        for h, pair in zip(halves[1:], e.pairs):
            g = tr.call("graph.merge_graphs", graph_mod.merge_graphs, g, h, [pair])
        state = tr.call("states.state_from_graph", states.state_from_graph, g, True, override_limits=True)
        tr.count("states.state_from_graph.calls")
        tr.count("states.state_from_graph.kets", len(state.terms))
        tr.count("states.state_from_graph.covers", e.covers)
        norm_sq = _check_state(e, state)

        text = tr.call("states.serialize_state", states.serialize_state, state)
        records = json.loads(text)
        check(len(records) == len(state.terms), "serialized state lost terms")
        for rec in records[:: max(1, len(records) // 16)]:
            amp = cmath.rect(rec["amp_mag"], rec["amp_phase_rad"])
            check(abs(amp - state.terms[tuple(rec["modes"])]) <= 1e-12, "serialized amplitude differs")
        target = tr.call("states.parse_state", states.parse_state, text)
        check(tr.call("states.verify_target", states.verify_target, g, target, override_limits=True) is True,
              "verify_target rejected the graph's own normalized state")

        scan = tr.call("states.frustration_scan", states.frustration_scan, g, e.scan_edge["id"], phases,
                       override_limits=True)
        values = [v for _, v in scan]
        check([ph for ph, _ in scan] == phases, "scan phases reordered")
        check(refs.sinusoid_residual(phases, values) <= 1e-8, "scan intensities are not a sinusoid in the phase")
        check(abs(values[0] - norm_sq) <= 1e-8 * norm_sq, f"intensity at the edge's own phase {values[0]} != {norm_sq}")

        for doc, half in zip(e.docs, halves):
            _plan_round_trip(tr, compiler, doc, half)

        if e.network:
            _check_network(tr, networks, e, g, state, p)

    return run


def _check_state(e: Entry, state) -> float:
    """Check a normalized state; return the unnormalized norm squared."""
    terms = state.terms
    check(abs(sum(abs(a) ** 2 for a in terms.values()) - 1) <= 1e-9, "state is not normalized")
    if e.pairs:
        raw = e.ref_state_raw
        norm = math.sqrt(sum(abs(a) ** 2 for a in raw.values()))
        ref = {k: a / norm for k, a in raw.items()}
        check(refs.same_state_up_to_phase(ref, terms), "merged-graph state differs from brute force")
        return norm * norm
    if e.closed_form is not None:
        check(e.closed_form(terms), "fixture state differs from its closed form")
    # c = 1/N maps hafnians to normalized amplitudes; fix it on the largest
    # sampled ket, then every sampled ket and the full sum must agree.
    ket = max(e.h_kets, key=lambda k: abs(e.h_kets[k]))
    check(ket in terms, f"ket {ket} with hafnian {e.h_kets[ket]:.6g} is missing")
    c = terms[ket] / e.h_kets[ket]
    tol = 1e-8 * abs(c) * e.h_abs + 1e-12
    check(abs(c.imag) <= 1e-9 * abs(c), "normalization is not a real factor")
    for k, h in e.h_kets.items():
        check(abs(terms.get(k, 0j) - c * h) <= tol, f"ket {k}: amplitude != hafnian / N")
    check(abs(sum(terms.values()) - c * e.h_full) <= tol * max(1, len(terms)) ** 0.5,
          "sum of amplitudes != haf(A) / N")
    return 1 / abs(c) ** 2


def _plan_round_trip(tr, compiler, doc, g):
    plan = tr.call("compiler.synthesize_setup", compiler.synthesize_setup, g)
    text = tr.call("compiler.serialize_plan", compiler.serialize_plan, plan)
    back = tr.call("compiler.parse_plan", compiler.parse_plan, text)
    g2 = tr.call("compiler.plan_to_graph", compiler.plan_to_graph, back)
    want = {(r["id"], r["u"], r["v"], r["mode_u"], r["mode_v"], r["amp_mag"], r["amp_phase_rad"]) for r in doc["edges"]}
    got = {(x.id, x.u, x.v, x.mode_u, x.mode_v, x.amp_mag, x.amp_phase_rad) for x in g2.edges}
    check(tuple(g2.vertices) == tuple(doc["vertices"]), "plan round trip changed the paths")
    check(got == want, "plan round trip changed the crystals")
    used: dict[int, set] = {}
    for x in g2.edges:
        paths = used.setdefault(x.layer, set())
        check(x.u not in paths and x.v not in paths, f"layer {x.layer} reuses a path")
        paths.update((x.u, x.v))


def _check_network(tr, networks, e: Entry, g, state, p):
    n = len(e.vertices)
    weight = p ** (n // 2)
    amp = tr.call("networks.network_amplitude", networks.network_amplitude, g, p, override_limits=True)
    tol = 1e-9 * weight * e.h_abs
    check(abs(amp - weight * e.h_full) <= tol, "network_amplitude != p^(n/2) haf(A)")
    ns = tr.call("networks.network_state", networks.network_state, g, p, override_limits=True)
    diff = abs(sum(ns.terms.values()) - amp)
    if diff > tol:
        missing = set(state.terms) - set(ns.terms)
        known = bool(missing) and diff <= len(missing) * refs.AMP_TOL + tol
        check(False, f"sum of network_state != network_amplitude at p={p:.6g} "
                     f"({len(missing)} kets dropped, |diff|={diff:.3g})",
              defect="network-state-abs-tol" if known else None)
