"""Golden outputs of the combinatorial searches, the GHZ-dimension scan and
the G(n, p) ensemble.

The Tutte matching search, the disjoint-matching search, the factorization
enumerator and the target-state search each return the first answer they
meet, so their outputs depend on search order.  This test pins a hash of
every answer on a fixed seeded input set: a change that only prunes work
which cannot alter an answer leaves the hash unchanged, including which
matching, witness or graph comes first."""

from __future__ import annotations

import cmath
import hashlib
import math
import random

import photongraph as pg
from photongraph import Edge, ExperimentGraph, QuantumState, vertex_names

GOLDEN_SHA256 = "ec7d4f35c7a1812a80a89735628207a35059985f30a9445892721800ee9d7134"


def _outcome(fn, *args, **kwargs):
    try:
        result = fn(*args, **kwargs)
    except pg.PhotonGraphError as exc:
        return (type(exc).__name__, str(exc))
    if isinstance(result, ExperimentGraph):
        return pg.serialize_graph(result)
    return result


def _graphs():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randrange(0, 13)
        yield pg.random_graph(n, rng.uniform(0.1, 0.5), rng.getrandbits(32))
    # K_k plus two disjoint triangles: no perfect matching, empty witness.
    for k in (6, 8, 10):
        names = vertex_names(k + 6)
        edges = [Edge(f"k{i}.{j}", names[i], names[j]) for i in range(k) for j in range(i + 1, k)]
        for t in (k, k + 3):
            edges += [Edge(f"t{a}.{b}", names[a], names[b]) for a, b in ((t, t + 1), (t, t + 2), (t + 1, t + 2))]
        yield ExperimentGraph(names, edges)
    # Multigraphs with two modes, parallel edges and 0-2 measured vertices.
    for _ in range(150):
        n = rng.randrange(4, 7)
        names = vertex_names(n)
        edges = []
        for k in range(rng.randrange(2, 3 * n)):
            i, j = sorted(rng.sample(range(n), 2))
            edges.append(Edge(f"m{k}", names[i], names[j], rng.randrange(2), rng.randrange(2)))
        yield ExperimentGraph(names, edges, rng.sample(names, rng.choice([0, 0, 1, 2])))
    for n in (4, 6, 8):
        yield pg.complete_graph(n)


def _targets():
    for n, d in ((4, 2), (4, 3), (6, 2), (6, 3), (8, 2), (4, 4)):
        yield QuantumState({(m,) * n: 1 / math.sqrt(d) for m in range(d)}), 8
    rng = random.Random(5)
    for t in range(60):
        n = rng.choice([2, 4])
        kets = {tuple(rng.randrange(3) for _ in range(n)) for _ in range(rng.randrange(1, 4))}
        terms = {
            k: cmath.rect(rng.choice([1.0, 1.0, 2.0]), rng.choice([0.0, 0.0, 0.0, math.pi]))
            for k in sorted(kets)
        }
        yield QuantumState(terms), (4, 6, 8)[t % 3]


def test_search_outputs_golden():
    digest = hashlib.sha256()
    for g in _graphs():
        for fn in (pg.tutte_check, pg.max_disjoint_pms, pg.enumerate_factorizations):
            digest.update(repr(_outcome(fn, g)).encode())
    for target, max_edges in _targets():
        digest.update(repr(_outcome(pg.search_graph_for_state, target, max_edges=max_edges)).encode())
    assert digest.hexdigest() == GOLDEN_SHA256


ENSEMBLE_GOLDEN_SHA256 = "23e3015a4bea17bea0ee86829c0a9f2f086e78dc7a9de51dab5fd1875d89dd81"


def test_ensemble_outputs_golden():
    """Histograms of ``ensemble_scan`` with one and two workers, and the
    documents of seeded ``random_graph`` samples, byte for byte."""
    digest = hashlib.sha256()
    for workers in (1, 2):
        for n in range(2, 13, 2):
            reports = pg.ensemble_scan(n, [0.0, 0.3, 0.5, 0.7, 1.0], 40, 1000 + n, workers=workers)
            digest.update(repr([(r.p, r.pm_exists_fraction, r.pm_count_histogram) for r in reports]).encode())
    rng = random.Random(6)
    for _ in range(100):
        n, p, seed = rng.randrange(0, 13), rng.choice([0.0, 1.0, rng.random()]), rng.getrandbits(64)
        digest.update(pg.serialize_graph(pg.random_graph(n, p, seed)).encode())
    assert digest.hexdigest() == ENSEMBLE_GOLDEN_SHA256


GHZ_SCAN_GOLDEN_SHA256 = "20053624cc1410594283ac367ea6d60998e96a821e9160a9b50e8864f3e9446a"


def test_ghz_scan_outputs_golden():
    """The dimension and the witness document of ``scan_ghz_dimension`` for
    n = 2, 4, 6: the witness is the lowest-mask subgraph among the maxima."""
    digest = hashlib.sha256()
    for n in (2, 4, 6):
        d, witness = pg.scan_ghz_dimension(n)
        digest.update(repr((n, d, pg.serialize_graph(witness))).encode())
    assert digest.hexdigest() == GHZ_SCAN_GOLDEN_SHA256


UNIT_TARGET_GOLDEN_SHA256 = "3ca1443ca5997e4295f3ac029b32a432ce58e47398c79e66e4bae3803932b739"


def _unit(state: QuantumState) -> QuantumState:
    norm = math.sqrt(sum(abs(a) ** 2 for a in state.terms.values()))
    return QuantumState({k: a / norm for k, a in state.terms.items()})


def test_unit_target_outputs_golden():
    """``verify_target`` and ``search_graph_for_state`` on targets of unit
    norm: each graph against its own state and its predecessor's, read back
    from a state document, and against the all-zero target; and the search
    over the search-golden targets scaled to unit norm."""
    digest = hashlib.sha256()
    previous = QuantumState({})
    for g in _graphs():
        try:
            own = pg.parse_state(pg.serialize_state(pg.state_from_graph(g, normalize=True)))
        except pg.FullyFrustratedError:
            own = QuantumState({})
        for target in (own, previous, QuantumState({})):
            digest.update(repr(_outcome(pg.verify_target, g, target)).encode())
        previous = own
    for target, max_edges in _targets():
        digest.update(repr(_outcome(pg.search_graph_for_state, _unit(target), max_edges=max_edges)).encode())
    assert digest.hexdigest() == UNIT_TARGET_GOLDEN_SHA256
