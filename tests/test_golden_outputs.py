"""Golden outputs of the combinatorial searches, the GHZ-dimension scan, the
G(n, p) ensemble and the command-line front end, its help texts included.

The disjoint-matching search, the factorization enumerator and the
target-state search each return the first answer they meet, so their
outputs depend on search order.  This test pins a hash of every answer on
a fixed seeded input set: a change that only prunes work which cannot alter
an answer leaves the hash unchanged, including which matching or graph
comes first.  A perfect matching from the matchability checks, and the
Tutte witness, are checked against the oracles instead and pinned by their
kind only: any maximum-matching routine may pick another matching, and the
witness is the Gallai-Edmonds barrier, which the oracles compute."""

from __future__ import annotations

import cmath
import hashlib
import math
import os
import random
import sys

import pytest

import photongraph as pg
from photongraph import Edge, ExperimentGraph, QuantumState, vertex_names
from photongraph.cli import build_parser, main
from photongraph.feasibility import HallWitness, TutteWitness

from fixt import double_edge, hall_fixture, k4_ghz, k6_factored, layered6, spider, w_state_target
from oracles import brute_force_barrier

GOLDEN_SHA256 = "875ae37c45f4ba1d4cc20153a6209721fcf2e5d3884b0a7f11183a88616d69a4"


def _outcome(fn, *args, **kwargs):
    try:
        result = fn(*args, **kwargs)
    except pg.PhotonGraphError as exc:
        return (type(exc).__name__, str(exc))
    if isinstance(result, ExperimentGraph):
        return pg.serialize_graph(result)
    return result


def _matchability(check, g, *args):
    """The outcome of ``check`` on g: a refusal or a Hall witness whole, and
    a matching, which must be a cover, or a Tutte witness, which must be the
    brute-force Gallai-Edmonds barrier with its odd components, by kind."""
    try:
        result = check(g, *args)
    except pg.PhotonGraphError as exc:
        return (type(exc).__name__, str(exc))
    if isinstance(result, HallWitness):
        return result
    if isinstance(result, TutteWitness):
        assert (result.subset_u, result.odd_components) == brute_force_barrier(g)
        return "barrier"
    assert pg.is_coincidence_cover(g, result)
    return "matching"


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
        digest.update(repr(_matchability(pg.tutte_check, g)).encode())
        for fn in (pg.max_disjoint_pms, pg.enumerate_factorizations):
            digest.update(repr(_outcome(fn, g)).encode())
    for target, max_edges in _targets():
        digest.update(repr(_outcome(pg.search_graph_for_state, target, max_edges=max_edges)).encode())
    assert digest.hexdigest() == GOLDEN_SHA256


GHZ10_SEARCH_GOLDEN_SHA256 = "73d59f67a57c202053081b4667c5a35a0b1755a497d6480e3b7a91889629854d"


def test_ghz10_search_golden():
    """The first hit of the 10-photon two-dimensional GHZ search within ten
    edges, as its graph document."""
    target = QuantumState({(m,) * 10: 1 / math.sqrt(2) for m in range(2)})
    found = pg.search_graph_for_state(target, max_edges=10)
    assert hashlib.sha256(pg.serialize_graph(found).encode()).hexdigest() == GHZ10_SEARCH_GOLDEN_SHA256


ENSEMBLE_GOLDEN_SHA256 = "23e3015a4bea17bea0ee86829c0a9f2f086e78dc7a9de51dab5fd1875d89dd81"


def test_ensemble_outputs_golden(monkeypatch):
    """Histograms of ``ensemble_scan`` with one and two workers, and the
    documents of seeded ``random_graph`` samples, byte for byte."""
    from photongraph import networks

    digest = hashlib.sha256()
    for workers in (1, 2):
        if workers == 2:  # two cores and batches of 8 trials, so the 40-trial scans fork a child
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
            monkeypatch.setattr(networks, "_batch_size", lambda *args: 8)
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


COVER_WALK_GOLDEN_SHA256 = "2b557d5bb5a3762061797f06a4f6614a9dd1f5424465dbf78e526850c1221efb"


def _layered_complete(n: int) -> ExperimentGraph:
    """K_n tagged with its round-robin 1-factorization: vertex n - 1 stays,
    the others rotate, and round r pumps modes (r, r)."""
    names = vertex_names(n)
    edges = []
    for r in range(n - 1):
        pairs = [(r, n - 1)] + [((r + k) % (n - 1), (r - k) % (n - 1)) for k in range(1, n // 2)]
        for i, j in pairs:
            i, j = min(i, j), max(i, j)
            edges.append(Edge(f"r{r}.{i}.{j}", names[i], names[j], r, r, layer=r))
    return ExperimentGraph(names, edges)


def test_cover_walk_golden():
    """Every cover, in order, that ``enumerate_pm`` lists for the search-golden
    graphs (measured multigraphs with parallel edges among them) and for K10
    and K12 past the guard, and the layer split of layered K6 and K8."""
    digest = hashlib.sha256()
    for g in _graphs():
        digest.update(repr(_outcome(pg.enumerate_pm, g)).encode())
    for n in (10, 12):
        digest.update(repr(pg.enumerate_pm(pg.complete_graph(n), override_limits=True)).encode())
    for n in (6, 8):
        digest.update(repr(pg.classify_layers(_layered_complete(n))).encode())
    assert digest.hexdigest() == COVER_WALK_GOLDEN_SHA256


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


STATE_DOCUMENTS_GOLDEN_SHA256 = "112853a21e2e7fb5f92413e8130c250449d4e2c10fc8a147cf5b99964dbdcb90"


def _weighted_complete(n: int, modes: int, rng: random.Random) -> ExperimentGraph:
    """K_n with seeded endpoint modes in [0, modes), magnitudes and phases."""
    names = vertex_names(n)
    edges = [
        Edge(f"e{i}.{j}", names[i], names[j], rng.randrange(modes), rng.randrange(modes),
             rng.uniform(0.1, 2.0), rng.uniform(-math.pi, math.pi))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return ExperimentGraph(names, edges)


# A state document with integer and default amplitude fields.
_INTEGER_STATE_DOCUMENT = '[{"modes": [1, 0], "amp_mag": 2, "amp_phase_rad": 3}, {"modes": [0, 1]}]'

# Malformed state documents, each refused with one located message.
_BAD_STATE_DOCUMENTS = [
    "[3]",
    '[{"modes": [0]}, [0]]',
    '[{"amp_mag": 1.0}]',
    '[{"modes": 0}]',
    '[{"modes": {"0": 0}}]',
    '[{"modes": [0, -1]}]',
    '[{"modes": [true]}]',
    '[{"modes": [1.0]}]',
    '[{"modes": [0, 0]}, {"modes": [0]}]',
    '[{"modes": [0]}, {"modes": [1, 2]}]',
    '[{"modes": [0, 1]}, {"modes": [1, 0]}, {"modes": [0, 1]}]',
    '[{"modes": []}, {"modes": []}]',
    '[{"modes": [0], "amp_mag": "1"}]',
    '[{"modes": [0], "amp_mag": -1.0}]',
    '[{"modes": [0], "amp_mag": 1e400}]',
    '[{"modes": [0], "amp_mag": 1' + "0" * 400 + "}]",
    '[{"modes": [0], "amp_mag": NaN}]',
    '[{"modes": [0], "amp_mag": null}]',
    '[{"modes": [0], "amp_phase_rad": Infinity}]',
    '[{"modes": [0], "amp_phase_rad": true}]',
    '[{"modes": [0], "amp_mag": -1.0, "amp_phase_rad": "x"}]',
    '{"modes": [0]}',
    "[",
]


def test_state_documents_golden():
    """``serialize_state`` of normalized and unnormalized states of seeded
    multi-mode complete graphs and of those documents read back, byte for
    byte, and the located message ``parse_state`` gives for each malformed
    document."""
    digest = hashlib.sha256()
    rng = random.Random(7)
    for n, modes in ((8, 1), (8, 2), (8, 3), (10, 2), (12, 3)):
        g = _weighted_complete(n, modes, rng)
        for normalize in (False, True):
            text = pg.serialize_state(pg.state_from_graph(g, normalize, override_limits=True))
            digest.update(text.encode())
            digest.update(pg.serialize_state(pg.parse_state(text)).encode())
    digest.update(pg.serialize_state(pg.parse_state(_INTEGER_STATE_DOCUMENT)).encode())
    for text in _BAD_STATE_DOCUMENTS:
        try:
            pg.parse_state(text)
        except pg.GraphParseError as exc:
            digest.update(repr((text, exc.location, str(exc))).encode())
        else:
            raise AssertionError(f"parse_state accepted {text!r}")
    assert digest.hexdigest() == STATE_DOCUMENTS_GOLDEN_SHA256


DESIGN_OUTPUTS_GOLDEN_SHA256 = "1b839d3653490e9e7f054e5a7fb820f23f0b7384381e2d6264fa50f4daf10dde"

_DESIGN_PHASES = [0.0, -0.0, 0.5, math.pi / 4, math.pi / 2, math.pi, 2.5, -3.0]


def _balanced_complete(n: int, modes: int, rng: random.Random) -> ExperimentGraph:
    """K_n whose vertices each carry every mode in [0, modes) about equally
    often on their edge ends, in seeded order, with seeded magnitudes and
    phases."""
    names = vertex_names(n)
    ends = [rng.sample([k % modes for k in range(n - 1)], n - 1) for _ in range(n)]
    edges = [
        Edge(f"e{i}.{j}", names[i], names[j], ends[i].pop(), ends[j].pop(),
             rng.uniform(0.1, 2.0), rng.uniform(-math.pi, math.pi))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return ExperimentGraph(names, edges)


def _design_graphs():
    """Seeded K4-K10 with 1-3 balanced modes, merged graphs with measured
    vertices, a layer-tagged K6, and graphs whose names and ids need JSON
    escapes, with amplitudes -0.0, 5e-324 and 1e300."""
    rng = random.Random(32)
    for n in range(4, 11):
        for modes in (1, 2, 3):
            yield _balanced_complete(n, modes, rng)
    for pairs in ([("d", "e")], [("c", "e"), ("d", "f")], [("b", "g")]):
        left = _weighted_complete(4, 2, rng)
        names = ("e", "f", "g", "h")
        right = ExperimentGraph(names, [Edge(f"r{e.id}", names["abcd".index(e.u)], names["abcd".index(e.v)],
                                             e.mode_u, e.mode_v, e.amp_mag, e.amp_phase_rad)
                                        for e in _weighted_complete(4, 2, rng).edges])
        yield pg.merge_graphs(left, right, pairs)
    yield _layered_complete(6)
    odd = ["α", 'q"1', "b\\2", "c\n\t\x01", "\u2028é", "😀"]
    for mags in ((-0.0, 5e-324, 1.0), (1e300, 1.0, 0.5), (1.0, 0.5, 2.0)):
        edges = [
            Edge(f"{odd[j]}\x7f{i}.{j}", odd[i], odd[j], (i + j) % 2, i % 2, mags[(i + j) % 3],
                 (-0.0, 0.25, -1.5)[(i * j) % 3])
            for i in range(6)
            for j in range(i + 1, 6)
        ]
        yield ExperimentGraph(odd, edges)


def test_design_outputs_golden():
    """What a design request writes for the seeded corpus: the 8-phase
    frustration scan of three edges, the normalized state document, the
    graph document and the setup plan document (or each refusal)."""
    digest = hashlib.sha256()
    for g in _design_graphs():
        ids = sorted(e.id for e in g.edges)
        for edge_id in (ids[0], ids[len(ids) // 2], ids[-1]):
            digest.update(repr(_outcome(pg.frustration_scan, g, edge_id, _DESIGN_PHASES,
                                        override_limits=True)).encode())
        digest.update(repr(_outcome(lambda: pg.serialize_state(pg.state_from_graph(g, True)))).encode())
        digest.update(pg.serialize_graph(g).encode())
        digest.update(repr(_outcome(lambda: pg.serialize_plan(pg.synthesize_setup(g)))).encode())
    assert digest.hexdigest() == DESIGN_OUTPUTS_GOLDEN_SHA256


CLI_GOLDEN_SHA256 = "b5fbd4bd534ca517a9b698d741e080f8e3df65958896b66f0cc513dd736752df"


def _cli_inputs() -> dict[str, str]:
    ghz3 = QuantumState({(m,) * 4: 1 / math.sqrt(3) for m in range(3)})
    bip = ExperimentGraph(
        ["x1", "x2", "y1", "y2"], [Edge("a", "x1", "y1"), Edge("b", "x2", "y2"), Edge("c", "x1", "y2")]
    )
    graphs = {
        "k4.graph": k4_ghz(),
        "k4b.graph": k4_ghz(("e", "f", "g", "h")),
        "k6.graph": pg.complete_graph(6),
        "k12.graph": pg.complete_graph(12),
        "tri.graph": pg.complete_graph(3),
        "path3.graph": ExperimentGraph(["a", "b", "c"], [Edge("ab", "a", "b"), Edge("bc", "b", "c")]),
        "fig6.graph": layered6(),
        "merged.graph": pg.merge_graphs(k4_ghz(), k4_ghz(("e", "f", "g", "h")), [("d", "e")]),
        "hall.graph": hall_fixture(),
        "bip.graph": bip,
        "spider.graph": spider(),
        "double.graph": double_edge(),
        "dark.graph": double_edge(math.pi),
    }
    docs = {name: pg.serialize_graph(g) for name, g in graphs.items()}
    docs["k4.state"] = pg.serialize_state(pg.state_from_graph(k4_ghz(), normalize=True))
    docs["w.state"] = pg.serialize_state(w_state_target())
    docs["ghz3.state"] = pg.serialize_state(ghz3)
    docs["k6f.plan"] = pg.serialize_plan(pg.synthesize_setup(k6_factored()))
    docs["m.json"] = "[[0, 2], [2, 0]]"
    docs["c.json"] = "[[[0.0, 1.0]]]"
    docs["bad.graph"] = '{"vertices": ["a", "a"]}'
    return docs


_CLI_CALLS = [
    ["matchings", "k4.graph"],
    ["count", "k6.graph"],
    ["count", "bip.graph"],
    ["count", "merged.graph"],
    ["count", "tri.graph"],
    ["state", "fig6.graph", "--normalize"],
    ["state", "merged.graph"],
    ["state", "dark.graph"],
    ["verify", "k4.graph", "k4.state"],
    ["verify", "fig6.graph", "k4.state"],
    ["search", "w.state"],
    ["search", "ghz3.state", "--max-edges", "4"],
    ["frustrate", "double.graph", "II", "--phases", "0,1.5,3.14159"],
    ["frustrate", "k4.graph", "I", "--phases=-1,2"],
    ["ghz-max", "k4.graph"],
    ["factorize", "k4.graph"],
    ["layers", "fig6.graph"],
    ["check", "hall", "hall.graph"],
    ["check", "hall", "bip.graph", "--parts-by-order"],
    ["check", "hall", "k4.graph"],
    ["check", "tutte", "spider.graph"],
    ["check", "tutte", "k6.graph"],
    ["hafnian", "k6.graph"],
    ["hafnian", "m.json"],
    ["permanent", "bip.graph"],
    ["permanent", "c.json"],
    ["merge", "k4.graph", "k4b.graph", "--pairs", "d:e"],
    ["merge", "k4.graph", "k4b.graph", "--pairs", "d:e,", "-o", "out.graph"],
    ["synth", "k6.graph"],
    ["synth", "k4.graph", "-o", "out.plan", "--dot", "out.dot"],
    ["unsynth", "k6f.plan"],
    ["unsynth", "k6f.plan", "-o", "out.graph"],
    ["random", "--n", "6", "--p", "0.3", "--p", "0.7", "--trials", "30", "--seed", "2"],
    ["random", "--n", "4", "--p", "0.5", "--trials", "20", "--seed", "1", "--csv", "out.csv"],
    ["dot", "k4.graph"],
    # refusals: a parse error, domain errors, an io error and the scale guard
    ["matchings", "bad.graph"],
    ["state", "dark.graph", "--normalize"],
    ["search", "w.state", "--max-edges", "-1"],
    ["permanent", "path3.graph"],
    ["merge", "k4.graph", "k4b.graph", "--pairs", "d-e"],
    ["dot", "missing.graph"],
    ["count", "k12.graph"],
]


def test_cli_outputs_golden(tmp_path, monkeypatch, capsys):
    """Exit code, stdout, stderr and written files of ``cli.main`` for every
    subcommand in both formats, including refusals, byte for byte."""
    monkeypatch.chdir(tmp_path)
    for name, text in _cli_inputs().items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    inputs = set(tmp_path.iterdir())
    digest = hashlib.sha256()
    for argv in _CLI_CALLS:
        for fmt in ("text", "structured"):
            code = main(argv + ["--format", fmt])
            captured = capsys.readouterr()
            written = sorted(set(tmp_path.iterdir()) - inputs)
            files = [(p.name, p.read_bytes()) for p in written]
            for p in written:
                p.unlink()
            digest.update(repr((argv, fmt, code, captured.out, captured.err, files)).encode())
    assert digest.hexdigest() == CLI_GOLDEN_SHA256


MATCHABILITY_GOLDEN_SHA256 = "4514dbd341c8145fa39a5614219eeafcd3fc5f395078f75220fb625845513e2b"


def _bipartite_multigraphs():
    """Seeded bipartite multigraphs with 0-7 vertices a side, equal parts in
    two draws of three and unequal parts in the third, shuffled declaration
    order, edges given from either end, parallel edges and, now and then, a
    measured vertex.  Each comes with its two parts."""
    rng = random.Random(19)
    for t in range(600):
        a = rng.randrange(0, 8)
        b = rng.randrange(0, 8) if t % 3 == 2 else a
        xs, ys = tuple(f"x{i}" for i in range(a)), tuple(f"y{j}" for j in range(b))
        names = list(xs + ys)
        rng.shuffle(names)
        p = rng.uniform(0.05, 0.6)
        edges = []
        for x in xs:
            for y in ys:
                for _ in range(rng.choice([1, 1, 1, 2, 3]) if rng.random() < p else 0):
                    ends = (x, y) if rng.random() < 0.5 else (y, x)
                    edges.append(Edge(f"m{rng.randrange(10 ** 6)}.{len(edges)}", *ends))
        rng.shuffle(edges)
        measured = rng.sample(names, 1) if names and rng.random() < 0.05 else []
        yield ExperimentGraph(names, edges, measured), (xs, ys)


def _barrier_graphs():
    """K_{a,a+2} for a <= 5 with the small side declared first, last or
    interleaved, and seeded graphs with isolated vertices."""
    for a in range(6):
        xs, ys = [f"x{i}" for i in range(a)], [f"y{j}" for j in range(a + 2)]
        edges = [Edge(f"{x}{y}", x, y) for x in xs for y in ys]
        for names in (xs + ys, ys + xs, [v for pair in zip(ys, xs + [""] * 2) for v in pair if v]):
            yield ExperimentGraph(names, edges)
    rng = random.Random(20)
    for _ in range(120):
        n = rng.randrange(1, 13)
        names = vertex_names(n)
        isolated = set(rng.sample(range(n), rng.randrange(1, min(n, 3) + 1)))
        live = [i for i in range(n) if i not in isolated]
        p = rng.uniform(0.2, 0.9)
        edges = [Edge(f"e{i}.{j}", names[i], names[j]) for k, i in enumerate(live) for j in live[k + 1:]
                 if rng.random() < p]
        yield ExperimentGraph(names, edges)


def test_matchability_outputs_golden():
    """The outcome of ``hall_check`` with detected and pinned parts, every
    refusal among them, the bipartition (or its odd cycle) of the
    search-golden graphs, and ``tutte_check`` on large-barrier and
    isolated-vertex graphs."""
    digest = hashlib.sha256()
    for g, parts in _bipartite_multigraphs():
        digest.update(repr((_matchability(pg.hall_check, g), _matchability(pg.hall_check, g, parts))).encode())
    for g in _graphs():
        digest.update(repr(_outcome(g.bipartition)).encode())
    for g in _barrier_graphs():
        digest.update(repr(_matchability(pg.tutte_check, g)).encode())
    assert digest.hexdigest() == MATCHABILITY_GOLDEN_SHA256


# argparse words and wraps help differently from one Python version to the next
CLI_HELP_GOLDEN_SHA256 = {
    (3, 10): "965c047887cc2da5ff0dfd13625c8a48bd5924c75795d7f24bef652bf559d9d2",
    (3, 11): "965c047887cc2da5ff0dfd13625c8a48bd5924c75795d7f24bef652bf559d9d2",
    (3, 12): "965c047887cc2da5ff0dfd13625c8a48bd5924c75795d7f24bef652bf559d9d2",
    (3, 13): "d8bf5645feb6f643cbda872d91a00c95609c5e202e4ecbff6c06b69c4bf51955",
}

CLI_COMMANDS = (
    "matchings", "count", "state", "verify", "search", "frustrate", "ghz-max", "factorize", "layers",
    "check", "hafnian", "permanent", "merge", "synth", "unsynth", "random", "dot",
)


def test_cli_help_golden(monkeypatch):
    """The full parser's help, each of its subparsers' help and the usage of
    each one-subcommand build, at a fixed terminal width.  A slip in the
    subcommand declarations that changes both builds alike fails here."""
    if sys.version_info[:2] not in CLI_HELP_GOLDEN_SHA256:
        pytest.skip("no help digest recorded for this Python version")
    monkeypatch.setenv("COLUMNS", "100")
    parser = build_parser()
    (action,) = (a for a in parser._actions if a.dest == "command")
    assert tuple(action.choices) == CLI_COMMANDS
    digest = hashlib.sha256(parser.format_help().encode())
    for name, sub in action.choices.items():
        digest.update(sub.format_help().encode())
        digest.update(build_parser(name).format_usage().encode())
    assert digest.hexdigest() == CLI_HELP_GOLDEN_SHA256[sys.version_info[:2]]
