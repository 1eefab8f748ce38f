"""``cli`` workload: a fixed script covering all 16 subcommands, each run as
its own ``python -m photongraph.cli`` process, in both ``--format`` values,
plus malformed documents and one guard refusal.

Why: interpreter start and package import are a large share of a short CLI
call, and argument parsing, document parsing and output formatting take most
of the rest.  Lazy imports and thinner handlers show here and nowhere else.

Structured output is compared with the library's answer for the same input,
computed at set-up, and with closed forms where one exists.  Error cases
must exit with the expected code and print exactly one stderr line and no
traceback.  Usage errors (exit 2) are left out: argparse prints a usage
block, so they cannot meet the one-line rule as the CLI stands.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import statistics
import subprocess
import sys
import time

import refs
from design import k4_ghz_doc, k6_factored_doc, layered6_doc
from harness import OUT, REFERENCE_START_S, Job, Workload, check, interpreter_start, program_env

GAUGE = (interpreter_start, REFERENCE_START_S)  # see harness.Gauge
TIMEOUT_S = 60
IMPORT_PROBES = 8


def _double_doc(rng):
    return {"vertices": ["a", "b"], "edges": [
        {"id": "I", "u": "a", "v": "b", "mode_u": 0, "mode_v": 0},
        {"id": "II", "u": "a", "v": "b", "mode_u": 0, "mode_v": 0, "amp_mag": rng.uniform(0.5, 1.5)}]}


def _complete_doc(n, prefix="v"):
    names = [f"{prefix}{i}" for i in range(n)]
    return {"vertices": names, "edges": [
        {"id": f"e{i}_{j}", "u": names[i], "v": names[j]} for i in range(n) for j in range(i + 1, n)]}


def _bipartite_doc(rng):
    xs, ys = [f"x{i}" for i in range(4)], [f"y{i}" for i in range(4)]
    pairs = {(x, y) for x, y in zip(xs, ys)} | {(x, y) for x in xs for y in ys if rng.random() < 0.4}
    return {"vertices": xs + ys, "edges": [{"id": f"b{k}", "u": x, "v": y} for k, (x, y) in enumerate(sorted(pairs))]}


def _tutte_doc():
    doc = _complete_doc(4, "k")
    doc["vertices"] += ["s0", "s1", "s2", "t0", "t1", "t2"]
    for tri in ("s", "t"):
        for a, b in ((0, 1), (0, 2), (1, 2)):
            doc["edges"].append({"id": f"{tri}{a}{b}", "u": f"{tri}{a}", "v": f"{tri}{b}"})
    return doc


def _symmetric(n, rng):
    upper = {(i, j): rng.randint(0, 5) for i in range(n) for j in range(i + 1, n)}
    return [[upper[(min(i, j), max(i, j))] if i != j else 0 for j in range(n)] for i in range(n)]


def build(pg, seed: int, smoke: bool, corrupt: bool):
    rng = random.Random(f"cli:{seed}")
    work = OUT / f"cli-work-{seed}-{time.monotonic_ns()}"
    work.mkdir(parents=True)

    files = {
        "k4.graph": k4_ghz_doc(),
        "k4b.graph": k4_ghz_doc("q"),
        "layered6.graph": layered6_doc(),
        "k6.graph": _complete_doc(6),
        "k6f.graph": k6_factored_doc(),
        "k12.graph": _complete_doc(12),
        "double.graph": _double_doc(rng),
        "bip.graph": _bipartite_doc(rng),
        "tutte.graph": _tutte_doc(),
        "matrix.json": _symmetric(4, rng),
        "ghz62.state": [{"modes": [m] * 6, "amp_mag": 1 / math.sqrt(2), "amp_phase_rad": 0.0} for m in range(2)],
        # malformed documents
        "bad-endpoint.graph": {"vertices": ["a", "b"], "edges": [{"id": "x", "u": "a", "v": "z"}]},
        "bad.state": [{"modes": [0, 0, 0, 0], "amp_mag": -1.0}],
        "bad-matrix.json": [[0, "x"], ["x", 0]],
        "bad-layers.plan": {"detectors": ["a", "b"], "layers": 5, "wiring": {}},
    }
    for name, doc in files.items():
        (work / name).write_text(json.dumps(doc), encoding="utf-8")
    (work / "bad.graph").write_text('{"vertices": ["a", "b"], "edges": [', encoding="utf-8")

    def load(name):
        return pg.parse_graph((work / name).read_text(encoding="utf-8"))

    # Library answers, in the shape the CLI's structured output documents.
    g4, g6, g6f = load("k4.graph"), load("k6.graph"), load("k6f.graph")
    plan = pg.synthesize_setup(g6f)
    (work / "k6f.plan").write_text(pg.serialize_plan(plan), encoding="utf-8")
    rand_seed = rng.randrange(1 << 20)
    phases = [0.0, 1.5708, 3.14159]
    double = load("double.graph")
    amp2 = files["double.graph"]["edges"][1]["amp_mag"]
    hall = pg.hall_check(load("bip.graph"))
    tutte = pg.tutte_check(load("tutte.graph"))
    bi = load("bip.graph").biadjacency()
    state4 = pg.state_from_graph(g4, normalize=True)
    (work / "k4.state").write_text(pg.serialize_state(state4), encoding="utf-8")
    search = pg.search_graph_for_state(pg.parse_state((work / "ghz62.state").read_text()))
    d, wit = pg.max_disjoint_pms(g4)
    layer_rep = pg.classify_layers(load("layered6.graph"))
    ens = pg.ensemble_scan(6, [0.5], 100, rand_seed)
    expect = {
        "matchings": [list(pm) for pm in pg.enumerate_pm(g4)],
        "count6": {"enumeration": refs.complete_pm_count(6), "hafnian": refs.complete_pm_count(6), "permanent": None},
        "count12": {"enumeration": refs.complete_pm_count(12), "hafnian": refs.complete_pm_count(12), "permanent": None},
        "state": json.loads(pg.serialize_state(state4)),
        "verify": {"match": True},
        "search": json.loads(pg.serialize_graph(search)),
        "frustrate": [[p, i] for p, i in pg.frustration_scan(double, "II", phases)],
        "ghz-max": {"d": d, "witness": [list(pm) for pm in wit]},
        "factorize": [[list(f) for f in fz.factors] for fz in pg.enumerate_factorizations(g6)],
        "layers": {"layers": [list(pm) for pm in layer_rep.layer_matchings],
                   "mavericks": [list(pm) for pm in layer_rep.maverick_matchings]},
        "hall": {"exists": True, "matching": list(hall)},
        "tutte": {"exists": False, "witness": {"subset_u": list(tutte.subset_u),
                                               "odd_components": [list(c) for c in tutte.odd_components]}},
        "hafnian": pg.hafnian(files["matrix.json"]),
        "permanent": pg.permanent([list(r) for r in bi.entries]),
        "merge": json.loads(pg.serialize_graph(pg.merge_graphs(g4, load("k4b.graph"), [("d", "qa")]))),
        "synth": json.loads(pg.serialize_plan(plan)),
        "unsynth": json.loads(pg.serialize_graph(pg.plan_to_graph(plan))),
        "random": [{"n": r.n, "p": r.p, "trials": r.trials, "seed": r.seed,
                    "pm_exists_fraction": r.pm_exists_fraction,
                    "pm_count_histogram": {str(k): v for k, v in r.pm_count_histogram.items()}} for r in ens],
        "dot": {"dot": pg.to_dot(g4)},
    }
    # Closed forms the library answers must meet as well.
    check(len(expect["matchings"]) == 3 and expect["ghz-max"]["d"] == 3, "K4 fixture closed form")
    check(all(abs(t["amp_mag"] - 1 / math.sqrt(3)) <= 1e-12 for t in expect["state"]), "K4 state closed form")
    check(all(abs(i - abs(1 + amp2 * complex(math.cos(p), math.sin(p))) ** 2) <= 1e-9
              for p, i in expect["frustrate"]), "double-edge intensity closed form")
    check(len(expect["factorize"]) == 6, "K6 has 6 one-factorizations")
    if corrupt:
        expect["count6"]["enumeration"] += 1

    texts = {
        "matchings": lambda out: out.splitlines()[0] == "3 matchings:",
        "count6": lambda out: "enumeration: 15" in out and "hafnian: 15" in out,
        "count12": lambda out: "enumeration: 10395" in out,
        "state": lambda out: len(out.splitlines()) == 3,
        "verify": lambda out: out.strip() == "MATCH",
        "ghz-max": lambda out: out.startswith("d = 3"),
        "factorize": lambda out: out.startswith("6 factorizations:"),
    }

    script: list[tuple[str, list[str], int]] = []
    cases = [
        ("matchings", ["matchings", "k4.graph"]),
        ("count6", ["count", "k6.graph"]),
        ("state", ["state", "k4.graph", "--normalize"]),
        ("verify", ["verify", "k4.graph", "k4.state"]),
        ("search", ["search", "ghz62.state", "--max-edges", "8"]),
        ("frustrate", ["frustrate", "double.graph", "II", "--phases", ",".join(map(str, phases))]),
        ("ghz-max", ["ghz-max", "k4.graph"]),
        ("factorize", ["factorize", "k6.graph"]),
        ("layers", ["layers", "layered6.graph"]),
        ("hall", ["check", "hall", "bip.graph"]),
        ("tutte", ["check", "tutte", "tutte.graph"]),
        ("hafnian", ["hafnian", "matrix.json"]),
        ("permanent", ["permanent", "bip.graph"]),
        ("merge", ["merge", "k4.graph", "k4b.graph", "--pairs", "d:qa"]),
        ("synth", ["synth", "k6f.graph", "-o", "out.plan"]),
        ("unsynth", ["unsynth", "k6f.plan"]),
        ("random", ["random", "--n", "6", "--p", "0.5", "--trials", "100", "--seed", str(rand_seed)]),
        ("dot", ["dot", "k4.graph"]),
        ("count12", ["count", "k12.graph", "--limit-override"]),
    ]
    if smoke:
        cases = cases[:2]
    for fmt in ("structured", "text"):
        for key, argv in cases:
            script.append((f"{key}-{fmt}", argv + ["--format", fmt], 0))
    errors = [
        ("bad-json", ["matchings", "bad.graph"], 1),
        ("bad-endpoint", ["state", "bad-endpoint.graph"], 1),
        ("bad-state", ["verify", "k4.graph", "bad.state"], 1),
        ("bad-matrix", ["hafnian", "bad-matrix.json"], 1),
        ("bad-layers", ["unsynth", "bad-layers.plan"], 1),
        ("guard-k12", ["count", "k12.graph"], 3),
    ]
    script += errors[:2] if smoke else errors

    env = program_env()

    def make(name, argv, code):
        key, _, fmt = name.rpartition("-")

        def run(tr):
            proc = tr.call("cli.process", subprocess.run, [sys.executable, "-m", "photongraph.cli", *argv],
                           cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
            err = proc.stderr
            if code != 0:
                crashed = "Traceback" in err
                known = "unsynth-int-layers" if (name == "bad-layers" and proc.returncode == 1 and crashed
                                                 and "TypeError" in err) else None
                check(proc.returncode == code, f"exit {proc.returncode}, expected {code}", defect=known)
                check(not crashed and len(err.strip().splitlines()) == 1 and err.startswith("error: "),
                      f"stderr is not one error line: {err.strip().splitlines()[-1:]!r}", defect=known)
                return
            check(proc.returncode == 0 and err == "", f"exit {proc.returncode}, stderr {err.strip()[-200:]!r}")
            if fmt == "structured":
                check(json.loads(proc.stdout) == expect[key], "structured output differs from the library")
            elif key in texts:
                check(texts[key](proc.stdout), "text output is wrong")
            else:
                check(proc.stdout.strip() != "", "no text output")
        return Job(name, run)

    deck_jobs = [make(name, argv, code) for name, argv, code in script]

    def probe(tr, results, decks):
        """Interpreter start plus import, and an in-process replay of one
        deck's script with the handlers' library calls wrapped in spans."""
        import photongraph.cli as cli_mod

        # Import-only processes alternate with `dot k4.graph` calls, so a
        # slow spell of the machine hits both.
        imports, calls = [], []
        for _ in range(IMPORT_PROBES):
            for argv, out in ((["-c", "import photongraph.cli"], imports),
                              (["-m", "photongraph.cli", "dot", "k4.graph"], calls)):
                start = time.perf_counter()
                subprocess.run([sys.executable, *argv], cwd=work, env=env, check=True, timeout=TIMEOUT_S,
                               capture_output=True)
                out.append((time.perf_counter() - start) * 1e3)
        import_ms = statistics.median(imports)
        with _wrapped_library(cli_mod, pg, tr), contextlib.chdir(work):
            for name, argv, _ in script:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    try:
                        tr.call("cli.main", cli_mod.main, argv)
                    except Exception:  # counted in cli.errors by the span
                        pass
        return {"cli.import_ms": import_ms, "cli.startup_share": import_ms / statistics.median(calls)}

    return Workload(lambda i: deck_jobs, probe=probe, close=lambda: shutil.rmtree(work, ignore_errors=True))


class _Module:
    """Stand-in for a library module inside ``photongraph.cli``: functions
    are wrapped in spans named ``<module>.<function>``; classes and other
    attributes pass through."""

    def __init__(self, module, tr):
        self._module = module
        self._tr = tr
        self._name = module.__name__.rsplit(".", 1)[-1]

    def __getattr__(self, attr):
        value = getattr(self._module, attr)
        if callable(value) and not isinstance(value, type):
            return lambda *a, **k: self._tr.call(f"{self._name}.{attr}", value, *a, **k)
        return value


@contextlib.contextmanager
def _wrapped_library(cli_mod, pg, tr):
    names = ("matching", "counting", "states", "compiler", "feasibility", "networks")
    funcs = ("parse_graph", "serialize_graph", "merge_graphs", "to_dot")
    saved = {n: getattr(cli_mod, n) for n in names + funcs}
    try:
        for n in names:
            setattr(cli_mod, n, _Module(getattr(pg, n), tr))
        for n in funcs:
            fn = saved[n]
            setattr(cli_mod, n, lambda *a, _fn=fn, _n=n, **k: tr.call(f"graph.{_n}", _fn, *a, **k))
        yield
    finally:
        for n, value in saved.items():
            setattr(cli_mod, n, value)
