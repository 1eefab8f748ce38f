"""Command-line front end.

Exit codes: 0 success, 1 domain error, 2 usage error, 3 scale-limit refusal.
Errors print one line ``error: <reason-code>: <message>`` on stderr.
``--format structured`` switches every subcommand to JSON output: each
handler returns a structured payload and text lines, and ``main`` prints one.

A call imports only the modules its subcommand runs: ``graph`` and
``errors`` always, the kernel module (``matching``, ``states``, ``counting``
and so on) when a handler first asks for it, and never ``dataclasses``.
Handlers reach a kernel through ``_kernel``, which reads ``cli.<kernel>`` at
call time, so a stand-in set there (a tracer, a test stub) is what runs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
from pathlib import Path

from .errors import PhotonGraphError, ScaleLimitError
from .graph import _expect, _float_value, _parse_json, merge_graphs, parse_graph, serialize_graph, to_dot

_KERNELS = frozenset({"compiler", "counting", "feasibility", "matching", "networks", "states"})


def __getattr__(name: str):
    """``cli.<kernel>`` imports that kernel module on first access and keeps
    it as a module attribute (PEP 562)."""
    if name not in _KERNELS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = globals()[name] = importlib.import_module(f".{name}", __package__)
    return module


def _kernel(name: str):
    """What ``cli.<name>`` holds: the kernel module, imported now if no
    call needed it before, or whatever was put in its place."""
    kernel = globals().get(name)
    return kernel if kernel is not None else __getattr__(name)


# A ValueError is an undecodable file or a NUL byte in the path.
def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise PhotonGraphError(f"cannot read {path}: {exc}", reason="io-error") from None


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise PhotonGraphError(f"cannot write {path}: {exc}", reason="io-error") from None


def _load_graph(path: str):
    return parse_graph(_read(path))


def _amp_text(amp: complex) -> str:
    if abs(amp.imag) < 1e-12:
        return f"{amp.real:.10g}"
    return f"{amp.real:.10g}{amp.imag:+.10g}j"


def _ket_text(ket) -> str:
    return "|" + ",".join(str(m) for m in ket) + ">"


def _document(doc: str):
    """A JSON document written by the library (graph, state or plan): both
    formats print it as written."""
    return doc, [doc.removesuffix("\n")]


def _output(args, doc: str):
    """Write ``doc`` to ``-o`` and report the path, or print the document."""
    if not args.output:
        return _document(doc)
    _write(args.output, doc)
    return {"written": args.output}, [f"wrote {args.output}"]


# ---------------------------------------------------------------------------
# handlers: each returns (structured payload, text lines) for ``main`` to print;
# where a view is costly, only the one ``--format`` asks for is built
# ---------------------------------------------------------------------------

def _cmd_matchings(args):
    g = _load_graph(args.graph)
    pms = _kernel("matching").enumerate_pm(g, override_limits=args.limit_override)
    return pms, [f"{len(pms)} matchings:"] + ["  " + " ".join(pm) for pm in pms]


def _cmd_count(args):
    g = _load_graph(args.graph)
    by_enum = len(_kernel("matching").enumerate_pm(g, override_limits=args.limit_override))
    payload = {"enumeration": by_enum, "hafnian": None, "permanent": None}
    # matrix kernels count plain perfect matchings: defined for unmeasured
    # graphs of even order only
    if not g.measured and len(g.vertices) % 2 == 0:
        counts = _kernel("counting").matrix_counts(g, override_limits=args.limit_override)
        payload["hafnian"], payload["permanent"] = counts
    return payload, [f"{key}: {value}" for key, value in payload.items() if value is not None]


def _cmd_state(args):
    g = _load_graph(args.graph)
    states = _kernel("states")
    state = states.state_from_graph(
        g, normalize=args.normalize, override_limits=args.limit_override
    )
    if args.format == "structured":
        return states.serialize_state(state), None
    lines = [f"{_amp_text(amp)} {_ket_text(ket)}" for ket, amp in state.sorted_terms()]
    return None, lines or ["(no terms)"]


def _cmd_verify(args):
    g = _load_graph(args.graph)
    states = _kernel("states")
    target = states.parse_state(_read(args.state))
    match = states.verify_target(g, target, override_limits=args.limit_override)
    return {"match": match}, ["MATCH" if match else "MISMATCH"]


def _cmd_search(args):
    states = _kernel("states")
    target = states.parse_state(_read(args.state))
    found = states.search_graph_for_state(
        target,
        max_edges=args.max_edges,
        max_mode=args.max_mode,
        max_parallel=args.max_parallel,
    )
    if found is None:
        return None, ["none found within bounds"]
    return _document(serialize_graph(found))


def _cmd_frustrate(args):
    g = _load_graph(args.graph)
    rows = _kernel("states").frustration_scan(
        g, args.edge, args.phases, override_limits=args.limit_override
    )
    return rows, [f"phase={phase:.10g} intensity={intensity:.10g}" for phase, intensity in rows]


def _cmd_ghz_max(args):
    g = _load_graph(args.graph)
    d, witness = _kernel("matching").max_disjoint_pms(g, override_limits=args.limit_override)
    return {"d": d, "witness": witness}, [f"d = {d}"] + ["  " + " ".join(pm) for pm in witness]


def _cmd_factorize(args):
    g = _load_graph(args.graph)
    factorizations = _kernel("matching").enumerate_factorizations(
        g, override_limits=args.limit_override
    )
    lines = [f"{len(factorizations)} factorizations:"]
    for i, fz in enumerate(factorizations):
        lines.append(f"  #{i}: " + " | ".join(" ".join(f) for f in fz.factors))
    return [fz.factors for fz in factorizations], lines


def _cmd_layers(args):
    g = _load_graph(args.graph)
    report = _kernel("matching").classify_layers(g, override_limits=args.limit_override)
    payload = {"layers": report.layer_matchings, "mavericks": report.maverick_matchings}
    lines = [
        f"{len(report.layer_matchings)} layer matchings, "
        f"{len(report.maverick_matchings)} maverick matchings"
    ]
    lines += ["  layer:    " + " ".join(pm) for pm in report.layer_matchings]
    lines += ["  maverick: " + " ".join(pm) for pm in report.maverick_matchings]
    return payload, lines


def _cmd_check(args):
    g = _load_graph(args.graph)
    feasibility = _kernel("feasibility")
    if args.criterion == "hall":
        parts = None
        if args.parts_by_order:
            half = len(g.vertices) // 2
            parts = (g.vertices[:half], g.vertices[half:])
        result = feasibility.hall_check(g, parts)
    else:
        result = feasibility.tutte_check(g)

    if isinstance(result, tuple):
        return {"exists": True, "matching": result}, ["perfect matching exists: " + " ".join(result)]
    if isinstance(result, feasibility.HallWitness):
        lines = [
            "  W = {" + ", ".join(result.subset_w) + "}",
            "  N(W) = {" + ", ".join(result.neighborhood) + "}",
        ]
    else:
        lines = [
            "  U = {" + ", ".join(result.subset_u) + "}",
            f"  odd components ({len(result.odd_components)}): "
            + "; ".join("{" + ", ".join(c) + "}" for c in result.odd_components),
        ]
    return {"exists": False, "witness": vars(result)}, ["no perfect matching"] + lines


def _load_matrix(path: str):
    text = _read(path)
    doc = _parse_json(text, "<matrix>")
    if isinstance(doc, dict):
        return parse_graph(text), None
    _expect(isinstance(doc, list), "file is neither a graph document nor a matrix", "<matrix>")
    matrix = []
    for i, row in enumerate(doc):
        _expect(isinstance(row, list), "row must be a list of entries", f"matrix[{i}]")
        matrix.append([_matrix_entry(entry, f"matrix[{i}][{j}]") for j, entry in enumerate(row)])
    return None, matrix


def _matrix_entry(raw, location: str):
    """An integer stays an integer, so integer matrices are computed exactly;
    a float or an ``[re, im]`` pair must be finite."""
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, list):
        _expect(len(raw) == 2, "complex entries must be [re, im] pairs", location)
        return complex(_float_value(raw[0], f"{location}[0]"), _float_value(raw[1], f"{location}[1]"))
    return _float_value(raw, location)


def _matrix_result(value):
    if isinstance(value, complex):
        return [value.real, value.imag], [_amp_text(value)]
    return value, [str(value)]


def _cmd_hafnian(args):
    g, matrix = _load_matrix(args.file)
    if g is not None:
        matrix = g.adjacency()
    return _matrix_result(_kernel("counting").hafnian(matrix, override_limits=args.limit_override))


def _cmd_permanent(args):
    g, matrix = _load_matrix(args.file)
    if g is not None:
        bi = g.biadjacency()
        if len(bi.rows) != len(bi.cols):
            raise PhotonGraphError(
                "biadjacency is not square; permanent undefined", reason="unequal-parts"
            )
        matrix = [list(r) for r in bi.entries]
    return _matrix_result(_kernel("counting").permanent(matrix, override_limits=args.limit_override))


def _cmd_merge(args):
    g1 = _load_graph(args.graph1)
    g2 = _load_graph(args.graph2)
    pairs = []
    for chunk in args.pairs.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise PhotonGraphError(f"pair {chunk!r} must look like a:b", reason="parse-error")
        a, b = chunk.split(":", 1)
        pairs.append((a.strip(), b.strip()))
    return _output(args, serialize_graph(merge_graphs(g1, g2, pairs)))


def _cmd_synth(args):
    g = _load_graph(args.graph)
    compiler = _kernel("compiler")
    plan = compiler.synthesize_setup(g)
    doc = compiler.serialize_plan(plan)
    if args.output:
        _write(args.output, doc)
    if args.dot:
        _write(args.dot, to_dot(g))
    return doc, [compiler.render_plan(plan).removesuffix("\n")]


def _cmd_unsynth(args):
    compiler = _kernel("compiler")
    plan = compiler.parse_plan(_read(args.plan))
    return _output(args, serialize_graph(compiler.plan_to_graph(plan)))


def _cmd_random(args):
    networks = _kernel("networks")
    reports = networks.ensemble_scan(
        args.n, args.p, args.trials, args.seed, workers=args.threads
    )
    lines = [
        f"p={r.p:g} pm_exists_fraction={r.pm_exists_fraction:.6f} "
        f"buckets={len(r.pm_count_histogram)}"
        for r in reports
    ]
    if args.csv:
        rows = networks.report_csv_rows(reports)
        csv = [f"{p:g},{fraction:.10g},{count},{freq}\n" for p, fraction, count, freq in rows]
        _write(args.csv, "p,fraction,count,frequency\n" + "".join(csv))
        lines.append(f"wrote {args.csv}")
    return [vars(r) for r in reports], lines


def _cmd_dot(args):
    g = _load_graph(args.graph)
    text = to_dot(g)
    return {"dot": text}, [text.rstrip("\n")]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _phase_list(text: str) -> list[float]:
    """Comma-separated finite radians; empty items are skipped."""
    try:
        phases = [float(item) for item in text.split(",") if item.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of numbers") from None
    if not all(map(math.isfinite, phases)):
        raise argparse.ArgumentTypeError(f"phases must be finite, got {text!r}")
    return phases


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "structured"), default="text",
        help="output format (structured = JSON)",
    )
    # the subcommands whose kernels have a scale guard
    guarded = argparse.ArgumentParser(add_help=False, parents=[common])
    guarded.add_argument(
        "--limit-override", action="store_true", dest="limit_override",
        help="bypass the scale guards of the exact algorithms",
    )

    parser = argparse.ArgumentParser(
        prog="photongraph",
        description="Pair-source experiments as multigraphs: matchings, states, counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("matchings", parents=[guarded], help="enumerate perfect matchings")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_matchings)

    p = sub.add_parser("count", parents=[guarded], help="count matchings by enumeration and matrix kernels")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("state", parents=[guarded], help="post-selected state of a graph")
    p.add_argument("graph")
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(handler=_cmd_state)

    p = sub.add_parser("verify", parents=[guarded], help="compare a graph's state against a target")
    p.add_argument("graph")
    p.add_argument("state")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("search", parents=[common], help="search small multigraphs for a target state")
    p.add_argument("state")
    p.add_argument("--max-edges", type=int, default=8)
    p.add_argument("--max-mode", type=int, default=3)
    p.add_argument("--max-parallel", type=int, default=4)
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("frustrate", parents=[guarded], help="sweep one edge's phase, report intensity")
    p.add_argument("graph")
    p.add_argument("edge")
    p.add_argument(
        "--phases", type=_phase_list, required=True,
        help="comma-separated radians; write --phases=-1,2 when the list starts with a negative number",
    )
    p.set_defaults(handler=_cmd_frustrate)

    p = sub.add_parser("ghz-max", parents=[guarded], help="largest set of pairwise disjoint matchings")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_ghz_max)

    p = sub.add_parser("factorize", parents=[guarded], help="enumerate 1-factorizations")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_factorize)

    p = sub.add_parser("layers", parents=[guarded], help="split matchings into layer and maverick terms")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_layers)

    p = sub.add_parser("check", parents=[common], help="matchability with constructive witnesses")
    p.add_argument("criterion", choices=("hall", "tutte"))
    p.add_argument("graph")
    p.add_argument(
        "--parts-by-order", action="store_true", dest="parts_by_order",
        help="pin part X to the first half of the declared vertices (hall only)",
    )
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("hafnian", parents=[guarded], help="hafnian of a matrix or graph adjacency")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_hafnian)

    p = sub.add_parser("permanent", parents=[guarded], help="permanent of a matrix or graph biadjacency")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_permanent)

    p = sub.add_parser("merge", parents=[common], help="merge two graphs at vertex pairs")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--pairs", required=True, help="comma-separated a:b pairs")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_merge)

    p = sub.add_parser("synth", parents=[common], help="compile a graph into a setup plan")
    p.add_argument("graph")
    p.add_argument("-o", "--output", help="write the plan document here")
    p.add_argument("--dot", help="also write a DOT rendering of the graph")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("unsynth", parents=[common], help="rebuild the graph of a setup plan")
    p.add_argument("plan")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_unsynth)

    p = sub.add_parser("random", parents=[common], help="G(n,p) ensembles and matching statistics")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, action="append", required=True, help="repeatable probability value")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--csv", help="write (p, fraction, count, frequency) rows here")
    p.set_defaults(handler=_cmd_random)

    p = sub.add_parser("dot", parents=[common], help="DOT export")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines = args.handler(args)
        if args.format == "structured":
            # a string payload is a library document, printed as written
            text = payload if isinstance(payload, str) else json.dumps(payload, indent=2)
            lines = [text.removesuffix("\n")]
        for line in lines:
            print(line)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # The reader closed stdout early (`| head`); send what is still
        # buffered to devnull so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ScaleLimitError as exc:
        print(f"error: {exc.reason}: {exc}", file=sys.stderr)
        return 3
    except PhotonGraphError as exc:
        print(f"error: {exc.reason}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
