"""Graph-to-bench compilation.

A setup plan lists the detectors, then the crystals grouped into ordered
layers such that no two crystals in one layer share a path, plus the
chronological wiring of every path through its crystals.  Existing layer
tags are kept verbatim when they already form matchings; untagged crystals
are slotted greedily in edge-id order, which needs at most 2*Delta - 1
layers.  ``plan_to_graph`` inverts the construction.

A plan crystal is the graph's own :class:`~photongraph.graph.Edge` with no
layer tag: its layer is its position in the plan.  Plan files store each
crystal as a graph edge record without ``layer``, read and written by the
graph module's codec; the crystals and detectors are checked by the rules
of the graph model, and a refusal is reported at its place in the plan.
"""

from __future__ import annotations

import json

from .errors import DomainError, FieldError, GraphParseError
from .graph import Edge, ExperimentGraph, _Record, _edge_record, _expect, _parse_json, _read_edge

__all__ = [
    "SetupPlan",
    "synthesize_setup",
    "plan_to_graph",
    "serialize_plan",
    "parse_plan",
    "render_plan",
]


class SetupPlan(_Record):
    """Detectors, crystal layers and path wiring.  Crystals are edges whose
    ``layer`` is None."""

    detectors: tuple[str, ...]
    layers: tuple[tuple[Edge, ...], ...]
    wiring: dict[str, tuple[str, ...]]


def _wiring(detectors, layers) -> dict[str, tuple[str, ...]]:
    out = {}
    for path in detectors:
        hits = []
        for layer in layers:
            for c in layer:
                if path in (c.u, c.v):
                    hits.append(c.id)
        out[path] = tuple(hits)
    return out


def synthesize_setup(g: ExperimentGraph) -> SetupPlan:
    """Compile a graph into ordered crystal layers plus path wiring."""
    if g.measured:
        raise DomainError(
            "graphs with measured vertices compile to two plans plus a joint "
            "measurement; synthesize each half separately"
        )

    edges = sorted(g.edges, key=lambda e: e.id)
    occupied: dict[int, set[str]] = {}
    crystals: dict[int, list[Edge]] = {}
    for e in edges:
        if e.layer is None:
            continue
        if not _place(occupied.setdefault(e.layer, set()), e):
            raise DomainError(
                f"pre-assigned layer {e.layer} has two crystals sharing a path "
                f"(at edge {e.id!r})",
                reason="layer-conflict",
            )
        crystals.setdefault(e.layer, []).append(Edge(e.id, e.u, e.v, e.mode_u, e.mode_v, e.amp_mag, e.amp_phase_rad))

    for e in edges:
        if e.layer is not None:
            continue
        tag = 0
        while not _place(occupied.setdefault(tag, set()), e):
            tag += 1
        crystals.setdefault(tag, []).append(e)

    layers = tuple(tuple(sorted(layer, key=lambda c: c.id)) for _, layer in sorted(crystals.items()))
    return SetupPlan(tuple(g.vertices), layers, _wiring(g.vertices, layers))


def _place(paths: set[str], crystal: Edge) -> bool:
    """Occupy the crystal's two paths in a layer whose taken paths are
    ``paths``; False, taking nothing, when one of them is taken already,
    since crystals of one layer share no path."""
    if crystal.u in paths or crystal.v in paths:
        return False
    paths.update((crystal.u, crystal.v))
    return True


def plan_to_graph(plan: SetupPlan) -> ExperimentGraph:
    """Rebuild the experiment graph; layer tags become the plan's layer
    positions.  The wiring section is validated against the layers."""
    edges = []
    for pos, layer in enumerate(plan.layers):
        paths: set[str] = set()
        for c in layer:
            if not _place(paths, c):
                raise DomainError(
                    f"layer {pos} has two crystals sharing a path (at {c.id!r})",
                    reason="layer-conflict",
                )
            edges.append(Edge(c.id, c.u, c.v, c.mode_u, c.mode_v, c.amp_mag, c.amp_phase_rad, pos))
    g = ExperimentGraph(plan.detectors, edges)
    expected = _wiring(plan.detectors, plan.layers)
    if dict(plan.wiring) != expected:
        raise DomainError("wiring section disagrees with the layers", reason="wiring-inconsistent")
    return g


# ---------------------------------------------------------------------------
# plan files
# ---------------------------------------------------------------------------

def serialize_plan(plan: SetupPlan) -> str:
    doc = {
        "detectors": list(plan.detectors),
        "layers": [[_edge_record(c) for c in layer] for layer in plan.layers],
        "wiring": {path: list(ids) for path, ids in plan.wiring.items()},
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_plan(text: str) -> SetupPlan:
    """Parse a plan document; errors carry the location of the bad field."""
    doc = _parse_json(text, "<plan>")
    _expect(
        isinstance(doc, dict) and {"detectors", "layers", "wiring"} <= set(doc),
        "plan must be an object with detectors, layers and wiring",
        "<plan>",
    )
    detectors = doc["detectors"]
    _expect(isinstance(detectors, list), "detectors must be a list", "detectors")
    _expect(isinstance(doc["layers"], list), "layers must be a list of layers", "layers")
    layers = []
    for i, raw_layer in enumerate(doc["layers"]):
        _expect(isinstance(raw_layer, list), "layer must be a list of crystals", f"layers[{i}]")
        layer = []
        for j, rec in enumerate(raw_layer):
            loc = f"layers[{i}][{j}]"
            crystal = _read_edge(rec, loc)
            if crystal.layer is not None:
                raise GraphParseError("a crystal's layer is its position in the plan", location=f"{loc}.layer")
            layer.append(crystal)
        layers.append(tuple(layer))
    try:
        ExperimentGraph(detectors, [c for layer in layers for c in layer])
    except FieldError as exc:
        raise GraphParseError(exc.problem, location=_plan_location(exc.field, layers)) from None
    wiring = doc["wiring"]
    _expect(isinstance(wiring, dict), "wiring must map paths to crystal lists", "wiring")
    for path, ids in wiring.items():
        _expect(isinstance(ids, list) and all(isinstance(x, str) for x in ids),
                "wiring entry must be a list of crystal ids", f"wiring.{path}")
    return SetupPlan(
        tuple(detectors),
        tuple(layers),
        {path: tuple(ids) for path, ids in wiring.items()},
    )


def _plan_location(field: str, layers) -> str:
    """The plan location of a field named by :class:`ExperimentGraph` for the
    graph of a plan's detectors and its crystals in layer order."""
    if field.startswith("vertices"):
        return "detectors" + field.removeprefix("vertices")
    k, _, key = field.removeprefix("edges[").partition("]")
    places = [f"layers[{i}][{j}]" for i, layer in enumerate(layers) for j in range(len(layer))]
    return places[int(k)] + key


def render_plan(plan: SetupPlan) -> str:
    """Human-readable bench sheet: detectors, then crystals layer by layer."""
    lines = ["detectors: " + ", ".join(plan.detectors)]
    for pos, layer in enumerate(plan.layers):
        lines.append(f"layer {pos}:")
        for c in layer:
            amp = f"{c.amp_mag:g}"
            if c.amp_phase_rad:
                amp += f" @ {c.amp_phase_rad:g} rad"
            lines.append(
                f"  crystal {c.id}: paths {c.u}-{c.v}, "
                f"modes ({c.mode_u},{c.mode_v}), amplitude {amp}"
            )
    lines.append("wiring:")
    for path in plan.detectors:
        chain = " -> ".join(plan.wiring.get(path, ())) or "(none)"
        lines.append(f"  {path}: {chain}")
    return "\n".join(lines) + "\n"
