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
graph module's codec and validated by the same rules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .errors import DomainError, GraphParseError
from .graph import Edge, ExperimentGraph, _edge_record, _expect, _parse_json, _read_edge, _read_names

__all__ = [
    "SetupPlan",
    "synthesize_setup",
    "plan_to_graph",
    "serialize_plan",
    "parse_plan",
    "render_plan",
]


@dataclass
class SetupPlan:
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

    occupied: dict[int, set[str]] = {}
    assigned: dict[str, int] = {}
    for e in sorted(g.edges, key=lambda e: e.id):
        if e.layer is None:
            continue
        paths = occupied.setdefault(e.layer, set())
        if e.u in paths or e.v in paths:
            raise DomainError(
                f"pre-assigned layer {e.layer} has two crystals sharing a path "
                f"(at edge {e.id!r})",
                reason="layer-conflict",
            )
        paths.update((e.u, e.v))
        assigned[e.id] = e.layer

    for e in sorted(g.edges, key=lambda e: e.id):
        if e.id in assigned:
            continue
        tag = 0
        while True:
            paths = occupied.setdefault(tag, set())
            if e.u not in paths and e.v not in paths:
                paths.update((e.u, e.v))
                assigned[e.id] = tag
                break
            tag += 1

    # Untagged edges are crystals as they stand; tagged ones lose the tag.
    crystals = {e.id: e if e.layer is None else replace(e, layer=None) for e in g.edges}
    layers = tuple(
        tuple(crystals[eid] for eid in sorted(ids))
        for tag, ids in sorted(_group(assigned).items())
    )
    return SetupPlan(tuple(g.vertices), layers, _wiring(g.vertices, layers))


def _group(assigned: dict[str, int]) -> dict[int, list[str]]:
    groups: dict[int, list[str]] = {}
    for edge_id, tag in assigned.items():
        groups.setdefault(tag, []).append(edge_id)
    return groups


def plan_to_graph(plan: SetupPlan) -> ExperimentGraph:
    """Rebuild the experiment graph; layer tags become the plan's layer
    positions.  The wiring section is validated against the layers."""
    edges = []
    for pos, layer in enumerate(plan.layers):
        used_paths: set[str] = set()
        for c in layer:
            if c.u in used_paths or c.v in used_paths:
                raise DomainError(
                    f"layer {pos} has two crystals sharing a path (at {c.id!r})",
                    reason="layer-conflict",
                )
            used_paths.update((c.u, c.v))
            edges.append(replace(c, layer=pos))
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
    detectors = _read_names(doc["detectors"], "detectors")
    _expect(isinstance(doc["layers"], list), "layers must be a list of layers", "layers")
    layers = []
    seen_ids: set[str] = set()
    for i, raw_layer in enumerate(doc["layers"]):
        _expect(isinstance(raw_layer, list), "layer must be a list of crystals", f"layers[{i}]")
        layer = []
        for j, rec in enumerate(raw_layer):
            loc = f"layers[{i}][{j}]"
            crystal = _read_edge(rec, loc, detectors, seen_ids)
            if crystal.layer is not None:
                raise GraphParseError("a crystal's layer is its position in the plan", location=f"{loc}.layer")
            layer.append(crystal)
        layers.append(tuple(layer))
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
