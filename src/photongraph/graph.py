"""Multigraph model of photon-pair experiments.

Vertices are optical paths ending in detectors; edges are pair sources
(crystals).  Each edge carries one mode label per endpoint plus a complex
amplitude, stored as magnitude and phase (radians) so that documents
round-trip bit-exactly.  Parallel edges are first-class: two crystals may
pump the same pair of paths.  Self-loops are forbidden, since a pair source
always feeds two distinct paths.

Graphs are immutable values.  All functions in this module are pure and
safe to call concurrently.  ``Edge`` and every other record of the package
is a plain class over ``_Record``, so no import loads ``dataclasses``.

File format (UTF-8 JSON): top-level object with

* ``vertices``  - list of unique names; declaration order fixes ket order,
* ``measured``  - optional list of vertex names covered twice per
  coincidence (created by :func:`merge_graphs`),
* ``edges``     - list of objects ``{id, u, v, mode_u, mode_v, amp_mag,
  amp_phase_rad[, layer]}``; ``id`` may be omitted and is then generated
  as ``e<position>``.

Setup plans (:mod:`photongraph.compiler`) store their crystals as the same
edge records without ``layer``, read and written by the same functions.

Every rule lives in the model: the field rules of an edge in
:class:`Edge`, the rules that tie edges to vertices in
:class:`ExperimentGraph`.  The readers check only the JSON shape (objects,
lists, known and required keys) and report a refusal of the model at the
document location of the field it names.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from operator import attrgetter
from typing import Iterable, NamedTuple

from .errors import DomainError, FieldError, GraphParseError, NotBipartiteError

__all__ = [
    "Edge",
    "ExperimentGraph",
    "Biadjacency",
    "parse_graph",
    "serialize_graph",
    "merge_graphs",
    "random_graph",
    "complete_graph",
    "to_dot",
    "vertex_names",
]


class _Record:
    """Mutable, unhashable record of the fields annotated in its class body
    (after a base record's), built by position or by name.  ``repr`` and
    ``==`` read them in order as a dataclass's do; ``_values(r)`` reads them
    (the one value of a one-field record)."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__annotations__)
        if cls._fields:
            cls._values = attrgetter(*cls._fields)
        if cls._fields and "__init__" not in vars(cls):
            # Compiled once per class: a generic (*args, **kwargs) __init__
            # takes twice as long per record (6240 per K8 factorization).
            body = "".join(f"\n    d[{n!r}] = {n}" for n in cls._fields)
            exec(f"def __init__(self, {', '.join(cls._fields)}):\n    d = self.__dict__{body}", ns := {})
            cls.__init__ = ns["__init__"]

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __eq__(self, other):
        return self._values(self) == other._values(other) if other.__class__ is self.__class__ else NotImplemented


class _FrozenRecord(_Record):
    """Record that hashes by value and refuses assignment and deletion."""

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Edge(_FrozenRecord):
    """One pair source. ``mode_u``/``mode_v`` are the mode labels the photons
    carry into paths ``u``/``v``; the amplitude defaults to 1 at phase 0.
    Magnitude and phase are stored as floats: an integer is converted, and
    a bool, a non-number or a non-finite value is refused."""

    id: str
    u: str
    v: str
    mode_u: int
    mode_v: int
    amp_mag: float
    amp_phase_rad: float
    layer: int | None

    def __init__(self, id: str, u: str, v: str, mode_u: int = 0, mode_v: int = 0,
                 amp_mag: float = 1.0, amp_phase_rad: float = 0.0, layer: int | None = None):
        self.__dict__.update(id=id, u=u, v=v, mode_u=mode_u, mode_v=mode_v, amp_mag=amp_mag,
                             amp_phase_rad=amp_phase_rad, layer=layer)
        if not isinstance(self.id, str) or not self.id:
            raise FieldError("id", "id must be a nonempty string")
        if self.u == self.v:
            raise FieldError("", f"self-loop on {self.u!r}", reason="self-loop")
        if self.layer is not None and not _is_count(self.layer):
            raise FieldError("layer", "layer must be a nonnegative integer")
        mag, phase = self.amp_mag, self.amp_phase_rad
        if type(mag) is not float or not 0.0 <= mag < math.inf:
            mag = _finite(mag, "amp_mag")
            if mag < 0:
                raise FieldError("amp_mag", "amp_mag must be >= 0")
            object.__setattr__(self, "amp_mag", mag)
        for name in ("mode_u", "mode_v"):
            if not _is_count(getattr(self, name)):
                raise FieldError(name, "mode must be a nonnegative integer")
        if type(phase) is not float or not -math.inf < phase < math.inf:
            object.__setattr__(self, "amp_phase_rad", _finite(phase, "amp_phase_rad"))

    @property
    def amplitude(self) -> complex:
        return cmath.rect(self.amp_mag, self.amp_phase_rad)


def _is_count(raw) -> bool:
    return isinstance(raw, int) and not isinstance(raw, bool) and raw >= 0


def _finite(raw, field: str) -> float:
    """``raw`` as a float.  A bool, a non-number, and a number beyond the
    double range or not finite are refused as a value of ``field``."""
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise FieldError(field, "expected a number")
    try:
        value = float(raw)
    except OverflowError:  # an integer beyond the double range
        value = math.inf
    if not math.isfinite(value):
        raise FieldError(field, "number must be finite")
    return value


class Biadjacency(NamedTuple):
    """Multiplicity matrix of a bipartite graph: ``entries[i][j]`` counts the
    parallel edges between ``rows[i]`` and ``cols[j]``."""

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]


class ExperimentGraph:
    """Immutable experiment graph: ordered vertices, labeled multigraph edges,
    and the set of measured (merged) vertices.

    ``_sums`` is empty after construction; :mod:`photongraph.states` fills
    it once with the graph's whole-graph cover sums.  A copy or a pickle is
    rebuilt from vertices, edges and measured vertices and starts empty."""

    __slots__ = ("vertices", "edges", "measured", "_index", "_by_id", "_sums")

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge] = (), measured: Iterable[str] = ()):
        vertices = tuple(vertices)
        index: dict[str, int] = {}
        for i, name in enumerate(vertices):
            if not isinstance(name, str) or not name:
                raise FieldError(f"vertices[{i}]", "vertex name must be a nonempty string")
            if name in index:
                raise FieldError(f"vertices[{i}]", f"duplicate vertex {name!r}", reason="duplicate-vertex")
            index[name] = i

        measured = tuple(measured)
        for i, name in enumerate(measured):
            if not isinstance(name, str) or name not in index:
                raise FieldError(f"measured[{i}]", f"measured vertex {name!r} is not declared")

        normalized: list[Edge] = []
        by_id: dict[str, Edge] = {}
        for k, e in enumerate(edges):
            if e.id in by_id:
                raise FieldError(f"edges[{k}].id", f"duplicate edge id {e.id!r}", reason="duplicate-edge")
            for key, end in (("u", e.u), ("v", e.v)):
                if not isinstance(end, str) or end not in index:
                    raise FieldError(f"edges[{k}].{key}", f"unknown endpoint {end!r}", reason="unknown-endpoint")
            if index[e.u] > index[e.v]:
                e = Edge(e.id, e.v, e.u, e.mode_v, e.mode_u, e.amp_mag, e.amp_phase_rad, e.layer)
            normalized.append(e)
            by_id[e.id] = e

        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", tuple(normalized))
        object.__setattr__(self, "measured", frozenset(measured))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_sums", None)

    def __reduce__(self):
        return ExperimentGraph, (self.vertices, self.edges, tuple(v for v in self.vertices if v in self.measured))

    def __setattr__(self, name, value):  # pragma: no cover - guards misuse
        raise AttributeError("ExperimentGraph is immutable")

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise DomainError(f"unknown vertex {name!r}") from None

    def edge_by_id(self, edge_id: str) -> Edge:
        try:
            return self._by_id[edge_id]
        except KeyError:
            raise DomainError(f"unknown edge id {edge_id!r}", reason="unknown-edge") from None

    def incident(self, name: str) -> tuple[Edge, ...]:
        self.index(name)
        return tuple(e for e in self.edges if name in (e.u, e.v))

    def degree(self, name: str) -> int:
        return len(self.incident(name))

    @property
    def ket_vertices(self) -> tuple[str, ...]:
        """Non-measured vertices in declaration order; one ket slot each."""
        return tuple(v for v in self.vertices if v not in self.measured)

    def adjacency(self) -> list[list[int]]:
        """Symmetric multiplicity matrix with zero diagonal, vertex order =
        declaration order."""
        n = len(self.vertices)
        m = [[0] * n for _ in range(n)]
        for e in self.edges:
            i, j = self._index[e.u], self._index[e.v]
            m[i][j] += 1
            m[j][i] += 1
        return m

    def bipartition(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Two-color the graph; the lowest-index vertex of every component
        lands in part X.  Raises :class:`NotBipartiteError` with an odd-cycle
        witness otherwise."""
        color: dict[str, int] = {}
        parent: dict[str, str | None] = {}
        neighbors: dict[str, list[str]] = {v: [] for v in self.vertices}
        for e in self.edges:
            neighbors[e.u].append(e.v)
            neighbors[e.v].append(e.u)
        for adj in neighbors.values():
            adj.sort(key=self._index.__getitem__)

        for start in self.vertices:
            if start in color:
                continue
            color[start] = 0
            parent[start] = None
            queue = [start]
            while queue:
                v = queue.pop(0)
                for w in neighbors[v]:
                    if w not in color:
                        color[w] = 1 - color[v]
                        parent[w] = v
                        queue.append(w)
                    elif color[w] == color[v] and w != v:
                        cycle = _odd_cycle(parent, v, w)
                        raise NotBipartiteError(
                            f"graph is not bipartite: odd cycle {'-'.join(cycle)}",
                            odd_cycle=cycle,
                        )
        part_x = tuple(v for v in self.vertices if color[v] == 0)
        part_y = tuple(v for v in self.vertices if color[v] == 1)
        return part_x, part_y

    def biadjacency(self, parts: tuple[Iterable[str], Iterable[str]] | None = None) -> Biadjacency:
        """Multiplicity matrix over a bipartition (auto-detected by default)."""
        if parts is None:
            rows, cols = self.bipartition()
        else:
            rows = tuple(sorted(parts[0], key=self.index))
            cols = tuple(sorted(parts[1], key=self.index))
            if sorted(rows + cols) != sorted(self.vertices):
                raise DomainError("bipartition parts must cover every vertex exactly once")
        row_pos = {v: i for i, v in enumerate(rows)}
        col_pos = {v: i for i, v in enumerate(cols)}
        entries = [[0] * len(cols) for _ in rows]
        for e in self.edges:
            if e.u in row_pos and e.v in col_pos:
                entries[row_pos[e.u]][col_pos[e.v]] += 1
            elif e.v in row_pos and e.u in col_pos:
                entries[row_pos[e.v]][col_pos[e.u]] += 1
            else:
                raise NotBipartiteError(
                    f"edge {e.id!r} joins two vertices of the same part"
                )
        return Biadjacency(rows, cols, tuple(tuple(r) for r in entries))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExperimentGraph):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.measured == other.measured
            and sorted(self.edges, key=lambda e: e.id) == sorted(other.edges, key=lambda e: e.id)
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.measured, tuple(sorted(self.edges, key=lambda e: e.id))))

    def __repr__(self) -> str:
        return (
            f"ExperimentGraph(|V|={len(self.vertices)}, |E|={len(self.edges)}, "
            f"measured={sorted(self.measured)})"
        )


def _odd_cycle(parent: dict[str, str | None], v: str, w: str) -> tuple[str, ...]:
    """Reconstruct the odd cycle closed by the conflicting edge (v, w)."""
    ancestors = []
    node: str | None = v
    while node is not None:
        ancestors.append(node)
        node = parent[node]
    ancestor_set = set(ancestors)
    path_w = []
    node = w
    while node not in ancestor_set:
        path_w.append(node)
        node = parent[node]  # type: ignore[assignment]
    meet = node
    path_v = ancestors[: ancestors.index(meet) + 1]
    return tuple(path_v + list(reversed(path_w)))


# ---------------------------------------------------------------------------
# document parsing / canonical serialization
# ---------------------------------------------------------------------------

_EDGE_KEYS = {"id", "u", "v", "mode_u", "mode_v", "amp_mag", "amp_phase_rad", "layer"}


def _expect(condition: bool, message: str, location: str):
    if not condition:
        raise GraphParseError(message, location=location)


def _float_value(raw, location: str) -> float:
    """``raw`` as a finite float by the rule of an edge amplitude, refused
    at ``location``."""
    try:
        return _finite(raw, location)
    except FieldError as exc:
        raise GraphParseError(exc.problem, location=location) from None


def _parse_json(text: str, location: str):
    """The JSON value of ``text``; malformed or too deeply nested text is a
    ``GraphParseError`` at ``location``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc}", location=location) from None
    except RecursionError:
        raise GraphParseError("invalid JSON: nested too deeply", location=location) from None


def _read_edge(rec, loc: str, default_id: str | None = None) -> Edge:
    """One edge record of a graph document or plan crystal, built by
    :class:`Edge`; a refused field is reported at its place in ``rec``.  The
    id falls back to ``default_id``; without one it is required."""
    _expect(isinstance(rec, dict), "edge must be an object", loc)
    if not rec.keys() <= _EDGE_KEYS:
        raise GraphParseError(f"unknown keys {sorted(rec.keys() - _EDGE_KEYS)}", location=loc)
    _expect("id" in rec or default_id is not None, "missing id", loc)
    for key in ("u", "v"):
        if key not in rec:
            raise GraphParseError(f"missing endpoint {key!r}", location=loc)
    try:
        return Edge(**{"id": default_id, **rec})
    except FieldError as exc:
        raise GraphParseError(exc.problem, location=f"{loc}.{exc.field}" if exc.field else loc) from None


def parse_graph(text: str) -> ExperimentGraph:
    """Parse a graph document; errors carry the location of the bad field."""
    doc = _parse_json(text, "<document>")
    _expect(isinstance(doc, dict), "top level must be an object", "<document>")
    unknown = set(doc) - {"vertices", "measured", "edges"}
    _expect(not unknown, f"unknown keys {sorted(unknown)}", "<document>")
    for key in ("vertices", "measured", "edges"):
        _expect(isinstance(doc.get(key, []), list), f"{key} must be a list", key)
    edges = [_read_edge(rec, f"edges[{i}]", f"e{i}") for i, rec in enumerate(doc.get("edges", []))]
    try:
        return ExperimentGraph(doc.get("vertices", []), edges, doc.get("measured", []))
    except FieldError as exc:  # the model names the field by its document location
        raise GraphParseError(exc.problem, location=exc.field) from None


def _edge_record(e: Edge) -> dict:
    rec = {
        "id": e.id,
        "u": e.u,
        "v": e.v,
        "mode_u": e.mode_u,
        "mode_v": e.mode_v,
        "amp_mag": e.amp_mag,
        "amp_phase_rad": e.amp_phase_rad,
    }
    if e.layer is not None:
        rec["layer"] = e.layer
    return rec


def serialize_graph(g: ExperimentGraph) -> str:
    """Canonical form: vertices in declaration order, edges sorted by id.
    Byte-identical across runs for equal graphs."""
    doc: dict = {"vertices": list(g.vertices)}
    if g.measured:
        doc["measured"] = [v for v in g.vertices if v in g.measured]
    doc["edges"] = [_edge_record(e) for e in sorted(g.edges, key=lambda e: e.id)]
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def merge_graphs(
    g1: ExperimentGraph,
    g2: ExperimentGraph,
    pairs: Iterable[tuple[str, str]],
) -> ExperimentGraph:
    """Disjoint union of two experiments with each ``(a, b)`` pair identified
    into one measured vertex (named after ``a``).  This models detecting the
    two merged paths jointly, which swaps entanglement between the halves."""
    pairs = list(pairs)
    first_members = [a for a, _ in pairs]
    second_members = [b for _, b in pairs]
    for name, graph in [(a, g1) for a, _ in pairs] + [(b, g2) for _, b in pairs]:
        graph.index(name)  # raises on unknown vertex
        if name in graph.measured:
            raise DomainError(f"vertex {name!r} is already measured and cannot be merged again")
    if len(set(first_members)) != len(first_members) or len(set(second_members)) != len(second_members):
        raise DomainError("a vertex may be named in at most one merge pair", reason="repeated-pair-member")

    rename = {b: a for a, b in pairs}
    kept_g2 = [v for v in g2.vertices if v not in rename]
    clash = set(g1.vertices) & set(kept_g2)
    if clash:
        raise DomainError(f"vertex names {sorted(clash)} appear in both graphs", reason="duplicate-vertex")

    vertices = list(g1.vertices) + kept_g2
    measured = set(g1.measured) | {rename.get(v, v) for v in g2.measured} | {a for a, _ in pairs}

    edges: list[Edge] = list(g1.edges)
    used_ids = {e.id for e in edges}
    for e in g2.edges:
        new_id = e.id
        if new_id in used_ids:
            new_id = f"2:{e.id}"
        if new_id in used_ids:
            raise DomainError(f"cannot namespace colliding edge id {e.id!r}", reason="duplicate-edge")
        used_ids.add(new_id)
        edges.append(Edge(new_id, rename.get(e.u, e.u), rename.get(e.v, e.v), e.mode_u, e.mode_v,
                          e.amp_mag, e.amp_phase_rad, e.layer))
    return ExperimentGraph(vertices, edges, measured)


def vertex_names(n: int) -> tuple[str, ...]:
    """Default path names: a..z, then v26, v27, ..."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    return tuple(letters[i] if i < 26 else f"v{i}" for i in range(n))


def random_graph(n: int, p: float, seed: int) -> ExperimentGraph:
    """G(n, p) sample: each of the n(n-1)/2 simple edges appears independently
    with probability ``p``.  Deterministic for a fixed seed; modes default to
    (0, 0) and amplitudes to 1."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"edge probability must lie in [0, 1], got {p}")
    if n < 0:
        raise DomainError("vertex count must be nonnegative")
    return _graph_from_pairs(n, _gnp_pairs(n, p, seed))


def _gnp_pairs(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """The vertex index pairs ``i < j`` of a G(n, p) sample, in row order:
    one draw of ``random.Random(seed)`` per pair.  Every sampler of the
    package goes through here, so a graph and a bare count see the same
    edges for the same seed."""
    rng = random.Random(seed).random
    return [(i, j) for i in range(n) for j in range(i + 1, n) if rng() < p]


def complete_graph(n: int) -> ExperimentGraph:
    """K_n with unit amplitudes, modes (0, 0) and generated edge ids."""
    return _graph_from_pairs(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _graph_from_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> ExperimentGraph:
    """The graph on ``vertex_names(n)`` with one unit edge ``e<k>`` per vertex
    index pair, numbered in the given order."""
    names = vertex_names(n)
    return ExperimentGraph(names, [Edge(f"e{k}", names[i], names[j]) for k, (i, j) in enumerate(pairs)])


def to_dot(g: ExperimentGraph) -> str:
    """Graphviz export; every edge is labeled ``id:(mode_u,mode_v)``.  Each
    name and label is a quoted string with ``\\`` and ``"`` escaped."""
    esc = str.maketrans({"\\": "\\\\", '"': '\\"'})
    lines = ["graph experiment {"]
    for v in g.vertices:
        attrs = " [peripheries=2]" if v in g.measured else ""
        lines.append(f'  "{v.translate(esc)}"{attrs};')
    for e in sorted(g.edges, key=lambda e: e.id):
        label = f"{e.id}:({e.mode_u},{e.mode_v})".translate(esc)
        lines.append(f'  "{e.u.translate(esc)}" -- "{e.v.translate(esc)}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
