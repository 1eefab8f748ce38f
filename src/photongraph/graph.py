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
Both documents are written from one edge-record template, laid out byte for
byte as ``json.dumps(doc, indent=2)`` would.

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
from itertools import repeat, starmap
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

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

    def _neighbour_masks(self) -> list[int]:
        """One bitmask of neighbours per vertex, bit i for the vertex of
        declaration index i; parallel edges set their bit once."""
        masks = [0] * len(self.vertices)
        for e in self.edges:
            i, j = self._index[e.u], self._index[e.v]
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return masks

    def bipartition(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Two-color the graph; the lowest-index vertex of every component
        lands in part X.  Raises :class:`NotBipartiteError` with an odd-cycle
        witness otherwise."""
        x, y = self._sides(self._neighbour_masks())
        return tuple(self.vertices[i] for i in _bits(x)), tuple(self.vertices[i] for i in _bits(y))

    def _sides(self, masks: list[int], parts=None) -> tuple[int, int]:
        """The two parts as bitmasks over declaration indices, read from the
        neighbour ``masks``: the pinned ``parts``, checked to hold every
        vertex once and no edge inside a part, or by default the two-coloring
        of :meth:`bipartition`."""
        if parts is not None:
            sides, size = [0, 0], 0
            for s in (0, 1):
                for name in parts[s]:
                    sides[s] |= 1 << self.index(name)
                    size += 1
            x, y = sides
            if size != len(masks) or x | y != (1 << len(masks)) - 1:
                raise DomainError("bipartition parts must cover every vertex exactly once")
            if any(masks[i] & (x if x >> i & 1 else y) for i in range(len(masks))):
                inner = next(e for e in self.edges if not (x >> self._index[e.u] ^ x >> self._index[e.v]) & 1)
                raise NotBipartiteError(f"edge {inner.id!r} joins two vertices of the same part")
            return x, y
        parent: list[int | None] = [None] * len(masks)
        side = [0, 0]  # the vertices of each color, as bitmasks
        for start in range(len(masks)):
            if (side[0] | side[1]) >> start & 1:
                continue
            side[0] |= 1 << start
            queue = [start]
            for v in queue:  # breadth first, neighbours in index order
                color = side[1] >> v & 1
                clash = masks[v] & side[color]
                if clash:
                    cycle = tuple(self.vertices[i] for i in _odd_cycle(parent, v, next(_bits(clash))))
                    raise NotBipartiteError(
                        f"graph is not bipartite: odd cycle {'-'.join(cycle)}",
                        odd_cycle=cycle,
                    )
                new = masks[v] & ~(side[0] | side[1])
                side[1 - color] |= new
                for w in _bits(new):
                    parent[w] = v
                    queue.append(w)
        return side[0], side[1]

    def biadjacency(self, parts: tuple[Iterable[str], Iterable[str]] | None = None) -> Biadjacency:
        """Multiplicity matrix over a bipartition (auto-detected by default)."""
        x, y = self._sides(self._neighbour_masks(), parts)
        rows, cols = tuple(self.vertices[i] for i in _bits(x)), tuple(self.vertices[i] for i in _bits(y))
        row_pos = {v: i for i, v in enumerate(rows)}
        col_pos = {v: i for i, v in enumerate(cols)}
        entries = [[0] * len(cols) for _ in rows]
        for e in self.edges:
            if e.u in row_pos:
                entries[row_pos[e.u]][col_pos[e.v]] += 1
            else:
                entries[row_pos[e.v]][col_pos[e.u]] += 1
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


def _odd_cycle(parent: list[int | None], v: int, w: int) -> list[int]:
    """Reconstruct the odd cycle closed by the conflicting edge (v, w)."""
    ancestors = []
    node: int | None = v
    while node is not None:
        ancestors.append(node)
        node = parent[node]
    ancestor_set = set(ancestors)
    path_w = []
    node = w
    while node not in ancestor_set:
        path_w.append(node)
        node = parent[node]  # type: ignore[index]
    meet = node
    path_v = ancestors[: ancestors.index(meet) + 1]
    return path_v + list(reversed(path_w))


def _bits(mask: int):
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


# An edge record as ``json.dumps(record, indent=2)`` writes it: strings go
# through json's own ASCII escaper, ``%r`` of a float (an edge holds exact
# floats) is ``float.__repr__`` as in json, and ``%d`` writes an int
# subclass such as an ``IntEnum`` mode as its number, as json does and
# ``%r`` would not.
_EDGE_TEXT = ('{\n  "id": %s,\n  "u": %s,\n  "v": %s,\n  "mode_u": %d,\n  "mode_v": %d,\n'
              '  "amp_mag": %r,\n  "amp_phase_rad": %r%s\n}')


def _edge_text(e: Edge) -> str:
    layer = "" if e.layer is None else ',\n  "layer": %d' % e.layer
    return _EDGE_TEXT % (_quote(e.id), _quote(e.u), _quote(e.v), e.mode_u, e.mode_v, e.amp_mag, e.amp_phase_rad, layer)


def _layout(value) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, with every
    edge in it as its edge record.  Objects need string keys.  A nested
    block is indented by one replace, since escaped strings hold no line
    break."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, Edge):
        return _edge_text(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ",\n".join([f"{_quote(key)}: {_layout(item)}" for key, item in value.items()])
        return "{\n  " + body.replace("\n", "\n  ") + "\n}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = ",\n".join(map(_layout, value))
        return "[\n  " + body.replace("\n", "\n  ") + "\n]"
    return json.dumps(value)


def serialize_graph(g: ExperimentGraph) -> str:
    """Canonical form: vertices in declaration order, edges sorted by id.
    Byte-identical across runs for equal graphs."""
    doc: dict = {"vertices": g.vertices}
    if g.measured:
        doc["measured"] = [v for v in g.vertices if v in g.measured]
    doc["edges"] = sorted(g.edges, key=lambda e: e.id)
    return _layout(doc) + "\n"


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


def _gnp_draws(n: int, seed: int) -> Iterator[float]:
    """An iterator, read once, over one draw of ``random.Random(seed)`` per
    vertex index pair ``i < j``, in row order; it builds no list.  Pair
    (i, j) is an edge of the G(n, p) sample of ``seed`` exactly when its draw
    is below p, so the samples of one seed are nested as p grows.  Every
    sampler of the package goes through here, so a graph and a bare count
    see the same edges for the same seed."""
    return starmap(random.Random(seed).random, repeat((), n * (n - 1) // 2))


def _gnp_pairs(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """The vertex index pairs ``i < j`` of a G(n, p) sample, in row order."""
    draws = iter(_gnp_draws(n, seed))
    return [(i, j) for i in range(n) for j in range(i + 1, n) if next(draws) < p]


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
