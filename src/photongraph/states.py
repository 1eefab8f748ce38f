"""Post-selected multiphoton states as superpositions of coincidence covers.

Every cover contributes the product of its edge amplitudes to the ket whose
mode letters the cover's edge labels induce.  A measured vertex must receive
the same mode from both of its cover edges (projection onto the sum of
|i,i> outcomes of the joint measurement, all outcome phases fixed to +1) and
is dropped from the ket.  Kets list the non-measured vertices in declaration
order.

One kernel computes these sums: a memoized dynamic program over the
vertices still to be covered that returns, per ket, the summed amplitude of
all covers, without enumerating them (``_cover_sums``).  States,
verification, frustration scans and the network terms are built on it;
explicit matchings are listed by :mod:`photongraph.matching`.

A graph's whole-graph cover sums are computed once, kept on the graph and
dropped with it (graphs are immutable).  ``state_from_graph``,
``verify_target``, ``network_state`` and ``network_amplitude`` all read
them, so asking several of these of one graph runs the kernel once; each
call still applies the scale guard and returns a state of its own.
``frustration_scan`` and the target search run the kernel on their own
edge sets (the graph less one edge, or a candidate's labels).

Amplitudes below ``AMP_TOL`` are pruned; state comparisons fix the global
phase by rotating the first nonzero amplitude (in ket order) onto the
positive real axis.  The scale guard is the enumeration guard of
:mod:`photongraph.matching`.
"""

from __future__ import annotations

import cmath
import math
from itertools import combinations

from .errors import DomainError, FullyFrustratedError, GraphParseError
from .graph import Edge, ExperimentGraph, _Record, _expect, _float_value, _parse_json, vertex_names
from .matching import _check_scale, _covers

__all__ = [
    "AMP_TOL",
    "Ket",
    "QuantumState",
    "state_from_graph",
    "is_ghz_like",
    "states_equal",
    "verify_target",
    "search_graph_for_state",
    "frustration_scan",
    "parse_state",
    "serialize_state",
]

AMP_TOL = 1e-9

Ket = tuple[int, ...]


class QuantumState(_Record):
    """Map from ket (mode per non-measured vertex) to complex amplitude."""

    terms: dict[Ket, complex]
    normalized: bool

    def __init__(self, terms: dict[Ket, complex] | None = None, normalized: bool = False):
        self.terms = {} if terms is None else terms
        self.normalized = normalized

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.terms.values())

    def sorted_terms(self) -> list[tuple[Ket, complex]]:
        return sorted(self.terms.items())

    def pruned(self) -> "QuantumState":
        kept = {k: a for k, a in self.terms.items() if abs(a) > AMP_TOL}
        return QuantumState(kept, self.normalized)

    def canonical(self) -> "QuantumState":
        """Prune, then rotate the global phase so the first surviving
        amplitude (in ket order) is positive real."""
        state = self.pruned()
        if not state.terms:
            return state
        amp = state.terms[min(state.terms)]
        rotation = abs(amp) / amp
        return QuantumState({k: a * rotation for k, a in state.terms.items()}, state.normalized)


def states_equal(s1: QuantumState, s2: QuantumState, tol: float = AMP_TOL) -> bool:
    """Equality up to global phase: canonical forms match ket-for-ket with
    per-amplitude tolerance ``tol``.  Both sides are compared in place: the
    kets above ``AMP_TOL`` must agree, and each side is rotated by the phase
    that makes its amplitude at the first such ket positive real."""
    a, b = s1.terms, s2.terms
    kets = {k for k, amp in a.items() if abs(amp) > AMP_TOL}
    if kets != {k for k, amp in b.items() if abs(amp) > AMP_TOL}:
        return False
    if not kets:
        return True
    first = min(kets)
    ra, rb = abs(a[first]) / a[first], abs(b[first]) / b[first]
    return all(abs(a[k] * ra - b[k] * rb) <= tol for k in kets)


def _indexed(g: ExperimentGraph, edges) -> list[tuple]:
    """``edges`` of ``g`` as (i, j, mode_i, mode_j, amplitude) with vertex
    indices i < j, the form ``_cover_sums`` takes."""
    return [(g.index(e.u), g.index(e.v), e.mode_u, e.mode_v, e.amplitude) for e in edges]


def _radix(edges) -> int:
    """Base of the mixed-radix ket codes: one more than the largest mode."""
    return 1 + max((max(e[2], e[3]) for e in edges), default=0)


def _decode(codes: list[int], radix: int, length: int) -> list[Ket]:
    """Kets of the given codes, slot by slot from the last."""
    columns = []
    for _ in range(length):
        columns.append([code % radix for code in codes])
        codes = [code // radix for code in codes]
    return list(zip(*reversed(columns))) if columns else [()] * len(codes)


def _cover_sums(measured: list[bool], edges, radix: int, forced: tuple | None = None) -> dict[int, complex]:
    """Summed cover amplitude per ket, by a memoized DP over what is left to
    cover.  No cover is enumerated.  Vertex i is measured if ``measured[i]``;
    ``edges`` are (i, j, mode_i, mode_j, amplitude) tuples with i < j.

    A ket is coded as the integer sum of mode * radix**(k - 1 - slot) over
    its k slots, so joining two partial kets is an addition and integer order
    is ket order.  The DP state is the set of vertices with need left (one
    incidence per plain vertex, two per measured one), the measured vertices
    that are half covered, and the first mode each of those received.  Each
    step covers the lowest vertex with need completely: one edge for need 1;
    an unordered pair of edges with equal modes there for a measured vertex
    with need 2, so every cover is counted once.  Edges to lower vertices are
    never candidates, since those are covered already.

    With ``forced`` (an edge tuple not in ``edges``), only covers of
    ``edges`` plus that edge which contain it are summed, without its
    amplitude."""
    n = len(measured)
    weight = [0] * n
    slot = sum(not m for m in measured)
    for i in range(n):
        if not measured[i]:
            slot -= 1
            weight[i] = radix**slot
    # Pending first modes of half-covered measured vertices, packed into an
    # integer with one field per vertex.
    width = radix.bit_length()
    field = (1 << width) - 1
    shift = [width * i for i in range(n)]

    # Per lower endpoint: (higher endpoint, own mode, its mode, ket code,
    # amplitude).
    incident: list[list[tuple]] = [[] for _ in range(n)]
    for i, j, mode_i, mode_j, amp in edges:
        incident[i].append((j, mode_i, mode_j, mode_i * weight[i] + mode_j * weight[j], amp))

    def place(w: int, mode: int, rem: int, half: int, pend: int):
        """Give vertex ``w`` one incidence carrying ``mode``; None if it
        needs none or, measured, already holds a different mode."""
        bit = 1 << w
        if not rem & bit:
            return None
        if not measured[w]:
            return rem ^ bit, half, pend
        if not half & bit:
            return rem, half | bit, pend | mode << shift[w]
        if pend >> shift[w] & field != mode:
            return None
        return rem ^ bit, half ^ bit, pend & ~(field << shift[w])

    memo: dict[int, dict[int, complex]] = {}

    def solve(rem: int, half: int, pend: int) -> dict[int, complex]:
        if not rem:
            return {0: 1 + 0j}
        key = rem | (half | pend << n) << n
        out = memo.get(key)
        if out is not None:
            return out
        out = {}
        v = (rem & -rem).bit_length() - 1
        bit = 1 << v
        branches = []
        if not measured[v]:
            for w, _, mode_w, code, amp in incident[v]:
                branches.append((place(w, mode_w, rem ^ bit, half, pend), code, amp))
        elif half & bit:
            first = pend >> shift[v] & field
            rest = (rem ^ bit, half ^ bit, pend & ~(field << shift[v]))
            for w, mode_v, mode_w, code, amp in incident[v]:
                if mode_v == first:
                    branches.append((place(w, mode_w, *rest), code, amp))
        else:
            for a, b in combinations(incident[v], 2):
                if a[1] != b[1]:
                    continue
                nxt = place(a[0], a[2], rem ^ bit, half, pend)
                if nxt is not None:
                    branches.append((place(b[0], b[2], *nxt), a[3] + b[3], a[4] * b[4]))
        for nxt, code, amp in branches:
            if nxt is None:
                continue
            for sub_code, sub_amp in solve(*nxt).items():
                c = sub_code + code
                out[c] = out.get(c, 0j) + sub_amp * amp
        memo[key] = out
        return out

    start = ((1 << n) - 1, 0, 0)
    offset = 0
    if forced is not None:
        i, j, mode_i, mode_j, _ = forced
        start = place(j, mode_j, *place(i, mode_i, *start))
        offset = mode_i * weight[i] + mode_j * weight[j]
    sums = {code + offset: amp for code, amp in solve(*start).items()}
    memo.clear()
    return sums


def _graph_sums(g: ExperimentGraph) -> tuple[dict[Ket, complex], complex]:
    """The pruned, unnormalized terms of ``g`` in ket order, and the sum of
    all its cover sums, nothing pruned, in the kernel's summation order.

    The one whole-graph kernel run: its result is kept on ``g`` and read by
    every later call.  Sums that overflow are refused and kept nowhere.
    Two threads filling it at once compute equal sums, and the slot holds
    either nothing or one complete result."""
    sums = g._sums
    if sums is None:
        edges = _indexed(g, g.edges)
        radix = _radix(edges)
        raw = _cover_sums([v in g.measured for v in g.vertices], edges, radix)
        if not all(map(cmath.isfinite, raw.values())):
            raise DomainError("summed cover amplitudes overflow double precision", reason="overflow")
        codes = sorted(code for code, amp in raw.items() if abs(amp) > AMP_TOL)
        kets = _decode(codes, radix, len(g.ket_vertices))
        sums = ({ket: raw[code] for ket, code in zip(kets, codes)}, sum(raw.values(), 0j))
        object.__setattr__(g, "_sums", sums)
    return sums


def state_from_graph(
    g: ExperimentGraph, normalize: bool = False, *, override_limits: bool = False
) -> QuantumState:
    """Coherent superposition of all coincidence covers of ``g``.

    Cover amplitudes summing to (numerically) zero for a ket cancel out and
    the ket is dropped.  With ``normalize`` the total weight is scaled to 1;
    if everything cancelled there is nothing to normalize and a
    fully-frustrated error is raised."""
    _check_scale(g, override_limits)
    terms, _ = _graph_sums(g)
    if not normalize:
        return QuantumState(dict(terms))
    norm = math.hypot(*map(abs, terms.values()))
    if not math.isfinite(norm):
        raise DomainError("the state's norm overflows double precision", reason="overflow")
    if norm <= AMP_TOL:
        raise FullyFrustratedError("all coincidence amplitudes cancel; the state cannot be normalized")
    return QuantumState({k: a / norm for k, a in terms.items()}, normalized=True)


def _cover_amplitude_sum(g: ExperimentGraph, *, override_limits: bool = False) -> complex:
    """Sum over all coincidence covers of their amplitudes, nothing pruned."""
    _check_scale(g, override_limits)
    _, total = _graph_sums(g)
    if not cmath.isfinite(total):
        raise DomainError("summed cover amplitudes overflow double precision", reason="overflow")
    return total


def is_ghz_like(state: QuantumState) -> bool:
    """True iff all term magnitudes are equal (within tolerance) and every
    pair of kets differs at every position."""
    if not state.terms:
        raise DomainError("state has no terms")
    kets = sorted(state.terms)
    mags = [abs(state.terms[k]) for k in kets]
    if max(mags) - min(mags) > AMP_TOL:
        return False
    for a, b in combinations(kets, 2):
        if any(x == y for x, y in zip(a, b)):
            return False
    return True


def _unit_target(target: QuantumState) -> QuantumState:
    """``target`` scaled to unit norm: a target names a ray, so a state
    document written without ``--normalize`` means the same state.  A
    target of unit norm (within ``AMP_TOL``) comes back as it is, and so
    does an all-zero one (no amplitude above ``AMP_TOL``)."""
    mags = [abs(a) for a in target.terms.values()]
    peak = max(mags, default=0.0)
    if peak <= AMP_TOL:
        return target
    # Taken relative to the largest magnitude, the norm cannot overflow.
    norm = math.hypot(*(m / peak for m in mags))
    if abs(peak * norm - 1) <= AMP_TOL:
        return target
    return QuantumState({k: a / peak / norm for k, a in target.terms.items()}, normalized=True)


def verify_target(
    g: ExperimentGraph, target: QuantumState, *, override_limits: bool = False
) -> bool:
    """Does the normalized state of ``g`` equal ``target`` up to a global
    phase (1e-9 per amplitude)?

    The target is scaled to unit norm first, so any multiple of a state
    names that state.  An all-zero target (no amplitude above ``AMP_TOL``)
    matches only a fully frustrated graph, whose covers all cancel."""
    target = _unit_target(target)
    try:
        state = state_from_graph(g, normalize=True, override_limits=override_limits)
    except FullyFrustratedError:
        return not target.pruned().terms
    return states_equal(state, target)


def frustration_scan(
    g: ExperimentGraph,
    edge_id: str,
    phases,
    *,
    override_limits: bool = False,
) -> list[tuple[float, float]]:
    """Sweep one edge's amplitude phase and report the total unnormalized
    intensity (sum of |amplitude|^2) at each value.

    Two kernel runs give, per ket, B summed over the covers without the edge
    and A over the covers through it, less its amplitude a.  The ket's
    amplitude at a phase is B + a * A, so each phase costs one pass over the
    kets."""
    edge = g.edge_by_id(edge_id)
    _check_scale(g, override_limits)
    measured = [v in g.measured for v in g.vertices]
    rest = _indexed(g, [e for e in g.edges if e.id != edge_id])
    (forced,) = _indexed(g, [edge])
    radix = _radix(rest + [forced])
    without = _cover_sums(measured, rest, radix)
    through = _cover_sums(measured, rest, radix, forced=forced)
    pairs = [(without.get(k, 0j), through.get(k, 0j)) for k in without.keys() | through.keys()]
    out = []
    for phase in phases:
        phase = float(phase)
        if not math.isfinite(phase):
            raise DomainError(f"phase must be finite, got {phase}")
        amp = cmath.rect(edge.amp_mag, phase)
        intensity = 0.0
        for b, a in pairs:
            total = abs(b + amp * a)
            if total > AMP_TOL:
                intensity += total * total
        if not math.isfinite(intensity):
            raise DomainError(f"intensity at phase {phase:g} overflows double precision", reason="overflow")
        out.append((phase, intensity))
    return out


# ---------------------------------------------------------------------------
# target-state search over small multigraphs
# ---------------------------------------------------------------------------

def search_graph_for_state(
    target: QuantumState,
    *,
    max_edges: int = 8,
    max_mode: int = 3,
    max_parallel: int = 4,
) -> ExperimentGraph | None:
    """Exhaustive search for a unit-amplitude multigraph whose normalized
    state equals ``target``; returns None when the bounded space is
    exhausted.  The target is scaled to unit norm first, so any multiple of
    a state names that state; an all-zero target (no amplitude above
    ``AMP_TOL``) names no graph's state and gives None.

    Search space: graphs with at most one edge per (vertex pair, mode pair),
    so parallel edges differ in their mode labels.  Since edge amplitudes are
    all +1, no cancellation can occur: every cover's ket must be a target ket
    and the per-ket cover counts must be proportional to the target
    magnitudes.  Candidates are therefore assembled directly from covers -
    for each ket, a choice of vertex pairings - with the implied edge set
    kept within the bounds.  Candidates are tried by increasing total cover
    count and, within one level, by canonical edge-set order (sorted label
    tuples), so the first hit is deterministic.  Each edge label
    (i, j, mode_i, mode_j) is one bit, so a candidate is an int bitmask
    ordered exactly as its label tuple; the state kernel runs on its labels,
    and only a candidate whose state matches becomes a graph, re-verified
    with ``verify_target``.

    A partial edge set is dropped when even the fewest edges the remaining
    kets still need cannot fit the budget: n/2 edges for one cover of a ket,
    n/2 + 2 for two or more, summed over remaining kets that pairwise agree
    in at most one slot (such kets share no edge), less the edges already
    chosen that fit each ket.  The bound never drops a candidate within the
    budget, so the first hit is unchanged."""
    for name, bound in (("max_edges", max_edges), ("max_mode", max_mode), ("max_parallel", max_parallel)):
        if bound < 0:
            raise DomainError(f"{name} must be nonnegative, got {bound}")
    target = _unit_target(target)
    canon = target.canonical()
    kets = sorted(canon.terms)
    if not kets:
        return None
    n = len(kets[0])
    if any(len(k) != n for k in kets) or n == 0 or n % 2 != 0:
        return None
    if max(max(k) for k in kets) > max_mode:
        return None
    # Unit-amplitude covers add up in phase, so target amplitudes must sit on
    # the positive real axis after canonicalization.
    amps = []
    for ket in kets:
        amp = canon.terms[ket]
        if abs(amp.imag) > AMP_TOL or amp.real <= 0:
            return None
        amps.append(amp.real)

    smallest = min(amps)
    ratios = [a / smallest for a in amps]

    names = vertex_names(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    all_pairings = [[pairs[k] for k in cover] for cover in _covers([1] * n, pairs)]
    pairing_count = len(all_pairings)
    # No graph within the edge budget hosts more distinct covers than this.
    cover_capacity = math.comb(max_edges, n // 2)

    # One bit per edge label, ranked in label order.
    labels = sorted({(i, j, ket[i], ket[j]) for ket in kets for p in all_pairings for i, j in p})
    bit = {label: 1 << r for r, label in enumerate(labels)}
    per_ket_options = [[sum(bit[i, j, ket[i], ket[j]] for i, j in p) for p in all_pairings] for ket in kets]
    # Labels fitting each ket, and the parallel labels of each vertex pair.
    ket_mask = [sum(b for (i, j, mi, mj), b in bit.items() if ket[i] == mi and ket[j] == mj) for ket in kets]
    pair_mask: dict[tuple[int, int], int] = {}
    for (i, j, _, _), b in bit.items():
        pair_mask[i, j] = pair_mask.get((i, j), 0) | b
    # Read from the lowest bit with set bits as "0", masks sort as their
    # label tuples: the first label in which two differ decides, and a
    # prefix sorts first.
    flip = str.maketrans("01", "10")
    # Target ket codes; a candidate's sums are positive cover counts.
    radix = 1 + max(map(max, kets))
    want = {sum(m * radix ** (n - 1 - s) for s, m in enumerate(ket)): a for ket, a in zip(kets, amps)}

    # Per start index, a greedy set of the remaining kets that pairwise
    # agree in at most one slot.  Such kets share no edge label, so the
    # edges they still need add up.
    spread: list[list[int]] = []
    for idx in range(len(kets)):
        picked: list[int] = []
        for k in range(idx, len(kets)):
            if all(sum(x == y for x, y in zip(kets[k], kets[j])) <= 1 for j in picked):
                picked.append(k)
        spread.append(picked)

    for scale in range(1, pairing_count + 1):
        counts = []
        for r in ratios:
            c = scale * r
            rounded = round(c)
            if abs(c - rounded) > 1e-6 or rounded < 1 or rounded > pairing_count:
                counts = []
                break
            counts.append(rounded)
        if not counts or sum(counts) > cover_capacity:
            continue
        # Each chosen pairing puts at most one label on a pair.
        check_parallel = sum(counts) > max_parallel

        # Fewest edges hosting c covers of one ket: one pairing has n/2
        # edges, and two distinct pairings differ on even alternating cycles,
        # so a second one adds at least two.
        least = [n // 2 if c == 1 else n // 2 + 2 for c in counts]
        candidates: set[int] = set()

        def extend(idx: int, union: int):
            still_needed = sum(max(0, least[k] - (union & ket_mask[k]).bit_count()) for k in spread[idx])
            if union.bit_count() + still_needed > max_edges:
                return
            for combo in combinations(per_ket_options[idx], counts[idx]):
                new_union = union
                for option in combo:
                    new_union |= option
                if new_union.bit_count() > max_edges or check_parallel and any(
                    (new_union & m).bit_count() > max_parallel for m in pair_mask.values()
                ):
                    continue
                if idx + 1 < len(kets):
                    extend(idx + 1, new_union)
                else:
                    candidates.add(new_union)

        extend(0, 0)
        for mask in sorted(candidates, key=lambda m: bin(m)[:1:-1].translate(flip)):
            key = [label for r, label in enumerate(labels) if mask >> r & 1]
            sums = _cover_sums([False] * n, [(*label, 1) for label in key], radix)
            if sums.keys() != want.keys():
                continue
            norm = math.hypot(*map(abs, sums.values()))
            if any(abs(abs(sums[c]) / norm - a) > 2 * AMP_TOL for c, a in want.items()):
                continue
            edges = [Edge(f"e{k}", names[i], names[j], mi, mj) for k, (i, j, mi, mj) in enumerate(key)]
            graph = ExperimentGraph(names, edges)
            if verify_target(graph, target):
                return graph
    return None


# ---------------------------------------------------------------------------
# state files
# ---------------------------------------------------------------------------

def serialize_state(state: QuantumState) -> str:
    """Canonical state document: a JSON list of term objects sorted by ket,
    laid out as ``json.dumps(records, indent=2)`` by one template per ket
    length; ``%r`` of a finite float is what ``json`` writes, and ``atan2``
    is ``cmath.phase`` without its error where the angle underflows."""
    terms = state.sorted_terms()
    try:
        mags = [abs(amp) for _, amp in terms]
    except OverflowError:
        mags = [math.inf]
    if not all(map(math.isfinite, mags)):  # NaN or Infinity would not read back
        raise DomainError("a state amplitude is not a finite number", reason="overflow")
    templates = {}
    for n in {len(ket) for ket in state.terms}:
        modes = "\n" + ",\n".join(["      %d"] * n) + "\n    " if n else ""
        templates[n] = '  {\n    "modes": [' + modes + '],\n    "amp_mag": %r,\n    "amp_phase_rad": %r\n  }'
    rows = [
        templates[len(ket)] % (*ket, mag, math.atan2(amp.imag, amp.real)) for (ket, amp), mag in zip(terms, mags)
    ]
    return "[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n"


def parse_state(text: str) -> QuantumState:
    """A state document read back; a term's first fault is a located
    ``GraphParseError``, whose location is formatted only then."""
    doc = _parse_json(text, "<state>")
    _expect(isinstance(doc, list), "state document must be a list of terms", "<state>")
    terms: dict[Ket, complex] = {}
    length = None
    for i, rec in enumerate(doc):
        if type(rec) is not dict or "modes" not in rec:
            raise GraphParseError("term must be an object with a modes list", location=f"terms[{i}]")
        modes = rec["modes"]
        if type(modes) is not list:
            raise GraphParseError("modes must be a list of nonnegative integers", location=f"terms[{i}].modes")
        if not all(type(m) is int and m >= 0 for m in modes):
            raise GraphParseError("mode must be a nonnegative integer", location=f"terms[{i}].modes")
        ket = tuple(modes)
        length = len(ket) if length is None else length
        if len(ket) != length:
            raise GraphParseError("all terms must have the same ket length", location=f"terms[{i}].modes")
        if ket in terms:
            raise GraphParseError(f"duplicate ket {modes}", location=f"terms[{i}].modes")
        mag, phase = rec.get("amp_mag", 1.0), rec.get("amp_phase_rad", 0.0)
        if type(mag) is not float or not -math.inf < mag < math.inf:
            mag = _float_value(mag, f"terms[{i}].amp_mag")
        if type(phase) is not float or not -math.inf < phase < math.inf:
            phase = _float_value(phase, f"terms[{i}].amp_phase_rad")
        if mag < 0:
            raise GraphParseError("amp_mag must be >= 0", location=f"terms[{i}].amp_mag")
        terms[ket] = cmath.rect(mag, phase)
    return QuantumState(terms)
