"""Post-selected multiphoton states as superpositions of coincidence covers.

Every cover contributes the product of its edge amplitudes to the ket whose
mode letters the cover's edge labels induce.  A measured vertex must receive
the same mode from both of its cover edges (projection onto the sum of
|i,i> outcomes of the joint measurement, all outcome phases fixed to +1) and
is dropped from the ket.  Kets list the non-measured vertices in declaration
order.

One kernel computes these sums: a memoized dynamic program over the
vertices still to be covered that returns, per ket, the summed amplitude of
all covers, without enumerating them (``_cover_sums``).  Like the cover
walk that lists explicit matchings in :mod:`photongraph.matching`, it keys
its memo on one int of what is left to cover and lists each edge at its
lower end only.  States, verification, frustration scans and the network
terms are built on it.

A graph's whole-graph cover sums are computed once, kept on the graph and
dropped with it (graphs are immutable).  ``state_from_graph``,
``verify_target``, ``network_state`` and ``network_amplitude`` all read
them, so asking several of these of one graph runs the kernel once; each
call still applies the scale guard and returns a state of its own.
``frustration_scan`` and the target search run the kernel on their own
edge sets (the graph less one edge, or a candidate's labels).

The kernel codes each ket as one integer; ``_decode`` turns codes into
kets by table lookups of several slots at a time, and a frustration scan
recomputes at each phase only the kets its edge reaches.

Amplitudes below ``AMP_TOL`` are pruned; state comparisons fix the global
phase by rotating the first nonzero amplitude (in ket order) onto the
positive real axis.  The scale guard is the enumeration guard of
:mod:`photongraph.matching`.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left
from functools import reduce
from itertools import combinations, product
from operator import add

from .errors import DomainError, FullyFrustratedError, GraphParseError
from .graph import Edge, ExperimentGraph, _Record, _expect, _float_value, _parse_json, vertex_names
from .matching import _check_scale, _covers, count_pm_formula

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
    """Kets of the given codes.  A ket's last c slots are read from one
    table of every c-slot mode tuple, c the largest for which radix**c is at
    most the number of codes, so the table is never larger than the output;
    its leading slots are decoded the same way.  Fewer codes than the radix
    are decoded slot by slot."""
    c = 0
    while c < length and radix ** (c + 1) <= len(codes):
        c += 1
    if not c:
        return [tuple(code // radix ** (length - 1 - s) % radix for s in range(length)) for code in codes]
    table = list(product(range(radix), repeat=c))
    if c == length:
        return [table[code] for code in codes]
    base = radix**c
    heads = _decode([code // base for code in codes], radix, length - c)
    return [head + table[code % base] for head, code in zip(heads, codes)]


def _cover_sums(measured: list[bool], edges, radix: int, forced: tuple = (None,)) -> list[dict[int, complex]]:
    """Summed cover amplitude per ket, by a memoized DP over what is left to
    cover.  No cover is enumerated.  Vertex i is measured if ``measured[i]``;
    ``edges`` are (i, j, mode_i, mode_j, amplitude) tuples with i < j.  Seeded
    with the int 1 and summed from the int 0, the sums keep the amplitudes'
    arithmetic: ints exactly, complex ones as a complex seed up to signed zeros.

    A ket is coded as the integer sum of mode * radix**(k - 1 - slot) over
    its k slots, so joining two partial kets is an addition and integer order
    is ket order.  The DP state is one int laid out as in ``_covers``: the
    vertices with need left (one incidence per plain vertex, two per measured
    one) in its low n bits, those needing two above them, and above those one
    field per vertex for the mode a half-covered measured vertex got first.
    Each step covers the lowest vertex with need completely: one edge for
    need 1; an unordered pair of edges with equal modes there for a measured
    vertex with need 2, so every cover is counted once.  An edge is listed at
    its lower end only, since lower vertices are covered already.

    One sums dict is returned per entry of ``forced``: for None, all covers
    of ``edges``; for an edge tuple not in ``edges``, only the covers of
    ``edges`` plus that edge which contain it, without its amplitude.  The
    entries start from different states of one DP and share its memo."""
    n = len(measured)
    weight = [0] * n
    for slot, i in enumerate(reversed([i for i in range(n) if not measured[i]])):
        weight[i] = radix**slot
    width = radix.bit_length()
    field = (1 << width) - 1
    shift = [2 * n + width * i for i in range(n)]

    # Per lower endpoint: (higher endpoint, own mode, its mode, ket code,
    # amplitude).
    incident: list[list[tuple]] = [[] for _ in range(n)]
    for i, j, mode_i, mode_j, amp in edges:
        incident[i].append((j, mode_i, mode_j, mode_i * weight[i] + mode_j * weight[j], amp))

    def place(state: int, w: int, mode: int) -> int:
        """``state`` after vertex ``w`` takes one incidence carrying ``mode``;
        -1 if it needs none or, measured, already holds a different mode.  A
        negative ``state`` gives a negative result, so placements chain."""
        bit = 1 << w
        if not state & bit:
            return -1
        if not measured[w]:
            return state ^ bit
        if state >> n & bit:
            return state ^ bit << n | mode << shift[w]
        if state >> shift[w] & field != mode:
            return -1
        return state ^ bit ^ mode << shift[w]

    memo: dict[int, dict[int, complex]] = {0: {0: 1}}

    def solve(state: int) -> dict[int, complex]:
        out = memo.get(state)
        if out is not None:
            return out
        out = {}
        low = state & -state
        v = low.bit_length() - 1
        if not measured[v]:
            steps = [(place(state ^ low, w, mode_w), code, amp) for w, _, mode_w, code, amp in incident[v]]
        elif state >> n & low:
            rest = state ^ low ^ low << n
            steps = [
                (place(place(rest, a[0], a[2]), b[0], b[2]), a[3] + b[3], a[4] * b[4])
                for a, b in combinations(incident[v], 2)
                if a[1] == b[1]
            ]
        else:
            first = state >> shift[v] & field
            rest = state ^ low ^ first << shift[v]
            steps = [(place(rest, w, mode_w), code, amp) for w, own, mode_w, code, amp in incident[v] if own == first]
        for nxt, code, amp in steps:
            if nxt >= 0:
                for sub_code, sub_amp in solve(nxt).items():
                    c = sub_code + code
                    out[c] = out.get(c, 0) + sub_amp * amp
        memo[state] = out
        return out

    full = (1 << n) - 1 | sum(1 << n + v for v in range(n) if measured[v])
    out = []
    for edge in forced:
        start, offset = full, 0
        if edge is not None:
            i, j, mode_i, mode_j, _ = edge
            start = place(place(full, i, mode_i), j, mode_j)
            offset = mode_i * weight[i] + mode_j * weight[j]
        out.append({code + offset: amp for code, amp in solve(start).items()})
    solve = None  # the closure refers to itself; drop the cycle before returning
    memo.clear()
    return out


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
        (raw,) = _cover_sums([v in g.measured for v in g.vertices], edges, radix)
        if not all(map(cmath.isfinite, raw.values())):
            raise DomainError("summed cover amplitudes overflow double precision", reason="overflow")
        codes = sorted(code for code, amp in raw.items() if abs(amp) > AMP_TOL)
        kets = _decode(codes, radix, len(g.ket_vertices))
        # As from a complex seed: complex, and no -0.0 part (Python 3.14 keeps it).
        sums = ({ket: raw[code] + 0j for ket, code in zip(kets, codes)}, sum(raw.values(), 0j))
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

    One kernel run, from two start states that share one memo, gives per
    ket B summed over the covers without the edge and A over the covers
    through it, less its amplitude a.  The ket's amplitude at a phase is
    B + a * A, and |B| at every phase for a ket the edge does not reach, so
    that ket's square is taken once.  So each phase costs one pass over the
    kets the edge reaches and one sum, over all kets in one fixed order, to
    which a ket at or below ``AMP_TOL`` adds 0.0."""
    edge = g.edge_by_id(edge_id)
    _check_scale(g, override_limits)
    measured = [v in g.measured for v in g.vertices]
    rest = _indexed(g, [e for e in g.edges if e.id != edge_id])
    (forced,) = _indexed(g, [edge])
    radix = _radix(rest + [forced])
    without, through = _cover_sums(measured, rest, radix, (None, forced))
    squares, reached = [], []
    for k in without.keys() | through.keys():
        if k in through:
            reached.append((len(squares), without.get(k, 0j), through[k]))
            squares.append(0.0)
        else:
            total = abs(without[k])
            squares.append(total * total if total > AMP_TOL else 0.0)
    out = []
    for phase in phases:
        phase = float(phase)
        if not math.isfinite(phase):
            raise DomainError(f"phase must be finite, got {phase}")
        amp = cmath.rect(edge.amp_mag, phase)
        row = squares.copy()
        for at, b, a in reached:
            total = abs(b + amp * a)
            row[at] = total * total if total > AMP_TOL else 0.0
        # Not sum(): from Python 3.12 it compensates and would move the last bits.
        intensity = reduce(add, row, 0.0)
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
    for each ket, a choice of vertex pairings - and tried by increasing total
    cover count and, within one level, in label order (sorted label tuples),
    so the first hit is deterministic.  Each edge label (i, j, mode_i,
    mode_j) is one bit, so a candidate is an int bitmask.  A level walks
    every ket but the last once into prefix unions, lists the last ket's
    choices once, and joins the two one group at a time: group f, the
    candidates whose lowest label is f, is built, sorted and tried before
    the next.  Label order compares lowest labels first, so this is the
    level's label order, and a (prefix, tail) pair is joined only in the
    group of the lower of their lowest labels.  On a candidate's unit labels
    the state kernel gives exact int cover counts.  A hit has the target's
    kets and counts proportional to the level's, by integer cross-products;
    only a hit becomes a graph, re-verified by ``verify_target``.

    A partial edge set is dropped, with all its supersets, (1) when even the
    fewest edges the remaining kets still need cannot fit the budget: n/2
    for one cover of a ket, n/2 + 2 for two or more, summed over remaining
    kets that pairwise agree in at most one slot (they share no edge), less
    the chosen edges that fit each ket; (2) when a vertex pair holds more
    than ``max_parallel`` labels; (3) when it holds an edge (i, j) of a
    pairing chosen for ket k and a parallel label on (i, j) that, swapped
    into that pairing, gives a ket outside the target: no cover cancels, so
    that ket would be in the state.  No bound drops a set that could hit,
    so the first hit is unchanged.  The pairings of K_n and the masks of
    (3), one per ket and pairing, are built once, at the first level that
    passes (1) at its root.  Every count is at least the scale and none
    falls as it grows, so the scale stops at the first level with more
    pairings than K_n has or more covers than ``max_edges`` edges host, or
    that fails (1) at its root; a target no level fits lists no pairing."""
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
    if any(abs(amp.imag) > AMP_TOL or amp.real <= 0 for amp in canon.terms.values()):
        return None
    amps = [canon.terms[ket].real for ket in kets]
    ratios = [a / min(amps) for a in amps]

    names = vertex_names(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairing_count = count_pm_formula(n // 2)
    # No graph within the edge budget hosts more distinct covers than this.
    cover_capacity = math.comb(max_edges, n // 2)

    # One bit per edge label, ranked in label order.
    labels = sorted({(i, j, ket[i], ket[j]) for ket in kets for i, j in pairs})
    bit = {label: 1 << r for r, label in enumerate(labels)}
    # Labels fitting each ket, and the parallel labels of each vertex pair.
    ket_mask = [sum(bit[i, j, ket[i], ket[j]] for i, j in pairs) for ket in kets]
    pair_mask = {(i, j): sum({bit[i, j, ket[i], ket[j]] for ket in kets}) for i, j in pairs}
    # Only a pair with more labels than ``max_parallel`` can break it.
    crowded = [m for m in pair_mask.values() if m.bit_count() > max_parallel]
    # Read from the lowest bit with set bits as "0", masks sort as their
    # label tuples: the first label in which two differ decides, and a
    # prefix sorts first.
    flip = str.maketrans("01", "10")
    # Target ket codes in ket order; a candidate's sums are int cover counts.
    radix = 1 + max(map(max, kets))
    codes = [sum(m * radix ** (n - 1 - s) for s, m in enumerate(ket)) for ket in kets]
    # Per ket, each pairing as (its labels, its foreign labels), built lazily.
    per_ket_options: list[list[tuple[int, int]]] = []

    # Per start index, a greedy set of the remaining kets that pairwise
    # agree in at most one slot.  Such kets share no edge label, so the
    # edges they still need add up.  Past the last ket the set is empty.
    spread: list[list[int]] = []
    for idx in range(len(kets) + 1):
        picked: list[int] = []
        for k in range(idx, len(kets)):
            if all(sum(x == y for x, y in zip(kets[k], kets[j])) <= 1 for j in picked):
                picked.append(k)
        spread.append(picked)

    for scale in range(1, min(pairing_count, cover_capacity // len(kets)) + 1):
        counts = [round(scale * r) for r in ratios]
        if any(abs(scale * r - c) > 1e-6 for r, c in zip(ratios, counts)):
            continue
        if max(counts) > pairing_count or sum(counts) > cover_capacity:
            break
        # Each chosen pairing puts at most one label on a pair.
        check_parallel = bool(crowded) and sum(counts) > max_parallel

        # Fewest edges hosting c covers of one ket: one pairing has n/2
        # edges, and two distinct pairings differ on even alternating cycles,
        # so a second one adds at least two.
        least = [n // 2 if c == 1 else n // 2 + 2 for c in counts]

        def needed(idx: int, union: int) -> int:
            return union.bit_count() + sum(max(0, least[k] - (union & ket_mask[k]).bit_count()) for k in spread[idx])

        def crowding(union: int) -> bool:
            return check_parallel and any((union & m).bit_count() > max_parallel for m in crowded)

        def grown(idx: int, bases) -> list[tuple[int, int, int]]:
            """(lowest label, union, foreign labels) of each union within the
            bounds of a base and ``counts[idx]`` pairings of ket idx, sorted."""
            options = per_ket_options[idx]
            partial = [(-1, union, banned) for _, union, banned in bases]
            for _ in range(counts[idx]):
                partial = [
                    (k, union, banned | options[k][1])
                    for after, prior, banned in partial
                    for k in range(after + 1, pairing_count)
                    if (union := prior | options[k][0]).bit_count() <= max_edges
                ]
            out: dict[int, int] = {}
            for _, union, banned in partial:
                out[union] = out.get(union, 0) | banned
            return sorted((u & -u, u, b) for u, b in out.items() if not (u & b or crowding(u)) and needed(idx + 1, u) <= max_edges)

        if needed(0, 0) > max_edges:
            break
        if not per_ket_options:
            all_pairings = _covers([1] * n, pairs, pairs)
            for ket in kets:
                # A label swapped into a cover of this ket for the edge on its
                # pair is foreign unless a target ket differs from it only there.
                foreign = dict(pair_mask)
                for other in kets:
                    diff = {s for s in range(n) if other[s] != ket[s]}
                    for i, j in pairs:
                        if diff <= {i, j}:
                            foreign[i, j] &= ~bit[i, j, other[i], other[j]]
                per_ket_options.append([(sum(bit[i, j, ket[i], ket[j]] for i, j in p), sum(map(foreign.get, p))) for p in all_pairings])

        # The empty prefix sorts after every lowest label.
        prefixes = [(1 << len(labels), 0, 0)]
        for idx in range(len(kets) - 1):
            prefixes = grown(idx, prefixes)
        tails = grown(len(kets) - 1, [(0, 0, 0)]) if prefixes else []
        for f in sorted({p[0] for p in prefixes + tails}):
            p_at, p_past = bisect_left(prefixes, (f,)), bisect_left(prefixes, (f + 1,))
            t_at, t_past = bisect_left(tails, (f,)), bisect_left(tails, (f + 1,))
            group = {
                union
                for heads, ends in ((prefixes[p_at:p_past], tails[t_at:]), (prefixes[p_past:], tails[t_at:t_past]))
                for (_, head, head_banned), (_, tail, tail_banned) in product(heads, ends)
                if (union := head | tail).bit_count() <= max_edges
                and not (head & tail_banned or tail & head_banned or crowding(union))
            }
            for mask in sorted(group, key=lambda m: bin(m)[:1:-1].translate(flip)):
                key = [label for r, label in enumerate(labels) if mask >> r & 1]
                (sums,) = _cover_sums([False] * n, [(*label, 1) for label in key], radix)
                if sorted(sums) != codes or any(sums[c] * counts[0] != sums[codes[0]] * k for c, k in zip(codes, counts)):
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
