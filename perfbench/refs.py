"""Independent reference answers.

Nothing here imports ``photongraph``: graphs are plain tuples
``(vertices, edges, measured)`` with edges ``(id, u, v, mode_u, mode_v,
amplitude)``, and every routine is a naive, separately written algorithm or
a closed form.  Where a check in a workload calls one program kernel to
check another (the hafnian against the state kernel, the permanent against
the hafnian), that is said at the call site.
"""

from __future__ import annotations

import hashlib
import math
import random
from itertools import combinations

AMP_TOL = 1e-9


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def complete_pm_count(n: int) -> int:
    """(n-1)!! perfect matchings of K_n, n even."""
    out = 1
    for k in range(n - 1, 0, -2):
        out *= k
    return out


def complete_disjoint_pms(n: int) -> int:
    """K_n (n even) has n-1 pairwise edge-disjoint perfect matchings."""
    return n - 1


K8_FACTORIZATIONS = 6240


def ghz_dimension(n: int) -> int:
    """Largest GHZ dimension of an n-photon simple graph (Krenn, Gu and
    Zeilinger 2017): 3 for n = 4, 2 for every larger even n."""
    return 3 if n == 4 else 2


def round_robin(n: int) -> list[list[tuple[int, int]]]:
    """The n-1 rounds of the circle-method 1-factorization of K_n."""
    rounds = []
    m = n - 1
    for r in range(m):
        pairs = [(r, n - 1)]
        for k in range(1, n // 2):
            pairs.append(((r + k) % m, (r - k) % m))
        rounds.append([(min(a, b), max(a, b)) for a, b in pairs])
    return rounds


# ---------------------------------------------------------------------------
# sampling, as documented for random_graph and trial_seed
# ---------------------------------------------------------------------------

def trial_seed(seed: int, trial: int) -> int:
    digest = hashlib.sha256(f"{seed}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def gnp_adjacency(n: int, p: float, seed: int) -> list[int]:
    """Neighbour bitsets of the G(n, p) sample: edges drawn in (i, j), i < j
    order from ``random.Random(seed)``."""
    rng = random.Random(seed)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def count_pm_bits(adj: list[int]) -> int:
    """Perfect matchings of a simple graph given as neighbour bitsets; the
    lowest free vertex is matched first, memoized on the free set."""
    n = len(adj)
    if n % 2:
        return 0
    memo = {0: 1}

    def rec(free: int) -> int:
        hit = memo.get(free)
        if hit is not None:
            return hit
        low = free & -free
        v = low.bit_length() - 1
        rest = free ^ low
        total = 0
        cand = adj[v] & rest
        while cand:
            bit = cand & -cand
            cand ^= bit
            total += rec(rest ^ bit)
        memo[free] = total
        return total

    return rec((1 << n) - 1)


def ensemble_histogram(n: int, p: float, trials: int, seed: int) -> dict[int, int]:
    hist: dict[int, int] = {}
    for t in range(trials):
        count = count_pm_bits(gnp_adjacency(n, p, trial_seed(seed, t)))
        hist[count] = hist.get(count, 0) + 1
    return dict(sorted(hist.items()))


# ---------------------------------------------------------------------------
# covers and states by brute force
# ---------------------------------------------------------------------------

def covers(vertices, edges, measured=()) -> list[tuple[int, ...]]:
    """Every edge subset that covers plain vertices once and measured
    vertices twice, as tuples of edge positions.  Exhaustive over subsets of
    the right size, so only for small graphs."""
    need = {v: (2 if v in measured else 1) for v in vertices}
    size = sum(need.values())
    if size % 2:
        return []
    out = []
    for combo in combinations(range(len(edges)), size // 2):
        deg = dict.fromkeys(vertices, 0)
        for k in combo:
            deg[edges[k][1]] += 1
            deg[edges[k][2]] += 1
        if deg == need:
            out.append(combo)
    return out


def brute_state(vertices, edges, measured=(), normalize=True) -> dict[tuple[int, ...], complex]:
    """Post-selected state: each cover adds the product of its amplitudes to
    the ket of its modes; a measured vertex needs equal modes on both of its
    cover edges and leaves the ket."""
    ket_vertices = [v for v in vertices if v not in measured]
    terms: dict[tuple[int, ...], complex] = {}
    for cover in covers(vertices, edges, measured):
        modes: dict[str, list[int]] = {}
        amp = 1 + 0j
        for k in cover:
            _, u, v, mu, mv, a = edges[k]
            modes.setdefault(u, []).append(mu)
            modes.setdefault(v, []).append(mv)
            amp *= a
        if any(len(set(ms)) != 1 for ms in modes.values()):
            continue
        ket = tuple(modes[v][0] for v in ket_vertices)
        terms[ket] = terms.get(ket, 0j) + amp
    terms = {k: a for k, a in terms.items() if abs(a) > AMP_TOL}
    if normalize and terms:
        norm = math.sqrt(sum(abs(a) ** 2 for a in terms.values()))
        terms = {k: a / norm for k, a in terms.items()}
    return terms


def same_state_up_to_phase(a: dict, b: dict, tol: float = 1e-9) -> bool:
    """Equal kets and amplitudes after rotating b onto a's global phase."""
    if set(a) != set(b):
        return False
    if not a:
        return True
    ket = max(a, key=lambda k: abs(a[k]))
    if abs(b[ket]) == 0:
        return False
    rot = (a[ket] / abs(a[ket])) / (b[ket] / abs(b[ket]))
    return all(abs(a[k] - b[k] * rot) <= tol for k in a)


# ---------------------------------------------------------------------------
# matchings and witnesses
# ---------------------------------------------------------------------------

def is_perfect_matching(vertices, edges, ids) -> bool:
    by_id = {e[0]: e for e in edges}
    seen: list[str] = []
    for i in ids:
        if i not in by_id:
            return False
        seen += [by_id[i][1], by_id[i][2]]
    return sorted(seen) == sorted(vertices)


def odd_components(vertices, edges, removed) -> list[frozenset]:
    """Odd components left after deleting ``removed``, by union-find."""
    parent = {v: v for v in vertices if v not in removed}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in edges:
        u, v = e[1], e[2]
        if u in parent and v in parent:
            parent[find(u)] = find(v)
    groups: dict[str, set] = {}
    for v in parent:
        groups.setdefault(find(v), set()).add(v)
    return [frozenset(g) for g in groups.values() if len(g) % 2 == 1]


def neighborhood(edges, subset) -> set[str]:
    subset = set(subset)
    out = set()
    for e in edges:
        if e[1] in subset:
            out.add(e[2])
        if e[2] in subset:
            out.add(e[1])
    return out


def sinusoid_residual(phases, values) -> float:
    """Largest misfit of the best a + b cos(x) + c sin(x) through the points,
    relative to the largest value.  The intensity of a sweep over one edge's
    phase has exactly this form."""
    rows = [(1.0, math.cos(x), math.sin(x)) for x in phases]
    ata = [[sum(r[i] * r[j] for r in rows) for j in range(3)] for i in range(3)]
    aty = [sum(r[i] * y for r, y in zip(rows, values)) for i in range(3)]
    coef = _solve3(ata, aty)
    scale = max(1.0, max(abs(y) for y in values))
    return max(abs(sum(c * r for c, r in zip(coef, row)) - y) for row, y in zip(rows, values)) / scale


def _solve3(a, b):
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for col in range(3):
        pivot = max(range(col, 3), key=lambda r: abs(m[r][col]))
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(3):
            if r != col:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[i][3] / m[i][i] for i in range(3)]
