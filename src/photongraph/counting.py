"""Exact hafnian and permanent kernels.

The hafnian of a symmetric matrix with zero diagonal sums, over all perfect
pairings of the indices, the products of the paired entries; on an adjacency
matrix it counts perfect matchings.  The permanent does the same job for the
biadjacency matrix of a bipartite graph.  Both are #P-hard, so the kernels
are exact and refuse oversized inputs instead of approximating.

The hafnian and the perfect-matching counts of the G(n, p) ensemble share
one counter, which works level by level: each level covers the lowest
vertex still uncovered in every live set of uncovered vertices and carries
the set's ways, combined with the entry of each pair that covers it, into
the set left over, so only two levels are held at a time.  The hafnian
combines by multiplication, so each term's product is formed left to
right, from the pair of vertex 0 on.  The ensemble, whose graphs are
simple, combines by ``&``: one pass counts any family of simple graphs on
the same vertices, such as the graphs of a batch of G(n, p) trials at every
p of a scan, since each count packs one field per graph into one integer
and each vertex pair carries the mask of the fields whose graph holds it.

Integer matrices are computed in arbitrary-precision integer arithmetic
(counts overflow 64 bits near order 20).  Complex and float entries must
be finite and use double precision; results should be compared at a 1e-9
tolerance.
"""

from __future__ import annotations

import cmath
from itertools import chain, compress
from operator import mul

from .errors import DomainError, NotBipartiteError, ScaleLimitError
from .graph import ExperimentGraph

__all__ = [
    "hafnian",
    "permanent",
    "matrix_counts",
    "HAFNIAN_ORDER_LIMIT",
    "PERMANENT_ORDER_LIMIT",
]

HAFNIAN_ORDER_LIMIT = 24
PERMANENT_ORDER_LIMIT = 20


def _validate_square(matrix) -> int:
    if not isinstance(matrix, (list, tuple)):
        raise DomainError("matrix must be a list of rows")
    n = len(matrix)
    for i, row in enumerate(matrix):
        if not isinstance(row, (list, tuple)):
            raise DomainError("matrix must be a list of rows")
        if len(row) != n:
            raise DomainError(f"matrix must be square, got a row of length {len(row)} for order {n}")
        for j, entry in enumerate(row):
            if isinstance(entry, (float, complex)) and not cmath.isfinite(entry):
                raise DomainError(f"matrix entry ({i},{j}) is not finite: {entry!r}")
    return n


def _check_hafnian_order(n: int) -> None:
    if n > HAFNIAN_ORDER_LIMIT:
        raise ScaleLimitError(f"hafnian order {n} exceeds the guard (<= {HAFNIAN_ORDER_LIMIT})")


def _finite(kernel, *args):
    """``kernel(*args)``.  Integer results are exact; a float or complex one
    must be finite, and an integer too large for a double that meets a float
    entry overflows too."""
    try:
        result = kernel(*args)
    except OverflowError:
        result = cmath.inf
    if isinstance(result, (float, complex)) and not cmath.isfinite(result):
        raise DomainError("result overflows double precision", reason="overflow")
    return result


def hafnian(matrix, *, override_limits: bool = False):
    """Sum over all perfect pairings {(i1,j1),...} of prod matrix[i][j].

    The level-by-level matching counter multiplies the entries right of the
    diagonal along every perfect pairing of nonzero entries, so sparse
    adjacency matrices stay fast.  Requires an even order, exact symmetry
    and a zero diagonal.  The result takes the widest type of all the
    matrix's entries, int < float < complex (bool counts as int), so a
    relabelling, which permutes the entries, cannot change it, and a float
    matrix with no perfect pairing gives 0.0."""
    n = _validate_square(matrix)
    if n % 2 != 0:
        raise DomainError(f"hafnian needs an even order, got {n}")
    if not override_limits:
        _check_hafnian_order(n)
    for i, row in enumerate(matrix):
        if row[i] != 0:
            raise DomainError(f"hafnian needs a zero diagonal, entry ({i},{i}) is {row[i]!r}")
        for j in range(i + 1, n):
            if row[j] != matrix[j][i]:
                raise DomainError(f"matrix is not symmetric at ({i},{j})")
    return _finite(lambda: _matching_sum(matrix, 1, mul) + _widest_zero(matrix))


def _widest_zero(matrix):
    """0 of the widest type among all the matrix's entries, int < float <
    complex: added to a kernel's result, it gives the result that type
    whatever the order in which the kernel met the entries."""
    return sum(kind() for kind in set(map(type, chain.from_iterable(matrix))))


def _matching_sum(entries: list[list], start, combine):
    """Sum, over the perfect matchings of ``len(entries)`` vertices (an even
    number) by pairs with a nonzero entry, of ``start`` combined with each
    matched pair's entry in turn, lowest vertex first.  ``entries[i][j]``,
    for i < j, is the entry of pair (i, j) (0 if none); only these are
    read.

    ``hafnian`` combines by multiplication.  The G(n, p) scans count a
    family of simple graphs on the same vertices in one pass, packed one
    field per graph into one integer: an entry masks the fields of the
    graphs that hold the pair, ``start`` holds one way into each graph's
    field, and they combine by ``&``.  Each field must be wide enough for
    (n - 1)!!, the most matchings of any set of at most n vertices, so no
    carry crosses fields.

    Each level covers the lowest vertex still uncovered in every live set
    of uncovered vertices, one pair at a time, and adds the set's combined
    ways into the set left over; a zero is dropped, so a packed count lives
    only in the sets that some graph reaches.  After n / 2 levels only the
    empty set is left, holding the sum, or none: then the sum is 0."""
    n = len(entries)
    bits = [1 << j for j in range(n)]
    pairs = []  # per vertex, the bit of each later vertex it has a nonzero entry with, and the entry
    for i, row in enumerate(entries):
        later = row[i + 1:]
        pairs.append(list(compress(zip(bits[i + 1:], later), later)))
    level = {(1 << n) - 1: start}
    for _ in range(n // 2):
        following = {}
        get = following.get
        for live, ways in level.items():
            low = live & -live
            rest = live ^ low
            for bit, entry in pairs[low.bit_length() - 1]:
                if bit & rest:
                    kept = combine(ways, entry)
                    if kept:
                        left = rest ^ bit
                        following[left] = get(left, 0) + kept
        level = following
    return level.get(0, 0)


def permanent(matrix, *, override_limits: bool = False):
    """Ryser inclusion-exclusion with Gray-code column updates:
    perm(A) = (-1)^n sum_{S nonempty} (-1)^{|S|} prod_i sum_{j in S} a_ij.

    Exact for integer inputs; O(2^n * n) time.  As for :func:`hafnian`, the
    result takes the widest type of all the matrix's entries, so permuting
    rows or columns, or transposing, cannot change it."""
    n = _validate_square(matrix)
    if not override_limits and n > PERMANENT_ORDER_LIMIT:
        raise ScaleLimitError(f"permanent order {n} exceeds the guard (<= {PERMANENT_ORDER_LIMIT})")
    return _finite(lambda: _ryser(matrix, n) + _widest_zero(matrix)) if n else 1


def _ryser(matrix, n: int):
    row_sums = [0] * n
    total = 0
    prev_gray = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        flipped = gray ^ prev_gray
        j = flipped.bit_length() - 1
        if gray & flipped:
            for i in range(n):
                row_sums[i] += matrix[i][j]
        else:
            for i in range(n):
                row_sums[i] -= matrix[i][j]
        prod = 1
        for value in row_sums:
            prod *= value
            if prod == 0:
                break
        if (n - gray.bit_count()) % 2 == 0:
            total += prod
        else:
            total -= prod
        prev_gray = gray
    return total


def matrix_counts(g: ExperimentGraph, *, override_limits: bool = False):
    """Perfect-matching count of an unmeasured graph by both matrix kernels:
    ``(hafnian of the adjacency matrix, permanent of the biadjacency
    matrix)``, the permanent ``None`` unless the graph is bipartite with
    equal parts."""
    if g.measured:
        raise DomainError("matrix counting covers plain perfect matchings only (no measured vertices)")
    count = hafnian(g.adjacency(), override_limits=override_limits)
    try:
        bi = g.biadjacency()
    except NotBipartiteError:
        return count, None
    if len(bi.rows) != len(bi.cols):
        return count, None
    return count, permanent([list(r) for r in bi.entries], override_limits=override_limits)
