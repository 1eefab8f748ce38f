"""Exact hafnian and permanent kernels.

The hafnian of a symmetric matrix with zero diagonal sums, over all perfect
pairings of the indices, the products of the paired entries; on an adjacency
matrix it counts perfect matchings.  The permanent does the same job for the
biadjacency matrix of a bipartite graph.  Both are #P-hard, so the kernels
are exact and refuse oversized inputs instead of approximating.

The hafnian expands on the lowest live index and memoizes on the set of
live indices; each row's nonzero later columns are kept as a bitmask, so
the expansion never visits a zero entry.  It forms the same products in the
same order as a walk over every index, so float and complex results do not
depend on the sparsity.  The G(n, p) ensemble, whose graphs are simple,
counts their perfect matchings with a separate counter that adds counts
level by level, with no multiplication and no rows.  One pass counts any
family of simple graphs on the same vertices, such as the graphs of a
batch of G(n, p) trials at every p of a scan: each count packs one field
per graph into one integer, and each vertex pair carries the mask of the
fields whose graph holds it.

Integer matrices are computed in arbitrary-precision integer arithmetic
(counts overflow 64 bits near order 20).  Complex and float inputs use
double precision; results should be compared at a 1e-9 tolerance.
"""

from __future__ import annotations

import cmath
from itertools import compress

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
    for row in matrix:
        if not isinstance(row, (list, tuple)):
            raise DomainError("matrix must be a list of rows")
        if len(row) != n:
            raise DomainError(f"matrix must be square, got a row of length {len(row)} for order {n}")
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

    Recursive expansion on the first remaining index with memoization on the
    set of live indices.  The validation pass records, per row, a bitmask of
    the later columns holding a nonzero entry, and the expansion walks only
    those, so sparse adjacency matrices stay fast.  Requires an even order,
    exact symmetry and a zero diagonal."""
    n = _validate_square(matrix)
    if n % 2 != 0:
        raise DomainError(f"hafnian needs an even order, got {n}")
    if not override_limits:
        _check_hafnian_order(n)
    nonzero = [0] * n
    for i in range(n):
        row = matrix[i]
        if row[i] != 0:
            raise DomainError(f"hafnian needs a zero diagonal, entry ({i},{i}) is {row[i]!r}")
        mask = 0
        for j in range(i + 1, n):
            entry = row[j]
            if entry != matrix[j][i]:
                raise DomainError(f"matrix is not symmetric at ({i},{j})")
            if entry != 0:
                mask |= 1 << j
        nonzero[i] = mask

    memo: dict[int, object] = {0: 1}

    def rec(mask: int):
        low = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << low)
        row = matrix[low]
        total = 0
        sub = nonzero[low] & rest
        while sub:
            bit = sub & -sub
            sub ^= bit
            left = rest ^ bit
            value = memo.get(left)
            if value is None:
                value = rec(left)
            total += row[bit.bit_length() - 1] * value
        memo[mask] = total
        return total

    total = _finite(rec, (1 << n) - 1) if n else 1
    rec = None  # the closure refers to itself; drop the cycle before returning
    return total


def _unit_matchings(keep: list[list[int]], start: int) -> int:
    """Numbers of perfect matchings of a family of simple graphs on the
    same ``len(keep)`` vertices, an even number >= 2, packed one field per
    graph into one integer.  ``keep[i][j]``, for i < j, masks the fields of
    the graphs that join vertices i and j (0 if none), and ``start`` holds
    one way into each graph's field.  Each field must be wide enough for
    (n - 1)!!, the most matchings of any set of at most n vertices, so no
    carry crosses fields.

    Each level covers the lowest vertex still uncovered in every live set
    of uncovered vertices, one pair at a time, and adds the set's ways,
    masked to the graphs that hold the pair, into the set left over; a pair
    that no graph with ways into the set holds is skipped, so the live sets
    are those of the union graph that some graph reaches.  After n / 2
    levels only the empty set is left, holding the counts."""
    n = len(keep)
    bits = [1 << j for j in range(n)]
    pairs = [list(compress(zip(bits, row), row)) for row in keep]  # a pair j <= i never meets rest
    level = {(1 << n) - 1: start}
    for _ in range(n // 2):
        following: dict[int, int] = {}
        get = following.get
        for live, ways in level.items():
            low = live & -live
            rest = live ^ low
            for bit, mask in pairs[low.bit_length() - 1]:
                if bit & rest:
                    kept = ways & mask
                    if kept:
                        left = rest ^ bit
                        following[left] = get(left, 0) + kept
        level = following
    return level.get(0, 0)


def permanent(matrix, *, override_limits: bool = False):
    """Ryser inclusion-exclusion with Gray-code column updates:
    perm(A) = (-1)^n sum_{S nonempty} (-1)^{|S|} prod_i sum_{j in S} a_ij.

    Exact for integer inputs; O(2^n * n) time."""
    n = _validate_square(matrix)
    if not override_limits and n > PERMANENT_ORDER_LIMIT:
        raise ScaleLimitError(f"permanent order {n} exceeds the guard (<= {PERMANENT_ORDER_LIMIT})")
    return _finite(_ryser, matrix, n) if n else 1


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
