"""Prime-field arithmetic and exact linear algebra over GF(q).

Matrices are plain row-major lists of ints in [0, q); all routines take
the prime modulus explicitly. Elimination uses the first nonzero pivot in
column order so ranks are reproducible.

Rank needs only forward elimination. `echelon` gives the span of a set of
vectors as an echelon basis, a list of (pivot, tail) pairs in ascending
pivot order, where tail is the basis vector from its pivot on and starts
with 1 (every entry left of the pivot is 0). `quotient` maps vectors into
the quotient space modulo such a span, dropping its pivot columns, so that
the rank of a union of blocks can be taken one block at a time on vectors
that shrink with every block.
"""

from __future__ import annotations

from bisect import insort
from operator import itemgetter, mul

PRIME_SEARCH_LIMIT = 10_000_000


def is_prime(x: int) -> bool:
    if x < 2:
        return False
    if x < 4:
        return True
    if x % 2 == 0:
        return False
    f = 3
    while f * f <= x:
        if x % f == 0:
            return False
        f += 2
    return True


def smallest_prime_geq(x: int, limit: int = PRIME_SEARCH_LIMIT) -> int:
    """Least prime >= x by trial division; desk-scale inputs only."""
    if x < 2:
        raise ValueError("need x >= 2")
    if x > limit:
        raise ValueError(f"prime search limit {limit} exceeded")
    p = x
    while not is_prime(p):
        p += 1
        if p > limit:
            raise ValueError(f"prime search limit {limit} exceeded")
    return p


def _residual(basis, vector, q: int) -> list[int]:
    """The vector reduced by each basis vector in pivot order. Entries are
    taken mod q only where a pivot reads them and on return."""
    v = list(vector)
    for p, tail in basis:
        f = v[p] % q
        if f:
            v[p:] = [x - f * y for x, y in zip(v[p:], tail)]
    return [x % q for x in v]


def echelon(vectors, q: int) -> list[tuple[int, list[int]]]:
    """Echelon basis of the span of the vectors; its length is their rank."""
    basis: list[tuple[int, list[int]]] = []
    for vector in vectors:
        v = _residual(basis, vector, q)
        p = next((j for j, x in enumerate(v) if x), None)
        if p is not None:
            inv = pow(v[p], -1, q)
            insort(basis, (p, [x * inv % q for x in v[p:]]), key=itemgetter(0))
    return basis


def quotient(basis, vectors, q: int) -> list[list[int]]:
    """Each vector modulo the span of an echelon basis, in the coordinates
    of the columns that hold no pivot. A vector in the span maps to all
    zeros, and the images have the rank that the vectors add to the basis.

    The basis is brought to reduced form (each pivot column zero but for
    its own pivot), so a vector v leaves v - sum(v[p] * row_p) and each
    kept entry is one dot product of v's pivot entries with a column of
    the reduced rows."""
    if not basis:
        return [list(v) for v in vectors]
    pivots = [p for p, _ in basis]
    rows = [[0] * p + tail for p, tail in basis]
    for i in range(len(rows) - 2, -1, -1):
        for j in range(i + 1, len(rows)):
            f = rows[i][pivots[j]]
            if f:
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[j])]
    kept = sorted(set(range(len(rows[0]))) - set(pivots))
    columns = [[row[c] for row in rows] for c in kept]
    out = []
    for v in vectors:
        head = [v[p] for p in pivots]
        out.append([(v[c] - sum(map(mul, head, col))) % q
                    for c, col in zip(kept, columns)])
    return out


def mat_rank(m: list[list[int]], q: int) -> int:
    return len(echelon(m, q))
