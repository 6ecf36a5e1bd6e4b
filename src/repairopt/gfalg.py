"""Prime-field arithmetic and exact linear algebra over GF(q).

Matrices are plain row-major lists of ints in [0, q); all routines take
the prime modulus explicitly. Elimination uses the first nonzero pivot in
column order so ranks and solutions are reproducible.

Rank needs only forward elimination. `echelon` keeps the span of a set of
vectors as an echelon basis, a list of (pivot, tail) pairs in ascending
pivot order, where tail is the basis vector from its pivot on and starts
with 1 (every entry left of the pivot is 0). A basis can be extended by
further vectors without redoing the ones it holds, and `residuals` gives the
part of a vector outside its span.
"""

from __future__ import annotations

from bisect import insort
from operator import itemgetter

PRIME_SEARCH_LIMIT = 10_000_000


class SingularMatrixError(ValueError):
    pass


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


def _eliminate(m: list[list[int]], q: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot columns)."""
    m = [[x % q for x in row] for row in m]
    nrows, ncols = len(m), len(m[0])
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        piv = next((r for r in range(row, nrows) if m[r][col] % q != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = pow(m[row][col], -1, q)
        m[row] = [(x * inv) % q for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col]:
                f = m[r][col]
                m[r] = [(x - f * y) % q for x, y in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    return m, pivots


def _residual(basis, vector, q: int) -> list[int]:
    """The vector reduced by each basis vector in pivot order. Entries are
    taken mod q only where a pivot reads them and on return."""
    v = list(vector)
    for p, tail in basis:
        f = v[p] % q
        if f:
            v[p:] = [x - f * y for x, y in zip(v[p:], tail)]
    return [x % q for x in v]


def residuals(basis, vectors, q: int) -> list[list[int]]:
    """Each vector minus a combination of the basis: 0 at every pivot, and
    0 altogether only for a vector in the basis' span. The residuals have
    the rank that the vectors add to the basis."""
    return [_residual(basis, v, q) for v in vectors]


def echelon(vectors, q: int, basis=()) -> list[tuple[int, list[int]]]:
    """Echelon basis of the span of `basis` and `vectors` together; the
    rank they add is its length minus len(basis). `basis` is not changed."""
    out = list(basis)
    for vector in vectors:
        v = _residual(out, vector, q)
        p = next((j for j, x in enumerate(v) if x), None)
        if p is not None:
            inv = pow(v[p], -1, q)
            insort(out, (p, [x * inv % q for x in v[p:]]), key=itemgetter(0))
    return out


def mat_rank(m: list[list[int]], q: int) -> int:
    return len(echelon(m, q))


def mat_solve(a: list[list[int]], b: list[int], q: int) -> list[int]:
    """Solve a x = b over GF(q); raises SingularMatrixError if singular."""
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ValueError("solve needs a square system")
    aug = [row[:] + [b[i]] for i, row in enumerate(a)]
    reduced, pivots = _eliminate(aug, q)
    if len(pivots) != n or pivots != list(range(n)):
        raise SingularMatrixError("singular system")
    return [reduced[i][n] % q for i in range(n)]

