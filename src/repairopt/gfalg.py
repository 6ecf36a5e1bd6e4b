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

# A field bound past this comes from a plan whose code initialisation
# would run without end, so the search stops here.
PRIME_SEARCH_LIMIT = 10_000_000

# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(x: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError at or past the bound
    below which its bases are known to decide primality."""
    if x >= _MR_BOUND:
        raise ValueError(f"cannot decide whether {x} is prime: only numbers "
                         f"below {_MR_BOUND} are tested")
    if x < 2:
        return False
    for p in _MR_BASES:
        if x % p == 0:
            return x == p
    s = ((x - 1) & (1 - x)).bit_length() - 1     # x - 1 = d * 2^s with d odd
    d = (x - 1) >> s
    for a in _MR_BASES:
        y = pow(a, d, x)
        if y == 1 or y == x - 1:
            continue
        for _ in range(s - 1):
            y = y * y % x
            if y == x - 1:
                break
        else:
            return False
    return True


def smallest_prime_geq(x: int) -> int:
    """Least prime >= x, searched up to PRIME_SEARCH_LIMIT."""
    if x < 2:
        raise ValueError("need x >= 2")
    for p in range(x, PRIME_SEARCH_LIMIT + 1):
        if is_prime(p):
            return p
    raise ValueError(f"prime search limit {PRIME_SEARCH_LIMIT} exceeded")


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
