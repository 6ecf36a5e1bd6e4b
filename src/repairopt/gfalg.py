"""Prime-field arithmetic and exact linear algebra over GF(q).

Matrices are plain row-major lists of ints in [0, q); all routines take
the prime modulus explicitly. Elimination uses the first nonzero pivot in
column order so ranks and solutions are reproducible.
"""

from __future__ import annotations

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


def mat_rank(m: list[list[int]], q: int) -> int:
    if not m:
        return 0
    _, pivots = _eliminate(m, q)
    return len(pivots)


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

