"""Prime-field arithmetic and exact linear algebra over GF(q).

A vector over GF(q) is stored packed: one int whose lane i, one 64-bit
word, holds coordinate i. `pack_rows` packs a matrix, and refuses a field
whose lanes could overflow into the next during an elimination. A row
operation v - f * row is then one big-int multiply-add, v + (q - f) * row,
whose lanes stay non-negative, so no lane borrows from its neighbour;
lanes are taken mod q only where a pivot reads them and when a vector is
unpacked to find and normalise a new pivot. Elimination uses the first
nonzero pivot in column order so ranks are reproducible.

Rank needs only forward elimination, and one loop, `_peel`, does all of
it. `echelon` gives the span of a set of vectors as an echelon basis, a
list of (pivot, row) pairs in the order found: each vector is peeled by
the rows found before it, and its first lane that is nonzero mod q is a
new pivot, whose row is the peeled vector normalised, 1 at the pivot and
0 below it. To peel by a row is to clear its pivot lane mod q and then
cut that lane out, so that the lanes above move down one; pivots and
rows are read in the lanes left by the pivots before them. `quotient`
peels vectors by a basis, so the rank of a union of blocks can be taken
one block at a time on vectors that shrink by the rank of each block,
and `mat_rank` peels the last vector by the basis of the others.

`draws` gives uniform elements of GF(q), the values of rng.randrange(q),
and `combine` sums multiples of packed vectors in their lanes and reduces
the sum mod q once: a random combination is the one, then the other.
"""

from __future__ import annotations

import sys
from array import array

# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981

_WORD = (1 << 64) - 1
_SWAP = sys.byteorder == "big"   # packed ints are read as little-endian lanes


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
    """Least prime >= x; the search ends with is_prime's ValueError if it
    reaches the bound past which primality is not decided."""
    if x < 2:
        raise ValueError("need x >= 2")
    while not is_prime(x):
        x += 1
    return x


def _check_lanes(q: int, terms: int) -> None:
    """Refuse a field whose lane, a residue mod q plus `terms` products of
    two residues, could outgrow one 64-bit word."""
    if (terms * q * q).bit_length() >= 64:
        raise ValueError(f"GF({q}) is too large for packed vectors of {terms} terms: "
                         f"{terms} * q^2 does not fit one 64-bit lane")


def _pack(lanes) -> int:
    """One int whose lane i holds lanes[i], each below 2^64."""
    data = array("Q", lanes)
    if _SWAP:
        data.byteswap()
    return int.from_bytes(data.tobytes(), "little")


def _unpack(v: int, size: int) -> list[int]:
    """The first `size` lanes of a packed vector, lowest first."""
    data = array("Q", v.to_bytes(8 * size, "little"))
    if _SWAP:
        data.byteswap()
    return data.tolist()


def pack_rows(matrix, q: int) -> list[int]:
    """The rows of a matrix over GF(q), packed; a field is refused unless
    one lane holds a row reduced once by every vector of a basis of
    GF(q)^size."""
    _check_lanes(q, max(map(len, matrix), default=0))
    return [_pack(row) for row in matrix]


def draws(rng, q: int, count: int) -> list[int]:
    """`count` uniform elements of GF(q) from the random.Random rng. Each
    draws rng.getrandbits of q's bit length until the value is below q:
    the calls that rng.randrange(q) makes, so the values are its values."""
    bits, getrandbits, out = q.bit_length(), rng.getrandbits, []
    for _ in range(count):
        x = getrandbits(bits)
        while x >= q:
            x = getrandbits(bits)
        out.append(x)
    return out


def combine(coefficients, vectors, q: int, width: int) -> list[int]:
    """The `width` coordinates of sum(c * v) over GF(q), for packed vectors
    of residues: the multiples are summed in the lanes and reduced mod q
    once, so a field is refused unless one lane holds len(vectors)
    products of two residues."""
    _check_lanes(q, len(vectors))
    total = 0
    for c, v in zip(coefficients, vectors):
        if c:
            total += c * v
    return [x % q for x in _unpack(total, width)]


def _peel(basis, v: int, q: int) -> int:
    """The packed vector reduced by each (pivot, row) of an echelon basis in
    the order found, each pivot lane cut out once the row has cleared it
    mod q, so the lanes above move down one: a row is read in the lanes
    left by the pivots found before it. Lanes are not reduced mod q."""
    for p, row in basis:
        if p == 0:
            # most blocks of a random code pivot on lane 0 every time, where
            # a plain shift cuts the lane; through the mask and shift below,
            # the any-k checks of the code-sim benchmark take about 40 % longer
            f = (v & _WORD) % q
            if f:
                v += (q - f) * row
            v >>= 64
            continue
        f = (v >> 64 * p & _WORD) % q
        if f:
            v += (q - f) * row
        v = (v >> 64 * (p + 1) << 64 * p) | (v & (1 << 64 * p) - 1)
    return v


def quotient(basis, vectors, q: int) -> list[int]:
    """Each packed vector peeled by an echelon basis, the basis's pivot
    lanes cut out: it reads 0 mod q exactly when it is in the span, and the
    rank of the images is the rank that the vectors add to it."""
    return [_peel(basis, v, q) for v in vectors]


def echelon(vectors, q: int) -> list[tuple[int, int]]:
    """Echelon basis of the span of the packed vectors, its length their
    rank: each vector is peeled by the rows found so far, and its first
    lane that is nonzero mod q, if any, is a new pivot, whose row is the
    vector normalised mod q: 1 at the pivot and 0 below it."""
    basis: list[tuple[int, int]] = []
    for v in vectors:
        v = _peel(basis, v, q)
        lanes = _unpack(v, -(-v.bit_length() // 64))
        for p, x in enumerate(lanes):
            if x % q:
                inv = pow(x, -1, q)
                basis.append((p, _pack([y * inv % q for y in lanes])))
                break
    return basis


def mat_rank(vectors, q: int) -> int:
    """Rank of the packed vectors over GF(q). The last vector needs no
    basis row: it adds one to the rank of the others when its peeled
    residual has a lane that is nonzero mod q."""
    if not vectors:
        return 0
    basis = echelon(vectors[:-1], q)
    v = _peel(basis, vectors[-1], q)
    return len(basis) + any(x % q for x in _unpack(v, -(-v.bit_length() // 64)))
