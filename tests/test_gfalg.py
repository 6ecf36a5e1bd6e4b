import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from oracles import elimination_det, leibniz_det, trial_division_is_prime

from repairopt.coder import _random_columns, code_field, make_plan, simulate_stages
from repairopt.fixtures import FIXTURES, fixture_spec
from repairopt.gfalg import (
    combine,
    draws,
    echelon,
    is_prime,
    mat_rank,
    pack_rows,
    quotient,
    smallest_prime_geq,
)
from repairopt.netmodel import build_topology, respec_failure

PRIMES = [2, 5, 11, 727]
# 2^31 - 1, 2^61 - 1 and the least prime above 2^64: a lane of a row of 6
# being reduced, a residue plus 6 products of two residues, outgrows the
# one 64-bit word a lane has, so these fields are refused
LARGE_PRIMES = [2**31 - 1, 2**61 - 1, 18446744073709551629]


def limit_prime(size: int) -> int:
    """The largest prime whose lanes hold a row of `size` coordinates:
    size * q^2 has at most 63 bits."""
    q = math.isqrt((2**63 - 1) // size)
    while not is_prime(q):
        q -= 1
    return q


# the largest field whose lanes hold every row of at most 6 coordinates
LIMIT_6 = limit_prime(6)

prime_and_triple = st.sampled_from(PRIMES).flatmap(
    lambda q: st.tuples(st.just(q), st.integers(0, q - 1),
                        st.integers(0, q - 1), st.integers(0, q - 1)))


class TestPrimes:
    def test_is_prime_small(self):
        assert [x for x in range(2, 30) if is_prime(x)] == \
            [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert not is_prime(1) and not is_prime(0) and not is_prime(-7)

    def test_smallest_prime_geq(self):
        assert smallest_prime_geq(721) == 727
        assert smallest_prime_geq(2) == 2
        assert smallest_prime_geq(14) == 17

    def test_search_limit(self):
        # no fixed search limit: the search runs on past 10^7 to the next
        # prime, and is refused only where Miller-Rabin stops deciding primality
        assert smallest_prime_geq(10**7 - 10) == 9_999_991
        assert smallest_prime_geq(10**7 + 1) == 10_000_019
        with pytest.raises(ValueError, match="cannot decide"):
            smallest_prime_geq(3_317_044_064_679_887_385_961_981)


def field_bounds():
    """Every d0 that `code` picks its field from on the fixtures (at every
    failure position) and on the benchmark's grid 3x3 k4, and the one d0
    that `simulate` on grid 2x3 k3 picks its field from."""
    specs = [respec_failure(spec, f) for spec in map(fixture_spec, FIXTURES)
             for f in range(1, spec.n + 1)]
    specs += [build_topology("grid", 9, k=4, M=8, alpha=2, rows=3, cols=3, failed=f)
              for f in (9, 1, 5)]
    sim = build_topology("grid", 6, k=3, M=6, alpha=2, rows=2, cols=3)
    plans = [(spec, make_plan(spec)) for spec in specs]
    return ([code_field(spec.n, spec.k, int(spec.M * plan.scale), plan.n_nc)[0]
             for spec, plan in plans]
            + [simulate_stages(sim, 1, seed=0)[0][0]["d0"]])


class TestMillerRabin:
    """The deterministic Miller-Rabin test against trial division."""

    def test_dense_range(self):
        assert all(is_prime(x) == trial_division_is_prime(x) for x in range(-5, 200_000))

    def test_field_bounds(self):
        for d0 in field_bounds():
            assert is_prime(d0 + 1) == trial_division_is_prime(d0 + 1), d0
            q = smallest_prime_geq(d0 + 1)
            assert trial_division_is_prime(q), d0
            assert not any(trial_division_is_prime(x) for x in range(d0 + 1, q)), d0

    @pytest.mark.parametrize("x, factors", [
        (3215031751, (151, 751, 28351)),
        (3825123056546413051, (149491, 747451, 34233211)),
    ])
    def test_strong_pseudoprimes(self, x, factors):
        """Composites that pass Miller-Rabin for the first 4 and the first
        9 prime bases respectively."""
        assert x == factors[0] * factors[1] * factors[2]
        assert all(trial_division_is_prime(f) for f in factors)
        assert not is_prime(x)

    def test_large_primes_and_the_bound(self):
        assert is_prime(10**18 + 3) and not is_prime(10**18 + 1)
        assert is_prime(2**61 - 1) and not is_prime(2**67 - 1)
        with pytest.raises(ValueError, match="cannot decide"):
            is_prime(3_317_044_064_679_887_385_961_981)


class TestFieldAxioms:
    @settings(max_examples=500)
    @given(prime_and_triple)
    def test_ring_axioms(self, qabc):
        q, a, b, c = qabc
        assert (a + b) % q == (b + a) % q
        assert (a * b) % q == (b * a) % q
        assert ((a + b) + c) % q == (a + (b + c)) % q
        assert ((a * b) * c) % q == (a * (b * c)) % q
        assert (a * (b + c)) % q == (a * b + a * c) % q

    @settings(max_examples=500)
    @given(prime_and_triple)
    def test_multiplicative_inverse(self, qabc):
        q, a, _, _ = qabc
        if a != 0:
            assert a * pow(a, -1, q) % q == 1


def rank(m, q):
    return mat_rank(pack_rows(m, q), q)


def lanes(v, width, q):
    """The coordinates mod q of a packed vector: lane j is the j-th 64 bits."""
    return [(v >> 64 * j & (1 << 64) - 1) % q for j in range(width)]


class TestMatrices:
    def test_rank_and_det(self):
        assert rank([[1, 2], [2, 4]], 5) == 1
        assert leibniz_det([[1, 2], [2, 4]], 5) == 0
        assert rank([[1, 2], [3, 4]], 11) == 2
        assert leibniz_det([[1, 2], [3, 4]], 11) == (4 - 6) % 11

    @settings(max_examples=60)
    @given(st.sampled_from(PRIMES), st.integers(1, 4), st.randoms())
    def test_random_square_det_vs_rank(self, q, n, rnd):
        m = [[rnd.randrange(q) for _ in range(n)] for _ in range(n)]
        det = leibniz_det(m, q)
        assert (det != 0) == (rank(m, q) == n)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3, 5, 1087, LIMIT_6]), st.integers(1, 6), st.data())
    def test_elimination_oracle_equals_leibniz(self, q, n, data):
        """The any-k oracle's determinant by elimination on plain lists
        equals the Leibniz sum, on matrices whose last row is often a
        combination of the others or whose entries are often 0."""
        entry = st.integers(0, q - 1) | st.just(0)
        m = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        if n > 1 and data.draw(st.booleans()):
            coeffs = data.draw(st.lists(entry, min_size=n - 1, max_size=n - 1))
            m[-1] = [sum(c * row[j] for c, row in zip(coeffs, m)) % q for j in range(n)]
        assert elimination_det(m, q) == leibniz_det(m, q)

    def test_rank_of_wide_matrix(self):
        m = [[1, 0, 1], [0, 1, 1]]
        assert rank(m, 2) == 2

    def test_lane_width_holds_a_reduced_row(self):
        """A lane holds a residue plus one product of two residues per
        coordinate, in one 64-bit word: 6 * q^2 needs 65 bits at 2^31 - 1,
        125 at 2^61 - 1 and 131 past 2^64, so rows of 6 are refused there,
        and rows of 40 over GF(15121) pack."""
        assert all(is_prime(q) for q in LARGE_PRIMES)
        assert 18446744073709551629 - 2**64 == 13
        assert not any(is_prime(x) for x in range(2**64, 2**64 + 13))
        assert [(6 * q * q).bit_length() for q in LARGE_PRIMES] == [65, 125, 131]
        for q in LARGE_PRIMES:
            with pytest.raises(ValueError, match="does not fit one 64-bit lane"):
                pack_rows([[0] * 6], q)
        assert pack_rows([[0] * 40], 15121) == [0]

    def test_lane_guard_boundary(self):
        """The guard admits a terms * q^2 of 63 bits and refuses one of 64,
        with terms the row length: at LIMIT_6, 6 coordinates pack and 7 do
        not, and 2^31 - 1 is the largest prime for rows of 2."""
        q = LIMIT_6
        assert (6 * q * q).bit_length() == 63 and (7 * q * q).bit_length() == 64
        assert pack_rows([[q - 1] * 6], q) == [sum((q - 1) << 64 * j for j in range(6))]
        with pytest.raises(ValueError, match="does not fit one 64-bit lane"):
            pack_rows([[q - 1] * 7], q)
        assert limit_prime(2) == 2**31 - 1
        assert len(pack_rows([[1, 2]], 2**31 - 1)) == 1
        with pytest.raises(ValueError, match="does not fit one 64-bit lane"):
            pack_rows([[1, 2, 3]], 2**31 - 1)
        assert pack_rows([], 2**61 - 1) == []

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.data())
    def test_large_prime_det_vs_rank_and_echelon(self, n, data):
        """Square matrices over the largest field whose lanes hold their
        rows, with entries near q and a row often a combination of the
        others, so that most have full rank and many do not; the rank
        agrees with the Leibniz determinant. The j-th basis row, found
        after j pivot lanes were cut, has n - j lanes and is 1 at its
        pivot and 0 below it, and read back in the original lanes the
        pivots of a full-rank basis are every lane once."""
        q = limit_prime(n)
        entry = st.one_of(st.integers(0, q - 1), st.integers(q - 3, q - 1), st.integers(0, 2))
        m = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        if n > 1 and data.draw(st.booleans()):
            coeffs = data.draw(st.lists(entry, min_size=n - 1, max_size=n - 1))
            m[-1] = [sum(c * row[j] for c, row in zip(coeffs, m)) % q for j in range(n)]
        rows = pack_rows(m, q)
        basis = echelon(rows, q)
        full = leibniz_det(m, q) != 0
        assert (len(basis) == n) == full
        assert mat_rank(rows, q) == len(basis)
        for j, (p, row) in enumerate(basis):
            assert p < n - j and row.bit_length() <= 64 * (n - j)
            assert lanes(row, n - j, q)[:p + 1] == [0] * p + [1]
        left = list(range(n))
        original = [left.pop(p) for p, _ in basis]
        if full:
            assert sorted(original) == list(range(n))


    @pytest.mark.parametrize("q", LARGE_PRIMES)
    @pytest.mark.parametrize("n", [6, 70])
    def test_lanes_at_their_limit(self, q, n):
        """Rows e_i + (q - 1) e_(n-1) for i < n - 1, then (1, ..., 1, c):
        reducing the last row adds (q - 1)^2 to its last lane n - 1 times,
        the most a lane of a row this long can take. Over GF(q) such rows
        are refused; over the largest field below q whose lanes hold rows
        of n they reach that limit, and the last row is in the span of the
        others exactly when c = -(n - 1) mod q."""
        def rows(q):
            m = [[int(j == i) for j in range(n - 1)] + [q - 1] for i in range(n - 1)]
            return [m + [[1] * (n - 1) + [c]] for c in (q - (n - 1), 0, q - 1)]

        with pytest.raises(ValueError, match="does not fit one 64-bit lane"):
            pack_rows(rows(q)[0], q)
        limit = limit_prime(n)
        assert limit < q
        assert [mat_rank(pack_rows(m, limit), limit) for m in rows(limit)] == [n - 1, n, n]


class TestDraws:
    @pytest.mark.parametrize("q", [2, 3, 73, 1447, 2**31 - 1, 2**20 + 7])
    def test_draws_are_randrange(self, q):
        """The coder's coefficients and exact repair's message are the
        values of rng.randrange(q), and leave the generator where it leaves
        it, so every seeded code and every golden output stays the same; 2
        and 2^20 + 7 reject close to half of their draws."""
        for seed in (0, 1, 7, 2024):
            rng, ref = random.Random(seed), random.Random(seed)
            assert draws(rng, q, 300) == [ref.randrange(q) for _ in range(300)]
            assert _random_columns(rng, q, 4, 3) == tuple(
                tuple(ref.randrange(q) for _ in range(4)) for _ in range(3))
            assert rng.getstate() == ref.getstate()


class TestCombine:
    def test_lane_guard_boundary(self):
        """combine admits len(vectors) * q^2 of 63 bits and refuses 64: at
        LIMIT_6, 6 vectors of q - 1 times q - 1, the most a lane can take,
        sum to the plain-list sum mod q, and 7 are refused."""
        q, width = LIMIT_6, 3
        rng = random.Random(5)
        matrix = [[q - 1] * width] + [draws(rng, q, width) for _ in range(5)]
        coefficients = [q - 1] + draws(rng, q, 5)
        plain = [sum(c * row[j] for c, row in zip(coefficients, matrix)) % q
                 for j in range(width)]
        assert combine(coefficients, pack_rows(matrix, q), q, width) == plain
        assert combine([q - 1] * 6, pack_rows([[q - 1] * width] * 6, q), q, width) \
            == [6] * width
        with pytest.raises(ValueError, match="does not fit one 64-bit lane"):
            combine([1] * 7, pack_rows([[1] * width] * 7, q), q, width)
        assert combine([], [], q, width) == [0] * width


def plain_residual(rows, v, q):
    """A plain-list vector mod q reduced by plain-list echelon rows in
    ascending pivot order: it reads 0 in every pivot lane."""
    x = [a % q for a in v]
    for p, row in rows:
        f = x[p]
        x = [(a - f * b) % q for a, b in zip(x, row)]
    return x


def plain_echelon(spanning, q):
    """(pivot, row) pairs of the span of plain-list vectors, in ascending
    pivot order, each row 1 at its pivot and 0 left of it: the pivots are
    the span's leading lanes."""
    rows = []
    for v in spanning:
        x = plain_residual(rows, v, q)
        p = next((j for j, a in enumerate(x) if a), None)
        if p is not None:
            inv = pow(x[p], -1, q)
            rows = sorted(rows + [(p, [a * inv % q for a in x])])
    return rows


def check_quotient(spanning, vectors, q, width):
    """The package's quotient by the echelon basis of the spanning vectors
    is, mod q, the plain-list residual of each vector without the span's
    leading lanes, in width - rank lanes; neither side reads the package's
    basis rows."""
    rows = plain_echelon(spanning, q)
    pivots = {p for p, _ in rows}
    basis = echelon(pack_rows(spanning, q), q)
    assert len(basis) == len(rows)
    size = width - len(rows)
    for v, image in zip(vectors, quotient(basis, pack_rows(vectors, q), q)):
        assert image.bit_length() <= 64 * size
        assert lanes(image, size, q) == [x for j, x in enumerate(plain_residual(rows, v, q))
                                         if j not in pivots]


class TestResiduals:
    """gfalg.quotient: vectors reduced by an echelon basis, its pivot lanes
    removed."""

    def test_worked_example(self):
        # modulo the span of (1, 2, 0) and (0, 0, 1) over GF(5), (a, b, c)
        # keeps b - 2a, the one lane left when the pivot lanes 0 and 2 go;
        # the second pivot is lane 1 of the two lanes left after lane 0 is
        # cut, and the other order cuts lane 2 first, then lane 0
        spanning = [[1, 2, 0], [0, 0, 1]]
        vectors = [[1, 2, 3], [0, 1, 4], [3, 0, 0]]
        for order, pivots in ((spanning, [0, 1]), (spanning[::-1], [2, 0])):
            basis = echelon(pack_rows(order, 5), 5)
            assert [p for p, _ in basis] == pivots
            assert [v % 5 for v in quotient(basis, pack_rows(vectors, 5), 5)] == [0, 1, 4]
            check_quotient(order, vectors, 5, 3)

    def test_leading_pivots_shift_out(self):
        # pivots 0 and 1 over GF(7), each lane 0 of the lanes left: (a, b, c)
        # keeps c - 2a - 3b, read from what was lane 2, whose lanes need no
        # reduction mod q
        spanning = [[1, 0, 2], [0, 1, 3]]
        basis = echelon(pack_rows(spanning, 7), 7)
        assert [p for p, _ in basis] == [0, 0]
        vectors = [[1, 1, 5], [2, 0, 0], [6, 6, 6]]
        assert [v % 7 for v in quotient(basis, pack_rows(vectors, 7), 7)] == [0, 3, 4]
        check_quotient(spanning, vectors, 7, 3)
        assert quotient([], pack_rows(vectors, 7), 7) == pack_rows(vectors, 7)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, LIMIT_6]), st.integers(1, 6), st.data())
    def test_span_reduces_to_zero_lanes(self, q, width, data):
        vector = st.lists(st.integers(0, q - 1), min_size=width, max_size=width)
        spanning = data.draw(st.lists(vector, max_size=width))
        coeffs = data.draw(st.lists(st.integers(0, q - 1), min_size=len(spanning),
                                    max_size=len(spanning)))
        inside = [sum(c * v[j] for c, v in zip(coeffs, spanning)) % q for j in range(width)]
        rows = pack_rows(spanning + [inside], q)
        basis = echelon(rows[:-1], q)
        size = width - len(basis)
        image = quotient(basis, rows[-1:], q)[0]
        assert image.bit_length() <= 64 * size
        assert lanes(image, size, q) == [0] * size

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, LIMIT_6]), st.integers(1, 6), st.data())
    def test_residual_rank_is_rank_added(self, q, width, data):
        """The quotients have the rank the vectors add to the basis, and
        are the residuals without the basis's pivot lanes, whether the
        pivots are the lowest lanes or, with a lane zeroed in every
        spanning vector, are not."""
        vector = st.lists(st.integers(0, q - 1), min_size=width, max_size=width)
        spanning = data.draw(st.lists(vector, max_size=width))
        zeroed = data.draw(st.integers(0, width - 1) | st.none())
        if zeroed is not None:
            spanning = [v[:zeroed] + [0] + v[zeroed + 1:] for v in spanning]
        vectors = data.draw(st.lists(vector, max_size=4))
        rows = pack_rows(spanning + vectors, q)
        basis = echelon(rows[:len(spanning)], q)
        image = quotient(basis, rows[len(spanning):], q)
        assert mat_rank(rows, q) - len(basis) == mat_rank(image, q)
        check_quotient(spanning, vectors, q, width)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, LIMIT_6]), st.integers(1, 6), st.data())
    def test_images_do_not_depend_on_the_order_of_the_span(self, q, width, data):
        """The bases of one span found in two orders can differ in pivots
        and rows but pivot on the same original lanes, so the quotient
        images agree mod q, with a lane often zeroed in every spanning
        vector so that pivots fall past lane 0."""
        vector = st.lists(st.integers(0, q - 1), min_size=width, max_size=width)
        spanning = data.draw(st.lists(vector, max_size=width))
        zeroed = data.draw(st.integers(0, width - 1) | st.none())
        if zeroed is not None:
            spanning = [v[:zeroed] + [0] + v[zeroed + 1:] for v in spanning]
        shuffled = data.draw(st.permutations(spanning))
        vectors = pack_rows(data.draw(st.lists(vector, min_size=1, max_size=4)), q)
        size = width - mat_rank(pack_rows(spanning, q), q)
        first, second = ([lanes(v, size, q) for v in quotient(echelon(pack_rows(order, q), q),
                                                             vectors, q)]
                         for order in (spanning, shuffled))
        assert first == second
