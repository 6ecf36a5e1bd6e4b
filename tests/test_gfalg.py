import pytest
from hypothesis import given, settings, strategies as st
from oracles import leibniz_det, trial_division_is_prime

from repairopt.coder import code_field, make_plan, simulate_stages
from repairopt.fixtures import FIXTURES, fixture_spec
from repairopt.gfalg import (
    echelon,
    is_prime,
    mat_rank,
    pack_rows,
    residuals,
    smallest_prime_geq,
)
from repairopt.netmodel import build_topology, respec_failure

PRIMES = [2, 5, 11, 727]
# 2^31 - 1, 2^61 - 1 and the least prime above 2^64: a product of two
# residues, and so a lane of a row being reduced, outgrows 64 bits
LARGE_PRIMES = [2**31 - 1, 2**61 - 1, 18446744073709551629]

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
            + [simulate_stages(sim, 1, seed=0)[0]["d0"]])


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
    rows, words = pack_rows(m, q)
    return mat_rank(rows, q, words)


def lanes(v, words, width, q):
    """The coordinates mod q of a packed vector: lane j is the j-th
    64 * words bits."""
    bits = 64 * words
    return [(v >> j * bits & (1 << bits) - 1) % q for j in range(width)]


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

    def test_rank_of_wide_matrix(self):
        m = [[1, 0, 1], [0, 1, 1]]
        assert rank(m, 2) == 2

    def test_lane_width_holds_a_reduced_row(self):
        """A lane holds a residue plus one product of two residues per
        coordinate: 6 * q^2 needs 65 bits at 2^31 - 1, 125 at 2^61 - 1
        and 131 past 2^64, so the lanes are 2, 2 and 3 words wide."""
        assert all(is_prime(q) for q in LARGE_PRIMES)
        assert 18446744073709551629 - 2**64 == 13
        assert not any(is_prime(x) for x in range(2**64, 2**64 + 13))
        assert [pack_rows([[0] * 6], q)[1] for q in LARGE_PRIMES] == [2, 2, 3]
        assert pack_rows([[0] * 40], 15121)[1] == 1

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(LARGE_PRIMES), st.integers(1, 6), st.data())
    def test_large_prime_det_vs_rank_and_echelon(self, q, n, data):
        """Square matrices over a large field, with entries near q and a
        row often a combination of the others, so that most have full rank
        and many do not; the rank agrees with the Leibniz determinant and
        the echelon basis is 1 at each pivot, 0 left of it."""
        entry = st.one_of(st.integers(0, q - 1), st.integers(q - 3, q - 1), st.integers(0, 2))
        m = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        if n > 1 and data.draw(st.booleans()):
            coeffs = data.draw(st.lists(entry, min_size=n - 1, max_size=n - 1))
            m[-1] = [sum(c * row[j] for c, row in zip(coeffs, m)) % q for j in range(n)]
        rows, words = pack_rows(m, q)
        basis = echelon(rows, q, words)
        full = leibniz_det(m, q) != 0
        assert (len(basis) == n) == full
        assert mat_rank(rows, q, words) == len(basis)
        assert [p for p, _ in basis] == sorted({p for p, _ in basis})
        for p, row in basis:
            assert lanes(row, words, n, q)[:p + 1] == [0] * p + [1]
        if full:
            assert [p for p, _ in basis] == list(range(n))


    @pytest.mark.parametrize("q", LARGE_PRIMES)
    @pytest.mark.parametrize("n", [6, 70])
    def test_lanes_at_their_limit(self, q, n):
        """Rows e_i + (q - 1) e_(n-1) for i < n - 1, then (1, ..., 1, c):
        reducing the last row adds (q - 1)^2 to its last lane n - 1 times,
        the most a lane of a row this long can take. The last row is in
        the span of the others exactly when c = -(n - 1) mod q."""
        m = [[int(j == i) for j in range(n - 1)] + [q - 1] for i in range(n - 1)]
        for c, expected in ((q - (n - 1), n - 1), (0, n), (q - 1, n)):
            rows, words = pack_rows(m + [[1] * (n - 1) + [c]], q)
            assert mat_rank(rows, q, words) == expected


class TestResiduals:
    def test_worked_example(self):
        # modulo the span of (1, 2, 0) and (0, 0, 1) over GF(5), (a, b, c)
        # keeps b - 2a in lane 1, and the pivot lanes 0 and 2 read 0
        spanning, words = pack_rows([[1, 2, 0], [0, 0, 1]], 5)
        vectors, _ = pack_rows([[1, 2, 3], [0, 1, 4], [3, 0, 0]], 5)
        basis = echelon(spanning, 5, words)
        assert [p for p, _ in basis] == [0, 2]
        assert [lanes(v, words, 3, 5) for v in residuals(basis, vectors, 5, words)] == \
            [[0, 0, 0], [0, 1, 0], [0, 4, 0]]

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7] + LARGE_PRIMES), st.integers(1, 6), st.data())
    def test_span_reduces_to_zero_lanes(self, q, width, data):
        vector = st.lists(st.integers(0, q - 1), min_size=width, max_size=width)
        spanning = data.draw(st.lists(vector, max_size=width))
        coeffs = data.draw(st.lists(st.integers(0, q - 1), min_size=len(spanning),
                                    max_size=len(spanning)))
        inside = [sum(c * v[j] for c, v in zip(coeffs, spanning)) % q for j in range(width)]
        rows, words = pack_rows(spanning + [inside], q)
        basis = echelon(rows[:-1], q, words)
        assert lanes(residuals(basis, rows[-1:], q, words)[0], words, width, q) == [0] * width

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7] + LARGE_PRIMES), st.integers(1, 6), st.data())
    def test_residual_rank_is_rank_added(self, q, width, data):
        """The residuals have the rank the vectors add to the basis, and
        read 0 mod q in every pivot lane of the basis."""
        vector = st.lists(st.integers(0, q - 1), min_size=width, max_size=width)
        spanning = data.draw(st.lists(vector, max_size=width))
        vectors = data.draw(st.lists(vector, max_size=4))
        rows, words = pack_rows(spanning + vectors, q)
        basis = echelon(rows[:len(spanning)], q, words)
        image = residuals(basis, rows[len(spanning):], q, words)
        assert mat_rank(rows, q, words) - len(basis) == mat_rank(image, q, words)
        for v in image:
            assert all(lanes(v, words, width, q)[p] == 0 for p, _ in basis)
