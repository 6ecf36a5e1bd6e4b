import pytest
from hypothesis import given, settings, strategies as st
from oracles import leibniz_det, trial_division_is_prime

from repairopt.coder import code_field, make_plan, simulate_stages
from repairopt.fixtures import FIXTURES, fixture_spec
from repairopt.gfalg import (
    PRIME_SEARCH_LIMIT,
    echelon,
    is_prime,
    mat_rank,
    quotient,
    smallest_prime_geq,
)
from repairopt.netmodel import build_topology, respec_failure

PRIMES = [2, 5, 11, 727]

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
        assert smallest_prime_geq(PRIME_SEARCH_LIMIT - 10) == 9_999_991
        with pytest.raises(ValueError, match="prime search limit"):
            smallest_prime_geq(PRIME_SEARCH_LIMIT + 1)


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


class TestMatrices:
    def test_rank_and_det(self):
        assert mat_rank([[1, 2], [2, 4]], 5) == 1
        assert leibniz_det([[1, 2], [2, 4]], 5) == 0
        assert mat_rank([[1, 2], [3, 4]], 11) == 2
        assert leibniz_det([[1, 2], [3, 4]], 11) == (4 - 6) % 11

    @settings(max_examples=60)
    @given(st.sampled_from(PRIMES), st.integers(1, 4), st.randoms())
    def test_random_square_det_vs_rank(self, q, n, rnd):
        m = [[rnd.randrange(q) for _ in range(n)] for _ in range(n)]
        det = leibniz_det(m, q)
        rank = mat_rank(m, q)
        assert (det != 0) == (rank == n)

    def test_rank_of_wide_matrix(self):
        m = [[1, 0, 1], [0, 1, 1]]
        assert mat_rank(m, 2) == 2


class TestQuotient:
    def test_worked_example(self):
        # modulo the span of (1, 2, 0) and (0, 0, 1) over GF(5) only column
        # 1 is kept, and (a, b, c) maps to b - 2a
        basis = echelon([[1, 2, 0], [0, 0, 1]], 5)
        assert quotient(basis, [[1, 2, 3], [0, 1, 4], [3, 0, 0]], 5) == [[0], [1], [4]]

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 6), st.data())
    def test_rank_added_and_span_maps_to_zero(self, q, width, data):
        vector = st.lists(st.integers(0, q - 1), min_size=width, max_size=width)
        spanning = data.draw(st.lists(vector, max_size=width))
        vectors = data.draw(st.lists(vector, max_size=4))
        coeffs = data.draw(st.lists(st.integers(0, q - 1), min_size=len(spanning),
                                    max_size=len(spanning)))
        basis = echelon(spanning, q)
        image = quotient(basis, vectors, q)
        assert all(len(v) == width - len(basis) for v in image)
        assert mat_rank(spanning + vectors, q) - len(basis) == mat_rank(image, q)
        inside = [sum(c * v[j] for c, v in zip(coeffs, spanning)) % q for j in range(width)]
        assert quotient(basis, [inside], q) == [[0] * (width - len(basis))]
