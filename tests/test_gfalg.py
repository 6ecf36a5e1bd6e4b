import pytest
from hypothesis import given, settings, strategies as st
from oracles import leibniz_det

from repairopt.gfalg import (
    SingularMatrixError,
    is_prime,
    mat_rank,
    mat_solve,
    smallest_prime_geq,
)

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
        with pytest.raises(ValueError):
            smallest_prime_geq(100, limit=50)


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

    def test_solve_roundtrip(self):
        a = [[1, 2], [3, 4]]
        x = mat_solve(a, [1, 0], 11)
        assert [sum(c * v for c, v in zip(row, x)) % 11 for row in a] == [1, 0]

    def test_solve_singular(self):
        with pytest.raises(SingularMatrixError):
            mat_solve([[1, 2], [2, 4]], [1, 0], 5)

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
