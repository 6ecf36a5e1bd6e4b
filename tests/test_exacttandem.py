import random
from itertools import combinations

import pytest

from repairopt.exacttandem import (
    ExactRepairError,
    VandermondeCode,
    default_split,
    exact_repair,
    init_vandermonde,
)
from repairopt.gfalg import mat_rank, pack_rows


class TestInit:
    def test_default_points(self):
        code = init_vandermonde(4, 2, 5, seed=0)
        assert len(code.message) == 2
        assert [code.stored_symbol(t) for t in (1, 2, 3, 4)] == \
            [(code.message[0] + code.message[1] * t) % 5 for t in (1, 2, 3, 4)]

    def test_stored_symbol_is_polynomial_evaluation(self):
        code = VandermondeCode(4, 2, 5, (3, 2))
        assert [code.stored_symbol(t) for t in (1, 2, 3, 4)] == \
            [(3 + 2 * t) % 5 for t in (1, 2, 3, 4)]

    def test_generator_is_mds(self):
        code = init_vandermonde(6, 3, 7, seed=1)
        # row e holds point^e for every node: node t stores message . column t
        g = [[pow(a, e, code.q) for a in range(1, 7)] for e in range(code.k)]
        assert [code.stored_symbol(t) for t in range(1, 7)] == \
            [sum(m * g[e][t] for e, m in enumerate(code.message)) % code.q
             for t in range(6)]
        for cols in combinations(range(6), 3):
            assert mat_rank(pack_rows([[g[r][c] for c in cols] for r in range(3)], 7), 7) == 3

    def test_rejects_bad_field(self):
        with pytest.raises(ExactRepairError):
            init_vandermonde(4, 2, 6, seed=0)      # composite
        with pytest.raises(ExactRepairError):
            init_vandermonde(7, 2, 7, seed=0)      # q must exceed n
        with pytest.raises(ExactRepairError):
            init_vandermonde(4, 5, 11, seed=0)     # k > n


class TestRepair:
    def test_hand_checked_case(self):
        # nodes store m1 + m2 t over GF(5); rebuilding node 2 from nodes
        # 1 and 3 multiplies both by 3 and sums: 3 * 2 = 1 and 3 * 4 = 2
        code = VandermondeCode(4, 2, 5, (1, 1))
        transcript = exact_repair(code, 2, 1, 1)
        assert transcript.hops == ((1, 2, 1), (3, 2, 2))
        assert transcript.exact
        assert transcript.restored == code.stored_symbol(2)

    def test_hops_walk_both_chains(self):
        code = init_vandermonde(6, 3, 7, seed=3)
        transcript = exact_repair(code, 3, 2, 1)
        assert transcript.hop_count == 3
        assert [(a, b) for a, b, _ in transcript.hops] == \
            [(1, 2), (2, 3), (4, 3)]

    def test_one_sided_repairs(self):
        code = init_vandermonde(6, 3, 7, seed=4)
        assert exact_repair(code, 1, 0, 3).exact
        assert exact_repair(code, 6, 3, 0).exact

    def test_split_validation(self):
        code = init_vandermonde(6, 3, 7, seed=5)
        with pytest.raises(ExactRepairError):
            exact_repair(code, 2, 2, 1)    # only one backward helper exists
        with pytest.raises(ExactRepairError):
            exact_repair(code, 5, 0, 3)    # forward side too short
        with pytest.raises(ExactRepairError):
            exact_repair(code, 3, 1, 1)    # k1 + k2 != k
        with pytest.raises(ExactRepairError):
            exact_repair(code, 0, 1, 2)

    @pytest.mark.parametrize("n, k, q", [(4, 2, 5), (6, 3, 7), (9, 4, 11), (12, 6, 13)])
    def test_coefficients_solve_the_vandermonde_system(self, n, k, q):
        # sum_h xi_h v_h(m) = v_t(m) for every message m exactly when
        # xi' A = (1, t, ..., t^(k-1)), A holding one row (1, h, ...) per
        # helper h; by linearity the k unit messages decide it, at every
        # failed node and every split it allows
        for e in range(k):
            code = VandermondeCode(n, k, q, tuple(int(i == e) for i in range(k)))
            for t in range(1, n + 1):
                for k1 in range(max(0, k - (n - t)), min(k, t - 1) + 1):
                    assert exact_repair(code, t, k1, k - k1).exact, (e, t, k1)

    def test_random_trials(self):
        rng = random.Random(123)
        for n, k, q in ((4, 2, 5), (6, 3, 7), (8, 4, 11)):
            for _ in range(100):
                message = tuple(rng.randrange(q) for _ in range(k))
                code = VandermondeCode(n, k, q, message)
                t = rng.randrange(1, n + 1)
                k1 = rng.randint(max(0, k - (n - t)), min(k, t - 1))
                transcript = exact_repair(code, t, k1, k - k1)
                assert transcript.exact
                assert transcript.hop_count == k


class TestDefaultSplit:
    def test_balanced_interior(self):
        assert default_split(4, 8, 4) == (2, 2)

    def test_clipped_at_ends(self):
        assert default_split(1, 6, 3) == (0, 3)
        assert default_split(6, 6, 3) == (3, 0)

    def test_too_short(self):
        with pytest.raises(ExactRepairError):
            default_split(2, 3, 3)
