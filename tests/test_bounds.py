from fractions import Fraction

import pytest

from repairopt.bounds import (
    closed_form_for,
    compare_lp_to_bounds,
    gain_star_noncentral,
    gain_tandem_endnode,
    paper_gain_for,
    star_lower_bound,
    tandem_lower_bound,
)
from repairopt.fixtures import fixture_spec
from repairopt.netmodel import build_topology, msr_beta


class TestFormulas:
    def test_msr_beta(self):
        assert msr_beta(8, 4, 5) == 1
        assert msr_beta(6, 3, 5) == Fraction(2, 3)
        with pytest.raises(ValueError):
            msr_beta(6, 3, 2)

    def test_tandem_bound(self):
        assert tandem_lower_bound(2, 4, 2) == 4
        assert tandem_lower_bound(3, 6, 2) == 6
        # clamp: enough surviving storage means free repair is conceivable
        assert tandem_lower_bound(2, 4, 5) == 0

    def test_star_bound(self):
        assert star_lower_bound(6, 3, 6, 2) == Fraction(14, 3)
        assert star_lower_bound(6, 3, 9, 3) == 7

    def test_gain_formulas(self):
        assert gain_tandem_endnode(4, 2) == Fraction(5, 2)
        assert gain_star_noncentral(6, 3) == Fraction(9, 7)


class TestClosedFormSelection:
    def test_tandem_and_star_have_forms(self):
        assert closed_form_for(fixture_spec("tandem-n4")) == 4
        assert closed_form_for(fixture_spec("star-n6")) == Fraction(14, 3)

    def test_other_topologies_do_not(self):
        assert closed_form_for(fixture_spec("grid-2x3")) is None
        assert closed_form_for(fixture_spec("complete-n5-unit")) is None

    def test_non_unit_costs_disqualify(self):
        spec = build_topology("tandem", 4, k=2, M=4, alpha=2, failed=4,
                              overrides={(3, 4): Fraction(2)})
        assert closed_form_for(spec) is None

    def test_central_star_failure_has_no_form(self):
        spec = build_topology("star", 6, k=3, M=6, alpha=2, center=2, failed=2)
        assert closed_form_for(spec) is None

    def test_paper_gain_only_for_end_and_leaf_failures(self):
        line = {t: build_topology("tandem", 4, k=2, M=4, alpha=2, failed=t)
                for t in (1, 2, 4)}
        assert paper_gain_for(line[1]) == paper_gain_for(line[4]) == Fraction(5, 2)
        assert paper_gain_for(line[2]) is None
        assert paper_gain_for(fixture_spec("star-n6")) == gain_star_noncentral(6, 3)
        centre = build_topology("star", 6, k=3, M=6, alpha=2, center=2, failed=2)
        assert paper_gain_for(centre) is None
        assert paper_gain_for(fixture_spec("grid-2x3")) is None


class TestComparison:
    def test_tandem_report(self):
        report = compare_lp_to_bounds(fixture_spec("tandem-n4"))
        assert report.sigma_opt == 4
        assert report.sigma_non_opt == 6
        assert report.g_c == Fraction(3, 2)
        assert report.closed_form_value == report.sigma_opt

    def test_star_gain_matches_closed_form_ratio(self):
        report = compare_lp_to_bounds(fixture_spec("star-n6"))
        assert report.sigma_opt == Fraction(14, 3)
        assert report.g_c == gain_star_noncentral(6, 3)
        assert report.closed_form_value == report.sigma_opt

    def test_sandwich_on_grid(self):
        report = compare_lp_to_bounds(fixture_spec("grid-2x3"))
        assert 0 < report.sigma_opt <= report.sigma_non_opt
