"""Closed-form repair-cost lower bounds and optimization-gain reporting.

The line and star formulas are tight for unit link costs, so they double
as cross-checks on the LP. The gain compares the bandwidth-optimal
shortest-path baseline against the optimized cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coder import make_plan
from .netmodel import NetworkSpec, baseline_cost


def _pos(x: Fraction) -> Fraction:
    return x if x > 0 else Fraction(0)


def tandem_lower_bound(k: int, M, alpha) -> Fraction:
    """k (M - (k-1) alpha), clamped at zero; tight for unit-cost lines."""
    return k * _pos(Fraction(M) - (k - 1) * Fraction(alpha))


def star_lower_bound(n: int, k: int, M, alpha) -> Fraction:
    """((n-2)/(n-k) + 1)(M - (k-1) alpha)+ for a non-central failure."""
    factor = Fraction(n - 2, n - k) + 1
    return factor * _pos(Fraction(M) - (k - 1) * Fraction(alpha))


def gain_tandem_endnode(n: int, k: int) -> Fraction:
    """End-of-line gain formula n(n+1) / (2k(n-k)) at M=k(n-k), alpha=n-k.

    The numerator counts hop costs n, n-1, ..., 1; it differs from the
    shortest-path baseline this package computes (see compare_lp_to_bounds,
    which reports both).
    """
    return Fraction(n * (n + 1), 2 * k * (n - k))


def gain_star_noncentral(n: int, k: int) -> Fraction:
    """Non-central-failure gain (2n-3) / (2n-k-2) at M=k(n-k), alpha=n-k."""
    return Fraction(2 * n - 3, 2 * n - k - 2)


@dataclass(frozen=True)
class GainReport:
    sigma_non_opt: Fraction
    sigma_opt: Fraction
    g_c: Fraction
    closed_form_value: Fraction | None
    paper_gain: Fraction | None


def closed_form_for(spec: NetworkSpec) -> Fraction | None:
    """The applicable tight bound, if one exists for this topology.

    Only unit-cost line networks and star networks with a non-central
    failure have closed forms; everything else returns None.
    """
    unit = all(c == 1 for c in (spec.cost.cost(i, j) for (i, j) in spec.cost.edges()))
    if not unit:
        return None
    if spec.kind == "tandem":
        return tandem_lower_bound(spec.k, spec.M, spec.alpha)
    if spec.kind == "star" and spec.failed != spec.param("center"):
        return star_lower_bound(spec.n, spec.k, spec.M, spec.alpha)
    return None


def paper_gain_for(spec: NetworkSpec) -> Fraction | None:
    """The published gain formula for this failure, if one exists: line
    networks with an end node failing and stars with a non-central one."""
    if spec.kind == "tandem" and spec.failed in (1, spec.n):
        return gain_tandem_endnode(spec.n, spec.k)
    if spec.kind == "star" and spec.failed != spec.param("center"):
        return gain_star_noncentral(spec.n, spec.k)
    return None


def compare_lp_to_bounds(spec: NetworkSpec) -> GainReport:
    """Report baseline, the optimum of make_plan, gain, the closed form and
    the published gain."""
    opt = make_plan(spec).lp_value
    base = baseline_cost(spec)
    if opt < 0 or opt > base:
        raise RuntimeError("LP value violates the baseline sandwich")
    return GainReport(
        sigma_non_opt=base,
        sigma_opt=opt,
        g_c=base / opt if opt else Fraction(0),
        closed_form_value=closed_form_for(spec),
        paper_gain=paper_gain_for(spec),
    )
