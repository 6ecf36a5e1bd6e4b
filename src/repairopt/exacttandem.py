"""Explicit exact repair for line networks via a Vandermonde code.

Each node t stores the single symbol v_t = m_1 + m_2*t + ... +
m_k*t^(k-1), the evaluation of the message polynomial at the point t. A
failed node is rebuilt from k helpers, k1 on its left and k2 on its
right: each directional chain forwards exactly one running combination
per hop, and the two arriving symbols sum to the lost value exactly. Every
repair therefore costs k unit hops, meeting the line-network lower bound.
The helper coefficients are the Lagrange basis polynomials of the helpers'
points evaluated at the failed node's point, O(k^2) field operations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import gfalg


class ExactRepairError(ValueError):
    pass


@dataclass(frozen=True)
class VandermondeCode:
    """Scalar MDS code on a line of n nodes over GF(q), q prime > n; node t
    evaluates at the point t."""

    n: int
    k: int
    q: int
    message: tuple[int, ...]   # the k file fragments

    def stored_symbol(self, t: int) -> int:
        acc = 0
        for m in reversed(self.message):   # Horner's rule
            acc = (acc * t + m) % self.q
        return acc


def init_vandermonde(n: int, k: int, q: int, *, seed) -> VandermondeCode:
    """Build the code with a random message drawn from the seed."""
    if k < 1:
        raise ExactRepairError(f"need k >= 1, got k={k}")
    if k > n:
        raise ExactRepairError("need k <= n")
    if not gfalg.is_prime(q):
        raise ExactRepairError(f"{q} is not prime")
    if q <= n:
        raise ExactRepairError(f"need q > n for {n} distinct nonzero points")
    rng = random.Random(seed)
    return VandermondeCode(n=n, k=k, q=q, message=tuple(gfalg.draws(rng, q, k)))


@dataclass(frozen=True)
class RepairTranscript:
    hops: tuple[tuple[int, int, int], ...]   # (sender, receiver, symbol)
    restored: int
    expected: int

    @property
    def exact(self) -> bool:
        return self.restored == self.expected

    @property
    def hop_count(self) -> int:
        return len(self.hops)


def exact_repair(code: VandermondeCode, t: int, k1: int, k2: int) -> RepairTranscript:
    """Rebuild node t using k1 backward and k2 forward neighbours.

    The helper coefficients solve xi' A = (1, t, ..., t^(k-1)) for the
    helper Vandermonde block A: xi_j is the Lagrange basis polynomial of
    helper j's point evaluated at t, the product over the other helpers m
    of (t - m) / (j - m). Both relay chains are then walked one combined
    symbol per hop.
    """
    if not (1 <= t <= code.n):
        raise ExactRepairError("failed node out of range")
    if k1 < 0 or k2 < 0 or k1 + k2 != code.k:
        raise ExactRepairError(f"need k1 + k2 = k = {code.k}")
    if t - k1 < 1:
        raise ExactRepairError(f"only {t - 1} backward helpers available, need {k1}")
    if t + k2 > code.n:
        raise ExactRepairError(f"only {code.n - t} forward helpers available, need {k2}")
    q = code.q
    backward = list(range(t - k1, t))
    forward = list(range(t + 1, t + k2 + 1))
    helpers = backward + forward
    xi = {}
    for j in helpers:
        num = den = 1
        for m in helpers:
            if m != j:
                num = num * (t - m) % q
                den = den * (j - m) % q
        xi[j] = num * pow(den, -1, q) % q

    hops: list[tuple[int, int, int]] = []
    restored = 0
    for chain in (backward, forward[::-1]):   # each chain ends at t
        acc = 0
        for node, nxt in zip(chain, chain[1:] + [t]):
            acc = (acc + xi[node] * code.stored_symbol(node)) % q
            hops.append((node, nxt, acc))
        restored = (restored + acc) % q
    return RepairTranscript(hops=tuple(hops), restored=restored, expected=code.stored_symbol(t))


def default_split(t: int, n: int, k: int) -> tuple[int, int]:
    """Balanced helper split clipped to what each side of the line offers."""
    k1 = min(t - 1, k // 2)
    k2 = k - k1
    if t + k2 > n:
        k2 = n - t
        k1 = k - k2
    if t - k1 < 1 or t + k2 > n:
        raise ExactRepairError(f"line too short to repair node {t} with k={k}")
    return k1, k2
