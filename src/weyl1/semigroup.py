"""Additive submonoids of the naturals: gaps, gcd, and bound data.

For a monoid H generated by positive integers with gcd g, only finitely
many multiples of g are missing from H.  The constructive bound works
with the least positive member m and any two members s = t + g:

    h_k = t*(m/g - k) + k*s   for k = 0 .. m/g - 1

are members covering every residue of g modulo m, so everything past
mu = max h_k that is divisible by g belongs to H.  The derived constants

    nu = #(g*N \\ H),     gamma(drop) = mu + drop

are reported by the `semigroup` command of the CLI; no other module of
the package uses them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Dict, FrozenSet, Optional, Tuple

from .errors import DomainError, HorizonError

#: Largest membership table `semigroup_analyze` builds: two Python lists
#: of this length, about 16 MB.
MAX_HORIZON = 1_000_000


@dataclass
class SemigroupData:
    generators: FrozenSet[int]
    g: int
    gaps: FrozenSet[int]
    h_list: Tuple[int, ...]
    mu: int
    nu: int
    horizon: int
    h_witnesses: Dict[int, Dict[int, int]] = field(default_factory=dict)

    def gamma_of(self, drop: int) -> int:
        return self.mu + drop

    def is_member(self, n: int) -> bool:
        if n < 0 or n % self.g:
            return False
        return n not in self.gaps


def _membership_table(gens, horizon: int):
    """member[k] plus, for members, one generator used to reach them."""
    if horizon > MAX_HORIZON:
        raise DomainError(
            f"horizon {horizon} exceeds the membership table limit {MAX_HORIZON}"
        )
    member = [False] * (horizon + 1)
    via = [0] * (horizon + 1)
    member[0] = True
    for n in range(1, horizon + 1):
        for a in gens:
            if a <= n and member[n - a]:
                member[n] = True
                via[n] = a
                break
    return member, via


def _witness(n: int, via) -> Dict[int, int]:
    combo: Dict[int, int] = {}
    while n:
        a = via[n]
        combo[a] = combo.get(a, 0) + 1
        n -= a
    return combo


def semigroup_analyze(generators, horizon: Optional[int] = None) -> SemigroupData:
    """Gaps and bound data of the monoid generated by positive integers.

    Membership is computed up to the horizon (default 4*max(gens)^2) and
    the finitely-many-gaps claim is certified by finding m/g consecutive
    members among the multiples of g, where m is the least generator;
    adding copies of m then covers everything beyond.  HorizonError is
    raised when the horizon is too small to certify, DomainError when a
    table past MAX_HORIZON would be needed.
    """
    gens = sorted(set(int(a) for a in generators))
    if not gens:
        raise ValueError("need at least one generator")
    if gens[0] <= 0:
        raise ValueError("generators must be positive")
    g = 0
    for a in gens:
        g = gcd(g, a)
    m = gens[0]
    run_needed = m // g
    if horizon is None:
        horizon = 4 * gens[-1] ** 2
    horizon = max(horizon, 2 * m)
    member, via = _membership_table(gens, horizon)

    # certify stabilization: a run of m/g consecutive multiples of g
    run = 0
    stable_from = None
    for n in range(0, horizon + 1, g):
        if member[n]:
            run += 1
            if run >= run_needed:
                stable_from = n - (run_needed - 1) * g
                break
        else:
            run = 0
    if stable_from is None:
        raise HorizonError(
            f"horizon {horizon} too small to certify the gap set; raise it"
        )
    gaps = frozenset(
        n for n in range(0, stable_from, g) if not member[n]
    )

    # constructive members h_k = t*(m/g - k) + k*s with s = t + g
    t = next(n for n in range(0, horizon + 1, g) if member[n] and (n + g <= horizon and member[n + g]))
    s = t + g
    h_list = tuple(t * (run_needed - k) + k * s for k in range(run_needed))
    need = max(h_list) if h_list else 0
    if need > horizon:
        member2, via2 = _membership_table(gens, need)
    else:
        member2, via2 = member, via
    witnesses = {}
    for h in h_list:
        if not member2[h]:
            raise AssertionError("constructive member fell outside the monoid")
        witnesses[h] = _witness(h, via2)

    return SemigroupData(
        generators=frozenset(gens),
        g=g,
        gaps=gaps,
        h_list=h_list,
        mu=max(h_list) if h_list else 0,
        nu=len(gaps),
        horizon=horizon,
        h_witnesses=witnesses,
    )
