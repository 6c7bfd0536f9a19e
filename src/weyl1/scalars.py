"""Exact rational scalars and the minus-infinity degree sentinel.

All coefficients in this package are exact rationals: reduced, arbitrary
precision, positive denominator.  The rational type `Rat` is the stdlib
fractions.Fraction; its string format is "p" or "p/q".

Cleared form.  `integral` clears the denominators of a {key: scalar} map
once, giving nonzero Python int numerators over their least positive
common denominator.  That is the one form an element of `core` has: it
goes from operation to operation, and `integral` runs only where a map
of scalars comes in (an element built from a mapping).  `linalg` takes
the numerators as its rows and hands back cleared rows, which become
elements with no division (`windows.Coordinates`); `gwa` keeps its
rational functions and graded components cleared the same way.  So the
inner loops of all three run on plain ints.  The public accessors that
promise a Rat (WeylElement.terms and coefficient) build it from the
cleared form on each call.  `coeff` coerces a scalar coming in to an int
when it is integral and a Rat otherwise, never a float, so int*int and
int+int never go through the rational type.
"""

from __future__ import annotations

import sys
from fractions import Fraction as Rat
from math import lcm, log10

from .errors import DomainError

RAT_BACKEND = "fractions"

#: Degree of the zero element.  Distinct from every integer, compares below
#: all of them, and absorbs integer addition, which is exactly what the
#: degree bookkeeping needs.
NEG_INF = float("-inf")

RAT_ONE = Rat(1)


def rat(value, den=None):
    """Coerce ints, strings like "-3/4", or rational objects to a scalar.

    Binary floats are refused with TypeError: they are not exact, and a
    float reaching this point means an int/int true division leaked.
    """
    if isinstance(value, float) or isinstance(den, float):
        raise TypeError(f"floats are not exact scalars: {value!r}")
    if den is not None:
        return Rat(value, den)
    if isinstance(value, str):
        value = value.strip()
    return Rat(value)


def coeff(value):
    """Coerce like `rat`, to an int when integral and a Rat otherwise."""
    if type(value) is int:
        return value
    q = value if type(value) is Rat else rat(value)
    return q if q.denominator != 1 else int(q)


def integral(entries: dict):
    """(ints, den): den is the lcm of the values' denominators, and ints
    holds every nonzero value times den as a Python int.  This is the
    cleared form: no smaller den works, so gcd(den, *ints) is 1.

    When every value is already a nonzero int, `entries` itself comes back
    with den = 1, uncopied: a caller that updates `ints` in place must copy
    it first.
    """
    den, clean = 1, True
    for v in entries.values():
        if type(v) is not int:
            den = lcm(den, v.denominator)
            clean = False
        elif not v:
            clean = False
    if clean:
        return entries, 1
    return {
        k: v.numerator * (den // v.denominator)
        for k, v in entries.items()
        if v
    }, den


def rat_str(q, den: int = 1) -> str:
    """Canonical string form of a Rat q, or of an int q over a coprime
    den > 1: "p" when the denominator is 1, else "p/q".

    Python prints ints of at most `sys.get_int_max_str_digits()` digits
    (4300 by default); a longer numerator or denominator is a DomainError
    naming its size and that limit.  The limit itself is left as it is.
    """
    try:
        return str(q) if den == 1 else f"{q}/{den}"
    except ValueError:
        bits = max(abs(q.numerator), q.denominator * den).bit_length()
        raise DomainError(
            f"cannot print a coefficient of about {int(bits * log10(2)) + 1} digits:"
            f" integers print with at most {sys.get_int_max_str_digits()} digits"
        ) from None
