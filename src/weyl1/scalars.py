"""Exact rational scalars and the minus-infinity degree sentinel.

All coefficients in this package are exact rationals: reduced, arbitrary
precision, positive denominator.  The rational type `Rat` is the stdlib
fractions.Fraction; its string format is "p" or "p/q".

Stored form.  The rows `linalg` takes, the results it hands back and the
coordinates `Coordinates.coords` gives it hold every integral scalar as
a plain Python int and every other one as a Rat with denominator > 1,
never as a float.  int*int and int+int then never go through the
rational type.  Nothing outside can tell: Rat(n) == n and
hash(Rat(n)) == hash(n).  `coeff` coerces into the stored form,
`demote` restores it after arithmetic, and `exact_div` divides without
ever producing a float.

Cleared form.  `integral` clears the denominators of a {key: scalar} map
once, giving nonzero Python int numerators over their least positive
common denominator, and `over` divides them back into the stored form.
The cleared form is the one form an element of `core` has: it goes from
operation to operation, `integral` runs only where a map of scalars
comes in (an element built from a mapping, a `linalg` row), and `over`
only where an element's coordinates go to `linalg`
(`Coordinates.coords`).  The public accessors that promise a Rat
(WeylElement.terms, coefficient, scalar_value) build it from the
cleared form on each call.  Inside its elimination `linalg` keeps
primitive int rows, and a Rat appears only when a result row is scaled
to a leading 1; `gwa` clears its dense coefficient tuples the same way
(`gwa._clear`/`_out`).  So the inner loops of all three run on plain
ints.
"""

from __future__ import annotations

from fractions import Fraction as Rat
from math import lcm

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


def demote(q):
    """q as an int when it is integral, else q unchanged (stored form)."""
    return q if type(q) is int or q.denominator != 1 else int(q)


def coeff(value):
    """Coerce like `rat`, into the stored form: int when integral."""
    if type(value) is int:
        return value
    return demote(value if type(value) is Rat else rat(value))


def exact_div(a, b):
    """a / b in the stored form; int / int never becomes a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Rat(a, b) if r else q
    return demote(a / b)


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


def over(ints: dict, den: int) -> dict:
    """{k: v / den} in the stored form; `ints` itself when den is 1."""
    if den == 1:
        return ints
    return {k: exact_div(v, den) for k, v in ints.items()}


def rat_str(q) -> str:
    """Canonical string form: "p" when the denominator is 1, else "p/q"."""
    return str(q)
