"""Reference computations that tests compare the package against, and the
small helpers that more than one test module uses."""

import math
from fractions import Fraction

from logpairs.errors import NegativeBError
from logpairs.polynomials import Poly2


def vojta_reduced_coefficient_numeric(a: Fraction, b: Fraction, eps: Fraction) -> int:
    """ceil(a + eps*b) - floor(a) for one explicit eps, the numeric side of
    the limit that ``snc.vojta_reduced_divisor`` evaluates analytically."""
    if b < 0:
        raise NegativeBError(f"negative pullback multiplicity {b}")
    return math.ceil(a + eps * b) - math.floor(a)


def count_calls(monkeypatch, owner, attr) -> list[int]:
    """A one-item list that counts the calls of ``owner.attr`` from now on."""
    calls = [0]
    original = getattr(owner, attr)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)
    return calls


def swap(f: Poly2) -> Poly2:
    """f(y, x), the mirror image in the diagonal, whose runs of vertical centers
    are the x-chart runs of f."""
    return Poly2({(j, i): c for (i, j), c in f.terms.items()})


def substitute(f: Poly2, u: Poly2, v: Poly2) -> Poly2:
    """f(u, v)."""
    total = Poly2()
    for (i, j), c in f.terms.items():
        total = total + Poly2.constant(c) * u**i * v**j
    return total
