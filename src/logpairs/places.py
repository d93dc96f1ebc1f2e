"""Places of Q, p-adic valuations, and logarithmic local norms.

All valuations are computed exactly on integers; only the final natural
logarithm is a binary64 float.  The sum of ``local_log_norm`` over the
archimedean place and every prime dividing numerator times denominator of a
nonzero rational is 0 up to rounding (the product formula).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import NotPrimeError, ZeroInputError

Rat = Union[Fraction, int]

# Witnesses making Miller-Rabin deterministic for n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test for ``n`` below 3.3e24 (Miller-Rabin)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n >= _MR_BOUND:
        raise NotPrimeError(f"primality check not deterministic for n >= {_MR_BOUND}")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Place:
    """A place of Q: archimedean, or the p-adic place of a prime p.

    ``prime`` is ``None`` for the archimedean place.  Over Q the local-degree
    exponent in the norm is always 1, so no extra data is needed.
    """

    prime: int | None = None

    def __post_init__(self) -> None:
        if self.prime is not None and not is_prime(self.prime):
            raise NotPrimeError(f"{self.prime} is not prime")

    @classmethod
    def archimedean(cls) -> "Place":
        return cls(None)

    @classmethod
    def finite(cls, p: int) -> "Place":
        return cls(p)

    @property
    def is_archimedean(self) -> bool:
        return self.prime is None

    def __str__(self) -> str:
        return "inf" if self.prime is None else str(self.prime)


def _int_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def log_fraction(q: Fraction) -> float:
    """Natural log of a positive rational, safe for huge numerators."""
    if q <= 0:
        raise ZeroInputError("log of a nonpositive rational")
    return math.log(q.numerator) - math.log(q.denominator)


def padic_valuation(q: Rat, p: int) -> int:
    """Exact exponent v with ``q = p**v * u`` and u a p-unit.

    Additive under multiplication.  Examples: v_2(12) = 2, v_5(9/20) = -1.
    """
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    q = Fraction(q)
    if q == 0:
        raise ZeroInputError("valuation of zero is undefined")
    return _int_valuation(abs(q.numerator), p) - _int_valuation(q.denominator, p)


def local_log_norm(q: Rat, v: Place) -> float:
    """log of the normalized local norm of a nonzero rational at a place.

    Finite p: ``-padic_valuation(q, p) * log(p)``.  Archimedean: ``log|q|``.
    """
    q = Fraction(q)
    if q == 0:
        raise ZeroInputError("local norm of zero is undefined")
    if v.is_archimedean:
        return log_fraction(abs(q))
    return -padic_valuation(q, v.prime) * math.log(v.prime)
