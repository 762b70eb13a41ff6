"""The one home of p-adic valuations and unit splits, with the exact
valuation identities and the idempotent dichotomy.

Every layer decides by p-adic valuations: Howell pivots, Lazard weights,
bracket constants in Z_(p) and chart coordinates.  They all read them here:
`vp` is exact on nonzero integers and rationals, `vp_int` and `vp_array`
read the valuation of residues mod p^N (N for zero), one at a time or
elementwise, and `unit_split` writes a nonzero integer as p^e u and inverts
the unit part.

`PadicScalar` is a frozen residue mod p^prec, the container that
`idempotent_power` takes and returns; it carries no arithmetic.

The number-theoretic helpers (digit sums, Legendre's formula, valuations
of binomials of prime-power order) are exact big-integer computations with
no precision cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

import numpy as np

from .errors import PrecisionError, ValidationError


def vp(k: Union[int, Fraction], p: int) -> int:
    """Exact p-adic valuation of a nonzero integer or rational."""
    # type(), not isinstance: Fraction is an ABC, and vp_int runs in hot loops
    if type(k) is Fraction:
        return vp(k.numerator, p) - vp(k.denominator, p)
    if k == 0:
        raise ValidationError("valuation of zero is undefined")
    k = abs(k)
    v = 0
    while k % p == 0:
        k //= p
        v += 1
    return v


def vp_int(a: int, p: int, N: int) -> int:
    """Valuation of a residue mod p^N, capped at N for zero."""
    a %= p**N
    return N if a == 0 else vp(a, p)


def vp_array(a: np.ndarray, p: int, N: int) -> np.ndarray:
    """`vp_int` elementwise: p^v is read off gcd(a, p^N) with one
    searchsorted.  ``a`` is an int64 array with p^N < 2^63 or an object
    array of Python ints."""
    a = np.asarray(a)
    powers = np.array([p**e for e in range(N + 1)], dtype=a.dtype)
    return np.searchsorted(powers, np.gcd(a, powers[-1]))


def unit_split(a: int, p: int, q: int) -> Tuple[int, int]:
    """Write a nonzero integer as p^e u with u prime to p; (e, u^-1 mod q).

    ``a`` is split as given, not reduced mod q first, so an exact k! above
    q splits as well as a residue does.
    """
    e = vp(a, p)
    return e, pow(a // p**e, -1, q)


def digit_sum(k: int, p: int) -> int:
    """Sum of all base-p digits of k >= 0."""
    if k < 0:
        raise ValidationError("digit_sum needs k >= 0")
    s = 0
    while k:
        k, r = divmod(k, p)
        s += r
    return s


def legendre_factorial_val(k: int, p: int) -> int:
    """v_p(k!) via (k - s(k)) / (p - 1)."""
    if k < 0:
        raise ValidationError("legendre_factorial_val needs k >= 0")
    return (k - digit_sum(k, p)) // (p - 1)


def vp_binom_prime_power(m: int, k: int, p: int) -> int:
    """v_p of binom(p^m, k) for 1 <= k < p^m, by the digit closed form.

    Writing k = sum a_j p^j, the value is the largest i in [1, m] with
    a_{m-i} != 0, i.e. m minus the index of the lowest nonzero digit.
    """
    if not 1 <= k < p**m:
        raise ValidationError(f"k={k} out of range [1, p^m)")
    return m - vp(k, p)


@dataclass(frozen=True)
class PadicScalar:
    """Residue mod p^prec, normalized to [0, p^prec)."""

    p: int
    prec: int
    residue: int

    def __post_init__(self):
        if self.prec <= 0:
            raise ValidationError("precision must be positive")
        object.__setattr__(self, "residue", self.residue % self.p**self.prec)


def idempotent_power(beta: PadicScalar, n: int, f: int = 1) -> PadicScalar:
    """beta^(p^n (p^f - 1)) mod p^(n+1): the 0/1 idempotent dichotomy.

    Returns 1 when beta is a unit and 0 when v(beta) > 0.
    """
    if beta.prec < n + 1:
        raise PrecisionError("need precision >= n+1")
    p = beta.p
    q = p ** (n + 1)
    exponent = p**n * (p**f - 1)
    return PadicScalar(p, n + 1, pow(beta.residue % q, exponent, q))
