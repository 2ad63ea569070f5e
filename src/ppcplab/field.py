"""Prime-field arithmetic, univariate polynomials, and soundness-driven prime selection.

All protocol arithmetic happens in Z_p.  The prime is picked per verifier run
so that (total rounds) * (max round degree) / p stays below the configured
soundness target, with one union-bound term per round of every sub-protocol.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

# Keeps every product of two reduced values inside 128 bits; desk-scale runs
# never get anywhere near this.
MAX_MODULUS = (1 << 61) - 1

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class FieldMismatchError(ValueError):
    """Operands live in different prime fields."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the fixed witness set is exact below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=1024)
def select_prime(total_rounds: int, degree_bound: int, epsilon: float | int | Fraction) -> int:
    """Smallest prime p with p > total_rounds * degree_bound / epsilon.

    ``total_rounds`` must count every round of every sub-protocol executed by
    one verifier invocation, so that a single union bound over all rounds
    yields overall soundness error at most ``epsilon``.  Memoised: verifiers
    ask for the same few primes again and again.
    """
    if total_rounds < 1 or degree_bound < 1:
        raise ValueError("total_rounds and degree_bound must be positive")
    eps = Fraction(str(epsilon)) if isinstance(epsilon, float) else Fraction(epsilon)
    if not 0 < eps <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    threshold = Fraction(total_rounds * degree_bound) / eps
    candidate = int(threshold) + 1  # strictly above the threshold
    if candidate < 2:
        candidate = 2
    while not is_prime(candidate):
        candidate += 1
    if candidate > MAX_MODULUS:
        raise ValueError("required prime exceeds the 2^61 - 1 modulus cap")
    return candidate


class PrimeField:
    """The field Z_p.  Calling the field with an integer produces an element.

    Frozen: the verifier meters proof and random bits by ``bits`` and hands
    its field to the prover, so no attribute can be written after
    construction."""

    __slots__ = ("modulus", "bits")

    def __init__(self, modulus: int):
        if modulus > MAX_MODULUS:
            raise ValueError(f"modulus {modulus} exceeds the 2^61 - 1 cap")
        if not is_prime(modulus):
            raise ValueError(f"modulus {modulus} is not prime")
        object.__setattr__(self, "modulus", modulus)
        # bits needed to draw one element: ceil(log2 p)
        object.__setattr__(self, "bits", (modulus - 1).bit_length())

    def __setattr__(self, name, value):
        raise AttributeError(f"PrimeField is frozen; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PrimeField is frozen; cannot delete {name!r}")

    def __call__(self, value: int) -> "FieldElement":
        return FieldElement(value, self)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(0, self)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(1, self)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self) -> int:
        return hash(("PrimeField", self.modulus))

    def __repr__(self) -> str:
        return f"PrimeField({self.modulus})"


class FieldElement:
    """An integer reduced mod p, tied to its field."""

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: PrimeField):
        self.value = value % field.modulus
        self.field = field

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field.modulus != self.field.modulus:
                raise FieldMismatchError(
                    f"mixed fields Z_{self.field.modulus} and Z_{other.field.modulus}"
                )
            return other
        if isinstance(other, int):
            return FieldElement(other, self.field)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.value + other.value, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.value - other.value, self.field)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(other.value - self.value, self.field)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.value * other.value, self.field)

    __rmul__ = __mul__

    def __neg__(self):
        return FieldElement(-self.value, self.field)

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inv() ** (-exponent)
        return FieldElement(pow(self.value, exponent, self.field.modulus), self.field)

    def inv(self) -> "FieldElement":
        if self.value == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return FieldElement(pow(self.value, self.field.modulus - 2, self.field.modulus), self.field)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.field.modulus == other.field.modulus and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.modulus
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field.modulus, self.value))

    def __repr__(self) -> str:
        return f"{self.value}%{self.field.modulus}"


@dataclass(frozen=True)
class UniPoly:
    """Univariate polynomial, coefficients lowest degree first, with a declared
    degree bound.  The proof format for a round of degree bound d carries
    exactly d+1 coefficients, so ``len(coeffs) <= bound + 1`` is enforced."""

    coeffs: tuple[FieldElement, ...]
    bound: int

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        if len(self.coeffs) > self.bound + 1:
            raise ValueError(
                f"{len(self.coeffs)} coefficients exceed declared degree bound {self.bound}"
            )
        mod = self.coeffs[0].field.modulus
        if any(c.field.modulus != mod for c in self.coeffs):
            raise FieldMismatchError("coefficients from mixed fields")

    @property
    def field(self) -> PrimeField:
        return self.coeffs[0].field

    @property
    def degree(self) -> int:
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i].value != 0:
                return i
        return -1

    def evaluate(self, x: FieldElement) -> FieldElement:
        p = self.field.modulus
        acc = 0
        xv = x.value
        for c in reversed(self.coeffs):
            acc = (acc * xv + c.value) % p
        return FieldElement(acc, self.field)

    def padded(self, bound: int) -> "UniPoly":
        """Zero-extend to exactly bound+1 coefficients (the wire format)."""
        if bound < len(self.coeffs) - 1:
            raise ValueError("cannot pad below the current coefficient count")
        zero = self.field.zero
        return UniPoly(self.coeffs + (zero,) * (bound + 1 - len(self.coeffs)), bound)


def _mul_linear(poly: list[int], c: int, p: int) -> list[int]:
    # poly(X) * (X + c) over Z_p
    out = [0] * (len(poly) + 1)
    for i, a in enumerate(poly):
        out[i] = (out[i] + a * c) % p
        out[i + 1] = (out[i + 1] + a) % p
    return out


def interpolate(points: Sequence[tuple[FieldElement, FieldElement]]) -> UniPoly:
    """Unique polynomial of degree < len(points) through the given points.

    Trailing zero coefficients are trimmed; the declared bound stays
    len(points) - 1.  Duplicate x-coordinates are an input error.
    """
    if not points:
        raise ValueError("need at least one point")
    field = points[0][0].field
    p = field.modulus
    xs = [pt[0].value for pt in points]
    ys = [pt[1].value for pt in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate x-coordinates")
    n = len(points)
    coeffs = [0] * n
    for i in range(n):
        num = [1]
        denom = 1
        for j in range(n):
            if j == i:
                continue
            num = _mul_linear(num, -xs[j], p)
            denom = denom * (xs[i] - xs[j]) % p
        scale = ys[i] * pow(denom, p - 2, p) % p
        for d in range(len(num)):
            coeffs[d] = (coeffs[d] + num[d] * scale) % p
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return UniPoly(tuple(FieldElement(c, field) for c in coeffs), n - 1)


@functools.lru_cache(maxsize=256)
def node_inverse(p: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Inverse mod p of the Vandermonde matrix at the nodes 0..d.

    Row j holds the weights that take the values of a polynomial of degree
    <= d at t = 0..d to its coefficient of X^j, so the coefficients are one
    matrix-vector product.  Row i of the Lagrange sum in ``interpolate`` is
    column i here.  The nodes are distinct mod p only for d < p.
    """
    if not 0 <= d < p:
        raise ValueError(f"nodes 0..{d} are not distinct mod {p}")
    cols = []
    for i in range(d + 1):
        num = [1]
        denom = 1
        for j in range(d + 1):
            if j != i:
                num = _mul_linear(num, -j, p)
                denom = denom * (i - j) % p
        scale = pow(denom, p - 2, p)
        cols.append([c * scale % p for c in num])
    return tuple(zip(*cols))
