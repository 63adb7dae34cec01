"""Integer Poincaré polynomials in the variable t.

These are generating polynomials of (co)homology ranks: coefficients are
nonnegative integers indexed by degree, with zero coefficients never stored.
All ledger arithmetic lives here: sums, products, degree shifts, and the
degree-reversing duality transform of an oriented 2n-manifold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping

from .errors import InputError


@dataclass(frozen=True)
class PoincarePoly:
    coeffs: tuple = ()

    @classmethod
    def from_coeffs(cls, coeffs: Mapping[int, int]) -> "PoincarePoly":
        items = []
        for deg, c in coeffs.items():
            if c < 0:
                raise InputError("Poincare polynomials have nonnegative coefficients")
            if deg < 0:
                raise InputError("degrees are nonnegative")
            if c:
                items.append((int(deg), int(c)))
        return cls(tuple(sorted(items)))

    @classmethod
    def zero(cls) -> "PoincarePoly":
        return cls(())

    @classmethod
    def one(cls) -> "PoincarePoly":
        return cls(((0, 1),))

    @classmethod
    def t_power(cls, d: int, c: int = 1) -> "PoincarePoly":
        return cls.from_coeffs({d: c})

    @classmethod
    def from_betti(cls, betti: Iterable[int]) -> "PoincarePoly":
        return cls.from_coeffs({i: b for i, b in enumerate(betti)})

    def as_dict(self) -> Dict[int, int]:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return self.coeffs[-1][0] if self.coeffs else -1

    def __add__(self, other: "PoincarePoly") -> "PoincarePoly":
        acc = dict(self.coeffs)
        for d, c in other.coeffs:
            acc[d] = acc.get(d, 0) + c
        return PoincarePoly.from_coeffs(acc)

    def __mul__(self, other: "PoincarePoly") -> "PoincarePoly":
        acc: Dict[int, int] = {}
        for d1, c1 in self.coeffs:
            for d2, c2 in other.coeffs:
                acc[d1 + d2] = acc.get(d1 + d2, 0) + c1 * c2
        return PoincarePoly.from_coeffs(acc)

    def scale(self, n: int) -> "PoincarePoly":
        return PoincarePoly.from_coeffs({d: n * c for d, c in self.coeffs})

    def shift(self, n: int) -> "PoincarePoly":
        """Multiply by t^n."""
        return PoincarePoly.from_coeffs({d + n: c for d, c in self.coeffs})

    def dual(self, complex_dim: int) -> "PoincarePoly":
        """The transform t^(2n) * p(1/t) for an oriented 2n-real-manifold."""
        if self.degree > 2 * complex_dim:
            raise InputError("polynomial degree exceeds twice the complex dimension")
        return PoincarePoly.from_coeffs({2 * complex_dim - d: c for d, c in self.coeffs})

    def format(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for d, c in self.coeffs:
            if d == 0:
                parts.append(str(c))
            else:
                mono = "t" if d == 1 else f"t^{d}"
                parts.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.format()


def product_of_cyclotomic_like(factors: Iterable[int]) -> PoincarePoly:
    """The product of (1 + t^k) over the given exponents k."""
    out = PoincarePoly.one()
    for k in factors:
        out = out * (PoincarePoly.one() + PoincarePoly.t_power(k))
    return out


def format_one_plus_powers(factors: Iterable[int]) -> str:
    return "".join(f"(1+t^{k})" if k != 1 else "(1+t)" for k in factors)
