"""Laurent polynomials in one variable y with arbitrary-precision integer coefficients.

Only the operations the coefficient tables need are provided: addition,
integer scaling, multiplication by a power of y, and exact evaluation of
the polynomial and of its derivative at y = 1.
"""

from typing import Mapping


class LaurentPolynomial:
    """Finite mapping from integer exponents to nonzero integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        self.coeffs: dict[int, int] = {}
        if coeffs:
            for exponent, coeff in coeffs.items():
                if coeff:
                    self.coeffs[int(exponent)] = coeff

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        result = dict(self.coeffs)
        for exponent, coeff in other.coeffs.items():
            total = result.get(exponent, 0) + coeff
            if total:
                result[exponent] = total
            else:
                result.pop(exponent, None)
        out = LaurentPolynomial()
        out.coeffs = result
        return out

    def scale(self, factor: int) -> "LaurentPolynomial":
        if factor == 0:
            return LaurentPolynomial()
        out = LaurentPolynomial()
        out.coeffs = {e: c * factor for e, c in self.coeffs.items()}
        return out

    def shift(self, exponent_delta: int) -> "LaurentPolynomial":
        """Multiply by y**exponent_delta."""
        out = LaurentPolynomial()
        out.coeffs = {e + exponent_delta: c for e, c in self.coeffs.items()}
        return out

    def eval_at_one(self) -> int:
        return sum(self.coeffs.values())

    def derivative_at_one(self) -> int:
        return sum(e * c for e, c in self.coeffs.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        pieces = []
        for exponent in sorted(self.coeffs):
            coeff = self.coeffs[exponent]
            if exponent == 0:
                pieces.append(f"{coeff}")
            elif exponent == 1:
                pieces.append(f"{coeff}*y")
            else:
                pieces.append(f"{coeff}*y^{exponent}")
        return " + ".join(pieces)

    def to_json_dict(self) -> dict[str, str]:
        """Exponent -> coefficient map with decimal-string values."""
        return {str(e): str(c) for e, c in sorted(self.coeffs.items())}
