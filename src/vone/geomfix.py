"""Geometric fixed points as classification tables.

Fixed points of a virtual G-set are its marks; fixed points of the k-th
power map on a representation sphere collapse to one of three sphere
maps; fixed points of the Bott class and of the v1-telescope reduce to
prime-power bookkeeping. The tables here record exactly those residues
as structured enumerations. No spectra are modeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .burnside import VirtualGSet, marks

__all__ = [
    "PowerMapFixedPoints",
    "BottClassFixedPoints",
    "TelescopeFixedPoints",
    "KUCofiberFixedPoints",
    "phi_gset",
    "psi_power_fixed",
    "phi_bott_valuation",
    "telescope_fixed_points",
    "ku_cofiber_fixed_points",
]


@dataclass(frozen=True)
class PowerMapFixedPoints:
    """Fixed points of the k-th power self map: a degree-k map of S^2,
    the null map out of S^0, or the identity of S^2."""

    kind: str  # "degree" | "zero" | "identity"
    degree: int | None = None

    def __post_init__(self):
        if self.kind not in ("degree", "zero", "identity"):
            raise ValueError(f"unknown variant {self.kind!r}")
        if (self.kind == "degree") != (self.degree is not None):
            raise ValueError("degree is carried by the degree variant only")

    def __repr__(self):
        if self.kind == "degree":
            return f"Degree({self.degree})"
        return "Zero" if self.kind == "zero" else "Identity"


@dataclass(frozen=True)
class BottClassFixedPoints:
    """Fixed points of a Bott-class power: the prime power p^(p^(n-j+d)),
    kept as base and exponent."""

    p: int
    exponent: int

    def value(self) -> int:
        return self.p**self.exponent

    def __repr__(self):
        return f"{self.p}^{self.exponent}"


@dataclass(frozen=True)
class TelescopeFixedPoints:
    """Fixed points of an inverted-v1 cofiber: a v1-telescope of a mod
    p^t Moore space, zero, or a rational sphere pair."""

    kind: str  # "v1-telescope" | "zero" | "rational-pair"
    modulus: int | None = None

    def __post_init__(self):
        if self.kind not in ("v1-telescope", "zero", "rational-pair"):
            raise ValueError(f"unknown variant {self.kind!r}")
        if (self.kind == "v1-telescope") != (self.modulus is not None):
            raise ValueError("only the telescope variant carries a modulus")

    def is_zero(self) -> bool:
        return self.kind == "zero"


@dataclass(frozen=True)
class KUCofiberFixedPoints:
    """KU-level shadow of the telescope table: KU mod p^t, zero, or a
    rational KU pair with p^j-th roots of unity adjoined."""

    kind: str  # "ku-mod" | "zero" | "ku-rational-pair"
    modulus: int | None = None
    conductor: int | None = None

    def is_zero(self) -> bool:
        return self.kind == "zero"


def phi_gset(X: VirtualGSet, H) -> int | Fraction:
    """Geometric fixed points of a virtual G-set: its mark at H."""
    value = marks(X)[X.group.subgroup_class(H).id]
    return int(value) if value.denominator == 1 else value


def psi_power_fixed(d: int, k: int) -> PowerMapFixedPoints:
    """C_d-fixed points of the k-th power map on the d-th rotation
    sphere: degree k when d = 1, null when 1 != d divides k, identity
    when d does not divide k."""
    if d < 1 or k < 1:
        raise ValueError("power map parameters must be positive")
    if d == 1:
        return PowerMapFixedPoints("degree", k)
    if k % d == 0:
        return PowerMapFixedPoints("zero")
    return PowerMapFixedPoints("identity")


def phi_bott_valuation(p: int, n: int, j: int, d: int = 0) -> BottClassFixedPoints:
    """C_{p^j}-fixed points of the p^d-th power of the Bott class of the,
    faithful fixed point free representation of C_{p^n}: p^(p^(n-j+d))."""
    if p < 2:
        raise ValueError("p must be a prime")
    if not 1 <= j <= n:
        raise ValueError("need 1 <= j <= n")
    if d < 0:
        raise ValueError("the power d must be >= 0")
    return BottClassFixedPoints(p, p ** (n - j + d))


def telescope_fixed_points(p: int, n: int, s: int, i: int, j: int) -> TelescopeFixedPoints:
    """C_{p^j}-fixed points of the inverted-v1 cofiber attached to
    p^s[C_{p^n}/C_{p^i}]: the telescope mod p^(s+n-i) at j = 0, zero for
    1 <= j <= i, a rational pair above i."""
    if p < 2:
        raise ValueError("p must be a prime")
    if s < 0:
        raise ValueError("s must be >= 0")
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError("need 0 <= i <= n and 0 <= j <= n")
    if j == 0:
        return TelescopeFixedPoints("v1-telescope", p ** (s + n - i))
    if j <= i:
        return TelescopeFixedPoints("zero")
    return TelescopeFixedPoints("rational-pair")


def ku_cofiber_fixed_points(p: int, n: int, s: int, i: int, j: int) -> KUCofiberFixedPoints:
    """Same three-case table after smashing with KU: KU/(p^(s+n-i)) at
    j = 0, zero for 1 <= j <= i, rational KU with zeta_{p^j} above i."""
    t = telescope_fixed_points(p, n, s, i, j)
    if t.kind == "v1-telescope":
        return KUCofiberFixedPoints("ku-mod", modulus=t.modulus)
    if t.kind == "zero":
        return KUCofiberFixedPoints("zero")
    return KUCofiberFixedPoints("ku-rational-pair", conductor=p**j)
