"""The shared core of the two rings: virtual elements with a p-local flag.

A virtual G-set (`burnside.VirtualGSet`, an element of A(G)) and a virtual
representation (`repring.VirtualRep`, an element of RU(G)) are both
immutable coefficient vectors over a fixed Z-basis. Coefficients are
integers, or p-local rationals (denominators prime to p) on an element that
carries the flag p_local = p. Sums and products merge the flags, and two
different primes never mix. This module owns that discipline together with
the additive structure, scaling, powers, equality and printing; a subclass
supplies only its basis, its unit and its ring product.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["VirtualElement"]

_INT = frozenset([int])


class VirtualElement:
    """Element of a ring with a Z-basis indexed by data of a group.

    A subclass defines:

    - `_size(group)` (static): the length of the basis;
    - `_names()`: the display name of each basis element, for `repr`;
    - `_one(group)` (class method): the unit of the ring;
    - `_product(other)`: the ring product with an element of the same class
      over the same group;
    - `_noun`, `_basis`, `_ring`: words for its error messages.
    """

    __slots__ = ("group", "coeffs", "p_local")

    def __init__(self, group, coeffs, p_local: int | None = None):
        vec = tuple(coeffs)
        # all-int input, the common case, is tested at C level
        if not set(map(type, vec)) <= _INT:
            vec = tuple([c if type(c) is int else self._normalize(c, p_local) for c in vec])
        if len(vec) != self._size(group):
            raise ValueError(f"coefficient count does not match {self._basis}")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coeffs", vec)
        object.__setattr__(self, "p_local", p_local)

    def _normalize(self, value, p_local):
        if not isinstance(value, Fraction):
            value = Fraction(value)
        if value.denominator == 1:
            return value.numerator
        if p_local is None:
            raise ValueError(f"non-integer coefficient on an integral {self._noun}")
        if value.denominator % p_local == 0:
            raise ValueError(f"denominator not prime to {p_local}")
        return value

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, group, p_local: int | None = None):
        return cls(group, [0] * cls._size(group), p_local)

    def _merge_flag(self, other: "VirtualElement") -> int | None:
        if self.p_local is not None and other.p_local is not None:
            if self.p_local != other.p_local:
                raise ValueError("mixed p-local primes")
        return self.p_local if self.p_local is not None else other.p_local

    # -- additive structure and scaling

    def __add__(self, other):
        if isinstance(other, int):
            other = other * self._one(self.group)
        if not isinstance(other, type(self)):
            return NotImplemented
        if other.group is not self.group:
            raise ValueError("different groups")
        flag = self._merge_flag(other)
        return type(self)(
            self.group, [a + b for a, b in zip(self.coeffs, other.coeffs)], flag
        )

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.group, [-c for c in self.coeffs], self.p_local)

    def __sub__(self, other):
        if not isinstance(other, (int, type(self))):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            flag = self.p_local
            if isinstance(other, Fraction) and other.denominator != 1 and flag is None:
                raise ValueError(f"rational scaling requires a p-local {self._noun}")
            return type(self)(self.group, [c * other for c in self.coeffs], flag)
        if isinstance(other, type(self)):
            return self._product(other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, e: int):
        """Square and multiply: at most 2 * e.bit_length() ring products."""
        if e < 0:
            raise ValueError(f"negative powers are not defined {self._ring}")
        out = self._one(self.group)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    # -- comparison and printing

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (
            self.group.descriptor == other.group.descriptor
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.group.descriptor, self.coeffs))

    def __repr__(self):
        out = ""
        for name, c in zip(self._names(), self.coeffs):
            if c == 0:
                continue
            term = name if c == 1 else f"-{name}" if c == -1 else f"{c}*{name}"
            out += term if not out or term.startswith("-") else "+" + term
        return out or "0"
