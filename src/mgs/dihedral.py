"""Generalized dihedral groups: an abelian translation part extended by
an order-two flip that acts by inversion.

Elements are pairs ``<v; eps>`` with v in the base group and eps in
{0, 1}: eps 0 is a rotation, eps 1 a reflection.  The product rule is
``<v; e> * <w; f> = <v + (-1)^e w; e xor f>``, so every reflection is an
involution and conjugating a rotation by any reflection inverts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .abelian import AbelianElement, AbelianGroup, generates_full
from .words import Word

MATERIALIZE_BOUND = 512


@dataclass(frozen=True)
class GenDihedralGroup:
    base: AbelianGroup

    def order(self):
        o = self.base.order()
        return math.inf if o == math.inf else 2 * o

    def is_finite(self) -> bool:
        return self.base.is_finite()

    def is_abelian(self) -> bool:
        # inversion is trivial exactly when every base element has order <= 2
        return self.base.exponent() in (1, 2)

    def _coerce(self, v) -> AbelianElement:
        if isinstance(v, AbelianElement):
            if v.group != self.base:
                raise ValueError("translation part belongs to a different base group")
            return v
        return self.base.from_coordinates(tuple(v))

    def element(self, v, eps: int) -> "GenDihedralElement":
        if eps not in (0, 1):
            raise ValueError("eps must be 0 or 1")
        return GenDihedralElement(self, self._coerce(v), eps)

    def rotation(self, v) -> "GenDihedralElement":
        return self.element(v, 0)

    def reflection(self, v) -> "GenDihedralElement":
        return self.element(v, 1)

    def identity(self) -> "GenDihedralElement":
        return GenDihedralElement(self, self.base.identity(), 0)

    def elements(self) -> Iterator["GenDihedralElement"]:
        for eps in (0, 1):
            for v in self.base.elements():
                yield GenDihedralElement(self, v, eps)

    def __str__(self) -> str:
        return f"Dih({self.base})"


@dataclass(frozen=True)
class GenDihedralElement:
    group: GenDihedralGroup
    v: AbelianElement
    eps: int

    def __mul__(self, other: "GenDihedralElement") -> "GenDihedralElement":
        if other.group is not self.group and other.group != self.group:
            raise ValueError("elements belong to different groups")
        w = other.v if self.eps == 0 else -other.v
        return GenDihedralElement(self.group, self.v + w, self.eps ^ other.eps)

    def inverse(self) -> "GenDihedralElement":
        if self.eps:
            return self
        return GenDihedralElement(self.group, -self.v, 0)

    def __pow__(self, n: int) -> "GenDihedralElement":
        # rot(v)^n = rot(n*v); a reflection is an involution
        if self.eps:
            return self if n % 2 else self.group.identity()
        return GenDihedralElement(self.group, n * self.v, 0)

    def is_identity(self) -> bool:
        return self.eps == 0 and self.v.is_identity()

    def order(self):
        if self.eps:
            return 2
        return self.v.order()

    def __str__(self) -> str:
        tag = "ref" if self.eps else "rot"
        return f"{tag}({self.v.coords_str()})"


def evaluate_word(
    group: GenDihedralGroup, gens: Sequence[GenDihedralElement], word: Word
) -> GenDihedralElement:
    """Image of a free-group word under generator i -> gens[i-1]."""
    if len(gens) != word.arity:
        raise ValueError(f"word arity {word.arity} does not match {len(gens)} generators")
    for g in gens:
        if g.group != group:
            raise ValueError("generator does not belong to the given group")
    inverses = [g.inverse() for g in gens]
    out = group.identity()
    for ell in word.letters:
        out = out * (gens[ell - 1] if ell > 0 else inverses[-ell - 1])
    return out


def _base_blocks(parts):
    """Words over a marking that evaluate into its base group.

    `parts` holds each generator's (base part, eps); an abelian marking
    has eps = 0 throughout.  Rotation entries evaluate into the base, and
    so does each later reflection times the first.  Returns (letter
    tuple, base element) pairs in position order; they generate the base
    exactly when the marking generates its group.
    """
    blocks = []
    first_ref = None
    for i, (v, eps) in enumerate(parts):
        if eps == 0:
            blocks.append(((i + 1,), v))
        elif first_ref is None:
            first_ref = (i, v)
        else:
            blocks.append(((i + 1, first_ref[0] + 1), v - first_ref[1]))
    return blocks


def is_generating_dih(group: GenDihedralGroup, gens: Sequence[GenDihedralElement]) -> bool:
    """Exact generation test.

    A tuple generates Dih(A) exactly when it contains a reflection and
    the rotation parts together with the differences of the reflection
    translation parts generate A.
    """
    for g in gens:
        if g.group != group:
            raise ValueError("generator does not belong to the given group")
    blocks = _base_blocks([(g.v, g.eps) for g in gens])
    return any(g.eps for g in gens) and generates_full(group.base, [v for _, v in blocks])


def materialize_table(group):
    """Cayley table of a finite abelian or generalized dihedral group.

    Rotations come first, then reflections, each block in lexicographic
    coordinate order, so the identity lands at index 0 and labels are
    stable across runs.  The order is checked against MATERIALIZE_BOUND
    before any element is listed.  Rows are built on the mixed-radix
    indices of the base coordinates; labels come from the elements.
    """
    from .tables import FiniteGroupTable

    if isinstance(group, AbelianGroup):
        base = group
    elif isinstance(group, GenDihedralGroup):
        base = group.base
    else:
        raise TypeError(f"cannot materialize {type(group).__name__}")
    if not group.is_finite():
        raise ValueError("cannot materialize an infinite group")
    n = group.order()
    if n > MATERIALIZE_BOUND:
        raise ValueError(f"group order {n} exceeds the cap of {MATERIALIZE_BOUND}")
    # index of (c_1..c_t) is ((c_1 d_2 + c_2) d_3 + ...) + c_t, the order of elements()
    add: list[list[int]] = [[0]]
    neg = [0]
    for d in base.invariant_factors:
        add = [
            [a * d + (x + y) % d for a in row for y in range(d)]
            for row in add
            for x in range(d)
        ]
        neg = [a * d + -x % d for a in neg for x in range(d)]
    rows = [tuple(row) for row in add]
    if isinstance(group, GenDihedralGroup):
        # <v;0><w;e> = <v+w;e> and <v;1><w;e> = <v-w;1-e>
        m = len(add)
        rows = [row + tuple([m + a for a in row]) for row in rows]
        for row in add:
            diff = tuple([row[w] for w in neg])  # v - w for every w
            rows.append(tuple([m + a for a in diff]) + diff)
    labels = tuple(str(x) for x in group.elements())
    return FiniteGroupTable(n, tuple(rows), labels)
