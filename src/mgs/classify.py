"""Classification of markings up to automorphisms of the group.

For finite groups the orbits of generating tuples under the diagonal
automorphism action are enumerated outright.  For the free-by-flip
groups Z^(m-1) x| Z/2 the full automorphism group is the semidirect
product Z^(m-1) x| GL_(m-1)(Z), the involution pattern I(S) (which
entries square to the identity) is a complete invariant, and explicit
witness automorphisms are constructed and verified entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress, product
from operator import itemgetter
from typing import Sequence

from .abelian import AbelianGroup, _hermite, _identity_matrix, _unimodular, matmul, matvec
from .dihedral import GenDihedralElement, GenDihedralGroup, _base_blocks, is_generating_dih
from .tables import FiniteGroupTable, automorphism_group

ENUMERATION_BUDGET = 10_000_000


def free_by_flip(arity: int) -> GenDihedralGroup:
    """The group Z^(arity-1) x| Z/2 whose markings of length `arity`
    realize every involution pattern."""
    if arity < 2:
        raise ValueError("need at least 2 generators")
    return GenDihedralGroup(AbelianGroup(arity - 1, ()))


def reflection_index_set(gens: Sequence[GenDihedralElement]) -> frozenset[int]:
    """1-based indices of the entries that square to the identity."""
    return frozenset(
        i + 1 for i, g in enumerate(gens) if (g * g).is_identity()
    )


# ---------------------------------------------------------------------------
# Automorphisms of Z^(m-1) x| Z/2


@dataclass(frozen=True)
class DihAutomorphism:
    """An automorphism of Z^(m-1) x| Z/2.

    Acts by rot(w) -> rot(f w) and ref(w) -> ref(f w + v); composition
    matches the semidirect product Z^(m-1) x| GL_(m-1)(Z).
    """

    translation: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "translation", tuple(self.translation))
        object.__setattr__(self, "matrix", tuple(map(tuple, self.matrix)))
        n = len(self.translation)
        if len(self.matrix) != n or any(len(r) != n for r in self.matrix):
            raise ValueError("translation and matrix dimensions disagree")
        if not _unimodular(self.matrix):
            raise ValueError("matrix must be unimodular")

    @property
    def arity(self) -> int:
        return len(self.translation) + 1

    @classmethod
    def identity(cls, arity: int) -> "DihAutomorphism":
        return cls((0,) * (arity - 1), _identity_matrix(arity - 1))

    def apply(self, x: GenDihedralElement) -> GenDihedralElement:
        base = x.group.base
        if base.free_rank != len(self.translation) or base.invariant_factors:
            raise ValueError("element is not in the matching free-by-flip group")
        w = matvec(self.matrix, x.v.free)
        if x.eps:
            w = tuple(a + b for a, b in zip(w, self.translation))
        return x.group.element(base.element(w, ()), x.eps)

    def apply_tuple(self, gens: Sequence[GenDihedralElement]) -> tuple:
        return tuple(self.apply(g) for g in gens)

    def compose(self, other: "DihAutomorphism") -> "DihAutomorphism":
        """self after other."""
        return DihAutomorphism(
            tuple(
                a + b
                for a, b in zip(matvec(self.matrix, other.translation), self.translation)
            ),
            matmul(self.matrix, other.matrix),
        )

    def inverse(self) -> "DihAutomorphism":
        # the Hermite form of [M | I] is [I | M^-1] for a unimodular M
        n = len(self.matrix)
        rows = [list(r) + e for r, e in zip(self.matrix, _identity_matrix(n))]
        inv = [row[n:] for row, _ in _hermite(rows, 2 * n)]
        return DihAutomorphism(
            tuple(-a for a in matvec(inv, self.translation)), inv
        )


# ---------------------------------------------------------------------------
# Canonical markings and equivalence


def canonical_marking(arity: int, pattern) -> tuple[GenDihedralElement, ...]:
    """The canonical generating tuple with the given involution pattern.

    Positions outside the pattern receive the free basis rotations in
    order; pattern positions receive the plain flip and then flips
    translated by the remaining basis vectors.  Every pattern must be
    nonempty: a generating tuple always contains an involution.
    """
    pattern = frozenset(pattern)
    if not pattern:
        raise ValueError("the involution pattern of a generating tuple is nonempty")
    if not pattern <= set(range(1, arity + 1)):
        raise ValueError(f"pattern {sorted(pattern)} out of range for arity {arity}")
    group = free_by_flip(arity)
    base = group.base
    n_rot = arity - len(pattern)
    out = []
    rot_seen = 0
    ref_seen = 0
    for i in range(1, arity + 1):
        if i in pattern:
            if ref_seen == 0:
                out.append(group.reflection(base.identity()))
            else:
                out.append(group.reflection(base.free_generator(n_rot + ref_seen - 1)))
            ref_seen += 1
        else:
            out.append(group.rotation(base.free_generator(rot_seen)))
            rot_seen += 1
    return tuple(out)


def _basis_automorphism(gens: Sequence[GenDihedralElement]) -> DihAutomorphism:
    """The automorphism taking a fixed marking of pattern I(gens) to gens.

    Column k is the value of the k-th base block of the tuple, and the
    translation is the first reflection's part.  The fixed marking has
    the plain flip at the first reflection and, at the entry that opens
    the k-th block, a rotation or reflection by the k-th basis vector.
    """
    translation = next(g.v.free for g in gens if g.eps)
    cols = [v.free for _, v in _base_blocks([(g.v, g.eps) for g in gens])]
    return DihAutomorphism(translation, tuple(zip(*cols)))


def decide_marking_equivalence(
    source: Sequence[GenDihedralElement], target: Sequence[GenDihedralElement]
) -> DihAutomorphism | None:
    """An automorphism carrying one generating tuple to the other, if any.

    Two generating tuples of Z^(m-1) x| Z/2 are equivalent exactly when
    their involution patterns agree; the returned witness is verified
    entrywise before being handed back.
    """
    source = tuple(source)
    target = tuple(target)
    if len(source) != len(target) or not source:
        raise ValueError("tuples must have equal positive length")
    group = source[0].group
    if any(g.group != group for g in source + target):
        raise ValueError("tuples must live in one group")
    base = group.base
    if base.invariant_factors:
        raise ValueError("equivalence witnesses are built for torsion-free bases")
    if len(source) != base.free_rank + 1:
        raise ValueError("tuple length must be the rank of the group")
    if not is_generating_dih(group, source) or not is_generating_dih(group, target):
        raise ValueError("both tuples must generate the group")
    if reflection_index_set(source) != reflection_index_set(target):
        return None
    phi = _basis_automorphism(target).compose(_basis_automorphism(source).inverse())
    if phi.apply_tuple(source) != target:
        raise AssertionError("internal error: witness failed entrywise verification")
    return phi


def count_marking_classes(arity: int) -> int:
    """Number of marking classes of Z^(arity-1) x| Z/2: 2^arity - 1."""
    if arity < 2:
        raise ValueError("need at least 2 generators")
    return 2**arity - 1


def canonical_classes(arity: int) -> list["MarkingClass"]:
    """One canonical class per nonempty involution pattern, by size and
    then lexicographically."""
    group = free_by_flip(arity)
    return [
        MarkingClass(group, arity, frozenset(p), canonical_marking(arity, p), None)
        for size in range(1, arity + 1)
        for p in combinations(range(1, arity + 1), size)
    ]


# ---------------------------------------------------------------------------
# Orbit enumeration on finite tables


@dataclass(frozen=True)
class MarkingClass:
    group: object
    arity: int
    involutions: frozenset[int]
    representative: tuple
    orbit_size: int | None

    def to_json(self) -> dict:
        if isinstance(self.group, FiniteGroupTable):
            rep = [self.group.labels[i] for i in self.representative]
        else:
            rep = [str(x) for x in self.representative]
        return {
            "I": sorted(self.involutions),
            "representative": rep,
            "orbit_size": self.orbit_size,
        }


class _Spans:
    """Subgroups spanned by tuples of one table, memoized by subgroup.

    <H, x> depends only on the coset Hx, as <H, hx> holds x for h in H,
    so spans are computed once per coset, named by its least element.
    """

    def __init__(self, table: FiniteGroupTable):
        self.table = table
        self.columns = list(zip(*table.rows))  # x -> a*x for every a
        self.leaders: dict[frozenset[int], list[int]] = {}  # H -> x -> least of Hx
        self.spans: dict[tuple[frozenset[int], int], frozenset[int]] = {}  # (H, x) -> <H, x>
        self.reach: dict[tuple[frozenset[int], int], bool] = {}  # (H, k) -> k entries reach G

    def leader(self, sub: frozenset[int]) -> list[int]:
        """x -> the least element of the coset sub*x."""
        out = self.leaders.get(sub)
        if out is None:
            out = self.leaders[sub] = [-1] * self.table.order
            for x, column in enumerate(self.columns):
                if out[x] < 0:
                    for h in sub:
                        out[column[h]] = x
        return out

    def span(self, sub: frozenset[int], gens: tuple[int, ...], x: int) -> frozenset[int]:
        """<sub, x>, for sub = <gens> and x the least of its coset."""
        out = self.spans.get((sub, x))
        if out is None:
            out = self.spans[sub, x] = self.table.closure(gens + (x,))
        return out

    def reaches(self, sub: frozenset[int], gens: tuple[int, ...], left: int) -> bool:
        """Whether `left` more entries can extend gens, which span sub,
        to generators of the whole table."""
        n = self.table.order
        # each entry outside the span at least doubles it
        if len(sub) << left >= n:
            return True
        ok = self.reach.get((sub, left))
        if ok is None:
            leader = self.leader(sub)
            ok = self.reach[sub, left] = left > 0 and any(
                self.reaches(self.span(sub, gens, y), gens + (y,), left - 1)
                for y in range(1, n)
                if leader[y] == y
            )
        return ok


def enumerate_markings(table: FiniteGroupTable, arity: int) -> list[MarkingClass]:
    """Orbit representatives of generating tuples under all automorphisms.

    Representatives are the lexicographically least tuples of their
    orbits, listed in lexicographic order.  Aut(G) acts freely on
    generating tuples, since an automorphism fixing generators is the
    identity, so every orbit has |Aut(G)| members.

    A tuple is least in its orbit exactly when each entry t_i is least
    in its orbit under the automorphisms fixing t_1..t_(i-1): a smaller
    image of the tuple differs first at some t_i, under one of those.
    So a depth-first search in ascending entries keeps, at each depth,
    the stabilizer of the prefix, tries only the least element of each
    of its orbits, and drops a prefix whose span cannot reach the whole
    group with the entries that are left.
    """
    if arity < 1:
        raise ValueError(f"arity must be at least 1, got {arity}")
    n = table.order
    # n^arity is multiplied out only until it passes the budget
    count = 1
    for _ in range(arity if n > 1 else 0):
        count *= n
        if count > ENUMERATION_BUDGET:
            raise ValueError(f"{n}^{arity} tuples exceed the enumeration budget")
    # the budget counts every entry of every tuple
    if count * arity > ENUMERATION_BUDGET:
        raise ValueError(f"{n}^{arity} tuples of {arity} entries exceed the enumeration budget")
    trivial = frozenset([0])
    spans = _Spans(table)
    if not spans.reaches(trivial, (), arity):
        return []
    autos = automorphism_group(table)
    reps = []
    stack = [((), trivial, autos)]  # (prefix, its span, its pointwise stabilizer)
    while stack:
        prefix, sub, stabilizer = stack.pop()
        left = arity - len(prefix)
        if len(sub) == n:
            # only the identity fixes generators: every completion is least
            reps.extend(prefix + rest for rest in product(range(n), repeat=left))
            continue
        leader = spans.leader(sub)
        seen: set[int] = set()  # the orbits of smaller entries
        children = []
        for x in range(n):
            if x in seen:
                continue
            images = list(map(itemgetter(x), stabilizer))
            seen.update(images)
            nxt = spans.span(sub, prefix, leader[x])
            if spans.reaches(nxt, prefix + (x,), left - 1):
                children.append(
                    (prefix + (x,), nxt, list(compress(stabilizer, map(x.__eq__, images))))
                )
        stack.extend(reversed(children))
    involution = [table.mul(x, x) == 0 for x in range(n)]
    return [
        MarkingClass(
            table,
            arity,
            frozenset(i + 1 for i, x in enumerate(rep) if involution[x]),
            rep,
            len(autos),
        )
        for rep in reps
    ]
