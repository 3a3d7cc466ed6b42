"""Marked groups and the finite-window view of their space.

A marked group is a group together with an ordered generating tuple;
through a radius-R window it is seen as its relation ball: the reduced
words of length at most R that evaluate to the identity.  Agreement of
relation balls induces the metric 2^-(R+1); everything here (distances,
convergence reports, accumulation witnesses) is phrased in terms of
exactly computed balls.

An abelian or Dih(A) marking is compiled once into plain integers, its
layout (`MarkedGroup._layout`): the modulus of each base coordinate,
each entry's coordinates and each entry's eps bit, an abelian marking
being the reflection-free case.  Two comparison routes read it.  The
generic route enumerates reduced words outright on the multiplication
of `_ops`, compiled once per comparison.  For abelian and
generalized dihedral markings a word's value depends only on its net
letter contributions, its profile, and the relation profiles form a
lattice (the subgroups of Z^m are the marked abelian groups on m
generators; Champetier 2000).  The profile route builds each marking's
lattice in Hermite normal form (Cohen, GTM 138, 2.4) once per marking
object (`MarkedGroup._profile`), answers at once when the two
are equal, and otherwise lists the short points of each lattice,
doubling the norm, and tests them against the other marking.  Its work
follows the lattice points of norm below twice the first mismatch, not
r_max.  Both routes return identical radii; the tests check the profile
route against the enumeration route and against a loop over every
profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import itemgetter, mul, neg
from typing import Iterable, Sequence, Union

from .abelian import (
    AbelianElement,
    AbelianGroup,
    CyclicQuotientMap,
    _fold,
    _hermite,
    cyclic_residual_quotient,
    express_in_generators,
    generates_full,
    is_limit_of_cyclic,
    primes_avoiding,
)
from .dihedral import (
    GenDihedralElement,
    GenDihedralGroup,
    _base_blocks,
    evaluate_word,
    is_generating_dih,
)
from .tables import FiniteGroupTable
from .words import Word, check_cap, free_reduce, walk_ball

GroupLike = Union[AbelianGroup, GenDihedralGroup, FiniteGroupTable]


class NotGenerating(ValueError):
    """The proposed tuple does not generate the group."""


class FamilyError(ValueError):
    """The group is outside the requested family of marked groups."""


# ---------------------------------------------------------------------------
# Marked groups


@dataclass(frozen=True)
class MarkedGroup:
    group: GroupLike
    generators: tuple

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        g, S = self.group, self.generators
        if isinstance(g, FiniteGroupTable):
            for x in S:
                if not isinstance(x, int) or not 0 <= x < g.order:
                    raise ValueError("marking entries must be element indices")
            if len(g.closure(S)) != g.order:
                raise NotGenerating("tuple does not generate the table group")
            return
        abelian = isinstance(g, AbelianGroup)
        if not abelian and not isinstance(g, GenDihedralGroup):
            raise TypeError(f"unsupported group kind {type(g).__name__}")
        kind = AbelianElement if abelian else GenDihedralElement
        for x in S:
            if not isinstance(x, kind) or x.group != g:
                raise ValueError("marking entries must be elements of the group")
        if not (generates_full(g, S) if abelian else is_generating_dih(g, S)):
            raise NotGenerating(f"tuple does not generate {g}")

    @property
    def arity(self) -> int:
        return len(self.generators)

    def evaluate(self, word: Word):
        if word.arity != self.arity:
            raise ValueError("word arity does not match the marking")
        g, S = self.group, self.generators
        if isinstance(g, AbelianGroup):
            out = g.identity()
            for e, s in zip(word.exponent_vector(), S):
                out = out + e * s
            return out
        if isinstance(g, GenDihedralGroup):
            return evaluate_word(g, S, word)
        return g.evaluate(word.letters, S)

    def is_relation(self, word: Word) -> bool:
        value = self.evaluate(word)
        if isinstance(self.group, FiniteGroupTable):
            return value == 0
        return value.is_identity()

    def __str__(self) -> str:
        if isinstance(self.group, FiniteGroupTable):
            gens = ",".join(self.group.labels[i] for i in self.generators)
        else:
            gens = ",".join(str(x) for x in self.generators)
        return f"{self.group}:{gens}"

    @cached_property
    def _layout(self):
        """(moduli, coordinates of each entry, eps pattern) of an abelian or
        Dih(A) marking, with eps 0 throughout for an abelian group and the
        modulus None on a free coordinate; None for a table marking."""
        view = _parts(self)
        if view is None:
            return None
        base, parts = view
        moduli = (None,) * base.free_rank + base.invariant_factors
        return moduli, tuple(v.coordinates() for v, _ in parts), tuple(e for _, e in parts)

    @cached_property
    def _profile(self):
        """(columns, relation lattice) of an abelian or Dih(A) marking,
        compiled on first use: both depend on the marking alone.  A column
        holds one base coordinate's values at the profile positions (the
        rotation entries, then the reflection entries) and its modulus."""
        moduli, coords, pattern = self._layout
        coords = [v for _, v in sorted(zip(pattern, coords), key=itemgetter(0))]
        columns = [(tuple(v[k] for v in coords), m) for k, m in enumerate(moduli)]
        return columns, _relation_lattice(columns, self.arity, pattern.count(0))


@dataclass(frozen=True)
class RelationBall:
    arity: int
    radius: int
    relations: tuple[Word, ...]

    def __post_init__(self):
        for w in self.relations:
            if w.arity != self.arity or len(w) > self.radius:
                raise ValueError("relation outside the stated ball")
        if not self.relations or not self.relations[0].is_identity():
            raise ValueError("a relation ball must contain the empty word")
        letters = {w.letters for w in self.relations}
        if {tuple(map(neg, w[::-1])) for w in letters} != letters:
            raise ValueError("a relation ball must be closed under inversion")

    @cached_property
    def as_set(self) -> frozenset[Word]:
        return frozenset(self.relations)

    def __contains__(self, word: Word) -> bool:
        return word in self.as_set

    def restrict(self, radius: int) -> "RelationBall":
        if radius > self.radius:
            raise ValueError("cannot grow a ball by restriction")
        return RelationBall(
            self.arity, radius, tuple(w for w in self.relations if len(w) <= radius)
        )

    def to_json(self) -> dict:
        return {
            "arity": self.arity,
            "radius": self.radius,
            "count": len(self.relations),
            "relations": [str(w) for w in self.relations],
        }


def _parts(marked: MarkedGroup):
    """(base, [(base part, eps)]) of an abelian or Dih(A) marking, with
    eps 0 throughout for an abelian group; None for a table marking."""
    g = marked.group
    if isinstance(g, AbelianGroup):
        return g, [(s, 0) for s in marked.generators]
    if isinstance(g, GenDihedralGroup):
        return g.base, [(s.v, s.eps) for s in marked.generators]
    return None


def _ops(marked: MarkedGroup):
    """(identity, mul, letter -> value) on flat integers, as walk_ball takes it.

    A table marking multiplies element indices through its Cayley rows.
    An abelian or Dih(A) marking multiplies (coordinates, eps) pairs, eps
    0 throughout for an abelian group; the modulus of a free coordinate
    is None, and it is never reduced.
    """
    g, S = marked.group, marked.generators
    if isinstance(g, FiniteGroupTable):
        rows = g.rows
        letters = {i: s for i, s in enumerate(S, start=1)}
        letters.update({-i: g.inv(s) for i, s in enumerate(S, start=1)})
        return 0, (lambda a, b: rows[a][b]), letters
    moduli, coords, pattern = marked._layout

    def dmul(a, b):
        (va, ea), (vb, eb) = a, b
        if ea:
            vb = tuple(-x for x in vb)
        return (
            tuple(
                (x + y) if m is None else (x + y) % m
                for x, y, m in zip(va, vb, moduli)
            ),
            ea ^ eb,
        )

    values = {}
    for i, (x, e) in enumerate(zip(coords, pattern), start=1):
        # a reflection is its own inverse; a rotation negates, mod each modulus
        inverse = x if e else tuple(-c if m is None else -c % m for c, m in zip(x, moduli))
        values[i], values[-i] = (x, e), (inverse, e)
    return ((0,) * len(moduli), 0), dmul, values


def relation_ball(marked: MarkedGroup, radius: int) -> RelationBall:
    """All relations of length <= radius, by meet in the middle.

    A word u*v with |u| = ceil(L/2) is a relation exactly when
    val(u) = val(v^-1).  One walk to radius ceil(R/2) carries both
    values of every half-word (the second under the reversed product
    with inverted letters); each length's half-words are indexed by
    val(w^-1), and every u, in ball order, is joined with the v of its
    value, in ball order, so the relations come out in ball order.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    m = marked.arity
    check_cap(m, radius)
    identity, times, values = ops = _ops(marked)
    inverse_ops = (identity, lambda x, y: times(y, x), {ell: values[-ell] for ell in values})
    layers = [[((), identity, identity)]]
    layers.extend(walk_ball(m, (radius + 1) // 2, ops, inverse_ops))
    by_inverse = []
    for layer in layers[: radius // 2 + 1]:
        index = {}
        for v, _, x in layer:
            index.setdefault(x, []).append(v)
        by_inverse.append(index)
    relations = [Word((), m)]
    for length in range(1, radius + 1):
        if (length + 1) // 2 == len(layers):
            break  # the walk ended on an empty layer (arity 0): no longer words
        index = by_inverse[length // 2]
        for u, x, _ in layers[(length + 1) // 2]:
            for v in index.get(x, ()):
                if not v or u[-1] != -v[0]:
                    relations.append(Word(u + v, m))
    return RelationBall(m, radius, tuple(relations))


# ---------------------------------------------------------------------------
# Ball comparison: enumeration route


def _compare_enumerate(a: MarkedGroup, b: MarkedGroup, r_max: int):
    ops_a, ops_b = _ops(a), _ops(b)
    id_a, id_b = ops_a[0], ops_b[0]
    layers = walk_ball(a.arity, r_max, ops_a, ops_b, distinct=True)
    for length, layer in enumerate(layers, start=1):
        # A least separating word is the least word of its value pair (a
        # shorter word to that pair would separate earlier), so it survives
        # the pruning, and the layer's first mismatch is the least one.
        for w, ya, yb in layer:
            if (ya == id_a) != (yb == id_b):
                return length - 1, Word(w, a.arity)
    # The walk may end early, exhausted.  Then no reached pair has exactly
    # one side the identity, so the pairs form the graph of an isomorphism
    # carrying generators to generators: the balls agree at every radius.
    return r_max, None


# ---------------------------------------------------------------------------
# Ball comparison: profile route
#
# For a marking of an abelian group or of Dih(A), the value of a reduced
# word depends only on its net letter contributions: an integer vector x
# over the rotation positions and d over the reflection positions, where
# successive reflection occurrences contribute with alternating signs.
# A profile (x, d) is realized by some reduced word of length
# |x|_1 + |d|_1 and by none shorter, and it can be a relation only when
# sum(d) = 0.  The relation profiles form a lattice: sum(d) = 0 and one
# dot product per base coordinate vanishing (mod its modulus).  Two
# markings have equal balls of radius L exactly when their lattices have
# the same points of L1 norm <= L, so the agreement radius is the least
# norm over the symmetric difference of the lattices, minus one.


def _relation_lattice(columns, arity: int, n_rot: int):
    """The relation profiles of a compiled marking, as the rows of their
    reduced row-echelon (Hermite) basis with positive pivots, each with its
    pivot column and the next row's pivot column (the arity for the last)."""
    basis = [[int(i == j) for j in range(arity)] for i in range(arity)]
    if n_rot < arity:
        basis, _, _ = _fold(basis, [sum(row[n_rot:]) for row in basis])
    for col, m in columns:
        values = [sum(map(mul, col, row)) for row in basis]
        basis, pivot, g = _fold(basis, [v % m for v in values] if m else values)
        if m and pivot is not None:
            f = m // gcd(g, m)
            basis.append([f * x for x in pivot])
    hnf = _hermite(basis, arity)
    ends = [c for _, c in hnf[1:]] + [arity]
    return [(tuple(row), c, end) for (row, c), end in zip(hnf, ends)]


def _walk(plan, radius: int, columns, out) -> None:
    """Append to `out` the lattice points of norm <= radius of `plan` (a
    Hermite basis from `_relation_lattice`) that are not relations of the
    compiled marking `columns`.

    A stack holds partial points, each with the level of `plan` it fixes
    next and the norm of its final coordinates.  Level i fixes one Hermite
    basis coefficient; after it every coordinate left of the next pivot is
    final, so a partial point whose final coordinates already exceed the
    norm is dropped.
    """
    stack = [(0, (0,) * len(plan[0][0]), 0)]
    while stack:
        i, point, used = stack.pop()
        row, c, end = plan[i]
        piv, at, left = row[c], point[c], radius - used
        last = i + 1 == len(plan)
        for t in range(-((left + at) // piv), (left - at) // piv + 1):
            p = tuple(x + t * y for x, y in zip(point, row)) if t else point
            n = used + sum(map(abs, p[c:end]))
            if n > radius:
                continue
            if not last:
                stack.append((i + 1, p, n))
            elif not _flat_relation(columns, p):
                out.append(p)


def _flat_relation(columns, p) -> bool:
    """Whether the profile p (x, then d) is a relation of a compiled marking.

    One integer dot product per base coordinate: reduced mod m on a
    torsion coordinate, compared to 0 on a free one.
    """
    for col, m in columns:
        s = sum(map(mul, col, p))
        if (s % m if m else s) != 0:
            return False
    return True


def _profile_word(marked: MarkedGroup, x: tuple[int, ...], d: tuple[int, ...]) -> Word:
    pattern = marked._layout[2]
    rot_pos = [i + 1 for i, e in enumerate(pattern) if not e]
    ref_pos = [i + 1 for i, e in enumerate(pattern) if e]
    plus = []
    minus = []
    for c, pos in zip(d, ref_pos):
        if c > 0:
            plus.extend([pos] * c)
        elif c < 0:
            minus.extend([pos] * (-c))
    letters: list[int] = []
    for p, q in zip(plus, minus):
        letters.extend((p, q))
    for c, pos in zip(x, rot_pos):
        if c > 0:
            letters.extend([pos] * c)
        elif c < 0:
            letters.extend([-pos] * (-c))
    word = free_reduce(letters, marked.arity)
    if len(word) != sum(abs(c) for c in x) + sum(abs(c) for c in d):
        raise AssertionError("profile word construction produced cancellation")
    return word


def _compare_profiles(a: MarkedGroup, b: MarkedGroup, r_max: int):
    # both markings share one eps pattern, so their lattices share one layout
    (cols_a, lat_a), (cols_b, lat_b) = a._profile, b._profile
    if lat_a == lat_b:
        return r_max, None
    # A nonzero lattice point is at least its first nonzero coefficient
    # times that row's pivot in norm, so no mismatch is shorter than the
    # least pivot.  From there the listed norm doubles, so that an early
    # mismatch stays cheap; every mismatch of norm <= radius is listed,
    # so the least one is final.
    radius, misses = min(row[c] for row, c, _ in lat_a + lat_b), []
    while True:
        radius = min(radius, r_max)
        for plan, other in ((lat_a, cols_b), (lat_b, cols_a)):
            if plan:
                _walk(plan, radius, other, misses)
        if misses or radius == r_max:
            break
        radius *= 2
    if not misses:
        return r_max, None
    n_rot = a._layout[2].count(0)

    def order(p):
        x, d = p[:n_rot], p[n_rot:]
        return sum(map(abs, p)), sum(map(abs, d)), tuple(map(neg, d)), tuple(map(neg, x))

    p = min(misses, key=order)
    return sum(map(abs, p)) - 1, _profile_word(a, p[:n_rot], p[n_rot:])


def _compare(a: MarkedGroup, b: MarkedGroup, r_max: int, method: str):
    if a.arity != b.arity:
        raise ValueError("markings have different arities")
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    if method not in ("auto", "enumerate"):
        raise ValueError(f"unknown comparison method {method!r}")
    la, lb = a._layout, b._layout
    if method == "auto" and la is not None and lb is not None and la[2] == lb[2]:
        return _compare_profiles(a, b, r_max)
    return _compare_enumerate(a, b, r_max)


def agreement_radius(
    a: MarkedGroup, b: MarkedGroup, r_max: int = 8, method: str = "auto"
) -> int:
    """Largest radius <= r_max at which the relation balls agree.

    A return value equal to r_max means the balls agree on the whole
    tested window (the true radius is at least r_max).
    """
    radius, _ = _compare(a, b, r_max, method)
    return radius


def separating_word(
    a: MarkedGroup, b: MarkedGroup, r_max: int = 8, method: str = "auto"
) -> Word | None:
    """A shortest word that is a relation of exactly one marking."""
    _, witness = _compare(a, b, r_max, method)
    return witness


def marked_distance(
    a: MarkedGroup, b: MarkedGroup, r_max: int = 8, method: str = "auto"
) -> Fraction:
    """2^-(R+1) with R the agreement radius; 0 if indistinguishable."""
    radius, witness = _compare(a, b, r_max, method)
    if witness is None:
        return Fraction(0)
    return Fraction(1, 2 ** (radius + 1))


# ---------------------------------------------------------------------------
# Convergence certification


@dataclass(frozen=True)
class ConvergenceReport:
    indices: tuple[int, ...]
    radii: tuple[int, ...]
    schedule: tuple[int, ...]
    verdict: str  # 'consistent-with-convergence' | 'refuted'
    witness: Word | None = None
    witness_index: int | None = None

    def consistent(self) -> bool:
        return self.verdict == "consistent-with-convergence"

    def to_json(self) -> dict:
        return {
            "indices": list(self.indices),
            "radii": list(self.radii),
            "schedule": list(self.schedule),
            "verdict": self.verdict,
            "witness": None if self.witness is None else str(self.witness),
            "witness_index": self.witness_index,
        }


def check_convergence(
    family,
    limit: MarkedGroup,
    indices: Sequence[int],
    r_max: int | None = None,
) -> ConvergenceReport:
    """Certify a family against a limit through a radius schedule.

    The verdict is consistent-with-convergence when the agreement radii
    are nondecreasing and the k-th member's radius is at least k (the
    schedule 1, 2, ..., len(indices)); otherwise the report is a
    refutation carrying a separating word.  Consistency is only a
    certificate up to the tested radii; refutations are exact.
    """
    indices = tuple(indices)
    if not indices:
        raise ValueError("no indices: a report over an empty family certifies nothing")
    schedule = tuple(range(1, len(indices) + 1))
    if r_max is None:
        r_max = len(indices) + 1
    if len(indices) > r_max:
        raise ValueError("schedule exceeds the tested radius window")
    if callable(family):
        members = [family(n) for n in indices]
    else:
        members = list(family)
        if len(members) != len(indices):
            raise ValueError("family and indices must have equal length")
    for member in members:
        if member.arity != limit.arity:
            raise ValueError("family and limit must share one arity")
    results = [_compare(member, limit, r_max, "auto") for member in members]
    radii = [radius for radius, _ in results]
    for pos in range(len(indices)):
        bad = radii[pos] < schedule[pos] or (pos > 0 and radii[pos] < radii[pos - 1])
        if bad:
            return ConvergenceReport(
                indices,
                tuple(radii),
                schedule,
                "refuted",
                results[pos][1],
                indices[pos],
            )
    return ConvergenceReport(
        indices, tuple(radii), schedule, "consistent-with-convergence"
    )


# ---------------------------------------------------------------------------
# Limit decisions


@dataclass(frozen=True)
class LimitDecision:
    value: bool
    reason: str

    def __bool__(self) -> bool:
        return self.value


_KLEIN = AbelianGroup(0, (2, 2))
_ORDER_TWO = AbelianGroup(0, (2,))


def _abelian_model(group: GroupLike) -> AbelianGroup | None:
    """The abelian group a marked group abstractly is, when abelian."""
    if isinstance(group, AbelianGroup):
        return group
    if isinstance(group, GenDihedralGroup) and group.is_abelian():
        # Dih(A) with exponent-2 base is A x Z/2
        factors = group.base.invariant_factors + (2,)
        return AbelianGroup(0, tuple(sorted(factors)))
    return None


def is_limit_of_dihedral(group: GroupLike) -> LimitDecision:
    """Decide membership in the closure of the dihedral groups.

    Nonabelian Dih(A) qualifies exactly when the torsion of A is cyclic;
    an abelian group qualifies exactly when it is the order-2 group or
    the Klein group (the two abelian dihedral groups).
    """
    if isinstance(group, GenDihedralGroup) and not group.is_abelian():
        if is_limit_of_cyclic(group.base):
            return LimitDecision(True, "base group has cyclic torsion")
        return LimitDecision(
            False,
            f"base torsion {group.base.invariant_factors} is not cyclic",
        )
    model = _abelian_model(group)
    if model is None:
        raise TypeError(f"unsupported group kind {type(group).__name__}")
    if model == _ORDER_TWO:
        return LimitDecision(True, "isomorphic to the dihedral group of order 2")
    if model == _KLEIN:
        return LimitDecision(True, "isomorphic to the dihedral group of order 4")
    return LimitDecision(
        False, "abelian but not of order 2 or the Klein group"
    )


def rank_of_limit(group: GroupLike) -> int:
    """Minimal generator count of a member of the dihedral closure."""
    decision = is_limit_of_dihedral(group)
    if not decision:
        raise FamilyError(decision.reason)
    if isinstance(group, GenDihedralGroup):
        return group.base.rank + 1
    return group.rank


# ---------------------------------------------------------------------------
# Residual witnesses


@dataclass(frozen=True)
class DihedralResidualWitness:
    source: GenDihedralGroup
    half_order: int
    quotient: CyclicQuotientMap

    @cached_property
    def target(self) -> GenDihedralGroup:
        return GenDihedralGroup(self.quotient.target_group())

    def apply(self, x: GenDihedralElement) -> GenDihedralElement:
        if x.group != self.source:
            raise ValueError("element does not belong to the source group")
        image = self.quotient.apply(x.v)
        base = self.target.base
        coords = (image,) if base.invariant_factors else ()
        return self.target.element(base.element((), coords), x.eps)

    def __call__(self, x: GenDihedralElement) -> GenDihedralElement:
        return self.apply(x)


def dihedral_residual_witness(
    group: GenDihedralGroup, kill_none_of: Iterable[GenDihedralElement]
) -> DihedralResidualWitness:
    """A finite dihedral quotient keeping the listed elements nontrivial.

    Reflections stay nontrivial under any base quotient, so it is enough
    to choose a cyclic residual quotient of the base for the rotation
    parts that occur.
    """
    decision = is_limit_of_dihedral(group)
    if not decision:
        raise FamilyError(decision.reason)
    if group.is_abelian():
        raise FamilyError("the group is abelian; use a cyclic residual quotient")
    elements = list(kill_none_of)
    rotations = []
    for x in elements:
        if x.group != group:
            raise ValueError("element does not belong to the group")
        if x.is_identity():
            raise ValueError("the identity cannot be kept nontrivial")
        if x.eps == 0:
            rotations.append(x.v)
    quotient = cyclic_residual_quotient(group.base, rotations)
    witness = DihedralResidualWitness(group, quotient.modulus, quotient)
    for x in elements:
        if witness.apply(x).is_identity():
            raise AssertionError("internal error: witness killed a listed element")
    return witness


# ---------------------------------------------------------------------------
# Embedding of abelian markings into dihedral ones


def dih_embed(marked: MarkedGroup) -> MarkedGroup:
    """(A, S) -> (Dih(A), (flip, S...)); injective and ball-preserving."""
    if not isinstance(marked.group, AbelianGroup):
        raise TypeError("only abelian marked groups embed this way")
    group = GenDihedralGroup(marked.group)
    flip = group.reflection(marked.group.identity())
    gens = (flip,) + tuple(group.rotation(x) for x in marked.generators)
    return MarkedGroup(group, gens)


# ---------------------------------------------------------------------------
# Cantor-Bendixson ranks and accumulation witnesses


RANK_FAMILIES = ("dihedral-closure", "cyclic-closure", "all-marked")


def cb_rank(group: GroupLike, family: str) -> int:
    """Cantor-Bendixson rank within the named family: the free rank.

    Rank 0 means isolated; finite groups always get 0, and the rank of
    Dih(A) in the dihedral closure equals the free rank of A.
    """
    if family not in RANK_FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {RANK_FAMILIES}")
    if family == "dihedral-closure":
        decision = is_limit_of_dihedral(group)
        if not decision:
            raise FamilyError(decision.reason)
        if isinstance(group, GenDihedralGroup):
            return group.base.free_rank
        return 0
    model = _abelian_model(group)
    if model is None:
        raise FamilyError(
            "rank in this family is computed for abelian groups "
            "(or abelian dihedral groups) only"
        )
    if family == "cyclic-closure" and not is_limit_of_cyclic(model):
        raise FamilyError("torsion is not cyclic, so the group is outside the closure")
    return model.free_rank


def _quotient_by_prime(base: AbelianGroup, p: int):
    """Kill p times the last free generator; returns (group, element map)."""
    if base.free_rank == 0:
        raise ValueError("no infinite cyclic factor to collapse")
    # glue Z/d x Z/p into Z/dp by CRT, d the last torsion factor (1 if none)
    factors = base.invariant_factors
    d = factors[-1] if factors else 1
    target = AbelianGroup(base.free_rank - 1, factors[:-1] + (d * p,))
    inv = pow(d, -1, p)

    def convert(x: AbelianElement) -> AbelianElement:
        a = x.torsion[-1] if factors else 0
        glued = a + d * (((x.free[-1] - a) * inv) % p)
        return target.element(x.free[:-1], x.torsion[:-1] + (glued,))

    return target, convert


@dataclass(frozen=True)
class AccumulationWitness:
    target: MarkedGroup
    primes: tuple[int, ...]
    members: tuple[MarkedGroup, ...]
    separators: dict
    report: ConvergenceReport


def accumulation_witness(marked: MarkedGroup, count: int) -> AccumulationWitness:
    """A verified family of distinct marked groups accumulating on `marked`.

    One infinite cyclic factor is collapsed modulo increasing odd primes
    coprime to the torsion order.  Pairwise distinctness is certified by
    explicit separating words (verified by evaluation) and the report
    carries the agreement radii with the target.
    """
    if count < 1:
        raise ValueError("count must be positive")
    group = marked.group
    view = _parts(marked)
    if view is None:
        raise TypeError("accumulation witnesses need an abelian or dihedral marking")
    base, parts = view
    if base.free_rank == 0:
        raise FamilyError("rank 0: the marked group is isolated in its family")
    chosen = primes_avoiding(2 * base.torsion_order(), count)

    members = []
    for p in chosen:
        quotient, convert = _quotient_by_prime(base, p)
        if isinstance(group, AbelianGroup):
            members.append(MarkedGroup(quotient, tuple(convert(v) for v, _ in parts)))
        else:
            dq = GenDihedralGroup(quotient)
            members.append(MarkedGroup(dq, tuple(dq.element(convert(v), eps) for v, eps in parts)))

    # a word evaluating to the collapsed free generator
    blocks = _base_blocks(parts)
    target_elem = base.free_generator(base.free_rank - 1)
    coeffs = express_in_generators(base, [b for _, b in blocks], target_elem)
    if coeffs is None:
        raise AssertionError("internal error: marking does not express the base")
    unit_word = Word((), marked.arity)
    for (block, _), c in zip(blocks, coeffs):
        unit_word = unit_word * Word(block, marked.arity) ** c

    separators = {}
    for i in range(len(members)):
        word = unit_word ** chosen[i]
        if marked.is_relation(word) or not members[i].is_relation(word):
            raise AssertionError("internal error: bad separating word")
        for j in range(i + 1, len(members)):
            if members[j].is_relation(word):
                raise AssertionError("internal error: bad separating word")
            separators[(i, j)] = word

    report = check_convergence(members, marked, chosen, r_max=max(chosen) - 1)
    return AccumulationWitness(
        marked, tuple(chosen), tuple(members), separators, report
    )


# ---------------------------------------------------------------------------
# Characteristic systems of the closures


@dataclass(frozen=True)
class CharacteristicSystem:
    """(alpha, n): the space looks like omega^alpha * n + 1."""

    alpha: int
    points: int

    def __str__(self) -> str:
        return f"omega^{self.alpha} * {self.points} + 1"


def closure_characteristic(arity: int, family: str) -> CharacteristicSystem:
    """Characteristic system of a closure inside the marked groups of
    the given arity: dihedral needs arity >= 2 and gives
    (arity - 1, 2^arity - 1); abelian gives (arity, 1); cyclic is the
    arity-1 case (1, 1).
    """
    if arity < 1:
        raise ValueError("arity must be positive")
    if family == "dihedral":
        if arity < 2:
            raise ValueError("the dihedral closure needs at least 2 generators")
        return CharacteristicSystem(arity - 1, 2**arity - 1)
    if family == "abelian":
        return CharacteristicSystem(arity, 1)
    if family == "cyclic":
        if arity != 1:
            raise ValueError("the cyclic closure is computed on one generator")
        return CharacteristicSystem(1, 1)
    raise ValueError(f"unknown family {family!r}")
