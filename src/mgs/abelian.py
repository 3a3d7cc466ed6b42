"""Finitely generated abelian groups in invariant-factor normal form.

A group is ``Z^r x Z/d_1 x ... x Z/d_t`` with ``d_1 | d_2 | ... | d_t``
and every ``d_i >= 2``; constructors canonicalize, so two groups are
isomorphic exactly when they are equal.  The exact integer kernel lives
here as well.  One extended-gcd elimination step, brought to Hermite
normal form, answers every question with a unique answer: generation,
unimodularity, unimodular inverses and relation lattices.  Smith normal
form, whose transforms are not unique, only expresses elements in
generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, islice, product
from typing import Iterable, Iterator, Sequence

INFINITE = math.inf

Matrix = list[list[int]]


# ---------------------------------------------------------------------------
# Exact integer linear algebra


def _identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    if rows and len(a[0]) != inner:
        raise ValueError("matrix shape mismatch")
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def matvec(a: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]


def _fold(rows, values):
    """Unimodular row operations that leave one row, `pivot`, with value
    g = gcd(values) and every other row with value 0, where a row's value
    is given by `values` and combines linearly: (zero rows, pivot, g),
    with pivot None when every value is 0."""
    zero, pivot, g = [], None, 0
    for row, v in zip(rows, values):
        if not v:
            zero.append(row)
        elif pivot is None:
            pivot, g = row, v
        else:
            # extended Euclid: q = s*g + t*v
            q, s, a, b = g, 1, v, 0
            while a:
                f = q // a
                q, a, s, b = a, q - f * a, b, s - f * b
            t = (q - s * g) // v
            zero.append([v // q * x - g // q * y for x, y in zip(pivot, row)])
            pivot, g = [s * x + t * y for x, y in zip(pivot, row)], q
    return zero, pivot, g


def _hermite(rows, width: int) -> list[tuple[list[int], int]]:
    """The reduced row-echelon (Hermite) basis, with positive pivots, of
    the lattice spanned by integer vectors of length `width`: (row, pivot
    column) pairs (Cohen, GTM 138, 2.4).  A lattice has exactly one."""
    basis = [list(row) for row in rows]
    hnf = []
    for c in range(width):
        if not basis:
            break
        rest, pivot, g = _fold(basis, [row[c] for row in basis])
        if pivot is None:
            continue
        if g < 0:
            pivot, g = [-x for x in pivot], -g
        for row, _ in hnf:
            f = row[c] // g
            if f:
                row[c:] = [x - f * y for x, y in zip(row[c:], pivot[c:])]
        hnf.append((pivot, c))
        basis = rest
    return hnf


def _unimodular(mat: Sequence[Sequence[int]]) -> bool:
    """Whether a square integer matrix is invertible over Z: its Hermite
    form is the identity."""
    n = len(mat)
    return [row for row, _ in _hermite(mat, n)] == _identity_matrix(n)


def _snf_valid(mat, u, d, v) -> bool:
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    if matmul(matmul(u, [list(r) for r in mat]), v) != d:
        return False
    if not _unimodular(u) or not _unimodular(v):
        return False
    diag = []
    for i in range(rows):
        for j in range(cols):
            if i == j:
                diag.append(d[i][j])
            elif d[i][j] != 0:
                return False
    if any(x < 0 for x in diag):
        return False
    for a, b in zip(diag, diag[1:]):
        if a == 0 and b != 0:
            return False
        if a != 0 and b % a != 0:
            return False
    return True


def smith_normal_form(
    mat: Sequence[Sequence[int]],
) -> tuple[Matrix, Matrix, Matrix]:
    """Decompose an integer matrix as U * mat * V = D.

    U and V are unimodular and D is diagonal with nonnegative entries
    forming a divisibility chain.  Pivots are chosen by minimal absolute
    value to limit intermediate growth; all arithmetic is exact.
    """
    a = [list(map(int, row)) for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(row) != cols for row in a):
        raise ValueError("ragged matrix")
    # one matrix [[mat, I], [I, 0]]: row operations on its first `rows`
    # rows build U beside D, column operations on its first `cols`
    # columns build V below it
    a = [row + e for row, e in zip(a, _identity_matrix(rows))]
    a += [e + [0] * rows for e in _identity_matrix(cols)]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]

    def row_addmul(dst, src, q):
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]

    def col_addmul(dst, src, q):
        for r in a:
            r[dst] += q * r[src]

    def min_nonzero(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    for t in range(min(rows, cols)):
        piv = min_nonzero(t)
        if piv is None:
            break
        while True:
            i0, j0 = piv
            if i0 != t:
                row_swap(t, i0)
            if j0 != t:
                col_swap(t, j0)
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            p = a[t][t]
            for i in range(t + 1, rows):
                q = a[i][t] // p
                if q:
                    row_addmul(i, t, -q)
            for j in range(t + 1, cols):
                q = a[t][j] // p
                if q:
                    col_addmul(j, t, -q)
            piv = None
            for i in range(t + 1, rows):
                if a[i][t]:
                    piv = (i, t)
                    break
            if piv is None:
                for j in range(t + 1, cols):
                    if a[t][j]:
                        piv = (t, j)
                        break
            if piv is not None:
                continue
            # pivot must divide the whole trailing block for the chain
            bad = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_addmul(t, bad, 1)
            piv = (t, t)
    u = [row[cols:] for row in a[:rows]]
    d = [row[:cols] for row in a[:rows]]
    v = [row[:cols] for row in a[rows:]]
    if not _snf_valid(mat, u, d, v):
        raise AssertionError("internal error: invalid decomposition")
    return u, d, v


# ---------------------------------------------------------------------------
# Groups and elements


def primes_avoiding(n: int, k: int) -> tuple[int, ...]:
    """The k least primes that do not divide n, a positive integer."""
    if n < 1:
        raise ValueError("every prime divides 0")
    avoiding = (p for p in count(2) if n % p)
    primes = (p for p in avoiding if all(p % d for d in range(2, math.isqrt(p) + 1)))
    return tuple(islice(primes, k))


@dataclass(frozen=True)
class AbelianGroup:
    """``Z^free_rank x Z/d_1 x ... x Z/d_t`` in invariant-factor form."""

    free_rank: int
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for d in self.invariant_factors:
            if not isinstance(d, int) or d < 2:
                raise ValueError(f"invariant factor {d!r} must be an integer >= 2")
        for d, e in zip(self.invariant_factors, self.invariant_factors[1:]):
            if e % d != 0:
                raise ValueError(
                    f"invariant factors {self.invariant_factors} do not form a chain"
                )

    @property
    def torsion_rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def rank(self) -> int:
        """Minimal number of generators."""
        return self.free_rank + len(self.invariant_factors)

    def order(self):
        if self.free_rank:
            return INFINITE
        return self.torsion_order()

    def torsion_order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def exponent(self):
        if self.free_rank:
            return INFINITE
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def element(self, free: Sequence[int] = (), torsion: Sequence[int] = ()) -> "AbelianElement":
        free = tuple(int(x) for x in free)
        torsion = tuple(int(x) for x in torsion)
        if len(free) != self.free_rank or len(torsion) != self.torsion_rank:
            raise ValueError(
                f"expected {self.free_rank} free and {self.torsion_rank} torsion "
                f"coordinates, got {len(free)} and {len(torsion)}"
            )
        torsion = tuple(x % d for x, d in zip(torsion, self.invariant_factors))
        return AbelianElement(self, free, torsion)

    def from_coordinates(self, coords: Sequence[int]) -> "AbelianElement":
        """Build an element from a flat coordinate list (free then torsion)."""
        coords = list(coords)
        if len(coords) == 1 and coords[0] == 0 and self.rank != 1:
            coords = [0] * self.rank
        if len(coords) != self.rank:
            raise ValueError(
                f"expected {self.rank} coordinates for {self}, got {len(coords)}"
            )
        return self.element(coords[: self.free_rank], coords[self.free_rank :])

    def identity(self) -> "AbelianElement":
        return self.element((0,) * self.free_rank, (0,) * self.torsion_rank)

    def free_generator(self, index: int) -> "AbelianElement":
        if not 0 <= index < self.free_rank:
            raise ValueError("free generator index out of range")
        free = tuple(1 if i == index else 0 for i in range(self.free_rank))
        return self.element(free, (0,) * self.torsion_rank)

    def torsion_generator(self, index: int) -> "AbelianElement":
        if not 0 <= index < self.torsion_rank:
            raise ValueError("torsion generator index out of range")
        tors = tuple(1 if i == index else 0 for i in range(self.torsion_rank))
        return self.element((0,) * self.free_rank, tors)

    def generators(self) -> tuple["AbelianElement", ...]:
        return tuple(self.free_generator(i) for i in range(self.free_rank)) + tuple(
            self.torsion_generator(i) for i in range(self.torsion_rank)
        )

    def elements(self) -> Iterator["AbelianElement"]:
        if not self.is_finite():
            raise ValueError("cannot enumerate an infinite group")
        for tors in product(*(range(d) for d in self.invariant_factors)):
            yield self.element((), tors)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " x ".join(parts) if parts else "Z/1"


@dataclass(frozen=True)
class AbelianElement:
    group: AbelianGroup
    free: tuple[int, ...]
    torsion: tuple[int, ...]

    # Results skip AbelianGroup.element: their coordinates are integers of
    # the right count already, so each torsion coordinate is only reduced.

    def __add__(self, other: "AbelianElement") -> "AbelianElement":
        g = self.group
        if other.group is not g and other.group != g:
            raise ValueError("elements belong to different groups")
        return AbelianElement(
            g,
            tuple(a + b for a, b in zip(self.free, other.free)),
            tuple(
                (a + b) % d
                for a, b, d in zip(self.torsion, other.torsion, g.invariant_factors)
            ),
        )

    def __neg__(self) -> "AbelianElement":
        g = self.group
        return AbelianElement(
            g,
            tuple(-a for a in self.free),
            tuple(-a % d for a, d in zip(self.torsion, g.invariant_factors)),
        )

    def __sub__(self, other: "AbelianElement") -> "AbelianElement":
        return self + (-other)

    def __rmul__(self, n: int) -> "AbelianElement":
        if not isinstance(n, int):
            return NotImplemented
        g = self.group
        return AbelianElement(
            g,
            tuple(n * a for a in self.free),
            tuple(n * a % d for a, d in zip(self.torsion, g.invariant_factors)),
        )

    def is_identity(self) -> bool:
        return not any(self.free) and not any(self.torsion)

    def order(self):
        if any(self.free):
            return INFINITE
        out = 1
        for x, d in zip(self.torsion, self.group.invariant_factors):
            out = math.lcm(out, d // math.gcd(x, d))
        return out

    def coordinates(self) -> tuple[int, ...]:
        return self.free + self.torsion

    def coords_str(self) -> str:
        free = ",".join(map(str, self.free))
        tors = ",".join(map(str, self.torsion))
        if free and tors:
            return f"{free};{tors}"
        return free or tors or "0"

    def __str__(self) -> str:
        return f"({self.coords_str()})"


def canonical_invariant_factors(orders: Iterable) -> AbelianGroup:
    """Direct product of cyclic groups, normalized to invariant factors.

    Each entry is a cyclic order: a positive integer, or infinity
    (math.inf or None) for an infinite cyclic factor.  Order-independent
    and idempotent.  No order is factored: Z/a x Z/b is Z/gcd(a, b) x
    Z/lcm(a, b), and the sorted finite orders a_1..a_k go through that
    exchange for each pair i < j in which a_i does not divide a_j.  After
    pass i, a_i is the gcd of a_i..a_k and divides every later entry,
    which changes afterwards only to lcms or to gcds of multiples of a_i,
    so a_1 | a_2 | ... at the end.  The passes take time quadratic in the
    number of finite factors.
    """
    free = 0
    finite = []
    for n in orders:
        if n is None or n == INFINITE:
            free += 1
            continue
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError(f"cyclic order {n!r} must be a positive integer or infinity")
        finite.append(n)
    finite.sort()
    for i, a in enumerate(finite):
        for j in range(i + 1, len(finite)):
            b = finite[j]
            if b % a:
                g = math.gcd(a, b)
                a, finite[j] = g, a // g * b
        finite[i] = a
    return AbelianGroup(free, tuple(d for d in finite if d > 1))


# ---------------------------------------------------------------------------
# Generation and expression


def _generator_rows(group: AbelianGroup, gens: Sequence[AbelianElement]) -> Matrix:
    """Each generator's coordinates, then the torsion relations d_i * e_(free+i)."""
    for g in gens:
        if g.group != group:
            raise ValueError("generator belongs to a different group")
    rows = [list(g.coordinates()) for g in gens]
    for i, d in enumerate(group.invariant_factors):
        rows.append([d if j == group.free_rank + i else 0 for j in range(group.rank)])
    return rows


def generates_full(group: AbelianGroup, gens: Sequence[AbelianElement]) -> bool:
    """Exact test of whether the given elements generate the whole group.

    The generator coordinates, together with the torsion relations, span
    the full integer lattice exactly when their Hermite form is the
    identity.
    """
    rows = _generator_rows(group, gens)
    return [row for row, _ in _hermite(rows, group.rank)] == _identity_matrix(group.rank)


def express_in_generators(
    group: AbelianGroup,
    gens: Sequence[AbelianElement],
    target: AbelianElement,
) -> list[int] | None:
    """Integer coefficients c with sum(c_i * gens_i) = target, or None."""
    if target.group != group:
        raise ValueError("target belongs to a different group")
    rows = _generator_rows(group, gens)
    dims = group.rank
    if dims == 0:
        return [0] * len(gens)
    mat = [[row[i] for row in rows] for i in range(dims)]
    ncols = len(rows)
    u, d, v = smith_normal_form(mat)
    rhs = matvec(u, list(target.coordinates()))
    y = [0] * ncols
    for i in range(dims):
        di = d[i][i] if i < ncols else 0
        if di == 0:
            if rhs[i] != 0:
                return None
        else:
            if rhs[i] % di != 0:
                return None
            y[i] = rhs[i] // di
    x = matvec(v, y)
    return x[: len(gens)]


def is_limit_of_cyclic(group: AbelianGroup) -> bool:
    """True exactly when the torsion part is cyclic."""
    return len(group.invariant_factors) <= 1


# ---------------------------------------------------------------------------
# Residual quotients onto finite cyclic groups


@dataclass(frozen=True)
class CyclicQuotientMap:
    """A surjection onto Z/modulus given by per-coordinate multipliers."""

    source: AbelianGroup
    modulus: int
    free_multipliers: tuple[int, ...]
    torsion_multipliers: tuple[int, ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        if len(self.free_multipliers) != self.source.free_rank:
            raise ValueError("one multiplier per free coordinate required")
        if len(self.torsion_multipliers) != self.source.torsion_rank:
            raise ValueError("one multiplier per torsion coordinate required")
        for m, d in zip(self.torsion_multipliers, self.source.invariant_factors):
            if (m * d) % self.modulus != 0:
                raise ValueError("map is not well defined on the torsion part")

    def target_group(self) -> AbelianGroup:
        if self.modulus == 1:
            return AbelianGroup(0, ())
        return AbelianGroup(0, (self.modulus,))

    def apply(self, x: AbelianElement) -> int:
        if x.group != self.source:
            raise ValueError("element belongs to a different group")
        total = sum(c * m for c, m in zip(x.free, self.free_multipliers))
        total += sum(c * m for c, m in zip(x.torsion, self.torsion_multipliers))
        return total % self.modulus

    def __call__(self, x: AbelianElement) -> int:
        return self.apply(x)

    def is_surjective(self) -> bool:
        return math.gcd(self.modulus, *self.free_multipliers, *self.torsion_multipliers, 0) == 1


def cyclic_residual_quotient(
    group: AbelianGroup, kill_none_of: Iterable[AbelianElement]
) -> CyclicQuotientMap:
    """A finite cyclic quotient that keeps every listed element nontrivial.

    Requires cyclic torsion (order k).  One prime is chosen per free
    coordinate, smallest first, avoiding k and every nonzero free
    coordinate that occurs in the given elements; the quotient is
    reduction of coordinate j mod p_j glued with reduction mod k, which
    is cyclic of order k * p_1 * ... * p_r.
    """
    if len(group.invariant_factors) > 1:
        raise ValueError("torsion part is not cyclic")
    elements = list(kill_none_of)
    for x in elements:
        if x.group != group:
            raise ValueError("element belongs to a different group")
        if x.is_identity():
            raise ValueError("the identity cannot be kept nontrivial")
    k = group.invariant_factors[0] if group.invariant_factors else 1
    forbidden = {abs(c) for x in elements for c in x.free if c != 0}
    chosen = primes_avoiding(k * math.prod(forbidden), group.free_rank)
    modulus = k * math.prod(chosen)
    free_mult = tuple(modulus // p for p in chosen)
    torsion_mult = (modulus // k,) if group.invariant_factors else ()
    return CyclicQuotientMap(group, modulus, free_mult, torsion_mult)
