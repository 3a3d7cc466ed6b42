"""Finite groups presented by Cayley tables.

Tables are validated on load: index 0 must be the identity, every row
and column must be a permutation, inverses must exist and associativity
is decided by Light's test on a generating set (O(n^2 log n), capped),
with the exhaustive scan naming the first failing triple.  On top of the
validated tables sit structural queries, automorphism groups listed as
the products of a stabilizer chain's transversals, each transversal
element found by a search on the images of generators checked on
generator edges, and a recognizer for generalized dihedral structure.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

from .abelian import AbelianGroup

ASSOCIATIVITY_BOUND = 256
AUTOMORPHISM_BUDGET = 10**8  # candidate images times the order


class TableError(ValueError):
    """A raw table failed validation; the message carries the first witness."""


@dataclass(frozen=True)
class FiniteGroupTable:
    order: int
    rows: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]

    def mul(self, i: int, j: int) -> int:
        return self.rows[i][j]

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        inv = [0] * self.order
        for i in range(self.order):
            inv[i] = self.rows[i].index(0)
        return tuple(inv)

    def inv(self, i: int) -> int:
        return self.inverses[i]

    def evaluate(self, letters: Sequence[int], values: Sequence[int]) -> int:
        """The element a word's letters name, letter i standing for values[i - 1]."""
        rows, inverses = self.rows, self.inverses
        v = 0
        for ell in letters:
            v = rows[v][values[ell - 1] if ell > 0 else inverses[values[-ell - 1]]]
        return v

    def power(self, i: int, n: int) -> int:
        if n < 0:
            return self.power(self.inv(i), -n)
        out = 0
        base = i
        while n:
            if n & 1:
                out = self.rows[out][base]
            base = self.rows[base][base]
            n >>= 1
        return out

    def element_order(self, i: int) -> int:
        n = 1
        x = i
        while x != 0:
            x = self.rows[x][i]
            n += 1
        return n

    def is_abelian(self) -> bool:
        r = self.rows
        return all(
            r[i][j] == r[j][i] for i in range(self.order) for j in range(i + 1, self.order)
        )

    def closure(self, seed: Iterable[int]) -> frozenset[int]:
        seen = {0}
        frontier = [0]
        gens = list(seed)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.rows[x][g]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return frozenset(seen)

    def subgroup_table(self, members: Iterable[int]) -> tuple["FiniteGroupTable", tuple[int, ...]]:
        """Table of a subgroup given by its element indices.

        Returns the new table and the tuple of original indices in the
        new order (identity first, then ascending).
        """
        members = sorted(set(members))
        if not members or members[0] != 0:
            raise ValueError("a subgroup must contain the identity")
        where = {x: i for i, x in enumerate(members)}
        try:
            rows = tuple(
                tuple(where[self.rows[x][y]] for y in members) for x in members
            )
        except KeyError as exc:
            raise ValueError(f"set is not closed under multiplication: {exc}") from None
        labels = tuple(self.labels[x] for x in members)
        return FiniteGroupTable(len(members), rows, labels), tuple(members)

    def __str__(self) -> str:
        return f"<group table of order {self.order}>"


def _light_associative(rows: tuple[tuple[int, ...], ...]) -> bool:
    """Light's associativity test on a Latin square whose index 0 is the identity.

    The middle factors g with (a*g)*c == a*(g*c) for every a, c are closed
    under products, so it is enough to test a set whose right closure
    from 0 is the whole table: at most log2(n) elements for a group.
    """
    n = len(rows)
    for g in _greedy_generating_sequence(FiniteGroupTable(n, rows, ())):
        times_g = itemgetter(*rows[g])  # row a -> a*(g*c) for every c
        if any(rows[rows[a][g]] != times_g(rows[a]) for a in range(n)):
            return False
    return True


def validate_table(
    raw: Sequence[Sequence[int]],
    labels: Sequence[str] | None = None,
) -> FiniteGroupTable:
    """Validate a raw multiplication table and wrap it.

    Raises TableError with the first offending entry or triple.
    """
    n = len(raw)
    if n == 0:
        raise TableError("empty table")
    rows = []
    for i, row in enumerate(raw):
        if len(row) != n:
            raise TableError(f"row {i} has length {len(row)}, expected {n}")
        for j, x in enumerate(row):
            if type(x) is not int or not 0 <= x < n:  # bool is an int subclass
                problem = "out of range" if type(x) is int else "not an integer"
                raise TableError(f"entry at ({i},{j}) is {x!r}, {problem}")
        rows.append(tuple(row))
    rows = tuple(rows)
    full = frozenset(range(n))
    for i in range(n):
        if rows[0][i] != i or rows[i][0] != i:
            raise TableError(f"index 0 is not the identity (fails at {i})")
    for i in range(n):
        if frozenset(rows[i]) != full:
            raise TableError(f"row {i} is not a permutation")
    for j, column in enumerate(zip(*rows)):
        if frozenset(column) != full:
            raise TableError(f"column {j} is not a permutation")
    for i in range(n):
        row = rows[i]
        j = row.index(0)
        if rows[j][i] != 0:
            raise TableError(f"element {i} has no two-sided inverse")
    if n > ASSOCIATIVITY_BOUND:
        raise TableError(
            f"order {n} exceeds the associativity check bound {ASSOCIATIVITY_BOUND}"
        )
    if not _light_associative(rows):
        for a in range(n):
            for b in range(n):
                ab = rows[a][b]
                row_b = rows[b]
                row_ab = rows[ab]
                for c in range(n):
                    if row_ab[c] != rows[a][row_b[c]]:
                        raise TableError(
                            f"associativity fails at ({a},{b},{c}): "
                            f"({a}*{b})*{c} != {a}*({b}*{c})"
                        )
    if labels is None:
        labels = tuple(f"g{i}" for i in range(n))
    else:
        labels = tuple(str(s) for s in labels)
        if len(labels) != n:
            raise TableError(f"{len(labels)} labels for {n} elements")
    return FiniteGroupTable(n, rows, labels)


# ---------------------------------------------------------------------------
# Serialization


def dumps_json(table: FiniteGroupTable) -> str:
    payload = {
        "order": table.order,
        "labels": list(table.labels),
        "table": [list(row) for row in table.rows],
    }
    return json.dumps(payload, indent=1) + "\n"


def loads_json(text: str) -> FiniteGroupTable:
    payload = json.loads(text)
    raw = payload.get("table") if isinstance(payload, dict) else None
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise TableError('a JSON table is an object with a list of rows under "table"')
    labels = payload.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(s, str) for s in labels)
    ):
        raise TableError('"labels" of a JSON table must be a list of strings')
    table = validate_table(raw, labels)
    if payload.get("order") not in (None, table.order):
        raise TableError("declared order does not match the table")
    return table


def dumps_text(table: FiniteGroupTable) -> str:
    lines = [str(table.order)]
    lines.extend(" ".join(str(x) for x in row) for row in table.rows)
    return "\n".join(lines) + "\n"


def _integer(token: str):
    """The integer a token writes, else the token, for validation to name."""
    try:
        return int(token)
    except ValueError:
        return token


def loads_text(text: str) -> FiniteGroupTable:
    """A line holding the order n alone, then exactly n rows of indices."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise TableError("empty table file")
    (n, *rest), *raw = [[_integer(x) for x in ln.split()] for ln in lines]
    if rest or type(n) is not int:
        raise TableError(f"the first line is the order, one integer, not {lines[0].strip()!r}")
    if len(raw) != n:
        raise TableError(f"expected {n} rows, found {len(raw)}")
    return validate_table(raw)


def load_table(path) -> FiniteGroupTable:
    text = open(path, "r", encoding="utf-8").read()
    if str(path).endswith(".json"):
        return loads_json(text)
    return loads_text(text)


def load_fixture(name: str) -> FiniteGroupTable:
    # a plain path: importlib.resources imports about 1.5 MB of modules
    if name in ("", ".", "..") or name != os.path.basename(name):
        raise FileNotFoundError(f"no fixture named {name!r}")
    root = os.path.join(os.path.dirname(__file__), "fixtures")
    for suffix in ("", ".json", ".txt"):
        path = os.path.join(root, name + suffix)
        if os.path.isfile(path):
            return load_table(path)
    raise FileNotFoundError(f"no fixture named {name!r}")


# ---------------------------------------------------------------------------
# Automorphisms


def _greedy_generating_sequence(table: FiniteGroupTable) -> list[int]:
    # Order-descending scan; minimality is not required for correctness,
    # only that the result generates.
    candidates = sorted(
        range(1, table.order), key=lambda i: (-table.element_order(i), i)
    )
    gens: list[int] = []
    reached = frozenset({0})
    for x in candidates:
        if x in reached:
            continue
        gens.append(x)
        reached = table.closure(gens)
        if len(reached) == table.order:
            break
    return gens


def _subgroup_chain(table: FiniteGroupTable, gens: list[int]) -> tuple[list, itemgetter]:
    """The chain H_k = <g_1..g_k> as one list of members.

    H_1 lists the powers of g_1.  H_k lists H_(k-1), then each further
    coset H_(k-1)*t as h*t over h in H_(k-1), in the order a
    breadth-first search along g_1..g_k reaches it; the first is
    H_(k-1)*g_k.  Stage k, for k = 2..m, holds the members of H_(k-1),
    that search as (j, i) with t = t_j*g_i and t_0 = 1, and for each
    i <= k a getter of the position of x*g_i over the members x of H_k
    outside H_(k-1).  Also returned: a getter of each element's position
    in the whole list.
    """
    rows = table.rows
    members = [0]
    x = gens[0]
    while x:
        members.append(x)
        x = rows[x][gens[0]]
    stages = []
    for k in range(2, len(gens) + 1):
        sub = tuple(members)
        seen = set(sub)
        reps, tree = [0], []
        for j, t in enumerate(reps):  # reps grows as cosets are reached
            for i, g in enumerate(gens[:k]):
                y = rows[t][g]
                if y not in seen:
                    coset = [rows[h][y] for h in sub]
                    seen.update(coset)
                    members += coset
                    reps.append(y)
                    tree.append((j, i))
        position = {x: p for p, x in enumerate(members)}
        new = members[len(sub):]
        edges = [itemgetter(*[position[rows[x][g]] for x in new]) for g in gens[:k]]
        stages.append((sub, tree, edges))
    position = [0] * table.order
    for p, x in enumerate(members):
        position[x] = p
    return stages, itemgetter(*position)


def _extend(phi, images, s, choices, stages, pools, rows, columns):
    """The first automorphism, as its values on the members in order,
    that agrees with phi on H_(k-1), k = s + 2, and sends g_k into
    choices; None when there is none.

    phi holds the values of an injective homomorphism on H_(k-1) in
    the order of its members.  On the coset H_(k-1)*t, phi(h*t) =
    phi(h)*phi(t), with phi(t) read off the search tree.  An extension
    is kept when it sends no new member to 1 and respects every edge
    x -> x*g_i, i <= k, that leaves a new member x.  The other edges of
    H_k were checked on H_(k-1), or lead from H_(k-1) to H_(k-1)*g_k,
    where they hold by construction.  A kept extension is searched on
    with every image of g_(k+1) in its pool.
    """
    _, tree, edges = stages[s]
    k = s + 1
    times = itemgetter(*phi)  # columns[c] -> phi(h)*c over H_(k-1)
    last = k == len(stages)
    for img in choices:
        images[k] = img
        at = [0]
        for j, i in tree:
            at.append(rows[at[j]][images[i]])
        new = ()
        for t in at[1:]:
            new += times(columns[t])
        if 0 in new:
            continue
        image_of = itemgetter(*new)  # columns[c] -> phi(x)*c over the new x
        ext = phi + new
        for edge, g in zip(edges, images):
            if edge(ext) != image_of(columns[g]):
                break
        else:
            if last:
                return ext
            found = _extend(ext, images, k, pools[k + 1], stages, pools, rows, columns)
            if found is not None:
                return found
    return None


def _automorphism_transversals(
    table: FiniteGroupTable,
) -> tuple[list[int], list[list[tuple[int, ...]]]]:
    """A generating sequence g_1..g_m and a transversal T_i for each g_i.

    Candidate images of each g_i are the elements of its order.  T_i
    holds one automorphism for each image y of g_i under the
    automorphisms fixing g_1..g_(i-1): the identity for y = g_i, and
    otherwise the first automorphism that fixes g_1..g_(i-1) and sends
    g_i to y, searched one generator at a time.  The image of g_1 fixes
    phi on H_1 = <g_1>; once g_k has an image, phi is extended to H_k =
    <g_1..g_k> coset by coset and kept only while it is injective and
    respects every edge phi(x*g_i) == phi(x)*phi(g_i) with x in H_k and
    i <= k.  An automorphism passes every stage, so a failed stage
    prunes every later choice of images; the last stage, on H_m = G,
    checks that the candidate is a bijective homomorphism.  A search
    for y stops at its first automorphism, and one that fails explores
    no more than the search of every automorphism does below the same
    images of g_1..g_i.
    """
    n = table.order
    gens = _greedy_generating_sequence(table)
    rows = table.rows
    orders = [table.element_order(i) for i in range(n)]
    pools = [
        [x for x in range(n) if orders[x] == orders[g]]
        for g in gens
    ]
    work = math.prod(map(len, pools)) * n
    if work > AUTOMORPHISM_BUDGET:
        raise ValueError(
            f"{work // n} candidates times order {n} = {work} exceed "
            f"the automorphism search budget {AUTOMORPHISM_BUDGET}"
        )
    if not gens:
        return gens, []
    stages, by_element = _subgroup_chain(table, gens)
    search = (stages, pools, rows, list(zip(*rows)))
    identity = tuple(range(n))
    transversals = []
    for i, g in enumerate(gens):
        images = list(gens)
        level = []
        for y in pools[i]:
            if y == g:
                level.append(identity)
                continue
            if i:
                found = _extend(stages[i - 1][0], images, i - 1, (y,), *search)
            else:
                # g_1 and y have one order, so g_1^j -> y^j is injective on H_1
                images[0] = y
                found = [0]
                x = y
                while x:
                    found.append(x)
                    x = rows[x][y]
                if stages:
                    found = _extend(tuple(found), images, 0, pools[1], *search)
            if found is not None:
                level.append(by_element(found))
        transversals.append(level)
    return gens, transversals


def automorphism_group(table: FiniteGroupTable) -> list[tuple[int, ...]]:
    """All automorphisms as permutation tuples, sorted.

    Every automorphism is t_1∘…∘t_m with t_i in the transversal T_i of
    ``_automorphism_transversals``, in exactly one way (Sims' stabilizer
    chain), so the group is listed as those products.
    """
    autos = [tuple(range(table.order))]
    for level in _automorphism_transversals(table)[1]:
        getters = [itemgetter(*t) for t in level]
        autos = [get(a) for a in autos for get in getters]  # get(a) = a∘t
    return sorted(autos)


# ---------------------------------------------------------------------------
# Abelian invariants of a subgroup, by orders modulo a growing span


def abelian_invariant_factors_of(
    table: FiniteGroupTable, members: Iterable[int]
) -> tuple[int, ...]:
    """The invariant factors of the abelian subgroup with these members.

    In a finite abelian group an element of largest order spans a direct
    summand, so each round picks a member of largest order modulo the
    span of the earlier picks and records that order; the orders,
    largest first, are the invariant factors.  The picks span the
    subgroup, so it is abelian exactly when they commute pairwise.
    """
    rows = table.rows
    picks: list[int] = []
    orders: list[int] = []
    span, rest = {0}, [x for x in members if x]
    while rest:
        best, best_order = 0, 1
        for x in rest:
            k, y = 1, x
            while y not in span:
                k, y = k + 1, rows[y][x]
            if k > best_order:
                best, best_order = x, k
        if any(rows[best][g] != rows[g][best] for g in picks):
            raise ValueError("subgroup is not abelian")
        picks.append(best)
        orders.append(best_order)
        span = table.closure(picks)
        rest = [x for x in rest if x not in span]
    return tuple(reversed(orders))


# ---------------------------------------------------------------------------
# Generalized dihedral recognition


@dataclass(frozen=True)
class DihedralRecognition:
    """Outcome of structure recognition on a finite group table.

    kind is 'abelian', 'generalized-dihedral' or 'no'.  For the
    generalized dihedral case, base holds the invariant factors of the
    rotation subgroup and the two partition fields give the witness
    coset split.
    """

    kind: str
    base: AbelianGroup | None = None
    rotation_part: tuple[int, ...] | None = None
    flip_coset: tuple[int, ...] | None = None
    reason: str = ""


def recognize_generalized_dihedral(table: FiniteGroupTable) -> DihedralRecognition:
    """Decide whether a table is abelian, generalized dihedral, or neither.

    A nonabelian table is generalized dihedral exactly when the subgroup
    generated by its elements of order > 2 has index 2; that subgroup is
    then the rotation part and its coset the flips.
    """
    n = table.order
    if table.is_abelian():
        invs = abelian_invariant_factors_of(table, range(n))
        return DihedralRecognition("abelian", base=AbelianGroup(0, invs))
    rows = table.rows
    # Let H = <x : x^2 != 1> have index 2.  Every s outside H is an
    # involution, and so is s*h for h in H, so s*h*s^-1 = h^-1: s inverts
    # H, and inversion is an automorphism only of an abelian group.  H
    # holds the center too: G has some x with x^2 != 1, and for a central
    # involution z, (x*z)^2 = x^2 != 1 puts x*z, hence z, in H.
    sub = table.closure([x for x in range(n) if rows[x][x] != 0])
    if 2 * len(sub) != n:
        return DihedralRecognition(
            "no", reason=f"candidate subgroup has index {n // len(sub)}, not 2"
        )
    members = sorted(sub)
    outside = [x for x in range(n) if x not in sub]
    invs = abelian_invariant_factors_of(table, members)
    return DihedralRecognition(
        "generalized-dihedral",
        base=AbelianGroup(0, invs),
        rotation_part=tuple(members),
        flip_coset=tuple(outside),
    )
