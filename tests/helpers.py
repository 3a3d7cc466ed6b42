"""Shared brute-force oracles for the test suite.

Everything here is deliberately independent of the library's fast
paths: closures by breadth-first multiplication, isomorphism by
permutation search, automorphisms by trying every tuple of generator
images, marking orbits by scanning every tuple, group enumeration by
partitions, ball comparison by visiting every profile in norm order,
determinants by Bareiss elimination, invariant factors by factoring,
generation by the Smith diagonal and generalized dihedral structure by
its definition.
"""

import math
from itertools import permutations, product
from operator import itemgetter

from mgs.abelian import (
    _factorize,
    _invariant_factors,
    canonical_invariant_factors,
    smith_normal_form,
)
from mgs.topology import _flat_relation, _profile_word


FIXTURES = (
    "A4", "D2", "D4", "D6", "D8", "D10", "D12", "D14", "D16", "D18", "D20", "D22", "D24",
    "DihZ4xZ4", "Q8",
)


def closure_of_elements(identity, elements):
    """Subgroup closure by repeated multiplication (finite groups)."""
    seen = {identity}
    frontier = [identity]
    gens = list(elements)
    for g in gens:
        if g not in seen:
            seen.add(g)
            frontier.append(g)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def abelian_closure(group, elements):
    """Subgroup closure in a finite abelian group, additively."""
    seen = {group.identity()}
    frontier = [group.identity()]
    gens = list(elements)
    for g in gens:
        if g not in seen:
            seen.add(g)
            frontier.append(g)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x + g
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def isomorphisms(t1, t2):
    """Every isomorphism t1 -> t2 as an index tuple, by permutation search."""
    n = t1.order
    if n != t2.order:
        return
    orders1 = [t1.element_order(i) for i in range(n)]
    orders2 = [t2.element_order(i) for i in range(n)]
    if sorted(orders1) != sorted(orders2):
        return
    for perm in permutations(range(1, n)):
        phi = (0,) + perm
        if any(orders1[i] != orders2[phi[i]] for i in range(n)):
            continue
        if all(
            phi[t1.rows[a][b]] == t2.rows[phi[a]][phi[b]]
            for a in range(n)
            for b in range(n)
        ):
            yield phi


def tables_isomorphic(t1, t2) -> bool:
    """Brute-force table isomorphism (small orders only)."""
    return next(isomorphisms(t1, t2), None) is not None


def automorphisms_by_permutations(table):
    """The automorphism group by brute-force permutation search, sorted."""
    return sorted(isomorphisms(table, table))


def generator_pools(table):
    """A generating sequence picked by descending element order, and for
    each generator the elements of its order: the candidate images."""
    n, rows = table.order, table.rows
    orders = [table.element_order(i) for i in range(n)]
    gens, reached = [], {0}
    for x in sorted(range(1, n), key=lambda i: (-orders[i], i)):
        if x not in reached:
            gens.append(x)
            reached = _index_closure(rows, gens)
    return gens, [[x for x in range(n) if orders[x] == orders[g]] for g in gens]


def product_search_work(table):
    """The candidate image tuples automorphisms_by_product tries, times
    the order: what its time grows with."""
    return math.prod(map(len, generator_pools(table)[1])) * table.order


def automorphisms_by_product(table):
    """Every automorphism as an index tuple, sorted, by trying every tuple
    of candidate images of generator_pools.

    A candidate is extended to the whole group along one breadth-first
    spanning tree and kept when it respects every generator edge,
    phi(x*g) == phi(x)*phi(g), and is bijective.
    """
    n, rows = table.order, table.rows
    gens, pools = generator_pools(table)
    tree = []  # (y, x, position of g) with y = x*g, parents before children
    reached = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for gi, g in enumerate(gens):
                y = rows[x][g]
                if y not in reached:
                    reached.add(y)
                    tree.append((y, x, gi))
                    nxt.append(y)
        frontier = nxt
    columns = list(zip(*rows))
    times_gen = [itemgetter(*columns[g]) for g in gens]  # x -> x*g for every x
    found = []
    for images in product(*pools):
        phi = [0] * n
        for y, x, gi in tree:
            phi[y] = rows[phi[x]][images[gi]]
        image_of = itemgetter(*phi)
        if all(
            times_g(phi) == image_of(columns[img])
            for times_g, img in zip(times_gen, images)
        ) and len(set(phi)) == n:
            found.append(tuple(phi))
    return sorted(found)


def markings_by_scan(table, arity, autos):
    """(representative, involution set, orbit size) for each orbit of
    generating tuples under autos, by scanning all n^arity tuples in
    lexicographic order: each generating tuple not yet seen opens an
    orbit, whose least member is its representative."""
    n, rows = table.order, table.rows
    seen = set()
    out = []
    for tup in product(range(n), repeat=arity):
        if tup in seen or len(_index_closure(rows, tup)) != n:
            continue
        orbit = {tuple(phi[x] for x in tup) for phi in autos}
        seen |= orbit
        rep = min(orbit)
        out.append((rep, {i + 1 for i, x in enumerate(rep) if rows[x][x] == 0}, len(orbit)))
    return out


def relabel(table, rng):
    """An isomorphic copy under a seeded permutation that fixes index 0."""
    from mgs.tables import FiniteGroupTable

    n = table.order
    rest = list(range(1, n))
    rng.shuffle(rest)
    perm = [0] + rest
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[perm[i]][perm[j]] = perm[table.rows[i][j]]
    labels = [""] * n
    for i in range(n):
        labels[perm[i]] = table.labels[i]
    return FiniteGroupTable(n, tuple(map(tuple, rows)), tuple(labels))


def _partitions(n):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def abelian_groups_up_to(max_order):
    """Every finite abelian group of order <= max_order, canonical form."""
    out = []
    for n in range(1, max_order + 1):
        factor_exponents = {}
        m = n
        d = 2
        while d * d <= m:
            while m % d == 0:
                factor_exponents[d] = factor_exponents.get(d, 0) + 1
                m //= d
            d += 1
        if m > 1:
            factor_exponents[m] = factor_exponents.get(m, 0) + 1
        primes = sorted(factor_exponents)
        per_prime = [list(_partitions(factor_exponents[p])) for p in primes]
        for combo in product(*per_prime):
            orders = []
            for p, parts in zip(primes, combo):
                orders.extend(p**e for e in parts)
            out.append(canonical_invariant_factors(orders))
    return out


def groups_up_to(order):
    """Tables of the abelian groups and the Dih(A) of at most this order."""
    from mgs.dihedral import GenDihedralGroup, materialize_table

    out = []
    for base in abelian_groups_up_to(order):
        for group in (base, GenDihedralGroup(base)):
            if group.order() <= order:
                out.append(materialize_table(group))
    return out


def product_tables():
    """Direct products of small fixtures and semidirect products
    Z/n x|_k Z/m: groups that are neither abelian nor Dih(A), but for
    Z/9 x|_8 Z/2, which is Dih(Z/9)."""
    from mgs.abelian import AbelianGroup
    from mgs.dihedral import materialize_table
    from mgs.tables import load_fixture

    f = {name: load_fixture(name) for name in ("A4", "D6", "D8", "Q8")}
    z = {n: materialize_table(AbelianGroup(0, (n,))) for n in (2, 3, 4)}
    tables = [
        direct_product_table(left, right)
        for left, right in (
            (f["D8"], z[3]), (f["Q8"], z[2]), (f["Q8"], z[3]), (f["A4"], z[2]),
            (f["D6"], f["D6"]), (f["D6"], z[4]), (f["D8"], f["D8"]),
        )
    ]
    for n, k, m in (
        (3, 2, 4), (7, 2, 3), (5, 2, 4), (5, 4, 4), (8, 3, 2), (8, 5, 2), (9, 8, 2),
        (16, 7, 2), (13, 3, 3),
    ):
        tables.append(semidirect_table(n, k, m))
    return tables


def invariant_factors_by_factoring(orders):
    """The invariant factors of the product of Z/n over the finite orders,
    from the prime factorization of each order."""
    exponents = {}
    for n in orders:
        for p, e in _factorize(n).items():
            exponents.setdefault(p, []).append(e)
    return _invariant_factors(exponents)


def random_abelian_group(rng, max_order=60, max_rank=0):
    """A random finite-torsion abelian group of bounded order."""
    while True:
        r = rng.randint(0, max_rank)
        orders = []
        budget = max_order
        while rng.random() < 0.7 and budget >= 2:
            d = rng.randint(1, budget)
            if d >= 2:
                orders.append(d)
                budget //= d
        group = canonical_invariant_factors([None] * r + orders)
        if group.torsion_order() <= max_order:
            return group


def random_element(rng, group, span=5):
    free = tuple(rng.randint(-span, span) for _ in range(group.free_rank))
    torsion = tuple(rng.randrange(d) for d in group.invariant_factors)
    return group.element(free, torsion)


def signed_vectors(dim, total):
    """Integer vectors with L1 norm exactly `total`, first coordinate high."""
    if dim == 0:
        if total == 0:
            yield ()
        return
    for head in range(total, -total - 1, -1):
        rest = total - abs(head)
        if dim == 1:
            if rest == 0:
                yield (head,)
            continue
        for tail in signed_vectors(dim - 1, rest):
            yield (head,) + tail


def profile_loop(a, b, r_max):
    """(radius, witness) of two same-pattern abelian or Dih(A) markings by
    visiting every profile (x, d) with sum(d) = 0 in order of norm, then
    |d|_1, then descending d and x; the first mismatch is the witness."""
    cols_a, cols_b = a._profile[0], b._profile[0]
    n_ref = sum(a._layout[2])
    for norm in range(1, r_max + 1):
        for d_norm in range(norm + 1):
            for d in signed_vectors(n_ref, d_norm):
                if sum(d) != 0:
                    continue
                for x in signed_vectors(a.arity - n_ref, norm - d_norm):
                    p = x + d
                    if _flat_relation(cols_a, p) != _flat_relation(cols_b, p):
                        return norm - 1, _profile_word(a, x, d)
    return r_max, None


def determinant(mat):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(mat)
    if n == 0:
        return 1
    if any(len(row) != n for row in mat):
        raise ValueError("determinant needs a square matrix")
    a = [list(map(int, row)) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_generates(group, gens):
    """Whether the elements generate an abelian group: the generator
    coordinates and the torsion relations, as columns, have every Smith
    invariant equal to 1."""
    dims = group.rank
    if dims == 0:
        return True
    cols = [list(g.coordinates()) for g in gens]
    for i, d in enumerate(group.invariant_factors):
        cols.append([d if j == group.free_rank + i else 0 for j in range(dims)])
    mat = [[col[i] for col in cols] for i in range(dims)]
    _, d, _ = smith_normal_form(mat)
    diag = [d[i][i] for i in range(min(dims, len(cols)))]
    return len(diag) == dims and all(x == 1 for x in diag)


def random_unimodular(rng, n):
    """An n x n integer matrix of determinant +-1: the identity under
    random row swaps, negations and additions of a multiple of one row
    to another."""
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j, f = rng.randrange(n), rng.randrange(n), rng.randint(-2, 2)
        if i == j:
            mat[i] = [-x for x in mat[i]]
        else:
            mat[i], mat[j] = mat[j], [a + f * b for a, b in zip(mat[i], mat[j])]
    return mat


def _table(rows, labels):
    from mgs.tables import FiniteGroupTable

    return FiniteGroupTable(len(rows), tuple(map(tuple, rows)), tuple(labels))


def direct_product_table(t1, t2):
    """The table of t1 x t2, with (a, b) at index a * |t2| + b."""
    n1, n2 = t1.order, t2.order
    rows = [
        [t1.rows[a][c] * n2 + t2.rows[b][d] for c in range(n1) for d in range(n2)]
        for a in range(n1)
        for b in range(n2)
    ]
    return _table(rows, [f"({x},{y})" for x in t1.labels for y in t2.labels])


def semidirect_table(n, k, m):
    """Z/n x|_k Z/m: (a, b)(c, d) = (a + k^b c, b + d), with (a, b) at a*m + b."""
    if pow(k, m, n) != 1 % n:
        raise ValueError(f"{k} has no order dividing {m} mod {n}")
    rows = [
        [((a + pow(k, b, n) * c) % n) * m + (b + d) % m for c in range(n) for d in range(m)]
        for a in range(n)
        for b in range(m)
    ]
    return _table(rows, [f"({a},{b})" for a in range(n) for b in range(m)])


def _index_closure(rows, gens):
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = rows[x][g]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def _abelian_factors(rows, members):
    """Invariant factors of an abelian subgroup, matched by its element
    orders (a finite abelian group is determined by them)."""
    def order(x):
        k, y = 1, x
        while y != 0:
            y, k = rows[y][x], k + 1
        return k

    target = sorted(order(x) for x in members)
    for group in abelian_groups_up_to(len(members)):
        factors = group.invariant_factors
        if math.prod(factors) != len(members):
            continue
        orders = sorted(
            math.lcm(*(d // math.gcd(x, d) for x, d in zip(xs, factors)))
            for xs in product(*(range(d) for d in factors))
        )
        if orders == target:
            return factors
    raise AssertionError("no abelian group has these element orders")


def recognize_by_definition(table):
    """(kind, invariant factors) by the definition of generalized dihedral.

    A nonabelian group is generalized dihedral when some homomorphism onto
    Z/2 has an abelian kernel K and an involution s outside K with
    s*k*s = k^-1 for every k in K; the factors are then those of K.  The
    homomorphisms are found by sending a generating sequence to every
    image in Z/2 and checking each candidate on all n^2 pairs.
    """
    n, rows = table.order, table.rows
    pairs = [(a, b) for a in range(n) for b in range(n)]
    if all(rows[a][b] == rows[b][a] for a, b in pairs):
        return "abelian", _abelian_factors(rows, range(n))
    gens = []
    for x in range(n):
        if x not in _index_closure(rows, gens):
            gens.append(x)
    inverse = [row.index(0) for row in rows]
    for images in product((0, 1), repeat=len(gens)):
        if not any(images):
            continue
        phi = [None] * n
        phi[0] = 0
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g, e in zip(gens, images):
                y = rows[x][g]
                if phi[y] is None:
                    phi[y] = phi[x] ^ e
                    frontier.append(y)
        if any(phi[rows[a][b]] != phi[a] ^ phi[b] for a, b in pairs):
            continue
        kernel = [x for x in range(n) if phi[x] == 0]
        if any(rows[a][b] != rows[b][a] for a in kernel for b in kernel):
            continue
        if any(
            rows[s][s] == 0 and all(rows[rows[s][k]][s] == inverse[k] for k in kernel)
            for s in range(n)
            if phi[s]
        ):
            return "generalized-dihedral", _abelian_factors(rows, kernel)
    return "no", None
