import gc
import math
import random
import re
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgs.abelian import AbelianGroup, _identity_matrix, matmul, smith_normal_form
from mgs.classify import (
    DihAutomorphism,
    canonical_classes,
    canonical_marking,
    count_marking_classes,
    decide_marking_equivalence,
    enumerate_markings,
    free_by_flip,
    reflection_index_set,
)
from mgs import classify
from mgs.dihedral import GenDihedralGroup, is_generating_dih, materialize_table
from mgs.tables import (
    AUTOMORPHISM_BUDGET,
    FiniteGroupTable,
    _automorphism_transversals,
    automorphism_group,
    load_fixture,
)
from mgs.topology import MarkedGroup, agreement_radius

from helpers import (
    FIXTURES,
    automorphisms_by_product,
    groups_up_to,
    markings_by_scan,
    product_search_work,
    product_tables,
    random_unimodular,
    relabel,
)


def dihedral_table(n):
    return materialize_table(GenDihedralGroup(AbelianGroup(0, (n,))))


def test_reflection_index_set_examples():
    d12 = GenDihedralGroup(AbelianGroup(0, (6,)))
    a, b = d12.reflection([0]), d12.rotation([1])
    assert reflection_index_set((a, b)) == {1}
    assert reflection_index_set((a, a * b)) == {1, 2}
    g = free_by_flip(3)
    tup = (g.rotation([1, 0]), g.rotation([0, 1]), g.reflection([0, 0]))
    assert reflection_index_set(tup) == {3}
    # central rotations of order 2 count as involutions
    assert reflection_index_set((d12.rotation([3]),)) == {1}


def test_enumerate_markings_d12():
    classes = enumerate_markings(dihedral_table(6), 2)
    assert len(classes) == 3
    assert {frozenset(c.involutions) for c in classes} == {
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
    }
    assert all(c.orbit_size == 12 for c in classes)
    # orbit sizes sum to the number of generating pairs
    table = dihedral_table(6)
    total = sum(
        1
        for x in range(12)
        for y in range(12)
        if len(table.closure((x, y))) == 12
    )
    assert sum(c.orbit_size for c in classes) == total == 36


def test_enumerate_markings_d4_and_z5():
    assert len(enumerate_markings(dihedral_table(2), 2)) == 1
    z5 = materialize_table(AbelianGroup(0, (5,)))
    assert len(enumerate_markings(z5, 1)) == 1


def test_enumerate_markings_family_i_sets():
    for n in range(3, 11):
        classes = enumerate_markings(dihedral_table(n), 2)
        assert sorted(sorted(c.involutions) for c in classes) == [[1], [1, 2], [2]]


def generates(rows, tup):
    """Whether the entries of tup generate the whole table, by breadth-first search."""
    seen, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for g in tup:
            if rows[x][g] not in seen:
                seen.add(rows[x][g])
                frontier.append(rows[x][g])
    return len(seen) == len(rows)


@pytest.mark.parametrize("arity", [2, 3])
@pytest.mark.parametrize("name", ["D2", "D4", "D6", "D8", "D10", "D12", "Q8", "A4"])
def test_enumerate_markings_orbits_count_the_generating_tuples(name, arity):
    table = load_fixture(name)
    classes = enumerate_markings(table, arity)
    expected = sum(
        1 for tup in product(range(table.order), repeat=arity) if generates(table.rows, tup)
    )
    assert sum(c.orbit_size for c in classes) == expected
    reps = [c.representative for c in classes]
    assert reps == sorted(reps) and all(generates(table.rows, rep) for rep in reps)


def test_enumerate_markings_searches_automorphisms_only_once_a_tuple_generates(monkeypatch):
    def unused(table):
        raise AssertionError("automorphisms searched although no tuple generates")

    monkeypatch.setattr(classify, "automorphism_group", unused)
    # Dih(Z/4 x Z/4) needs three generators
    assert enumerate_markings(load_fixture("DihZ4xZ4"), 2) == []


def classes_of(table, arity):
    return [(c.representative, c.involutions, c.orbit_size) for c in enumerate_markings(table, arity)]


@pytest.mark.parametrize("seed", [1, 2])
def test_the_subgroup_chain_searches_match_the_product_oracles_on_fixtures(seed):
    rng = random.Random(seed)
    for name in FIXTURES:
        group = load_fixture(name)
        for table in (group, relabel(group, rng)):
            autos = automorphisms_by_product(table)
            assert automorphism_group(table) == autos
            for arity in (1, 2, 3):
                assert classes_of(table, arity) == markings_by_scan(table, arity, autos)


def test_the_subgroup_chain_searches_match_the_product_oracles_up_to_order_64():
    # 154 of the 172 abelian and Dih(A) tables: the rest are refused by
    # the automorphism budget or take the oracle seconds each, past 10^6
    # candidate images times the order.  Scanning n^3 tuples takes 23 s
    # up to order 64, so arity 3 runs up to order 24.
    for table in groups_up_to(64):
        if product_search_work(table) > 10**6:
            continue
        autos = automorphisms_by_product(table)
        assert automorphism_group(table) == autos
        for arity in (1, 2, 3) if table.order <= 24 else (1, 2):
            assert classes_of(table, arity) == markings_by_scan(table, arity, autos)


@pytest.mark.parametrize("seed", [1, 2])
def test_the_subgroup_chain_searches_match_the_product_oracles_on_product_tables(seed):
    # groups neither abelian nor Dih(A), where an extension can respect
    # the edges of g_k and break those of g_1..g_(k-1); D8 x D8 tries
    # 3.9 * 10^7 candidates, 3 s in the oracle
    rng = random.Random(seed)
    for group in [t for t in product_tables() if product_search_work(t) <= 10**6]:
        for table in (group, relabel(group, rng)):
            autos = automorphisms_by_product(table)
            assert automorphism_group(table) == autos
            for arity in (1, 2, 3) if table.order <= 24 else (1, 2):
                assert classes_of(table, arity) == markings_by_scan(table, arity, autos)


def test_the_automorphisms_are_the_products_of_the_transversals():
    # T_i fixes g_1..g_(i-1) and sends g_i to distinct images, and every
    # automorphism is one product t_1*...*t_m
    rng = random.Random(3)
    groups = [load_fixture(name) for name in FIXTURES] + groups_up_to(32) + product_tables()
    for group in [t for t in groups if product_search_work(t) <= AUTOMORPHISM_BUDGET]:
        for table in (group, relabel(group, rng)):
            gens, levels = _automorphism_transversals(table)
            autos = set(automorphism_group(table))
            assert math.prod(map(len, levels)) == len(autos)
            for i, (g, level) in enumerate(zip(gens, levels)):
                assert len({t[g] for t in level}) == len(level)
                for t in level:
                    assert t in autos
                    assert [t[h] for h in gens[:i]] == gens[:i]


def test_the_searches_leave_no_garbage_for_the_cycle_collector():
    # a reference cycle would hold each call's memos until the collector ran
    d24, dih = load_fixture("D24"), load_fixture("DihZ4xZ4")
    gc.collect()
    gc.disable()
    try:
        enumerate_markings(d24, 3)
        automorphism_group(dih)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerate_markings_checks_the_automorphism_bound_up_front():
    # no order bound: Dih(Z/51), of order 102, has one class per
    # reflection pattern, each an orbit of |Hol(Z/51)| = 51 * phi(51)
    table = materialize_table(GenDihedralGroup(AbelianGroup(0, (51,))))
    classes = enumerate_markings(table, 2)
    assert [sorted(c.involutions) for c in classes] == [[2], [1], [1, 2]]
    assert [c.orbit_size for c in classes] == [51 * 32] * 3
    # the candidate budget refuses before any candidate is tried
    table = materialize_table(AbelianGroup(0, (2, 8, 8)))
    message = (
        "884736 candidates times order 128 = 113246208 exceed "
        "the automorphism search budget 100000000"
    )
    start = time.monotonic()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        enumerate_markings(table, 3)
    assert time.monotonic() - start < 2


def test_enumerate_markings_budget():
    with pytest.raises(ValueError, match="budget"):
        enumerate_markings(dihedral_table(6), 8)


def test_enumerate_markings_budget_never_builds_the_tuple_count():
    message = "12^1000000000 tuples exceed the enumeration budget"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        enumerate_markings(dihedral_table(6), 10**9)


def test_enumerate_markings_budget_counts_entries():
    trivial = FiniteGroupTable(1, ((0,),), ("e",))
    message = "1^1000000000 tuples of 1000000000 entries exceed the enumeration budget"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        enumerate_markings(trivial, 10**9)
    message = "12^6 tuples of 6 entries exceed the enumeration budget"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        enumerate_markings(dihedral_table(6), 6)
    assert len(enumerate_markings(trivial, 3)) == 1


@pytest.mark.parametrize("arity", [0, -1])
def test_enumerate_markings_rejects_arity_below_one(arity):
    with pytest.raises(ValueError, match="arity must be at least 1"):
        enumerate_markings(dihedral_table(6), arity)


def test_canonical_marking_examples():
    s0 = canonical_marking(2, {2})
    assert [str(x) for x in s0] == ["rot(1)", "ref(0)"]
    s = canonical_marking(2, {1, 2})
    assert [str(x) for x in s] == ["ref(0)", "ref(1)"]
    s3 = canonical_marking(3, {1})
    assert [str(x) for x in s3] == ["ref(0,0)", "rot(1,0)", "rot(0,1)"]
    for arity in (2, 3, 4):
        group = free_by_flip(arity)
        for mask in range(1, 2**arity):
            pattern = {i + 1 for i in range(arity) if mask >> i & 1}
            tup = canonical_marking(arity, pattern)
            assert is_generating_dih(group, tup)
            assert reflection_index_set(tup) == pattern


def test_canonical_marking_rejects_empty_pattern():
    with pytest.raises(ValueError):
        canonical_marking(3, set())


def test_decide_equivalence_frozen_example():
    g = free_by_flip(2)
    s = (g.rotation([1]), g.reflection([0]))
    t = (g.rotation([-1]), g.reflection([2]))
    phi = decide_marking_equivalence(s, t)
    assert phi.translation == (2,)
    assert phi.matrix == ((-1,),)
    assert phi.apply_tuple(s) == t


def test_decide_equivalence_none_on_distinct_patterns():
    g = free_by_flip(2)
    s = (g.rotation([1]), g.reflection([0]))
    t = (g.reflection([0]), g.reflection([1]))
    assert decide_marking_equivalence(s, t) is None


def test_decide_equivalence_identity():
    g = free_by_flip(3)
    s = canonical_marking(3, {1, 3})
    phi = decide_marking_equivalence(s, s)
    assert phi.apply_tuple(s) == s


def test_decide_equivalence_rejects_nongenerating():
    g = free_by_flip(2)
    with pytest.raises(ValueError):
        decide_marking_equivalence(
            (g.rotation([2]), g.reflection([0])), (g.rotation([1]), g.reflection([0]))
        )


def random_generating_tuple(rng, arity, span=3):
    g = free_by_flip(arity)
    base = g.base
    while True:
        tup = tuple(
            g.element(
                base.element(tuple(rng.randint(-span, span) for _ in range(arity - 1))),
                rng.randint(0, 1),
            )
            for _ in range(arity)
        )
        if is_generating_dih(g, tup):
            return tup


def test_random_tuples_map_to_canonical():
    rng = random.Random(2024)
    for arity in (2, 3):
        for _ in range(60):
            tup = random_generating_tuple(rng, arity)
            canon = canonical_marking(arity, reflection_index_set(tup))
            phi = decide_marking_equivalence(tup, canon)
            assert phi is not None
            assert phi.apply_tuple(tup) == canon


def test_automorphism_preserves_involution_pattern():
    rng = random.Random(9)
    g = free_by_flip(3)
    for _ in range(40):
        tup = random_generating_tuple(rng, 3)
        phi = decide_marking_equivalence(
            tup, canonical_marking(3, reflection_index_set(tup))
        )
        assert reflection_index_set(phi.apply_tuple(tup)) == reflection_index_set(tup)


def test_composition_law():
    rng = random.Random(31)
    for _ in range(40):
        tup1 = random_generating_tuple(rng, 3)
        tup2 = random_generating_tuple(rng, 3)
        phi = decide_marking_equivalence(
            tup1, canonical_marking(3, reflection_index_set(tup1))
        )
        psi = decide_marking_equivalence(
            tup2, canonical_marking(3, reflection_index_set(tup2))
        )
        composed = phi.compose(psi)
        x = tup2[0]
        assert composed.apply(x) == phi.apply(psi.apply(x))
        assert phi.compose(phi.inverse()) == DihAutomorphism.identity(3)


def seeded_automorphism(rng, m):
    """An automorphism of Z^(m-1) x| Z/2 drawn as the benchmark draws them: a
    row permutation of an upper bidiagonal matrix with +-1 on both diagonals."""
    n = m - 1
    upper = [[0] * n for _ in range(n)]
    for i in range(n):
        upper[i][i] = rng.choice((1, -1))
        if i + 1 < n:
            upper[i][i + 1] = rng.choice((1, -1))
    matrix = tuple(tuple(upper[i]) for i in rng.sample(range(n), n))
    return DihAutomorphism(tuple(rng.randint(-3, 3) for _ in range(n)), matrix)


@pytest.mark.parametrize("n", range(6))
def test_inverse_is_two_sided(n):
    rng = random.Random(n)
    identity = DihAutomorphism.identity(n + 1)
    for _ in range(20):
        phi = seeded_automorphism(rng, n + 1).compose(seeded_automorphism(rng, n + 1))
        assert phi.compose(phi.inverse()) == identity
        assert phi.inverse().compose(phi) == identity


@given(st.integers(0, 5), st.integers(0, 2**32), st.integers(-3, 3))
@settings(max_examples=200)
def test_inverse_against_the_smith_form(n, seed, shift):
    matrix = random_unimodular(random.Random(seed), n)
    phi = DihAutomorphism((shift,) * n, matrix)
    u, _, v = smith_normal_form(matrix)
    inverse = phi.inverse()
    assert inverse.matrix == tuple(map(tuple, matmul(v, u)))
    assert matmul(matrix, inverse.matrix) == _identity_matrix(n)
    assert phi.compose(inverse) == DihAutomorphism.identity(n + 1)


# the witness is unique, so these are the only right answers
EQUIVALENCE_WITNESSES = {
    2: ((-1,), ((-1,),)),
    3: ((-2, 4), ((0, -1), (-1, 0))),
    4: ((-5, -3, 2), ((-1, 0, 0), (0, 1, 0), (0, 0, 1))),
    5: ((-3, -2, -8, 4), ((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, -1, 2), (0, 0, 0, -1))),
    6: (
        (-2, 3, -5, 5, 5),
        (
            (-1, 0, 0, 0, 0),
            (0, -2, 1, 2, -2),
            (0, 1, 0, -2, 2),
            (0, 0, 0, 0, 1),
            (0, 0, 0, 1, 0),
        ),
    ),
}


@pytest.mark.parametrize("m", sorted(EQUIVALENCE_WITNESSES))
def test_equivalence_witness_pinned(m):
    rng = random.Random(m)
    source = seeded_automorphism(rng, m).apply_tuple(canonical_marking(m, {1, m}))
    target = seeded_automorphism(rng, m).apply_tuple(canonical_marking(m, {1, m}))
    phi = decide_marking_equivalence(source, target)
    assert (phi.translation, phi.matrix) == EQUIVALENCE_WITNESSES[m]


def test_counts():
    assert count_marking_classes(2) == 3
    assert count_marking_classes(3) == 7
    assert count_marking_classes(4) == 15
    with pytest.raises(ValueError):
        count_marking_classes(1)


def test_canonical_classes_listing():
    classes = canonical_classes(2)
    assert len(classes) == 3
    assert [sorted(c.involutions) for c in classes] == [[1], [2], [1, 2]]
    for m in range(2, 8):
        patterns = [sorted(c.involutions) for c in canonical_classes(m)]
        assert patterns == sorted(patterns, key=lambda p: (len(p), p))
        assert len(patterns) == count_marking_classes(m)
        for c in canonical_classes(m):
            assert reflection_index_set(c.representative) == c.involutions


def test_equivalent_tuples_have_equal_balls():
    # bridge to the ball machinery: equivalent markings are one point
    rng = random.Random(77)
    g = free_by_flip(2)
    tup = random_generating_tuple(rng, 2)
    canon = canonical_marking(2, reflection_index_set(tup))
    assert decide_marking_equivalence(tup, canon) is not None
    m1 = MarkedGroup(g, tup)
    m2 = MarkedGroup(g, canon)
    assert agreement_radius(m1, m2, 6) == 6


def test_dih_automorphism_validation():
    with pytest.raises(ValueError):
        DihAutomorphism((0,), ((2,),))
    with pytest.raises(ValueError):
        DihAutomorphism((0, 0), ((1,),))


@pytest.mark.parametrize(
    "matrix", [((2,),), ((0,),), ((1, 2), (2, 4)), ((1, 1), (1, -1)), ((0, 0), (0, 0))]
)
def test_dih_automorphism_refuses_a_matrix_that_is_not_unimodular(matrix):
    with pytest.raises(ValueError, match="^matrix must be unimodular$"):
        DihAutomorphism((0,) * len(matrix), matrix)
