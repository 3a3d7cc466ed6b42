import math
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgs.abelian import AbelianGroup, canonical_invariant_factors
from mgs.dihedral import (
    GenDihedralGroup,
    evaluate_word,
    is_generating_dih,
    materialize_table,
)
from mgs.words import free_reduce

from helpers import abelian_groups_up_to, closure_of_elements

D12 = GenDihedralGroup(AbelianGroup(0, (6,)))
DINF = GenDihedralGroup(AbelianGroup(1))


def test_defining_relation():
    a = D12.reflection([0])
    b = D12.rotation([1])
    assert a.inverse() * b * a == b.inverse() == D12.rotation([5])


def test_reflections_are_involutions():
    for v in range(6):
        r = D12.reflection([v])
        assert (r * r).is_identity()
        assert r.order() == 2


def test_semidirect_rule_example():
    x = D12.element([2], 1)
    y = D12.element([3], 1)
    assert x * y == D12.rotation([5])


def test_inverse_and_order():
    assert D12.rotation([2]).inverse() == D12.rotation([4])
    assert D12.rotation([1]).order() == 6
    assert D12.identity().order() == 1
    assert DINF.rotation([3]).order() == math.inf
    assert D12.rotation([1]) * D12.rotation([2]) == D12.rotation([3])


@pytest.mark.parametrize("group", [D12, DINF], ids=["D12", "Dinf"])
def test_power_matches_repeated_products(group):
    for x in (group.rotation([1]), group.rotation([-2]), group.reflection([1])):
        for n in range(-3, 4):
            expected = group.identity()
            for _ in range(abs(n)):
                expected = expected * (x if n > 0 else x.inverse())
            assert x ** n == expected


def test_rotations_commute():
    for v in range(6):
        for w in range(6):
            x, y = D12.rotation([v]), D12.rotation([w])
            assert x * y == y * x


def test_evaluate_word_examples():
    a, b = D12.reflection([0]), D12.rotation([1])
    w = free_reduce([1, 2, 1, 2], 2)
    assert evaluate_word(D12, (a, b), w).is_identity()
    w6 = free_reduce([2] * 6, 2)
    assert evaluate_word(D12, (a, b), w6).is_identity()
    ai, bi = DINF.reflection([0]), DINF.rotation([1])
    assert evaluate_word(DINF, (ai, bi), w6) == DINF.rotation([6])
    assert evaluate_word(D12, (a, b), free_reduce([], 2)).is_identity()
    with pytest.raises(ValueError):
        evaluate_word(D12, (a,), w)


words2 = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=12)


@given(words2, words2)
@settings(max_examples=80)
def test_evaluate_word_is_homomorphic(raw1, raw2):
    a, b = D12.reflection([0]), D12.rotation([1])
    u = free_reduce(raw1, 2)
    v = free_reduce(raw2, 2)
    lhs = evaluate_word(D12, (a, b), u * v)
    rhs = evaluate_word(D12, (a, b), u) * evaluate_word(D12, (a, b), v)
    assert lhs == rhs


def test_is_generating_examples():
    a = DINF.reflection([0])
    assert is_generating_dih(DINF, (a, DINF.rotation([1])))
    assert not is_generating_dih(DINF, (a, DINF.rotation([2])))
    assert is_generating_dih(DINF, (a, DINF.reflection([1])))
    assert not is_generating_dih(DINF, (DINF.rotation([1]),))


def test_is_generating_against_closure():
    rng = random.Random(23)
    from helpers import random_abelian_group, random_element

    for _ in range(120):
        base = random_abelian_group(rng, max_order=60)
        g = GenDihedralGroup(base)
        tup = tuple(
            g.element(random_element(rng, base), rng.randint(0, 1))
            for _ in range(rng.randint(1, 4))
        )
        brute = len(closure_of_elements(g.identity(), tup)) == 2 * base.torsion_order()
        assert is_generating_dih(g, tup) == brute


def test_materialize_d6():
    t = materialize_table(GenDihedralGroup(AbelianGroup(0, (3,))))
    assert t.order == 6
    assert not t.is_abelian()
    assert t.labels[0] == "rot(0)"


def test_materialize_klein():
    t = materialize_table(GenDihedralGroup(AbelianGroup(0, (2,))))
    assert t.order == 4
    assert t.is_abelian()


def test_materialize_dih_z4z4():
    t = materialize_table(GenDihedralGroup(AbelianGroup(0, (4, 4))))
    assert t.order == 32
    assert not t.is_abelian()


def test_materialize_trivial_base():
    t = materialize_table(GenDihedralGroup(AbelianGroup(0, ())))
    assert t.order == 2
    assert t.labels == ("rot(0)", "ref(0)")


def test_materialize_errors():
    with pytest.raises(ValueError):
        materialize_table(DINF)
    with pytest.raises(ValueError):
        materialize_table(GenDihedralGroup(AbelianGroup(0, (300,))))


def test_materialize_refuses_by_order_before_listing_elements(monkeypatch):
    def unlisted(self):
        raise AssertionError("elements() listed before the order was checked")

    monkeypatch.setattr(GenDihedralGroup, "elements", unlisted)
    monkeypatch.setattr(AbelianGroup, "elements", unlisted)
    for group in (GenDihedralGroup(AbelianGroup(0, (300,))), AbelianGroup(0, (600,))):
        with pytest.raises(ValueError, match=r"^group order 600 exceeds the cap of 512$"):
            materialize_table(group)


def test_materialize_matches_the_table_of_the_elements():
    for base in abelian_groups_up_to(32):
        for group, op in ((base, operator.add), (GenDihedralGroup(base), operator.mul)):
            elems = list(group.elements())
            index = {x: i for i, x in enumerate(elems)}
            table = materialize_table(group)
            assert table.rows == tuple(tuple(index[op(x, y)] for y in elems) for x in elems)
            assert table.labels == tuple(str(x) for x in elems)


def test_abelian_iff_exponent_two():
    for orders in ([2], [2, 2], [3], [4], [2, 4], [1]):
        base = canonical_invariant_factors(orders)
        g = GenDihedralGroup(base)
        assert g.is_abelian() == materialize_table(g).is_abelian()


def test_element_rendering():
    g = GenDihedralGroup(AbelianGroup(1, (6,)))
    assert str(g.element(g.base.element((2,), (3,)), 1)) == "ref(2;3)"
    assert str(D12.rotation([4])) == "rot(4)"
    assert str(DINF.reflection([0])) == "ref(0)"


# ---------------------------------------------------------------------------
# Group arithmetic against the validating constructors


@st.composite
def arithmetic_cases(draw):
    """A random Z^r x Z/d_1 x ... x Z/d_t (r <= 3, t <= 3, chained
    factors), raw coordinates of two elements, two eps bits and a
    multiplier."""
    free = draw(st.integers(0, 3))
    factors = []
    for _ in range(draw(st.integers(0, 3))):
        step = draw(st.integers(1, 4)) if factors else draw(st.integers(2, 4))
        factors.append((factors[-1] if factors else 1) * step)
    coords = st.tuples(
        st.lists(st.integers(-20, 20), min_size=free, max_size=free),
        st.lists(st.integers(-50, 50), min_size=len(factors), max_size=len(factors)),
    )
    return (
        free,
        tuple(factors),
        draw(coords),
        draw(coords),
        draw(st.integers(0, 1)),
        draw(st.integers(0, 1)),
        draw(st.integers(-7, 7)),
    )


def raw_map(f, *raws):
    """Apply f coordinatewise to raw (free, torsion) coordinate pairs."""
    return tuple(list(map(f, *parts)) for parts in zip(*raws))


@given(arithmetic_cases())
@settings(max_examples=300, deadline=None)
def test_group_arithmetic_matches_the_validating_constructors(case):
    free, factors, raw_x, raw_y, ex, ey, n = case
    g = AbelianGroup(free, factors)
    twin = AbelianGroup(free, factors)  # equal, but a distinct object
    x, y = g.element(*raw_x), twin.element(*raw_y)
    pairs = [
        (x + y, g.element(*raw_map(operator.add, raw_x, raw_y))),
        (-x, g.element(*raw_map(operator.neg, raw_x))),
        (x - y, g.element(*raw_map(operator.sub, raw_x, raw_y))),
        (n * x, g.element(*raw_map(lambda a: n * a, raw_x))),
    ]
    for got, want in pairs:
        assert got == want
        assert got.group == g
        assert all(0 <= c < d for c, d in zip(got.torsion, factors))

    dg, dtwin = GenDihedralGroup(g), GenDihedralGroup(twin)
    s, t = dg.element(x, ex), dtwin.element(y, ey)
    sign = -1 if ex else 1
    product = raw_map(lambda a, b: a + sign * b, raw_x, raw_y)
    inverse = raw_x if ex else raw_map(operator.neg, raw_x)
    if ex:
        power = dg.element(g.element(*raw_x), 1) if n % 2 else dg.identity()
    else:
        power = dg.element(g.element(*raw_map(lambda a: n * a, raw_x)), 0)
    pairs = [
        (s * t, dg.element(g.element(*product), ex ^ ey)),
        (s.inverse(), dg.element(g.element(*inverse), ex)),
        (s**n, power),
    ]
    for got, want in pairs:
        assert got == want
        assert all(0 <= c < d for c, d in zip(got.v.torsion, factors))

    other = AbelianGroup(free + 1, factors)
    z = other.identity()
    for combine in (operator.add, operator.sub):
        with pytest.raises(ValueError, match="different groups"):
            combine(x, z)
    with pytest.raises(ValueError, match="different groups"):
        s * GenDihedralGroup(other).identity()
