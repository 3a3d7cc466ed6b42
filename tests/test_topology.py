from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgs import topology
from mgs.abelian import AbelianGroup, canonical_invariant_factors
from mgs.closure_map import emit_closure_map
from mgs.dihedral import MATERIALIZE_BOUND, GenDihedralGroup, materialize_table
from mgs.dsl import parse_marked
from mgs.tables import load_fixture
from mgs.topology import (
    FamilyError,
    _compare_profiles,
    _profile_word,
    MarkedGroup,
    NotGenerating,
    RelationBall,
    accumulation_witness,
    agreement_radius,
    cb_rank,
    check_convergence,
    closure_characteristic,
    dih_embed,
    dihedral_residual_witness,
    is_limit_of_dihedral,
    marked_distance,
    rank_of_limit,
    relation_ball,
    separating_word,
)
from mgs.words import BallCapExceeded, Word, free_reduce

from helpers import profile_loop, signed_vectors


def dihedral_marked(n):
    """(D_2n, (a, b)); n=None gives the infinite one."""
    if n is None:
        g = GenDihedralGroup(AbelianGroup(1))
    else:
        g = GenDihedralGroup(AbelianGroup(0, (n,)))
    return MarkedGroup(g, (g.reflection([0]), g.rotation([1])))


def cyclic_marked(k):
    if k is None:
        g = AbelianGroup(1)
        return MarkedGroup(g, (g.element((1,)),))
    g = AbelianGroup(0, (k,))
    return MarkedGroup(g, (g.element((), (1,)),))


def test_marked_group_validation():
    g = GenDihedralGroup(AbelianGroup(1))
    with pytest.raises(NotGenerating):
        MarkedGroup(g, (g.rotation([1]),))
    with pytest.raises(NotGenerating):
        MarkedGroup(g, (g.reflection([0]), g.rotation([2])))
    t = load_fixture("D12")
    with pytest.raises(NotGenerating):
        MarkedGroup(t, (0, 1))


def test_marking_entries_must_belong_to_the_group():
    z2 = AbelianGroup(0, (2,))
    dih = GenDihedralGroup(z2)
    other = GenDihedralGroup(AbelianGroup(0, (4,)))
    foreign = [
        (dih, (dih.reflection((0,)), z2.element((), (1,)))),
        (z2, (dih.reflection((0,)),)),
        (dih, (dih.reflection((0,)), other.reflection((1,)))),
    ]
    for group, entries in foreign:
        with pytest.raises(ValueError, match="^marking entries must be elements of the group$"):
            MarkedGroup(group, entries)
    t = load_fixture("D12")
    for entries in [(1, 2.0), (1, "2"), (1, 12), (-1, 2)]:
        with pytest.raises(ValueError, match="^marking entries must be element indices$"):
            MarkedGroup(t, entries)
    with pytest.raises(TypeError, match="^unsupported group kind object$"):
        MarkedGroup(object(), ())


def _table_dihedral_marking(name):
    """A D2n fixture marked by (a reflection, a rotation of largest order)."""
    t = load_fixture(name)
    rot = max(range(t.order), key=t.element_order)
    ref = next(i for i in range(t.order) if i not in t.closure([rot]))
    return MarkedGroup(t, (ref, rot))


# a name without ":" is a table fixture, marked by _table_dihedral_marking
@pytest.mark.parametrize(
    "a, b, method, route",
    [
        ("D6:a,b", "Dinf:a,b", "auto", "_compare_profiles"),
        ("Z/6:(1)", "Z:(1)", "auto", "_compare_profiles"),
        ("Z/4 x Z/6:(1,0),(0,1)", "Z^2:(1,0),(0,1)", "auto", "_compare_profiles"),
        ("Dinf:a,b", "Dinf:b,a", "auto", "_compare_enumerate"),
        # both involution patterns are {1, 2}, the reflection patterns differ
        ("Z/2 x Z/2:(1,0),(0,1)", "Dih(Z/2):ref(0),ref(1)", "auto", "_compare_enumerate"),
        ("D6", "Dinf:a,b", "auto", "_compare_enumerate"),
        ("Dinf:a,b", "D6", "auto", "_compare_enumerate"),
        ("D6:a,b", "Dinf:a,b", "enumerate", "_compare_enumerate"),
        ("Z/6:(1)", "Z:(1)", "enumerate", "_compare_enumerate"),
        ("D6", "Dinf:a,b", "enumerate", "_compare_enumerate"),
    ],
)
def test_comparison_route(monkeypatch, a, b, method, route):
    taken = []
    for name in ("_compare_profiles", "_compare_enumerate"):
        real = getattr(topology, name)
        monkeypatch.setattr(
            topology, name, lambda *args, _real=real, _name=name: taken.append(_name) or _real(*args)
        )
    a, b = (_table_dihedral_marking(x) if ":" not in x else parse_marked(x) for x in (a, b))
    agreement_radius(a, b, 4, method=method)
    assert taken == [route]


def test_relation_ball_z2():
    g = AbelianGroup(0, (2,))
    m = MarkedGroup(g, (g.element((), (1,)),))
    ball = relation_ball(m, 2)
    assert [w.letters for w in ball.relations] == [(), (1, 1), (-1, -1)]


def test_relation_ball_dinf():
    ball = relation_ball(dihedral_marked(None), 2)
    assert [w.letters for w in ball.relations] == [(), (1, 1), (-1, -1)]


def test_relation_ball_d12_r4():
    ball = relation_ball(dihedral_marked(6), 4)
    abab = free_reduce([1, 2, 1, 2], 2)
    abinv = free_reduce([1, -2, 1, -2], 2)
    b4 = free_reduce([2, 2, 2, 2], 2)
    assert abab in ball and abinv in ball
    assert b4 not in ball


def test_relation_ball_of_arity_zero():
    m = MarkedGroup(AbelianGroup(0, ()), ())
    for radius in range(6):
        assert [str(w) for w in relation_ball(m, radius).relations] == ["1"]


def test_relation_ball_nested():
    m = dihedral_marked(4)
    big = relation_ball(m, 5)
    small = relation_ball(m, 3)
    assert big.restrict(3) == small
    assert set(small.relations) <= set(big.relations)


def test_relation_ball_table_marking():
    t = load_fixture("D12")
    refl = next(i for i in range(12) if t.labels[i] == "ref(0)")
    rot = next(i for i in range(12) if t.labels[i] == "rot(1)")
    m = MarkedGroup(t, (refl, rot))
    assert relation_ball(m, 4).relations == relation_ball(dihedral_marked(6), 4).relations


def test_relation_ball_cap(monkeypatch):
    monkeypatch.setenv("MGS_BALL_CAP", "100")
    with pytest.raises(BallCapExceeded):
        relation_ball(dihedral_marked(3), 20)


def test_relation_ball_checks_its_own_shape():
    def ball(radius, *words):
        return RelationBall(2, radius, tuple(Word(w, 2) for w in words))

    assert ball(2, (), (1, 2), (-2, -1)).radius == 2
    with pytest.raises(ValueError, match="outside the stated ball"):
        ball(1, (), (1, 1), (-1, -1))
    with pytest.raises(ValueError, match="outside the stated ball"):
        RelationBall(2, 2, (Word((), 2), Word((3,), 3), Word((-3,), 3)))
    with pytest.raises(ValueError, match="must contain the empty word"):
        ball(2, (1, 1), (), (-1, -1))
    with pytest.raises(ValueError, match="must contain the empty word"):
        ball(2)
    with pytest.raises(ValueError, match="closed under inversion"):
        ball(2, (), (1, 2))
    with pytest.raises(ValueError, match="closed under inversion"):
        ball(2, (), (1, 2), (-1, -2))


def test_agreement_examples():
    assert agreement_radius(dihedral_marked(3), dihedral_marked(None), 8) == 2
    assert separating_word(dihedral_marked(3), dihedral_marked(None), 8) == free_reduce(
        [2, 2, 2], 2
    )
    assert agreement_radius(cyclic_marked(5), cyclic_marked(None), 8) == 4
    m = dihedral_marked(4)
    assert agreement_radius(m, m, 6) == 6
    assert separating_word(m, m, 6) is None
    assert marked_distance(dihedral_marked(3), dihedral_marked(None), 8) == Fraction(1, 8)
    assert marked_distance(m, m, 6) == Fraction(0)


def test_agreement_methods_agree():
    markings = {
        "b": lambda n: dihedral_marked(n),
        "a": lambda n: _two_reflection_marking(n),
        "bbar": lambda n: _rotation_first_marking(n),
    }
    for build in markings.values():
        limit = build(None)
        for n in range(3, 7):
            member = build(n)
            for r_max in (3, 6, 9):
                enum = agreement_radius(member, limit, r_max, method="enumerate")
                prof, w_prof = _compare_profiles(member, limit, r_max)
                assert enum == prof
                w_enum = separating_word(member, limit, r_max, method="enumerate")
                assert (w_enum is None) == (w_prof is None)
                if w_enum is not None:
                    assert len(w_enum) == len(w_prof)
                    assert member.is_relation(w_prof) != limit.is_relation(w_prof)


def _two_reflection_marking(n):
    g = (
        GenDihedralGroup(AbelianGroup(1))
        if n is None
        else GenDihedralGroup(AbelianGroup(0, (n,)))
    )
    unit = g.base.free_generator(0) if n is None else g.base.torsion_generator(0)
    return MarkedGroup(g, (g.reflection(g.base.identity()), g.reflection(unit)))


def _rotation_first_marking(n):
    g = (
        GenDihedralGroup(AbelianGroup(1))
        if n is None
        else GenDihedralGroup(AbelianGroup(0, (n,)))
    )
    unit = g.base.free_generator(0) if n is None else g.base.torsion_generator(0)
    return MarkedGroup(g, (g.rotation(unit), g.reflection(g.base.identity())))


def test_agreement_methods_agree_on_abelian():
    for k in (4, 5, 9):
        for r_max in (3, 6, 10):
            e = agreement_radius(cyclic_marked(k), cyclic_marked(None), r_max, method="enumerate")
            p, _ = _compare_profiles(cyclic_marked(k), cyclic_marked(None), r_max)
            assert e == p
    z2 = AbelianGroup(2)
    m1 = MarkedGroup(z2, (z2.element((1, 0)), z2.element((0, 1))))
    m2 = MarkedGroup(z2, (z2.element((1, 0)), z2.element((1, 1))))
    for r_max in (2, 4, 6):
        assert agreement_radius(m1, m2, r_max, method="enumerate") == (
            _compare_profiles(m1, m2, r_max)[0]
        )


def test_agreement_dihedral_family_radii():
    for n in range(3, 11):
        assert agreement_radius(dihedral_marked(n), dihedral_marked(None), 10) == n - 1


def test_profile_is_not_a_comparison_method():
    same = (dihedral_marked(3), dihedral_marked(None))
    mismatched = (dihedral_marked(3), _rotation_first_marking(3))
    for a, b in (same, mismatched):
        for compare in (agreement_radius, separating_word, marked_distance):
            with pytest.raises(ValueError, match=r"^unknown comparison method 'profile'$"):
                compare(a, b, 4, method="profile")
    # mismatched patterns take the enumeration route under auto
    assert agreement_radius(*mismatched, 4) == agreement_radius(*mismatched, 4, method="enumerate")


def test_ultrametric_inequality():
    points = [
        dihedral_marked(3),
        dihedral_marked(4),
        dihedral_marked(6),
        dihedral_marked(None),
        _two_reflection_marking(4),
        _two_reflection_marking(None),
    ]
    for x, y, z in combinations(points, 3):
        dxz = marked_distance(x, z, 6, method="enumerate")
        dxy = marked_distance(x, y, 6, method="enumerate")
        dyz = marked_distance(y, z, 6, method="enumerate")
        assert dxz <= max(dxy, dyz)


def test_check_convergence_cyclic():
    report = check_convergence(
        lambda k: cyclic_marked(k), cyclic_marked(None), range(3, 11), r_max=10
    )
    assert report.consistent()
    assert report.radii == (2, 3, 4, 5, 6, 7, 8, 9)


def test_check_convergence_dihedral():
    report = check_convergence(
        lambda k: dihedral_marked(k), dihedral_marked(None), range(3, 11), r_max=10
    )
    assert report.consistent()
    assert report.radii == tuple(range(2, 10))


def test_check_convergence_refutes_constant_family():
    report = check_convergence(
        lambda k: dihedral_marked(3), dihedral_marked(None), range(3, 11), r_max=10
    )
    assert report.verdict == "refuted"
    assert report.witness == free_reduce([2, 2, 2], 2)
    member = dihedral_marked(3)
    assert member.is_relation(report.witness)
    assert not dihedral_marked(None).is_relation(report.witness)


def test_check_convergence_schedule_validation():
    with pytest.raises(ValueError, match="^schedule exceeds the tested radius window$"):
        check_convergence(lambda k: cyclic_marked(k), cyclic_marked(None), [3, 4], r_max=1)


def test_check_convergence_rejects_an_empty_family():
    with pytest.raises(ValueError, match="empty family"):
        check_convergence(lambda k: cyclic_marked(k), cyclic_marked(None), range(3, 3))
    with pytest.raises(ValueError, match="empty family"):
        check_convergence([], cyclic_marked(None), [])


def test_limit_decision_table():
    assert is_limit_of_dihedral(GenDihedralGroup(canonical_invariant_factors([None, 6]))).value
    assert not is_limit_of_dihedral(GenDihedralGroup(AbelianGroup(0, (2, 4)))).value
    assert is_limit_of_dihedral(GenDihedralGroup(AbelianGroup(0, ()))).value
    assert is_limit_of_dihedral(GenDihedralGroup(AbelianGroup(0, (2,)))).value
    assert is_limit_of_dihedral(AbelianGroup(0, (2,))).value
    assert is_limit_of_dihedral(AbelianGroup(0, (2, 2))).value
    assert not is_limit_of_dihedral(AbelianGroup(0, (3,))).value
    assert not is_limit_of_dihedral(AbelianGroup(1)).value
    assert not is_limit_of_dihedral(GenDihedralGroup(AbelianGroup(0, (2, 2)))).value


def test_residual_witness_dinf():
    g = GenDihedralGroup(AbelianGroup(1))
    b = g.rotation([1])
    ab = g.reflection([0]) * b
    f = [b, b * b, ab]
    witness = dihedral_residual_witness(g, f)
    assert witness.half_order == 3
    images = [witness(x) for x in f]
    assert [str(x) for x in images] == ["rot(1)", "rot(2)", "ref(2)"]
    assert all(not x.is_identity() for x in images)
    assert witness.target.order() == 6


def test_residual_witness_avoids_divisors():
    g = GenDihedralGroup(AbelianGroup(1))
    witness = dihedral_residual_witness(g, [g.rotation([4])])
    assert witness.half_order == 3
    assert witness(g.rotation([4])) == witness.target.rotation([1])


def test_residual_witness_mixed_torsion():
    g = GenDihedralGroup(AbelianGroup(1, (6,)))
    x = g.rotation(g.base.element((1,), (0,)))
    witness = dihedral_residual_witness(g, [x])
    assert witness.half_order == 30
    assert not witness(x).is_identity()


def test_residual_witness_is_homomorphism():
    g = GenDihedralGroup(AbelianGroup(1, (4,)))
    witness = dihedral_residual_witness(g, [g.rotation(g.base.element((1,), (1,)))])
    elems = [
        g.rotation(g.base.element((2,), (3,))),
        g.reflection(g.base.element((-1,), (2,))),
        g.rotation(g.base.element((0,), (1,))),
    ]
    for x in elems:
        for y in elems:
            assert witness(x * y) == witness(x) * witness(y)


def test_residual_witness_preconditions():
    g = GenDihedralGroup(AbelianGroup(0, (2, 4)))
    with pytest.raises(FamilyError):
        dihedral_residual_witness(g, [])
    klein = GenDihedralGroup(AbelianGroup(0, (2,)))
    with pytest.raises(FamilyError):
        dihedral_residual_witness(klein, [])
    dinf = GenDihedralGroup(AbelianGroup(1))
    with pytest.raises(ValueError):
        dihedral_residual_witness(dinf, [dinf.identity()])


def test_dih_embed():
    m = cyclic_marked(None)
    embedded = dih_embed(m)
    assert embedded == dihedral_marked(None)
    m6 = cyclic_marked(6)
    assert dih_embed(m6) == dihedral_marked(6)


def test_dih_embed_preserves_ball_agreement():
    # equal balls before the embedding stay equal after, radius-bounded
    r = 6
    for k in (5, 7):
        before = agreement_radius(cyclic_marked(k), cyclic_marked(None), r)
        after = agreement_radius(
            dih_embed(cyclic_marked(k)), dih_embed(cyclic_marked(None)), r
        )
        assert after >= before


def test_cb_rank_values():
    assert cb_rank(GenDihedralGroup(AbelianGroup(0, (6,))), "dihedral-closure") == 0
    assert cb_rank(GenDihedralGroup(AbelianGroup(1)), "dihedral-closure") == 1
    assert cb_rank(GenDihedralGroup(AbelianGroup(2)), "dihedral-closure") == 2
    assert cb_rank(AbelianGroup(1), "cyclic-closure") == 1
    assert cb_rank(AbelianGroup(2, (3,)), "all-marked") == 2
    assert cb_rank(AbelianGroup(0, (2, 2)), "all-marked") == 0


def test_cb_rank_family_errors():
    with pytest.raises(FamilyError):
        cb_rank(GenDihedralGroup(AbelianGroup(0, (2, 4))), "dihedral-closure")
    with pytest.raises(FamilyError):
        cb_rank(AbelianGroup(0, (2, 4)), "cyclic-closure")
    with pytest.raises(FamilyError):
        cb_rank(GenDihedralGroup(AbelianGroup(1)), "all-marked")
    with pytest.raises(ValueError):
        cb_rank(AbelianGroup(1), "nonsense")


def test_rank_of_limit():
    assert rank_of_limit(GenDihedralGroup(AbelianGroup(1))) == 2
    assert rank_of_limit(GenDihedralGroup(AbelianGroup(2))) == 3
    assert rank_of_limit(GenDihedralGroup(AbelianGroup(0, ()))) == 1
    assert rank_of_limit(GenDihedralGroup(AbelianGroup(0, (2,)))) == 2
    assert rank_of_limit(GenDihedralGroup(canonical_invariant_factors([None, 6]))) == 3
    assert rank_of_limit(AbelianGroup(0, (2,))) == 1
    assert rank_of_limit(AbelianGroup(0, (2, 2))) == 2
    with pytest.raises(FamilyError):
        rank_of_limit(GenDihedralGroup(AbelianGroup(0, (2, 4))))


def test_accumulation_witness_cyclic():
    aw = accumulation_witness(cyclic_marked(None), 4)
    assert aw.primes == (3, 5, 7, 11)
    assert aw.report.radii == (2, 4, 6, 10)
    assert aw.report.consistent()
    assert [m.group.invariant_factors for m in aw.members] == [(3,), (5,), (7,), (11,)]
    for (i, j), word in aw.separators.items():
        assert aw.members[i].is_relation(word)
        assert not aw.members[j].is_relation(word)
        assert not aw.target.is_relation(word)


def test_accumulation_witness_dihedral():
    aw = accumulation_witness(dihedral_marked(None), 4)
    assert aw.report.radii == (2, 4, 6, 10)
    assert all(isinstance(m.group, GenDihedralGroup) for m in aw.members)
    radii = aw.report.radii
    assert all(a < b for a, b in zip(radii, radii[1:]))


def test_accumulation_witness_mixed_base():
    base = canonical_invariant_factors([None, 2])
    g = GenDihedralGroup(base)
    marked = MarkedGroup(
        g,
        (
            g.reflection(base.identity()),
            g.rotation(base.free_generator(0)),
            g.rotation(base.torsion_generator(0)),
        ),
    )
    aw = accumulation_witness(marked, 3)
    assert aw.primes == (3, 5, 7)
    assert aw.report.consistent()
    # Z/2 x Z/p is cyclic of order 2p in canonical form
    assert [m.group.base.invariant_factors for m in aw.members] == [(6,), (10,), (14,)]
    radii = aw.report.radii
    assert all(a < b for a, b in zip(radii, radii[1:]))


@pytest.mark.parametrize(
    "text, count, primes, radii, separator",
    [
        # two reflections: the second one enters through a two-letter block
        ("Dih(Z):ref(0),ref(1)", 3, (3, 5, 7), (5, 6, 6), "g2*g1*g2*g1*g2*g1"),
        ("Dih(Z^2):ref(0,0),ref(1,0),ref(0,1)", 2, (3, 5), (4, 4), "g3*g1*g3*g1*g3*g1"),
        # a negative coefficient inverts its block
        ("Z:(-1)", 2, (3, 5), (2, 4), "g1^-3"),
    ],
)
def test_accumulation_witness_pinned(text, count, primes, radii, separator):
    aw = accumulation_witness(parse_marked(text), count)
    assert aw.primes == primes
    assert aw.report.radii == radii
    assert str(aw.separators[(0, 1)]) == separator


def test_accumulation_witness_isolated():
    with pytest.raises(FamilyError):
        accumulation_witness(dihedral_marked(6), 3)


def test_accumulation_witness_needs_an_abelian_or_dihedral_marking():
    with pytest.raises(TypeError, match="^accumulation witnesses need an abelian or dihedral marking$"):
        accumulation_witness(_table_dihedral_marking("D12"), 3)


def test_closure_characteristic():
    assert closure_characteristic(2, "dihedral").alpha == 1
    assert closure_characteristic(2, "dihedral").points == 3
    assert closure_characteristic(3, "dihedral").points == 7
    assert closure_characteristic(2, "abelian") == closure_characteristic(2, "abelian")
    assert closure_characteristic(2, "abelian").alpha == 2
    assert closure_characteristic(2, "abelian").points == 1
    assert closure_characteristic(1, "cyclic").alpha == 1
    with pytest.raises(ValueError):
        closure_characteristic(1, "dihedral")
    with pytest.raises(ValueError):
        closure_characteristic(2, "cyclic")
    with pytest.raises(ValueError):
        closure_characteristic(2, "free")


def test_marked_str():
    assert str(dihedral_marked(6)) == "Dih(Z/6):ref(0),rot(1)"


# ---------------------------------------------------------------------------
# The profile route against oracles, on random same-pattern markings


@st.composite
def abelian_groups(draw, max_rank):
    free = draw(st.integers(0, min(2, max_rank)))
    factors = []
    for _ in range(draw(st.integers(0, min(2, max_rank - free)))):
        factors.append((factors[-1] if factors else 1) * draw(st.integers(2, 4)))
    return AbelianGroup(free, tuple(factors))


@st.composite
def generating_coordinates(draw, group, length):
    """Coordinates of a generating tuple of `group` of the given length:
    its standard generators and random padding, mixed by elementary
    moves (which keep the tuple generating) and shuffled."""
    small = st.integers(-2, 2)
    coords = [list(x.coordinates()) for x in group.generators()]
    for _ in range(length - group.rank):
        coords.append(draw(st.lists(small, min_size=group.rank, max_size=group.rank)))
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, length - 1)), draw(st.integers(0, length - 1))
        if i != j:
            c = draw(small)
            coords[i] = [x + c * y for x, y in zip(coords[i], coords[j])]
    return draw(st.permutations(coords))


def _last_factor(group):
    return (group.invariant_factors[-1:] or (1,))[0]


@st.composite
def collapsed(draw, group, max_modulus=None):
    """A quotient Z^r x T -> Z^(r-1) x T x Z/k killing k times the last free
    generator, as (target group, coordinate map).  Markings related by it
    can agree on larger balls than independent ones, so the routes are
    tested past their first few profiles.  k is a multiple of T's last
    factor: 2 to 6 times it, or up to max_modulus when that is given."""
    base = _last_factor(group)
    k = base * draw(st.integers(2, 6 if max_modulus is None else max_modulus // base))
    r = group.free_rank
    target = AbelianGroup(r - 1, group.invariant_factors + (k,))
    return target, lambda c: [*c[: r - 1], *c[r:], c[r - 1] % k]


@st.composite
def marked_pairs(draw, arity, max_rank, min_rank, build, lead=0, max_modulus=None):
    """Two markings build(group, coordinates): independent draws, or the
    second one the image of the first under a collapse of a free factor.
    The coordinates are `lead` arbitrary vectors, then a generating tuple.
    With max_modulus, the pair is always one collapse apart, by a modulus
    of at most max_modulus."""

    def draw_coords(group):
        vector = st.lists(st.integers(-3, 3), min_size=group.rank, max_size=group.rank)
        return [draw(vector) for _ in range(lead)] + draw(
            generating_coordinates(group, arity)
        )

    groups = abelian_groups(max_rank).filter(lambda g: g.rank >= min_rank)
    if max_modulus is not None:
        groups = groups.filter(lambda g: g.free_rank and 2 * _last_factor(g) <= max_modulus)
    group = draw(groups)
    coords = draw_coords(group)
    if group.free_rank and (max_modulus is not None or draw(st.booleans())):
        other, image = draw(collapsed(group, max_modulus))
        other_coords = [image(c) for c in coords]
    else:
        other = draw(abelian_groups(max_rank).filter(lambda g: g.rank >= min_rank))
        other_coords = draw_coords(other)
    return build(group, coords), build(other, other_coords)


@st.composite
def abelian_pairs(draw, max_modulus=None):
    arity = draw(st.integers(1, 3))

    def build(group, coords):
        return MarkedGroup(group, [group.from_coordinates(c) for c in coords])

    return draw(marked_pairs(arity, arity, 0, build, max_modulus=max_modulus))


@st.composite
def dihedral_pairs(draw, max_modulus=None):
    """Two Dih(A) markings with one involution pattern, A of rank 1 to 3.

    The first reflection's translation is the first coordinate vector; the
    rotation parts and the later reflections' differences from it are the
    rest, a generating tuple of A, so the marking generates.
    """
    arity = draw(st.integers(2, 4))
    pattern = draw(st.lists(st.integers(0, 1), min_size=arity, max_size=arity).filter(any))

    def build(base, coords):
        group = GenDihedralGroup(base)
        first = base.from_coordinates(coords[0])
        parts = iter(base.from_coordinates(c) for c in coords[1:])
        gens = []
        for eps in pattern:
            if not eps:
                gens.append(group.rotation(next(parts)))
            elif any(g.eps for g in gens):
                gens.append(group.reflection(first + next(parts)))
            else:
                gens.append(group.reflection(first))
        return MarkedGroup(group, gens)

    return draw(
        marked_pairs(arity - 1, min(3, arity - 1), 1, build, lead=1, max_modulus=max_modulus)
    )


@given(st.one_of(abelian_pairs(), dihedral_pairs()), st.data())
@settings(max_examples=100, deadline=None)
def test_table_evaluation_matches_the_rich_elements(pair, data):
    for marked in pair:
        if not marked.group.is_finite() or marked.group.order() > MATERIALIZE_BOUND:
            continue
        table = materialize_table(marked.group)
        index = {label: i for i, label in enumerate(table.labels)}
        values = [index[str(s)] for s in marked.generators]
        letter = st.integers(1, marked.arity).flatmap(lambda i: st.sampled_from((i, -i)))
        for raw in data.draw(st.lists(st.lists(letter, max_size=12), max_size=5)):
            word = free_reduce(raw, marked.arity)
            value = table.evaluate(word.letters, values)
            assert table.labels[value] == str(marked.evaluate(word))


def oracle_profiles(a, b, r_max):
    """The profile order of the route, each profile decided by evaluating
    its word with the rich elements of MarkedGroup.is_relation."""
    n_ref = sum(getattr(s, "eps", 0) for s in a.generators)
    for norm in range(1, r_max + 1):
        for d_norm in range(norm + 1):
            for d in signed_vectors(n_ref, d_norm):
                if sum(d) != 0:
                    continue
                for x in signed_vectors(a.arity - n_ref, norm - d_norm):
                    word = _profile_word(a, x, d)
                    if a.is_relation(word) != b.is_relation(word):
                        return norm - 1, word
    return r_max, None


def check_profile_route(pair, r_profile, r_enumerate):
    a, b = pair
    assert _compare_profiles(a, b, r_profile) == oracle_profiles(a, b, r_profile)
    radius, witness = _compare_profiles(a, b, r_enumerate)
    assert radius == agreement_radius(a, b, r_enumerate, method="enumerate")
    enumerated = separating_word(a, b, r_enumerate, method="enumerate")
    assert (witness is None) == (enumerated is None)
    if witness is not None:
        assert len(witness) == len(enumerated)
        assert a.is_relation(witness) != b.is_relation(witness)


@given(abelian_pairs(), st.integers(1, 7), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_profile_route_matches_oracles_on_abelian_markings(pair, r_profile, r_enumerate):
    check_profile_route(pair, r_profile, r_enumerate)


@given(dihedral_pairs(), st.integers(1, 6), st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_profile_route_matches_oracles_on_dihedral_markings(pair, r_profile, r_enumerate):
    check_profile_route(pair, r_profile, r_enumerate)


@given(
    st.one_of(abelian_pairs(max_modulus=31), dihedral_pairs(max_modulus=31)),
    st.integers(10, 30),
)
@settings(max_examples=100, deadline=None)
def test_profile_route_matches_the_profile_loop_past_small_radii(pair, r_max):
    """Pairs one collapse apart, by moduli up to 31, reach witnesses of
    norm above 9 (about a sixth of the draws) and past 20."""
    a, b = pair
    assert _compare_profiles(a, b, r_max) == profile_loop(a, b, r_max)


@pytest.mark.parametrize(
    "a, b, radius, witness",
    [
        ("Z^2:(1,0),(0,1)", "Z x Z/29:(1,0),(0,1)", 28, "g2^29"),
        ("Dih(Z^2):a,b,c", "Dih(Z x Z/31):a,b,c", 30, None),
        ("Dih(Z^2):a,b,c", "Dih(Z x Z/29):a,b,c", 28, "g3^29"),
        ("Z^3:(1,0,0),(0,1,0),(0,0,1)", "Z^2 x Z/12:(1,0,0),(0,1,0),(0,0,5)", 11, "g3^12"),
    ],
)
def test_profile_route_far_witnesses(a, b, radius, witness):
    a, b = parse_marked(a), parse_marked(b)
    got = _compare_profiles(a, b, 30)
    assert got == profile_loop(a, b, 30)
    assert got[0] == radius
    assert (got[1] and str(got[1])) == witness


# ---------------------------------------------------------------------------
# One relation lattice per marking


def fresh(marked):
    """An equal marking object that has compiled nothing yet."""
    return MarkedGroup(marked.group, marked.generators)


def count_lattice_builds(monkeypatch):
    calls = []
    build = topology._relation_lattice

    def spy(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(topology, "_relation_lattice", spy)
    return calls


def test_the_closure_map_builds_one_lattice_per_node(monkeypatch):
    calls = count_lattice_builds(monkeypatch)
    emit_closure_map(range(3, 9))
    assert len(calls) == 22


@pytest.mark.parametrize("k", [1, 4, 8])
def test_convergence_builds_the_limit_lattice_once(monkeypatch, k):
    calls = count_lattice_builds(monkeypatch)
    check_convergence(dihedral_marked, dihedral_marked(None), range(3, 3 + k))
    assert len(calls) == k + 1


@given(st.one_of(abelian_pairs(), dihedral_pairs()), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_reused_markings_compare_as_fresh_ones(pair, r_max):
    a, b = pair
    keys = [(m, hash(m)) for m in (a, b)]
    for m in (a, b):
        n_rot = m.arity - sum(m._layout[2])
        columns = fresh(m)._profile[0]
        assert m._profile == (columns, topology._relation_lattice(columns, m.arity, n_rot))
    # each object is compared more than once, both ways and at two radii
    for radius in (r_max, r_max + 3):
        assert _compare_profiles(a, b, radius) == oracle_profiles(fresh(a), fresh(b), radius)
        assert _compare_profiles(b, a, radius) == oracle_profiles(fresh(b), fresh(a), radius)
    for m, h in keys:
        assert m == fresh(m) and hash(m) == h == hash(fresh(m))
