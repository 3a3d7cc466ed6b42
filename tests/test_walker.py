"""The shared reduced-word walker against a brute-force oracle.

The oracle lists reduced words with itertools.product, sorts them by
Word order and evaluates each one with MarkedGroup.is_relation, so it
shares no code with the walker behind relation_ball, the enumeration
comparison route and enumerate_ball.
"""

from itertools import product

import pytest

from mgs.dsl import parse_marked
from mgs.tables import load_fixture
from mgs.topology import MarkedGroup, agreement_radius, relation_ball, separating_word
from mgs.words import BallCapExceeded, Word, enumerate_ball


def reduced_words(arity, length):
    letters = [sign * i for i in range(1, arity + 1) for sign in (1, -1)]
    raw = product(letters, repeat=length)
    return sorted(
        Word(w, arity) for w in raw if all(x != -y for x, y in zip(w, w[1:]))
    )


def oracle_ball(marked, radius):
    return [
        w
        for length in range(radius + 1)
        for w in reduced_words(marked.arity, length)
        if marked.is_relation(w)
    ]


def oracle_compare(a, b, r_max):
    for length in range(1, r_max + 1):
        for w in reduced_words(a.arity, length):
            if a.is_relation(w) != b.is_relation(w):
                return length - 1, w
    return r_max, None


def dihedral_pair(table, n):
    """(a reflection, a rotation of order n) in a D2n table."""
    rot = next(i for i in range(table.order) if table.element_order(i) == n)
    rotations = table.closure([rot])
    return next(i for i in range(table.order) if i not in rotations), rot


def generating_pairs(table):
    return [
        (x, y)
        for x in range(table.order)
        for y in range(table.order)
        if len(table.closure((x, y))) == table.order
    ]


def cases():
    """(a, b, r_max) comparisons on table and dihedral markings."""
    dinf = parse_marked("Dinf:a,b")
    out = []
    for n in (3, 4, 5, 6):
        table = load_fixture(f"D{2 * n}")
        ref, rot = dihedral_pair(table, n)
        out.append((MarkedGroup(table, (ref, rot)), dinf, n))
        out.append((MarkedGroup(table, (rot, ref)), parse_marked("Dinf:b,a"), n))
        # the last generating pair in index order is two reflections
        two_flips = MarkedGroup(table, generating_pairs(table)[-1])
        out.append((two_flips, parse_marked("Dinf:a,ref(1)"), min(2 * n, 6)))
    q8 = load_fixture("Q8")
    q8_pairs = generating_pairs(q8)
    d8 = load_fixture("D8")
    out.append((MarkedGroup(q8, q8_pairs[0]), MarkedGroup(d8, dihedral_pair(d8, 4)), 5))
    out.append((MarkedGroup(q8, q8_pairs[0]), MarkedGroup(q8, q8_pairs[-1]), 5))
    out.append((MarkedGroup(q8, q8_pairs[0]), parse_marked("Z/4 x Z/4:(1,0),(0,1)"), 5))
    a4 = load_fixture("A4")
    a4_pairs = generating_pairs(a4)
    out.append((MarkedGroup(a4, a4_pairs[0]), parse_marked("Dih(Z/3):b,a"), 5))
    out.append((MarkedGroup(a4, a4_pairs[0]), MarkedGroup(a4, a4_pairs[-1]), 5))
    dih44 = load_fixture("DihZ4xZ4")
    index = {label: i for i, label in enumerate(dih44.labels)}
    mixed = MarkedGroup(
        dih44, tuple(index[label] for label in ("ref(0,0)", "ref(1,0)", "rot(0,1)"))
    )
    for target in (
        "Dih(Z/4 x Z/4):a,b,c",
        "Dih(Z/2 x Z/4):a,ref(1,0),rot(0,1)",
        "Dih(Z x Z/4):a,ref(1,0),rot(0,1)",
    ):
        out.append((mixed, parse_marked(target), 4))
    out.append((parse_marked("Dih(Z/5):a,b"), dinf, 5))
    out.append((parse_marked("Dih(Z/4):ref(1),rot(1)"), parse_marked("Dih(Z/4):a,b"), 5))
    out.append((parse_marked("Dih(Z^2):a,b,c"), parse_marked("Dih(Z/3 x Z/3):a,b,c"), 4))
    out.append((parse_marked("Dih(Z/6):a,rot(2),rot(3)"), parse_marked("Dih(Z/6):a,b,b"), 3))
    return out


CASES = cases()


@pytest.mark.parametrize("a,b,r_max", CASES, ids=[f"{a} vs {b}" for a, b, _ in CASES])
def test_enumeration_route_matches_oracle(a, b, r_max):
    radius, witness = oracle_compare(a, b, r_max)
    assert agreement_radius(a, b, r_max, method="enumerate") == radius
    assert separating_word(a, b, r_max, method="enumerate") == witness


@pytest.mark.parametrize("a", [a for a, _, _ in CASES], ids=str)
def test_relation_ball_matches_oracle(a):
    radius = 5 if a.arity == 2 else 4
    assert list(relation_ball(a, radius).relations) == oracle_ball(a, radius)


def test_enumerate_ball_matches_oracle():
    for arity, radius in ((1, 5), (2, 4), (3, 3)):
        expected = [w for length in range(radius + 1) for w in reduced_words(arity, length)]
        assert enumerate_ball(arity, radius) == expected


def test_cap_refuses_a_ball_up_front_but_not_an_early_witness():
    table = load_fixture("D6")
    marked = MarkedGroup(table, dihedral_pair(table, 3))
    dinf = parse_marked("Dinf:a,b")
    # lengths 1..3 hold 4, 12 and 36 words; the witness comes before length 5's 324
    assert agreement_radius(marked, dinf, 20, cap=100) == 2
    assert str(separating_word(marked, dinf, 20, cap=100)) == "g2^3"
    with pytest.raises(BallCapExceeded):
        relation_ball(marked, 5, cap=100)
    with pytest.raises(BallCapExceeded):
        agreement_radius(marked, marked, 8, cap=100)


@pytest.mark.parametrize("cap", [0, -1, "100"])
def test_bad_cap_values_are_refused(cap):
    with pytest.raises(ValueError, match="positive integer"):
        enumerate_ball(2, 2, cap=cap)
