"""The shared reduced-word walker against a brute-force oracle.

The oracle lists reduced words with itertools.product, sorts them by
Word order and evaluates each one with MarkedGroup.is_relation, so it
shares no code with the walker behind relation_ball, the enumeration
comparison route and enumerate_ball.  The enumeration route keeps one
word per pair of values, and relation balls join half-length words by
value; both are also checked against the walk that keeps every word.
"""

import functools
import operator
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgs.dsl import parse_marked
from mgs.tables import load_fixture
from mgs.topology import (
    MarkedGroup,
    _compare,
    _ops,
    agreement_radius,
    relation_ball,
    separating_word,
)
from mgs.words import BallCapExceeded, Word, enumerate_ball, trivial_ops, walk_ball


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


def unpruned_compare(a, b, r_max):
    """The first mismatch of the walk that keeps every reduced word."""
    ops_a, ops_b = _ops(a), _ops(b)
    for length, layer in enumerate(walk_ball(a.arity, r_max, ops_a, ops_b), start=1):
        for w, ya, yb in layer:
            if (ya == ops_a[0]) != (yb == ops_b[0]):
                return length - 1, Word(w, a.arity)
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


def test_cap_refuses_a_ball_up_front_but_not_an_early_witness(monkeypatch):
    monkeypatch.setenv("MGS_BALL_CAP", "100")
    table = load_fixture("D6")
    marked = MarkedGroup(table, dihedral_pair(table, 3))
    dinf = parse_marked("Dinf:a,b")
    # lengths 1..3 hold 4, 12 and 36 words; the witness comes before length 5's 324
    assert agreement_radius(marked, dinf, 20) == 2
    assert str(separating_word(marked, dinf, 20)) == "g2^3"
    with pytest.raises(BallCapExceeded):
        relation_ball(marked, 5)
    # D6 against itself reaches its 6 pairs within length 3 and the walk
    # ends, exhausted, before length 4's stratum of 108 is checked
    assert agreement_radius(marked, marked, 8) == 8
    assert separating_word(marked, marked, 8) is None
    # an infinite pair never exhausts, so length 4 is still refused
    dinf_image = parse_marked("Dinf:ref(1),rot(1)")
    with pytest.raises(BallCapExceeded, match="^radius-4 stratum"):
        agreement_radius(dinf, dinf_image, 8, method="enumerate")


def test_relation_ball_dinf_radius_12():
    ball = relation_ball(parse_marked("Dinf:a,b"), 12)
    assert len(ball.relations) == 90_937
    assert [str(w) for w in ball.relations[:2]] == ["1", "g1^2"]
    assert str(ball.relations[-1]) == "g2^-5*g1^-1*g2^-5*g1^-1"


def test_half_length_walk_adds_no_refusal(monkeypatch):
    # 324 words of length 5 over 2 generators; the half-length walk stops at 3
    monkeypatch.setenv("MGS_BALL_CAP", "324")
    dinf = parse_marked("Dinf:a,b")
    assert len(relation_ball(dinf, 5).relations) == len(oracle_ball(dinf, 5))
    message = "radius-6 stratum over 2 generators exceeds the cap of 324"
    with pytest.raises(BallCapExceeded, match=f"^{message}$"):
        relation_ball(dinf, 6)


@pytest.mark.parametrize("cap", ["0", "-1", "1e2"])
def test_bad_cap_values_are_refused(monkeypatch, cap):
    monkeypatch.setenv("MGS_BALL_CAP", cap)
    with pytest.raises(ValueError, match="positive integer"):
        enumerate_ball(2, 2)


def test_enumeration_route_keeps_one_word_per_pair_of_values():
    table = load_fixture("D24")
    marked = MarkedGroup(table, dihedral_pair(table, 12))
    dinf = parse_marked("Dinf:a,b")
    assert agreement_radius(marked, dinf, 12, method="enumerate") == 11
    assert str(separating_word(marked, dinf, 12, method="enumerate")) == "g2^12"
    # a finite marking against the trivial group has one state per element
    ops = _ops(marked)
    layers = walk_ball(2, 10, ops, trivial_ops(2), distinct=True)
    assert sum(map(len, layers)) == table.order - 1


# ---------------------------------------------------------------------------
# The pruned enumeration route on random markings

TABLES = ("D6", "D8", "D10", "D12", "D14", "D16", "D18", "D20", "D22", "D24", "Q8", "A4")


@functools.lru_cache(maxsize=None)
def seed_marking(name, arity):
    """A generating tuple of a fixture: (reflection, rotation) of a D2n,
    padded with the rotation to arity 3 (as Dinf:a,b,b is); the
    reflection and the two rotation axes of DihZ4xZ4; the first
    generating tuple in index order otherwise."""
    table = load_fixture(name)
    if name == "DihZ4xZ4":
        index = {label: i for i, label in enumerate(table.labels)}
        return table, tuple(index[x] for x in ("ref(0,0)", "rot(1,0)", "rot(0,1)"))
    if name.startswith("D"):
        pair = dihedral_pair(table, table.order // 2)
        return table, pair + pair[1:] * (arity - 2)
    tuples = product(range(table.order), repeat=arity)
    return table, next(t for t in tuples if len(table.closure(t)) == table.order)


def partner_texts(arity, k):
    """Dihedral and abelian markings (with torsion) of the given arity."""
    if arity == 2:
        return (
            "Dinf:a,b",
            f"Dih(Z/{k}):a,b",
            "Dinf:a,ref(1)",
            f"Z x Z/{k}:(1,0),(0,1)",
            f"Z/2 x Z/{2 * k}:(1,0),(0,1)",
        )
    return (
        "Dinf:a,b,b",
        f"Dih(Z/{k}):a,b,b",
        "Dih(Z^2):a,b,c",
        f"Dih(Z x Z/{k}):a,b,c",
        f"Dih(Z/{k} x Z/{k}):a,b,c",
        f"Z^2 x Z/{k}:(1,0,0),(0,1,0),(0,0,1)",
    )


moves = st.lists(
    st.tuples(
        st.sampled_from(("swap", "invert", "left", "right")),
        st.integers(0, 2),
        st.integers(0, 2),
        st.booleans(),
    ),
    max_size=5,
)


def mix(tup, steps, mul, inv):
    """`tup` under elementary moves, which keep it generating."""
    out = list(tup)
    for kind, i, j, invert in steps:
        i, j = i % len(out), j % len(out)
        if kind == "swap":
            out[i], out[j] = out[j], out[i]
        elif kind == "invert":
            out[i] = inv(out[i])
        elif i != j:
            y = inv(out[j]) if invert else out[j]
            out[i] = mul(out[i], y) if kind == "right" else mul(y, out[i])
    return tuple(out)


def mixed_table(name, arity, steps):
    table, gens = seed_marking(name, arity)
    return MarkedGroup(table, mix(gens, steps, lambda x, y: table.rows[x][y], table.inv))


def mixed_text(text, steps):
    marked = parse_marked(text)
    if hasattr(marked.generators[0], "inverse"):
        mul, inv = operator.mul, lambda x: x.inverse()
    else:
        mul, inv = operator.add, operator.neg
    return MarkedGroup(marked.group, mix(marked.generators, steps, mul, inv))


@st.composite
def comparisons(draw):
    """(a, b, r_max): a random generating tuple of a fixture table against
    another table, a dihedral or an abelian marking.  Half the time both
    sides take the same moves from matching seeds (a D2n's (reflection,
    rotation) and Dinf:a,b, say), so they agree on larger balls."""
    arity = draw(st.integers(2, 3))
    names = TABLES + (("DihZ4xZ4",) if arity == 3 else ())
    steps = draw(moves)
    a = mixed_table(draw(st.sampled_from(names)), arity, steps)
    other = steps if draw(st.booleans()) else draw(moves)
    if draw(st.booleans()):
        b = mixed_table(draw(st.sampled_from(names)), arity, other)
    else:
        k = draw(st.integers(2, 12))
        b = mixed_text(draw(st.sampled_from(partner_texts(arity, k))), other)
    if draw(st.booleans()):
        a, b = b, a
    return a, b, draw(st.sampled_from((5, 4, 3, 2, 1)))


@given(comparisons())
@settings(max_examples=150, deadline=None)
def test_pruned_enumeration_matches_the_full_walk_and_the_oracle(case):
    a, b, r_max = case
    expected = oracle_compare(a, b, r_max)
    assert unpruned_compare(a, b, r_max) == expected
    assert agreement_radius(a, b, r_max, method="enumerate") == expected[0]
    assert separating_word(a, b, r_max, method="enumerate") == expected[1]


# ---------------------------------------------------------------------------
# The pair walk stops once it is exhausted

FINITE_TABLES = ("D6", "D8", "D10", "D12", "D14", "D16")


def stop_length(a, b):
    """The length of the first mismatch of the pair walk, else the length
    of its first empty layer; BallCapExceeded when the cap comes first."""
    ops_a, ops_b = _ops(a), _ops(b)
    layers = walk_ball(a.arity, 10**9, ops_a, ops_b, distinct=True)
    for length, layer in enumerate(layers, start=1):
        if not layer or any((ya == ops_a[0]) != (yb == ops_b[0]) for _, ya, yb in layer):
            return length


@st.composite
def finite_comparisons(draw):
    """Two random generating tuples of finite fixture tables of one arity;
    half the time both take the same moves from matching seeds, so that
    they are often one marked group."""
    arity = draw(st.integers(2, 3))
    names = FINITE_TABLES + (("DihZ4xZ4",) if arity == 3 else ())
    steps = draw(moves)
    a = mixed_table(draw(st.sampled_from(names)), arity, steps)
    other = steps if draw(st.booleans()) else draw(moves)
    b = mixed_table(draw(st.sampled_from(names)), arity, other)
    return a, b


@given(finite_comparisons())
@example((mixed_table("D24", 2, []), mixed_table("D24", 2, [])))
@example((mixed_table("DihZ4xZ4", 3, []), mixed_table("DihZ4xZ4", 3, [("swap", 1, 2, False)])))
@settings(max_examples=100, deadline=None)
def test_exhausted_walk_answers_far_past_its_end(pair):
    a, b = pair
    small = 4 if a.arity == 2 else 3
    assert _compare(a, b, small, "enumerate") == oracle_compare(a, b, small)
    try:
        length = stop_length(a, b)
    except BallCapExceeded:
        # neither a mismatch nor exhaustion below the cap (two reflections
        # whose product has order 7 against order 8, say): still refused
        with pytest.raises(BallCapExceeded):
            _compare(a, b, 50, "enumerate")
        return
    radius, witness = _compare(a, b, length, "enumerate")
    assert witness is None or radius == length - 1
    for r_max in (50, 10**9):
        far = _compare(a, b, r_max, "enumerate")
        assert far == ((r_max, None) if witness is None else (radius, witness))


# ---------------------------------------------------------------------------
# Relation balls by meet in the middle on random markings


def full_walk_ball(marked, radius):
    """The relations among all reduced words, by the walk that keeps every word."""
    m = marked.arity
    ops = _ops(marked)
    layers = walk_ball(m, radius, ops, trivial_ops(m))
    return [Word((), m)] + [
        Word(w, m) for layer in layers for w, x, _ in layer if x == ops[0]
    ]


def ball_texts(arity, k):
    """Dihedral and abelian markings (with torsion) of the given arity."""
    if arity == 1:
        return ("Z:(1)", f"Z/{k}:(1)", f"Z/{k}:(-1)", f"Z/{2 * k + 1}:(2)")
    return partner_texts(arity, k)


@st.composite
def ball_cases(draw):
    """(marking, radius): a random generating tuple of a fixture table, or
    of a dihedral or abelian marking, at arity 1 to 3 and radius 0 to 6
    (to 4 at arity 3, where the oracle lists 5^5 times more words)."""
    arity = draw(st.integers(1, 3))
    steps = draw(moves)
    if arity > 1 and draw(st.booleans()):
        names = TABLES + (("DihZ4xZ4",) if arity == 3 else ())
        marked = mixed_table(draw(st.sampled_from(names)), arity, steps)
    else:
        k = draw(st.integers(2, 12))
        marked = mixed_text(draw(st.sampled_from(ball_texts(arity, k))), steps)
    return marked, draw(st.sampled_from(range(7 if arity < 3 else 5)))


@given(ball_cases())
@example((parse_marked("Dinf:a,b"), 0))
@example((parse_marked("Dinf:a,b"), 5))
@example((parse_marked("Dih(Z/3):a,b"), 6))
@example((parse_marked("Dih(Z^2):a,b,c"), 4))
@settings(max_examples=200, deadline=None)
def test_relation_ball_matches_the_full_walk_and_the_oracle(case):
    marked, radius = case
    expected = oracle_ball(marked, radius)
    assert full_walk_ball(marked, radius) == expected
    assert list(relation_ball(marked, radius).relations) == expected
