import gc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgs.abelian import AbelianGroup
from mgs.dihedral import GenDihedralGroup, materialize_table
from mgs.dsl import parse_sentence, print_sentence
from mgs.logic import (
    And,
    Atom,
    BudgetExceeded,
    Implies,
    Not,
    Or,
    UniversalSentence,
    builtin_sentence,
    evaluate_body,
    holds_in,
    squared_sentence,
)
from mgs.tables import load_fixture
from mgs.words import Word, free_reduce

from helpers import abelian_groups_up_to


def dihedral_table(n):
    return materialize_table(GenDihedralGroup(AbelianGroup(0, (n,))))


def test_builtin_p1_structure():
    one = Word((), 2)
    expected = UniversalSentence(
        2,
        Implies(
            And(
                (
                    Atom(free_reduce([1, 1], 2), one, False),
                    Atom(free_reduce([2, 2], 2), one, False),
                )
            ),
            Atom(free_reduce([1, 2], 2), free_reduce([2, 1], 2), True),
        ),
    )
    assert builtin_sentence("P1") == expected
    assert builtin_sentence("@p4") == builtin_sentence("P4")
    with pytest.raises(ValueError):
        builtin_sentence("P9")


def test_variable_bound_validation():
    with pytest.raises(ValueError):
        UniversalSentence(1, Atom(free_reduce([2], 2), Word((), 2), True))


def test_p_sentences_hold_in_dihedral_groups():
    for n in range(3, 9):
        t = dihedral_table(n)
        for name in ("P1", "P2", "P3", "P4"):
            assert holds_in(t, builtin_sentence(name), budget=10**8).holds


def test_p1_fails_in_a4_with_two_noncommuting_three_cycles():
    a4 = load_fixture("A4")
    out = holds_in(a4, builtin_sentence("P1"))
    assert not out.holds
    x, y = out.counterexample
    assert a4.element_order(x) == 3 and a4.element_order(y) == 3
    assert a4.mul(x, y) != a4.mul(y, x)
    assert evaluate_body(a4, builtin_sentence("P1").body, out.counterexample) is False


def test_p4_fails_in_dih_z4_z4():
    t = materialize_table(GenDihedralGroup(AbelianGroup(0, (4, 4))))
    out = holds_in(t, builtin_sentence("P4"), budget=10**8)
    assert not out.holds
    assert evaluate_body(t, builtin_sentence("P4").body, out.counterexample) is False
    x, y = out.counterexample[:2]
    # two distinct central involutions witness the failure
    assert x != y
    assert t.element_order(x) == 2 and t.element_order(y) == 2


def test_p1_to_p3_hold_in_generalized_dihedral():
    t = materialize_table(GenDihedralGroup(AbelianGroup(0, (4, 4))))
    for name in ("P1", "P2", "P3"):
        assert holds_in(t, builtin_sentence(name), budget=10**8).holds


def test_counterexample_is_lexicographically_first():
    # forall x : x = 1 fails at the first non-identity element
    s = UniversalSentence(1, Atom(free_reduce([1], 1), Word((), 1), True))
    t = materialize_table(AbelianGroup(0, (5,)))
    out = holds_in(t, s)
    assert out.counterexample == (1,)


def test_budget():
    t = dihedral_table(6)
    with pytest.raises(BudgetExceeded):
        holds_in(t, builtin_sentence("P3"), budget=1000)


def test_variable_count_is_bounded_before_the_search():
    trivial = materialize_table(AbelianGroup(0, ()))

    def first_equals_last(k):
        return UniversalSentence(k, Atom(free_reduce([1], k), free_reduce([k], k), True))

    assert holds_in(trivial, first_equals_last(500)).holds
    message = "501 variables exceed the sentence check bound of 500"
    with pytest.raises(ValueError, match=f"^{message}$"):
        holds_in(trivial, first_equals_last(501))


def test_squared_commutativity_in_d16():
    commute = UniversalSentence(
        2, Atom(free_reduce([1, 2], 2), free_reduce([2, 1], 2), True)
    )
    sq = squared_sentence(commute)
    d16 = dihedral_table(8)
    assert not holds_in(d16, commute).holds
    assert holds_in(d16, sq).holds


def test_squared_sentence_squares_through_every_connective():
    sq = squared_sentence(builtin_sentence("P1"))
    assert print_sentence(sq) == "forall x y : x^4 != 1 & y^4 != 1 -> x^2*y^2 = y^2*x^2"
    assert holds_in(dihedral_table(4), sq).holds
    sq = squared_sentence(parse_sentence("forall x y : !x = 1 | x*y = y*x"))
    assert sq == parse_sentence("forall x y : !x^2 = 1 | x^2*y^2 = y^2*x^2")


def test_squared_tautology_is_tautology():
    taut = UniversalSentence(
        1, Atom(free_reduce([1], 1), free_reduce([1], 1), True)
    )
    sq = squared_sentence(taut)
    for t in (dihedral_table(5), materialize_table(AbelianGroup(0, (7,)))):
        assert holds_in(t, sq).holds


def test_squared_x_equals_one():
    s = UniversalSentence(1, Atom(free_reduce([1], 1), Word((), 1), True))
    sq = squared_sentence(s)
    assert sq.body.left.letters == (1, 1)
    klein = materialize_table(AbelianGroup(0, (2, 2)))
    z3 = materialize_table(AbelianGroup(0, (3,)))
    assert holds_in(klein, sq).holds
    out = holds_in(z3, sq)
    assert not out.holds and out.counterexample == (1,)


def test_squared_reduces_terms():
    # x * y^-1 squares to x^2 * y^-2 with reduction applied across letters
    s = UniversalSentence(2, Atom(free_reduce([1, -2], 2), Word((), 2), True))
    sq = squared_sentence(s)
    assert sq.body.left.letters == (1, 1, -2, -2)


def test_universal_sentences_pass_to_subgroups():
    t = dihedral_table(6)
    rotations = [i for i in range(12) if t.labels[i].startswith("rot")]
    sub, _ = t.subgroup_table(rotations)
    for name in ("P1", "P2", "P3", "P4"):
        s = builtin_sentence(name)
        if holds_in(t, s).holds:
            assert holds_in(sub, s).holds


def test_p_sentences_hold_in_all_small_dihedral():
    for base in abelian_groups_up_to(8):
        t = materialize_table(GenDihedralGroup(base))
        for name in ("P1", "P2", "P3"):
            assert holds_in(t, builtin_sentence(name), budget=10**8).holds


# ---------------------------------------------------------------------------
# The compiled search against a plain product evaluator


TABLES = {
    **{name: load_fixture(name) for name in ("D6", "D8", "Q8", "A4")},
    **{f"Z/{n}": materialize_table(AbelianGroup(0, (n,) if n > 1 else ())) for n in (1, 2, 5, 6)},
}


def oracle_check(table, sentence):
    """The first failing tuple in itertools.product order, or None."""

    def value(word, xs):
        v = 0
        for ell in word.letters:
            g = xs[abs(ell) - 1]
            v = table.mul(v, g if ell > 0 else table.inv(g))
        return v

    def truth(f, xs):
        if isinstance(f, Atom):
            return (value(f.left, xs) == value(f.right, xs)) == f.positive
        if isinstance(f, Not):
            return not truth(f.child, xs)
        if isinstance(f, And):
            return all(truth(c, xs) for c in f.children)
        if isinstance(f, Or):
            return any(truth(c, xs) for c in f.children)
        return not truth(f.hypothesis, xs) or truth(f.conclusion, xs)

    for xs in product(range(table.order), repeat=sentence.variables):
        if not truth(sentence.body, xs):
            return xs
    return None


@st.composite
def checks(draw):
    """A fixture table and a random sentence with up to 4 variables.

    Each atom draws its letters from x_1..x_top for a random top, so many
    variables occur only in atoms bound early, the case where sibling
    values with equal atoms share one subtree.
    """
    name = draw(st.sampled_from(sorted(TABLES)))
    table = TABLES[name]
    k = draw(st.integers(0, 4 if table.order <= 8 else 3))

    def term(top):
        if not top:
            return Word((), k)
        letter = st.integers(-top, top).filter(bool)
        return free_reduce(draw(st.lists(letter, max_size=4)), k)

    def formula(depth):
        kinds = ("atom", "not", "and", "or", "implies") if depth < 3 else ("atom",)
        kind = draw(st.sampled_from(kinds))
        if kind == "atom":
            top = draw(st.integers(0, k))
            return Atom(term(top), term(top), draw(st.booleans()))
        if kind == "not":
            return Not(formula(depth + 1))
        if kind == "implies":
            return Implies(formula(depth + 1), formula(depth + 1))
        children = tuple(formula(depth + 1) for _ in range(draw(st.integers(0, 3))))
        return And(children) if kind == "and" else Or(children)

    return name, UniversalSentence(k, formula(0))


@given(checks())
@settings(max_examples=400, deadline=None)
def test_holds_in_matches_the_product_oracle(check):
    name, sentence = check
    table = TABLES[name]
    want = oracle_check(table, sentence)
    out = holds_in(table, sentence)
    assert out.holds == (want is None)
    assert out.counterexample == want
    if want is not None:
        assert evaluate_body(table, sentence.body, want) is False


def test_builtin_sentences_match_the_product_oracle():
    for name, table in TABLES.items():
        for p in ("P1", "P2", "P3", "P4"):
            sentence = builtin_sentence(p)
            if table.order**sentence.variables <= 40_000:
                out = holds_in(table, sentence)
                assert out.counterexample == oracle_check(table, sentence), (name, p)


def test_evaluate_body_needs_every_variable():
    body = builtin_sentence("P2").body
    with pytest.raises(ValueError, match="does not bind every variable"):
        evaluate_body(TABLES["D6"], body, (0, 1))


def test_holds_in_leaves_no_reference_cycles():
    d12, a4 = dihedral_table(6), TABLES["A4"]
    p1, p3 = builtin_sentence("P1"), builtin_sentence("P3")
    d12.inverses, a4.inverses  # cached before the count starts
    gc.collect()
    gc.disable()
    try:
        assert holds_in(d12, p3, budget=10**8).holds
        assert not holds_in(a4, p1).holds
        assert gc.collect() == 0
    finally:
        gc.enable()
