import random

import pytest

from mgs.abelian import AbelianGroup
from mgs.dihedral import GenDihedralGroup
from mgs.dsl import (
    ParseError,
    parse_element,
    parse_elements,
    parse_group,
    parse_marked,
    parse_sentence,
    parse_word,
    print_sentence,
)
from mgs.logic import And, Atom, Implies, Not, Or, UniversalSentence, builtin_sentence
from mgs.topology import MarkedGroup, relation_ball
from mgs.words import Word, free_reduce


def test_parse_group_examples():
    g = parse_group("Dih(Z^2 x Z/6)")
    assert isinstance(g, GenDihedralGroup)
    assert g.base == AbelianGroup(2, (6,))
    assert parse_group("Z") == AbelianGroup(1)
    assert parse_group("Z^3") == AbelianGroup(3)
    assert parse_group("Z/4 x Z/2") == AbelianGroup(0, (2, 4))
    assert parse_group("Z/1") == AbelianGroup(0, ())
    assert parse_group("D12") == GenDihedralGroup(AbelianGroup(0, (6,)))
    assert parse_group("D2") == GenDihedralGroup(AbelianGroup(0, ()))
    assert parse_group("Dinf") == GenDihedralGroup(AbelianGroup(1))
    assert parse_group("Z/2 x Z/3") == AbelianGroup(0, (6,))


def test_parse_group_errors():
    with pytest.raises(ParseError):
        parse_group("D13")
    with pytest.raises(ParseError):
        parse_group("Dih(Z")
    with pytest.raises(ParseError):
        parse_group("Q8")
    with pytest.raises(ParseError):
        parse_group("Dih(Z) x Z")
    with pytest.raises(ParseError):
        parse_group("Z x")
    for text in ("Dih(Dih(Z))", "Dih(" * 400 + "Z" + ")" * 400, "Dih(D6)"):
        with pytest.raises(ParseError, match="must be abelian") as exc:
            parse_group(text)
        assert exc.value.column == 5
    with pytest.raises(ParseError, match="cannot be factors") as exc:
        parse_group("Z x Dih(Z x Dih(Z))")
    assert exc.value.column == 5


def test_parse_error_position():
    try:
        parse_group("Z/")
    except ParseError as exc:
        assert exc.line == 1
        assert exc.column == 3
    else:
        raise AssertionError("expected a parse error")


def test_parse_marked_examples():
    m = parse_marked("D12:a,b")
    d12 = GenDihedralGroup(AbelianGroup(0, (6,)))
    assert m == MarkedGroup(d12, (d12.reflection([0]), d12.rotation([1])))
    m2 = parse_marked("Z^2:(1,0),(0,1)")
    z2 = AbelianGroup(2)
    assert m2 == MarkedGroup(z2, (z2.element((1, 0)), z2.element((0, 1))))
    m3 = parse_marked("Dinf:ref(0),rot(1)")
    dinf = GenDihedralGroup(AbelianGroup(1))
    assert m3 == MarkedGroup(dinf, (dinf.reflection([0]), dinf.rotation([1])))
    m4 = parse_marked("Dinf:b,a")
    assert m4.generators == (dinf.rotation([1]), dinf.reflection([0]))


def test_parse_element_with_semicolon():
    g = parse_group("Dih(Z^2 x Z/6)")
    e = parse_element("rot(3,-1;2)", g)
    assert e == g.rotation(g.base.element((3, -1), (2,)))
    e2 = parse_element("ref(0;1)", GenDihedralGroup(AbelianGroup(1, (2,))))
    assert e2.eps == 1
    # positional split without the semicolon
    e3 = parse_element("rot(3,-1,2)", g)
    assert e3 == e


def test_parse_element_zero_shorthand():
    g = parse_group("Dih(Z^2)")
    assert parse_element("ref(0)", g) == g.reflection([0, 0])
    d2 = parse_group("D2")
    assert parse_element("ref(0)", d2) == d2.reflection(d2.base.identity())


def test_empty_literals_are_the_zero_element():
    marked = parse_marked("D2:ref(),rot()")
    assert str(marked) == "Dih(Z/1):ref(0),rot(0)"
    assert relation_ball(marked, 2).to_json()["count"] == 7


def test_parse_elements_list():
    z2 = AbelianGroup(2)
    elems = parse_elements("(1,0),(0,1)", z2)
    assert elems == (z2.element((1, 0)), z2.element((0, 1)))


def test_parse_element_errors():
    g = parse_group("D12")
    with pytest.raises(ValueError):
        parse_element("(1)", g)  # needs rot/ref tag
    with pytest.raises(ValueError):
        parse_element("rot(1)", AbelianGroup(1))
    with pytest.raises(ValueError):
        parse_element("rot(1,2,3)", g)


def test_parse_word_examples():
    w = parse_word("a b^3 a^-1")
    assert w == free_reduce([1, 2, 2, 2, -1], 2)
    assert parse_word("g1*g2^-2") == free_reduce([1, -2, -2], 2)
    assert parse_word("ab^2") == free_reduce([1, 2, 2], 2)
    assert parse_word("1", arity=2) == Word((), 2)
    assert parse_word("g2", arity=5).arity == 5
    with pytest.raises(ParseError):
        parse_word("g3", arity=2)


@pytest.mark.parametrize(
    "powered, written_out",
    [
        ("(xy)^2", "xyxy"),
        ("(xy)^-2", "y^-1 x^-1 y^-1 x^-1"),
        ("(xy)^0", "1"),
        ("(xy)", "xy"),
        ("x(yx^-1)^3", "x y x^-1 y x^-1 y x^-1"),
        ("((xy)^2 y^-1)^2", "xyx xyx"),
        ("((xy)^-1 x)^-3", "y y y"),
        ("(x(y^2)^-1)^2", "x y^-2 x y^-2"),
        ("(1)^5 x", "x"),
    ],
)
def test_parenthesized_term_powers_expand(powered, written_out):
    left = parse_sentence(f"forall x y : {powered} = 1").body.left
    assert left == parse_sentence(f"forall x y : {written_out} = 1").body.left


def test_parenthesized_powers_are_term_only():
    with pytest.raises(ParseError, match="expected a word"):
        parse_word("(ab)^2")


def test_counts_over_the_word_cap_are_parse_errors(monkeypatch):
    monkeypatch.setenv("MGS_BALL_CAP", "10")
    assert parse_word("a^10") == free_reduce([1] * 10, 1)
    with pytest.raises(ParseError) as exc:
        parse_word("b a^11")
    assert (exc.value.line, exc.value.column) == (1, 5)
    with pytest.raises(ParseError):
        parse_word("a^-11")
    left = parse_sentence("forall x y : (xy)^5 = 1").body.left
    assert len(left.letters) == 10
    empty = parse_sentence("forall x : (x x^-1)^1000000000000 x = 1").body.left
    assert empty == free_reduce([1], 1)
    with pytest.raises(ParseError) as exc:
        parse_sentence("forall x y : (xy)^6 = 1")
    assert exc.value.column == 19
    with pytest.raises(ParseError):
        parse_sentence("forall x : ((x^2)^3)^2 = 1")
    assert parse_group("Z^10") == AbelianGroup(10)
    with pytest.raises(ParseError) as exc:
        parse_group("Z^11")
    assert exc.value.column == 3


def test_running_length_over_the_word_cap_is_a_parse_error(monkeypatch):
    monkeypatch.setenv("MGS_BALL_CAP", "10")
    assert len(parse_word("a^5 b^5")) == 10
    assert len(parse_word("b a^9")) == 10
    with pytest.raises(ParseError) as exc:
        parse_word("a^10 a^10 a^10")
    assert exc.value.column == 8
    with pytest.raises(ParseError) as exc:
        parse_word("a^5 b^6")
    assert exc.value.column == 7
    assert len(parse_sentence("forall x y : x^4 (xy)^3 = 1").body.left) == 10
    with pytest.raises(ParseError) as exc:
        parse_sentence("forall x y : x^5 (xy)^3 = 1")
    assert exc.value.column == 23
    # the letters before a parenthesized term count inside it too
    with pytest.raises(ParseError) as exc:
        parse_sentence("forall x : x^5 (x^3 x^3) = 1")
    assert exc.value.column == 23


@pytest.mark.parametrize(
    "parse, text, position",
    [
        (parse_sentence, "forall x : x*q = 1", (1, 14)),
        (parse_word, "g1*G2", (1, 4)),
        (parse_word, "g0", (1, 1)),
        (parse_sentence, "forall x y :\n  x*y = y*x &\n  x*q = 1", (3, 5)),
        (parse_sentence, "forall x :\n  x = 1 $", (2, 9)),
        (parse_group, "Z x\r\nZ/", (2, 3)),
    ],
    ids=["variable", "generator", "zero-index", "third-line", "character-line-2", "crlf"],
)
def test_unknown_names_are_reported_at_the_name(parse, text, position):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == position


def nested(depth, open_, inner, close):
    return open_ * depth + inner + close * depth


@pytest.mark.parametrize(
    "text, column",
    [
        (lambda d: "forall x : " + nested(d, "(", "x", ")") + " = 1", 112),
        (lambda d: "forall x : x = " + nested(d, "(", "x", ")"), 116),
        (lambda d: "forall x : " + nested(d, "(", "x = 1", ")"), 112),
        (lambda d: "forall x : " + nested(d, "!", "x = 1", ""), 112),
        (lambda d: "forall x : " + " -> ".join(["x = 1"] * (d + 1)), 918),
    ],
    ids=["term-in-formula", "term", "formula", "negation", "implication"],
)
def test_nesting_deeper_than_the_bound_is_a_parse_error(text, column):
    parse_sentence(text(100))
    for depth in (101, 400):
        with pytest.raises(ParseError, match="nested deeper than 100 levels") as exc:
            parse_sentence(text(depth))
        assert (exc.value.line, exc.value.column) == (1, column)


def test_parse_sentence_matches_builtin():
    s = parse_sentence("forall x y : (x^2 != 1 & y^2 != 1) -> x*y = y*x")
    assert s == builtin_sentence("P1")
    assert parse_sentence("@P1") == builtin_sentence("P1")
    assert parse_sentence("@P3") == builtin_sentence("P3")


def test_parse_sentence_shapes():
    s = parse_sentence("forall x : x = 1 | x^2 != 1")
    assert isinstance(s.body, Or)
    s2 = parse_sentence("forall x y : !(x = y)")
    assert isinstance(s2.body, Not)
    s3 = parse_sentence("forall x y : (x*y)^2 = 1 -> x = y")
    assert s3.body.hypothesis.left.letters == (1, 2, 1, 2)
    s4 = parse_sentence("forall x y : xy = yx")
    assert s4.body == Atom(free_reduce([1, 2], 2), free_reduce([2, 1], 2), True)


def test_parse_sentence_errors():
    with pytest.raises(ParseError):
        parse_sentence("forall : x = 1")
    with pytest.raises(ParseError):
        parse_sentence("forall x x : x = 1")
    with pytest.raises(ParseError):
        parse_sentence("forall x : y = 1")
    with pytest.raises(ParseError):
        parse_sentence("@P7")


def test_print_round_trips():
    for name in ("P1", "P2", "P3", "P4"):
        s = builtin_sentence(name)
        assert parse_sentence(print_sentence(s)) == s
    for text in ("Z", "Z^2 x Z/6", "Dih(Z/4)", "Dih(Z^2 x Z/3)", "Z/1"):
        g = parse_group(text)
        assert parse_group(str(g)) == g
    for text in ("D12:a,b", "Z^2:(1,0),(0,1)", "Dinf:rot(1),ref(0)"):
        m = parse_marked(text)
        assert parse_marked(str(m)) == m


def test_print_round_trips_random_words():
    rng = random.Random(4)
    for _ in range(100):
        raw = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 12))]
        w = free_reduce(raw, 3)
        assert parse_word(str(w), arity=3) == w


def random_formula(rng, depth=3):
    k = 3
    if depth == 0 or rng.random() < 0.4:
        raw = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 4))]
        left = free_reduce(raw, k)
        right = (
            Word((), k)
            if rng.random() < 0.5
            else free_reduce([rng.choice([1, 2, 3])], k)
        )
        return Atom(left, right, rng.random() < 0.5)
    kind = rng.choice(["and", "or", "not", "implies"])
    if kind == "and":
        return And(tuple(random_formula(rng, depth - 1) for _ in range(rng.randint(2, 3))))
    if kind == "or":
        return Or(tuple(random_formula(rng, depth - 1) for _ in range(rng.randint(2, 3))))
    if kind == "not":
        return Not(random_formula(rng, depth - 1))
    return Implies(random_formula(rng, depth - 1), random_formula(rng, depth - 1))


def test_print_round_trips_random_sentences():
    rng = random.Random(12)
    for _ in range(120):
        s = UniversalSentence(3, random_formula(rng))
        assert parse_sentence(print_sentence(s)) == s


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_marked, "Z:a", "aliases a, b, c, ... are defined for dihedral groups only"),
        (parse_marked, "Dinf:ab", "unknown element alias 'ab'"),
        (parse_marked, "Dinf:a,c", "alias 'c' needs base coordinate 2, but the base has rank 1"),
        (parse_marked, "D6:1", "expected an element literal (line 1, column 4)"),
        (parse_group, "Z junk", "unexpected trailing input 'junk' (line 1, column 3)"),
        (parse_sentence, "@", "expected a built-in sentence name after '@' (line 1, column 2)"),
        (parse_sentence, "x = 1", "a sentence starts with 'forall' or '@' (line 1, column 1)"),
    ],
)
def test_error_messages_are_pinned(parse, text, message):
    with pytest.raises(ValueError) as refused:
        parse(text)
    assert str(refused.value) == message


def test_six_variables_print_as_numbered_names():
    s = parse_sentence("forall a b c d e f : a*b*c = d*e*f")
    assert print_sentence(s) == "forall x1 x2 x3 x4 x5 x6 : x1*x2*x3 = x4*x5*x6"
    assert parse_sentence(print_sentence(s)) == s
