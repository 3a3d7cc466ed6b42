import pytest
from hypothesis import given
from hypothesis import strategies as st

from mgs.abelian import AbelianGroup
from mgs.dihedral import GenDihedralGroup
from mgs.words import (
    BallCapExceeded,
    NielsenMove,
    Word,
    ball_size,
    check_cap,
    enumerate_ball,
    free_reduce,
    nielsen_apply,
    stratum_size,
)

from helpers import closure_of_elements

letters2 = st.lists(
    st.sampled_from([1, -1, 2, -2]), max_size=30
)


def test_free_reduce_examples():
    assert free_reduce([1, -1], 2).letters == ()
    assert free_reduce([1, 2, -2, 1], 2).letters == (1, 1)
    assert free_reduce([2, -1, 1, 2, 2], 2).letters == (2, 2, 2)


def test_free_reduce_rejects_bad_letters():
    with pytest.raises(ValueError):
        free_reduce([3], 2)
    with pytest.raises(ValueError):
        free_reduce([0], 2)
    with pytest.raises(ValueError):
        Word((1, -1), 2)


@given(letters2)
def test_free_reduce_idempotent(raw):
    w = free_reduce(raw, 2)
    assert free_reduce(w.letters, 2) == w
    assert len(w) <= len(raw)


@given(letters2)
def test_word_times_inverse_is_trivial(raw):
    w = free_reduce(raw, 2)
    assert (w * w.inverse()).is_identity()
    assert (w.inverse() * w).is_identity()


@given(letters2, letters2)
def test_concatenation_matches_reduction(raw1, raw2):
    u = free_reduce(raw1, 2)
    v = free_reduce(raw2, 2)
    assert u * v == free_reduce(raw1 + raw2, 2)


def test_ball_m1_r2():
    ball = enumerate_ball(1, 2)
    assert [w.letters for w in ball] == [(), (1,), (-1,), (1, 1), (-1, -1)]


def test_ball_m2_r1():
    ball = enumerate_ball(2, 1)
    assert [w.letters for w in ball] == [(), (1,), (-1,), (2,), (-2,)]


def test_ball_m2_r3_size():
    ball = enumerate_ball(2, 3)
    assert len(ball) == 53 == 1 + 4 + 12 + 36 == ball_size(2, 3)


def test_ball_sorted_and_unique():
    ball = enumerate_ball(2, 4)
    assert sorted(ball) == ball
    assert len(set(ball)) == len(ball)


def test_ball_nesting_and_inversion_closure():
    small = set(enumerate_ball(2, 3))
    large = set(enumerate_ball(2, 4))
    assert small <= large
    assert all(w.inverse() in large for w in large)
    assert Word((), 2) in small


def test_ball_cap(monkeypatch):
    monkeypatch.setenv("MGS_BALL_CAP", "1000")
    with pytest.raises(BallCapExceeded):
        enumerate_ball(3, 12)
    # the cap measures the final stratum, per contract
    monkeypatch.setenv("MGS_BALL_CAP", "10")
    enumerate_ball(1, 400)


def test_check_cap_refuses_a_huge_length_without_building_the_stratum(monkeypatch):
    monkeypatch.delenv("MGS_BALL_CAP", raising=False)
    message = r"^radius-1000000000 stratum over 2 generators exceeds the cap of 2000000$"
    with pytest.raises(BallCapExceeded, match=message):
        check_cap(2, 10**9)
    check_cap(1, 10**9)  # every stratum over one generator holds 2 words


def test_check_cap_boundary(monkeypatch):
    # arity 2 at length 3: 4 * 3 * 3 = 36 words
    monkeypatch.setenv("MGS_BALL_CAP", "36")
    check_cap(2, 3)
    monkeypatch.setenv("MGS_BALL_CAP", "35")
    message = r"^radius-3 stratum over 2 generators exceeds the cap of 35$"
    with pytest.raises(BallCapExceeded, match=message):
        check_cap(2, 3)


@pytest.mark.parametrize("cap", [1, 2, 5, 36, 1000])
def test_check_cap_matches_the_stratum_size(monkeypatch, cap):
    monkeypatch.setenv("MGS_BALL_CAP", str(cap))
    for arity in range(5):
        for length in range(10):
            refused = stratum_size(arity, length) > cap
            try:
                check_cap(arity, length)
            except BallCapExceeded:
                assert refused
            else:
                assert not refused


def test_ball_cap_env_override(monkeypatch):
    monkeypatch.setenv("MGS_BALL_CAP", "10")
    with pytest.raises(BallCapExceeded):
        enumerate_ball(2, 3)
    monkeypatch.setenv("MGS_BALL_CAP", "1000000")
    assert len(enumerate_ball(2, 3)) == 53


def test_nielsen_multiply_in_infinite_dihedral():
    g = GenDihedralGroup(AbelianGroup(1))
    b = g.rotation([1])
    a = g.reflection([0])
    out = nielsen_apply((b, a), NielsenMove.multiply(1, 2, "right", 1))
    assert out == (g.element(g.base.element((1,)), 1), a)


def test_nielsen_swap_and_invert():
    g = GenDihedralGroup(AbelianGroup(1))
    b, a = g.rotation([1]), g.reflection([0])
    assert nielsen_apply((b, a), NielsenMove.swap(1, 2)) == (a, b)
    once = nielsen_apply((b, a), NielsenMove.invert(1))
    assert nielsen_apply(once, NielsenMove.invert(1)) == (b, a)


def test_nielsen_moves_on_an_abelian_tuple_add():
    g = AbelianGroup(1, (4,))
    tup = (g.element((1,), (0,)), g.element((0,), (1,)))
    moved = nielsen_apply(tup, NielsenMove.multiply(1, 2, "left", -1))
    assert [str(x) for x in moved] == ["(1;3)", "(0;1)"]
    assert [str(x) for x in nielsen_apply(tup, NielsenMove.invert(2))] == ["(1;0)", "(0;3)"]


def test_nielsen_moves_invert():
    w1 = free_reduce([1, 2], 2)
    w2 = free_reduce([2, -1], 2)
    tup = (w1, w2)
    for move in [
        NielsenMove.swap(1, 2),
        NielsenMove.invert(2),
        NielsenMove.multiply(1, 2, "left", -1),
        NielsenMove.multiply(2, 1, "right", 1),
    ]:
        assert nielsen_apply(nielsen_apply(tup, move), move.inverse()) == tup


def test_nielsen_moves_preserve_generated_subgroup():
    # exhaustive closure check in a finite dihedral group
    g = GenDihedralGroup(AbelianGroup(0, (6,)))
    tup = (g.reflection([0]), g.rotation([1]), g.rotation([2]))
    reference = closure_of_elements(g.identity(), tup)
    moves = [
        NielsenMove.swap(1, 3),
        NielsenMove.invert(2),
        NielsenMove.multiply(1, 2, "right", 1),
        NielsenMove.multiply(3, 1, "left", -1),
        NielsenMove.multiply(2, 3, "right", -1),
    ]
    current = tup
    for move in moves:
        current = nielsen_apply(current, move)
        assert closure_of_elements(g.identity(), current) == reference


def test_nielsen_validation():
    with pytest.raises(ValueError):
        NielsenMove.swap(1, 1)
    with pytest.raises(ValueError):
        NielsenMove.multiply(1, 2, "middle", 1)
    with pytest.raises(ValueError):
        nielsen_apply((Word((), 1),), NielsenMove.invert(2))


def test_word_str_and_power():
    w = free_reduce([1, 2, 2, -1], 2)
    assert str(w) == "g1*g2^2*g1^-1"
    assert str(Word((), 2)) == "1"
    assert (w**2).letters == (1, 2, 2, 2, 2, -1)
    assert w**-1 == w.inverse()


def test_exponent_vector():
    w = free_reduce([1, 2, -1, 2, 2], 2)
    assert w.exponent_vector() == (0, 3)
