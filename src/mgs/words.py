"""Freely reduced words over a finite free-group basis.

A letter is a nonzero integer: ``+i`` stands for the i-th basis
generator, ``-i`` for its inverse (1-based, ``abs(letter) <= arity``).
Words are kept freely reduced at all times; the empty word is the
identity.  Word balls are listed in a fixed order (length first, then
letterwise by generator index with the positive letter before its
inverse) so that enumerations are reproducible.
"""

from __future__ import annotations

import functools
import operator
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

DEFAULT_BALL_CAP = 2_000_000
BALL_CAP_ENV = "MGS_BALL_CAP"


class BallCapExceeded(ValueError):
    """A requested enumeration would exceed the configured word cap."""


def active_ball_cap() -> int:
    """The word cap: MGS_BALL_CAP, a positive integer, if set, else the default."""
    raw = os.environ.get(BALL_CAP_ENV)
    if not raw:
        return DEFAULT_BALL_CAP
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"{BALL_CAP_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


def check_cap(arity: int, length: int) -> None:
    """Refuse a layer of reduced words of the given length above the cap.

    The stratum 2m(2m-1)^(L-1) is multiplied out only until it passes
    the cap, so a huge length never builds a huge integer.
    """
    cap = active_ball_cap()
    size = stratum_size(arity, min(length, 1))
    for _ in range(length - 1 if arity > 1 else 0):
        if size > cap:
            break
        size *= 2 * arity - 1
    if size > cap:
        raise BallCapExceeded(
            f"radius-{length} stratum over {arity} generators exceeds the cap of {cap}"
        )


def _letter_key(letter: int) -> tuple[int, int]:
    return (abs(letter), 0 if letter > 0 else 1)


def _check_letters(letters: Iterable[int], arity: int) -> None:
    for ell in letters:
        if not isinstance(ell, int) or ell == 0 or abs(ell) > arity:
            raise ValueError(f"letter {ell!r} out of range for arity {arity}")


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for ell in letters:
        if out and out[-1] == -ell:
            out.pop()
        else:
            out.append(ell)
    return tuple(out)


@functools.total_ordering
@dataclass(frozen=True)
class Word:
    """A freely reduced word; orders by (length, letterwise index/sign)."""

    letters: tuple[int, ...]
    arity: int

    def __post_init__(self):
        if self.arity < 0:
            raise ValueError("arity must be nonnegative")
        _check_letters(self.letters, self.arity)
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError("word is not freely reduced")

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def sort_key(self) -> tuple:
        return (len(self.letters), tuple(_letter_key(l) for l in self.letters))

    def __lt__(self, other: "Word") -> bool:
        return self.sort_key < other.sort_key

    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "Word") -> "Word":
        if self.arity != other.arity:
            raise ValueError("cannot multiply words of different arity")
        return Word(_reduce(self.letters + other.letters), self.arity)

    def inverse(self) -> "Word":
        return Word(tuple(-l for l in reversed(self.letters)), self.arity)

    def __pow__(self, n: int) -> "Word":
        # free reduction is confluent: one pass over the n copies suffices
        base = self if n >= 0 else self.inverse()
        return Word(_reduce(base.letters * abs(n)), self.arity)

    def exponent_vector(self) -> tuple[int, ...]:
        """Net exponent of each generator (the abelianized image)."""
        vec = [0] * self.arity
        for ell in self.letters:
            vec[abs(ell) - 1] += 1 if ell > 0 else -1
        return tuple(vec)

    def render(self, names: Sequence[str]) -> str:
        """Run-length text of the word, generator i printed as names[i - 1]."""
        if not self.letters:
            return "1"
        letters, parts = self.letters, []
        start, end = 0, len(letters)
        while start < end:
            letter, stop = letters[start], start + 1
            while stop < end and letters[stop] == letter:
                stop += 1
            name = names[abs(letter) - 1]
            exp = stop - start if letter > 0 else start - stop
            parts.append(name if exp == 1 else f"{name}^{exp}")
            start = stop
        return "*".join(parts)

    def __str__(self) -> str:
        return self.render([f"g{i}" for i in range(1, self.arity + 1)])


def free_reduce(raw: Iterable[int], arity: int) -> Word:
    """Freely reduce a raw letter sequence into a Word."""
    raw = tuple(raw)
    _check_letters(raw, arity)
    return Word(_reduce(raw), arity)


def letter_order(arity: int) -> tuple[int, ...]:
    """All letters in ball order: g1, g1^-1, g2, g2^-1, ..."""
    out = []
    for i in range(1, arity + 1):
        out.extend((i, -i))
    return tuple(out)


def stratum_size(arity: int, length: int) -> int:
    """Number of reduced words of exactly the given length."""
    if length == 0:
        return 1
    if arity == 0:
        return 0
    return 2 * arity * (2 * arity - 1) ** (length - 1)


def ball_size(arity: int, radius: int) -> int:
    return sum(stratum_size(arity, k) for k in range(radius + 1))


def trivial_ops(arity: int):
    """The trivial group {0} under integer multiplication, as a flat marking."""
    return 0, operator.mul, dict.fromkeys(letter_order(arity), 0)


def walk_ball(arity: int, radius: int, ops_a, ops_b, *, distinct: bool = False):
    """Reduced words of lengths 1..radius, one layer per length, in ball order.

    ops_a and ops_b are flat markings, (identity, mul, letter -> value)
    triples; each layer is a list of (letters, value_a, value_b) records.
    Every length is checked against the cap before its layer is built,
    with the cap measuring the stratum of all reduced words.

    With `distinct`, a word whose (value_a, value_b) pair an earlier word
    of the ball already reached is neither yielded nor extended.  This is
    breadth-first search of the pair marking: each pair keeps its least
    word, a geodesic, and every prefix of that word is the least word of
    its own pair, so the surviving words are exactly those least words.
    Once a layer comes out empty every pair is reached, and the walk ends
    before the cap is checked again: no longer layer holds a record.
    """
    letters = letter_order(arity)
    _, mul_a, val_a = ops_a
    _, mul_b, val_b = ops_b
    layer = [((), ops_a[0], ops_b[0])]
    seen = {(ops_a[0], ops_b[0])}
    for length in range(1, radius + 1):
        if not layer:
            return
        check_cap(arity, length)
        nxt = []
        for w, xa, xb in layer:
            back = -w[-1] if w else 0
            for ell in letters:
                if ell != back:
                    nxt.append((w + (ell,), mul_a(xa, val_a[ell]), mul_b(xb, val_b[ell])))
        if distinct:
            fresh = []
            for record in nxt:
                state = record[1:]
                if state not in seen:
                    seen.add(state)
                    fresh.append(record)
            nxt = fresh
        layer = nxt
        yield layer


def enumerate_ball(arity: int, radius: int) -> list[Word]:
    """All reduced words of length <= radius, in ball order."""
    if arity < 1:
        raise ValueError("arity must be at least 1")
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    check_cap(arity, radius)
    trivial = trivial_ops(arity)
    words = [Word((), arity)]
    for layer in walk_ball(arity, radius, trivial, trivial):
        words.extend(Word(w, arity) for w, _, _ in layer)
    return words


@dataclass(frozen=True)
class NielsenMove:
    """An elementary transformation of a generating tuple.

    kind 'swap' exchanges entries i and j; 'invert' replaces entry i by
    its inverse; 'multiply' replaces entry i by its product with entry
    j^sign on the given side.  Indices are 1-based.
    """

    kind: str
    i: int
    j: int | None = None
    side: str | None = None
    sign: int | None = None

    def __post_init__(self):
        if self.kind not in ("swap", "invert", "multiply"):
            raise ValueError(f"unknown move kind {self.kind!r}")
        if self.i < 1:
            raise ValueError("indices are 1-based")
        if self.kind == "invert":
            if self.j is not None:
                raise ValueError("invert takes a single index")
        else:
            if self.j is None or self.j < 1:
                raise ValueError(f"{self.kind} needs a second index")
            if self.i == self.j:
                raise ValueError(f"{self.kind} needs distinct indices")
        if self.kind == "multiply":
            if self.side not in ("left", "right"):
                raise ValueError("side must be 'left' or 'right'")
            if self.sign not in (1, -1):
                raise ValueError("sign must be +1 or -1")

    @classmethod
    def swap(cls, i: int, j: int) -> "NielsenMove":
        return cls("swap", i, j)

    @classmethod
    def invert(cls, i: int) -> "NielsenMove":
        return cls("invert", i)

    @classmethod
    def multiply(cls, i: int, j: int, side: str = "right", sign: int = 1) -> "NielsenMove":
        return cls("multiply", i, j, side, sign)

    def inverse(self) -> "NielsenMove":
        if self.kind == "multiply":
            return NielsenMove("multiply", self.i, self.j, self.side, -self.sign)
        return self


def _compose(x, y):
    # Words and dihedral elements are multiplicative (they expose
    # .inverse()); abelian elements are additive.
    if hasattr(x, "inverse"):
        return x * y
    return x + y


def _invert(x):
    return x.inverse() if hasattr(x, "inverse") else -x


def nielsen_apply(tup: Sequence, move: NielsenMove) -> tuple:
    """Apply an elementary move to a tuple of words or group elements.

    The subgroup generated by the tuple is unchanged and every move is
    invertible, so tuples related by moves mark the same subgroup.
    """
    n = len(tup)
    if move.i > n or (move.j is not None and move.j > n):
        raise ValueError(f"move indices exceed tuple length {n}")
    out = list(tup)
    a = move.i - 1
    if move.kind == "swap":
        b = move.j - 1
        out[a], out[b] = out[b], out[a]
    elif move.kind == "invert":
        out[a] = _invert(out[a])
    else:
        other = tup[move.j - 1]
        if move.sign == -1:
            other = _invert(other)
        if move.side == "right":
            out[a] = _compose(out[a], other)
        else:
            out[a] = _compose(other, out[a])
    return tuple(out)
