"""Text syntax for groups, elements, markings, words and sentences.

Grammar (EBNF):

    group    := atom ("x" atom)*
    atom     := "Z" ("^" INT | "/" INT)? | "Dih" "(" group ")"
              | "D" EVENINT | "Dinf"
    marked   := group ":" element ("," element)*
    element  := ALIAS | "rot" "(" coords ")" | "ref" "(" coords ")"
              | "(" coords ")"
    coords   := sint ("," sint)* (";" sint ("," sint)*)?
    word     := product     with NAME a GEN or a run of ALIASes
    sentence := "forall" NAME+ ":" formula | "@" NAME
    formula  := or ("->" formula)?
    or       := and ("|" and)*
    and      := unary ("&" unary)*
    unary    := "!" unary | "(" formula ")" | term ("=" | "!=") term
    term     := product     with NAME a variable or a run of variables
    product  := "*"* ("1" | factor) ("*" | factor)*
    factor   := NAME ("^" sint)? | "(" term ")" ("^" sint)?

Words and terms share the one `product` reader; only a term's factor
may be parenthesized.  Counts read from text are bounded by the word
cap (words.active_ball_cap): a power may not take its word or term past
that many letters and Z^n needs n at most the cap; a larger count is a
ParseError at its integer, raised before any list is built.  Nesting
(parentheses, "!" and "->") is at most MAX_NESTING levels deep; the
token that opens one more level is a ParseError.  A Dih(...) base is
abelian, so Dih atoms do not nest.

Element coordinates list free coordinates first; a ";" separates the
torsion residues explicitly, otherwise the split is positional.  A lone
0 abbreviates the zero vector.  Aliases a, b, c, ... on a dihedral
group mark the plain flip and then the base coordinate rotations;
inside words they name g1, g2, ... by alphabet position.  Element
literals are resolved against their group as they are read.

The parser is hand-written recursive descent; errors carry the line,
column and the production being read.  Every parser round-trips with
its canonical printer: print_sentence here for sentences, and the
__str__ methods of groups, elements, markings and words for the rest.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple, Sequence

from .abelian import INFINITE, AbelianGroup, canonical_invariant_factors
from .dihedral import GenDihedralGroup
from .logic import And, Atom, Formula, Implies, Not, Or, UniversalSentence, builtin_sentence
from .topology import MarkedGroup
from .words import Word, _reduce, active_ball_cap, free_reduce


MAX_NESTING = 100


class ParseError(ValueError):
    """A syntax error at an offset of the text; its line and column are
    counted only when read, as a reparse discards most errors unread."""

    def __init__(self, message: str, text: str, offset: int):
        super().__init__(message)
        self.text, self.offset = text, offset

    line = property(lambda self: self.text.count("\n", 0, self.offset) + 1)
    column = property(lambda self: self.offset - self.text.rfind("\n", 0, self.offset))

    def __str__(self) -> str:
        return f"{self.args[0]} (line {self.line}, column {self.column})"


class _TooDeep(ParseError):
    """Nesting past MAX_NESTING; no reparse of the input can avoid it."""


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<int>\d+)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<arrow>->)"
    r"|(?P<ne>!=)"
    r"|(?P<sym>[\^/(),;:@*!=&|\-])"
)


class _Token(NamedTuple):
    kind: str  # 'int' | 'name' | 'sym' | 'end'
    text: str
    offset: int  # into the text


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(_Token("sym" if kind in ("arrow", "ne") else kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", pos))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self._cap: int | None = None

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def error(self, message: str, token: _Token | None = None):
        tok = token or self.peek()
        raise ParseError(message, self.text, tok.offset)

    def expect_sym(self, text: str, production: str) -> _Token:
        tok = self.peek()
        if tok.kind != "sym" or tok.text != text:
            self.error(f"expected {text!r} in {production}, found {tok.text or 'end of input'!r}")
        return self.next()

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == text

    def nest(self, production: str):
        """Open one more level of nesting at the current token; the
        caller closes it with `self.depth -= 1`."""
        if self.depth == MAX_NESTING:
            message = f"{production} nested deeper than {MAX_NESTING} levels"
            raise _TooDeep(message, self.text, self.peek().offset)
        self.depth += 1

    def expect_end(self):
        tok = self.peek()
        if tok.kind != "end":
            self.error(f"unexpected trailing input {tok.text!r}")

    def integer(self, production: str, bound: int | None = None) -> int:
        """An integer, refused above `bound` (a count that sizes a list)."""
        tok = self.peek()
        if tok.kind != "int":
            self.error(f"expected an integer in {production}")
        self.next()
        if bound is not None and int(tok.text) > bound:
            self.error(
                f"{production} {tok.text} is over {bound}, the most the word cap "
                f"of {self.cap} allows",
                tok,
            )
        return int(tok.text)

    def signed_integer(self, production: str, bound: int | None = None) -> int:
        if self.at_sym("-"):
            self.next()
            return -self.integer(production, bound)
        return self.integer(production, bound)

    @property
    def cap(self) -> int:
        """The word cap, read once per parse and only if a count needs it."""
        if self._cap is None:
            self._cap = active_ball_cap()
        return self._cap

    # -- groups -------------------------------------------------------

    def group_atom(self, abelian: str | None = None):
        """One atom; where only an abelian one may stand, `abelian` is the
        error for a dihedral one, raised before it is read."""
        tok = self.peek()
        if tok.kind != "name":
            self.error("expected a group in group atom")
        name = tok.text
        if abelian and (name in ("Dih", "Dinf") or re.fullmatch(r"D\d+", name)):
            self.error(abelian)
        if name == "Z":
            self.next()
            if self.at_sym("^"):
                self.next()
                return [INFINITE] * self.integer("free rank", self.cap)
            if self.at_sym("/"):
                self.next()
                return [self.integer("cyclic order")]
            return [INFINITE]
        if name == "Dih":
            self.next()
            self.expect_sym("(", "Dih(...)")
            base = self.group("the base of Dih(...) must be abelian")
            self.expect_sym(")", "Dih(...)")
            return GenDihedralGroup(base)
        if name == "Dinf":
            self.next()
            return GenDihedralGroup(AbelianGroup(1, ()))
        m = re.fullmatch(r"D(\d+)", name)
        if m:
            self.next()
            order = int(m.group(1))
            if order < 2 or order % 2:
                self.error(f"dihedral alias D{order} needs an even order >= 2", tok)
            return GenDihedralGroup(canonical_invariant_factors([order // 2]))
        self.error(f"unknown group name {name!r}", tok)

    def group(self, abelian: str | None = None):
        """A dihedral atom alone, or a product of abelian atoms; where only
        an abelian group may stand, `abelian` is the error for a dihedral one."""
        atom = self.group_atom(abelian)
        if isinstance(atom, GenDihedralGroup):
            if self.peek().kind == "name" and self.peek().text == "x":
                self.error("dihedral groups cannot be factors of a product")
            return atom
        orders = list(atom)
        while self.peek().kind == "name" and self.peek().text == "x":
            self.next()
            orders.extend(self.group_atom("dihedral groups cannot be factors of a product"))
        return canonical_invariant_factors(orders)

    # -- elements -----------------------------------------------------

    def coords(self) -> list[list[int]]:
        """The coordinate groups of a literal: [coords] or [coords, torsion]."""
        if self.at_sym(")"):
            return [[]]
        parts = [[self.signed_integer("coordinates")]]
        while self.at_sym(",") or (self.at_sym(";") and len(parts) == 1):
            if self.next().text == ";":
                parts.append([])
            parts[-1].append(
                self.signed_integer("coordinates" if len(parts) == 1 else "torsion residues")
            )
        return parts

    def element(self, group, alone: bool = False):
        """Read one element literal and resolve it against `group`; a
        literal that must be `alone` in the input is checked for trailing
        input before it is resolved."""
        tok = self.next()
        alias = tok.kind == "name" and tok.text not in ("rot", "ref")
        if not alias:
            if tok.kind == "name":
                production = f"{tok.text}(...)"
                self.expect_sym("(", production)
            elif tok.kind == "sym" and tok.text == "(":
                production = "coordinate literal"
            else:
                self.error("expected an element literal", tok)
            parts = self.coords()
            self.expect_sym(")", production)
        if alone:
            self.expect_end()
        if alias:
            return _resolve_alias(tok.text, group)
        dihedral = isinstance(group, GenDihedralGroup)
        if not dihedral and not isinstance(group, AbelianGroup):
            raise TypeError(f"cannot resolve elements of {type(group).__name__}")
        if dihedral and tok.text == "(":
            raise ValueError("elements of a dihedral group need a rot(...) or ref(...) tag")
        if not dihedral and tok.text != "(":
            raise ValueError("abelian elements are plain coordinate tuples")
        base = group.base if dihedral else group
        value = base.from_coordinates(parts[0]) if len(parts) == 1 else base.element(*parts)
        return group.element(value, 1 if tok.text == "ref" else 0) if dihedral else value

    def elements(self, group) -> tuple:
        """element ("," element)* to the end of input, each resolved as read."""
        out = [self.element(group)]
        while self.at_sym(","):
            self.next()
            out.append(self.element(group))
        self.expect_end()
        return tuple(out)

    # -- words and terms ----------------------------------------------

    def power(self, base: Sequence[int], production: str, used: int) -> Sequence[int]:
        """`base` raised to an optional ^sint; the expansion may not take
        a word or term that already has `used` letters past the word cap."""
        if not self.at_sym("^"):
            return base
        self.next()
        bound = max(self.cap - used, 0) // len(base) if base else None
        exp = self.signed_integer(f"{production} exponent", bound)
        if exp < 0:
            base = [-letter for letter in reversed(base)]
        return list(base) * abs(exp)

    def product(
        self, indices: Callable[[_Token], list[int]], production: str, used: int = 0
    ) -> list[int]:
        """The letters of a word or term, `indices` giving a name token's letters:
        factors with optional '*', a leading 1, and in terms (x y)^n.  The
        enclosing products already hold `used` letters."""
        letters: list[int] = []
        saw = False
        while True:
            tok = self.peek()
            if tok.kind == "int" and tok.text == "1" and not saw:
                self.next()
            elif tok.kind == "sym" and tok.text == "*":
                self.next()
                continue
            elif tok.kind == "sym" and tok.text == "(" and production == "term":
                self.nest("parenthesized term")
                self.next()
                inner = _reduce(self.product(indices, production, used + len(letters)))
                self.expect_sym(")", "parenthesized term")
                self.depth -= 1
                letters += self.power(inner, production, used + len(letters))
            elif tok.kind == "name":
                self.next()
                *head, last = indices(tok)
                letters += head
                letters += self.power((last,), production, used + len(letters))
            else:
                break
            saw = True
        if not saw:
            self.error(f"expected a {production}")
        return letters

    def word(self, arity: int | None) -> Word:
        letters = self.product(lambda tok: _word_indices(tok, self), "word")
        inferred = max((abs(l) for l in letters), default=0)
        if arity is None:
            arity = inferred
        elif inferred > arity:
            self.error(f"word uses generator g{inferred} beyond arity {arity}")
        return free_reduce(letters, arity)

    # -- sentences ----------------------------------------------------

    def sentence(self) -> UniversalSentence:
        tok = self.peek()
        if self.at_sym("@"):
            self.next()
            name = self.peek()
            if name.kind != "name":
                self.error("expected a built-in sentence name after '@'")
            self.next()
            try:
                return builtin_sentence(name.text)
            except ValueError:
                self.error(f"unknown built-in sentence @{name.text}", name)
        if tok.kind != "name" or tok.text != "forall":
            self.error("a sentence starts with 'forall' or '@'")
        self.next()
        variables: list[str] = []
        while self.peek().kind == "name":
            name = self.next().text
            if name in variables:
                self.error(f"duplicate variable {name!r}")
            variables.append(name)
        if not variables:
            self.error("'forall' needs at least one variable")
        self.expect_sym(":", "sentence")
        body = self.formula(variables)
        return UniversalSentence(len(variables), body)

    def formula(self, variables: list[str]) -> Formula:
        left = self.or_formula(variables)
        if self.at_sym("->"):
            self.nest("implication")
            self.next()
            right = self.formula(variables)
            self.depth -= 1
            return Implies(left, right)
        return left

    def or_formula(self, variables: list[str]) -> Formula:
        children = [self.and_formula(variables)]
        while self.at_sym("|"):
            self.next()
            children.append(self.and_formula(variables))
        return children[0] if len(children) == 1 else Or(tuple(children))

    def and_formula(self, variables: list[str]) -> Formula:
        children = [self.unary_formula(variables)]
        while self.at_sym("&"):
            self.next()
            children.append(self.unary_formula(variables))
        return children[0] if len(children) == 1 else And(tuple(children))

    def unary_formula(self, variables: list[str]) -> Formula:
        if self.at_sym("!"):
            self.nest("negation")
            self.next()
            child = self.unary_formula(variables)
            self.depth -= 1
            return Not(child)
        if self.at_sym("("):
            saved = self.pos, self.depth
            self.nest("parenthesized formula")
            self.next()
            try:
                inner = self.formula(variables)
                self.expect_sym(")", "parenthesized formula")
                self.depth -= 1
                return inner
            except _TooDeep:
                raise
            except ParseError:
                # reparse as a parenthesized term inside an atom
                self.pos, self.depth = saved
        return self.atom(variables)

    def atom(self, variables: list[str]) -> Atom:
        left = self.term(variables)
        if self.at_sym("="):
            self.next()
            return Atom(left, self.term(variables), True)
        if self.at_sym("!="):
            self.next()
            return Atom(left, self.term(variables), False)
        self.error("expected '=' or '!=' in an atom")

    def term(self, variables: list[str]) -> Word:
        letters = self.product(lambda tok: _variable_indices(tok, variables, self), "term")
        return free_reduce(letters, len(variables))


def _word_indices(tok: _Token, parser: _Parser) -> list[int]:
    m = re.fullmatch(r"g(\d+)", tok.text)
    if m:
        if int(m.group(1)) < 1:
            parser.error("generator indices are 1-based", tok)
        return [int(m.group(1))]
    if not all(ch.islower() for ch in tok.text):
        parser.error(f"unknown generator {tok.text!r}", tok)
    return [ord(ch) - ord("a") + 1 for ch in tok.text]


def _variable_indices(tok: _Token, variables: list[str], parser: _Parser) -> list[int]:
    if tok.text in variables:
        return [variables.index(tok.text) + 1]
    if not all(ch in variables for ch in tok.text):
        parser.error(f"unknown variable {tok.text!r}", tok)
    return [variables.index(ch) + 1 for ch in tok.text]


def _resolve_alias(name: str, group):
    if not isinstance(group, GenDihedralGroup):
        raise ValueError("aliases a, b, c, ... are defined for dihedral groups only")
    if len(name) != 1 or not name.islower():
        raise ValueError(f"unknown element alias {name!r}")
    k = ord(name) - ord("a")
    base = group.base
    if k > base.rank:
        raise ValueError(
            f"alias {name!r} needs base coordinate {k}, but the base has rank {base.rank}"
        )
    if k == 0:
        return group.reflection(base.identity())
    return group.rotation(base.from_coordinates([int(i == k - 1) for i in range(base.rank)]))


# ---------------------------------------------------------------------------
# Public parse functions


def parse_group(text: str):
    p = _Parser(text)
    out = p.group()
    p.expect_end()
    return out


def parse_element(text: str, group):
    return _Parser(text).element(group, alone=True)


def parse_elements(text: str, group) -> tuple:
    return _Parser(text).elements(group)


def parse_marked(text: str) -> MarkedGroup:
    p = _Parser(text)
    group = p.group()
    p.expect_sym(":", "marked group")
    return MarkedGroup(group, p.elements(group))


def parse_word(text: str, arity: int | None = None) -> Word:
    p = _Parser(text)
    out = p.word(arity)
    p.expect_end()
    return out


def parse_sentence(text: str) -> UniversalSentence:
    p = _Parser(text)
    out = p.sentence()
    p.expect_end()
    return out


# ---------------------------------------------------------------------------
# Canonical printers


_VARIABLE_NAMES = ("x", "y", "z", "t", "u")


def _variable_names(k: int) -> list[str]:
    if k <= len(_VARIABLE_NAMES):
        return list(_VARIABLE_NAMES[:k])
    return [f"x{i}" for i in range(1, k + 1)]


_PRECEDENCE = {Implies: 1, Or: 2, And: 3, Not: 4, Atom: 5}


def _print_formula(formula: Formula, names: Sequence[str], parent_prec: int = 0) -> str:
    prec = _PRECEDENCE[type(formula)]
    if isinstance(formula, Atom):
        op = "=" if formula.positive else "!="
        out = f"{formula.left.render(names)} {op} {formula.right.render(names)}"
    elif isinstance(formula, Not):
        out = "!" + _print_formula(formula.child, names, prec)
    elif isinstance(formula, And):
        out = " & ".join(_print_formula(c, names, prec) for c in formula.children)
    elif isinstance(formula, Or):
        out = " | ".join(_print_formula(c, names, prec) for c in formula.children)
    else:
        # right-associative: the hypothesis needs parens at equal precedence
        hyp = _print_formula(formula.hypothesis, names, prec)
        concl = _print_formula(formula.conclusion, names, prec - 1)
        out = f"{hyp} -> {concl}"
    if prec <= parent_prec:
        return f"({out})"
    return out


def print_sentence(sentence: UniversalSentence) -> str:
    names = _variable_names(sentence.variables)
    body = _print_formula(sentence.body, names)
    return f"forall {' '.join(names)} : {body}"
