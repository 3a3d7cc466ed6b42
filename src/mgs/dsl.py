"""Text syntax for groups, elements, markings, words and sentences.

Grammar (EBNF):

    group    := atom ("x" atom)*
    atom     := "Z" ("^" INT | "/" INT)? | "Dih" "(" group ")"
              | "D" EVENINT | "Dinf"
    marked   := group ":" element ("," element)*
    element  := ALIAS | "rot" "(" coords ")" | "ref" "(" coords ")"
              | "(" coords ")"
    coords   := sint ("," sint)* (";" sint ("," sint)*)?
    word     := (GEN | ALIAS+) ("^" sint)? ...
    sentence := "forall" NAME+ ":" formula | "@" NAME
    formula  := or ("->" formula)?
    or       := and ("|" and)*
    and      := unary ("&" unary)*
    unary    := "!" unary | "(" formula ")" | term ("=" | "!=") term
    term     := factor ("*"? factor)* | "1"
    factor   := NAME ("^" sint)? | "(" term ")" ("^" sint)?

Element coordinates list free coordinates first; a ";" separates the
torsion residues explicitly, otherwise the split is positional.  A lone
0 abbreviates the zero vector.  Aliases a, b, c, ... on a dihedral
group mark the plain flip and then the base coordinate rotations;
inside words they name g1, g2, ... by alphabet position.

The parser is hand-written recursive descent; errors carry the line,
column and the production being read.  Every parser round-trips with
the canonical printers in this module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .abelian import INFINITE, AbelianElement, AbelianGroup, canonical_invariant_factors
from .dihedral import GenDihedralGroup
from .logic import And, Atom, Formula, Implies, Not, Or, UniversalSentence, builtin_sentence
from .topology import MarkedGroup
from .words import Word, free_reduce


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<int>\d+)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<arrow>->)"
    r"|(?P<ne>!=)"
    r"|(?P<sym>[\^/(),;:@*!=&|\-])"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # 'int' | 'name' | 'sym' | 'end'
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            if kind in ("arrow", "ne"):
                tokens.append(_Token("sym", chunk, line, col))
            else:
                tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def error(self, message: str, token: _Token | None = None):
        tok = token or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def expect_sym(self, text: str, production: str) -> _Token:
        tok = self.peek()
        if tok.kind != "sym" or tok.text != text:
            self.error(f"expected {text!r} in {production}, found {tok.text or 'end of input'!r}")
        return self.next()

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == text

    def expect_end(self):
        tok = self.peek()
        if tok.kind != "end":
            self.error(f"unexpected trailing input {tok.text!r}")

    def integer(self, production: str) -> int:
        tok = self.peek()
        if tok.kind != "int":
            self.error(f"expected an integer in {production}")
        self.next()
        return int(tok.text)

    def signed_integer(self, production: str) -> int:
        if self.at_sym("-"):
            self.next()
            return -self.integer(production)
        return self.integer(production)

    # -- groups -------------------------------------------------------

    def group_atom(self):
        tok = self.peek()
        if tok.kind != "name":
            self.error("expected a group in group atom")
        name = tok.text
        if name == "Z":
            self.next()
            if self.at_sym("^"):
                self.next()
                return [INFINITE] * self.integer("free rank")
            if self.at_sym("/"):
                self.next()
                return [self.integer("cyclic order")]
            return [INFINITE]
        if name == "Dih":
            self.next()
            self.expect_sym("(", "Dih(...)")
            base = self.group_orders()
            self.expect_sym(")", "Dih(...)")
            return GenDihedralGroup(canonical_invariant_factors(base))
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

    def group_orders(self) -> list:
        """A product of cyclic orders; dihedral atoms may not be multiplied."""
        atom = self.group_atom()
        if isinstance(atom, GenDihedralGroup):
            if self.peek().kind == "name" and self.peek().text == "x":
                self.error("dihedral groups cannot be factors of a product")
            return atom
        orders = list(atom)
        while self.peek().kind == "name" and self.peek().text == "x":
            self.next()
            more = self.group_atom()
            if isinstance(more, GenDihedralGroup):
                self.error("dihedral groups cannot be factors of a product")
            orders.extend(more)
        return orders

    def group(self):
        out = self.group_orders()
        if isinstance(out, GenDihedralGroup):
            return out
        return canonical_invariant_factors(out)

    # -- elements -----------------------------------------------------

    def coords(self) -> tuple[list[int], list[int] | None]:
        if self.at_sym(")"):
            return [], None
        first = [self.signed_integer("coordinates")]
        while self.at_sym(","):
            self.next()
            first.append(self.signed_integer("coordinates"))
        if not self.at_sym(";"):
            return first, None
        self.next()
        second = [self.signed_integer("torsion residues")]
        while self.at_sym(","):
            self.next()
            second.append(self.signed_integer("torsion residues"))
        return first, second

    def element_literal(self) -> "ElementLiteral":
        tok = self.peek()
        if tok.kind == "name" and tok.text in ("rot", "ref"):
            self.next()
            self.expect_sym("(", f"{tok.text}(...)")
            coords, torsion = self.coords()
            self.expect_sym(")", f"{tok.text}(...)")
            return ElementLiteral(tok.text, tuple(coords), None if torsion is None else tuple(torsion))
        if self.at_sym("("):
            self.next()
            coords, torsion = self.coords()
            self.expect_sym(")", "coordinate literal")
            return ElementLiteral("plain", tuple(coords), None if torsion is None else tuple(torsion))
        if tok.kind == "name":
            self.next()
            return ElementLiteral("alias", (), None, tok.text)
        self.error("expected an element literal")

    # -- words --------------------------------------------------------

    def word(self, arity: int | None) -> Word:
        letters: list[int] = []
        saw = False
        while True:
            tok = self.peek()
            if tok.kind == "int" and tok.text == "1" and not saw:
                self.next()
                saw = True
                continue
            if tok.kind == "sym" and tok.text == "*":
                self.next()
                continue
            if tok.kind != "name":
                break
            self.next()
            indices = _word_indices(tok.text, self)
            for pos, index in enumerate(indices):
                exp = 1
                if pos == len(indices) - 1 and self.at_sym("^"):
                    self.next()
                    exp = self.signed_integer("word exponent")
                letters.extend([index if exp > 0 else -index] * abs(exp))
            saw = True
        if not saw:
            self.error("expected a word")
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
            self.next()
            return Implies(left, self.formula(variables))
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
            self.next()
            return Not(self.unary_formula(variables))
        if self.at_sym("("):
            saved = self.pos
            self.next()
            try:
                inner = self.formula(variables)
                self.expect_sym(")", "parenthesized formula")
                return inner
            except ParseError:
                self.pos = saved  # reparse as a parenthesized term inside an atom
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
        k = len(variables)
        letters: list[int] = []
        saw = False
        while True:
            tok = self.peek()
            if tok.kind == "int" and tok.text == "1" and not saw:
                self.next()
                saw = True
                continue
            if tok.kind == "sym" and tok.text == "*":
                self.next()
                continue
            if tok.kind == "sym" and tok.text == "(":
                # (term)^exp
                self.next()
                inner = self.term(variables)
                self.expect_sym(")", "parenthesized term")
                exp = 1
                if self.at_sym("^"):
                    self.next()
                    exp = self.signed_integer("term exponent")
                letters.extend((inner**exp).letters)
                saw = True
                continue
            if tok.kind != "name":
                break
            self.next()
            indices = _variable_indices(tok.text, variables, self)
            for pos, index in enumerate(indices):
                exp = 1
                if pos == len(indices) - 1 and self.at_sym("^"):
                    self.next()
                    exp = self.signed_integer("term exponent")
                letters.extend([index if exp > 0 else -index] * abs(exp))
            saw = True
        if not saw:
            self.error("expected a term")
        return free_reduce(letters, k)


def _word_indices(name: str, parser: _Parser) -> list[int]:
    m = re.fullmatch(r"g(\d+)", name)
    if m:
        index = int(m.group(1))
        if index < 1:
            parser.error("generator indices are 1-based")
        return [index]
    indices = []
    for ch in name:
        if not ch.islower():
            parser.error(f"unknown generator {name!r}")
        indices.append(ord(ch) - ord("a") + 1)
    return indices


def _variable_indices(name: str, variables: list[str], parser: _Parser) -> list[int]:
    if name in variables:
        return [variables.index(name) + 1]
    indices = []
    for ch in name:
        if ch not in variables:
            parser.error(f"unknown variable {name!r}")
        indices.append(variables.index(ch) + 1)
    return indices


# ---------------------------------------------------------------------------
# Element literals


@dataclass(frozen=True)
class ElementLiteral:
    kind: str  # 'rot' | 'ref' | 'plain' | 'alias'
    coords: tuple[int, ...]
    torsion: tuple[int, ...] | None = None
    alias: str | None = None

    def resolve(self, group):
        if self.kind == "alias":
            return _resolve_alias(self.alias, group)
        if isinstance(group, GenDihedralGroup):
            if self.kind == "plain":
                raise ValueError(
                    "elements of a dihedral group need a rot(...) or ref(...) tag"
                )
            base_value = _coerce_coords(group.base, self.coords, self.torsion)
            return group.element(base_value, 1 if self.kind == "ref" else 0)
        if isinstance(group, AbelianGroup):
            if self.kind != "plain":
                raise ValueError("abelian elements are plain coordinate tuples")
            return _coerce_coords(group, self.coords, self.torsion)
        raise TypeError(f"cannot resolve elements of {type(group).__name__}")


def _coerce_coords(group: AbelianGroup, coords, torsion) -> AbelianElement:
    if torsion is not None:
        return group.element(coords, torsion)
    return group.from_coordinates(coords)


def _resolve_alias(name: str, group):
    if not isinstance(group, GenDihedralGroup):
        raise ValueError("aliases a, b, c, ... are defined for dihedral groups only")
    if len(name) != 1 or not name.islower():
        raise ValueError(f"unknown element alias {name!r}")
    k = ord(name) - ord("a")
    base = group.base
    if k == 0:
        return group.reflection(base.identity())
    if k > base.rank:
        raise ValueError(
            f"alias {name!r} needs base coordinate {k}, but the base has rank {base.rank}"
        )
    coords = [0] * base.rank
    coords[k - 1] = 1
    return group.rotation(base.from_coordinates(coords))


# ---------------------------------------------------------------------------
# Public parse functions


def parse_group(text: str):
    p = _Parser(text)
    out = p.group()
    p.expect_end()
    return out


def parse_element(text: str, group):
    p = _Parser(text)
    lit = p.element_literal()
    p.expect_end()
    return lit.resolve(group)


def parse_elements(text: str, group) -> tuple:
    p = _Parser(text)
    out = [p.element_literal().resolve(group)]
    while p.at_sym(","):
        p.next()
        out.append(p.element_literal().resolve(group))
    p.expect_end()
    return tuple(out)


def parse_marked(text: str) -> MarkedGroup:
    p = _Parser(text)
    group = p.group()
    p.expect_sym(":", "marked group")
    gens = [p.element_literal().resolve(group)]
    while p.at_sym(","):
        p.next()
        gens.append(p.element_literal().resolve(group))
    p.expect_end()
    return MarkedGroup(group, tuple(gens))


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


def parse_spec(text: str):
    """Parse any input fragment (group, marking, element, word or
    sentence), dispatching on its leading tokens."""
    tokens = _tokenize(text)
    first = tokens[0]
    if first.kind == "sym" and first.text == "@":
        return parse_sentence(text)
    if first.kind == "name" and first.text == "forall":
        return parse_sentence(text)
    depth = 0
    for tok in tokens:
        if tok.kind != "sym":
            continue
        if tok.text == "(":
            depth += 1
        elif tok.text == ")":
            depth -= 1
        elif tok.text == ":" and depth == 0:
            return parse_marked(text)
    if first.kind == "name" and (
        first.text in ("Z", "Dinf", "Dih") or re.fullmatch(r"D\d+", first.text)
    ):
        return parse_group(text)
    if (first.kind == "sym" and first.text == "(") or (
        first.kind == "name" and first.text in ("rot", "ref")
    ):
        p = _Parser(text)
        lit = p.element_literal()
        p.expect_end()
        return lit
    return parse_word(text)


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
