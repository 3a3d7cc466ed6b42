"""Universal sentences of group theory and exhaustive model checking.

Sentences are ``forall x_1 ... x_k  phi`` with phi quantifier-free over
atoms ``term = term`` / ``term != term`` (terms are reduced words in the
variables; the empty word is the constant 1).  There are no existential
quantifiers anywhere: the AST cannot express them.

Checking is exhaustive over all k-tuples of a finite group, in
lexicographic order.  The body is compiled once per check: each atom is
evaluated at the depth that binds its last variable, and a three-valued
decider per depth skips every subtree whose truth value is settled.
Sibling values of a variable that no deeper atom mentions, with equal
atoms, have equal subtrees, so a subtree that held is not searched
again.  The counterexample is the lexicographically first failing tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Union

from .tables import FiniteGroupTable
from .words import Word, free_reduce

DEFAULT_EVAL_BUDGET = 10_000_000
VARIABLE_BOUND = 500  # the search recurses once per variable


class BudgetExceeded(ValueError):
    """The requested exhaustive check is larger than the allowed budget."""


@dataclass(frozen=True)
class Atom:
    """``left = right`` when positive, ``left != right`` otherwise."""

    left: Word
    right: Word
    positive: bool = True


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    children: tuple["Formula", ...]


@dataclass(frozen=True)
class Or:
    children: tuple["Formula", ...]


@dataclass(frozen=True)
class Implies:
    hypothesis: "Formula"
    conclusion: "Formula"


Formula = Union[Atom, Not, And, Or, Implies]


def _max_variable(formula: Formula) -> int:
    if isinstance(formula, Atom):
        terms = formula.left.letters, formula.right.letters
        return max([abs(ell) for term in terms for ell in term], default=0)
    if isinstance(formula, Not):
        return _max_variable(formula.child)
    if isinstance(formula, (And, Or)):
        return max((_max_variable(c) for c in formula.children), default=0)
    return max(_max_variable(formula.hypothesis), _max_variable(formula.conclusion))


@dataclass(frozen=True)
class UniversalSentence:
    variables: int
    body: Formula

    def __post_init__(self):
        if self.variables < 0:
            raise ValueError("variable count must be nonnegative")
        used = _max_variable(self.body)
        if used > self.variables:
            raise ValueError(f"body uses variable x{used} but only {self.variables} are quantified")


@dataclass(frozen=True)
class SentenceCheck:
    holds: bool
    counterexample: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.holds


def _truth(formula, assignment, table) -> bool:
    """Two-valued evaluation at an assignment that binds every variable."""
    if isinstance(formula, Atom):
        a, b = [table.evaluate(w.letters, assignment) for w in (formula.left, formula.right)]
        return (a == b) == formula.positive
    if isinstance(formula, Not):
        return not _truth(formula.child, assignment, table)
    if isinstance(formula, (And, Or)):
        decisive = isinstance(formula, Or)
        for child in formula.children:
            if _truth(child, assignment, table) == decisive:
                return decisive
        return not decisive
    hypothesis = _truth(formula.hypothesis, assignment, table)
    return not hypothesis or _truth(formula.conclusion, assignment, table)


# A compiled decider maps the atom values to True, False or None (not settled
# yet); at each depth, a subformula with no atom bound yet compiles to None.


def _negate(child):
    if child is None:
        return None
    return lambda vals: None if (r := child(vals)) is None else not r


def _junction(children, decisive):
    """And (decisive False) or Or (decisive True) of compiled children."""
    known = [c for c in children if c is not None]
    if not known:
        return None if children else lambda vals: not decisive
    rest = None if len(known) < len(children) else not decisive

    def decide(vals):
        out = rest
        for c in known:
            r = c(vals)
            if r is decisive:
                return decisive
            if r is None:
                out = None
        return out

    return decide


def _compile(formula, atoms, k):
    """The deciders of ``formula`` at depths 0..k; appends its atoms to ``atoms``."""
    if isinstance(formula, Atom):
        depth = _max_variable(formula)
        atoms.append((depth, formula.left.letters, formula.right.letters, formula.positive))
        return [None] * depth + [itemgetter(len(atoms) - 1)] * (k + 1 - depth)
    if isinstance(formula, Not):
        return [_negate(c) for c in _compile(formula.child, atoms, k)]
    if isinstance(formula, (And, Or)):
        compiled = [_compile(c, atoms, k) for c in formula.children]
        decisive = isinstance(formula, Or)
        return [_junction([c[d] for c in compiled], decisive) for d in range(k + 1)]
    hypotheses = _compile(formula.hypothesis, atoms, k)
    conclusions = _compile(formula.conclusion, atoms, k)
    return [_junction([_negate(h), c], True) for h, c in zip(hypotheses, conclusions)]


def _holds_below(d, plan, env, vals):
    """Whether the body holds at every tuple extending the bound x_1..x_{d-1}.

    ``env[i]`` is the value of x_i and ``env[-i]`` its inverse, so a letter
    indexes ``env``.  On False, ``env[1..k]`` is the first failing tuple.
    """
    rows, inverses, levels = plan
    atoms, decide, settled = levels[d]
    held = set()  # atom values at depth d whose subtree held
    for v in range(len(rows)):
        env[d], env[-d] = v, inverses[v]
        key = 0
        for i, left, right, positive in atoms:
            a = 0
            for ell in left:
                a = rows[a][env[ell]]
            b = 0
            for ell in right:
                b = rows[b][env[ell]]
            vals[i] = bit = (a == b) == positive
            key = 2 * key + bit
        if settled and key in held:
            continue
        verdict = decide(vals) if decide else None
        if verdict is None:
            if not _holds_below(d + 1, plan, env, vals):
                return False
        elif not verdict:
            env[d + 1 : len(levels)] = [0] * (len(levels) - 1 - d)
            return False
        held.add(key)
    return True


def holds_in(
    table: FiniteGroupTable,
    sentence: UniversalSentence,
    budget: int = DEFAULT_EVAL_BUDGET,
) -> SentenceCheck:
    """Exhaustively decide a universal sentence on a finite group.

    Returns the verdict together with the lexicographically first
    failing tuple of element indices when the sentence fails.
    """
    n, k = table.order, sentence.variables
    if n**k > budget:
        raise BudgetExceeded(f"{n}^{k} assignments exceed the evaluation budget of {budget}")
    if k > VARIABLE_BOUND:
        raise ValueError(f"{k} variables exceed the sentence check bound of {VARIABLE_BOUND}")
    atoms = []
    deciders = _compile(sentence.body, atoms, k)
    levels = [[[], decide, True] for decide in deciders]  # atoms, decider, settled
    for i, (depth, left, right, positive) in enumerate(atoms):
        levels[depth][0].append((i, left, right, positive))
        for term in (left, right):
            for ell in term:
                if abs(ell) < depth:  # x_|ell| occurs in an atom bound deeper
                    levels[abs(ell)][2] = False
    vals = [atom[3] for atom in atoms]  # a depth-0 atom is 1 = 1 or 1 != 1
    env = [0] * (2 * k + 1)
    verdict = deciders[0](vals) if deciders[0] else None
    if verdict is None:
        verdict = _holds_below(1, (table.rows, table.inverses, levels), env, vals)
    if verdict:
        return SentenceCheck(True, None)
    witness = tuple(env[1 : k + 1])
    # counterexamples are re-evaluated before being handed back
    if _truth(sentence.body, witness, table):
        raise AssertionError("internal error: counterexample does not falsify the body")
    return SentenceCheck(False, witness)


def evaluate_body(table: FiniteGroupTable, body: Formula, assignment) -> bool:
    """Plain evaluation of a quantifier-free body at a full assignment."""
    if _max_variable(body) > len(assignment):
        raise ValueError("assignment does not bind every variable")
    return _truth(body, tuple(assignment), table)


# ---------------------------------------------------------------------------
# Built-in sentences


def _implication(k: int, hypotheses, conclusion) -> UniversalSentence:
    """forall x_1..x_k : (every hypothesis) -> conclusion; an atom is (left, right[, positive])."""

    def atom(left, right, positive=True):
        return Atom(free_reduce(left, k), free_reduce(right, k), positive)

    body = Implies(And(tuple([atom(*h) for h in hypotheses])), atom(*conclusion))
    return UniversalSentence(k, body)


def _sentences() -> dict[str, UniversalSentence]:
    x, y, z, t, u = 1, 2, 3, 4, 5
    one, x1, y1, xx, yy = (), (x,), (y,), (x, x), (y, y)
    xz, zx, yt, ty = (x, z), (z, x), (y, t), (t, y)
    return {
        # every pair of non-involutions commutes
        "P1": _implication(2, [(xx, one, False), (yy, one, False)], ((x, y), (y, x))),
        # a non-central involution conjugates every non-involution to its inverse
        "P2": _implication(
            3, [(x1, one, False), (xx, one), (yy, one, False), (xz, zx, False)], ((-x, y, x), (-y,))
        ),
        # the product of two commuting non-central involutions is central
        "P3": _implication(
            5,
            [(xz, zx, False), (yt, ty, False), (xx, one), (yy, one), ((x, y, x, y), one)],
            ((x, y, u), (u, x, y)),
        ),
        # at most one central element of order 2
        "P4": _implication(
            4,
            [(x1, one, False), (xx, one), (y1, one, False), (yy, one), ((z, z), one, False),
             ((t, t), one, False), (xz, zx), (yt, ty)],
            (x1, y1),
        ),
    }


BUILTIN_SENTENCES = _sentences()


def builtin_sentence(name: str) -> UniversalSentence:
    try:
        return BUILTIN_SENTENCES[name.upper().lstrip("@")]
    except KeyError:
        raise ValueError(f"unknown built-in sentence {name!r}") from None


# ---------------------------------------------------------------------------
# The squared transform


def _square_word(word: Word) -> Word:
    return free_reduce([ell for ell in word.letters for _ in (0, 1)], word.arity)


def _square_formula(formula: Formula) -> Formula:
    if isinstance(formula, Atom):
        return Atom(_square_word(formula.left), _square_word(formula.right), formula.positive)
    if isinstance(formula, Not):
        return Not(_square_formula(formula.child))
    if isinstance(formula, (And, Or)):
        return type(formula)(tuple([_square_formula(c) for c in formula.children]))
    return Implies(_square_formula(formula.hypothesis), _square_formula(formula.conclusion))


def squared_sentence(sentence: UniversalSentence) -> UniversalSentence:
    """Substitute x_i^2 for every variable occurrence.

    The result holds in G exactly when the original sentence holds with
    witnesses ranging over the set of squares.
    """
    return UniversalSentence(sentence.variables, _square_formula(sentence.body))
