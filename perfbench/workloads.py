"""Seeded query lists for the four benchmark workloads, with output checks.

A workload is built as one *round*: a fixed list of query slots.  The
seed picks the inputs of each slot (generating tuples, relabelings of
tables, involution patterns, random sentences), but only among inputs
that are images of one another under a group automorphism or a
relabeling of a table.  Such images have the same relation balls and
the same answers up to renaming.  Relabelings keep the index order
inside each class of elements of equal order, so the table searches
take the same path too.  A slot's size, such as a group's
factorization, is fixed by the slot and not drawn from the seed.  So
a slot costs the same on every seed while its concrete inputs and
outputs differ.  That is what lets ten seeds be compared against one
bound.

Every query is a ``Query``: ``call()`` is the timed part and returns the
raw result, ``render(raw)`` turns it into the canonical text whose
digest is compared across rounds and against the recorded outputs of
the default seed, and ``check(raw)`` runs the independent checks that
need no recording.  ``call()`` builds its input objects (tables, marked
groups, parsed markings and sentences) from plain data each time, so
whatever mgs caches on such an object is paid on every run.  Only this
module knows how the workloads look.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

WORKLOADS = ("radii-words", "radii-profile", "sentences", "markings")
SIZES = ("full", "smoke")
DEFAULT_SEED = 1
ROOT = Path(__file__).resolve().parent.parent


class CheckFailed(Exception):
    """An output failed an independent check."""


class Query:
    __slots__ = ("qid", "name", "call", "render", "check")

    def __init__(self, qid, name, call, render=str, check=None):
        self.qid = qid
        self.name = name
        self.call = call
        self.render = render
        self.check = check


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def cli_call(argv):
    """Run ``mgs.cli.main(argv)`` in process and return its stdout."""
    from mgs import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    if rc != 0:
        raise RuntimeError(f"mgs {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def build(workload: str, seed: int, size: str) -> list[Query]:
    """Parse and build the round of one workload; this is benchmark set-up."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(f"{workload}/{seed}")
    make = {
        "radii-words": _radii_words,
        "radii-profile": _radii_profile,
        "sentences": _sentences,
        "markings": _markings,
    }[workload]
    specs = make(rng, size == "smoke")
    return [Query(i, *spec) for i, spec in enumerate(specs)]


# ---------------------------------------------------------------------------
# Shared helpers


def _unit(rng, n):
    return rng.choice([k for k in range(1, n) if math.gcd(k, n) == 1])


def _relabel(table, rng):
    """A seeded isomorphic copy of a table; index 0 stays the identity.

    The seed picks how the classes of elements of equal order interleave
    in the new indices; inside a class the old index order is kept.
    Searches that scan candidates by (order, index), such as the choice
    of generators in ``automorphism_group``, so take the same path on
    every seed.
    """
    from mgs.tables import FiniteGroupTable

    n = table.order
    orders = [table.element_order(i) for i in range(n)]
    free = list(range(1, n))
    rng.shuffle(free)
    perm = [0] * n
    taken = 0
    for order in sorted(set(orders[1:])):
        members = [i for i in range(1, n) if orders[i] == order]
        for i, new in zip(members, sorted(free[taken : taken + len(members)])):
            perm[i] = new
        taken += len(members)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[perm[i]][perm[j]] = perm[table.rows[i][j]]
    labels = [""] * n
    for i in range(n):
        labels[perm[i]] = table.labels[i]
    return FiniteGroupTable(n, tuple(tuple(r) for r in rows), tuple(labels))


def _fresh(table):
    """A new table object over the same rows.

    Queries build their input objects inside the timed call, so that
    whatever mgs caches on an input object is paid on every run.
    """
    from mgs.tables import FiniteGroupTable

    return FiniteGroupTable(table.order, table.rows, table.labels)


def _separating_check(a, b, expected_radius=None, r_max=None):
    """Checks a (radius, witness) answer for markings a and b.

    With ``r_max`` given, a witness must exist exactly when the expected
    radius lies below the tested window.
    """
    from mgs.words import Word

    def check(result):
        radius, word = result
        if expected_radius is not None:
            require(radius == expected_radius, f"radius {radius}, expected {expected_radius}")
        if r_max is not None:
            require((word is None) == (radius == r_max), f"witness {word} at radius {radius}")
        if word is None:
            return
        require(isinstance(word, Word), "witness is not a word")
        require(len(word) == radius + 1, f"witness {word} has length {len(word)}, radius {radius}")
        require(
            a.is_relation(word) != b.is_relation(word),
            f"witness {word} is a relation in both markings or in neither",
        )

    return check


def _cli_dist_check(expected_radius=None):
    def check(text):
        from mgs import dsl

        payload = json.loads(text)
        a, b = dsl.parse_marked(payload["a"]), dsl.parse_marked(payload["b"])
        word = payload["separating_word"]
        radius = payload["agreement_radius"]
        parsed = None if word is None else dsl.parse_word(word, a.arity)
        _separating_check(a, b, expected_radius, payload["r_max"])((radius, parsed))
        require(payload["exact"] == (word is not None), "exact flag disagrees with the witness")

    return check


def _dih_literal(kind, free, torsion):
    inner = ",".join(map(str, free))
    if torsion:
        inner = (inner + ";" if free else "") + ",".join(map(str, torsion))
    return f"{kind}({inner or '0'})"


def _dih_marking(rng, free, factors):
    """A seeded automorphic image of the marking ``Dih(A):a,b,c,...``.

    The reflection is translated by a random v and each basis rotation
    may be inverted; both are automorphisms of Dih(A) that also commute
    with collapsing the last free coordinate.
    """
    group = _group_text(free, factors)
    v_free = [rng.randint(-3, 3) for _ in range(free)]
    v_tors = [rng.randrange(d) for d in factors]
    gens = [_dih_literal("ref", v_free, v_tors)]
    rank = free + len(factors)
    for i in range(rank):
        coords = [0] * rank
        coords[i] = rng.choice((1, -1))
        gens.append(_dih_literal("rot", coords[:free], coords[free:]))
    return f"Dih({group}):" + ",".join(gens)


def _ab_marking(rng, free, factors):
    """A seeded image of the standard basis marking under coordinate sign flips."""
    rank = free + len(factors)
    gens = []
    for i in range(rank):
        coords = [0] * rank
        coords[i] = rng.choice((1, -1))
        gens.append(_dih_literal("", coords[:free], coords[free:]))
    return f"{_group_text(free, factors)}:" + ",".join(gens)


def _group_text(free, factors):
    parts = []
    if free == 1:
        parts.append("Z")
    elif free > 1:
        parts.append(f"Z^{free}")
    parts.extend(f"Z/{d}" for d in factors)
    return " x ".join(parts)


# ---------------------------------------------------------------------------
# radii-words: the reduced-word enumeration route


def _separate(a, b, r_max):
    """(agreement radius, separating word) through the public enumeration route."""
    from mgs import topology

    word = topology.separating_word(a, b, r_max, method="enumerate")
    return (r_max if word is None else len(word) - 1), word


def _dihedral_pair(table, n, rng):
    """A seeded (reflection, rotation of order n) pair of a D2n table."""
    order = [table.element_order(i) for i in range(table.order)]
    rotations = [i for i in range(table.order) if order[i] == n]
    rot = rng.choice(rotations)
    cyclic = table.closure([rot])
    reflections = [i for i in range(table.order) if i not in cyclic]
    return rng.choice(reflections), rot


def _radii_words(rng, smoke):
    from mgs import dsl, tables, topology

    dinf = dsl.parse_marked("Dinf:a,b")
    specs = []

    def table_vs_dinf(n, r_max):
        table = tables.load_fixture(f"D{2 * n}")
        gens = _dihedral_pair(table, n, rng)
        marked = topology.MarkedGroup(table, gens)
        # D2n and Dinf agree up to radius n - 1 and no further
        expected = n - 1 if r_max >= n else r_max

        def call():
            fresh = topology.MarkedGroup(_fresh(table), gens)
            return _separate(fresh, dsl.parse_marked("Dinf:a,b"), r_max)

        specs.append(
            (
                f"sep D{2 * n} Dinf r{r_max}",
                call,
                lambda res: f"{res[0]} {res[1]}",
                _separating_check(marked, dinf, expected, r_max),
            )
        )

    for n in (3, 4, 5) if smoke else (3, 4, 5, 6, 7, 8, 9, 10, 11):
        table_vs_dinf(n, n)
    if not smoke:
        table_vs_dinf(12, 10)

    # Dih(Z/4 x Z/4) as a table against its dihedral marking
    table = tables.load_fixture("DihZ4xZ4")
    target = dsl.parse_marked("Dih(Z/4 x Z/4):a,b,c")
    index = {label: i for i, label in enumerate(table.labels)}

    def basis_pair():
        while True:
            m = [[rng.randrange(4) for _ in range(2)] for _ in range(2)]
            if (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % 2:
                return (m[0][0], m[1][0]), (m[0][1], m[1][1])

    def label(kind, v):
        return f"{kind}({v[0]},{v[1]})"

    for same_pattern in (True, False) if smoke else (True, True, False):
        v = (rng.randrange(4), rng.randrange(4))
        u1, u2 = basis_pair()
        if same_pattern:
            gens = (label("ref", v), label("rot", u1), label("rot", u2))
        else:
            w = ((v[0] + u1[0]) % 4, (v[1] + u1[1]) % 4)
            gens = (label("ref", v), label("ref", w), label("rot", u2))
        gens = tuple(index[g] for g in gens)
        marked = topology.MarkedGroup(table, gens)
        r_max = 4 if smoke else 6

        def call(gens=gens, r_max=r_max):
            fresh = topology.MarkedGroup(_fresh(table), gens)
            return _separate(fresh, dsl.parse_marked("Dih(Z/4 x Z/4):a,b,c"), r_max)

        specs.append(
            (
                f"sep DihZ4xZ4 {'same' if same_pattern else 'mixed'} r{r_max}",
                call,
                lambda res: f"{res[0]} {res[1]}",
                # an automorphic image has the very same ball
                _separating_check(marked, target, r_max if same_pattern else 1, r_max),
            )
        )

    for n in (5,) if smoke else (5, 7, 9):
        text = f"Dih(Z/{n}):ref({rng.randrange(n)}),rot({_unit(rng, n)})"
        argv = ("dist", text, "Dinf:a,b", "--rmax", str(n), "--method", "enumerate")
        specs.append(
            (f"cli dist Dih(Z/{n}) enumerate", lambda argv=argv: cli_call(argv), str, _cli_dist_check(n - 1))
        )

    def ball_check(marked):
        def check(ball):
            require(ball.relations[0].is_identity(), "ball does not start with the empty word")
            for word in ball.relations:
                require(marked.is_relation(word), f"{word} is listed but is not a relation")

        return check

    def render_ball(ball):
        return "\n".join(str(w) for w in ball.relations)

    balls = [(f"Dinf:ref({rng.randint(-5, 5)}),rot({rng.choice((1, -1))})", 6 if smoke else 9)]
    if not smoke:
        m = rng.choice(((1, 0, 0, 1), (1, 1, 0, 1), (2, 1, 1, 1), (1, 2, 1, 3), (0, 1, 1, 0)))
        v = (rng.randint(-3, 3), rng.randint(-3, 3))
        balls.append(
            (f"Dih(Z^2):ref({v[0]},{v[1]}),rot({m[0]},{m[2]}),rot({m[1]},{m[3]})", 5)
        )
        balls.append((f"Dih(Z/6):ref({rng.randrange(6)}),rot({rng.choice((1, 5))})", 8))
    for text, radius in balls:
        marked = dsl.parse_marked(text)
        specs.append(
            (
                f"ball {text.split(':')[0]} R{radius}",
                lambda text=text, radius=radius: topology.relation_ball(dsl.parse_marked(text), radius),
                render_ball,
                ball_check(marked),
            )
        )
    n = 4 if smoke else 7
    text = f"Dih(Z/{n}):ref({rng.randrange(n)}),rot({_unit(rng, n)})"
    argv = ("ball", text, "--radius", str(n + 1))
    specs.append((f"cli ball Dih(Z/{n}) R{n + 1}", lambda: cli_call(argv), str, None))
    return specs


# ---------------------------------------------------------------------------
# radii-profile: the profile route and abelian arithmetic


def _accumulation_check(result):
    report = result.report
    require(report.consistent(), f"accumulation report is {report.verdict}")
    require(list(report.radii) == sorted(report.radii), "radii are not nondecreasing")
    for (i, j), word in result.separators.items():
        require(result.members[i].is_relation(word), f"separator {word} fails on member {i}")
        require(not result.members[j].is_relation(word), f"separator {word} fails on member {j}")
        require(not result.target.is_relation(word), f"separator {word} is a relation of the target")


def _render_accumulation(result):
    seps = sorted((i, j, str(w)) for (i, j), w in result.separators.items())
    return json.dumps(
        {"primes": result.primes, "report": result.report.to_json(), "separators": seps}
    )


def _radii_profile(rng, smoke):
    from mgs import dsl, topology

    specs = []
    accumulations = (
        [("ab", 1, (), 6), ("dih", 1, (), 2), ("dih", 2, (), 2)]
        if smoke
        else [
            ("ab", 2, (), 6),
            ("ab", 1, (6,), 6),
            ("ab", 3, (), 2),
            ("ab", 2, (6,), 2),
            ("ab", 2, (6,), 6),
            ("dih", 1, (), 6),
            ("dih", 2, (), 6),
            ("dih", 1, (6,), 6),
            ("dih", 3, (), 2),
            ("dih", 2, (6,), 2),
            ("dih", 3, (6,), 1),
        ]
    )
    for kind, free, factors, count in accumulations:
        maker = _ab_marking if kind == "ab" else _dih_marking
        text = maker(rng, free, factors)
        specs.append(
            (
                f"accumulation {dsl.parse_marked(text).group} k{count}",
                lambda text=text, count=count: topology.accumulation_witness(dsl.parse_marked(text), count),
                _render_accumulation,
                _accumulation_check,
            )
        )

    pairs = (
        [(("dih", 2, ()), ("dih", 1, (7,)), 8)]
        if smoke
        else [
            (("dih", 2, ()), ("dih", 1, (7,)), 8),
            (("dih", 2, ()), ("dih", 1, (15,)), 12),
            (("ab", 3, ()), ("ab", 2, (9,)), 10),
            (("dih", 3, ()), ("dih", 2, (7,)), 8),
            (("dih", 3, ()), ("dih", 2, (11,)), 12),
        ]
    )
    for (ka, fa, ta), (kb, fb, tb), r_max in pairs:
        a = (_ab_marking if ka == "ab" else _dih_marking)(rng, fa, ta)
        b = (_ab_marking if kb == "ab" else _dih_marking)(rng, fb, tb)
        argv = ("dist", a, b, "--rmax", str(r_max))
        specs.append(
            (f"cli dist {a.split(':')[0]} {b.split(':')[0]} r{r_max}", lambda argv=argv: cli_call(argv), str, _cli_dist_check())
        )

    v, s = rng.randint(0, 2), rng.choice((1, -1))
    hi = 6 if smoke else 10
    argv = (
        "converge", "--family", f"Dih(Z/N):ref({v}),rot({s})", "--limit", "Dinf:a,b", "--range", f"3..{hi}",
    )

    def converge_check(text):
        payload = json.loads(text)
        require(payload["verdict"] == "consistent-with-convergence", "D2n do not converge to Dinf")
        require(payload["radii"] == [n - 1 for n in range(3, hi + 1)], "D2n radii are not n - 1")

    specs.append(("cli converge Dih(Z/N) Dinf", lambda: cli_call(argv), str, converge_check))
    if not smoke:
        t = rng.randrange(6)
        argv2 = (
            "converge",
            "--family",
            f"Dih(Z x Z/N):ref(0;{t}),rot(1;0),rot(0;1)",
            "--limit",
            "Dih(Z^2):a,b,c",
            "--range",
            "3..8",
        )
        specs.append(("cli converge Dih(Z x Z/N)", lambda: cli_call(argv2), str, None))

    golden = ROOT / "tests" / "data"
    for ext, extra in (("json", ()), ("dot", ("--dot",))):
        argv3 = ("closure-map", "--range", "3..8") + extra
        path = golden / f"closure_map_3_8.{ext}"

        def golden_check(text, path=path):
            require(text == path.read_text(), f"closure map differs from {path.name}")

        specs.append((f"cli closure-map {ext}", lambda argv3=argv3: cli_call(argv3), str, golden_check))
    return specs


# ---------------------------------------------------------------------------
# sentences: model checking of universal sentences


VARIABLES = ("x", "y", "z", "t", "u")


def _random_term(rng, k, length):
    """A random freely reduced term text using each of the k variables."""
    letters = []
    while True:
        letters.clear()
        for _ in range(length):
            while True:
                v = rng.randrange(k) + 1
                ell = v if rng.random() < 0.6 else -v
                if not letters or letters[-1] != -ell:
                    letters.append(ell)
                    break
        if {abs(l) for l in letters} == set(range(1, k + 1)):
            return letters


def _term_text(letters):
    if not letters:
        return "1"
    return "*".join(VARIABLES[abs(l) - 1] + ("" if l > 0 else "^-1") for l in letters)


def _inverted(rng, letters, k):
    """The letters after substituting x -> x^-1 for a seeded set of variables.

    The substitution is an automorphism of the free group, so it keeps
    a term freely reduced and an equation's verdict on every group.
    """
    flip = {v for v in range(1, k + 1) if rng.random() < 0.5}
    return [-l if abs(l) in flip else l for l in letters]


def _identity_sentence(shape, rng, k, length):
    """``forall ... : u = (b^-1 a^-1)^-1`` with u = ab: true in every group.

    ``shape`` draws the term and the cut; ``rng`` only inverts variables.
    """
    letters = _random_term(shape, k, length)
    cut = shape.randrange(1, length)
    letters = _inverted(rng, letters, k)
    a, b = letters[:cut], letters[cut:]
    inverse = [-l for l in reversed(b)] + [-l for l in reversed(a)]
    return f"forall {' '.join(VARIABLES[:k])} : {_term_text(letters)} = ({_term_text(inverse)})^-1"


def _random_sentence(shape, rng, k):
    """A random equation between two different terms; usually false early.

    ``shape`` draws the terms; ``rng`` only inverts variables.
    """
    while True:
        left = _random_term(shape, k, shape.randint(k, k + 2))
        right = _random_term(shape, k, shape.randint(k, k + 2))
        if left != right:
            break
    both = _inverted(rng, left + right, k)
    left, right = both[: len(left)], both[len(left) :]
    return f"forall {' '.join(VARIABLES[:k])} : {_term_text(left)} = {_term_text(right)}"


def _sentences(rng, smoke):
    from mgs import dihedral, dsl, logic, tables

    specs = []
    fixtures = {}

    def table(name):
        if name not in fixtures:
            if name.startswith("Dih("):
                base = dihedral.materialize_table(dsl.parse_group(name))
            else:
                base = tables.load_fixture(name)
            fixtures[name] = _relabel(base, rng)
        return fixtures[name]

    def check_sentence(structure, must_hold):
        def check(result):
            t, sentence, res = result
            if must_hold:
                require(res.holds, f"sentence fails on {structure}")
            if not res.holds:
                require(res.counterexample is not None, "failing check without a counterexample")
                require(
                    not logic.evaluate_body(t, sentence.body, res.counterexample),
                    f"counterexample {res.counterexample} does not falsify the body",
                )

        return check

    def render(result):
        t, _, res = result
        if res.holds:
            return "holds"
        return "fails at " + ",".join(t.labels[i] for i in res.counterexample)

    def add(structure, text, must_hold, label, squared=False):
        t = table(structure)

        def call():
            fresh = _fresh(t)
            sentence = dsl.parse_sentence(text)
            if squared:
                sentence = logic.squared_sentence(sentence)
            return fresh, sentence, logic.holds_in(fresh, sentence, budget=10**9)

        name = f"check {'squared ' if squared else ''}{label} on {structure}"
        specs.append((name, call, render, check_sentence(structure, must_hold)))

    dihedral_tables = ("D6", "D8", "D12") if smoke else ("D6", "D8", "D10", "D12", "D16", "D20", "D24")
    for name in dihedral_tables:
        for p in ("@P1", "@P2", "@P4"):
            add(name, p, True, p)
    for name in ("D12",) if smoke else ("D12", "D16", "D20", "D24", "Dih(Z/3 x Z/3)"):
        add(name, "@P3", True, "@P3")
    for name in ("A4", "Q8"):
        for p in ("@P1", "@P2") if smoke else ("@P1", "@P2", "@P3", "@P4"):
            add(name, p, False, p)

    # Random sentences: the terms are drawn once for every seed, because an
    # exhaustive check costs more or less with the shape of its terms; the
    # seed inverts variables and relabels the table.
    shape = random.Random("sentences/shapes/smoke" if smoke else "sentences/shapes")
    # random identities: they hold, so every check is exhaustive
    identities = (
        [("D8", 2, 6, False), ("D6", 3, 5, True)]
        if smoke
        else [
            ("D24", 2, 8, False),
            ("D14", 2, 7, False),
            ("D16", 2, 6, True),
            ("D12", 3, 6, False),
            ("D10", 3, 6, True),
            ("A4", 3, 5, False),
            ("Dih(Z/3 x Z/3)", 3, 5, True),
            ("D8", 4, 6, False),
            ("Q8", 4, 6, False),
            ("D6", 5, 7, False),
        ]
    )
    for structure, k, length, squared in identities:
        add(structure, _identity_sentence(shape, rng, k, length), True, f"identity k{k}", squared)
    # random equations: most fail within a few assignments, and n^k stays
    # small, so one that happens to hold is still cheap
    for structure, k, squared in (
        [("D6", 2, False), ("A4", 3, True)]
        if smoke
        else [
            ("D6", 2, False),
            ("D8", 2, True),
            ("A4", 3, True),
            ("Q8", 3, False),
            ("D6", 4, True),
            ("D4", 5, False),
        ]
    ):
        add(structure, _random_sentence(shape, rng, k), False, f"equation k{k}", squared)
    return specs


# ---------------------------------------------------------------------------
# markings: finite tables, automorphisms, orbits and marking classes


def _closure(rows, gens):
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = rows[x][g]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen)


def _generating_tuples(table, arity):
    from itertools import product

    n = table.order
    return sum(1 for tup in product(range(n), repeat=arity) if _closure(table.rows, tup) == n)


def _markings(rng, smoke):
    from mgs import abelian, classify, dihedral, dsl, tables

    specs = []

    def dih_table(factors):
        return dihedral.materialize_table(dsl.parse_group(f"Dih({_group_text(0, factors)})"))

    def materialize(factors):
        text = f"Dih({_group_text(0, factors)})"
        half = math.prod(factors)

        def check(t):
            require(t.order == 2 * half, f"{text} materialized with order {t.order}")
            full = set(range(t.order))
            require(t.rows[0] == tuple(range(t.order)), "index 0 is not the identity")
            for row in t.rows:
                require(set(row) == full, "a row is not a permutation")

        specs.append(
            (
                f"materialize Dih(order {half})",
                lambda: dihedral.materialize_table(dsl.parse_group(text)),
                lambda t: "\n".join(t.labels) + "\n" + digest(repr(t.rows)),
                check,
            )
        )

    for factors in ((4, 4),) if smoke else ((4, 8), (4, 4), (2, 4)):
        materialize(factors)

    for factors in ((4, 4),) if smoke else ((8, 8), (4, 8)):
        t = _relabel(dih_table(factors), rng)
        raw = [list(r) for r in t.rows]

        def validate_check(v, t=t):
            require(v.rows == t.rows and v.order == t.order, "validated table differs from its input")

        specs.append(
            (
                f"validate Dih(order {math.prod(factors)})",
                lambda raw=raw, labels=t.labels: tables.validate_table(raw, labels),
                lambda v: digest(repr(v.rows)),
                validate_check,
            )
        )

        def recognize_check(r, factors=factors):
            require(r.kind == "generalized-dihedral", f"recognized as {r.kind}")
            require(r.base == abelian.AbelianGroup(0, factors), f"base {r.base}, expected {factors}")

        specs.append(
            (
                f"recognize Dih(order {math.prod(factors)})",
                lambda t=t: tables.recognize_generalized_dihedral(_fresh(t)),
                lambda r: f"{r.kind} {r.base} {r.flip_coset}",
                recognize_check,
            )
        )

    for name in ("D12", "Q8") if smoke else ("D12", "D24", "DihZ4xZ4"):
        t = _relabel(tables.load_fixture(name), rng)
        specs.append(
            (
                f"recognize {name}",
                lambda t=t: tables.recognize_generalized_dihedral(_fresh(t)),
                lambda r: f"{r.kind} {r.base} {r.flip_coset}",
                None,
            )
        )

    def aut_check(n):
        def check(autos):
            # |Aut(D2n)| = n * phi(n) for n >= 3
            phi = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
            require(len(autos) == n * phi, f"{len(autos)} automorphisms, expected {n * phi}")

        return check

    for name, n in (("D12", 6),) if smoke else (("D12", 6), ("D16", 8), ("D24", 12), ("D32", 16)):
        base_table = dih_table((n,)) if name == "D32" else tables.load_fixture(name)
        t = _relabel(base_table, rng)
        specs.append(
            (
                f"automorphisms {name}",
                lambda t=t: tables.automorphism_group(_fresh(t)),
                lambda autos: digest(repr(autos)),
                aut_check(n),
            )
        )
    if not smoke:
        t = _relabel(tables.load_fixture("DihZ4xZ4"), rng)
        specs.append(
            (
                "automorphisms DihZ4xZ4",
                lambda t=t: tables.automorphism_group(_fresh(t)),
                lambda autos: f"{len(autos)} {digest(repr(autos))}",
                None,
            )
        )

    def orbit_check(t, arity):
        def check(classes):
            total = sum(c.orbit_size for c in classes)
            expected = _generating_tuples(t, arity)
            require(total == expected, f"orbit sizes sum to {total}, not {expected}")

        return check

    for name, arity in (
        (("D12", 2), ("Q8", 3))
        if smoke
        else (("D12", 3), ("D16", 3), ("D24", 3), ("A4", 3), ("Q8", 3), ("DihZ4xZ4", 2))
    ):
        t = _relabel(tables.load_fixture(name), rng)
        specs.append(
            (
                f"enumerate markings {name} arity {arity}",
                lambda t=t, arity=arity: classify.enumerate_markings(_fresh(t), arity),
                lambda classes: json.dumps([c.to_json() for c in classes]),
                orbit_check(t, arity),
            )
        )

    def automorphism(m):
        """A seeded automorphism of Z^(m-1) x| Z/2 with entries in {-1, 0, 1}.

        Its matrix is a row permutation of an upper bidiagonal matrix with
        +-1 on both diagonals, so it is unimodular.
        """
        n = m - 1
        upper = [[0] * n for _ in range(n)]
        for i in range(n):
            upper[i][i] = rng.choice((1, -1))
            if i + 1 < n:
                upper[i][i + 1] = rng.choice((1, -1))
        matrix = tuple(tuple(upper[i]) for i in rng.sample(range(n), n))
        return classify.DihAutomorphism(tuple(rng.randint(-3, 3) for _ in range(n)), matrix)

    def marking(m, pattern):
        return automorphism(m).apply_tuple(classify.canonical_marking(m, pattern))

    def equivalence(name, source, target):
        def check(phi):
            same = classify.reflection_index_set(source) == classify.reflection_index_set(target)
            require((phi is not None) == same, "equivalence verdict disagrees with the involution patterns")
            if phi is not None:
                require(phi.apply_tuple(source) == target, "witness does not carry source to target")

        specs.append(
            (
                name,
                lambda: classify.decide_marking_equivalence(source, target),
                lambda phi: "None" if phi is None else f"{phi.translation} {phi.matrix}",
                check,
            )
        )

    # (arity, size of the involution pattern): the seed picks the
    # pattern's positions, and each target is an automorphic image of its
    # source, so these queries build a witness.
    for m, size in (
        ((2, 1), (3, 2))
        if smoke
        else ((2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 4), (6, 3))
    ):
        source = marking(m, rng.sample(range(1, m + 1), size))
        equivalence(f"equivalence m{m}", source, automorphism(m).apply_tuple(source))
    # a target whose pattern is the source's shifted by one position: no witness
    m = 3 if smoke else 6
    pattern = rng.sample(range(1, m + 1), m // 2)
    equivalence(
        f"inequivalence m{m}", marking(m, pattern), marking(m, [i % m + 1 for i in pattern])
    )
    return specs
