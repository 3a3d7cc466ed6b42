"""Acceptance suite: one test per criterion, with stated time budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every expected value is exact; budgets are wall-clock.
"""

import json
import random
import time
from pathlib import Path

from mgs.abelian import AbelianGroup, canonical_invariant_factors, cyclic_residual_quotient
from mgs.classify import (
    canonical_marking,
    count_marking_classes,
    decide_marking_equivalence,
    enumerate_markings,
    free_by_flip,
    reflection_index_set,
)
from mgs.closure_map import emit_closure_map
from mgs.dihedral import GenDihedralGroup, is_generating_dih, materialize_table
from mgs.logic import builtin_sentence, evaluate_body, holds_in
from mgs.tables import load_fixture, recognize_generalized_dihedral
from mgs.topology import (
    MarkedGroup,
    _compare_profiles,
    accumulation_witness,
    agreement_radius,
    cb_rank,
    closure_characteristic,
    dihedral_residual_witness,
    is_limit_of_dihedral,
)
from helpers import abelian_groups_up_to, closure_of_elements, random_element

DATA = Path(__file__).parent / "data"


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f}s / budget {self.seconds}s)")
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its time budget: {elapsed:.2f}s"
            )
        else:
            print(f"ACCEPTANCE {self.name}: FAIL after {elapsed:.2f}s")
        return False


def dihedral_table(n):
    return materialize_table(GenDihedralGroup(AbelianGroup(0, (n,))))


def dihedral_marked(n):
    if n is None:
        g = GenDihedralGroup(AbelianGroup(1))
    else:
        g = GenDihedralGroup(AbelianGroup(0, (n,)))
    return MarkedGroup(g, (g.reflection([0]), g.rotation([1])))


def cyclic_marked(k):
    if k is None:
        g = AbelianGroup(1)
        return MarkedGroup(g, (g.element((1,)),))
    g = AbelianGroup(0, (k,))
    return MarkedGroup(g, (g.element((), (1,)),))


def test_criterion_1_marking_classification():
    with Budget("1 marking classification", 10):
        for n in range(3, 11):
            classes = enumerate_markings(dihedral_table(n), 2)
            assert len(classes) == 3
            assert {frozenset(c.involutions) for c in classes} == {
                frozenset({1, 2}),
                frozenset({1}),
                frozenset({2}),
            }
        assert len(enumerate_markings(dihedral_table(2), 2)) == 1


def test_criterion_2_orbit_count_and_canonical_witnesses():
    with Budget("2 orbit count / canonical witnesses", 30):
        assert count_marking_classes(2) == 3
        assert count_marking_classes(3) == 7
        assert count_marking_classes(4) == 15
        rng = random.Random(20260810)
        for arity in (2, 3):
            group = free_by_flip(arity)
            base = group.base
            verified = 0
            while verified < 200:
                tup = tuple(
                    group.element(
                        base.element(
                            tuple(rng.randint(-3, 3) for _ in range(arity - 1))
                        ),
                        rng.randint(0, 1),
                    )
                    for _ in range(arity)
                )
                if not is_generating_dih(group, tup):
                    continue
                canon = canonical_marking(arity, reflection_index_set(tup))
                phi = decide_marking_equivalence(tup, canon)
                assert phi is not None
                assert phi.apply_tuple(tup) == canon
                verified += 1


def test_criterion_3_convergence_radii():
    with Budget("3 convergence radii", 60):
        limit = dihedral_marked(None)
        for n in range(3, 11):
            member = dihedral_marked(n)
            enum = agreement_radius(member, limit, 10, method="enumerate")
            assert enum == n - 1
            assert _compare_profiles(member, limit, 10)[0] == enum
        z_limit = cyclic_marked(None)
        for k in range(3, 11):
            member = cyclic_marked(k)
            enum = agreement_radius(member, z_limit, 10, method="enumerate")
            assert enum == k - 1
            assert _compare_profiles(member, z_limit, 10)[0] == enum


def test_criterion_4_sentences():
    with Budget("4 universal sentences", 60):
        for n in range(3, 9):
            table = dihedral_table(n)
            for name in ("P1", "P2", "P3", "P4"):
                assert holds_in(table, builtin_sentence(name), budget=10**8).holds
        for base in abelian_groups_up_to(16):
            table = materialize_table(GenDihedralGroup(base))
            for name in ("P1", "P2", "P3"):
                assert holds_in(table, builtin_sentence(name), budget=10**8).holds
        t44 = materialize_table(GenDihedralGroup(AbelianGroup(0, (4, 4))))
        p4 = holds_in(t44, builtin_sentence("P4"), budget=10**8)
        assert not p4.holds and p4.counterexample is not None
        assert evaluate_body(t44, builtin_sentence("P4").body, p4.counterexample) is False
        a4 = load_fixture("A4")
        p1 = holds_in(a4, builtin_sentence("P1"))
        assert not p1.holds and p1.counterexample is not None
        assert evaluate_body(a4, builtin_sentence("P1").body, p1.counterexample) is False


def test_criterion_5_limit_decisions():
    with Budget("5 limit decisions", 1):
        from mgs.abelian import is_limit_of_cyclic

        assert is_limit_of_cyclic(canonical_invariant_factors([None, 6]))
        assert not is_limit_of_cyclic(AbelianGroup(0, (2, 4)))
        assert is_limit_of_dihedral(
            GenDihedralGroup(canonical_invariant_factors([None, 6]))
        ).value
        assert not is_limit_of_dihedral(GenDihedralGroup(AbelianGroup(0, (2, 4)))).value
        assert is_limit_of_dihedral(GenDihedralGroup(AbelianGroup(0, ()))).value
        assert is_limit_of_dihedral(GenDihedralGroup(AbelianGroup(0, (2,)))).value


def test_criterion_6_residual_witnesses():
    with Budget("6 residual witnesses", 10):
        rng = random.Random(64)
        done = 0
        while done < 200:
            r = rng.randint(0, 3)
            k = rng.randint(1, 30)
            group = canonical_invariant_factors([None] * r + ([k] if k > 1 else []))
            elements = []
            for _ in range(rng.randint(1, 5)):
                x = random_element(rng, group, span=15)
                if not x.is_identity():
                    elements.append(x)
            if not elements:
                continue
            quotient = cyclic_residual_quotient(group, elements)
            assert all(quotient(x) != 0 for x in elements)
            assert quotient.is_surjective()
            assert quotient.modulus % group.torsion_order() == 0
            # the dihedral route on the same data
            dih = GenDihedralGroup(group)
            if not dih.is_abelian():
                mixed = [dih.rotation(x) for x in elements]
                mixed.append(dih.reflection(group.identity()))
                witness = dihedral_residual_witness(dih, mixed)
                assert all(not witness(x).is_identity() for x in mixed)
                assert witness.target.order() == 2 * witness.half_order
            done += 1


def test_criterion_7_generation_oracle():
    with Budget("7 generation oracle", 30):
        rng = random.Random(7)
        from helpers import random_abelian_group

        done = 0
        while done < 500:
            base = random_abelian_group(rng, max_order=60)
            group = GenDihedralGroup(base)
            tup = tuple(
                group.element(random_element(rng, base), rng.randint(0, 1))
                for _ in range(rng.randint(1, 4))
            )
            brute = (
                len(closure_of_elements(group.identity(), tup))
                == 2 * base.torsion_order()
            )
            assert is_generating_dih(group, tup) == brute
            done += 1


def _canonical_dihedral_marking(r, k):
    base = canonical_invariant_factors([None] * r + ([k] if k > 1 else []))
    group = GenDihedralGroup(base)
    gens = [group.reflection(base.identity())]
    gens.extend(group.rotation(base.free_generator(i)) for i in range(base.free_rank))
    gens.extend(
        group.rotation(base.torsion_generator(i)) for i in range(base.torsion_rank)
    )
    return MarkedGroup(group, tuple(gens))


def test_criterion_8_cb_ranks_and_witnesses():
    with Budget("8 CB ranks / accumulation witnesses", 60):
        for r in range(0, 4):
            for k in (1, 2, 6):
                group = GenDihedralGroup(
                    canonical_invariant_factors([None] * r + ([k] if k > 1 else []))
                )
                assert cb_rank(group, "dihedral-closure") == r
        for r in range(1, 4):
            for k in (1, 2, 6):
                marked = _canonical_dihedral_marking(r, k)
                witness = accumulation_witness(marked, 5)
                assert len(witness.members) == 5
                radii = witness.report.radii
                assert all(a < b for a, b in zip(radii, radii[1:])), radii
                assert len(witness.separators) == 10
                for (i, j), word in witness.separators.items():
                    assert witness.members[i].is_relation(word)
                    assert not witness.members[j].is_relation(word)


def test_criterion_9_closure_map_and_characteristics():
    with Budget("9 closure map / characteristic systems", 60):
        json_text, dot_text = emit_closure_map(range(3, 9), r_max=8)
        assert json_text == (DATA / "closure_map_3_8.json").read_text()
        assert dot_text == (DATA / "closure_map_3_8.dot").read_text()
        payload = json.loads(json_text)
        assert payload["accumulation_points"] == 3
        limits = [n for n in payload["nodes"] if n["kind"] == "limit"]
        assert len(limits) == 3
        # every pair is certified distinct; word certificates verify
        from mgs.dsl import parse_marked, parse_word

        markings = {n["id"]: parse_marked(n["marking"]) for n in payload["nodes"]}
        assert len(payload["distinctness"]) == len(markings) * (len(markings) - 1) // 2
        for cert in payload["distinctness"]:
            a, b = (markings[x] for x in cert["pair"])
            if cert["certificate"] == "separating-word":
                word = parse_word(cert["word"], arity=2)
                assert a.is_relation(word) != b.is_relation(word)
            else:
                pa, pb = cert["patterns"]
                assert pa != pb
        # edge radii equal fresh computations
        for edge in payload["edges"]:
            fresh = agreement_radius(
                markings[edge["source"]], markings[edge["target"]], payload["r_max"]
            )
            assert fresh == edge["agreement_radius"]
        assert closure_characteristic(2, "dihedral").alpha == 1
        assert closure_characteristic(2, "dihedral").points == 3
        assert closure_characteristic(3, "dihedral").alpha == 2
        assert closure_characteristic(3, "dihedral").points == 7
        for m in (1, 2, 3, 4):
            system = closure_characteristic(m, "abelian")
            assert (system.alpha, system.points) == (m, 1)


def test_criterion_10_structure_recognition():
    with Budget("10 structure recognition", 30):
        for base in abelian_groups_up_to(30):
            group = GenDihedralGroup(base)
            outcome = recognize_generalized_dihedral(materialize_table(group))
            if group.is_abelian():
                assert outcome.kind == "abelian"
            else:
                assert outcome.kind == "generalized-dihedral"
                assert outcome.base == base
        assert recognize_generalized_dihedral(load_fixture("Q8")).kind == "no"
        assert recognize_generalized_dihedral(load_fixture("D4")).kind == "abelian"


# ---------------------------------------------------------------------------
# Ball comparison through relation lattices: windows that visiting every
# profile of norm <= r_max could not reach


def _dist(capsys, a, b, r_max):
    from mgs.cli import main

    capsys.readouterr()
    assert main(["dist", a, b, "--rmax", str(r_max)]) == 0
    return capsys.readouterr().out


_Z5 = "Z^5:(1,0,0,0,0),(0,1,0,0,0),(0,0,1,0,0),(0,0,0,1,0),(0,0,0,0,1)"
_FIVE_COORDS = ":(1,0,0,0,0),(0,1,0,0,0),(0,0,1,0,0),(0,0,0,1,0),(0,0,0,0,1)"
_FIVE_COORDS_PRINTED = ":(1,0,0,0;0),(0,1,0,0;0),(0,0,1,0;0),(0,0,0,1;0),(0,0,0,0;1)"


def test_huge_windows_answer_at_once(capsys):
    cases = [
        ("Z^2:(1,0),(0,1)", "Z^2:(0,1),(1,0)", 10**9, None),
        ("Z/2:(1)", "Z/2:(1)", 10**9, None),
        ("Z:(1)", "Z/1009:(1)", 1008, "g1^1009"),
    ]
    for a, b, radius, word in cases:
        with Budget(f"dist {a} {b} --rmax 1000000000", 1):
            payload = json.loads(_dist(capsys, a, b, 10**9))
        assert payload["agreement_radius"] == radius
        assert payload["separating_word"] == word
        assert payload["exact"] == (word is not None)


def test_z5_against_z4_by_z29_is_pinned(capsys):
    for r_max, radius, exact, distance, word in (
        (28, 28, "false", "0.0", "null"),
        (29, 28, "true", "1.862645149230957e-09", '"g5^29"'),
    ):
        with Budget(f"dist Z^5 Z^4 x Z/29 --rmax {r_max}", 10):
            out = _dist(capsys, _Z5, "Z^4 x Z/29" + _FIVE_COORDS, r_max)
        assert out == (
            "{\n"
            f'  "a": "{_Z5}",\n'
            f'  "b": "Z^4 x Z/29{_FIVE_COORDS_PRINTED}",\n'
            f'  "r_max": {r_max},\n'
            f'  "agreement_radius": {radius},\n'
            f'  "exact": {exact},\n'
            f'  "distance": {distance},\n'
            f'  "separating_word": {word}\n'
            "}\n"
        )


def test_z5_against_z4_by_z1009_past_the_profile_loop(capsys):
    from mgs.dsl import parse_marked, parse_word

    a, b = _Z5, "Z^4 x Z/1009" + _FIVE_COORDS
    with Budget("dist Z^5 Z^4 x Z/1009 --rmax 2000", 10):
        payload = json.loads(_dist(capsys, a, b, 2000))
    assert payload["agreement_radius"] == 1008
    word = parse_word(payload["separating_word"], arity=5)
    assert len(word) == 1009
    assert parse_marked(a).is_relation(word) != parse_marked(b).is_relation(word)


def test_accumulation_witnesses_with_large_primes_are_pinned():
    from mgs.dsl import parse_marked

    cases = [
        ("Z^4:(1,0,0,0),(0,1,0,0),(0,0,1,0),(0,0,0,1)", 8, (2, 4, 6, 10, 12, 16, 18, 22)),
        ("Dih(Z^3):a,b,c,d", 10, (2, 4, 6, 10, 12, 16, 18, 22, 28, 30)),
    ]
    for text, count, radii in cases:
        with Budget(f"accumulation witness of {text}, count {count}", 10):
            witness = accumulation_witness(parse_marked(text), count)
        assert witness.primes == (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)[:count]
        assert witness.report.radii == radii
        assert witness.report.consistent()
        assert {pair: str(word) for pair, word in witness.separators.items()} == {
            (i, j): f"g4^{p}" for i, p in enumerate(witness.primes) for j in range(i + 1, count)
        }


def test_long_markings_are_built_fast():
    from mgs.dsl import parse_marked

    for text in ("Z:(1)" + ",(0)" * 1099, "Dinf:a,b" + ",rot(0)" * 1098):
        with Budget(f"parse_marked of {text[:12]}... ({text.count(',') + 1} entries)", 1):
            marked = parse_marked(text)
        assert marked.arity == 1100


def test_long_lattices_are_walked_without_recursion(capsys):
    import sys

    a, b = "Z/2:(1)" + ",(0)" * 299, "Z/1:(0)" + ",(0)" * 299
    limit = sys.getrecursionlimit()
    # a walk that recursed once per lattice row would need 300 frames
    sys.setrecursionlimit(250)
    try:
        with Budget("dist of 300-entry markings under a recursion limit of 250", 10):
            payload = json.loads(_dist(capsys, a, b, 3))
    finally:
        sys.setrecursionlimit(limit)
    assert payload["agreement_radius"] == 0
    assert payload["separating_word"] == "g1"


def test_classify_of_the_trivial_group_at_a_huge_arity_fails_fast(capsys):
    from mgs.cli import main

    capsys.readouterr()
    with Budget("classify Z/1 --arity 1000000000", 1):
        code = main(["classify", "Z/1", "--arity", "1000000000"])
        out, err = capsys.readouterr()
    assert code == 1 and out == "" and err.count("\n") == 1
    assert json.loads(err) == {
        "error": "1^1000000000 tuples of 1000000000 entries exceed the enumeration budget"
    }
