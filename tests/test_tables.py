import math
import os
import random
import re
import subprocess
import sys
import time
from itertools import product

import pytest

from mgs.abelian import AbelianGroup
from mgs.classify import enumerate_markings
from mgs.dihedral import GenDihedralGroup, materialize_table
from mgs.tables import (
    TableError,
    abelian_invariant_factors_of,
    automorphism_group,
    dumps_json,
    dumps_text,
    load_fixture,
    loads_json,
    loads_text,
    recognize_generalized_dihedral,
    validate_table,
)

from helpers import (
    FIXTURES,
    abelian_groups_up_to,
    automorphisms_by_permutations,
    groups_up_to,
    product_tables,
    recognize_by_definition,
    relabel,
)

def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def test_validate_cyclic():
    t = validate_table(cyclic_table(3))
    assert t.order == 3
    assert t.inverses == (0, 2, 1)


def test_validate_detects_latin_violation():
    rows = cyclic_table(3)
    rows[1][1], rows[1][2] = rows[1][2], rows[1][1]
    with pytest.raises(TableError, match="not a permutation|associativity"):
        validate_table(rows)


def test_validate_detects_bad_identity():
    rows = [[1, 0], [0, 1]]
    with pytest.raises(TableError, match="identity"):
        validate_table(rows)


def test_validate_detects_associativity():
    # swapping two entries in rows 2 and 3 of Z/5's table breaks column 3
    # before associativity is reached
    rows = cyclic_table(5)
    rows[2][3], rows[2][4] = rows[2][4], rows[2][3]
    rows[3][3], rows[3][4] = rows[3][4], rows[3][3]
    with pytest.raises(TableError, match=r"^column 3 is not a permutation$"):
        validate_table(rows)
    # a Latin square with identity row/column that is not a group: swap the
    # intercalate on rows and columns {1, 4} of Z/6's table (entries 2 and 5)
    rows = cyclic_table(6)
    rows[1][1], rows[1][4] = rows[1][4], rows[1][1]
    rows[4][1], rows[4][4] = rows[4][4], rows[4][1]
    message = "associativity fails at (1,1,2): (1*1)*2 != 1*(1*2)"
    with pytest.raises(TableError, match=f"^{re.escape(message)}$"):
        validate_table(rows)


def first_nonassociative_message(rows):
    """The message of the plain (a,b,c) scan, or None for an associative table."""
    n = len(rows)
    for a, b, c in product(range(n), repeat=3):
        if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
            return f"associativity fails at ({a},{b},{c}): ({a}*{b})*{c} != {a}*({b}*{c})"
    return None


def intercalates(rows):
    """2x2 subsquares away from the identity whose entries are not 0."""
    n = len(rows)
    for r1, r2 in product(range(1, n), repeat=2):
        for c1, c2 in product(range(1, n), repeat=2):
            if r1 < r2 and c1 < c2:
                a, b = rows[r1][c1], rows[r1][c2]
                if rows[r2][c2] == a and rows[r2][c1] == b and 0 not in (a, b):
                    yield r1, r2, c1, c2


def test_validate_names_the_first_failing_triple_of_swapped_intercalates():
    # a swapped intercalate keeps the identity, the Latin property and the
    # inverses, so validation reaches the associativity decision
    rng = random.Random(12)
    failing = 0
    for group in groups_up_to(12) + [load_fixture("Q8"), load_fixture("A4")]:
        table = relabel(group, rng)
        found = list(intercalates(table.rows))
        for r1, r2, c1, c2 in rng.sample(found, min(4, len(found))):
            rows = [list(row) for row in table.rows]
            rows[r1][c1], rows[r1][c2] = rows[r1][c2], rows[r1][c1]
            rows[r2][c1], rows[r2][c2] = rows[r2][c2], rows[r2][c1]
            expected = first_nonassociative_message(rows)
            if expected is None:
                assert validate_table(rows).rows == tuple(map(tuple, rows))
                continue
            failing += 1
            with pytest.raises(TableError) as info:
                validate_table(rows)
            assert str(info.value) == expected
    assert failing >= 50


@pytest.mark.parametrize(
    "raw, labels, message",
    [
        ([], None, "empty table"),
        ([[0, 1], [1]], None, "row 1 has length 1, expected 2"),
        ([[0, 2], [1, 0]], None, "entry at (0,1) is 2, out of range"),
        ([[0, 1], [1, 1]], None, "row 1 is not a permutation"),
        ([[0, 1], [1, 0]], ["a"], "1 labels for 2 elements"),
        (
            [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]],
            None,
            "element 2 has no two-sided inverse",
        ),
    ],
)
def test_validation_messages_are_pinned(raw, labels, message):
    with pytest.raises(TableError) as refused:
        validate_table(raw, labels)
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "load, text, message",
    [
        (loads_text, "# only a comment\n", "empty table file"),
        (loads_text, "2\n0 1\n", "expected 2 rows, found 1"),
        (loads_text, "2\n0 1\n1 0\n1 0\n", "expected 2 rows, found 3"),
        (loads_text, "x\n0 1\n1 0\n", "the first line is the order, one integer, not 'x'"),
        (loads_text, "2\n0 1\n1 a\n", "entry at (1,1) is 'a', not an integer"),
        (loads_json, '{"order": 3, "table": [[0, 1], [1, 0]]}', "declared order does not match the table"),
    ],
)
def test_load_messages_are_pinned(load, text, message):
    with pytest.raises(TableError) as refused:
        load(text)
    assert str(refused.value) == message


def test_validate_assoc_bound():
    with pytest.raises(TableError, match="order 257 exceeds the associativity check bound 256"):
        validate_table(cyclic_table(257))


def test_materialized_d12_is_valid():
    t = materialize_table(GenDihedralGroup(AbelianGroup(0, (6,))))
    again = validate_table(t.rows, t.labels)
    assert again.rows == t.rows


def test_serialization_roundtrip():
    t = materialize_table(GenDihedralGroup(AbelianGroup(0, (4,))))
    assert loads_json(dumps_json(t)).rows == t.rows
    assert loads_text(dumps_text(t)).rows == t.rows


def test_fixtures_match_materialization():
    for n in range(1, 13):
        base = AbelianGroup(0, (n,)) if n > 1 else AbelianGroup(0, ())
        fresh = materialize_table(GenDihedralGroup(base))
        fixture = load_fixture(f"D{2 * n}")
        assert fixture.rows == fresh.rows
        assert fixture.labels == fresh.labels
    assert load_fixture("DihZ4xZ4").rows == materialize_table(
        GenDihedralGroup(AbelianGroup(0, (4, 4)))
    ).rows


def test_fixture_a4_and_q8_are_valid():
    a4 = load_fixture("A4")
    q8 = load_fixture("Q8")
    assert a4.order == 12 and not a4.is_abelian()
    assert q8.order == 8 and not q8.is_abelian()
    assert sorted(a4.element_order(i) for i in range(12)) == [1] + [2] * 3 + [3] * 8
    assert sorted(q8.element_order(i) for i in range(8)) == [1, 2] + [4] * 6


def test_power_takes_negative_exponents():
    q8 = load_fixture("Q8")
    for i in range(q8.order):
        expected = 0
        for n in range(-1, -6, -1):
            expected = q8.rows[expected][q8.inv(i)]
            assert q8.power(i, n) == expected


def test_fixtures_load_by_name_or_file_name():
    assert load_fixture("Q8.txt").rows == load_fixture("Q8").rows
    assert load_fixture("D6.json").rows == load_fixture("D6").rows
    with pytest.raises(FileNotFoundError, match="no fixture named 'D7'"):
        load_fixture("D7")


def test_fixture_names_are_not_paths():
    assert load_fixture("A4").order == 12
    assert load_fixture("A4.txt").rows == load_fixture("A4").rows
    assert load_fixture("D12.json").order == 12
    # an absolute name that exists, and relative ones that reach real files
    for name in ("", ".", "..", os.path.abspath(__file__), "../__init__.py", "../fixtures/A4"):
        with pytest.raises(FileNotFoundError, match="^no fixture named "):
            load_fixture(name)


def test_import_leaves_out_the_archive_and_tempfile_modules():
    # importlib.resources would pull these in, about 1.5 MB per process
    heavy = ("importlib.resources", "tempfile", "shutil", "bz2", "lzma")
    code = f"import sys, mgs; mgs.load_fixture('A4'); print([m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_subgroup_table():
    t = materialize_table(GenDihedralGroup(AbelianGroup(0, (6,))))
    rotations = [i for i in range(12) if t.labels[i].startswith("rot")]
    sub, members = t.subgroup_table(rotations)
    assert sub.order == 6 and sub.is_abelian()
    with pytest.raises(ValueError):
        t.subgroup_table([0, 1])  # not closed


def test_automorphism_counts():
    d12 = materialize_table(GenDihedralGroup(AbelianGroup(0, (6,))))
    assert len(automorphism_group(d12)) == 12
    z5 = materialize_table(AbelianGroup(0, (5,)))
    assert len(automorphism_group(z5)) == 4
    klein = materialize_table(AbelianGroup(0, (2, 2)))
    assert len(automorphism_group(klein)) == 6


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_automorphism_dihedral_formula():
    for n in range(3, 9):
        t = materialize_table(GenDihedralGroup(AbelianGroup(0, (n,))))
        assert len(automorphism_group(t)) == n * euler_phi(n)


def test_automorphism_group_axioms():
    t = materialize_table(GenDihedralGroup(AbelianGroup(0, (5,))))
    autos = automorphism_group(t)
    identity = tuple(range(t.order))
    assert identity in autos
    auto_set = set(autos)
    for phi in autos:
        inv = [0] * t.order
        for i, img in enumerate(phi):
            inv[img] = i
        assert tuple(inv) in auto_set
        for psi in autos:
            assert tuple(phi[psi[i]] for i in range(t.order)) in auto_set
        # automorphisms preserve element orders
        for i in range(t.order):
            assert t.element_order(i) == t.element_order(phi[i])


def test_automorphisms_sorted_deterministic():
    t = materialize_table(AbelianGroup(0, (8,)))
    autos = automorphism_group(t)
    assert autos == sorted(autos)


def test_automorphism_bound():
    # the candidate budget is the only bound: no order bound refuses
    # Dih(Z/101), of order 202, whose automorphisms are Hol(Z/101)
    t = materialize_table(GenDihedralGroup(AbelianGroup(0, (101,))))
    assert len(automorphism_group(t)) == 101 * 100


def test_automorphism_budget_counts_candidates():
    t = materialize_table(AbelianGroup(0, (2,) * 5))
    start = time.monotonic()
    with pytest.raises(ValueError) as refused:
        automorphism_group(t)
    assert time.monotonic() - start < 1
    assert str(refused.value) == (
        "28629151 candidates times order 32 = 916132832 exceed "
        "the automorphism search budget 100000000"
    )
    for name in FIXTURES:  # DihZ4xZ4, the largest, tries 2,736 candidates
        assert automorphism_group(load_fixture(name))


def test_tables_over_the_automorphism_budget_never_reach_it_from_classify():
    # the abelian and Dih(A) tables of order <= 100 over the budget: each
    # has n^d tuples of d entries over the enumeration budget, d being
    # the least number of generators
    abelian = (
        (2, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2), (3, 3, 3, 3), (2, 2, 4, 4), (2, 2, 2, 10),
        (2, 2, 2, 12), (2, 2, 2, 2, 4), (2, 2, 2, 2, 6),
    )
    dihedral = ((2, 2, 2, 2), (2, 2, 2, 2, 2), (2, 2, 2, 4), (2, 2, 2, 6))
    over = [(AbelianGroup(0, f), len(f)) for f in abelian]
    over += [(GenDihedralGroup(AbelianGroup(0, f)), len(f) + 1) for f in dihedral]
    for group, d in over:
        t = materialize_table(group)
        with pytest.raises(ValueError, match="automorphism search budget"):
            automorphism_group(t)
        with pytest.raises(ValueError, match="enumeration budget"):
            enumerate_markings(t, d)


def test_automorphisms_match_the_permutation_search_up_to_order_6():
    # every group of order <= 6 is abelian or Dih(Z/3)
    rng = random.Random(6)
    for group in groups_up_to(6):
        for table in (group, relabel(group, rng)):
            assert automorphism_group(table) == automorphisms_by_permutations(table)


def automorphisms_by_full_check(table):
    """The search with an n^2 homomorphism check on every bijective candidate.

    Generators are picked by descending element order; every element is
    reached by a stored word in them, and each candidate is extended
    along those words.
    """
    n = table.order
    rows = table.rows
    orders = [table.element_order(i) for i in range(n)]
    gens, reached = [], {0}
    for x in sorted(range(1, n), key=lambda i: (-orders[i], i)):
        if x not in reached:
            gens.append(x)
            reached = table.closure(gens)
    words = {0: ()}
    frontier = [0]
    while frontier:
        x = frontier.pop(0)
        for gi, g in enumerate(gens):
            if rows[x][g] not in words:
                words[rows[x][g]] = words[x] + (gi,)
                frontier.append(rows[x][g])
    pools = [[x for x in range(n) if orders[x] == orders[g]] for g in gens]
    found = []
    for images in product(*pools):
        phi = [0] * n
        for y, word in words.items():
            for gi in word:
                phi[y] = rows[phi[y]][images[gi]]
        if len(set(phi)) == n and all(
            phi[rows[a][b]] == rows[phi[a]][phi[b]] for a in range(n) for b in range(n)
        ):
            found.append(tuple(phi))
    return sorted(found)


@pytest.mark.parametrize("seed", [1, 2])
def test_automorphisms_match_the_full_check_on_tables_and_relabelings(seed):
    # the abelian groups include Z/2 x Z/6, where leaving out the edges of
    # one generator admits bijections that are not homomorphisms
    rng = random.Random(seed)
    for group in [load_fixture(name) for name in FIXTURES] + groups_up_to(12):
        for table in (group, relabel(group, rng)):
            assert automorphism_group(table) == automorphisms_by_full_check(table)


def test_automorphisms_match_the_permutation_search_at_orders_7_and_8():
    # the groups of order 7 and 8: abelian, Dih(Z/4) and Q8
    rng = random.Random(8)
    for group in [t for t in groups_up_to(8) if t.order >= 7] + [load_fixture("Q8")]:
        for table in (group, relabel(group, rng)):
            assert automorphism_group(table) == automorphisms_by_permutations(table)


def test_abelian_invariants_recovery():
    for group in abelian_groups_up_to(24):
        t = materialize_table(group)
        assert abelian_invariant_factors_of(t, range(t.order)) == group.invariant_factors


def test_abelian_invariants_refuse_a_dihedral_table():
    for name in ("D8", "D10"):
        t = load_fixture(name)
        with pytest.raises(ValueError, match="^subgroup is not abelian$"):
            abelian_invariant_factors_of(t, range(t.order))


def test_abelian_invariants_refuse_every_nonabelian_fixture():
    # D6, Q8 and A4 have element orders that an abelian group could have
    for name in FIXTURES:
        t = load_fixture(name)
        if not t.is_abelian():
            with pytest.raises(ValueError, match="^subgroup is not abelian$"):
                abelian_invariant_factors_of(t, range(t.order))


def test_recognize_d12():
    t = materialize_table(GenDihedralGroup(AbelianGroup(0, (6,))))
    out = recognize_generalized_dihedral(t)
    assert out.kind == "generalized-dihedral"
    assert out.base == AbelianGroup(0, (6,))
    assert len(out.rotation_part) == 6 and len(out.flip_coset) == 6
    assert set(out.rotation_part) | set(out.flip_coset) == set(range(12))


def test_recognize_q8_and_klein():
    assert recognize_generalized_dihedral(load_fixture("Q8")).kind == "no"
    assert recognize_generalized_dihedral(load_fixture("D4")).kind == "abelian"


def test_recognize_a4():
    assert recognize_generalized_dihedral(load_fixture("A4")).kind == "no"


def recognition_tables():
    """The fixtures, every abelian and Dih(A) table up to order 64, direct
    products and semidirect products Z/n x|_k Z/m, then a relabeled copy
    of each."""
    tables = [load_fixture(name) for name in FIXTURES] + groups_up_to(64) + product_tables()
    rng = random.Random(15)
    return tables + [relabel(t, rng) for t in tables]


def test_recognition_matches_the_definition():
    kinds = set()
    for t in recognition_tables():
        out = recognize_generalized_dihedral(t)
        kind, factors = recognize_by_definition(t)
        assert out.kind == kind, t.labels
        kinds.add(kind)
        if kind == "no":
            assert out.base is None and out.rotation_part is None
            continue
        assert out.base == AbelianGroup(0, factors)
        if kind == "abelian":
            continue
        # what the index test no longer checks: the rotation part is
        # abelian and every flip inverts it
        rows, inv = t.rows, t.inverses
        rotations, flips = out.rotation_part, out.flip_coset
        assert sorted(rotations + flips) == list(range(t.order))
        assert all(rows[a][b] == rows[b][a] for a in rotations for b in rotations)
        assert all(rows[rows[s][a]][inv[s]] == inv[a] for s in flips for a in rotations)
    assert kinds == {"abelian", "generalized-dihedral", "no"}


def test_recognize_all_small_bases():
    for base in abelian_groups_up_to(16):
        g = GenDihedralGroup(base)
        t = materialize_table(g)
        out = recognize_generalized_dihedral(t)
        if g.is_abelian():
            assert out.kind == "abelian"
        else:
            assert out.kind == "generalized-dihedral"
            assert out.base == base
