import hashlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgs.abelian import (
    INFINITE,
    AbelianGroup,
    canonical_invariant_factors,
    cyclic_residual_quotient,
    express_in_generators,
    generates_full,
    is_limit_of_cyclic,
    matmul,
    primes_avoiding,
    smith_normal_form,
    _hermite,
    _unimodular,
)
import mgs
from mgs.dihedral import materialize_table

from helpers import (
    abelian_closure,
    determinant,
    invariant_factors_by_factoring,
    prime_factorization,
    random_element,
    random_unimodular,
    smith_generates,
    tables_isomorphic,
)


def snf_oracle_check(mat):
    """Independent validity check: recompute products and determinants."""
    u, d, v = smith_normal_form(mat)
    rows, cols = len(mat), len(mat[0]) if mat else 0
    assert matmul(matmul(u, [list(r) for r in mat]), v) == d
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
    return diag


def test_snf_examples():
    assert snf_oracle_check([[2, 0], [0, 3]]) == [1, 6]
    assert snf_oracle_check([[1, 0], [0, 1]]) == [1, 1]
    assert snf_oracle_check([[2, 4], [4, 8]]) == [2, 0]


def test_snf_empty_and_degenerate():
    u, d, v = smith_normal_form([])
    assert (u, d, v) == ([], [], [])
    snf_oracle_check([[0, 0], [0, 0]])
    snf_oracle_check([[5]])
    snf_oracle_check([[3, 6, 9]])


def test_smith_transforms_are_pinned():
    # D is checked above; U and V are not unique, and every accumulation
    # witness's unit word is read from them, so they are pinned here
    rng = random.Random(0)
    mats = []
    for _ in range(500):
        r, c = rng.randint(0, 5), rng.randint(0, 5)
        mats.append(
            [
                [rng.randint(-20, 20) if rng.random() < 0.6 else 0 for _ in range(c)]
                for _ in range(r)
            ]
        )
    text = repr([smith_normal_form(m) for m in mats])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "cce2179e3d772a6a"


small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@given(small_matrices)
@settings(max_examples=150)
def test_snf_random(mat):
    snf_oracle_check(mat)


def test_snf_self_check_survives_optimized_mode():
    # `python -O` strips assert statements; the self-check must still raise
    script = (
        "import mgs.abelian as ab\n"
        "ab._snf_valid = lambda *args: False\n"
        "try:\n"
        "    ab.smith_normal_form([[2, 4], [6, 8]])\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(mgs.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_canonical_invariant_factors_examples():
    assert canonical_invariant_factors([INFINITE, 6]) == AbelianGroup(1, (6,))
    # Z/2 x Z/3 is Z/6: brute-force isomorphism of the order-6 tables
    a = canonical_invariant_factors([2, 3])
    assert a == AbelianGroup(0, (6,))
    product_table = materialize_table_of_product([2, 3])
    assert tables_isomorphic(product_table, materialize_table(a))
    # element orders rule out Z/8
    b = canonical_invariant_factors([2, 4])
    assert b == AbelianGroup(0, (2, 4))
    assert max(x.order() for x in b.elements()) == 4


# products of powers of 2, 3, 5 and 7 share primes; the few small smooth
# orders repeat often in a long list; the other orders are mostly coprime
SMOOTH = st.tuples(*[st.integers(0, 6)] * 4).map(
    lambda e: 2 ** e[0] * 3 ** e[1] * 5 ** e[2] * 7 ** e[3]
)
SMALL_SMOOTH = st.tuples(*[st.integers(0, 2)] * 3).map(
    lambda e: 2 ** e[0] * 3 ** e[1] * 5 ** e[2]
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(SMALL_SMOOTH, SMOOTH, st.integers(1, 10**5)), max_size=40),
    st.randoms(use_true_random=False),
)
@example([6, 4, 6, 9, 4, 10], random.Random(0))
def test_invariant_factors_match_the_factoring_oracle(orders, rng):
    group = canonical_invariant_factors(orders)
    assert group == AbelianGroup(0, invariant_factors_by_factoring(orders))
    shuffled = list(orders)
    rng.shuffle(shuffled)
    assert canonical_invariant_factors(shuffled) == group


def test_invariant_factors_of_many_factors():
    assert canonical_invariant_factors([6] * 2000) == AbelianGroup(0, (6,) * 2000)
    primes = [p for p in range(2, 2000) if prime_factorization(p) == {p: 1}][:300]
    assert canonical_invariant_factors(primes) == AbelianGroup(0, (math.prod(primes),))


@pytest.mark.parametrize("flag", [True, False])
def test_booleans_are_not_cyclic_orders(flag):
    message = f"^cyclic order {flag} must be a positive integer or infinity$"
    with pytest.raises(ValueError, match=message):
        canonical_invariant_factors([flag, 4])


def test_invariant_factors_of_large_prime_orders_need_no_factoring():
    # trial division would try about 10^7 divisors for p and 10^8 for q
    p, q = 100000000000031, 10000000000000061
    assert canonical_invariant_factors([p, 4 * p, 6]) == AbelianGroup(0, (2 * p, 12 * p))
    assert canonical_invariant_factors([q, 6, None]) == AbelianGroup(1, (6 * q,))


def materialize_table_of_product(orders):
    """Cayley table of a direct product built without canonicalization."""
    from itertools import product as iproduct

    from mgs.tables import validate_table

    elems = list(iproduct(*(range(d) for d in orders)))
    index = {e: i for i, e in enumerate(elems)}
    rows = [
        [index[tuple((a + b) % d for a, b, d in zip(x, y, orders))] for y in elems]
        for x in elems
    ]
    return validate_table(rows)


def test_canonical_invariant_factors_properties():
    rng = random.Random(11)
    for _ in range(50):
        orders = [rng.randint(1, 12) for _ in range(rng.randint(0, 4))]
        orders += [INFINITE] * rng.randint(0, 2)
        g = canonical_invariant_factors(orders)
        rng.shuffle(orders)
        assert canonical_invariant_factors(orders) == g
        # idempotent: feeding the canonical factors back is stable
        again = canonical_invariant_factors([INFINITE] * g.free_rank + list(g.invariant_factors))
        assert again == g


def test_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup(-1)
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroup(0, (4, 2))
    with pytest.raises(ValueError):
        AbelianGroup(0, (2, 3))


def test_element_arithmetic():
    g = AbelianGroup(1, (6,))
    x = g.element((2,), (5,))
    y = g.element((-1,), (3,))
    assert x + y == g.element((1,), (2,))
    assert (x - x).is_identity()
    assert 3 * y == g.element((-3,), (3,))
    assert x.order() == INFINITE
    assert g.element((0,), (3,)).order() == 2
    assert g.element((0,), (1,)).order() == 6
    assert str(x) == "(2;5)"
    with pytest.raises(ValueError):
        g.element((1,), ())


def test_generates_full_examples():
    z2 = AbelianGroup(2)
    assert generates_full(z2, [z2.element((1, 0)), z2.element((1, 1))])
    assert not generates_full(z2, [z2.element((1, 1)), z2.element((1, -1))])
    z6 = AbelianGroup(0, (6,))
    assert generates_full(z6, [z6.element((), (2,)), z6.element((), (3,))])
    assert generates_full(AbelianGroup(0, ()), [])


def test_generates_full_against_closure():
    rng = random.Random(5)
    from helpers import random_abelian_group

    for _ in range(60):
        g = random_abelian_group(rng, max_order=200)
        gens = [random_element(rng, g) for _ in range(rng.randint(0, 3))]
        expected = len(abelian_closure(g, gens)) == g.torsion_order()
        assert generates_full(g, gens) == expected


@st.composite
def abelian_generators(draw):
    """A group of free rank 0-3 with 0-2 torsion factors and 0-5 elements."""
    free = draw(st.integers(0, 3))
    torsion = draw(st.lists(st.integers(2, 12), max_size=2))
    group = canonical_invariant_factors([None] * free + torsion)
    coordinate = st.integers(-4, 4)
    gens = draw(
        st.lists(
            st.tuples(
                st.lists(coordinate, min_size=free, max_size=free),
                st.lists(coordinate, min_size=group.torsion_rank, max_size=group.torsion_rank),
            ),
            max_size=5,
        )
    )
    return group, [group.element(f, t) for f, t in gens]


@given(abelian_generators())
@settings(max_examples=300)
def test_generates_full_against_the_smith_diagonal(case):
    group, gens = case
    assert generates_full(group, gens) == smith_generates(group, gens)


@st.composite
def square_matrices(draw):
    """Square matrices of size 0-5: random ones, mostly singular or of large
    determinant, and unimodular ones with one row scaled by 0, +-1 or +-2."""
    n = draw(st.integers(0, 5))
    if draw(st.booleans()):
        row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        return draw(st.lists(row, min_size=n, max_size=n))
    mat = random_unimodular(random.Random(draw(st.integers(0, 2**32))), n)
    if n:
        i, f = draw(st.integers(0, n - 1)), draw(st.sampled_from([0, 1, -1, 2, -2]))
        mat[i] = [f * x for x in mat[i]]
    return mat


@given(square_matrices())
@settings(max_examples=300)
def test_unimodular_against_the_determinant(mat):
    assert _unimodular(mat) == (abs(determinant(mat)) == 1)


integer_rows = st.integers(0, 5).flatmap(
    lambda width: st.tuples(
        st.just(width),
        st.lists(st.lists(st.integers(-9, 9), min_size=width, max_size=width), max_size=6),
    )
)


@given(integer_rows)
@settings(max_examples=300)
def test_hermite_is_a_reduced_basis_of_the_same_lattice(case):
    width, rows = case
    hnf = _hermite(rows, width)
    columns = [c for _, c in hnf]
    assert columns == sorted(set(columns))
    for k, (row, c) in enumerate(hnf):
        assert len(row) == width
        assert not any(row[:c]) and row[c] > 0
        for above, _ in hnf[:k]:
            assert 0 <= above[c] < row[c]
    # every input row reduces to 0 along the pivots ...
    for v in rows:
        v = list(v)
        for row, c in hnf:
            q, r = divmod(v[c], row[c])
            assert r == 0
            v = [x - q * y for x, y in zip(v, row)]
        assert not any(v)
    # ... and every output row is an integer combination of the input rows
    z = AbelianGroup(width)
    gens = [z.element(v) for v in rows]
    for row, _ in hnf:
        assert express_in_generators(z, gens, z.element(row)) is not None


def test_express_in_generators():
    z2 = AbelianGroup(2)
    gens = [z2.element((2, 1)), z2.element((1, 1))]
    target = z2.element((1, 0))
    coeffs = express_in_generators(z2, gens, target)
    acc = z2.identity()
    for c, g in zip(coeffs, gens):
        acc = acc + c * g
    assert acc == target
    # (2,0) is not in the span of (1,1) alone modulo nothing
    assert express_in_generators(z2, [z2.element((1, 1))], z2.element((1, 0))) is None


def test_express_in_generators_on_the_trivial_group_and_out_of_reach():
    z1 = AbelianGroup(0)
    e = z1.identity()
    assert express_in_generators(z1, [e, e], e) == [0, 0]
    g = AbelianGroup(1, (4,))
    gens = [g.element((2,), (0,)), g.element((0,), (1,))]
    assert express_in_generators(g, gens, g.element((1,), (0,))) is None


def test_is_limit_of_cyclic():
    assert is_limit_of_cyclic(AbelianGroup(1, (6,)))
    assert not is_limit_of_cyclic(AbelianGroup(0, (2, 4)))
    assert is_limit_of_cyclic(AbelianGroup(0, ()))


def test_cyclic_residual_quotient_frozen_example():
    # two primes avoiding the coordinates 1, 2, 3: p = 5, 7; modulus 35
    z2 = AbelianGroup(2)
    f = [z2.element((1, 0)), z2.element((0, 2)), z2.element((3, 3))]
    q = cyclic_residual_quotient(z2, f)
    assert q.modulus == 35
    assert q.free_multipliers == (7, 5)
    assert [q(x) for x in f] == [7, 10, 1]
    assert all(q(x) != 0 for x in f)
    assert q.is_surjective()


def test_cyclic_residual_quotient_torsion_only():
    z6 = AbelianGroup(0, (6,))
    q = cyclic_residual_quotient(z6, [z6.element((), (2,))])
    assert q.modulus == 6
    assert q.torsion_multipliers == (1,)
    assert q(z6.element((), (2,))) == 2


def test_cyclic_residual_quotient_avoids_divisors():
    z = AbelianGroup(1)
    q = cyclic_residual_quotient(z, [z.element((4,))])
    assert q.modulus == 3
    assert q(z.element((4,))) == 1


def test_cyclic_residual_quotient_preconditions():
    with pytest.raises(ValueError):
        cyclic_residual_quotient(AbelianGroup(0, (2, 4)), [])
    z = AbelianGroup(1)
    with pytest.raises(ValueError):
        cyclic_residual_quotient(z, [z.identity()])


# n <= 10^6 has at most 7 prime divisors, so k <= 8 primes avoiding it are
# among the first 15 primes, those below 50
SMALL_PRIMES = [p for p in range(2, 50) if all(p % d for d in range(2, p))]


@given(st.integers(1, 10**6), st.integers(0, 8))
@example(510510, 8)  # 2*3*5*7*11*13*17
@example(1, 8)
@settings(max_examples=200, deadline=None)
def test_primes_avoiding_filters_the_primes(n, k):
    assert primes_avoiding(n, k) == tuple([p for p in SMALL_PRIMES if n % p][:k])


def test_primes_avoiding_needs_a_positive_integer():
    with pytest.raises(ValueError):
        primes_avoiding(0, 1)


def test_cyclic_residual_quotient_random():
    rng = random.Random(17)
    for _ in range(80):
        r = rng.randint(0, 3)
        k = rng.randint(1, 30)
        g = canonical_invariant_factors([None] * r + ([k] if k > 1 else []))
        f = []
        for _ in range(rng.randint(1, 5)):
            x = random_element(rng, g, span=20)
            if not x.is_identity():
                f.append(x)
        if not f:
            continue
        q = cyclic_residual_quotient(g, f)
        assert all(q(x) != 0 for x in f)
        assert q.is_surjective()
        assert q.modulus % g.torsion_order() == 0
