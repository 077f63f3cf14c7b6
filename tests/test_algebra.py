"""Group ring and cyclotomic arithmetic, all equalities exact."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gspans import algebra
from gspans.algebra import (
    AbelianGroup,
    Character,
    CyclotomicNumber,
    GroupMismatchError,
    GroupRingElement,
    NotASubgroupError,
    average_idempotent,
    cyclotomic_polynomial,
    euler_phi,
)
from oracles import abelian_group_order_lists

Z2 = AbelianGroup([2])
Z4 = AbelianGroup([4])
Z2xZ3 = AbelianGroup([2, 3])
TRIVIAL = AbelianGroup([])


def qg(group, *pairs):
    return GroupRingElement(group, {g: Fraction(c) for g, c in pairs})


def test_make_group_examples():
    assert Z2.order == 2 and Z2.elements() == [(0,), (1,)]
    assert TRIVIAL.order == 1 and TRIVIAL.elements() == [()]
    assert Z4.order == 4
    with pytest.raises(ValueError):
        AbelianGroup([0])


def test_group_arithmetic():
    assert Z2xZ3.add((1, 2), (1, 2)) == (0, 1)
    assert Z2xZ3.neg((1, 2)) == (1, 1)
    assert Z2xZ3.elements()[0] == (0, 0)
    assert Z2xZ3.elements() == sorted(Z2xZ3.elements())


def test_ring_add_examples():
    e, s = (0,), (1,)
    a = qg(Z2, (e, 1), (s, 1))
    assert a + qg(Z2, (s, -1)) == qg(Z2, (e, 1))
    assert GroupRingElement.zero(Z2) + a == a
    assert qg(Z2, (e, Fraction(1, 2))) + qg(Z2, (e, Fraction(1, 2))) == qg(Z2, (e, 1))
    with pytest.raises(GroupMismatchError):
        a + GroupRingElement.one(Z4)


def test_ring_mul_examples():
    e, s = (0,), (1,)
    u = average_idempotent(Z2, [e, s])
    assert u * u == u
    a = qg(Z2, (e, 2), (s, 3))
    assert GroupRingElement.one(Z2) * a == a
    # (e + s)^2 = 2e + 2s in QZ2
    both = qg(Z2, (e, 1), (s, 1))
    assert both * both == qg(Z2, (e, 2), (s, 2))


def test_average_idempotent_examples():
    assert average_idempotent(Z2, [(0,)]) == GroupRingElement.one(Z2)
    assert average_idempotent(Z2, [(0,), (1,)]) == qg(
        Z2, ((0,), Fraction(1, 2)), ((1,), Fraction(1, 2))
    )
    # 2Z4 <= Z4
    assert average_idempotent(Z4, [(0,), (2,)]) == qg(
        Z4, ((0,), Fraction(1, 2)), ((2,), Fraction(1, 2))
    )
    with pytest.raises(NotASubgroupError):
        average_idempotent(Z4, [(0,), (1,)])


def test_all_subgroups_z4():
    subs = Z4.all_subgroups()
    assert sorted(len(s) for s in subs) == [1, 2, 4]


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)  # (x^4-1)/(Phi1*Phi2)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert len(cyclotomic_polynomial(12)) - 1 == euler_phi(12)


def test_cyclotomic_residue_arithmetic():
    i = CyclotomicNumber.zeta_power(4, 1)
    assert i * i == CyclotomicNumber.from_rational(4, -1)
    assert CyclotomicNumber.zeta_power(4, 4) == CyclotomicNumber.one(4)
    # Phi_m(zeta_m) = 0 in the residue ring
    for m in range(1, 13):
        z = CyclotomicNumber.zeta_power(m, 1)
        acc = CyclotomicNumber.zero(m)
        for c in reversed(cyclotomic_polynomial(m)):
            acc = acc * z + CyclotomicNumber.from_rational(m, c)
        assert acc.is_zero()


def long_division_residue(m, coeffs):
    """coeffs reduced mod Phi_m by exact long division, padded to phi(m)."""
    modulus = cyclotomic_polynomial(m)
    _, r = algebra._poly_divmod([Fraction(c) for c in coeffs], modulus)
    return tuple(r) + (Fraction(0),) * (len(modulus) - 1 - len(r))


def test_residue_table_rows_are_the_long_division_residues():
    for m in range(1, 31):
        rows = algebra.residue_table(m)
        assert len(rows) == m
        for k, row in enumerate(rows):
            assert row == long_division_residue(m, (0,) * k + (1,))
            assert all(type(c) is int for c in row)


def test_reduction_by_the_table_is_long_division():
    # seeded Fraction lists of every length up to 3m, so terms of degree m
    # and more fold onto the table's rows by k mod m
    rng = random.Random(20261019)
    for m in range(1, 31):
        for length in range(3 * m + 1):
            coeffs = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                for _ in range(length)
            ]
            x = CyclotomicNumber(m, coeffs)
            assert x.coeffs == long_division_residue(m, coeffs)
            assert all(type(c) is Fraction for c in x.coeffs)


def term_by_term_image(rho, x):
    """rho(x) as a sum of one cyclotomic number per term of x."""
    out = CyclotomicNumber.zero(rho.conductor)
    for g, c in x.terms.items():
        out = out + rho.value(g) * c
    return out


def test_character_image_is_the_term_by_term_sum():
    # every character of every abelian G with |G| <= 16, on seeded elements
    # with zero, one and many terms
    rng = random.Random(20261019)
    characters = 0
    for orders in abelian_group_order_lists(16):
        G = AbelianGroup(orders)
        els = G.elements()
        xs = [GroupRingElement.zero(G), GroupRingElement.one(G)]
        for size in (1, 3, len(els)):
            picked = rng.sample(els, min(size, len(els)))
            xs.append(GroupRingElement(
                G, {g: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for g in picked}
            ))
        for exps in itertools.product(*[range(n) for n in orders]):
            rho = Character(G, exps)
            characters += 1
            for x in xs:
                assert rho.apply(x) == term_by_term_image(rho, x)
    assert characters == sum(
        AbelianGroup(o).order for o in abelian_group_order_lists(16)
    )


def test_character_examples():
    rho = Character(Z4, (1,))
    assert rho.is_injective()
    # injective rho on Z4 sends g1 to zeta_4 = i
    assert rho.apply(GroupRingElement.basis(Z4, (1,))) == CyclotomicNumber.zeta_power(4, 1)
    # rho of a full nontrivial subgroup average is exactly 0
    u = average_idempotent(Z4, [(0,), (2,)])
    assert rho.apply(u).is_zero()
    # trivial character is the augmentation (as a rational inside Q(zeta_4))
    triv = Character.trivial(Z4)
    x = qg(Z4, ((0,), Fraction(1, 3)), ((3,), Fraction(1, 6)))
    assert triv.apply(x) == CyclotomicNumber.from_rational(4, Fraction(1, 2))
    assert x.augmentation() == Fraction(1, 2)


def test_geometric_sum_vanishes():
    # sum of rho over a subgroup is 0 whenever rho is nontrivial on it
    for group in [Z4, Z2xZ3, AbelianGroup([2, 2])]:
        for sub in group.all_subgroups():
            full = GroupRingElement(group, {g: 1 for g in sub})
            for exps in [tuple(1 for _ in group.orders), tuple(
                n - 1 for n in group.orders
            )]:
                rho = Character(group, exps)
                nontrivial = any(rho.exponent_of(g) != 0 for g in sub)
                total = rho.apply(full)
                if nontrivial:
                    assert total.is_zero()
                else:
                    assert total == CyclotomicNumber.from_rational(
                        rho.conductor, len(sub)
                    )


def test_render_format():
    x = qg(Z2xZ3, ((0, 0), 1), ((1, 2), Fraction(-1, 2)))
    assert x.render() == "1*g(0,0) + -1/2*g(1,2)"
    assert GroupRingElement.zero(Z2).render() == "0"
    one = GroupRingElement.one(TRIVIAL)
    assert one.render() == "1*g()"


# --- randomized laws -------------------------------------------------------

groups = st.sampled_from([Z2, Z4, Z2xZ3, AbelianGroup([2, 2]), TRIVIAL])


def ring_elements(group):
    coeff = st.fractions(
        min_value=-3, max_value=3, max_denominator=4
    )
    els = st.sampled_from(group.elements())
    return st.dictionaries(els, coeff, max_size=4).map(
        lambda d: GroupRingElement(group, d)
    )


@settings(max_examples=120, deadline=None)
@given(groups.flatmap(lambda G: st.tuples(ring_elements(G), ring_elements(G), ring_elements(G))))
def test_ring_axioms(triple):
    a, b, c = triple
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    one = GroupRingElement.one(a.group)
    assert one * a == a


@settings(max_examples=80, deadline=None)
@given(groups.flatmap(lambda G: st.tuples(ring_elements(G), ring_elements(G), st.integers(0, 100))))
def test_character_is_a_ring_map(data):
    a, b, seed = data
    n = len(a.group.orders)
    exps = tuple((seed + 7 * i) % max(o, 1) for i, o in enumerate(a.group.orders))
    rho = Character(a.group, exps) if n else Character.trivial(a.group)
    assert rho.apply(a * b) == rho.apply(a) * rho.apply(b)
    assert rho.apply(a + b) == rho.apply(a) + rho.apply(b)


def test_idempotent_squares_for_all_subgroups():
    for group in [Z2, Z4, Z2xZ3, AbelianGroup([2, 2])]:
        for sub in group.all_subgroups():
            u = average_idempotent(group, sub)
            assert u * u == u


@pytest.mark.parametrize("orders", [[], [1], [2], [4], [2, 3], [2, 2, 3]])
def test_group_arithmetic_is_coordinatewise_mod_n(orders):
    G = AbelianGroup(orders)
    for a, b in itertools.product(G.elements(), repeat=2):
        want = tuple((x + y) % n for x, y, n in zip(a, b, orders))
        assert G.add(a, b) == G.op(a, b) == want
        assert G.sub(a, b) == G.add(a, G.neg(b))
        assert G.neg(a) == G.inv(a) == tuple((-x) % n for x, n in zip(a, orders))


@pytest.mark.parametrize("orders", abelian_group_order_lists(8), ids=str)
def test_group_tables_agree_with_the_formula(orders):
    # sums and negatives come from per-instance tables filled on first use;
    # on the first call and on a repeat call they equal the coordinatewise
    # formula, list operands get the same tuples, and the tables never grow
    # past |G|^2 and |G| entries, also when operands outside G come first
    def plus(a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, orders))

    def minus(a):
        return tuple((-x) % n for x, n in zip(a, orders))

    els = AbelianGroup(orders).elements()
    outside = [tuple(n + i for n in orders) for i in range(3)] if orders else []
    for operands in (els + outside, outside + els):
        G = AbelianGroup(orders)
        for _ in range(2):  # the first call fills the tables, the repeat reads
            for a in operands:
                assert G.neg(a) == G.inv(a) == G.neg(list(a)) == minus(a)
                for b in operands:
                    want = plus(a, b)
                    assert G.add(a, b) == G.op(a, b) == want
                    assert G.add(list(a), list(b)) == G.op(list(a), b) == want
                    assert G.sub(a, b) == G.sub(list(a), list(b)) == plus(a, minus(b))
                    assert len(G._sums) <= G.order**2 and len(G._negs) <= G.order
        for x in [G.add(a, b) for a in els for b in els] + [G.neg(a) for a in els]:
            assert type(x) is tuple and all(type(e) is int for e in x)
        if operands[0] in els:  # the elements alone fill the tables
            assert len(G._sums) == G.order**2 and len(G._negs) == G.order


def test_the_sum_table_stops_at_its_cap():
    # |Z512|^2 = 262144 sums would fill about 47 MB of tuple-pair keys; the
    # table keeps 65536 and the rest get the formula.  Z16 x Z16 keeps all.
    assert AbelianGroup([16, 16])._max_sums == 256**2 == 1 << 16
    G = AbelianGroup([512])
    assert G._max_sums == 1 << 16
    els = G.elements()[:300]
    for _ in range(2):  # the first pass fills the table, the second reads
        for a in els:
            for b in els:
                assert G.add(a, b) == ((a[0] + b[0]) % 512,)
        assert len(G._sums) == 1 << 16


def test_non_int_orders_and_conductors_raise_type_error():
    # int() would truncate 2.5 to Z2 and take True for Z1; raised, not
    # asserted, so also under python -O
    for orders in ([2.5], [True, 3], [2, 3.0], ["4"]):
        with pytest.raises(TypeError, match="must be an int"):
            AbelianGroup(orders)
    for conductor in (2.9, True, 4.0, "4"):
        with pytest.raises(TypeError, match="must be an int"):
            CyclotomicNumber(conductor, (1,))
    with pytest.raises(ValueError, match=">= 1"):
        AbelianGroup([2, 0])
    with pytest.raises(ValueError, match=">= 1"):
        CyclotomicNumber(0, (1,))


def test_equal_groups_keep_their_own_tables():
    G, H = AbelianGroup([4]), AbelianGroup([4])
    assert G == H and hash(G) == hash(H)
    assert G.add((1,), (2,)) == (3,) and G.neg((1,)) == (3,)
    assert G._sums == {((1,), (2,)): (3,)} and G._negs == {(1,): (3,)}
    assert H._sums == {} and H._negs == {}
    assert G._sums is not H._sums and G._negs is not H._negs


def test_cyclotomic_invariants_raise_arithmetic_error():
    # Phi_6 divides x^6 - 1 by Phi_1, Phi_2 and Phi_3 (cached first); a
    # stand-in division that leaves a remainder or halves the quotient is
    # caught, also under python -O
    cyclotomic_polynomial(6)
    uncached = cyclotomic_polynomial.__wrapped__
    divmod_ = algebra._poly_divmod
    try:
        algebra._poly_divmod = lambda num, den: (divmod_(num, den)[0], (1,))
        with pytest.raises(ArithmeticError, match="not divisible"):
            uncached(6)
        algebra._poly_divmod = lambda num, den: (
            tuple(Fraction(c, 2) for c in divmod_(num, den)[0]),
            (),
        )
        with pytest.raises(ArithmeticError, match="non-integer"):
            uncached(6)
    finally:
        algebra._poly_divmod = divmod_
    assert uncached(6) == cyclotomic_polynomial(6) == (1, -1, 1)
