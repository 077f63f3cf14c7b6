"""The integer form (den, rows) of the one matrix class over two rings,
span matrices over QG and character matrices over Q(zeta_m), against the
entries it stands for and the Fraction routes it replaces.

For every matrix that span_matrix, matrix_multiply, character_matrix or
CharacterMatrix.__mul__ makes, Fraction(k, den) per term of the form is the
entry the oracles give: the entries of the span matrices, the Fraction
character image (oracles.fraction_character_image) and the dense Fraction
product (oracles.dense_product_entries).  ==, is_diagonal and is_identity
read only the forms, and must agree with comparing entries.  Checked on
the seeded corpus, under hypothesis with every character of G, on the
Stirling pairs with the sign character, on the c07 coset and subset
sweeps, and on matrices made by the public constructors from entries with
zero, negative and non-reduced coefficients; those constructors refuse an
entry over another ring.  Both kinds make their entries on first read,
once: the main theorem and the signed Stirling product make none."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gspans import random_spans as rnd
from gspans.algebra import (
    AbelianGroup,
    Character,
    CyclotomicNumber,
    GroupRingElement,
)
from gspans.examples import coset_span, stirling_pair, subset_span
from gspans.gspan import (
    CharacterMatrix,
    SpanMatrix,
    character_matrix,
    check_main_theorem,
    compose_spans,
    matrix_multiply,
    span_matrix,
)
from oracles import (
    dense_product_entries,
    fraction_character_image,
    fraction_cyclotomic_product,
    fraction_qg_product,
)
from test_examples import c07_coset_pairs, c07_subset_pairs

CORPUS_SEED = 20260810  # the acceptance corpus


def all_characters(G):
    return [
        Character(G, e) for e in itertools.product(*[range(n) for n in G.orders])
    ]


def assert_form_is(m, entries):
    """m's integer form holds the given entries: one int denominator, and
    per entry its nonzero int numerators, each key once, with
    Fraction(k, den) the entry's coefficient at that key (a group element
    of a span matrix, a degree of a character matrix)."""
    den, rows = m.form
    assert type(den) is int and den > 0
    assert [len(row) for row in rows] == [len(m.col_index)] * len(m.row_index)
    for form_row, row in zip(rows, entries):
        for terms, e in zip(form_row, row):
            assert all(type(k) is int and k for _, k in terms)
            keys = [g for g, _ in terms]
            assert len(set(keys)) == len(keys)
            got = {g: Fraction(k, den) for g, k in terms}
            if isinstance(m, SpanMatrix):
                assert got == e.terms
            else:
                assert got == {k: c for k, c in enumerate(e.coeffs) if c}


def entries_identity(cm):
    """is_identity by comparing entries, as CyclotomicNumbers."""
    if len(cm.row_index) != len(cm.col_index):
        return False
    one = CyclotomicNumber.one(cm.conductor)
    zero = CyclotomicNumber.zero(cm.conductor)
    return all(
        e == (one if i == j else zero)
        for i, row in enumerate(cm.entries)
        for j, e in enumerate(row)
    )


def entries_equal(x, y):
    """== by comparing the indexes, the group or conductor, and entries."""
    if type(x) is not type(y):
        return False
    ring = (lambda m: m.group) if isinstance(x, SpanMatrix) else (lambda m: m.conductor)
    return (
        ring(x) == ring(y)
        and (x.row_index, x.col_index) == (y.row_index, y.col_index)
        and x.entries == y.entries
    )


def assert_comparisons_are_the_entries(matrices):
    """== on every pair, is_diagonal on every span matrix and is_identity on
    every character matrix agree with comparing entries; so does == on a
    copy made by the public constructor, whose denominator is the lcm of
    its entries' own."""
    copies = []
    for m in matrices:
        if isinstance(m, SpanMatrix):
            copies.append(SpanMatrix(m.group, m.row_index, m.col_index, m.entries))
            assert m.is_diagonal() is all(
                e.is_zero()
                for i, row in enumerate(m.entries)
                for j, e in enumerate(row)
                if i != j
            )
        else:
            copies.append(
                CharacterMatrix(m.row_index, m.col_index, m.entries, m.conductor)
            )
            assert m.is_identity() is entries_identity(m)
        assert copies[-1] == m and m == copies[-1]
    for x, y in itertools.product(matrices + copies, repeat=2):
        assert (x == y) is entries_equal(x, y)


def assert_integer_forms(a, b, characters=None):
    """Span matrices a and b, a's columns b's rows: the forms of a, b and
    A B hold their entries, and A B is the dense Fraction product; under
    each character (every character of G by default) the images of a, b
    and A B are the Fraction images of their entries, the product of the
    images is the dense Fraction product, and each form holds those
    entries; == and is_identity agree with the entries on all of them."""
    G = a.group
    ab = matrix_multiply(a, b)
    assert_form_is(a, a.entries)
    assert_form_is(b, b.entries)
    want = dense_product_entries(a, b, GroupRingElement.zero(G), fraction_qg_product)
    assert_form_is(ab, want)
    assert ab.entries == want
    images = []
    for rho in all_characters(G) if characters is None else characters:
        ims = []
        for m in (a, b, ab):
            cm = character_matrix(m, rho)
            want = [[fraction_character_image(rho, e) for e in row] for row in m.entries]
            assert want == [[rho.apply(e) for e in row] for row in m.entries]
            assert_form_is(cm, want)
            assert cm.entries == want
            ims.append(cm)
        ca, cb, cab = ims
        product = ca * cb
        zero = CyclotomicNumber.zero(rho.conductor)
        want = dense_product_entries(ca, cb, zero, fraction_cyclotomic_product)
        assert_form_is(product, want)
        assert product.entries == want
        assert product == cab  # the character of the theorem's product
        images += ims + [product]
    assert_comparisons_are_the_entries([a, b, ab])
    assert_comparisons_are_the_entries(images)
    return ab


def assert_pair(sp1, sp2, characters=None):
    """assert_integer_forms on the factors' matrices, and the composite's
    form holds A B's entries."""
    ab = assert_integer_forms(span_matrix(sp1), span_matrix(sp2), characters)
    composed = span_matrix(compose_spans(sp1, sp2))
    assert_form_is(composed, ab.entries)
    assert composed == ab


def test_seeded_corpus():
    rng = random.Random(CORPUS_SEED)
    for _ in range(50):
        assert_pair(
            *rnd.random_composable_pair(
                rng, max_group_order=6, max_objects=8, max_apex_objects=8
            )
        )


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_under_hypothesis(seed):
    assert_pair(*rnd.random_composable_pair(random.Random(seed)))


@pytest.mark.parametrize("n", range(7))
def test_stirling_with_the_sign_character(n):
    first, second = stirling_pair(n)
    sign = Character(first.group, (1,))
    assert_pair(first, second, [sign])
    a, b = (character_matrix(span_matrix(sp), sign) for sp in (first, second))
    assert (a * b).is_identity() and entries_identity(a * b)


@pytest.mark.parametrize("sweep", ["coset", "subset"])
def test_c07_sweeps(sweep):
    # every composable triple of the c07 coset groups: the factors are the
    # sweep's single spans, each 1 x 1
    pairs = (
        ((coset_span(G, *x), coset_span(G, *y)) for G, x, y in c07_coset_pairs(False))
        if sweep == "coset"
        else ((subset_span(G, *x), subset_span(G, *y)) for G, x, y in c07_subset_pairs())
    )
    count = 0
    for sp1, sp2 in pairs:
        if count % 8 == 0:  # every character on an eighth of the triples
            assert_pair(sp1, sp2)
        else:
            assert_pair(sp1, sp2, [Character.trivial(sp1.group)])
        count += 1
    assert count == 792


def test_public_span_matrix_keeps_zero_and_negative_coefficients():
    G = AbelianGroup([2, 3])
    x = GroupRingElement(G, {(0, 0): Fraction(-1, 2), (1, 2): Fraction(2, 3), (1, 1): 0})
    y = GroupRingElement(G, {(0, 1): 5})
    zero = GroupRingElement.zero(G)
    m = SpanMatrix(G, [0, 1], [0, 1], [[x, zero], [zero, y]])
    assert m.form == (6, [[[((0, 0), -3), ((1, 2), 4)], []], [[], [((0, 1), 30)]]])
    # x - x is zero, and the products of m and n cancel terms
    n = SpanMatrix(G, [0, 1], [0, 1], [[-x, x - x], [y, zero]])
    for p, q in ((m, n), (n, m), (m, m)):
        assert_integer_forms(p, q)
    assert m == SpanMatrix(G, [0, 1], [0, 1], [[x, zero * 2], [zero, y]])
    assert m != n


def test_public_character_matrix_reduces_and_compares_by_value():
    # z^2 = -1 and z^4 = z^8 = 1 in Q(zeta_4); 1/2 + z^2/2 = 0; and over
    # conductor 3, 1 + z + z^2 = 0: no entry is given in reduced form
    h = Fraction(1, 2)
    one_a = CyclotomicNumber(4, (0, 0, -1))
    one_b = CyclotomicNumber(4, (0,) * 8 + (1,))
    zero_a = CyclotomicNumber(4, (h, 0, h))
    zero_b = CyclotomicNumber(4, (-1, 0, 0, 0, 1))
    ident = CharacterMatrix([0, 1], [0, 1], [[one_a, zero_a], [zero_b, one_b]], 4)
    assert ident.form == (1, [[[(0, 1)], []], [[], [(0, 1)]]])  # 1/2 reduced away
    assert ident.is_identity()
    minus = CharacterMatrix([0, 1], [0, 1], [[-one_a, zero_a], [zero_b, one_b]], 4)
    half = CharacterMatrix([0], [0], [[CyclotomicNumber(4, (h, h, h))]], 4)
    assert half.form == (2, [[[(1, 1)]]])  # (1 + z + z^2) / 2 = z / 2
    zero3 = CyclotomicNumber(3, (1, 1, 1))
    ident3 = CharacterMatrix([0], [0], [[CyclotomicNumber(3, (0, 0, 0, 1)) - zero3]], 3)
    assert ident3.is_identity() and not minus.is_identity()
    tall = CharacterMatrix([0, 1], [0], [[one_a], [zero_a]], 4)
    assert not tall.is_identity()
    matrices = [ident, minus, half, ident3, tall, ident * minus, minus * minus]
    assert minus * minus == ident
    assert_comparisons_are_the_entries(matrices)
    for x, y in ((ident, minus), (minus, minus), (tall, half), (minus, tall)):
        want = dense_product_entries(
            x, y, CyclotomicNumber.zero(4), fraction_cyclotomic_product
        )
        assert_form_is(x * y, want)
        assert (x * y).entries == want


def count_made(monkeypatch, cls):
    """The list that records each element of cls made from here on, by its
    public constructor or by _closed."""
    made = []
    closed, init = cls._closed.__func__, cls.__init__

    def counting_closed(cls, ring, terms):
        made.append(terms)
        return closed(cls, ring, terms)

    def counting_init(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(cls, "_closed", classmethod(counting_closed))
    monkeypatch.setattr(cls, "__init__", counting_init)
    return made


def test_signed_stirling_product_makes_no_cyclotomic_number(monkeypatch):
    # nor does the main theorem make a GroupRingElement: span matrices and
    # their product are integer forms until their entries are read
    first, second = stirling_pair(4)
    made = count_made(monkeypatch, CyclotomicNumber)
    made_qg = count_made(monkeypatch, GroupRingElement)
    lhs, rhs = check_main_theorem(first, second)
    assert lhs == rhs and not rhs.is_diagonal()
    sign = Character(AbelianGroup([2]), (1,))
    a = character_matrix(span_matrix(first), sign)
    b = character_matrix(span_matrix(second), sign)
    product = a * b
    assert product.is_identity()
    assert product == character_matrix(span_matrix(compose_spans(first, second)), sign)
    assert made == [] and made_qg == []
    # the entries are made on first read, once
    for m, count in ((product, made), (lhs, made_qg), (rhs, made_qg)):
        count.clear()
        entries = m.entries
        assert len(count) == 25
        assert m.entries is entries and m.entry(4, 4) is entries[4][4]
        m.render()
        assert len(count) == 25
    assert lhs.entries == rhs.entries


def test_public_constructors_refuse_entries_over_another_ring():
    # an entry over Z3 in a matrix over Z2 would be squared in Z2 (g(2) +
    # g(2) read as g(0)), and an entry of Q(zeta_3) in a matrix over
    # Q(zeta_4) reduced mod Phi_4; the kind of an entry is checked too
    z2, z3 = AbelianGroup([2]), AbelianGroup([3])
    bad = (
        lambda: SpanMatrix(z2, [0], [0], [[GroupRingElement.basis(z3, (2,))]]),
        lambda: CharacterMatrix([0], [0], [[CyclotomicNumber(3, (0, 1))]], 4),
        lambda: SpanMatrix(z2, [0], [0], [[CyclotomicNumber(2, (1,))]]),
        lambda: CharacterMatrix([0], [0], [[GroupRingElement.one(z2)]], 2),
        lambda: SpanMatrix(z2, [0, 1], [0], [[GroupRingElement.one(z2)], [1]]),
    )
    for make in bad:
        with pytest.raises(ValueError, match="not a .* over"):
            make()
    # the same entries over their own rings square as in their rings
    g2 = SpanMatrix(z3, [0], [0], [[GroupRingElement.basis(z3, (2,))]])
    assert (g2 * g2).entries == [[GroupRingElement.basis(z3, (1,))]]
    z = CharacterMatrix([0], [0], [[CyclotomicNumber(3, (0, 1))]], 3)
    assert (z * z).entries == [[CyclotomicNumber(3, (0, 0, 1))]]
