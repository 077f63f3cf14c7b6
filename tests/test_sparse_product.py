"""The sparse matrix product against the dense triple loop it replaces
(oracles.dense_product_entries), whose products are the Fraction loops
(oracles.fraction_qg_product and fraction_cyclotomic_product):
matrix_multiply and CharacterMatrix.__mul__ on the Stirling matrices, the
seeded acceptance corpus, matrices with zero rows and columns, and 1 x k
and k x 1 shapes, under every character, conductors 3, 4 and 8 included.
A group, conductor or inner index mismatch still raises, even between zero
matrices, where no product is formed."""

import itertools
import random
from fractions import Fraction

import pytest

from gspans import random_spans as rnd
from gspans.algebra import (
    AbelianGroup,
    Character,
    CyclotomicNumber,
    GroupRingElement,
)
from gspans.examples import stirling_pair
from gspans.gspan import SpanMatrix, character_matrix, matrix_multiply, span_matrix
from oracles import (
    dense_product_entries,
    fraction_cyclotomic_product,
    fraction_qg_product,
)

CORPUS_SEED = 20260810  # the acceptance corpus


def all_characters(G):
    return [
        Character(G, e) for e in itertools.product(*[range(n) for n in G.orders])
    ]


def assert_products_match(a, b):
    """matrix_multiply(a, b), and the product of the character images under
    every character of the group, equal the dense loop, indexes included."""
    got = matrix_multiply(a, b)
    assert got.entries == dense_product_entries(
        a, b, GroupRingElement.zero(a.group), fraction_qg_product
    )
    assert (got.row_index, got.col_index) == (a.row_index, b.col_index)
    for rho in all_characters(a.group):
        ca, cb = character_matrix(a, rho), character_matrix(b, rho)
        got = ca * cb
        want = dense_product_entries(
            ca, cb, CyclotomicNumber.zero(rho.conductor), fraction_cyclotomic_product
        )
        assert got.entries == want
        assert (got.row_index, got.col_index) == (a.row_index, b.col_index)


@pytest.mark.parametrize("n", range(7))
def test_stirling_products_match_the_dense_loop(n):
    a, b = (span_matrix(sp) for sp in stirling_pair(n))
    assert_products_match(a, b)
    assert_products_match(b, a)


def test_corpus_products_match_the_dense_loop():
    rng = random.Random(CORPUS_SEED)
    for _ in range(50):
        sp1, sp2 = rnd.random_composable_pair(
            rng, max_group_order=6, max_objects=8, max_apex_objects=8
        )
        assert_products_match(span_matrix(sp1), span_matrix(sp2))


def random_matrix(rng, G, rows, cols, zero_rows=(), zero_cols=()):
    """A rows x cols matrix over G with about half its entries zero, and
    the given rows and columns all zero."""
    els = G.elements()
    entries = []
    for i in range(rows):
        row = []
        for j in range(cols):
            terms = {}
            if i not in zero_rows and j not in zero_cols and rng.random() < 0.5:
                for g in rng.sample(els, rng.randint(1, len(els))):
                    terms[g] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            row.append(GroupRingElement(G, terms))
        entries.append(row)
    return SpanMatrix(G, range(rows), range(cols), entries)


@pytest.mark.parametrize("orders", [[2], [3], [2, 2], [2, 4], [3, 3], [8]])
def test_zero_rows_columns_and_thin_shapes_match_the_dense_loop(orders):
    G = AbelianGroup(orders)
    rng = random.Random(sum(orders))
    shapes = [(1, 4, 1), (4, 1, 4), (1, 1, 5), (5, 1, 1), (1, 3, 3), (3, 3, 1)]
    shapes += [(3, 0, 2), (3, 4, 2), (4, 4, 4)]
    for m, k, n in shapes:
        for _ in range(6):
            # a zero row of A, a zero column of A (so a whole inner term is
            # zero), a zero row of B and a zero column of B
            a_col, b_row = ({rng.randrange(k)} if k else () for _ in "ab")
            a = random_matrix(rng, G, m, k, {rng.randrange(m)}, a_col)
            b = random_matrix(rng, G, k, n, b_row, {rng.randrange(n)})
            assert_products_match(a, b)
            a, b = random_matrix(rng, G, m, k), random_matrix(rng, G, k, n)
            assert_products_match(a, b)
    zero_a = random_matrix(rng, G, 3, 2, zero_rows={0, 1, 2})
    assert_products_match(zero_a, random_matrix(rng, G, 2, 3))
    assert matrix_multiply(zero_a, random_matrix(rng, G, 2, 3)).entries == [
        [GroupRingElement.zero(G)] * 3
    ] * 3


def test_mismatches_still_raise_between_zero_matrices():
    z2, z3 = AbelianGroup([2]), AbelianGroup([3])
    a = SpanMatrix(z2, [0], [0], [[GroupRingElement.zero(z2)]])
    b = SpanMatrix(z3, [0], [0], [[GroupRingElement.zero(z3)]])
    with pytest.raises(ValueError, match="different groups"):
        matrix_multiply(a, b)
    z4 = AbelianGroup([4])
    c = SpanMatrix(z4, [0], [0], [[GroupRingElement.zero(z4)]])
    ca = character_matrix(a, Character(z2, (1,)))
    cc = character_matrix(c, Character(z4, (1,)))
    with pytest.raises(ValueError, match="conductors differ"):
        ca * cc
    d = SpanMatrix(z2, [0], [1], [[GroupRingElement.zero(z2)]])
    for x, y in ((d, a), (d, d)):
        with pytest.raises(ValueError, match="inner indexes"):
            matrix_multiply(x, y)
    cd = character_matrix(d, Character(z2, (1,)))
    with pytest.raises(ValueError, match="inner indexes"):
        cd * cd
