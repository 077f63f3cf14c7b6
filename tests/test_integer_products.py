"""Products summed in integers against the Fraction loops they replace
(oracles.fraction_qg_product, fraction_character_image and
fraction_span_matrix), each compared on == and render(): the QG product,
with its term order, on every c07 group and under hypothesis, the
character image on every character of groups whose conductor is above 2,
and the span matrices and their products on the Stirling pairs and the c07
coset compositions.  test_sparse_product compares the matrix products with
the dense Fraction loop.  Also the label check that span_matrix's
unchecked terms rely on."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gspans.algebra import AbelianGroup, Character, GroupRingElement
from gspans.constructions import (
    GroupoidFunctor,
    GroupValuedFunctor,
    discrete_groupoid,
)
from gspans.examples import coset_span, stirling_pair
from gspans.groupoid import DisjointUnion
from gspans.gspan import (
    GSpan,
    GSpanError,
    MemberLabel,
    compose_spans,
    labeled_fibre,
    matrix_multiply,
    span_matrix,
)
from oracles import (
    abelian_group_order_lists,
    dense_product_entries,
    fraction_character_image,
    fraction_cyclotomic_product,
    fraction_qg_product,
    fraction_span_matrix,
)
from test_examples import c07_coset_pairs

SEED = 20261020
DENOMINATORS = (1, 1, 2, 3, 4, 6, 12, 35)


def assert_same(got, want):
    assert got == want
    assert got.render() == want.render()


def assert_same_product(x, y):
    """x * y is the Fraction loop's product, term order included, and each
    coefficient is a Fraction."""
    got, want = x * y, fraction_qg_product(x, y)
    assert_same(got, want)
    assert list(got.terms) == list(want.terms)
    assert all(type(c) is Fraction for c in got.terms.values())


def mixed_element(rng, G, size):
    """An element on size random keys, coefficients of either sign over
    mixed denominators, so products cancel and need a common denominator."""
    picked = rng.sample(G.elements(), min(size, G.order))
    return GroupRingElement(
        G,
        {g: Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS)) for g in picked},
    )


@pytest.mark.parametrize("orders", abelian_group_order_lists(8), ids=str)
def test_qg_products_are_the_fraction_loop_on_every_c07_group(orders):
    G = AbelianGroup(orders)
    rng = random.Random(SEED + G.order)
    xs = [GroupRingElement.zero(G), GroupRingElement.one(G)]
    xs += [mixed_element(rng, G, size) for size in (1, 2, 3, G.order) for _ in range(3)]
    for x, y in itertools.product(xs, repeat=2):
        assert_same_product(x, y)
    scale = GroupRingElement.basis(G, G.identity, Fraction(-3, 4))
    for x in xs:  # scaling and sums are built unchecked too
        assert_same(x * Fraction(-3, 4), fraction_qg_product(x, scale))
        assert (x + (-x)).terms == {} and (x - x).terms == {}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_products_and_images_are_the_fraction_loops_under_hypothesis(data):
    G = AbelianGroup(data.draw(st.sampled_from(abelian_group_order_lists(12))))
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    element = st.dictionaries(st.sampled_from(G.elements()), coeff, max_size=6).map(
        lambda terms: GroupRingElement(G, terms)
    )
    x, y = data.draw(element), data.draw(element)
    assert_same_product(x, y)
    rho = Character(G, data.draw(st.tuples(*[st.integers(0, n - 1) for n in G.orders])))
    image_x, image_y = rho.apply(x), rho.apply(y)
    assert_same(image_x, fraction_character_image(rho, x))
    assert_same(image_x * image_y, fraction_cyclotomic_product(image_x, image_y))
    assert_same(rho.apply(x * y), image_x * image_y)


@pytest.mark.parametrize("orders", [[2, 4], [3, 3], [8]], ids=str)
def test_every_character_image_is_the_fraction_loop(orders):
    # conductors 4, 3 and 8: images and their products reduce mod Phi_m
    G = AbelianGroup(orders)
    rng = random.Random(SEED + G.order)
    xs = [GroupRingElement.zero(G), GroupRingElement.one(G)]
    xs += [mixed_element(rng, G, size) for size in (1, 3, G.order) for _ in range(4)]
    for exponents in itertools.product(*[range(n) for n in orders]):
        rho = Character(G, exponents)
        images = [rho.apply(x) for x in xs]
        for x, image in zip(xs, images):
            assert_same(image, fraction_character_image(rho, x))
            assert all(type(c) is Fraction for c in image.coeffs)
        for u, v in itertools.product(images[2:], repeat=2):
            assert_same(u * v, fraction_cyclotomic_product(u, v))


def assert_matrices_match(*spans):
    """Each span's matrix is the Fraction span matrix, and the product of
    consecutive ones is the dense Fraction product, on == and render()."""
    matrices = []
    for sp in spans:
        m = span_matrix(sp)
        want = fraction_span_matrix(sp)
        assert m == want and m.render() == want.render()
        matrices.append(m)
    for a, b in zip(matrices, matrices[1:]):
        got = matrix_multiply(a, b)
        want = dense_product_entries(
            a, b, GroupRingElement.zero(a.group), fraction_qg_product
        )
        assert got.entries == want
        assert [[x.render() for x in row] for row in got.entries] == [
            [x.render() for x in row] for row in want
        ]
    return matrices


@pytest.mark.parametrize("n", range(7))
def test_stirling_matrices_are_the_fraction_loops(n):
    first, second = stirling_pair(n)
    composed = compose_spans(first, second)
    a, b, c = assert_matrices_match(first, second, composed)
    assert c == matrix_multiply(a, b)


@pytest.mark.parametrize("maximal", [False, True], ids=["trivial_h", "maximal_h"])
def test_c07_coset_compositions_are_the_fraction_loops(maximal):
    count = 0
    for G, first, second in c07_coset_pairs(maximal):
        sp1, sp2 = coset_span(G, *first), coset_span(G, *second)
        assert_matrices_match(sp1, sp2)
        assert_matrices_match(compose_spans(sp1, sp2))
        count += 1
    assert count == 792


# --- labels -----------------------------------------------------------------


Z2 = AbelianGroup([2])
# AbelianGroup.add truncates (0, 1) and () by zip and reduces (5,) mod 2
BAD_LABELS = [(0, 1), (5,), ()]


def point_span(label, check):
    """One object over one-point feet, labelled label."""
    apex, foot = discrete_groupoid(1), discrete_groupoid(1)
    leg = GroupoidFunctor(
        apex, foot, lambda o: 0, lambda m: foot.identity_at(0), check=False
    )
    triv = GroupValuedFunctor.trivial(foot, Z2)
    return GSpan(apex, leg, leg, triv, triv, lambda a: label, check=check)


def member_span(label, check):
    """Two one-object members over one-point feet, labelled (1,) and label
    by a MemberLabel, so validate checks once per member."""
    union, foot = DisjointUnion([discrete_groupoid(1)] * 2), discrete_groupoid(1)
    leg = GroupoidFunctor.constant_on_members(union, foot, [0, 0])
    triv = GroupValuedFunctor.trivial(foot, Z2)
    labels = MemberLabel(union, [(1,), label])
    return GSpan(union, leg, leg, triv, triv, labels, check=check)


def test_a_label_outside_the_group_is_refused():
    # as GSpanError (so also under python -O): at construction by the walk
    # and by the per-member check, and, on a span made with check=False, by
    # span_matrix, labeled_fibre and compose_spans, which read the labels
    for build in (point_span, member_span):
        assert span_matrix(build((1,), True)) == span_matrix(build((1,), False))
        for label in BAD_LABELS:
            with pytest.raises(GSpanError, match="not an element"):
                build(label, True)
            for read in (
                span_matrix,
                lambda sp: labeled_fibre(sp, 0, 0),
                lambda sp: compose_spans(sp, sp),
            ):
                with pytest.raises(GSpanError, match="not an element"):
                    read(build(label, False))
