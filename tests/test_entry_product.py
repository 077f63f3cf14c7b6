"""_fibre_chi as a product of three histograms in QG, per key
(La, Ra, |Aut a|), against the two_sided_fibre table oracle, and the
canonical functors to BG checked where they are made.

span_matrix reads _fibre_chi, so test_span_kernel's comparisons of
span_matrix with the fibre tables cover the c07 subset and coset sweeps
(K = G included) and the seeded random corpus, factors and composites.
Here the chi maps themselves are compared on composites of c07 coset
pairs, where components share (La, Ra) and the H and V histograms have more
than one point, and the Z16 x Z16 compositions are checked against A.B."""

import itertools
from fractions import Fraction

import pytest

from gspans.algebra import AbelianGroup
from gspans.constructions import (
    FunctorError,
    GroupValuedFunctor,
    coset_groupoid,
    delooping_bg,
)
from gspans.examples import coset_span, group_square_span
from gspans.groupoid import ActionGroupoid, SymmetricGroup
from gspans.gspan import _fibre_chi, compose_spans, matrix_multiply, span_matrix
from oracles import all_pairs_group_valued_check, fibre_chi_by_label
from test_examples import C07_COSET_GROUPS


def assert_chi_is_the_table(sp):
    den, chi = _fibre_chi(sp)  # numerators over the span's one den
    pairs = 0
    for c in sp.source.component_reps():
        for d in sp.target.component_reps():
            nums = chi.get((c, d), {})
            got = {g: Fraction(k, den) for g, k in nums.items()}
            assert got == fibre_chi_by_label(sp, c, d, table=True)
            pairs += 1
    assert pairs and set(chi) <= {
        (c, d) for c in sp.source.component_reps()
        for d in sp.target.component_reps()
    }


def test_composites_of_c07_coset_pairs_are_the_table():
    # through the middle foot G\G: over Z4 every K1, K3 with H = K cap K',
    # and over Z4 and Z2 x Z2 K1 = K3 = G with H = {0}, where every H and V
    # histogram is all of G (the table oracle of a composite is slow, so
    # test_examples' closed forms cover the rest of the c07 triples)
    count = 0
    for orders in ([4], [2, 2]):
        G = AbelianGroup(orders)
        subs, K, zero = G.all_subgroups(), G.elements(), [G.identity]
        triples = [(K, zero, K, zero, K)]
        if orders == [4]:
            triples += [
                (k1, sorted(set(k1) & set(K)), K, sorted(set(K) & set(k3)), k3)
                for k1, k3 in itertools.product(subs, repeat=2)
            ]
        for k1, h1, k2, h2, k3 in triples:
            a, b = coset_span(G, h1, k1, k2), coset_span(G, h2, k2, k3)
            assert_chi_is_the_table(compose_spans(a, b))
            count += 1
    assert count == 2 + 9


def test_histograms_that_count_a_value_twice_are_the_table():
    # H and V are k -> 2k on Z4, so S(c, La) and T(Ra, d), each all of Z4,
    # give every value of H and of V twice
    G = AbelianGroup([4])

    def double(k):
        return G.add(k, k)

    for x in G.elements():
        assert_chi_is_the_table(group_square_span(
            G, G, G, G, lambda m: m, lambda m: m, double, double, x
        ))


@pytest.mark.parametrize("full", [False, True], ids=["k_zero", "k_g"])
def test_z16_squared_coset_composition_is_the_product(full):
    G = AbelianGroup([16, 16])
    zero = [G.identity]
    K = G.elements() if full else zero
    a, b = coset_span(G, zero, K, K), coset_span(G, zero, K, K)
    composed = compose_spans(a, b)
    for f in (a.h, a.v, b.h, b.v):
        assert f.checked  # projections: compose_spans walked none of them
    assert span_matrix(composed) == matrix_multiply(span_matrix(a), span_matrix(b))


def c07_projections():
    """The projection m -> m[1] on the coset groupoid K\\G of every subgroup
    K of every c07 coset group."""
    for orders in C07_COSET_GROUPS:
        G = AbelianGroup(orders)
        for K in G.all_subgroups():
            yield GroupValuedFunctor.projection(coset_groupoid(G, K), G)


def test_projections_pass_the_walk_and_the_all_pairs_oracle():
    count = 0
    for f in c07_projections():
        assert f.checked
        f.validate()
        all_pairs_group_valued_check(f)
        count += 1
    assert count == 3 + 4 + 4 + 5 + 8
    # over Z16 x Z16, K = {0} (65 536 morphisms) takes about 0.6 s to walk
    G = AbelianGroup([16, 16])
    for K in ([(x, 0) for x in range(16)], G.elements()):
        GroupValuedFunctor.projection(coset_groupoid(G, K), G).validate()


def test_trivial_is_checked_and_passes_the_walk():
    G = AbelianGroup([2, 3])
    for view in (coset_groupoid(G, [G.identity]), delooping_bg(G)):
        f = GroupValuedFunctor.trivial(view, G)
        assert f.checked
        f.validate()


def test_projection_refuses_a_view_of_another_group():
    G, H = AbelianGroup([4]), AbelianGroup([2, 2])
    with pytest.raises(FunctorError, match="action groupoid of"):
        GroupValuedFunctor.projection(coset_groupoid(H, [H.identity]), G)
    with pytest.raises(FunctorError, match="action groupoid of"):
        GroupValuedFunctor.projection(delooping_bg(G), G)
    S3 = SymmetricGroup(3)
    with pytest.raises(FunctorError, match="action groupoid of"):
        GroupValuedFunctor.projection(
            ActionGroupoid(S3, S3.elements(), S3.conjugate), G
        )
