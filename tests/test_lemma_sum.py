"""Differential tests: labeled_pullback_identity, whose right-hand side
reads the factors' integer chi maps at the representatives, sums in
integers and moves the sum once, by the composite's shift, against the
Fraction double loop over labeled_fibre it replaces
(oracles.fraction_lemma_rhs) and against the composite's fibre table
(oracles.fibre_chi_by_label), at every pair of objects (c1, c2),
representatives or not."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gspans import random_spans as rnd
from gspans.examples import stirling_pair
from gspans.gspan import GSpan, compose_spans, labeled_pullback_identity
from oracles import fibre_chi_by_label, fraction_lemma_rhs
from test_fibre_search import corpus  # noqa: F401  (a pytest fixture)

# the composite's fibre table at (c1, c2) walks the morphisms of the
# composed apex once per entry, so it is built only up to this many
TABLE_APEX_OBJECTS = 128


def assert_lemma_matches_oracles(sp1, sp2, composed, table=True):
    """Both sides equal the Fraction loop's right-hand side, and the
    composite's fibre table where its apex is small, at every (c1, c2)."""
    table = table and len(composed.apex.objects) <= TABLE_APEX_OBJECTS
    for c1 in sp1.source.objects:
        for c2 in sp2.target.objects:
            lhs, rhs = labeled_pullback_identity(sp1, sp2, c1, c2, composed)
            assert rhs == fraction_lemma_rhs(sp1, sp2, c1, c2), (c1, c2)
            assert lhs == rhs, (c1, c2)
            if table:
                want = fibre_chi_by_label(composed, c1, c2, table=True)
                assert rhs == want, (c1, c2)


def test_lemma_matches_the_oracles_on_the_random_corpus(corpus):  # noqa: F811
    for sp1, sp2, composed in corpus:
        assert_lemma_matches_oracles(sp1, sp2, composed)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_lemma_matches_the_oracles_on_random_pairs(seed):
    sp1, sp2 = rnd.random_composable_pair(random.Random(seed), max_group_order=8)
    assert_lemma_matches_oracles(sp1, sp2, compose_spans(sp1, sp2))


@pytest.mark.parametrize("n", range(5))
def test_lemma_matches_the_oracles_on_stirling(n):
    # the feet are discrete, so fibre_chi_by_label reads the composite's
    # apex components; the table would walk 925 832 morphisms at N = 4
    sp1, sp2 = stirling_pair(n)
    composed = compose_spans(sp1, sp2)
    assert_lemma_matches_oracles(sp1, sp2, composed, table=False)
    for c1 in sp1.source.objects:
        for c2 in sp2.target.objects:
            lhs, _ = labeled_pullback_identity(sp1, sp2, c1, c2, composed)
            assert lhs == fibre_chi_by_label(composed, c1, c2), (c1, c2)


def unchecked(sp):
    """sp's data as a span made with check=False."""
    return GSpan(sp.apex, sp.left, sp.right, sp.h, sp.v, sp.eps, check=False)


def test_lemma_matches_the_oracles_on_unchecked_factors():
    # compose_spans walks a factor made with check=False, so the lemma
    # reads its chi map as that of a checked span
    rng = random.Random(20261021)
    for _ in range(12):
        sp1, sp2 = rnd.random_composable_pair(rng, max_group_order=8)
        first, second = unchecked(sp1), unchecked(sp2)
        assert not (first.checked or second.checked)
        composed = compose_spans(first, second)
        assert first.checked and second.checked
        assert_lemma_matches_oracles(first, second, composed)
