"""A composite's matrix from the stream of its apex's representatives.

_fibre_chi on a composite reads each component's key (L1 a1, R2 a2,
|Aut|, eps2 a2 + V1 t + eps1 a1) from the pass's stream and the factors'
rows.  The closure route (oracles.closure_keys) reads the same key through
the composite's legs, label and aut_order at each of its listed
representatives.  Both give the same counts in the same order, and so the
same chi map; the stream yields exactly the listed representatives, with
aut_order at each, and reading the matrix lists none of them.  Checked on
the acceptance corpus, Stirling pairs, the cells workload's composites, the
c07 coset compositions and under hypothesis."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gspans import random_spans as rnd
from gspans.constructions import PullbackView
from gspans.examples import coset_span, stirling_pair
from gspans.gspan import _composite_keys, _fibre_chi, compose_spans
from oracles import closure_keys, unchecked_composite
from test_examples import c07_coset_pairs
from test_pullback_view import bench_cells_squares

SEED = 20260810  # the acceptance corpus of criteria 3, 4, 6 and 8


def assert_stream_is_the_closure_route(sp1, sp2):
    """The stream's counts, their order and the chi map equal the closure
    route's on the unchecked composite, whose apex is a fresh view; the
    stream is that view's component_reps() with aut_order at each, which is
    hom_size(r, r) where the middle foot is not discrete; and the
    composite's own apex lists no representative."""
    composed = compose_spans(sp1, sp2)
    plain = unchecked_composite(sp1, sp2)
    assert plain.factors is None
    stream = list(composed.apex.representatives())
    assert list(_composite_keys(composed).items()) == list(
        closure_keys(plain).items()
    )
    (den, got), (want_den, want) = _fibre_chi(composed), _fibre_chi(plain)
    assert den == want_den
    assert list(got.items()) == list(want.items())
    assert composed.apex._reps is None
    view = plain.apex
    reps = view.component_reps()
    auts = [view.aut_order(r) for r in reps]
    assert [(a1, t, a2) for a1, t, a2, _ in stream] == reps
    assert [n for *_, n in stream] == auts
    if not view.T.is_discrete:  # there aut_order reads the listed pass
        assert auts == [view.hom_size(r, r) for r in reps]


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(SEED)
    return [
        rnd.random_composable_pair(
            rng, max_group_order=6, max_objects=8, max_apex_objects=8
        )
        for _ in range(50)
    ]


def test_stream_on_the_corpus(corpus):
    for sp1, sp2 in corpus:
        assert_stream_is_the_closure_route(sp1, sp2)


@pytest.mark.parametrize("n", range(7))
def test_stream_on_stirling(n):
    assert_stream_is_the_closure_route(*stirling_pair(n))


def test_stream_on_the_cells_composites():
    # top, mid and bot of interchange_check; top's factors are themselves
    # composites, so M1 and M2 of its apex are views
    for u1, w1, u2, w2 in bench_cells_squares():
        for x, y in (
            (u1.src_span, u2.src_span),
            (u1.dst_span, u2.dst_span),
            (w1.dst_span, w2.dst_span),
        ):
            assert_stream_is_the_closure_route(x, y)
        top = compose_spans(u1.src_span, u2.src_span).apex
        assert isinstance(top.M1, PullbackView)


@pytest.mark.parametrize("maximal", [False, True], ids=["trivial_h", "maximal_h"])
def test_stream_on_the_c07_coset_compositions(maximal):
    for G, first, second in c07_coset_pairs(maximal):
        assert_stream_is_the_closure_route(
            coset_span(G, *first), coset_span(G, *second)
        )


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_stream_under_hypothesis(seed):
    assert_stream_is_the_closure_route(
        *rnd.random_composable_pair(random.Random(seed))
    )
