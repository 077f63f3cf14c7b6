"""The lazy PullbackView against its materialized table, and chains of three
spans, whose middle composites are feet of the outer pullback.

materialize(view) is the table pullback: the same labels, ids, sources and
targets as the per-pair loop oracle.  The view's own analyses (components,
representatives, |Aut|, chi and the component stars) agree with the
table's, over a discrete middle foot (factor arithmetic) and a general one
(the search over moves), on the acceptance corpus and under hypothesis.
Both bracketings of three composable spans give the span matrix A B C,
with every apex a view, nothing materialized and no view searched while
composing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gspans import groupoid
from gspans import random_spans as rnd
from gspans.constructions import (
    GroupoidFunctor,
    PullbackView,
    discrete_groupoid,
    homotopy_pullback,
)
from gspans.examples import stirling_pair
from gspans.groupoid import materialize
from gspans.gspan import compose_spans, span_matrix
from oracles import triple_loop_table_pullback
from test_product_strata import split_pair, twisted_pair

SEED = 20260810  # the acceptance corpus of criteria 3, 4, 6 and 8


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(SEED)
    return [
        rnd.random_composable_pair(
            rng, max_group_order=6, max_objects=8, max_apex_objects=8
        )
        for _ in range(50)
    ]


def assert_view_matches_its_table(view):
    """The view's analyses against those of materialize(view), through the
    table's labels, which are the view's handles."""
    table = materialize(view)
    obj, mor = table.object_labels, table.morphism_labels
    mid = table.morphism_of_label
    assert view.objects == [obj[o] for o in table.objects]
    assert view.components() == [[obj[o] for o in c] for c in table.components()]
    assert view.component_reps() == [obj[r] for r in table.component_reps()]
    assert view.chi() == table.chi()
    for o in table.objects:
        assert view.component_rep(obj[o]) == obj[table.component_rep(o)]
        assert view.aut_order(obj[o]) == table.aut_order(o)
    for m in table.morphisms:
        assert view.source_of(mor[m]) == obj[table.source[m]]
        assert view.target_of(mor[m]) == obj[table.target[m]]
    # the stars: at each representative all of Aut(r), then one morphism
    # r -> x for every other object x, in enumeration order
    star = [mid[m] for m in view.morphism_sample()]
    want = []
    for c in table.components():
        r = c[0]
        aut = table.hom(r, r)
        assert star[len(want):len(want) + len(aut)] == aut
        want += aut
        want += [(r, x) for x in c[1:]]
    assert len(star) == len(want)
    for m, w in zip(star, want):
        if isinstance(w, tuple):
            assert (table.source[m], table.target[m]) == w


def discrete_cospan(rng, max_objects=5):
    """Random groupoids M1, M2 with legs to a discrete T = {0, 1}, constant
    on components, as a pullback over a discrete T needs."""
    T = discrete_groupoid(2)

    def leg():
        table = rnd.random_groupoid(rng, max_objects).table
        level = {o: d for c in table.components() for d in [rng.randrange(2)]
                 for o in c}
        return GroupoidFunctor(
            table,
            T,
            level.__getitem__,
            lambda m: T.identity_at(level[table.source[m]]),
        )

    return leg(), leg()


def test_materialized_views_are_the_table_pullback_on_the_corpus(corpus):
    for sp1, sp2 in corpus:
        view = homotopy_pullback(sp1.right, sp2.left).groupoid
        assert isinstance(view, PullbackView)
        table = materialize(view)
        want = triple_loop_table_pullback(sp1.right, sp2.left)
        assert table.object_labels == want.object_labels
        assert table.morphism_labels == want.morphism_labels
        assert table.source == want.source and table.target == want.target
        assert table.identity == want.identity


def test_views_match_their_tables_on_the_corpus(corpus):
    for sp1, sp2 in corpus:
        assert_view_matches_its_table(compose_spans(sp1, sp2).apex)


def test_views_match_their_tables_over_discrete_feet():
    first, second = stirling_pair(2)
    views = [compose_spans(first, second).apex]
    sp1, sp2, _ = split_pair()
    views.append(compose_spans(sp1, sp2).apex)
    views.append(compose_spans(*twisted_pair()).apex)
    rng = random.Random(SEED)
    views += [PullbackView(*discrete_cospan(rng)) for _ in range(20)]
    for view in views:
        assert view.T.is_discrete
        assert_view_matches_its_table(view)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1), st.booleans())
def test_views_match_their_tables_under_hypothesis(seed, discrete):
    rng = random.Random(seed)
    r1, l2 = discrete_cospan(rng) if discrete else rnd.random_cospan(rng)
    view = PullbackView(r1, l2)
    assert view.T.is_discrete or not discrete
    assert_view_matches_its_table(view)


# ---------------------------------------------------------------------------
# chains of three spans: both bracketings are A B C, lazily


def random_chain(rng):
    """Three composable random spans A, B, C over one group."""
    G = rnd.random_group(rng, 4)
    feet = [rnd.random_groupoid(rng, 4) for _ in range(4)]
    legs = [rnd.random_bg_functor(rng, f, G) for f in feet]
    return [rnd.random_span(rng, legs[k], legs[k + 1], 4) for k in range(3)]


def assert_chain_is_the_triple_product(a, b, c, monkeypatch):
    """Both bracketings are views whose span matrix is A B C, nothing is
    materialized, and the compose_spans calls ask no view for its component
    stars or its search: a composite is checked by the composition lemma."""
    want = span_matrix(a) * span_matrix(b) * span_matrix(c)

    def refused(*args):
        raise AssertionError("a chain materialized a table")

    asked = []
    with monkeypatch.context() as mp:
        mp.setattr(groupoid.TableBuilder, "build", refused)
        with monkeypatch.context() as counted:
            for name in ("generating_family", "morphism_sample", "_searched"):
                real = getattr(PullbackView, name)
                counted.setattr(
                    PullbackView, name,
                    lambda view, real=real, name=name: asked.append(name)
                    or real(view),
                )
            left = compose_spans(compose_spans(a, b), c)
            right = compose_spans(a, compose_spans(b, c))
        assert asked == []
        for composed in (left, right):
            assert isinstance(composed.apex, PullbackView)
            assert span_matrix(composed) == want
    assert isinstance(left.apex.M1, PullbackView)
    assert isinstance(right.apex.M2, PullbackView)


def test_random_chains_are_the_triple_product(monkeypatch):
    rng = random.Random(SEED)
    for _ in range(15):
        assert_chain_is_the_triple_product(*random_chain(rng), monkeypatch)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_stirling_chains_are_the_triple_product(n, monkeypatch):
    # at N=5 the inner composite has 1.35 M objects; only span_matrix reads
    # it, through its components, which multiply out of the feet's
    first, second = stirling_pair(n)
    assert_chain_is_the_triple_product(first, second, first, monkeypatch)
