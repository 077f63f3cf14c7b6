"""The lazy PullbackView against its materialized table, and chains of three
spans, whose middle composites are feet of the outer pullback.

materialize(view) is the table pullback: the same labels, ids, sources and
targets as the per-pair loop oracle.  The view's own analyses (components,
representatives, |Aut|, chi, and the search forest, which generates the
table's morphisms) agree with the table's, over a discrete middle foot
(factor arithmetic) and a general one (the search over moves), on the
acceptance corpus, the cells squares and under hypothesis.
Both bracketings of three composable spans give the span matrix A B C,
with every apex a view, nothing materialized and no view searched while
composing.  The double-coset pass gives the search's representatives and
|Aut| without listing the objects: on fresh views, over every kind of
middle foot, and reading a composite's matrix lists none of its objects."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gspans import groupoid
from gspans import random_spans as rnd
from gspans.algebra import AbelianGroup
from gspans.constructions import (
    GroupoidFunctor,
    PullbackView,
    coset_groupoid,
    discrete_groupoid,
    homotopy_pullback,
)
from gspans.examples import coset_span, stirling_pair
from gspans.groupoid import SymmetricGroup, _extend_closure, materialize
from gspans.gspan import compose_spans, span_matrix
from oracles import pullback_object_list, triple_loop_table_pullback
from test_examples import c07_coset_pairs
from test_product_strata import assert_search_forest, split_pair, twisted_pair
from test_star_family import closure

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
    assert view.objects == [obj[o] for o in table.objects]
    assert view.components() == [[obj[o] for o in c] for c in table.components()]
    assert view.component_reps() == [obj[r] for r in table.component_reps()]
    assert view.chi() == table.chi()
    for o in table.objects:
        assert view.component_rep(obj[o]) == obj[table.component_rep(o)]
        assert view.aut_order(obj[o]) == table.aut_order(o)
    for r in table.component_reps():
        assert view.hom(obj[r], obj[r]) == [mor[m] for m in table.hom(r, r)]
    for m in table.morphisms:
        assert view.source_of(mor[m]) == obj[table.source[m]]
        assert view.target_of(mor[m]) == obj[table.target[m]]
    # the search forest: at each representative all of Aut(r), then one
    # move into every other object, from an object reached before it; it
    # generates the table's morphisms under composition and inverses
    family = list(view.generating_family())
    assert_search_forest(view, family)
    assert closure(view, [m for m, _, _ in family]) == set(mor.values())


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


def test_views_match_their_tables_on_the_cells_squares(monkeypatch):
    # square 24's top composite has 26 244 morphisms, over the default guard
    monkeypatch.setenv("GSPANS_SIZE_GUARD", "30000")
    for u1, _, u2, _ in bench_cells_squares():
        top = compose_spans(u1.src_span, u2.src_span).apex
        for view in (top, top.M1, top.M2):
            assert_view_matches_its_table(view)


def test_the_generating_family_composes_nothing(corpus, monkeypatch):
    views = [compose_spans(sp1, sp2).apex for sp1, sp2 in corpus]
    for u1, _, u2, _ in bench_cells_squares():
        top = compose_spans(u1.src_span, u2.src_span).apex
        views += [top, top.M1, top.M2]
    views += [compose_spans(*stirling_pair(n)).apex for n in range(5)]

    def refused(*args):
        raise AssertionError("the generating family composed a morphism")

    with monkeypatch.context() as mp:
        mp.setattr(PullbackView, "compose_m", refused)
        families = [view.generating_family() for view in views]
    for view, family in zip(views, families):
        assert len(family) == sum(
            view.aut_order(c[0]) + len(c) - 1 for c in view.components()
        )


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
    materialized, and the compose_spans calls ask no view for its generating
    family or its search: a composite is checked by the composition lemma."""
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


# ---------------------------------------------------------------------------
# the double-coset pass against the search


def assert_double_cosets_are_the_search(view):
    """On a fresh copy of view, before any search: the pass lists no object,
    its representatives are the first objects of components(), in order,
    and aut_order at each is hom_size(r, r).  The objects are the pair
    loop's, in its order (oracles.pullback_object_list)."""
    fresh = PullbackView(view.r1, view.l2)
    reps = fresh.component_reps()
    auts = [fresh.aut_order(r) for r in reps]
    assert fresh._objects is None and fresh._search is None
    assert fresh.objects == pullback_object_list(fresh)
    assert reps == [c[0] for c in fresh.components()]
    assert auts == [fresh.hom_size(r, r) for r in reps]


def bench_cells_squares():
    """The cells workload's fixed list: square i is drawn from the i-th
    64-bit draw of random.Random(0)."""
    base = random.Random(0)
    return [
        rnd.random_two_cell_square(random.Random(base.getrandbits(64)))
        for _ in range(40)
    ]


def subgroups_of(G):
    """Every subgroup of a small group: the closures of all pairs of its
    elements."""
    found = set()
    for g, h in itertools.product(G.elements(), repeat=2):
        gens, closure = [], [G.identity]
        seen = set(closure)
        for x in (g, h):
            if x not in seen:
                _extend_closure(G.op, gens, closure, seen, x)
        found.add(tuple(sorted(closure)))
    return sorted(found, key=lambda sub: (len(sub), sub))


def coset_cospan(G, h1, k, h2):
    """H1\\G -> K\\G <- H2\\G, each coset sent to the coset of K holding
    it, for H1, H2 <= K."""
    T = coset_groupoid(G, k)

    def projection(h):
        return GroupoidFunctor(
            coset_groupoid(G, h), T, T.coset_of,
            lambda m: (T.coset_of(m[0]), m[1]), check=False,
        )

    return projection(h1), projection(h2)


def test_double_cosets_are_the_search_on_the_corpus(corpus):
    for sp1, sp2 in corpus:
        assert_double_cosets_are_the_search(compose_spans(sp1, sp2).apex)


def test_double_cosets_are_the_search_on_chains():
    # both bracketings, so the nested M1 or M2 is itself a view
    rng = random.Random(SEED)
    for _ in range(15):
        a, b, c = random_chain(rng)
        left = compose_spans(compose_spans(a, b), c).apex
        right = compose_spans(a, compose_spans(b, c)).apex
        for view in (left, left.M1, right, right.M2):
            assert_double_cosets_are_the_search(view)


def test_double_cosets_are_the_search_on_the_cells_squares():
    for u1, _, u2, _ in bench_cells_squares():
        top = compose_spans(u1.src_span, u2.src_span).apex
        assert isinstance(top.M1, PullbackView)
        for view in (top, top.M1, top.M2):
            assert_double_cosets_are_the_search(view)


def test_double_cosets_are_the_search_over_coset_feet():
    # connected K2\\G middle feet, with Aut(r1) = H1 and Aut(r2) = H2 acting
    # on each hom-set, so orbits have several points
    for G, first, second in c07_coset_pairs(maximal=True):
        a, b = coset_span(G, *first), coset_span(G, *second)
        assert_double_cosets_are_the_search(compose_spans(a, b).apex)


@pytest.mark.parametrize("n", [3, 4])
def test_double_cosets_are_the_search_over_symmetric_groups(n):
    # a non-abelian T = K\\Sn, where L2(m2) t R1(m1)^-1 depends on the side
    G = SymmetricGroup(n)
    subs = subgroups_of(G)
    if n == 4:  # K = S4, and H1, H2 among its subgroups of order 6 to 12
        ks, small = [subs[-1]], [h for h in subs if 6 <= len(h) <= 12]
    else:
        ks, small = subs, subs
    views = 0
    for k in ks:
        below = [h for h in small if set(h) <= set(k)]
        for h1, h2 in itertools.product(below, repeat=2):
            view = PullbackView(*coset_cospan(G, h1, k, h2))
            assert not view.T.is_discrete
            assert_double_cosets_are_the_search(view)
            views += 1
    assert views == {3: 53, 4: 64}[n]


@pytest.mark.parametrize("n", range(5))
def test_double_cosets_are_the_search_on_stirling(n):
    first, second = stirling_pair(n)
    assert_double_cosets_are_the_search(compose_spans(first, second).apex)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_double_cosets_are_the_search_under_hypothesis(seed):
    assert_double_cosets_are_the_search(
        PullbackView(*rnd.random_cospan(random.Random(seed)))
    )


def test_composite_matrices_list_no_object_over_a_non_discrete_foot(
    corpus, monkeypatch
):
    # a corpus pair, a coset pair and both bracketings of a chain, each over
    # a middle foot that is not discrete
    sp1, sp2 = next(p for p in corpus if not p[0].target.is_discrete)
    G = AbelianGroup([2, 4])
    h, k = [(0, 0), (0, 2)], G.elements()
    coset_pair = coset_span(G, h, k, k), coset_span(G, [(0, 0), (1, 0)], k, k)
    rng = random.Random(SEED)
    a, b, c = random_chain(rng)
    while b.source.is_discrete or b.target.is_discrete:
        a, b, c = random_chain(rng)
    cases = [
        ((sp1, sp2), span_matrix(sp1) * span_matrix(sp2)),
        (coset_pair, span_matrix(coset_pair[0]) * span_matrix(coset_pair[1])),
    ]
    abc = span_matrix(a) * span_matrix(b) * span_matrix(c)

    def refused(view):
        raise AssertionError("a composite's matrix listed its objects")

    with monkeypatch.context() as mp:
        for name in ("_object_list", "_searched"):
            mp.setattr(PullbackView, name, refused)
        got = [span_matrix(compose_spans(*pair)) for pair, _ in cases]
        chains = [
            span_matrix(compose_spans(compose_spans(a, b), c)),
            span_matrix(compose_spans(a, compose_spans(b, c))),
        ]
    assert got == [want for _, want in cases]
    assert chains == [abc, abc]


def test_the_pass_reads_each_hom_set_once_over_the_stirling_base(monkeypatch):
    first, second = stirling_pair(4)
    view = compose_spans(first, second).apex
    T, calls = view.T, []
    real = T.hom
    monkeypatch.setattr(T, "hom", lambda x, y: calls.append((x, y)) or real(x, y))
    reps = view.component_reps()
    assert reps and calls
    assert len(calls) == len(set(calls)) <= len(T.objects)
    assert all(x == y for x, y in calls)
