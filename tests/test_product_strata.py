"""Factorized product strata of the lazy pullback against the plain action
groupoid on their enumerated product carrier, with exact equality."""

import random

import pytest

from gspans.algebra import AbelianGroup
from gspans.constructions import (
    GroupoidFunctor,
    GroupValuedFunctor,
    coset_groupoid,
    discrete_groupoid,
)
from gspans.examples import stirling_pair
from gspans.groupoid import (
    ActionGroupoid,
    DisjointUnion,
    ProductActionGroupoid,
    SymmetricGroup,
)
from gspans.gspan import GSpan, GSpanError, compose_spans, span_matrix
from oracles import fibre_span_matrix

Z2 = AbelianGroup([2])


def plain_stratum(p):
    """The product action groupoid as one ActionGroupoid on the enumerated
    carrier, acting through the factor views' own act: the stratum the lazy
    pullback built before it kept its factors."""
    v1, v2 = p.left.view, p.right.view

    def act(o, g):
        (i, x), t, (j, y) = o
        return ((i, v1.act(x, g[0])), t, (j, v2.act(y, g[1])))

    return ActionGroupoid(p.group, p.objects, act)


def assert_same_stratum(p, rng, pairs=200):
    q = plain_stratum(p)
    assert p.objects == q.carrier
    assert p.components() == q.components()
    assert p.component_reps() == q.component_reps()
    assert p.chi() == q.chi()
    objs = q.carrier
    for o in objs:
        assert p.component_rep(o) == q.component_rep(o)
        assert p.aut_order(o) == q.aut_order(o)
    comps = q.components()
    for _ in range(pairs):
        comp = rng.choice(comps)
        a = rng.choice(comp)
        b = rng.choice(comp) if rng.random() < 0.5 else rng.choice(objs)
        assert p.hom_size(a, b) == q.hom_size(a, b)
    a = comps[-1][0]
    for b in (comps[-1][-1], comps[0][-1]):
        assert p.hom(a, b) == q.hom(a, b)
        for m in p.hom(a, b):
            assert p.target_of(m) == b
            assert p.compose_m(p.inverse_m(m), m) == p.identity_at(a)


def assert_same_union(apex, rng):
    plain = DisjointUnion([plain_stratum(p) for p in apex.members])
    assert apex.components() == plain.components()
    assert apex.component_reps() == plain.component_reps()
    assert apex.chi() == plain.chi()
    for p in apex.members:
        assert isinstance(p, ProductActionGroupoid)
        assert_same_stratum(p, rng)


@pytest.fixture(scope="module")
def stirling_composites():
    out = {}
    for n in (2, 3, 4):
        first, second = stirling_pair(n)
        out[n] = (first, second, compose_spans(first, second))
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stirling_strata_match_the_plain_product(stirling_composites, n):
    first, second, composed = stirling_composites[n]
    assert_same_union(composed.apex, random.Random(n))
    # every member of a Stirling apex lies over one d: factors are members
    members = first.apex.members + second.apex.members
    for p in composed.apex.members:
        assert any(p.left.view is m for m in members)
        assert any(p.right.view is m for m in members)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stirling_composed_matrix_is_the_product_and_the_fibres(
    stirling_composites, n
):
    first, second, composed = stirling_composites[n]
    m = span_matrix(composed)
    assert m == span_matrix(first) * span_matrix(second)
    assert m == fibre_span_matrix(composed)


def test_validate_visits_every_generating_handle(stirling_composites):
    # the composite's naturality is checked pointwise on carrier x generators
    # of G1 x G2, the same family as the product carrier's; 56 274 at N = 4
    composed = stirling_composites[4][2]
    apex = composed.apex
    want = [
        (k, (o, g))
        for k, p in enumerate(apex.members)
        for o in plain_stratum(p).carrier
        for g in p.group.generators()
    ]
    seen = []
    sample = apex.morphism_sample

    def counting_sample():
        for m in sample():
            seen.append(m)
            yield m

    apex.morphism_sample = counting_sample
    try:
        composed.validate()
    finally:
        del apex.morphism_sample
    assert len(seen) == 56274
    assert seen == want


def test_a_label_broken_at_one_point_of_a_composite_is_caught(stirling_composites):
    composed = stirling_composites[3][2]
    comp = max(composed.apex.components(), key=len)
    broken = comp[-1]
    G = composed.group

    def eps(o):
        e = composed.eps(o)
        return G.add(e, (1,)) if o == broken else e

    with pytest.raises(GSpanError, match="not natural"):
        GSpan(composed.apex, composed.left, composed.right, composed.h,
              composed.v, eps)


# ---------------------------------------------------------------------------
# a union whose legs send different orbits of one member to different d


def _swap_first_pairs(n):
    """S2 on {0..n-1} swapping 2i and 2i+1 (an odd last point stays)."""
    sym = SymmetricGroup(2)

    def act(x, g):
        if g == sym.identity or x == n - 1 and n % 2:
            return x
        return x ^ 1

    return ActionGroupoid(sym, list(range(n)), act)


def split_pair():
    S, T, U = discrete_groupoid(1), discrete_groupoid(2), discrete_groupoid(2)
    a = _swap_first_pairs(3)  # orbits {0, 1} over d = 0 and {2} over d = 1
    b = coset_groupoid(AbelianGroup([4]), [(0,), (2,)])  # one orbit, d = 1
    c = _swap_first_pairs(4)  # orbits {0, 1} over d = 0 and {2, 3} over d = 1
    h = GroupValuedFunctor.trivial(S, Z2)
    mid = GroupValuedFunctor.trivial(T, Z2)
    v = GroupValuedFunctor.trivial(U, Z2)

    def functor(apex, base, val):
        def obj(o):
            return base.object_of_label[val(o)]

        return GroupoidFunctor(
            apex,
            base,
            obj,
            lambda m: base.identity_at(obj(apex.source_of(m))),
            check=False,
        )

    apex1 = DisjointUnion([a, b])
    over1 = lambda o: (0 if o[1] in (0, 1) else 1) if o[0] == 0 else 1
    sp1 = GSpan(
        apex1,
        functor(apex1, S, lambda o: 0),
        functor(apex1, T, over1),
        h,
        mid,
        lambda o: (1,) if o == (0, 2) else (0,),
    )
    apex2 = DisjointUnion([c])
    sp2 = GSpan(
        apex2,
        functor(apex2, T, lambda o: o[1] // 2),
        functor(apex2, U, lambda o: 1 - o[1] // 2),
        mid,
        v,
        lambda o: (o[1] // 2,),
    )
    return sp1, sp2, (a, b, c)


def test_split_members_become_full_subgroupoid_factors():
    sp1, sp2, (a, b, c) = split_pair()
    composed = compose_spans(sp1, sp2)
    strata = composed.apex.members
    assert [(p.left.tag, p.right.tag) for p in strata] == [(0, 0), (0, 0), (1, 0)]
    left_views = [p.left.view for p in strata]
    assert left_views[0] is not a and left_views[0].carrier == [0, 1]
    assert left_views[1] is not a and left_views[1].carrier == [2]
    assert left_views[2] is b
    assert [p.right.view.carrier for p in strata] == [[0, 1], [2, 3], [2, 3]]
    assert strata[1].right is strata[2].right  # one factor per (member, d)
    assert_same_union(composed.apex, random.Random(0))
    m = span_matrix(composed)
    assert m == span_matrix(sp1) * span_matrix(sp2)
    assert m == fibre_span_matrix(composed)
