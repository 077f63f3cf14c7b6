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
from gspans import gspan
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


# ---------------------------------------------------------------------------
# compose_spans checks a lazy composite's naturality on the factors of its
# strata; pointwise GSpan.validate is the oracle it must agree with


def unchecked_composite(sp1, sp2, monkeypatch):
    """compose_spans(sp1, sp2) with the factor check passing everything."""
    with monkeypatch.context() as mp:
        mp.setattr(gspan, "_natural_on_factors", lambda *args: True)
        composed = compose_spans(sp1, sp2)
    assert isinstance(composed.apex, DisjointUnion)
    return composed


def assert_factor_check_agrees(sp1, sp2, monkeypatch):
    """The factor check and pointwise validate accept or reject together,
    and compose_spans rejects with pointwise validate's message.  Returns
    whether the composite is natural."""
    composed = unchecked_composite(sp1, sp2, monkeypatch)
    by_factors = gspan._natural_on_factors(sp1, sp2, composed.apex.members)
    try:
        composed.validate()
    except GSpanError as err:
        witness = str(err)
    else:
        witness = None
    assert by_factors == (witness is None)
    if witness is None:
        compose_spans(sp1, sp2)
    else:
        with pytest.raises(GSpanError) as err:
            compose_spans(sp1, sp2)
        assert str(err.value) == witness
    return by_factors


def with_changes(sp, h=None, v=None, eps=None):
    """sp with H, V or eps replaced, built unchecked."""
    return GSpan(
        sp.apex,
        sp.left,
        sp.right,
        h if h is not None else sp.h,
        v if v is not None else sp.v,
        eps if eps is not None else sp.eps,
        check=False,
    )


def eps_moved_at(sp, point, shift):
    G = sp.group
    return with_changes(
        sp, eps=lambda o: G.add(sp.eps(o), shift) if o == point else sp.eps(o)
    )


def value_moved_at(f, morphism, shift):
    """The G-valued functor f with shift added at one morphism."""
    G = f.group
    return GroupValuedFunctor(
        f.source,
        G,
        lambda m: G.add(f.value(m), shift) if m == morphism else f.value(m),
        check=False,
    )


Z4 = AbelianGroup([4])


def twisted_pair():
    """A composable pair over a discrete T whose outer legs are not trivial:
    S and U are BZ4 (Z4 acting on one point), H1 and V2 are the identity of
    Z4, and Z4 acts on its own points by translation (member 0) and on
    {0, 1} through Z2 (member 1, sent to S and U through g -> 2g)."""
    S = ActionGroupoid(Z4, ["s"], lambda x, g: x)
    T = discrete_groupoid(2)
    U = ActionGroupoid(Z4, ["u"], lambda x, g: x)
    free = ActionGroupoid(Z4, Z4.elements(), Z4.add)
    halves = ActionGroupoid(Z4, [0, 1], lambda x, g: (x + g[0]) % 2)
    apex1 = DisjointUnion([free, halves])
    apex2 = DisjointUnion([free, halves])

    def to_bz4(apex, point):
        # member 0 maps g to g, member 1 maps g to 2g
        return GroupoidFunctor(
            apex,
            S if point == "s" else U,
            lambda o: point,
            lambda m: (point, m[1][1] if m[0] == 0 else Z4.add(m[1][1], m[1][1])),
        )

    def to_t(apex, d):
        return GroupoidFunctor(
            apex,
            T,
            lambda o: d(o),
            lambda m: T.identity_at(d(apex.source_of(m))),
        )

    mid = GroupValuedFunctor.trivial(T, Z4)
    sp1 = GSpan(
        apex1,
        to_bz4(apex1, "s"),
        to_t(apex1, lambda o: o[0]),
        GroupValuedFunctor(S, Z4, lambda m: m[1]),
        mid,
        # eps1(y) = y on member 0 and 2y on member 1
        lambda o: o[1] if o[0] == 0 else ((2 * o[1]) % 4,),
    )
    sp2 = GSpan(
        apex2,
        to_t(apex2, lambda o: 1 - o[0]),
        to_bz4(apex2, "u"),
        mid,
        GroupValuedFunctor(U, Z4, lambda m: m[1]),
        # eps2(y) = -y on member 0 and 2y on member 1
        lambda o: Z4.neg(o[1]) if o[0] == 0 else ((2 * o[1]) % 4,),
    )
    return sp1, sp2


def test_the_twisted_pair_is_lazy_and_natural(monkeypatch):
    sp1, sp2 = twisted_pair()
    assert assert_factor_check_agrees(sp1, sp2, monkeypatch)
    composed = compose_spans(sp1, sp2)
    assert len(composed.apex.members) == 2
    assert span_matrix(composed) == span_matrix(sp1) * span_matrix(sp2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_factor_check_accepts_the_stirling_composites(
    stirling_composites, n, monkeypatch
):
    first, second, _ = stirling_composites[n]
    assert assert_factor_check_agrees(first, second, monkeypatch)


def test_factor_check_accepts_the_split_union(monkeypatch):
    sp1, sp2, _ = split_pair()
    assert assert_factor_check_agrees(sp1, sp2, monkeypatch)


def one_point_label_mutations(sp1, sp2, rng, count):
    """eps1 or eps2 moved by a nonzero element at one seeded point."""
    G = sp1.group
    shifts = [g for g in G.elements() if g != G.identity]
    out = []
    for k in range(count):
        which = k % 2
        sp = (sp1, sp2)[which]
        point = rng.choice(sp.apex.objects)
        moved = eps_moved_at(sp, point, rng.choice(shifts))
        out.append((moved, sp2) if which == 0 else (sp1, moved))
    return out


@pytest.mark.parametrize("pair", ["stirling", "split", "twisted"])
def test_factor_check_agrees_under_one_point_label_mutations(
    stirling_composites, pair, monkeypatch
):
    if pair == "stirling":
        sp1, sp2, _ = stirling_composites[3]
    elif pair == "split":
        sp1, sp2, _ = split_pair()
    else:
        sp1, sp2 = twisted_pair()
    rng = random.Random(pair)
    verdicts = [
        assert_factor_check_agrees(a, b, monkeypatch)
        for a, b in one_point_label_mutations(sp1, sp2, rng, 24)
    ]
    assert False in verdicts
    if pair == "stirling":
        # points of S_0 and S_1 strata have no generating handles
        assert True in verdicts


def test_factor_check_agrees_with_wrong_outer_legs(monkeypatch):
    sp1, sp2 = twisted_pair()
    S, U = sp1.source, sp2.target
    one = (1,)
    cases = [
        # H1 wrong on one generator morphism of S, V2 on one of U
        (with_changes(sp1, h=value_moved_at(sp1.h, ("s", one), one)), sp2),
        (sp1, with_changes(sp2, v=value_moved_at(sp2.v, ("u", one), one))),
        # ... on the morphism the halves member's generator is sent to
        (with_changes(sp1, h=value_moved_at(sp1.h, ("s", (2,)), (2,))), sp2),
        # a nonzero value on an identity of S or of U
        (with_changes(sp1, h=value_moved_at(sp1.h, S.identity_at("s"), one)), sp2),
        (sp1, with_changes(sp2, v=value_moved_at(sp2.v, U.identity_at("u"), one))),
    ]
    assert [assert_factor_check_agrees(a, b, monkeypatch) for a, b in cases] == [
        False
    ] * len(cases)


def test_factor_check_agrees_with_a_nonzero_identity_on_stirling_feet(
    stirling_composites, monkeypatch
):
    # the feet are discrete: every handle of a stratum over n in S reads
    # H1 at the identity of n, and likewise V2 at the identity of m in U
    first, second, _ = stirling_composites[3]
    base = first.source
    verdicts = []
    for n in base.objects:
        h = value_moved_at(first.h, base.identity_at(n), (1,))
        v = value_moved_at(second.v, base.identity_at(n), (1,))
        verdicts.append((
            assert_factor_check_agrees(with_changes(first, h=h), second, monkeypatch),
            assert_factor_check_agrees(first, with_changes(second, v=v), monkeypatch),
        ))
    # H1 at n is read by strata of S_n, which have generators for n >= 2;
    # V2 at m by strata of S_k with k >= m, so by S_2 once m >= 1
    assert verdicts == [(True, True), (True, False), (False, False), (False, False)]
