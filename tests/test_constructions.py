"""Pullbacks, fibres, Grothendieck constructions, and the chi identities."""

import random
from fractions import Fraction

import pytest

from gspans import random_spans as rnd
from gspans.algebra import AbelianGroup
from gspans.examples import universal_span
from gspans.groupoid import SizeGuardError, composable_pairs, materialize
from gspans.gspan import compose_spans
from gspans.constructions import (
    FunctorError,
    GroupoidFunctor,
    GroupValuedFunctor,
    SetValuedFunctor,
    bg_self_functor,
    coset_groupoid,
    delooping_bg,
    discrete_groupoid,
    grothendieck,
    grothendieck_chi_by_weighting,
    homotopy_pullback,
    identity_functor,
    left_fibre,
    point_inclusion,
    pullback_euler_check,
    right_fibre,
    trivial_subgroupoid,
    two_sided_fibre,
    two_sided_pullback,
)
from oracles import assert_two_sided_pullback_matches_table

Z2 = AbelianGroup([2])
Z3 = AbelianGroup([3])
Z4 = AbelianGroup([4])


def bz(G):
    return delooping_bg(G)


def test_functor_validation_rejects_bad_maps():
    b2 = bz(Z2)
    b4 = bz(Z4)
    send = {Z2.identity: Z4.identity, (1,): (1,)}  # not a homomorphism
    with pytest.raises(FunctorError):
        GroupoidFunctor(
            b2,
            b4,
            lambda o: b4.objects[0],
            lambda m: b4.morphism_of_label[send[b2.morphism_labels[m]]],
        )
    # identity functor passes
    identity_functor(b2).validate()


def test_pullback_identity_cospan_bz2():
    b2 = bz(Z2)
    res = homotopy_pullback(identity_functor(b2), identity_functor(b2))
    # equivalent to Z2//(Z2 x Z2): chi = 1/2
    assert materialize(res.groupoid).validate() == []
    assert res.groupoid.chi() == Fraction(1, 2)
    res.p1.validate()
    res.p2.validate()
    # defining commutation u o R(m1) = L(m2) o t, morphism by morphism
    g = res.groupoid
    for m in g.all_morphisms():
        m1, t, m2 = m
        u = g.target_of(m)[1]
        assert b2.compose_m(u, m1) == b2.compose_m(m2, t)


def test_pullback_over_discrete_is_strict():
    d = discrete_groupoid(2)
    b2 = bz(Z2)
    # functor BZ2 -> 2 points lands on point 0
    f = GroupoidFunctor(b2, d, lambda o: 0, lambda m: d.identity_at(0))
    res = homotopy_pullback(f, f)
    # strict fibre product: one object per pair mapping to the same point
    assert len(res.groupoid.objects) == 1
    assert res.groupoid.chi() == Fraction(1, 4)


def test_pullback_empty():
    d = discrete_groupoid(2)
    a = discrete_groupoid(1)
    f0 = GroupoidFunctor(a, d, lambda o: 0, lambda m: d.identity_at(0))
    f1 = GroupoidFunctor(a, d, lambda o: 1, lambda m: d.identity_at(1))
    lhs, rhs = pullback_euler_check(f0, f1)
    assert lhs == rhs == 0


def test_left_fibre_of_identity_is_a_point():
    for G in [Z2, Z3, Z4]:
        b = bz(G)
        c = b.objects[0]
        fib = left_fibre(identity_functor(b), c)
        assert materialize(fib).validate() == []
        assert fib.chi() == 1  # equivalent to a point
        assert len(fib.components()) == 1


def test_fibre_chi_vs_full_inverse_image():
    # chi(c\M) = |S(c,c)| chi(L^-1(c))
    hg = materialize(coset_groupoid(Z4, [(0,), (2,)]))
    b4 = bz(Z4)
    # functor hg -> BZ4 sending (x, g) to g
    l = GroupoidFunctor(
        hg,
        b4,
        lambda o: b4.objects[0],
        lambda m: b4.morphism_of_label[hg.morphism_labels[m][1]],
    )
    c = b4.objects[0]
    fib = left_fibre(l, c)
    reach = [a for a in hg.objects if b4.hom(c, l.on_obj(a))]
    full_inv = hg.full_subgroupoid(reach)
    assert fib.chi() == b4.aut_order(c) * full_inv.chi()


def test_two_sided_fibre_matches_generic_pullback():
    b2 = bz(Z2)
    hg = materialize(coset_groupoid(Z4, [(0,), (2,)]))
    l = GroupoidFunctor(
        hg, hg, lambda o: o, lambda m: m
    )
    c = hg.objects[0]
    d = hg.objects[1]
    direct = two_sided_fibre(identity_functor(hg), identity_functor(hg), c, d)
    assert direct.validate() == []
    # generic route: (1{c} x_S M) x_T 1{d}
    one_c, inc_c = point_inclusion(hg, c)
    first = homotopy_pullback(inc_c, identity_functor(hg))
    one_d, inc_d = point_inclusion(hg, d)
    second = homotopy_pullback(first.p2.then(identity_functor(hg)), inc_d)
    assert direct.chi() == second.groupoid.chi()
    assert len(direct.components()) == len(second.groupoid.components())


def test_two_sided_pullback_vs_iterated():
    b2 = bz(Z2)
    idb = identity_functor(b2)
    assert materialize(two_sided_pullback(idb, idb, idb, idb)).validate() == []
    assert_two_sided_pullback_matches_table(idb, idb, idb, idb)


def test_trivial_subgroupoid_fibres():
    # P = 1{c}, Q = 1{d} turns the two-sided pullback into the two-sided fibre
    hg = materialize(coset_groupoid(Z4, [(0,), (2,)]))
    c, d = hg.objects[0], hg.objects[1]
    one_c, inc_c = point_inclusion(hg, c)
    one_d, inc_d = point_inclusion(hg, d)
    tsp = two_sided_pullback(inc_c, identity_functor(hg), identity_functor(hg), inc_d)
    fib = two_sided_fibre(identity_functor(hg), identity_functor(hg), c, d)
    assert tsp.chi() == fib.chi()
    assert len(tsp.components()) == len(fib.components())


def test_grothendieck_constant_singleton():
    base = materialize(coset_groupoid(Z4, [(0,), (2,)]))
    sv = SetValuedFunctor(base, lambda o: [0], lambda m: (lambda x: x))
    g = grothendieck(sv)
    assert g.validate() == []
    assert g.chi() == base.chi()
    assert grothendieck_chi_by_weighting(sv) == base.chi()


def test_grothendieck_regular_action_is_eg():
    G = Z4
    b = bz(G)
    els = G.elements()
    sv = SetValuedFunctor(
        base=b,
        value_sets=lambda o: els,
        transport=lambda m: (
            lambda x, g=b.morphism_labels[m]: G.add(g, x)
        ),
    )
    g = grothendieck(sv)
    assert g.chi() == 1
    assert len(g.components()) == 1
    assert grothendieck_chi_by_weighting(sv) == 1


def test_grothendieck_rejects_non_functorial_transport():
    b = bz(Z4)
    with pytest.raises(FunctorError):
        SetValuedFunctor(
            b,
            lambda o: [0, 1],
            lambda m: (lambda x: 1 - x)
            if b.morphism_labels[m] != Z4.identity
            else (lambda x: x),
        )


def test_pullback_euler_lemma_identity_cospan():
    b2 = bz(Z2)
    lhs, rhs = pullback_euler_check(identity_functor(b2), identity_functor(b2))
    assert lhs == rhs == Fraction(1, 2)


def test_table_pullback_guard(monkeypatch):
    # the pullback stays lazy; only its materialization is guarded
    b4 = bz(Z4)
    monkeypatch.setenv("GSPANS_SIZE_GUARD", "3")
    view = homotopy_pullback(identity_functor(b4), identity_functor(b4)).groupoid
    assert view.chi() == Fraction(1, 4)
    with pytest.raises(SizeGuardError) as err:
        materialize(view)
    assert (err.value.requested, err.value.bound) == (4, 3)


def test_size_guard_env_override(monkeypatch):
    from gspans.groupoid import size_guard

    monkeypatch.setenv("GSPANS_SIZE_GUARD", "123")
    assert size_guard() == 123
    monkeypatch.delenv("GSPANS_SIZE_GUARD")
    assert size_guard() == 20000


def test_trivial_subgroupoid_shape():
    b2 = bz(Z2)
    one = trivial_subgroupoid(b2, b2.objects[0])
    assert one.validate() == []
    assert one.chi() == 1
    assert len(one.morphisms) == 1


# ---------------------------------------------------------------------------
# tables fill compose/inverse on demand from their labels


def _assert_law_complete(table):
    """validate() reaches every composable pair, so afterwards the dicts
    hold every pair and every inverse."""
    assert table.validate() == []
    assert len(table.compose) == len(list(composable_pairs(table)))
    assert len(table.inverse) == len(table.morphisms)


def test_nested_pullback_table_is_valid():
    # as interchange_check composes: the legs' sources are pullback apexes
    u1, _, u2, _ = rnd.random_two_cell_square(random.Random(1))
    assert u1.src_span.pullback is not None and u2.src_span.pullback is not None
    top = compose_spans(u1.src_span, u2.src_span)
    table = materialize(top.apex)
    assert table.compose == {} and table.inverse == {}
    _assert_law_complete(table)


def test_right_fibre_table_is_valid():
    r1, _ = rnd.random_cospan(random.Random(1))
    for d in r1.target.objects:
        _assert_law_complete(materialize(right_fibre(r1, d)))


def _universal_apex(seed):
    rng = random.Random(seed)
    G = rnd.random_group(rng, 4)
    h = rnd.random_bg_functor(rng, rnd.random_groupoid(rng, 3), G)
    v = rnd.random_bg_functor(rng, rnd.random_groupoid(rng, 3), G)
    return universal_span(h, v).apex


def test_universal_span_apex_is_valid():
    _assert_law_complete(_universal_apex(5))


def test_full_subgroupoid_of_a_partly_filled_table():
    apex = _universal_apex(5)
    pairs = list(composable_pairs(apex))
    for pair in pairs[::3]:
        apex.compose_m(*pair)
    apex.inverse_m(apex.morphisms[-1])
    assert 0 < len(apex.compose) < len(pairs)
    sub = apex.full_subgroupoid(apex.objects[::2])
    _assert_law_complete(sub)
    for (m2, m1), m in sub.compose.items():
        assert apex.compose_m(m2, m1) == m


def test_a_functor_broken_at_one_element_is_rejected():
    # values 0, 1, 2, 0 on the elements 0..3 of Z4: composition breaks only
    # on pairs that reach the element 3
    bg = bz(Z4)
    values = {(0,): (0,), (1,): (1,), (2,): (2,), (3,): (0,)}
    lab = bg.morphism_labels
    broken = GroupValuedFunctor(bg, Z4, lambda m: values[lab[m]], check=False)
    with pytest.raises(FunctorError, match="composition"):
        broken.validate()
    for functor in (identity_functor(bg), bg_self_functor(bg)):
        functor.validate()
