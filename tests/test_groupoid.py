"""Groupoid representations, validation, chi, and weightings."""

import re
from fractions import Fraction

import pytest

from gspans.algebra import AbelianGroup
from gspans.constructions import (
    coset_groupoid,
    delooping_bg,
    discrete_groupoid,
)
from gspans.groupoid import (
    ActionGroupoid,
    DisjointUnion,
    SizeGuardError,
    SymmetricGroup,
    check_weighting,
    composable_pairs,
    disjoint_union_tables,
    materialize,
    weighting,
)

Z2 = AbelianGroup([2])
Z4 = AbelianGroup([4])
Z6 = AbelianGroup([6])


def test_delooping_bz2_is_valid():
    bg = delooping_bg(Z2)
    assert bg.validate() == []
    assert len(bg.objects) == 1
    assert len(bg.morphisms) == 2
    assert bg.chi() == Fraction(1, 2)
    assert len(bg.components()) == 1


def test_validation_reports_witnesses():
    bg = delooping_bg(Z4)
    # the full dicts, filled from the labels
    compose = {pair: bg.compose_m(*pair) for pair in composable_pairs(bg)}
    inverse = {m: bg.inverse_m(m) for m in bg.morphisms}
    # break associativity indirectly: swap one compose result
    broken = dict(compose)
    (k, v), *_ = [(k, v) for k, v in broken.items() if k[0] != k[1]]
    other = next(m for m in bg.morphisms if m != v)
    broken[k] = other
    import gspans.groupoid as G

    bad = G.TableGroupoid(
        bg.objects, bg.source, bg.target, bg.identity, broken, inverse
    ).validate()
    assert bad, "broken table must be reported"
    # drop an inverse
    inv = dict(inverse)
    mid = next(m for m in bg.morphisms if inverse[m] != m)
    inv[mid] = mid
    bad2 = G.TableGroupoid(
        bg.objects, bg.source, bg.target, bg.identity, compose, inv
    ).validate()
    assert any("inverse" in msg for msg in bad2)


def test_components_and_chi():
    d = discrete_groupoid(5)
    assert len(d.components()) == 5
    assert d.chi() == 5
    assert d.is_discrete
    u = disjoint_union_tables([delooping_bg(Z2), delooping_bg(Z2), delooping_bg(Z4)])
    # chi additive: 1/2 + 1/2 + 1/4
    assert u.chi() == Fraction(5, 4)
    assert u.validate() == []
    empty = discrete_groupoid(0)
    assert empty.chi() == 0 and empty.components() == []


def test_coset_groupoid():
    hg = coset_groupoid(Z4, [(0,), (2,)])
    assert len(hg.objects) == 2
    assert len(hg.components()) == 1  # double cosets are never empty
    assert hg.chi() == Fraction(1, 2)
    # hom-sets are double cosets: here |H| = 2 elements each
    a, b = hg.objects
    assert hg.hom_size(a, b) == 2 and hg.hom_size(a, a) == 2
    t = materialize(hg)
    assert t.validate() == []
    assert t.chi() == Fraction(1, 2)
    with pytest.raises(ValueError):
        coset_groupoid(Z4, [(0,), (1,), (2,)])


@pytest.mark.parametrize("orders", [[4], [6], [8], [2, 2], [2, 4]], ids=str)
def test_coset_table_is_the_minimal_element_of_the_coset(orders):
    # coset_of and the action read one table; both agree with the definition
    # Hx -> min_h h.x, for every subgroup H of the closed-form sweep's groups
    G = AbelianGroup(orders)
    els = G.elements()
    for sub in G.all_subgroups():

        def coset_of(x):
            return min(G.op(h, x) for h in sub)

        hg = coset_groupoid(G, sub)
        assert hg.subgroup == sorted(sub)
        assert [hg.coset_of(x) for x in els] == [coset_of(x) for x in els]
        assert hg.carrier == sorted({coset_of(x) for x in els})
        for rep in hg.carrier:
            for g in els:
                assert hg.act(rep, g) == coset_of(G.op(rep, g))


@pytest.mark.parametrize(
    "sub, message",
    [
        ([(1,), (5,)], "subgroup must contain the identity"),
        ([(0,), (1,)], "[(0,), (1,)] is not closed under inverses"),
        ([(0,), (1,), (5,)], "[(0,), (1,), (5,)] is not closed under the operation"),
    ],
)
def test_coset_groupoid_refuses_a_subset_that_is_not_a_subgroup(sub, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        coset_groupoid(Z6, sub)


def test_regular_action_is_eg():
    eg = coset_groupoid(Z6, [(0,)])
    assert eg.chi() == 1
    assert len(eg.components()) == 1
    assert all(eg.aut_order(x) == 1 for x in eg.objects)


def test_action_groupoid_chi_is_x_over_g():
    sym = SymmetricGroup(3)
    carrier = sym.elements()  # conjugation action on all of S3
    ag = ActionGroupoid(sym, carrier, lambda x, g: sym.op(sym.op(sym.inv(g), x), g))
    assert ag.chi() == Fraction(len(carrier), sym.order)
    t = materialize(ag)
    assert t.validate() == []
    assert t.chi() == ag.chi()
    assert sorted(len(c) for c in ag.components()) == [1, 2, 3]  # conjugacy classes


def test_materialize_guard(monkeypatch):
    sym = SymmetricGroup(4)
    ag = ActionGroupoid(
        sym, sym.elements(), lambda x, g: sym.op(sym.op(sym.inv(g), x), g)
    )
    monkeypatch.setenv("GSPANS_SIZE_GUARD", "10")
    with pytest.raises(SizeGuardError):
        materialize(ag)


def test_full_subgroupoid():
    u = disjoint_union_tables([delooping_bg(Z2), discrete_groupoid(2)])
    sub = u.full_subgroupoid(u.objects)
    assert sub.chi() == u.chi()
    assert u.full_subgroupoid([]).chi() == 0
    comp = u.components()[0]
    assert u.full_subgroupoid(comp).chi() == Fraction(1, 2)


def test_weighting_defining_equation():
    for g in [
        delooping_bg(Z4),
        discrete_groupoid(3),
        materialize(coset_groupoid(Z4, [(0,), (2,)])),
        disjoint_union_tables([delooping_bg(Z2), discrete_groupoid(2)]),
    ]:
        k = weighting(g)
        assert check_weighting(g, k)
        # discrete groupoids have all weights 1
        if g.is_discrete:
            assert all(v == 1 for v in k.values())


def test_weighting_component_sum():
    g = disjoint_union_tables([delooping_bg(Z2), delooping_bg(Z4), discrete_groupoid(1)])
    k = weighting(g)
    total = sum(
        sum(k[o] for o in comp) * g.aut_order(comp[0]) for comp in g.components()
    )
    assert total == len(g.components())


def test_aut_order_constant_on_components():
    hg = materialize(coset_groupoid(Z6, [(0,), (3,)]))
    for comp in hg.components():
        orders = {hg.aut_order(o) for o in comp}
        assert len(orders) == 1
    for a in hg.objects:
        for b in hg.objects:
            same = any(a in c and b in c for c in hg.components())
            assert hg.hom_size(a, b) == (hg.aut_order(a) if same else 0)


def test_chi_additive_over_component_constant_levels():
    u = disjoint_union_tables(
        [delooping_bg(Z2), discrete_groupoid(2), delooping_bg(Z4)]
    )
    comps = u.components()
    level_of = {}
    for idx, comp in enumerate(comps):
        for o in comp:
            level_of[o] = idx % 2
    total = Fraction(0)
    for level in (0, 1):
        objs = [o for o in u.objects if level_of[o] == level]
        total += u.full_subgroupoid(objs).chi()
    assert total == u.chi()


def test_components_canonical_order():
    u = disjoint_union_tables([discrete_groupoid(2), delooping_bg(Z2)])
    comps = u.components()
    assert comps == sorted(comps, key=lambda c: c[0])
    assert all(c[0] == min(c) for c in comps)
    assert u.component_reps() == [c[0] for c in comps]


def test_component_rep_is_first_object_of_its_component():
    sym = SymmetricGroup(3)
    # conjugation orbits, carrier in reverse so orbits start mid-list
    conj = ActionGroupoid(
        sym,
        sym.elements()[::-1],
        lambda x, g: sym.op(sym.op(sym.inv(g), x), g),
    )
    table = disjoint_union_tables([discrete_groupoid(2), delooping_bg(Z2)])
    cosets = coset_groupoid(Z6, [(0,), (3,)])
    for view in (table, conj, cosets, DisjointUnion([conj, conj])):
        comps = view.components()
        assert view.component_reps() == [c[0] for c in comps]
        for c in comps:
            assert all(view.component_rep(o) == c[0] for o in c)


def test_component_rep_on_freshly_built_views():
    # component_rep must compute the orbits itself when nothing has asked yet
    sym = SymmetricGroup(3)

    def views():
        conj = ActionGroupoid(
            sym,
            sym.elements()[::-1],
            lambda x, g: sym.op(sym.op(sym.inv(g), x), g),
        )
        return [
            disjoint_union_tables([discrete_groupoid(2), delooping_bg(Z2)]),
            conj,
            coset_groupoid(Z6, [(0,), (3,)]),
            DisjointUnion([coset_groupoid(Z6, [(0,), (2,), (4,)]), conj]),
        ]

    for fresh, seen in zip(views(), views()):
        reps = {o: c[0] for c in seen.components() for o in c}
        assert [fresh.component_rep(o) for o in seen.objects] == [
            reps[o] for o in seen.objects
        ]


def test_action_on_an_unclosed_carrier_raises():
    sym = SymmetricGroup(2)
    ag = ActionGroupoid(sym, [0], lambda x, g: g[x])  # 0.(1 0) = 1 is missing
    with pytest.raises(ValueError, match="not closed"):
        ag.chi()


def test_invariants_raise_value_error():
    """Each check is a typed exception, so it still fires under python -O."""
    from gspans.constructions import identity_functor
    from gspans.groupoid import Subgroup, TableBuilder, materialize

    with pytest.raises(ValueError, match="identity"):
        Subgroup(Z4, [(1,)])
    sym = SymmetricGroup(2)
    with pytest.raises(ValueError, match="duplicates"):
        ActionGroupoid(sym, [0, 0], lambda x, g: g[x])
    swap = ActionGroupoid(sym, [0, 1], lambda x, g: g[x])
    with pytest.raises(ValueError, match="non-composable"):
        swap.compose_m((0, (0, 1)), (0, (1, 0)))  # (0, swap) ends at 1
    with pytest.raises(ValueError, match="not closed"):
        materialize(ActionGroupoid(sym, [0], lambda x, g: g[x]))
    b = TableBuilder()
    b.obj("a", "id_a")
    with pytest.raises(ValueError, match="leaves the object set"):
        b.mor("m", "a", "b")
    d = discrete_groupoid(2)
    u = DisjointUnion([swap, d])
    with pytest.raises(ValueError, match="non-composable"):
        u.compose_m((0, (0, (0, 1))), (1, d.identity_at(0)))
    # a label chase alone would return id_0 here: both labels are identities
    with pytest.raises(ValueError, match="non-composable"):
        d.compose_m(d.identity_at(1), d.identity_at(0))
    with pytest.raises(ValueError, match="do not compose"):
        identity_functor(discrete_groupoid(3)).then(identity_functor(swap))


def test_disjoint_union_view():
    sym = SymmetricGroup(2)
    ag = ActionGroupoid(
        sym, sym.elements(), lambda x, g: sym.op(sym.op(sym.inv(g), x), g)
    )
    u = DisjointUnion([ag, ag])
    assert u.chi() == 2 * ag.chi()
    assert len(u.components()) == 2 * len(ag.components())
    assert {u.aut_order(o) for o in u.objects} == {
        ag.aut_order(x) for x in ag.objects
    }
