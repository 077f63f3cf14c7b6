"""The composite of the lazy Stirling spans against the composite of their
fully materialized tables."""

from fractions import Fraction

from gspans.constructions import (
    GroupoidFunctor,
    SetValuedFunctor,
    discrete_groupoid,
    grothendieck,
)
from gspans.groupoid import SymmetricGroup, disjoint_union_tables, materialize
from gspans.gspan import GSpan, compose_spans, span_matrix
from gspans.examples import StirlingSpanConfig, stirling_pair, stirling_span
from oracles import fin_perm_groupoid, pair_stirling_span
from test_stirling_slices import invariants, strata_of


def materialized_span(sp):
    """Rebuild a span whose apex is a union of action groupoids as one big
    table, reusing the original functors through the decode labels."""
    union = sp.apex
    tables = [materialize(m) for m in union.members]
    big = disjoint_union_tables(tables)

    def to_lazy_obj(oid):
        i, moid = big.object_labels[oid]
        return (i, tables[i].object_labels[moid])

    def to_lazy_mor(mid):
        i, mmid = big.morphism_labels[mid]
        return (i, tables[i].morphism_labels[mmid])

    left = GroupoidFunctor(
        big,
        sp.source,
        lambda o: sp.left.on_obj(to_lazy_obj(o)),
        lambda m: sp.left.on_mor(to_lazy_mor(m)),
        check=False,
    )
    right = GroupoidFunctor(
        big,
        sp.target,
        lambda o: sp.right.on_obj(to_lazy_obj(o)),
        lambda m: sp.right.on_mor(to_lazy_mor(m)),
        check=False,
    )
    return GSpan(big, left, right, sp.h, sp.v, lambda o: sp.eps(to_lazy_obj(o)))


def test_lazy_pullback_matches_table_pullback():
    for n in (2, 3):
        first, second = stirling_pair(n)
        lazy = compose_spans(first, second)
        assert not hasattr(lazy.apex, "morphism_of_label")  # actually lazy
        tab1 = materialized_span(first)
        tab2 = materialized_span(second)
        tabled = compose_spans(tab1, tab2)
        assert span_matrix(lazy) == span_matrix(tabled)
        assert lazy.apex.chi() == tabled.apex.chi()
        assert len(lazy.apex.components()) == len(tabled.apex.components())


def test_lazy_pullback_projections_are_functors():
    first, second = stirling_pair(2)
    composed = compose_spans(first, second)
    composed.pullback.p1.validate()
    composed.pullback.p2.validate()


def test_pair_stratum_is_the_grothendieck_construction():
    # the (n, k) stratum of the product model's first-kind apex is the
    # category of elements of the conjugation-transported Fin(X,X) over the
    # skeletal model, and the union of its orbit-stabilizer slices in the
    # apex of stirling_span is equivalent to it
    oracle = pair_stirling_span("first", 3, discrete_groupoid(4))
    sp = stirling_span(StirlingSpanConfig("first", 3))
    base = materialize(fin_perm_groupoid(3, 2))
    taus = sorted(
        __import__("itertools").permutations(range(3))
    )
    # a morphism handle (x, g) runs against the action direction, so its
    # covariant transport conjugates by g^-1
    sym = SymmetricGroup(3)
    sv = SetValuedFunctor(
        base,
        lambda o: taus,
        lambda m: (
            lambda x, g=base.morphism_labels[m][1]: sym.conjugate(x, sym.inv(g))
        ),
    )
    g = grothendieck(sv)
    stratum = next(
        member
        for member, lab in zip(
            oracle.apex.members,
            [(0, 0), (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)],
        )
        if lab == (3, 2)
    )
    assert g.chi() == stratum.chi()
    assert len(g.components()) == len(stratum.components())
    assert sorted(
        g.aut_order(c[0]) for c in g.components()
    ) == sorted(stratum.aut_order(c[0]) for c in stratum.components())
    assert g.chi() == Fraction(3)  # S1(3,2)
    obj_of = sp.source.object_of_label
    slices = strata_of(sp)[(obj_of[3], obj_of[2])]
    assert invariants(slices) == invariants([stratum])
