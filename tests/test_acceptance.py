"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All equalities are exact (Fraction / group-ring / cyclotomic residue); there
are no tolerances anywhere.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import functools
import random
from fractions import Fraction

import pytest

from gspans.algebra import (
    AbelianGroup,
    Character,
    CyclotomicNumber,
    average_idempotent,
)
from gspans.constructions import (
    coset_groupoid,
    grothendieck,
    grothendieck_chi_by_weighting,
    left_fibre,
    pullback_euler_check,
)
from gspans.groupoid import (
    ActionGroupoid,
    SymmetricGroup,
    check_weighting,
    weighting,
)
from gspans.gspan import (
    character_matrix,
    compose_spans,
    fibre_map_preserves_labels,
    identity_span,
    interchange_check,
    labeled_pullback_identity,
    matrix_multiply,
    pushforward_matrix_closed_form,
    pushforward_span,
    pullback_span,
    span_matrix,
)
from gspans.examples import (
    coset_span,
    coset_span_closed_form,
    stirling_pair,
    subset_span,
    subset_span_closed_form,
    universal_matrix_closed_form,
    universal_span,
)
from gspans import random_spans as rnd
from oracles import (
    abelian_group_order_lists,
    assert_two_sided_pullback_matches_table,
    oracle_s1,
    oracle_s2,
)

SEED = 20260810


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("[criterion %02d] FAIL  %s" % (num, desc))
                raise
            print("[criterion %02d] PASS  %s" % (num, desc))

        return wrapper

    return deco


def sign_character():
    return Character(AbelianGroup([2]), (1,))


def exact_int(e):
    """A cyclotomic entry that must be a plain integer."""
    assert all(c == 0 for c in e.coeffs[1:])
    assert e.coeffs[0].denominator == 1
    return int(e.coeffs[0])


# shared seeded corpus for criteria 3, 4, 6, 8 -------------------------------


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(SEED)
    pairs = [
        rnd.random_composable_pair(
            rng, max_group_order=6, max_objects=8, max_apex_objects=8
        )
        for _ in range(50)
    ]
    composed = [compose_spans(a, b) for a, b in pairs]
    return pairs, composed


@criterion(1, "Stirling identity: signed-S1 x S2 = I (5x5), composed span too")
def test_c01_stirling_identity():
    first, second = stirling_pair(4)
    rho = sign_character()
    fa = character_matrix(span_matrix(first), rho)
    fb = character_matrix(span_matrix(second), rho)
    prod = fa * fb
    assert len(prod.row_index) == 5 and len(prod.col_index) == 5
    assert prod.is_identity()
    composed = compose_spans(first, second)
    composed_matrix = span_matrix(composed)
    assert composed_matrix == matrix_multiply(span_matrix(first), span_matrix(second))
    assert character_matrix(composed_matrix, rho).is_identity()


@criterion(2, "Stirling entries equal brute-force S1/S2 counts, n,k,m <= 4")
def test_c02_stirling_entries():
    first, second = stirling_pair(4)
    rho = sign_character()
    fa = character_matrix(span_matrix(first), rho)
    fb = character_matrix(span_matrix(second), rho)
    for n in range(5):
        for k in range(5):
            assert exact_int(fa.entries[n][k]) == (-1) ** (n - k) * oracle_s1(n, k)
            assert exact_int(fb.entries[n][k]) == oracle_s2(n, k)


@criterion(3, "main theorem on 50 seeded composable pairs, exact")
def test_c03_main_theorem_suite(corpus):
    pairs, composed = corpus
    for (sp1, sp2), comp in zip(pairs, composed):
        lhs = span_matrix(comp)
        rhs = matrix_multiply(span_matrix(sp1), span_matrix(sp2))
        assert lhs == rhs


@criterion(4, "per-label chi identity on the same corpus, exact")
def test_c04_labeled_lemma_suite(corpus):
    pairs, composed = corpus
    for (sp1, sp2), comp in zip(pairs, composed):
        for c1 in sp1.source.component_reps():
            for c2 in sp2.target.component_reps():
                lhs, rhs = labeled_pullback_identity(
                    sp1, sp2, c1, c2, composed=comp
                )
                assert lhs == rhs


@criterion(5, "pullback Euler lemma on 50 seeded cospans, exact")
def test_c05_pullback_euler():
    rng = random.Random(SEED + 5)
    for _ in range(50):
        r1, l2 = rnd.random_cospan(rng, max_objects=5)
        lhs, rhs = pullback_euler_check(r1, l2)
        assert lhs == rhs


@criterion(6, "identity-span matrices absorb every generated span matrix")
def test_c06_absorption(corpus):
    pairs, _ = corpus
    spans = [sp for pair in pairs for sp in pair]
    rng = random.Random(SEED + 6)
    spans += [rnd.random_span_with_structure(rng) for _ in range(10)]
    for sp in spans:
        m = span_matrix(sp)
        assert matrix_multiply(span_matrix(identity_span(sp.h)), m) == m
        assert matrix_multiply(m, span_matrix(identity_span(sp.v))) == m


@criterion(7, "closed forms: universal, subset, pushforward, coset spans")
def test_c07_closed_forms():
    rng = random.Random(SEED + 7)
    # universal spans over random feet, |G| <= 8
    for _ in range(8):
        G = rnd.random_group(rng, 8)
        s = rnd.random_groupoid(rng, 5)
        t = rnd.random_groupoid(rng, 5)
        h = rnd.random_bg_functor(rng, s, G)
        v = rnd.random_bg_functor(rng, t, G)
        sp = universal_span(h, v)
        assert span_matrix(sp) == universal_matrix_closed_form(h, v)
    # subset spans: sweep abelian G of order <= 8, subgroup pairs, invariant
    # subsets (unions of cosets of S + T)
    for orders in abelian_group_order_lists(8):
        G = AbelianGroup(orders)
        subs = G.all_subgroups()
        for s_els in subs:
            for t_els in subs:
                st = G.subgroup_closure(set(s_els) | set(t_els))
                cosets = sorted({min(G.add(h_, x) for h_ in st) for x in G.elements()})
                subset = sorted(
                    g
                    for g in G.elements()
                    if min(G.add(h_, g) for h_ in st) == cosets[0]
                )
                sp = subset_span(G, subset, s_els, t_els)
                assert span_matrix(sp).entries[0][0] == subset_span_closed_form(
                    G, subset, t_els
                )
    # pushforward / pullback closed forms (Prop phi*)
    for _ in range(12):
        phi, h, v, eps = rnd.random_pushforward_data(rng, max_group_order=8)
        assert span_matrix(pushforward_span(phi, h, v, eps)) == (
            pushforward_matrix_closed_form(phi, h, v, eps, forward=True)
        )
        assert span_matrix(pullback_span(phi, h, v, eps)) == (
            pushforward_matrix_closed_form(phi, h, v, eps, forward=False)
        )
    # coset spans: all (H1 <= K1 cap K2) triples over abelian G of order <= 8
    for orders in [[4], [6], [8], [2, 2], [2, 4]]:
        G = AbelianGroup(orders)
        subs = G.all_subgroups()
        for k1 in subs:
            for k2 in subs:
                inter = set(k1) & set(k2)
                for h1 in subs:
                    if not set(h1) <= inter:
                        continue
                    sp = coset_span(G, h1, k1, k2)
                    m = span_matrix(sp)
                    assert m.entries[0][0] == coset_span_closed_form(G, h1, k1, k2)


@criterion(8, "character layer: (-1), (i), drastic vanishing, multiplicativity")
def test_c08_character_layer():
    # (-1) over Z2 and (i) over Z4, exactly
    z2, z4 = AbelianGroup([2]), AbelianGroup([4])
    sp_neg = subset_span(z2, [(1,)], [(0,)], [(0,)])
    rho2 = Character(z2, (1,))
    assert character_matrix(span_matrix(sp_neg), rho2).entries[0][0] == (
        CyclotomicNumber.from_rational(2, -1)
    )
    sp_i = subset_span(z4, [(1,)], [(0,)], [(0,)])
    rho4 = Character(z4, (1,))
    assert rho4.is_injective()
    assert character_matrix(span_matrix(sp_i), rho4).entries[0][0] == (
        CyclotomicNumber.zeta_power(4, 1)
    )
    # drastic vanishing with injective characters over cyclic G
    rng = random.Random(SEED + 8)
    zero_entries = 0
    for n in (2, 3, 4, 5, 6):
        G = AbelianGroup([n])
        rho = Character(G, (1,))
        assert rho.is_injective()
        for _ in range(4):
            sp = rnd.random_span_with_structure(rng, group=G)
            cm = character_matrix(span_matrix(sp), rho)
            for i, c in enumerate(sp.source.component_reps()):
                hs = {sp.h.value(m) for m in sp.source.hom(c, c)}
                for j, d in enumerate(sp.target.component_reps()):
                    vt = {sp.v.value(m) for m in sp.target.hom(d, d)}
                    if len(hs) > 1 or len(vt) > 1:
                        assert cm.entries[i][j].is_zero()
                        zero_entries += 1
    assert zero_entries > 0
    # multiplicativity on generated products
    for n in (2, 3, 4):
        G = AbelianGroup([n])
        rho = Character(G, (1,))
        for _ in range(3):
            sp1, sp2 = rnd.random_composable_pair(rng, group=G)
            a, b = span_matrix(sp1), span_matrix(sp2)
            assert character_matrix(a, rho) * character_matrix(b, rho) == (
                character_matrix(matrix_multiply(a, b), rho)
            )


@criterion(9, "average idempotents square to themselves; identity-span form")
def test_c09_idempotents():
    for orders in abelian_group_order_lists(12):
        G = AbelianGroup(orders)
        for sub in G.all_subgroups():
            u = average_idempotent(G, sub)
            assert u * u == u
    rng = random.Random(SEED + 9)
    for _ in range(10):
        G = rnd.random_group(rng)
        meta = rnd.random_groupoid(rng)
        h = rnd.random_bg_functor(rng, meta, G)
        m = span_matrix(identity_span(h))
        assert m.is_diagonal()
        assert matrix_multiply(m, m) == m
        for i, c in enumerate(m.row_index):
            image = {h.value(mm) for mm in meta.table.hom(c, c)}
            assert m.entries[i][i] == average_idempotent(G, image)


@criterion(10, "2-cells: composition validity, interchange, label-preserving")
def test_c10_two_cells():
    rng = random.Random(SEED + 10)
    for _ in range(20):
        u1, w1, u2, w2 = rnd.random_two_cell_square(rng)
        assert interchange_check(u1, w1, u2, w2)
        for cell in (u1, w1):
            sp = cell.src_span
            for c in sp.source.component_reps():
                for d in sp.target.component_reps():
                    assert fibre_map_preserves_labels(cell, c, d)


@criterion(11, "weightings solve their equation; Grothendieck chi matches")
def test_c11_weighting():
    rng = random.Random(SEED + 11)
    for _ in range(25):
        meta = rnd.random_groupoid(rng)
        k = weighting(meta.table)
        assert check_weighting(meta.table, k)
        sv = rnd.random_set_valued_functor(rng, meta)
        assert grothendieck(sv).chi() == grothendieck_chi_by_weighting(sv)


@criterion(12, "coset/action chi, fibre vs full inverse image, two-sided pb")
def test_c12_foundations():
    # chi(H\G) = 1/|H| for every subgroup of every abelian G of order <= 8
    for orders in abelian_group_order_lists(8):
        G = AbelianGroup(orders)
        for sub in G.all_subgroups():
            assert coset_groupoid(G, sub).chi() == Fraction(1, len(sub))
    # chi(X//G) = |X|/|G| incl. symmetric groups
    for n in (2, 3, 4):
        sym = SymmetricGroup(n)
        carrier = sym.elements()
        ag = ActionGroupoid(
            sym, carrier, lambda x, g, s=sym: s.op(s.op(s.inv(g), x), g)
        )
        assert ag.chi() == Fraction(len(carrier), sym.order)
    rng = random.Random(SEED + 12)
    for _ in range(10):
        s = rnd.random_groupoid(rng, 5)
        m = rnd.random_groupoid(rng, 5)
        l = rnd.random_functor(rng, m, s)
        for c in s.table.component_reps():
            fib = left_fibre(l, c)
            reach = [
                a for a in m.table.objects if s.table.hom(c, l.on_obj(a))
            ]
            assert fib.chi() == s.table.aut_order(c) * m.table.full_subgroupoid(
                reach
            ).chi()
    # the two-sided pullback, two nested pullback views, against the table
    # built directly: chi, pi0 and the object order
    for _ in range(6):
        p = rnd.random_groupoid(rng, 3)
        s = rnd.random_groupoid(rng, 3)
        m = rnd.random_groupoid(rng, 3)
        t = rnd.random_groupoid(rng, 3)
        q = rnd.random_groupoid(rng, 3)
        r1 = rnd.random_functor(rng, p, s)
        lf = rnd.random_functor(rng, m, s)
        rf = rnd.random_functor(rng, m, t)
        l2 = rnd.random_functor(rng, q, t)
        assert_two_sided_pullback_matches_table(r1, lf, rf, l2)
