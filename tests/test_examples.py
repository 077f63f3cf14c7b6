"""Catalog spans vs their closed forms, and the Stirling machinery."""

import itertools
from fractions import Fraction

import pytest

from gspans.algebra import (
    AbelianGroup,
    Character,
    GroupRingElement,
    NotASubgroupError,
    average_idempotent,
)
from gspans.constructions import bg_self_functor, delooping_bg, discrete_groupoid
from gspans.groupoid import Subgroup, SymmetricGroup, pcompose, pinverse
from gspans.gspan import (
    character_matrix,
    check_main_theorem,
    compose_spans,
    labeled_fibre,
    labeled_pullback_identity,
    matrix_multiply,
    span_matrix,
)
from gspans.examples import (
    StirlingSpanConfig,
    coset_span,
    coset_span_closed_form,
    group_square_closed_form,
    group_square_span,
    stirling_pair,
    stirling_span,
    subset_span,
    subset_span_closed_form,
    universal_cell,
    universal_matrix_closed_form,
    universal_span,
)
from oracles import (
    abelian_group_order_lists,
    all_pairs_subset_escapes,
    fin_perm_groupoid,
    fin_rel_groupoid,
)

Z2 = AbelianGroup([2])
Z4 = AbelianGroup([4])


# --- independent brute-force oracles (no groupoid machinery) ----------------


def oracle_s1(n, k):
    """Count permutations of n with k cycles by direct enumeration."""
    count = 0
    for p in itertools.permutations(range(n)):
        seen, cycles = set(), 0
        for i in range(n):
            if i not in seen:
                cycles += 1
                j = i
                while j not in seen:
                    seen.add(j)
                    j = p[j]
        if cycles == k:
            count += 1
    return count


def oracle_s2(n, m):
    """Count partitions of an n-set into m blocks by direct enumeration."""
    if n == 0:
        return 1 if m == 0 else 0
    count = 0

    def assignments(i, blocks):
        nonlocal count
        if i == n:
            if len(blocks) == m:
                count += 1
            return
        for b in blocks:
            b.append(i)
            assignments(i + 1, blocks)
            b.pop()
        if len(blocks) < m:
            blocks.append([i])
            assignments(i + 1, blocks)
            blocks.pop()

    assignments(0, [])
    return count


def test_oracles_satisfy_recurrences():
    for n in range(1, 6):
        for k in range(0, n + 1):
            s1_prev = oracle_s1(n - 1, k - 1) if k >= 1 else 0
            assert oracle_s1(n, k) == s1_prev + (n - 1) * oracle_s1(n - 1, k)
            s2_prev = oracle_s2(n - 1, k - 1) if k >= 1 else 0
            assert oracle_s2(n, k) == s2_prev + k * oracle_s2(n - 1, k)


def test_fin_perm_fin_rel_chi():
    assert fin_perm_groupoid(4, 2).chi() == Fraction(oracle_s1(4, 2), 24)
    assert fin_perm_groupoid(4, 2).chi() == Fraction(11, 24)
    assert fin_rel_groupoid(4, 2).chi() == Fraction(oracle_s2(4, 2), 24)
    assert fin_rel_groupoid(4, 2).chi() == Fraction(7, 24)
    for n in range(0, 5):
        assert fin_perm_groupoid(n, n).chi() == Fraction(
            1, SymmetricGroup(n).order
        )
        for k in range(0, n + 1):
            assert fin_perm_groupoid(n, k).chi() == Fraction(
                oracle_s1(n, k), SymmetricGroup(n).order
            )
            assert fin_rel_groupoid(n, k).chi() == Fraction(
                oracle_s2(n, k), SymmetricGroup(n).order
            )


def sign_character():
    return Character(Z2, (1,))


def as_int_matrix(cm):
    """Character matrix with rational entries -> ints (exact)."""
    out = []
    for row in cm.entries:
        line = []
        for e in row:
            assert all(c == 0 for c in e.coeffs[1:])
            q = e.coeffs[0]
            assert q.denominator == 1
            line.append(int(q))
        out.append(line)
    return out


def test_stirling_first_kind_matrix_n3():
    sp = stirling_span(StirlingSpanConfig("first", 3))
    m = span_matrix(sp)
    cm = character_matrix(m, sign_character())
    vals = as_int_matrix(cm)
    for n in range(4):
        for k in range(4):
            assert vals[n][k] == (-1) ** (n - k) * oracle_s1(n, k)


def test_stirling_second_kind_matrix_n3():
    sp = stirling_span(StirlingSpanConfig("second", 3))
    m = span_matrix(sp)
    cm = character_matrix(m, sign_character())
    vals = as_int_matrix(cm)
    for k in range(4):
        for mm in range(4):
            assert vals[k][mm] == oracle_s2(k, mm)


def test_stirling_product_identity_n3():
    first, second = stirling_pair(3)
    a = character_matrix(span_matrix(first), sign_character())
    b = character_matrix(span_matrix(second), sign_character())
    prod = a * b
    assert prod.is_identity()
    # end to end: the composed span's matrix is the identity too
    composed = compose_spans(first, second)
    cm = character_matrix(span_matrix(composed), sign_character())
    assert cm.is_identity()


def stirling_by_recurrence(n_max):
    """Unsigned S1 and S2 for n, k <= n_max by their recurrences."""
    size = n_max + 1
    s1 = [[0] * size for _ in range(size)]
    s2 = [[0] * size for _ in range(size)]
    s1[0][0] = s2[0][0] = 1
    for n in range(1, size):
        for k in range(1, n + 1):
            s1[n][k] = s1[n - 1][k - 1] + (n - 1) * s1[n - 1][k]
            s2[n][k] = s2[n - 1][k - 1] + k * s2[n - 1][k]
    return s1, s2


def assert_composite_is_the_recurrence_product(N):
    first, second = stirling_pair(N)
    composed = span_matrix(compose_spans(first, second))
    assert composed == span_matrix(first) * span_matrix(second)
    s1, s2 = stirling_by_recurrence(N)
    for n in range(N + 1):
        for m in range(N + 1):
            terms = {}
            for k in range(N + 1):
                g = ((n - k) % 2,)
                terms[g] = terms.get(g, 0) + s1[n][k] * s2[k][m]
            assert composed.entries[n][m] == GroupRingElement(Z2, terms)


def test_stirling_composite_n5():
    # the composite's naturality follows from its factors', so N = 5 (a
    # 124 278-object apex on slices) composes at once
    assert_composite_is_the_recurrence_product(5)


def test_stirling_composite_n6():
    # on orbit-stabilizer slices each kind has sum p(n) n! = 8 904 points at
    # N = 6 (the first kind has 533 418 on the product model)
    assert_composite_is_the_recurrence_product(6)


def test_stirling_composite_alternative_stratification():
    # chi of the composed fibre over (n, m), per label, equals the sum over k
    # of products of the stratum chis
    first, second = stirling_pair(3)
    composed = compose_spans(first, second)
    S, T = composed.source, composed.target
    for n in S.objects:
        for m in T.objects:
            by_label = labeled_fibre(composed, n, m)
            expect = {}
            for k in range(m, n + 1):
                g = ((n - k) % 2,)
                term = Fraction(oracle_s1(n, k) * oracle_s2(k, m))
                if term:
                    expect[g] = expect.get(g, Fraction(0)) + term
            assert by_label == expect


def test_conjugate_perm_is_conjugation_on_all_of_s4():
    sym = SymmetricGroup(4)
    for sigma in sym.elements():
        for g in sym.elements():
            assert sym.conjugate(sigma, g) == pcompose(
                pinverse(g), pcompose(sigma, g)
            )


def test_stirling_guard():
    # the CLI's STIRLING_MAX_N is the one bound on N (test_cli pins its exit
    # 2); the config only checks what a span needs
    with pytest.raises(ValueError):
        StirlingSpanConfig("third", 2)
    with pytest.raises(ValueError):
        StirlingSpanConfig("first", -1)
    # a truncation that is not an int is refused where it is given, not
    # later inside discrete_groupoid
    for truncation in (2.5, 2.0, "2", None, True):
        with pytest.raises(TypeError, match="truncation must be an int"):
            StirlingSpanConfig("first", truncation)


@pytest.mark.parametrize(
    "base, missing",
    [
        (discrete_groupoid(2), "2, 3"),
        (discrete_groupoid(["a", "b", "c"]), "0, 1, 2, 3"),
        (discrete_groupoid([0, 1, 3, 4]), "2"),
    ],
    ids=["short", "other labels", "gap"],
)
def test_stirling_span_refuses_a_base_without_its_labels(monkeypatch, base, missing):
    # before anything is built: no level, no model, no slice
    from gspans import examples

    monkeypatch.setattr(examples, "SymmetricGroup", None)
    for kind in ("first", "second"):
        with pytest.raises(ValueError, match="no object labelled %s \\(need 0..3\\)" % missing):
            stirling_span(StirlingSpanConfig(kind, 3), base)


def test_disjoint_delooping_span_entry():
    # apex BK1 + BK1 + BK2 over one-point feet with component labels g1, g2:
    # single entry (2/|K1|) g1 + (1/|K2|) g2
    from gspans.constructions import GroupoidFunctor, GroupValuedFunctor
    from gspans.groupoid import disjoint_union_tables
    from gspans.gspan import GSpan

    G = Z4
    g1, g2 = (1,), (3,)
    k1, k2 = AbelianGroup([2]), AbelianGroup([3])
    apex = disjoint_union_tables(
        [delooping_bg(k1), delooping_bg(k1), delooping_bg(k2)]
    )
    comp_of = {o: i for i, comp in enumerate(apex.components()) for o in comp}
    labels = {0: g1, 1: g1, 2: g2}
    pt = delooping_bg(AbelianGroup([]))
    to_pt = GroupoidFunctor(
        apex, pt, lambda o: pt.objects[0], lambda m: pt.identity_at(pt.objects[0])
    )
    triv = GroupValuedFunctor.trivial(pt, G)
    sp = GSpan(apex, to_pt, to_pt, triv, triv, lambda o: labels[comp_of[o]])
    m = span_matrix(sp)
    expect = GroupRingElement(
        G, {g1: Fraction(2, k1.order), g2: Fraction(1, k2.order)}
    )
    assert m.entries[0][0] == expect


def test_set_based_span_counting_formula():
    # discrete feet, groupoid apex: entry(c,d) = sum_g chi of the slice
    # {L=c, eps=g, R=d}, here with a two-point base and mixed components
    from gspans.constructions import GroupoidFunctor, GroupValuedFunctor
    from gspans.groupoid import disjoint_union_tables
    from gspans.constructions import discrete_groupoid
    from gspans.gspan import GSpan

    G = Z2
    apex = disjoint_union_tables(
        [delooping_bg(Z2), delooping_bg(Z4), delooping_bg(AbelianGroup([]))]
    )
    comp_of = {o: i for i, comp in enumerate(apex.components()) for o in comp}
    feet = discrete_groupoid(2)
    lmap = {0: 0, 1: 1, 2: 0}
    rmap = {0: 0, 1: 0, 2: 0}
    eps = {0: (0,), 1: (1,), 2: (1,)}
    to_feet_l = GroupoidFunctor(
        apex,
        feet,
        lambda o: lmap[comp_of[o]],
        lambda m: feet.identity_at(lmap[comp_of[apex.source[m]]]),
    )
    to_feet_r = GroupoidFunctor(
        apex,
        feet,
        lambda o: rmap[comp_of[o]],
        lambda m: feet.identity_at(rmap[comp_of[apex.source[m]]]),
    )
    triv = GroupValuedFunctor.trivial(feet, G)
    sp = GSpan(apex, to_feet_l, to_feet_r, triv, triv, lambda o: eps[comp_of[o]])
    m = span_matrix(sp)
    # row c=0: components 0 (BZ2, eps=e) and 2 (point, eps=sigma)
    assert m.entries[0][0] == GroupRingElement(
        G, {(0,): Fraction(1, 2), (1,): 1}
    )
    # row c=1: component 1 (BZ4, eps=sigma)
    assert m.entries[1][0] == GroupRingElement(G, {(1,): Fraction(1, 4)})


def test_universal_span_columns_are_constant():
    from gspans.constructions import GroupValuedFunctor
    from gspans.groupoid import disjoint_union_tables

    s = disjoint_union_tables([delooping_bg(Z2), delooping_bg(Z4)])
    t = delooping_bg(Z2)
    h = GroupValuedFunctor.trivial(s, Z2)
    v = GroupValuedFunctor.trivial(t, Z2)
    sp = universal_span(h, v)
    m = span_matrix(sp)
    for j in range(len(m.col_index)):
        col = {m.entries[i][j].render() for i in range(len(m.row_index))}
        assert len(col) == 1


def test_universal_span_closed_form():
    b2 = delooping_bg(Z2)
    h = bg_self_functor(b2)
    sp = universal_span(h, h)
    assert span_matrix(sp) == universal_matrix_closed_form(h, h)
    # S = T = point over Z2: single entry e + sigma
    from gspans.constructions import GroupValuedFunctor, discrete_groupoid

    one = discrete_groupoid(1)
    triv = GroupValuedFunctor.trivial(one, Z2)
    sp1 = universal_span(triv, triv)
    m = span_matrix(sp1)
    assert m.entries[0][0] == GroupRingElement(Z2, {(0,): 1, (1,): 1})


def test_universal_cell_and_vertical_composition():
    b2 = delooping_bg(Z2)
    h = bg_self_functor(b2)
    from gspans.gspan import identity_span

    sp = identity_span(h)
    cell = universal_cell(sp)
    for c in sp.source.component_reps():
        for d in sp.target.component_reps():
            from gspans.gspan import fibre_map_preserves_labels

            assert fibre_map_preserves_labels(cell, c, d)


def test_subset_span_closed_forms():
    # {x} over the trivial subgroups realizes (x)
    sp = subset_span(Z2, [(1,)], [(0,)], [(0,)])
    assert span_matrix(sp).entries[0][0] == GroupRingElement.basis(Z2, (1,))
    # full G over trivial S, T: sum of G
    sp2 = subset_span(Z4, Z4.elements(), [(0,)], [(0,)])
    assert span_matrix(sp2).entries[0][0] == GroupRingElement(
        Z4, {g: 1 for g in Z4.elements()}
    )
    # invariant subset over bigger subgroups: closed form (1/|T|) sum M
    sub = [(0,), (2,)]
    sp3 = subset_span(Z4, sub, sub, sub)
    assert span_matrix(sp3).entries[0][0] == subset_span_closed_form(Z4, sub, sub)
    with pytest.raises(ValueError):
        subset_span(Z4, [(1,)], sub, sub)


def test_subset_span_refuses_a_set_that_is_not_a_subgroup():
    # {0, 1} in Z4 used to pass and end in a ZeroDivisionError in span_matrix
    with pytest.raises(NotASubgroupError, match=r"s_elements \[\(0,\), \(1,\)\]"):
        subset_span(Z4, Z4.elements(), [(0,), (1,)], [(0,)])
    with pytest.raises(ValueError, match=r"t_elements \[\(0,\), \(3,\)\]"):
        subset_span(Z4, Z4.elements(), [(0,)], [(0,), (3,)])
    # every set with the identity in every abelian G of order <= 8, on either
    # side (all of G is invariant under any S and T): the closure of the
    # greedy generators refuses exactly the sets that the all-pairs
    # is_subgroup refuses
    verdicts = []
    for orders in abelian_group_order_lists(8):
        G = AbelianGroup(orders)
        others = [g for g in G.elements() if g != G.identity]
        for r in range(len(others) + 1):
            for rest in itertools.combinations(others, r):
                els = [G.identity, *rest]
                for sides in ((els, [G.identity]), ([G.identity], els)):
                    try:
                        subset_span(G, G.elements(), *sides)
                    except NotASubgroupError:
                        verdicts.append(False)
                    else:
                        verdicts.append(True)
                    assert verdicts[-1] == G.is_subgroup(els)
    assert verdicts.count(True) > 50 and verdicts.count(False) > 500


def test_subset_span_invariance_on_generators_matches_all_pairs():
    # the c07 sweep's invariant subsets (a coset of S + T) and seeded
    # subsets that are mostly not invariant: subset_span, acting with the
    # generators (s, 0) and (0, t), refuses exactly what the all-pairs check
    # refuses, and names a pair that escapes
    import random

    rng = random.Random(20260810)
    verdicts = []
    for orders in abelian_group_order_lists(8):
        G = AbelianGroup(orders)
        subs = G.all_subgroups()
        last = G.elements()[-1]
        for s_els in subs:
            for t_els in subs:
                st = G.subgroup_closure(set(s_els) | set(t_els))
                coset = sorted({G.add(h, last) for h in st})
                drawn = rng.sample(G.elements(), rng.randint(1, G.order))
                for subset in (coset, drawn, [last]):
                    escapes = all_pairs_subset_escapes(G, subset, s_els, t_els)
                    try:
                        subset_span(G, subset, s_els, t_els)
                    except ValueError as err:
                        verdicts.append(False)
                        named = {
                            "subset is not invariant: %r escapes under (s,t)=%r"
                            % e
                            for e in escapes
                        }
                        assert str(err) in named
                    else:
                        verdicts.append(True)
                        assert escapes == []
    assert verdicts.count(True) > 300 and verdicts.count(False) > 100


def test_subset_span_realizes_i():
    rho = Character(Z4, (1,))
    sp = subset_span(Z4, [(1,)], [(0,)], [(0,)])
    cm = character_matrix(span_matrix(sp), rho)
    from gspans.algebra import CyclotomicNumber

    assert cm.entries[0][0] == CyclotomicNumber.zeta_power(4, 1)


def test_group_square_span():
    # trivial groups: matrix (x)
    triv = AbelianGroup([])
    sp = group_square_span(
        Z4,
        triv,
        triv,
        triv,
        lambda m: (),
        lambda m: (),
        lambda k: Z4.identity,
        lambda k: Z4.identity,
        (3,),
    )
    assert span_matrix(sp).entries[0][0] == GroupRingElement.basis(Z4, (3,))
    # K1 = K2 = M = G abelian, maps identity, x = 0
    sp2 = group_square_span(
        Z4, Z4, Z4, Z4, lambda m: m, lambda m: m, lambda k: k, lambda k: k, (0,)
    )
    m2 = span_matrix(sp2)
    closed = group_square_closed_form(
        Z4, Z4, Z4, Z4, lambda k: k, lambda k: k, (0,)
    )
    assert m2.entries[0][0] == closed
    with pytest.raises(ValueError):
        group_square_span(
            Z4, Z4, Z4, Z4, lambda m: m, lambda m: Z4.neg(m), lambda k: k,
            lambda k: k, (0,),
        )


def test_group_square_composite_identity():
    # composing two spans of groups reproduces the combinatorial identity
    G = Z4
    sp1 = group_square_span(
        G, Z2, Z2, Z2,
        lambda m: m, lambda m: m,
        lambda k: (2 * k[0] % 4,), lambda k: (2 * k[0] % 4,),
        (1,),
    )
    sp2 = group_square_span(
        G, Z2, Z2, Z2,
        lambda m: m, lambda m: m,
        lambda k: (2 * k[0] % 4,), lambda k: (2 * k[0] % 4,),
        (2,),
    )
    lhs, rhs = check_main_theorem(sp1, sp2)
    assert lhs == rhs
    # the identity:  |M1||K2||M2| |{(k1,k3): v2(k3)+x2+x1+h1(k1)=g}|
    #   = |M1 x_K2 M2| sum_{g1+g2=g} |{(k1,k2): ...=g1}| |{(k2,k3): ...=g2}|
    h = lambda k: (2 * k[0] % 4,)
    m1k2m2 = 2 * 2 * 2
    fibred = sum(
        1
        for a in Z2.elements()
        for b in Z2.elements()
        if a == b  # R1 m1 = L2 m2 with both maps the identity
    )
    for g in G.elements():
        left = m1k2m2 * sum(
            1
            for k1 in Z2.elements()
            for k3 in Z2.elements()
            if G.add(h(k3), G.add((2,), G.add((1,), h(k1)))) == g
        )
        right = fibred * sum(
            sum(
                1
                for k1 in Z2.elements()
                for k2 in Z2.elements()
                if G.add(h(k2), G.add((1,), h(k1))) == g1
            )
            * sum(
                1
                for k2 in Z2.elements()
                for k3 in Z2.elements()
                if G.add(h(k3), G.add((2,), h(k2))) == g2
            )
            for g1 in G.elements()
            for g2 in G.elements()
            if G.add(g1, g2) == g
        )
        assert left == right


def test_coset_span_closed_form():
    # H1 = K1 = K2 = G degenerates to the identity span of BG: diagonal Gbar
    sp = coset_span(Z4, Z4.elements(), Z4.elements(), Z4.elements())
    m = span_matrix(sp)
    assert m.entries[0][0] == average_idempotent(Z4, Z4.elements())
    # G = Z4, K1 = K2 = 2Z4, H1 = 0
    sub = [(0,), (2,)]
    sp2 = coset_span(Z4, [(0,)], sub, sub)
    m2 = span_matrix(sp2)
    assert m2.entries[0][0] == coset_span_closed_form(Z4, [(0,)], sub, sub)
    # direct count: pairs from {0,2}^2 summing to 0 twice, to 2 twice, / (1*2)
    assert m2.entries[0][0] == GroupRingElement(Z4, {(0,): 1, (2,): 1})
    with pytest.raises(ValueError):
        coset_span(Z4, sub, [(0,)], sub)


def test_coset_span_composite_identity():
    G = Z4
    sub = [(0,), (2,)]
    sp1 = coset_span(G, [(0,)], sub, sub)
    sp2_raw = coset_span(G, [(0,)], sub, sub)
    # share the middle foot and leg functor instance: sp2's left leg, with
    # the same maps, lands in sp1's copy of the coset groupoid
    from gspans.constructions import GroupoidFunctor
    from gspans.gspan import GSpan

    left = GroupoidFunctor(
        sp2_raw.apex, sp1.target, sp2_raw.left.on_obj, sp2_raw.left.on_mor
    )
    sp2 = GSpan(sp2_raw.apex, left, sp2_raw.right, sp1.v, sp2_raw.v, sp2_raw.eps)
    lhs, rhs = check_main_theorem(sp1, sp2)
    assert lhs == rhs
    # |K2| |{(k1,k2,k3): k3+k2+k1=g}| = sum_{g2+g1=g} |{k2+k1=g1}| |{k3+k2=g2}|
    K = sub
    for g in G.elements():
        left = len(K) * sum(
            1
            for k1 in K
            for k2 in K
            for k3 in K
            if G.add(k3, G.add(k2, k1)) == g
        )
        right = sum(
            sum(1 for k1 in K for k2 in K if G.add(k2, k1) == g1)
            * sum(1 for k2 in K for k3 in K if G.add(k3, k2) == g2)
            for g1 in G.elements()
            for g2 in G.elements()
            if G.add(g2, g1) == g
        )
        assert left == right


# the groups of acceptance criterion 7's coset sweep
C07_COSET_GROUPS = ([4], [6], [8], [2, 2], [2, 4])


def c07_coset_pairs(maximal):
    """(G, (H1, K1, K2), (H2, K2, K3)) for every subgroup triple K1, K2, K3
    of every c07 coset group (792 triples), with H1 = H2 = {0}, or with the
    maximal H1 = K1 cap K2 and H2 = K2 cap K3.  The middle foot K2\\G is
    connected and, as G is not trivial, not discrete."""
    for orders in C07_COSET_GROUPS:
        G = AbelianGroup(orders)
        subs = G.all_subgroups()
        for k1, k2, k3 in itertools.product(subs, repeat=3):
            if maximal:
                h1, h2 = sorted(set(k1) & set(k2)), sorted(set(k2) & set(k3))
            else:
                h1 = h2 = [G.identity]
            yield G, (h1, k1, k2), (h2, k2, k3)


@pytest.mark.parametrize("maximal", [False, True], ids=["trivial_h", "maximal_h"])
def test_coset_compositions_are_the_product_of_the_closed_forms(maximal):
    # the composition theorem on the catalog, over a connected middle foot:
    # the composite's matrix, the product of the two closed forms and the
    # product of the factors' matrices agree
    count = 0
    for G, first, second in c07_coset_pairs(maximal):
        a, b = coset_span(G, *first), coset_span(G, *second)
        composed = span_matrix(compose_spans(a, b))
        want = coset_span_closed_form(G, *first) * coset_span_closed_form(
            G, *second
        )
        assert composed.entries == [[want]], (G, first, second)
        assert composed == matrix_multiply(span_matrix(a), span_matrix(b))
        count += 1
    assert count == 792


def c07_subset_pairs():
    """(G, first, second) for every subgroup triple S, T, U of every c07
    coset group (792 triples): subset_span arguments on S + T from BS to BT
    and on T + U from BT to BU, composable over the delooping BT."""
    for orders in C07_COSET_GROUPS:
        G = AbelianGroup(orders)
        for s, t, u in itertools.product(G.all_subgroups(), repeat=3):
            st_ = sorted(G.subgroup_closure(set(s) | set(t)))
            tu = sorted(G.subgroup_closure(set(t) | set(u)))
            yield G, (st_, s, t), (tu, t, u)


def c07_group_square_pairs():
    """(G, first, second) for every subgroup triple A, B, C of every c07
    coset group (792 triples): group_square_span arguments for
    BA <- B(A cap B) -> BB and BB <- B(B cap C) -> BC, every map an
    inclusion, labelled by the second and the last element of G (G is
    abelian, so every label commutes the square)."""
    def incl(k):
        return k

    for orders in C07_COSET_GROUPS:
        G = AbelianGroup(orders)
        els = G.elements()
        subs = [Subgroup(G, k) for k in G.all_subgroups()]
        for a, b, c in itertools.product(subs, repeat=3):
            ab = Subgroup(G, set(a.elements()) & set(b.elements()))
            bc = Subgroup(G, set(b.elements()) & set(c.elements()))
            maps = (incl,) * 4
            yield G, (ab, a, b) + maps + (els[1],), (bc, b, c) + maps + (els[-1],)


def catalog_pairs(kind):
    """(first, second, closed form of the composite) for each pair of the
    kind's sweep."""
    if kind in ("trivial_h", "maximal_h"):
        for G, first, second in c07_coset_pairs(kind == "maximal_h"):
            want = coset_span_closed_form(G, *first) * coset_span_closed_form(
                G, *second
            )
            yield coset_span(G, *first), coset_span(G, *second), want
    elif kind == "subset":
        for G, first, second in c07_subset_pairs():
            want = subset_span_closed_form(G, first[0], first[2])
            want = want * subset_span_closed_form(G, second[0], second[2])
            yield subset_span(G, *first), subset_span(G, *second), want
    else:
        for G, first, second in c07_group_square_pairs():
            # the closed form takes (M, K1, K2, h, v, x), not the maps l, r
            a, b = (group_square_closed_form(G, *x[:3], *x[5:]) for x in (first, second))
            yield group_square_span(G, *first), group_square_span(G, *second), a * b


@pytest.mark.parametrize("kind", ["subset", "group_square"])
def test_subset_and_group_square_compositions_are_the_product_of_the_closed_forms(
    kind,
):
    # the composition theorem on the rest of the catalog, over the middle
    # delooping BT (BB): the composite's matrix, the product of the two
    # closed forms and the product of the factors' matrices agree
    count = 0
    for a, b, want in catalog_pairs(kind):
        composed = span_matrix(compose_spans(a, b))
        assert composed.entries == [[want]], (kind, count)
        assert composed == matrix_multiply(span_matrix(a), span_matrix(b))
        count += 1
    assert count == 792


@pytest.mark.parametrize("kind", ["trivial_h", "maximal_h", "subset", "group_square"])
def test_lemma_on_a_slice_of_the_catalog_sweeps(kind):
    # the per-label identity at every pair of objects (c1, c2) of the outer
    # feet, on every 13th pair of each sweep: the factors' fibres are read
    # over action-groupoid feet (coset spans) and delooping feet (subset
    # and group-square spans), and moved off the representatives on a foot
    # with more than one object
    checked = 0
    for i, (a, b, _) in enumerate(catalog_pairs(kind)):
        if i % 13:
            continue
        composed = compose_spans(a, b)
        for c1 in a.source.objects:
            for c2 in b.target.objects:
                lhs, rhs = labeled_pullback_identity(a, b, c1, c2, composed=composed)
                assert lhs == rhs, (kind, i, c1, c2)
                checked += bool(lhs)
    assert checked > 0
