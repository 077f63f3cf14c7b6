"""Brute-force enumeration oracles, independent of the groupoid machinery,
plus the per-entry fibre construction of span matrices (the definition that
span_matrix evaluates by groupoid cardinality), the dense matrix product
(gspans forms only the nonzero products), the Fraction forms of the
products in QG and Q(zeta_m), of a character image, of the span matrix
and of the per-label lemma's right-hand side (gspans sums each in
integers and makes one Fraction per output term),
the naturality checks of
spans and 2-cells at every morphism (the validators walk a generating
family), the composite of two spans built with no check (compose_spans
checks its factors instead) and its matrix's counts read through its
legs and label at each representative (a composite streams them from its
factors' rows), the equality of 2-cells on every morphism
(cells_equal compares on a generating family), the map of two-sided
fibres a 2-cell induces, read off both fibre tables (gspans walks the
source fibre's objects), the table pullback as a loop
that looks up every leg value and hom-set per morphism pair (the builder
looks each up once), the two-sided pullback as one table (gspans nests two
pullback views), the orbits of an action groupoid read off its act
alone (the groupoid reads them off its generator tables), the functor
validators and associativity on every composable pair and triple (the
validators walk generating_pairs), the skeletal models P_k//Sigma(n) of
n-sets with a k-cycle permutation or a k-block partition (gspans builds
them only inside the Stirling strata), and the Stirling spans on the
product model (P x Sigma(n))//Sigma(n) (gspans builds its
orbit-stabilizer slices).  gspans is imported inside the
functions: the benchmark imports this module before it times the import of
gspans."""

import itertools
from fractions import Fraction


def oracle_s1(n, k):
    """Permutations of an n-set with exactly k cycles, by enumeration."""
    if k < 0:
        return 0
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
    """Partitions of an n-set into exactly m blocks, by enumeration."""
    if n == 0:
        return 1 if m == 0 else 0
    if m < 0:
        return 0
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


def abelian_group_order_lists(max_order):
    """All cyclic-order lists (each factor >= 2) with product <= max_order,
    plus the trivial group; covers every abelian group up to isomorphism."""
    out = [[]]

    def grow(prefix, smallest, prod):
        for n in range(smallest, max_order + 1):
            if prod * n > max_order:
                break
            out.append(prefix + [n])
            grow(prefix + [n], n, prod * n)

    grow([], 2, 1)
    return out


def all_pairs_subset_escapes(G, subset, s_elements, t_elements):
    """subset_span's invariance check with every (s, t) in S x T: the
    pairs (x, (s, t)) with -t + x + s outside the subset."""
    inside = {G.check(x) for x in subset}
    return [
        (x, (s, t))
        for x in sorted(inside)
        for s in s_elements
        for t in t_elements
        if G.add(G.neg(t), G.add(x, s)) not in inside
    ]


def fibre_chi_by_label(sp, c, d, table=False):
    """g -> chi((c\\M/d){label = g}) from the table two_sided_fibre builds:
    its components, the label checked constant on each, 1/|Aut| per
    component (labeled_fibre reads _fibre_chi, without a fibre).  Over
    discrete feet the fibre is the union of the apex's components over
    (c, d), read off apex.components() by _apex_chi_by_label, unless table
    is set: the table of the composed Stirling apex at N = 4 walks 925 832
    morphisms."""
    from gspans import gspan
    from gspans.constructions import two_sided_fibre

    if not table and sp.source.is_discrete and sp.target.is_discrete:
        return _apex_chi_by_label(sp, c, d)
    fib = two_sided_fibre(sp.left, sp.right, c, d)
    G, out = sp.group, {}
    for comp in fib.components():
        g0 = None
        for o in comp:
            a, s, t = fib.object_labels[o]
            g = G.add(sp.v.value(t), G.add(sp.eps(a), sp.h.value(s)))
            if g0 is not None and g != g0:
                raise gspan.GSpanError("label varies on a component at %r" % (a,))
            g0 = g
        out[g0] = out.get(g0, 0) + Fraction(1, fib.aut_order(comp[0]))
    return out


def _apex_chi_by_label(sp, c, d):
    """fibre_chi_by_label over discrete feet: the components of the apex
    with L = c and R = d, each labelled V(id_d) + eps + H(id_c), which must
    be the same at each of its objects, and adding 1/|Aut|."""
    from gspans.gspan import GSpanError

    G, M = sp.group, sp.apex
    h = sp.h.value(sp.source.identity_at(c))
    v = sp.v.value(sp.target.identity_at(d))
    out = {}
    for comp in M.components():
        if sp.left.on_obj(comp[0]) != c or sp.right.on_obj(comp[0]) != d:
            continue
        labels = {G.add(v, G.add(sp.eps(a), h)) for a in comp}
        if len(labels) != 1:
            raise GSpanError("label varies on the component of %r" % (comp[0],))
        (g,) = labels
        out[g] = out.get(g, 0) + Fraction(1, M.aut_order(comp[0]))
    return out


def fibre_span_matrix(sp):
    """The span matrix entry by entry: chi of each labelled two-sided fibre
    c\\M/d, scaled by 1/|T(d,d)|."""
    from gspans.algebra import GroupRingElement
    from gspans.gspan import SpanMatrix

    rows = sp.source.component_reps()
    cols = sp.target.component_reps()
    entries = [
        [
            GroupRingElement(
                sp.group,
                {
                    g: x * Fraction(1, sp.target.aut_order(d))
                    for g, x in fibre_chi_by_label(sp, c, d).items()
                },
            )
            for d in cols
        ]
        for c in rows
    ]
    return SpanMatrix(sp.group, rows, cols, entries)


def fraction_lemma_rhs(sp1, sp2, c1, c2):
    """The right-hand side of labeled_pullback_identity at (c1, c2) by the
    Fraction double loop over labeled_fibre: each factor's map moved to
    (c1, d) and (d, c2) for each representative d of T, one Fraction
    product and one Fraction sum per pair of labels (gspans reads the
    factors' integer chi maps at the representatives, sums in integers and
    moves the sum once, by the composite's shift)."""
    from gspans.gspan import labeled_fibre

    G, T = sp1.group, sp1.target
    rhs = {}
    for d in T.component_reps():
        chi_td = Fraction(1, T.aut_order(d))
        left_side = labeled_fibre(sp1, c1, d)
        right_side = labeled_fibre(sp2, d, c2).items()
        for g1, x1 in left_side.items():
            y1 = x1 * chi_td
            for g2, x2 in right_side:
                g = G.add(g2, g1)
                rhs[g] = rhs.get(g, 0) + y1 * x2
    return {g: v for g, v in rhs.items() if v != 0}


def dense_product_entries(a, b, zero, mul):
    """Entries of A B by the dense triple loop, every product formed, zero
    factors too: (A B)(i, j) = sum over k of mul(B(k, j), A(i, k)), in
    increasing k, added as ring elements from the given zero (gspans skips
    the zero products and adds an entry's products in integers)."""
    entries = []
    for i in range(len(a.row_index)):
        row = []
        for j in range(len(b.col_index)):
            acc = zero
            for k in range(len(a.col_index)):
                acc = acc + mul(b.entries[k][j], a.entries[i][k])
            row.append(acc)
        entries.append(row)
    return entries


def fraction_qg_product(x, y):
    """x y in QG by the Fraction double loop: one Fraction product and one
    Fraction sum per pair of terms, the terms in the order the loop first
    reaches them, every key checked by the constructor (gspans sums
    integer numerators)."""
    from gspans.algebra import GroupRingElement

    add = x.group.add
    terms = {}
    for g1, c1 in x.terms.items():
        for g2, c2 in y.terms.items():
            g, c = add(g1, g2), c1 * c2
            t = terms.get(g)
            terms[g] = c if t is None else t + c
    return GroupRingElement(x.group, terms)


def fraction_cyclotomic_product(x, y):
    """x y in Q(zeta_m): the product of the Fraction polynomials, one
    Fraction product and sum per pair of coefficients, reduced by the
    constructor (gspans reduces integer numerators)."""
    from gspans.algebra import CyclotomicNumber

    out = [0] * (len(x.coeffs) + len(y.coeffs) - 1)
    for i, a in enumerate(x.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(y.coeffs):
            out[i + j] += a * b
    return CyclotomicNumber(x.conductor, out)


def fraction_character_image(rho, x):
    """rho(x): x's Fraction coefficients added by the exponent of each key,
    computed and checked per term, then reduced by the constructor."""
    from gspans.algebra import CyclotomicNumber

    by_exponent = [0] * rho.conductor
    for g, c in x.terms.items():
        by_exponent[rho.exponent_of(g)] += c
    return CyclotomicNumber(rho.conductor, by_exponent)


def fraction_span_matrix(sp):
    """span_matrix with two Fractions per term: chi((c\\M/d){label = g})
    as labeled_fibre gives it at the representatives, times 1/|T(d,d)|, every
    key checked by the constructor (gspans folds 1/|T(d,d)| into chi's
    integer denominator)."""
    from gspans.algebra import GroupRingElement
    from gspans.gspan import SpanMatrix, labeled_fibre

    rows = sp.source.component_reps()
    cols = sp.target.component_reps()
    entries = []
    for c in rows:
        row = []
        for d in cols:
            chi_td = Fraction(1, sp.target.aut_order(d))
            terms = {g: x * chi_td for g, x in labeled_fibre(sp, c, d).items()}
            row.append(GroupRingElement(sp.group, terms))
        entries.append(row)
    return SpanMatrix(sp.group, rows, cols, entries)


def all_morphism_span_naturality(sp):
    """GSpan.validate's square eps(a2) + HL(m) = VR(m) + eps(a1) at every
    morphism m: a1 -> a2 of the apex; raises GSpanError at the first
    failure."""
    from gspans.gspan import GSpanError

    G, apex = sp.group, sp.apex
    for m in apex.all_morphisms():
        e1, e2 = sp.eps(apex.source_of(m)), sp.eps(apex.target_of(m))
        lhs = G.add(e2, sp.h.value(sp.left.on_mor(m)))
        rhs = G.add(sp.v.value(sp.right.on_mor(m)), e1)
        if lhs != rhs:
            raise GSpanError(
                "labeling is not natural at morphism %r: %r + HL != VR + %r"
                % (m, e2, e1)
            )


def unchecked_composite(sp1, sp2):
    """The composite span of sp1 and sp2 built with no check at all: the
    homotopy pullback of the middle legs, the outer legs through its
    projections, H1 and V2, and the label eps2(a2) + V1(t) + eps1(a1)."""
    from gspans.constructions import homotopy_pullback
    from gspans.gspan import GSpan

    res = homotopy_pullback(sp1.right, sp2.left)
    G = sp1.group

    def eps(o):
        a1, t, a2 = o
        return G.add(sp2.eps(a2), G.add(sp1.v.value(t), sp1.eps(a1)))

    return GSpan(
        res.groupoid,
        res.p1.then(sp1.left),
        res.p2.then(sp2.right),
        sp1.h,
        sp2.v,
        eps,
        check=False,
    )


def closure_keys(sp):
    """_fibre_chi's count per key (La, Ra, |Aut a|, eps(a)) by the
    per-component closure route: a loop over the apex's component_reps()
    that calls the span's left and right legs, the apex's aut_order and the
    label eps at each representative, in that order (a composite's
    _fibre_chi streams its apex's representatives and reads its factors'
    rows instead)."""
    left, right, eps = sp.left.on_obj, sp.right.on_obj, sp.eps
    aut = sp.apex.aut_order
    by_key = {}
    for a in sp.apex.component_reps():
        key = left(a), right(a), aut(a), eps(a)
        by_key[key] = by_key.get(key, 0) + 1
    return by_key


def all_morphism_cell_naturality(cell):
    """SpanMorphism.validate with A and B checked natural at every morphism
    of the source apex: the object laws, then the naturality squares;
    raises SpanMorphismError at the first failure."""
    from gspans.gspan import SpanMorphismError

    sp1, sp2 = cell.src_span, cell.dst_span
    S, T, G = sp1.source, sp1.target, sp1.group
    M1 = sp1.apex
    for x in M1.objects:
        px = cell.phi.on_obj(x)
        ax, bx = cell.a(x), cell.b(x)
        if S.source_of(ax) != sp1.left.on_obj(x) or S.target_of(
            ax
        ) != sp2.left.on_obj(px):
            raise SpanMorphismError("A component has wrong endpoints at %r" % (x,))
        if T.source_of(bx) != sp1.right.on_obj(x) or T.target_of(
            bx
        ) != sp2.right.on_obj(px):
            raise SpanMorphismError("B component has wrong endpoints at %r" % (x,))
        if G.add(sp1.v.value(bx), sp1.eps(x)) != G.add(
            sp2.eps(px), sp1.h.value(ax)
        ):
            raise SpanMorphismError("label compatibility fails at object %r" % (x,))
    for m in M1.all_morphisms():
        x, y = M1.source_of(m), M1.target_of(m)
        pm = cell.phi.on_mor(m)
        if S.compose_m(cell.a(y), sp1.left.on_mor(m)) != S.compose_m(
            sp2.left.on_mor(pm), cell.a(x)
        ):
            raise SpanMorphismError("A is not natural at %r" % (m,))
        if T.compose_m(cell.b(y), sp1.right.on_mor(m)) != T.compose_m(
            sp2.right.on_mor(pm), cell.b(x)
        ):
            raise SpanMorphismError("B is not natural at %r" % (m,))


def all_morphism_cells_equal(u, w):
    """Componentwise equality of parallel 2-cells with Phi compared on every
    morphism of the source apex."""
    M = u.src_span.apex
    if w.src_span.apex is not M:
        return False
    for x in M.objects:
        if (
            u.phi.on_obj(x) != w.phi.on_obj(x)
            or u.a(x) != w.a(x)
            or u.b(x) != w.b(x)
        ):
            return False
    return all(u.phi.on_mor(m) == w.phi.on_mor(m) for m in M.all_morphisms())


def table_fibre_map_preserves_labels(cell, c, d):
    """fibre_map_preserves_labels read off both fibre tables: the image of
    every object of c\\M1/d looked up among the objects of c\\M2/d
    (gspans walks the objects of c\\M1/d and builds neither table)."""
    from gspans.constructions import two_sided_fibre

    sp1, sp2 = cell.src_span, cell.dst_span
    S, T, G = sp1.source, sp1.target, sp1.group
    fib1 = two_sided_fibre(sp1.left, sp1.right, c, d)
    fib2 = two_sided_fibre(sp2.left, sp2.right, c, d)

    def label(sp, triple):
        a, s, t = triple
        return G.add(sp.v.value(t), G.add(sp.eps(a), sp.h.value(s)))

    for oid in fib1.objects:
        x, s, t = fib1.object_labels[oid]
        px = cell.phi.on_obj(x)
        s2 = S.compose_m(cell.a(x), s)
        t2 = T.compose_m(t, T.inverse_m(cell.b(x)))
        if (px, s2, t2) not in fib2.object_of_label:
            return False  # the image misses the target fibre
        if label(sp2, (px, s2, t2)) != label(sp1, (x, s, t)):
            return False
    return True


def triple_loop_table_pullback(r1, l2):
    """The table pullback of r1: M1 -> T <- M2 : l2 built by the m1 x m2 x t
    loop that evaluates the legs and T.hom for every pair (m1, m2), with the
    same enumeration order and size guard as the builder."""
    from gspans.groupoid import SizeGuardError, TableBuilder, size_guard, slotwise

    bound = size_guard()
    M1, M2, T = r1.source, l2.source, r1.target
    b = TableBuilder()
    for a1 in M1.objects:
        ra1 = r1.on_obj(a1)
        for a2 in M2.objects:
            for t in T.hom(ra1, l2.on_obj(a2)):
                b.obj((a1, t, a2), (M1.identity_at(a1), t, M2.identity_at(a2)))
    count = 0
    for m1 in M1.all_morphisms():
        rm1_inv = T.inverse_m(r1.on_mor(m1))
        s1, t1 = M1.source_of(m1), M1.target_of(m1)
        for m2 in M2.all_morphisms():
            lm2 = l2.on_mor(m2)
            s2, t2 = M2.source_of(m2), M2.target_of(m2)
            for t in T.hom(r1.on_obj(s1), l2.on_obj(s2)):
                u = T.compose_m(T.compose_m(lm2, t), rm1_inv)
                count += 1
                if count > bound:
                    raise SizeGuardError(count, bound)
                b.mor((m1, t, m2), (s1, t, s2), (t1, u, t2))
    return b.build(*slotwise((M1, None, M2)))


def pullback_object_list(view):
    """The objects (a1, t, a2) of a PullbackView by the pair loop: T.hom at
    every pair (a1, a2) of the two apexes, in the order a1, a2, t (gspans
    visits only the a2 whose L2 a2 lies in R1 a1's component of T)."""
    M2, T, l2 = view.M2, view.T, view.l2
    legs2 = [(a2, l2.on_obj(a2)) for a2 in M2.objects]
    return [
        (a1, t, a2)
        for a1 in view.M1.objects
        for ra1 in (view.r1.on_obj(a1),)
        for a2, la2 in legs2
        for t in T.hom(ra1, la2)
    ]


def two_sided_pullback_table(r1, l, r, l2):
    """P x_S M x_T Q for P -R1-> S <-L- M -R-> T <-L2- Q built directly as
    one table: objects (x, a, y, s, t), enumerated x, a, s, y, t; a morphism
    (u, m, v, s, t) is a triple of morphisms at the source (x1, a1, y1, s, t),
    whose target's s and t make the evident squares commute in S and T."""
    from gspans.groupoid import TableBuilder, slotwise

    P, S, M, T, Q = r1.source, r1.target, l.source, r.target, l2.source
    b = TableBuilder()
    for x in P.objects:
        for a in M.objects:
            for s in S.hom(r1.on_obj(x), l.on_obj(a)):
                for y in Q.objects:
                    for t in T.hom(r.on_obj(a), l2.on_obj(y)):
                        ident = (P.identity_at(x), M.identity_at(a), Q.identity_at(y))
                        b.obj((x, a, y, s, t), ident + (s, t))
    for u in P.all_morphisms():
        r1u_inv = S.inverse_m(r1.on_mor(u))
        x1, x2 = P.source_of(u), P.target_of(u)
        for m in M.all_morphisms():
            lm = l.on_mor(m)
            rm_inv = T.inverse_m(r.on_mor(m))
            a1, a2 = M.source_of(m), M.target_of(m)
            for v in Q.all_morphisms():
                l2v = l2.on_mor(v)
                y1, y2 = Q.source_of(v), Q.target_of(v)
                for s in S.hom(r1.on_obj(x1), l.on_obj(a1)):
                    s2 = S.compose_m(S.compose_m(lm, s), r1u_inv)
                    for t in T.hom(r.on_obj(a1), l2.on_obj(y1)):
                        t2 = T.compose_m(T.compose_m(l2v, t), rm_inv)
                        b.mor(
                            (u, m, v, s, t),
                            (x1, a1, y1, s, t),
                            (x2, a2, y2, s2, t2),
                        )
    return b.build(*slotwise((P, M, Q, None, None)))


def assert_two_sided_pullback_matches_table(r1, l, r, l2):
    """two_sided_pullback(r1, l, r, l2), the nested pullback views, against
    the table built directly: the same chi, the same number of components
    and its objects ((x, s, a), t, y) in the table's order (x, a, y, s, t)."""
    from gspans.constructions import two_sided_pullback

    view = two_sided_pullback(r1, l, r, l2)
    table = two_sided_pullback_table(r1, l, r, l2)
    assert view.chi() == table.chi()
    assert len(view.components()) == len(table.components())
    flat = [(x, a, y, s, t) for (x, s, a), t, y in view.objects]
    assert flat == [table.object_labels[o] for o in table.objects]


def action_orbits(view):
    """The orbits {x.g : g in G} of an action groupoid X//G, each ordered by
    carrier position, in first-point order, computed with view.act over every
    element of G."""
    pos = {x: i for i, x in enumerate(view.carrier)}
    els = view.group.elements()
    seen, out = set(), []
    for x in view.carrier:
        if x not in seen:
            orbit = {view.act(x, g) for g in els}
            seen |= orbit
            out.append(sorted(orbit, key=pos.__getitem__))
    return out


def action_aut_order(view, x):
    """|Aut(x)| in X//G as the stabilizer {g : x.g = x}, counted with act."""
    return sum(1 for g in view.group.elements() if view.act(x, g) == x)


def all_pairs_functor_check(functor):
    """GroupoidFunctor.validate with composition checked on every composable
    pair of the source; raises FunctorError at the first failure."""
    from gspans.constructions import FunctorError
    from gspans.groupoid import composable_pairs

    src, tgt, F = functor.source, functor.target, functor.on_obj
    Fm = functor.on_mor
    for m in src.all_morphisms():
        if (F(src.source_of(m)), F(src.target_of(m))) != (
            tgt.source_of(Fm(m)),
            tgt.target_of(Fm(m)),
        ):
            raise FunctorError("functor breaks source/target at %r" % (m,))
    tgt_objects = set(tgt.objects)
    for o in src.objects:
        if F(o) not in tgt_objects or Fm(src.identity_at(o)) != tgt.identity_at(
            F(o)
        ):
            raise FunctorError("functor breaks the identity at %r" % (o,))
    for m2, m1 in composable_pairs(src):
        if Fm(src.compose_m(m2, m1)) != tgt.compose_m(Fm(m2), Fm(m1)):
            raise FunctorError("functor breaks composition on (%r, %r)" % (m2, m1))


def all_pairs_group_valued_check(functor):
    """GroupValuedFunctor.validate with composition checked on every
    composable pair of the source; raises at the first failure."""
    from gspans.constructions import FunctorError
    from gspans.groupoid import composable_pairs

    src, G, value = functor.source, functor.group, functor.value
    for o in src.objects:
        if value(src.identity_at(o)) != G.identity:
            raise FunctorError("BG-functor nonzero on identity at %r" % (o,))
    for m in src.all_morphisms():
        G.check(value(m))
    for m2, m1 in composable_pairs(src):
        if value(src.compose_m(m2, m1)) != G.add(value(m2), value(m1)):
            raise FunctorError("BG-functor breaks composition on (%r, %r)" % (m2, m1))


def all_pairs_set_valued_check(sv):
    """SetValuedFunctor.validate with composition checked on every
    composable pair of the base; raises FunctorError at the first failure."""
    from gspans.constructions import FunctorError
    from gspans.groupoid import composable_pairs

    base = sv.base
    for o in base.objects:
        ident = sv.transport(base.identity_at(o))
        if any(ident(x) != x for x in sv.value_sets(o)):
            raise FunctorError("transport of identity moves a point at %r" % (o,))
    for m in base.all_morphisms():
        f = sv.transport(m)
        image = [f(x) for x in sv.value_sets(base.source_of(m))]
        if len(set(image)) != len(image) or set(image) - set(
            sv.value_sets(base.target_of(m))
        ):
            raise FunctorError("transport of %r is not a bijection" % (m,))
    for m2, m1 in composable_pairs(base):
        f1, f2 = sv.transport(m1), sv.transport(m2)
        f21 = sv.transport(base.compose_m(m2, m1))
        if any(f21(x) != f2(f1(x)) for x in sv.value_sets(base.source_of(m1))):
            raise FunctorError("transport breaks composition on (%r, %r)" % (m2, m1))


def all_triples_associativity(table):
    """The composable triples (m1, m2, m3) of a table, m1 after m2 after m3,
    on which its compose_m is not associative."""
    from gspans.groupoid import composable_pairs

    before = {}  # m -> the morphisms that compose before m
    for m2, m1 in composable_pairs(table):
        before.setdefault(m2, []).append(m1)
    compose = table.compose_m
    return [
        (m1, m2, m3)
        for m1 in table.morphisms
        for m2 in before.get(m1, ())
        for m3 in before.get(m2, ())
        if compose(compose(m1, m2), m3) != compose(m1, compose(m2, m3))
    ]


def perms_with_cycles(n, k):
    from gspans.examples import cycle_count

    return sorted(
        p for p in itertools.permutations(range(n)) if cycle_count(p) == k
    )


def partitions_with_blocks(n, m):
    from gspans.examples import rgs_blocks, rgs_partitions

    return sorted(r for r in rgs_partitions(n) if rgs_blocks(r) == m)


def fin_perm_groupoid(n, k):
    """Skeletal model of the groupoid of n-sets with a k-cycle permutation
    (gspans builds it only inside the Stirling strata, from one level)."""
    from gspans.groupoid import ActionGroupoid, SymmetricGroup

    if not (0 <= k <= n):
        raise ValueError("need 0 <= k <= n")
    sym = SymmetricGroup(n)
    return ActionGroupoid(sym, perms_with_cycles(n, k), sym.conjugate)


def fin_rel_groupoid(k, m):
    """Skeletal model of the groupoid of k-sets with an m-block partition
    (gspans builds it only inside the Stirling strata, from one enumeration
    of the partitions of k)."""
    from gspans.examples import relabel_partition
    from gspans.groupoid import ActionGroupoid, SymmetricGroup

    if not (0 <= m <= k):
        raise ValueError("need 0 <= m <= k")
    sym = SymmetricGroup(k)
    return ActionGroupoid(sym, partitions_with_blocks(k, m), relabel_partition)


def pair_stratum(base_points, act_point, group):
    """Grothendieck construction of Fin(X,X) over a skeletal action model:
    Sigma acts on pairs (point, tau) by (act, conjugation)."""
    from gspans.groupoid import ActionGroupoid

    carrier = [
        (x, tau)
        for x in base_points
        for tau in sorted(itertools.permutations(range(group.n)))
    ]

    def act(pair, g):
        return (act_point(pair[0], g), group.conjugate(pair[1], g))

    return ActionGroupoid(group, carrier, act)


def pair_stirling_span(kind, N, base):
    """stirling_span on the product model: the stratum (n, k) is one
    pair_stratum, (P x Sigma(n))//Sigma(n), with Sigma(n)'s two generators,
    where gspans builds its orbit-stabilizer slices.  Same legs and labels:
    (n, k, label) per stratum."""
    from gspans.constructions import GroupoidFunctor, GroupValuedFunctor
    from gspans.examples import SIGN_GROUP, StirlingSpanConfig, relabel_partition
    from gspans.groupoid import DisjointUnion, SymmetricGroup
    from gspans.gspan import GSpan

    strata, meta = [], []
    for n in range(N + 1):
        sym = SymmetricGroup(n)
        for k in range(0 if n == 0 else 1, n + 1):
            if kind == "first":
                points, act, label = perms_with_cycles(n, k), sym.conjugate, (n - k) % 2
            else:
                points, act, label = partitions_with_blocks(n, k), relabel_partition, 0
            strata.append(pair_stratum(points, act, sym))
            meta.append((n, k, (label,)))
    apex = DisjointUnion(strata)
    obj_of = base.object_of_label

    def leg(slot):
        return GroupoidFunctor(
            apex,
            base,
            lambda o: obj_of[meta[o[0]][slot]],
            lambda m: base.identity_at(obj_of[meta[m[0]][slot]]),
            check=False,
        )

    triv = GroupValuedFunctor.trivial(base, SIGN_GROUP)
    sp = GSpan(apex, leg(0), leg(1), triv, triv, lambda o: meta[o[0]][2])
    sp.config = StirlingSpanConfig(kind, N)
    return sp


def pair_stirling_pair(N):
    """stirling_pair on the product model, over one shared base."""
    from gspans.constructions import discrete_groupoid

    base = discrete_groupoid(N + 1)
    return pair_stirling_span("first", N, base), pair_stirling_span("second", N, base)
