"""Span matrices, composition = multiplication, identity spans, 2-cells."""

import re
from fractions import Fraction

import pytest

from gspans.algebra import (
    AbelianGroup,
    Character,
    CyclotomicNumber,
    GroupRingElement,
    average_idempotent,
)
from gspans.constructions import (
    GroupoidFunctor,
    GroupValuedFunctor,
    bg_self_functor,
    delooping_bg,
    discrete_groupoid,
)
from gspans.gspan import (
    ComposabilityError,
    GSpan,
    GSpanError,
    cells_equal,
    character_matrix,
    check_main_theorem,
    compose_spans,
    fibre_map_preserves_labels,
    identity_cell,
    identity_span,
    labeled_fibre,
    labeled_pullback_identity,
    matrix_multiply,
    pushforward_matrix_closed_form,
    pushforward_span,
    pullback_span,
    span_matrix,
    vertical_compose,
    SpanMorphism,
)
from gspans.constructions import identity_functor
from gspans.groupoid import ActionGroupoid, DisjointUnion, SymmetricGroup

Z2 = AbelianGroup([2])
Z4 = AbelianGroup([4])


def point_span(G, x):
    """Subset-style span {x}: apex one object over one-point feet, label x."""
    apex = discrete_groupoid(1)
    foot = discrete_groupoid(1)
    to_foot = GroupoidFunctor(
        apex, foot, lambda o: 0, lambda m: foot.identity_at(0), check=False
    )
    triv = GroupValuedFunctor.trivial(foot, G)
    return GSpan(apex, to_foot, to_foot, triv, triv, lambda a: x)


def test_point_span_matrix():
    sp = point_span(Z2, (1,))
    m = span_matrix(sp)
    assert m.entries[0][0] == GroupRingElement.basis(Z2, (1,))


def test_identity_span_bz2():
    b2 = delooping_bg(Z2)
    h = bg_self_functor(b2)
    sp = identity_span(h)
    m = span_matrix(sp)
    assert m.row_index == m.col_index
    assert m.is_diagonal()
    ubar = average_idempotent(Z2, [(0,), (1,)])
    assert m.entries[0][0] == ubar
    # idempotent
    assert matrix_multiply(m, m) == m


def test_identity_span_entries_match_image_subgroups():
    # H = reduction Z4 -> Z2 x {0} inside Z2: entries average the image
    b4 = delooping_bg(Z4)
    h = GroupValuedFunctor(
        b4, Z2, lambda m: (b4.morphism_labels[m][0] % 2,)
    )
    sp = identity_span(h)
    m = span_matrix(sp)
    image = {h.value(mm) for mm in b4.hom(b4.objects[0], b4.objects[0])}
    assert m.entries[0][0] == average_idempotent(Z2, image)


def test_identity_span_trivial_cases_give_identity_matrix():
    # trivial H: entries average the trivial subgroup, i.e. the ring unit
    b4 = delooping_bg(Z4)
    triv = GroupValuedFunctor.trivial(b4, Z2)
    m = span_matrix(identity_span(triv))
    assert m == SpanMatrix_identity_like(m)
    # discrete S: identity matrix as well
    d = discrete_groupoid(3)
    m2 = span_matrix(identity_span(GroupValuedFunctor.trivial(d, Z2)))
    assert m2 == SpanMatrix_identity_like(m2)


def SpanMatrix_identity_like(m):
    from gspans.gspan import SpanMatrix

    return SpanMatrix.identity(m.group, m.row_index)


def test_nonnatural_eps_rejected_with_witness():
    b2 = delooping_bg(Z2)
    h = bg_self_functor(b2)
    with pytest.raises(GSpanError):
        GSpan(
            b2,
            identity_functor(b2),
            identity_functor(b2),
            h,
            GroupValuedFunctor.trivial(b2, Z2),
            lambda a: Z2.identity,
        )


def test_compose_point_spans():
    x, y = (1,), (1,)
    spx, spy = point_span(Z2, x), point_span(Z2, y)
    # force the same middle foot and leg object identity
    left = GroupoidFunctor(spy.apex, spx.target, spy.left.on_obj, spy.left.on_mor)
    spy2 = GSpan(spy.apex, left, spy.right, spx.v, spy.v, lambda a: y)
    comp = compose_spans(spx, spy2)
    m = span_matrix(comp)
    assert m.entries[0][0] == GroupRingElement.basis(Z2, Z2.add(x, y))
    lhs, rhs = check_main_theorem(spx, spy2)
    assert lhs == rhs


def test_composability_error():
    spx = point_span(Z2, (1,))
    spz = point_span(Z4, (1,))
    with pytest.raises(ComposabilityError):
        compose_spans(spx, spz)


def test_identity_compose_identity():
    b2 = delooping_bg(Z2)
    h = bg_self_functor(b2)
    sp = identity_span(h)
    lhs, rhs = check_main_theorem(sp, sp)
    assert lhs == rhs
    ubar = average_idempotent(Z2, [(0,), (1,)])
    assert lhs.is_diagonal() and lhs.entries[0][0] == ubar


def test_absorption_restrictM():
    b2 = delooping_bg(Z2)
    h = bg_self_functor(b2)
    sp = identity_span(h)
    left = compose_spans(identity_span(sp.h), sp)
    right = compose_spans(sp, identity_span(sp.v))
    m = span_matrix(sp)
    assert span_matrix(left) == m
    assert span_matrix(right) == m
    ident = span_matrix(identity_span(sp.h))
    assert matrix_multiply(ident, m) == m
    assert matrix_multiply(m, ident) == m


def test_pushforward_closed_form_point_to_bz2():
    one = discrete_groupoid(1)
    b2 = delooping_bg(Z2)
    phi = GroupoidFunctor(
        one, b2, lambda o: b2.objects[0], lambda m: b2.identity_at(b2.objects[0])
    )
    h = GroupValuedFunctor.trivial(one, Z2)
    v = bg_self_functor(b2)
    eps = lambda a: Z2.identity
    sp = pushforward_span(phi, h, v, eps)
    m = span_matrix(sp)
    closed = pushforward_matrix_closed_form(phi, h, v, eps, forward=True)
    assert m == closed
    ubar = average_idempotent(Z2, [(0,), (1,)])
    assert m.entries[0][0] == ubar
    # and the pullback span's matrix against its closed form
    spb = pullback_span(phi, h, v, eps)
    mb = span_matrix(spb)
    closedb = pushforward_matrix_closed_form(phi, h, v, eps, forward=False)
    assert mb == closedb


def test_character_matrix_is_multiplicative():
    rho = Character(Z2, (1,))
    spx = point_span(Z2, (1,))
    spy = GSpan(spx.apex, spx.left, spx.right, spx.v, spx.v, lambda a: (1,))
    a, b = span_matrix(spx), span_matrix(spy)
    ca, cb = character_matrix(a, rho), character_matrix(b, rho)
    assert ca.entries[0][0] == CyclotomicNumber.from_rational(2, -1)
    prod = character_matrix(matrix_multiply(a, b), rho)
    assert ca * cb == prod
    assert prod.entries[0][0] == CyclotomicNumber.one(2)


def test_labeled_fibre_constancy_and_matrix():
    b2 = delooping_bg(Z2)
    h = bg_self_functor(b2)
    sp = identity_span(h)
    c = b2.objects[0]
    assert labeled_fibre(sp, c, c) == {(0,): Fraction(1), (1,): Fraction(1)}


def test_empty_feet_and_apex():
    empty = discrete_groupoid(0)
    triv = GroupValuedFunctor.trivial(empty, Z2)
    ident = GroupoidFunctor(empty, empty, lambda o: o, lambda m: m, check=False)
    sp = GSpan(empty, ident, ident, triv, triv, lambda a: Z2.identity)
    m = span_matrix(sp)
    assert m.row_index == [] and m.col_index == [] and m.entries == []


def test_labeled_pullback_identity_small():
    b2 = delooping_bg(Z2)
    h = bg_self_functor(b2)
    sp = identity_span(h)
    c = b2.objects[0]
    lhs, rhs = labeled_pullback_identity(sp, sp, c, c)
    assert lhs == rhs
    assert lhs  # nonempty


# --- 2-cells ----------------------------------------------------------------


def q_cell(sp):
    """M => S x_S M over composing with the identity span on the left."""
    spm = compose_spans(identity_span(sp.h), sp)
    S, T = sp.source, sp.target
    M = sp.apex

    def obj_map(x):
        lx = sp.left.on_obj(x)
        return (lx, S.identity_at(lx), x)

    def mor_map(m):
        lx = sp.left.on_obj(M.source_of(m))
        return (sp.left.on_mor(m), S.identity_at(lx), m)

    phi = GroupoidFunctor(M, spm.apex, obj_map, mor_map, check=False)
    return SpanMorphism(
        sp,
        spm,
        phi,
        lambda x: S.identity_at(sp.left.on_obj(x)),
        lambda x: T.identity_at(sp.right.on_obj(x)),
    ), spm


def p2_cell(sp, spm):
    """S x_S M => M, the projection promoted to a 2-cell."""
    S, T = sp.source, sp.target

    def obj_map(o):
        return o[2]

    def mor_map(m):
        return m[2]

    phi = GroupoidFunctor(spm.apex, sp.apex, obj_map, mor_map, check=False)
    return SpanMorphism(
        spm,
        sp,
        phi,
        lambda o: o[1],  # the s component
        lambda o: T.identity_at(sp.right.on_obj(o[2])),
    )


def test_q_and_p2_cells_compose_to_identity():
    b2 = delooping_bg(Z2)
    h = bg_self_functor(b2)
    sp = identity_span(h)
    qc, spm = q_cell(sp)
    pc = p2_cell(sp, spm)
    vert = vertical_compose(pc, qc)
    assert cells_equal(vert, identity_cell(sp))


def test_fibre_maps_preserve_labels():
    b2 = delooping_bg(Z2)
    h = bg_self_functor(b2)
    sp = identity_span(h)
    qc, spm = q_cell(sp)
    for c in sp.source.component_reps():
        for d in sp.target.component_reps():
            assert fibre_map_preserves_labels(qc, c, d)


def test_mor_mismatch_cell_rejected():
    b2 = delooping_bg(Z2)
    h = bg_self_functor(b2)
    sp = identity_span(h)
    sigma = next(m for m in b2.morphisms if b2.morphism_labels[m] == (1,))
    from gspans.gspan import SpanMorphismError

    with pytest.raises(SpanMorphismError):
        SpanMorphism(
            sp,
            sp,
            identity_functor(sp.apex),
            lambda x: sigma,  # breaks the label condition
            lambda x: b2.identity_at(x),
        )


def test_lemma_builds_each_right_hand_fibre_once(monkeypatch):
    # looping the lemma over every entry (c1, c2) reads each span's one
    # chi map, which span_matrix reads too: _fibre_chi is computed once
    # each for the composite, sp1 and sp2, not once per fibre or per entry
    # that uses it, and no fibre is built as a table
    import random

    from gspans import constructions, gspan
    from gspans import random_spans as rnd

    rng = random.Random(20260810)
    for _ in range(5):
        sp1, sp2 = rnd.random_composable_pair(
            rng, max_group_order=6, max_objects=8, max_apex_objects=8
        )
    S, T, U = sp1.source, sp1.target, sp2.target
    assert not T.is_discrete
    builds, computed = [], []
    chi = gspan._fibre_chi

    def counting_chi(sp):
        if sp._chi is None:  # not read off the span's memo
            computed.append(sp)
        return chi(sp)

    monkeypatch.setattr(gspan, "_fibre_chi", counting_chi)
    monkeypatch.setattr(
        constructions, "two_sided_fibre", lambda *a: builds.append(a)
    )
    composed = compose_spans(sp1, sp2)
    for c1 in S.component_reps():
        for c2 in U.component_reps():
            lhs, rhs = labeled_pullback_identity(sp1, sp2, c1, c2, composed=composed)
            assert lhs == rhs
    n_s, n_t, n_u = (len(X.component_reps()) for X in (S, T, U))
    assert (n_s, n_t, n_u) == (1, 3, 3)
    assert computed == [composed, sp1, sp2]
    assert builds == []


def test_span_invariants_raise_typed_errors():
    """Each check is a typed exception, so it still fires under python -O."""
    from gspans.examples import stirling_pair
    from gspans.gspan import SpanMorphismError, horizontal_compose

    sp = point_span(Z2, (1,))
    other = point_span(Z2, (0,))
    with pytest.raises(GSpanError, match="start at the apex"):
        GSpan(other.apex, sp.left, sp.right, sp.h, sp.v, sp.eps)
    with pytest.raises(GSpanError, match="different groups"):
        GSpan(sp.apex, sp.left, sp.right, sp.h,
              GroupValuedFunctor.trivial(sp.target, Z4), sp.eps)
    # H and V live on the feet: the tautological functor on BZ2 is no leg
    # over the discrete foot {0, 1, 2}, and neither is the trivial one on a
    # copy of that foot, though its objects and morphisms are the same ids
    foot = discrete_groupoid(3)
    ident = GroupoidFunctor(foot, foot, lambda o: o, lambda m: m)
    on_foot = GroupValuedFunctor.trivial(foot, Z2)
    taut = bg_self_functor(delooping_bg(Z2))
    on_copy = GroupValuedFunctor.trivial(discrete_groupoid(3), Z2)
    for h, v in ((taut, taut), (on_foot, taut), (taut, on_foot),
                 (on_copy, on_foot), (on_foot, on_copy)):
        with pytest.raises(GSpanError, match="live on the feet"):
            GSpan(foot, ident, ident, h, v, lambda a: (0,))
    GSpan(foot, ident, ident, on_foot, on_foot, lambda a: (0,))
    # a label that is not natural is refused at the first failing handle of
    # the apex's generating family, which the message names: on the union of
    # two swap groupoids, the first handle of the second member into the
    # relabelled point
    swap = ActionGroupoid(SymmetricGroup(2), [0, 1], lambda x, g: g[x])
    union = DisjointUnion([swap, swap])
    point = discrete_groupoid(1)
    to_point = GroupoidFunctor(
        union, point, lambda o: 0, lambda m: point.identity_at(0)
    )
    on_point = GroupValuedFunctor.trivial(point, Z2)
    with pytest.raises(GSpanError, match=re.escape(
        "labeling is not natural at morphism (1, (0, (1, 0))): "
        "(1,) + HL != VR + (0,)"
    ) + "$"):
        GSpan(union, to_point, to_point, on_point, on_point,
              lambda o: (1,) if o == (1, 1) else (0,))
    # a 2-cell whose A (or B) is not natural is refused at the first failing
    # handle of the source apex's family, named in the message: over
    # M = S = BZ2, from the span with L (or R) the identity to the one with
    # L (or R) constant, A (or B) the identity, at the handle of (1,)
    bz2 = delooping_bg(Z2)
    star = bz2.objects[0]
    flip = bz2.morphism_of_label[(1,)]
    ident_leg = GroupoidFunctor(bz2, bz2, lambda o: o, lambda m: m)
    constant = GroupoidFunctor(
        bz2, bz2, lambda o: o, lambda m: bz2.identity_at(star)
    )
    to_point = GroupoidFunctor(
        bz2, point, lambda o: 0, lambda m: point.identity_at(0)
    )
    triv = GroupValuedFunctor.trivial(bz2, Z2)
    for name, legs1, legs2 in (
        ("A", (ident_leg, to_point), (constant, to_point)),
        ("B", (to_point, ident_leg), (to_point, constant)),
    ):
        h, v = (triv, on_point) if name == "A" else (on_point, triv)
        sp1 = GSpan(bz2, *legs1, h, v, lambda a: (0,))
        sp2 = GSpan(bz2, *legs2, h, v, lambda a: (0,))
        feet = (sp1.source, sp1.target)
        with pytest.raises(SpanMorphismError, match=re.escape(
            "%s is not natural at %r" % (name, flip)
        ) + "$"):
            SpanMorphism(
                sp1, sp2, identity_functor(bz2),
                lambda x: feet[0].identity_at(sp1.left.on_obj(x)),
                lambda x: feet[1].identity_at(sp1.right.on_obj(x)),
            )
    with pytest.raises(SpanMorphismError, match="do not compose"):
        vertical_compose(identity_cell(other), identity_cell(sp))
    # horizontal composition no longer refuses a lazy composite: the
    # identity cells of two Stirling spans compose to the composite's
    first, second = stirling_pair(1)
    cell = horizontal_compose(identity_cell(first), identity_cell(second))
    assert cells_equal(cell, identity_cell(cell.src_span))
    # the composition lemma's premises, each refused before a composite
    # cell is built.  Vertically, c1 must end at the very span c2 starts from:
    # the same apex with the label shifted on its one component is another
    # span, and the lemma would trust its labels
    shifted = GSpan(sp.apex, sp.left, sp.right, sp.h, sp.v, lambda a: (0,))
    with pytest.raises(SpanMorphismError, match="do not compose"):
        vertical_compose(identity_cell(shifted), identity_cell(sp))
    # a cell's two spans share their legs over BG: the cells from spans over
    # BZ2 with V trivial to spans with V tautological pass every object and
    # naturality law, and their horizontal composite would fail its label
    # law at (0, 1, 0)
    c1, c2 = cells_changing_the_middle_leg()
    with pytest.raises(SpanMorphismError, match="different V over BG"):
        horizontal_compose(c1, c2)
    with pytest.raises(SpanMorphismError, match="different V over BG"):
        c1.validate()
    with pytest.raises(SpanMorphismError, match="different H over BG"):
        c2.validate()
    # a given composite must be compose_spans of the cells' own spans
    again = stirling_pair(1)
    ids = identity_cell(first), identity_cell(second)
    for composed in (compose_spans(*again), compose_spans(second, first), sp):
        for where in ("composed_src", "composed_dst"):
            with pytest.raises(
                SpanMorphismError,
                match="^a given composite is not compose_spans of the cells' spans$",
            ):
                horizontal_compose(*ids, **{where: composed})


def test_the_lemma_refuses_a_composite_of_other_spans():
    # labeled_pullback_identity reads its left-hand side off the given
    # composite, so one made from other spans, even equal ones, or a span
    # that is no composite at all is refused, not compared
    from gspans.examples import stirling_pair

    first, second = stirling_pair(2)
    again = stirling_pair(2)
    c1, c2 = first.source.objects[0], second.target.objects[0]
    for composed in (compose_spans(*again), compose_spans(second, first), first):
        with pytest.raises(
            ComposabilityError,
            match="^a given composite is not compose_spans of sp1, sp2$",
        ):
            labeled_pullback_identity(first, second, c1, c2, composed=composed)
    composed = compose_spans(first, second)
    lhs, rhs = labeled_pullback_identity(first, second, c1, c2, composed=composed)
    assert lhs == rhs == labeled_pullback_identity(first, second, c1, c2)[0]


def cells_changing_the_middle_leg():
    """Identity-shaped cells c1: sp1 => sp1' and c2: sp2 => sp2' over
    S = T = U = BZ2 and one-point apexes with label 0, made with
    check=False: sp1 and sp2 have every leg over BG trivial, sp1' has V
    and sp2' has H tautological, so sp1 o sp2 and sp1' o sp2' compose."""
    bz2 = delooping_bg(Z2)
    point = discrete_groupoid(1)
    to_bz2 = GroupoidFunctor(
        point, bz2, lambda o: bz2.objects[0],
        lambda m: bz2.identity_at(bz2.objects[0]),
    )
    triv, taut = GroupValuedFunctor.trivial(bz2, Z2), bg_self_functor(bz2)

    def span(h, v):
        return GSpan(point, to_bz2, to_bz2, h, v, lambda a: (0,))

    def cell(src, dst):
        return SpanMorphism(
            src, dst, identity_functor(point),
            lambda x: bz2.identity_at(bz2.objects[0]),
            lambda x: bz2.identity_at(bz2.objects[0]),
            check=False,
        )

    return (cell(span(triv, triv), span(triv, taut)),
            cell(span(triv, triv), span(taut, triv)))
