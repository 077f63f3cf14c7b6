"""Differential tests: labeled_fibre, which reads the span matrix's chi map
(_fibre_chi) at the representatives and moves it to any pair of objects,
against the fibre built as a table (oracles.fibre_chi_by_label), with exact
equality at every pair of objects (c, d), representatives or not; and, on a
span made with check=False, the same GSpanError from both where one label
is wrong, and the same values everywhere else."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gspans import random_spans as rnd
from gspans.constructions import two_sided_fibre
from gspans.examples import stirling_pair, universal_span
from gspans.gspan import (
    GSpan,
    GSpanError,
    compose_spans,
    labeled_fibre,
    pullback_span,
    pushforward_span,
)
from oracles import fibre_chi_by_label
from test_span_kernel import SEED, c07_sweep_spans


def assert_matches_table(sp):
    """labeled_fibre equals the table at every (c, d)."""
    for c in sp.source.objects:
        for d in sp.target.objects:
            want = fibre_chi_by_label(sp, c, d, table=True)
            assert labeled_fibre(sp, c, d) == want, (c, d)


def raises_gspan_error(f, *args):
    try:
        f(*args)
    except GSpanError:
        return True
    return False


def assert_names_two_fibre_objects(sp, c, d):
    """labeled_fibre's GSpanError at (c, d) names two objects of c\\M/d,
    each with its own label, which differ."""
    with pytest.raises(GSpanError) as err:
        labeled_fibre(sp, c, d)
    fib = two_sided_fibre(sp.left, sp.right, c, d)
    G = sp.group

    def label(o):
        a, s, t = o
        return G.add(sp.v.value(t), G.add(sp.eps(a), sp.h.value(s)))

    named = [
        o for o in fib.object_of_label if " %r at %r" % (label(o), o) in str(err.value)
    ]
    assert len({label(o) for o in named}) == 2, (c, d, str(err.value))


def assert_both_reject_the_same(sp, rng):
    """With eps moved at one apex object (check=False), labeled_fibre
    raises GSpanError at exactly the (c, d) where the table does, naming
    two objects of that fibre, and gives the table's map at every other
    (c, d)."""
    objects = list(sp.apex.objects)
    others = [g for g in sp.group.elements() if g != sp.group.identity]
    if not (objects and others):
        return 0
    a0 = rng.choice(objects)
    shift = rng.choice(others)
    eps = sp.eps

    def wrong(a):
        return sp.group.add(eps(a), shift) if a == a0 else eps(a)

    bad = GSpan(sp.apex, sp.left, sp.right, sp.h, sp.v, wrong, check=False)
    caught = 0
    for c in sp.source.objects:
        for d in sp.target.objects:
            table = raises_gspan_error(fibre_chi_by_label, bad, c, d, True)
            assert raises_gspan_error(labeled_fibre, bad, c, d) == table, (c, d)
            if table:
                assert_names_two_fibre_objects(bad, c, d)
            else:
                want = fibre_chi_by_label(bad, c, d, True)
                assert labeled_fibre(bad, c, d) == want, (c, d)
            caught += table
    return caught


@pytest.fixture(scope="module")
def corpus():
    """The seeded pairs of the acceptance corpus and their composites."""
    rng = random.Random(SEED)
    pairs = [
        rnd.random_composable_pair(
            rng, max_group_order=6, max_objects=8, max_apex_objects=8
        )
        for _ in range(50)
    ]
    return [(sp1, sp2, compose_spans(sp1, sp2)) for sp1, sp2 in pairs]


def test_search_matches_table_on_random_corpus(corpus):
    for sp1, sp2, composed in corpus:
        for sp in (sp1, sp2, composed):
            assert_matches_table(sp)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_search_matches_table_on_stirling(n):
    # the composite's table at N = 4 walks its 925 832 morphisms once per
    # entry, about 5 s each, so there the composite is held against the
    # apex's components instead, in
    # test_a_checked_discrete_span_reads_its_fibres_without_a_search
    first, second = stirling_pair(n)
    composed = compose_spans(first, second)
    for sp in (first, second) + ((composed,) if n < 4 else ()):
        assert_matches_table(sp)


def test_search_matches_table_on_subset_and_coset_sweeps():
    # every third span of the sweep: the tables of all 646 take about 9 s
    for sp in c07_sweep_spans()[::3]:
        assert_matches_table(sp)


def test_search_matches_table_on_universal_push_pull_spans():
    rng = random.Random(SEED + 7)
    for _ in range(8):
        G = rnd.random_group(rng, 8)
        s = rnd.random_groupoid(rng, 5)
        t = rnd.random_groupoid(rng, 5)
        h = rnd.random_bg_functor(rng, s, G)
        v = rnd.random_bg_functor(rng, t, G)
        assert_matches_table(universal_span(h, v))
    for _ in range(12):
        phi, h, v, eps = rnd.random_pushforward_data(rng, max_group_order=8)
        assert_matches_table(pushforward_span(phi, h, v, eps))
        assert_matches_table(pullback_span(phi, h, v, eps))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_search_matches_table_on_random_seeds(seed):
    rng = random.Random(seed)
    sp1, sp2 = rnd.random_composable_pair(rng, max_objects=5, max_apex_objects=5)
    for sp in (sp1, sp2, compose_spans(sp1, sp2)):
        assert_matches_table(sp)


def test_a_wrong_label_is_rejected_where_the_table_rejects_it(corpus):
    rng = random.Random(SEED + 11)
    caught = 0
    for sp1, sp2, composed in corpus[:20]:
        for sp in (sp1, sp2, composed):
            caught += assert_both_reject_the_same(sp, rng)
    for sp in c07_sweep_spans()[::7]:
        caught += assert_both_reject_the_same(sp, rng)
    # over discrete feet too an unchecked span is refused at exactly the
    # table's (c, d), and read off _fibre_chi everywhere else
    for n in range(4):
        first, second = stirling_pair(n)
        for sp in (first, second, compose_spans(first, second)):
            caught += assert_both_reject_the_same(sp, rng)
    assert caught > 0


def test_a_checked_discrete_span_reads_its_fibres_without_a_search(monkeypatch):
    # labeled_fibre reads _fibre_chi, which needs the composite's
    # representatives and their |Aut| but not its objects, so the apex's
    # search over its objects may not run
    from gspans.constructions import PullbackView

    composed = compose_spans(*stirling_pair(4))
    entries = [(c, d) for c in composed.source.objects for d in composed.target.objects]
    want = {cd: fibre_chi_by_label(composed, *cd) for cd in entries}

    def refuse(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(PullbackView, "_searched", refuse)
    monkeypatch.setattr(PullbackView, "_object_list", refuse)
    assert {cd: labeled_fibre(composed, *cd) for cd in entries} == want
    assert any(want.values())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_a_wrong_label_is_rejected_where_the_table_rejects_it_on_random_seeds(
    seed,
):
    rng = random.Random(seed)
    sp1, sp2 = rnd.random_composable_pair(rng, max_objects=5, max_apex_objects=5)
    for sp in (sp1, sp2, compose_spans(sp1, sp2)):
        assert_both_reject_the_same(sp, rng)


def test_the_error_names_both_ends_of_the_move():
    # apex and left foot the swap groupoid on {0, 1}, labelled eps(a) = a:
    # the swap 0 -> 1 moves (0, id, id) to (1, swap, id) in the fibre over
    # (0, 0), and the label changes from (0,) to (1,) along it
    from gspans.algebra import AbelianGroup
    from gspans.constructions import (
        GroupoidFunctor,
        GroupValuedFunctor,
        discrete_groupoid,
        identity_functor,
    )
    from test_span_kernel import swap_groupoid

    Z2 = AbelianGroup([2])
    apex = swap_groupoid()
    point = discrete_groupoid(1)
    to_point = GroupoidFunctor(
        apex, point, lambda a: 0, lambda m: point.identity_at(0)
    )
    sp = GSpan(
        apex,
        identity_functor(apex),
        to_point,
        GroupValuedFunctor.trivial(apex, Z2),
        GroupValuedFunctor.trivial(point, Z2),
        lambda a: (a,),
        check=False,
    )
    swap = apex.hom(0, 1)[0]
    with pytest.raises(GSpanError) as err:
        labeled_fibre(sp, 0, 0)
    ident, t = apex.identity_at(0), point.identity_at(0)
    assert str(err.value) == (
        "label not constant on the component of 0: (0,) at %r, (1,) at %r"
        % ((0, ident, t), (1, swap, t))
    )


def test_a_wrong_label_off_the_representatives_names_that_fibre():
    # apex and left foot the swap groupoid on {0, 1}, H(m) = target - source
    # in Z4, labelled 0 everywhere: the swap 0 -> 1 moves (0, id, id) to
    # (1, swap, id) in the fibre over the representatives (0, 0), whose
    # labels 0 and 1 differ; over (1, 0), not a pair of representatives,
    # the witness at the representatives is moved by s0 = the swap 1 -> 0, which shifts
    # both labels by H(s0) = 3
    from gspans.algebra import AbelianGroup
    from gspans.constructions import (
        GroupoidFunctor,
        GroupValuedFunctor,
        discrete_groupoid,
        identity_functor,
    )
    from test_span_kernel import swap_groupoid

    Z4 = AbelianGroup([4])
    apex = swap_groupoid()
    point = discrete_groupoid(1)
    to_point = GroupoidFunctor(
        apex, point, lambda a: 0, lambda m: point.identity_at(0)
    )
    h = GroupValuedFunctor(
        apex, Z4, lambda m: ((apex.target_of(m) - apex.source_of(m)) % 4,)
    )
    sp = GSpan(
        apex,
        identity_functor(apex),
        to_point,
        h,
        GroupValuedFunctor.trivial(point, Z4),
        lambda a: (0,),
        check=False,
    )
    assert apex.component_rep(1) == 0
    swap01, swap10 = apex.hom(0, 1)[0], apex.hom(1, 0)[0]
    id0, id1, t = apex.identity_at(0), apex.identity_at(1), point.identity_at(0)
    for c, want in [
        (0, "(0,) at %r, (1,) at %r" % ((0, id0, t), (1, swap01, t))),
        (1, "(3,) at %r, (0,) at %r" % ((0, swap10, t), (1, id1, t))),
    ]:
        assert raises_gspan_error(fibre_chi_by_label, sp, c, 0, True)
        with pytest.raises(GSpanError) as err:
            labeled_fibre(sp, c, 0)
        assert str(err.value) == "label not constant on the component of 0: " + want
        assert_names_two_fibre_objects(sp, c, 0)


def test_an_unchecked_h_that_is_not_a_functor_is_refused_at_every_fibre():
    # H is the nonzero element at the identity of 3 (check=False): the
    # refusal's argument needs H and V to be functors, so labeled_fibre
    # validates them first and refuses every fibre, not only those over 3
    from gspans.constructions import GroupValuedFunctor
    from gspans.examples import StirlingSpanConfig, stirling_span

    sp = stirling_span(StirlingSpanConfig("first", 3))
    base = sp.source
    bad_id = base.identity_at(base.object_of_label[3])
    h = GroupValuedFunctor(
        base, sp.group, lambda m: (1,) if m == bad_id else (0,), check=False
    )
    bad = GSpan(sp.apex, sp.left, sp.right, h, sp.v, sp.member_label, check=False)
    entries = [(c, d) for c in base.objects for d in sp.target.objects]
    assert len(entries) == 16
    for c, d in entries:
        with pytest.raises(GSpanError, match="H is not a functor to BG"):
            labeled_fibre(bad, c, d)


def test_a_checked_span_walks_nothing(corpus, monkeypatch):
    # labeled_fibre and the lemma read a checked span's _fibre_chi and
    # never its naturality square; the lemma's right-hand side reads the
    # factors' chi maps, so its one labeled fibre (_moved_fibre, which
    # labeled_fibre reads too) is the composite's, moved by one _to_pair
    from gspans import gspan
    from gspans.gspan import _moved_fibre, _to_pair, labeled_pullback_identity

    def refuse(*args):
        raise AssertionError("walked")

    calls, moves = [], []

    def counted(*args):
        calls.append(args)
        return _moved_fibre(*args)

    def counted_move(*args):
        moves.append(args)
        return _to_pair(*args)

    monkeypatch.setattr(gspan, "_unnatural", refuse)
    monkeypatch.setattr(gspan, "_refused", refuse)
    monkeypatch.setattr(gspan, "_moved_fibre", counted)
    monkeypatch.setattr(gspan, "_to_pair", counted_move)
    for sp1, sp2, composed in corpus:
        for sp in (sp1, sp2, composed):
            assert sp.checked
            for c in sp.source.objects:
                for d in sp.target.objects:
                    labeled_fibre(sp, c, d)
        for c1 in sp1.source.objects:
            for c2 in sp2.target.objects:
                calls.clear()
                moves.clear()
                lhs, rhs = labeled_pullback_identity(sp1, sp2, c1, c2, composed)
                assert lhs == rhs
                assert calls == moves == [(composed, c1, c2)]


def test_a_fibre_is_unchanged_by_a_shift_by_h_or_v_of_an_automorphism(corpus):
    # (a, s, t) -> (a, s, u t), u in Aut(d), adds V(u) to every label of
    # c\M/d, and (a, s, t) -> (a, s u, t), u in Aut(c), adds H(u): the lemma
    # moves its sum by the composite's shift alone because of this
    shifted = 0
    for sp1, sp2, composed in corpus:
        for sp in (sp1, sp2, composed):
            S, T, add = sp.source, sp.target, sp.group.add
            for c in S.objects:
                hs = {sp.h.value(u) for u in S.hom(c, c)}
                for d in T.objects:
                    vs = {sp.v.value(u) for u in T.hom(d, d)}
                    shifts = hs | vs
                    if len(shifts) == 1:
                        continue  # both trivial
                    chi = labeled_fibre(sp, c, d)
                    for x in shifts:
                        assert {add(g, x): k for g, k in chi.items()} == chi, (c, d)
                    shifted += bool(chi)
    assert shifted > 0
