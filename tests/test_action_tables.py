"""ActionGroupoid reads the action on generators off one table per generator.
Differential tests against act itself: target_of on every handle,
orbits, representatives and |Aut| against an orbit oracle that calls act
only, and stabilizers, searched along the rows, against the scan of
hom(x, x).  A counting test pins that the Stirling pipeline acts once per point
and generator of each product stratum, model and level, the slices sharing
their level's rows."""

import os
import random

import pytest

from gspans import groupoid
from gspans import random_spans as rnd
from gspans.algebra import AbelianGroup
from gspans.cli import parse_document
from gspans.constructions import coset_groupoid
from gspans.examples import stirling_pair, subset_span
from gspans.gspan import compose_spans, span_matrix
from oracles import (
    abelian_group_order_lists,
    action_aut_order,
    action_orbits,
    fin_perm_groupoid,
    fin_rel_groupoid,
    pair_stirling_pair,
)
from test_product_strata import plain_handle, plain_strata, split_pair, twisted_pair

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def corpus_coset_members(pairs=50, seed=20260810):
    """The coset groupoids drawn for the seeded acceptance corpus."""
    members = []
    draw = rnd.coset_groupoid

    def recording(group, subgroup):
        members.append(draw(group, subgroup))
        return members[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rnd, "coset_groupoid", recording)
        rng = random.Random(seed)
        for _ in range(pairs):
            rnd.random_composable_pair(
                rng, max_group_order=6, max_objects=8, max_apex_objects=8
            )
    return members


def stirling_members(max_n=4):
    out = []
    for n in range(max_n + 1):
        first, second = stirling_pair(n)
        out += first.apex.members + second.apex.members
    return out


def subset_apexes(max_order=6):
    """Apexes of subset spans over ProductGroup(Subgroup, Subgroup): all of
    G, acted on by every pair of subgroups."""
    out = []
    for orders in abelian_group_order_lists(max_order):
        G = AbelianGroup(orders)
        subs = G.all_subgroups()
        for s_els in subs:
            for t_els in subs:
                out.append(subset_span(G, G.elements(), s_els, t_els).apex)
    return out


def split_and_twisted_composites():
    sp1, sp2, _ = split_pair()
    return [compose_spans(sp1, sp2), compose_spans(*twisted_pair())]


def factor_views():
    """The members of the split and twisted unions, whose level sets are the
    factors of their composites."""
    sp1, sp2, _ = split_pair()
    views = {}
    for sp in (sp1, sp2) + twisted_pair():
        for member in sp.apex.members:
            views[id(member)] = member
    return list(views.values())


def document_actions():
    with open(os.path.join(CORPUS, "coset_z6.json")) as f:
        doc = parse_document(f.read())
    return [
        g for g in doc.groupoids.values() if isinstance(g, groupoid.ActionGroupoid)
    ]


INPUTS = {
    "corpus cosets": corpus_coset_members,
    "stirling members": stirling_members,
    "subset apexes": subset_apexes,
    "split and twisted factors": factor_views,
    "document actions": document_actions,
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_tables_agree_with_act(name):
    views = INPUTS[name]()
    assert views
    for view in views:
        inv = view.group.inv
        for m in view.all_morphisms():
            assert view.target_of(m) == view.act(m[0], inv(m[1]))
        orbits = action_orbits(view)
        assert view.components() == orbits
        assert view.component_reps() == [o[0] for o in orbits]
        for orbit in orbits:
            for x in orbit:
                assert view.component_rep(x) == orbit[0]
                assert view.aut_order(x) == action_aut_order(view, x)


def scanned_stabilizer(view, x):
    """Stab(x) in X//G as the Subgroup of the g in hom(x, x), a scan of all
    of G through act (the groupoid searches the orbit of x instead)."""
    return groupoid.Subgroup(view.group, [g for _, g in view.hom(x, x)])


def c07_coset_groupoids():
    """H\\G for every subgroup H of the groups of c07's coset sweep."""
    out = []
    for orders in [[4], [6], [8], [2, 2], [2, 4]]:
        G = AbelianGroup(orders)
        out += [coset_groupoid(G, sub) for sub in G.all_subgroups()]
    return out


def test_stabilizers_by_orbit_search_agree_with_the_scan():
    # the same Subgroup as the scan of hom(x, x): sorted elements and greedy
    # generators, at every orbit representative of the Stirling models for
    # n <= 6 and at every point of every c07 coset groupoid
    models = [
        make(n, k)
        for make in (fin_perm_groupoid, fin_rel_groupoid)
        for n in range(7)
        for k in range(n + 1)
    ]
    cases = [(view, view.component_reps()) for view in models]
    cases += [(view, view.objects) for view in c07_coset_groupoids()]
    checked = 0
    for view, points in cases:
        for x in points:
            stab, want = view.stabilizer(x), scanned_stabilizer(view, x)
            assert stab.elements() == want.elements()
            assert stab.generators() == want.generators()
            checked += 1
    # p(0) + ... + p(6) = 30 orbits per kind, and 72 cosets in 24 groupoids
    assert checked == 2 * 30 + 72


def test_a_stabilizer_search_with_too_few_generators_is_refused():
    # a group that lists the swap alone as generators of S_3: the search
    # from the identity, which the swap fixes, closes 2 of |G|/|orbit| = 6
    class SwapOnly(groupoid.SymmetricGroup):
        def generators(self):
            return super().generators()[:1]

    sym = SwapOnly(3)
    view = groupoid.ActionGroupoid(sym, sym.elements(), sym.conjugate)
    with pytest.raises(ValueError, match="closed 2 of .* = 6 elements"):
        view.stabilizer(sym.identity)


def test_product_targets_agree_with_the_factor_actions():
    composites = split_and_twisted_composites()
    composites += [compose_spans(*stirling_pair(n)) for n in (2, 3)]
    for composed in composites:
        view = composed.apex
        plain_of = plain_strata(view)
        for m in view.all_morphisms():
            o, g = plain_handle(m)
            plain = plain_of[o]
            assert view.target_of(m) == plain.act(o, plain.group.inv(g))


def test_unclosed_carrier_is_refused_by_the_table_build():
    swap = groupoid.ActionGroupoid(
        groupoid.SymmetricGroup(2), [0], lambda x, g: g[x]
    )
    for read in (swap.components, lambda: swap.target_of((0, (1, 0)))):
        with pytest.raises(ValueError, match="not closed"):
            read()


def test_an_unclosed_carrier_is_refused_on_every_call_by_every_restriction():
    # conjugating the transposition (1, 0, 2) by the swap keeps it, by the
    # 3-cycle does not: the swap's row is closed and stored, the cycle's row
    # is refused and never stored, so every read that needs it refuses again
    sym = groupoid.SymmetricGroup(3)
    swap, cycle = sym.generators()
    level = groupoid.ActionGroupoid(sym, [sym.identity, swap], sym.conjugate)
    whole = level.restricted(sym)
    for view in (level, whole, level, whole):
        for read in (view.components, lambda: view.target_of((swap, cycle))):
            with pytest.raises(ValueError, match="not closed"):
                read()
    flip = level.restricted(groupoid.Subgroup(sym, [sym.identity, swap]))
    assert flip.components() == [[sym.identity], [swap]]
    assert flip.target_of((swap, swap)) == swap
    with pytest.raises(ValueError, match="not closed"):
        level.restricted(sym).components()


def test_stirling_slices_read_shared_rows_that_agree_with_act():
    # every slice of every Stirling span with N <= 6 (stirling_pair(6) has
    # all of their levels): its generator handles' targets are act(x, g^-1),
    # and its orbits and |Aut| are those of a fresh build of the same action
    # that shares no row; slices of one level read one row per generator
    for sp in stirling_pair(6):
        rows = {}  # (level act, g) -> the one row its slices read
        for sl in sp.apex.members:
            inv = sl.group.inv
            for x, g in sl.morphism_sample():
                assert sl.target_of((x, g)) == sl.act(x, inv(g))
            fresh = groupoid.ActionGroupoid(sl.group, sl.carrier, sl.act)
            assert sl.components() == fresh.components()
            assert [sl.aut_order(r) for r in sl.component_reps()] == [
                fresh.aut_order(r) for r in fresh.component_reps()
            ]
            for g, row in sl._generator_tables().items():
                assert rows.setdefault((sl.act, g), row) is row
                assert row is not fresh._generator_tables()[g]
        assert len(rows) < sum(len(sl.group.generators()) for sl in sp.apex.members)


def count_pipeline_acts(monkeypatch, make_pair):
    """Run the N=4 pipeline of make_pair with every action counted: the
    action groupoids made, each with its act count, and the apex members of
    both spans."""
    calls = []  # (view, [count]) per action groupoid made
    init = groupoid.ActionGroupoid.__init__

    def counting_init(self, group, carrier, act):
        count = [0]

        def counted(x, g):
            count[0] += 1
            return act(x, g)

        calls.append((self, count))
        init(self, group, carrier, counted)

    with monkeypatch.context() as mp:
        mp.setattr(groupoid.ActionGroupoid, "__init__", counting_init)
        first, second = make_pair(4)
        composed = compose_spans(first, second)
        for sp in (first, second, composed):
            span_matrix(sp)
    return calls, first.apex.members + second.apex.members


def test_stirling_pipeline_acts_once_per_point_and_generator(monkeypatch):
    # the product model (P x S_n)//S_n: the strata are the only actions
    calls, members = count_pipeline_acts(monkeypatch, pair_stirling_pair)
    assert [view for view, _ in calls] == members
    for view, count in calls:
        assert count[0] == len(view.carrier) * len(view.group.generators())
    assert sum(count[0] for _, count in calls) == 2012
    # the slices S_n//Stab(x) are restrictions of one level S_n//S_n (S_n
    # conjugating itself) per n, which stirling_pair shares between its two
    # kinds, the only actions made besides the second kind's models: a
    # slice acts through its level's act and reads its level's rows, so a
    # level acts once per point and distinct generator among the slices of
    # both kinds, whichever slice reads a row first.  The first kind's
    # slices are the level's own (its orbits are the conjugacy classes), so
    # it makes no model.  Each second-kind model P//S_n acts once per point
    # and generator of S_n for its orbits, and not at all for its
    # stabilizers, which come from an orbit search along those rows:
    # 2 * 1 + 5 * 2 + 15 * 2 = 42 act calls over the 2, 5 and 15 partitions
    # of n = 2, 3, 4.  The first kind's models P_k//S_n added 2 * 1 + 6 * 2
    # + 24 * 2 = 62 (104 in all), and a scan of S_n through act for each
    # stabilizer made it 290.  The levels n = 2, 3, 4 have 1, 3 and 6
    # distinct generators among both kinds' slices, so they act
    # 2 * 1 + 6 * 3 + 24 * 6 = 164 times.  With a level per kind (the first
    # kind's 1, 3 and 5 generators, the second's 1, 2 and 5) they acted
    # 2 + 18 + 120 + 2 + 12 + 120 = 274 times; with one row per slice and
    # generator the slices acted 542 times, and before that (a greedy
    # Stab(x) = S_n and a search at every representative) 614 and 392.
    calls, members = count_pipeline_acts(monkeypatch, stirling_pair)
    assert not any(view in members for view, _ in calls)  # slices are views

    def slices_of(view):
        return [m for m in members if m.act is view.act]

    levels = [(view, count[0]) for view, count in calls if slices_of(view)]
    models = [(view, count[0]) for view, count in calls if not slices_of(view)]
    assert sum(len(slices_of(view)) for view, _ in levels) == len(members)
    for view, count in levels:
        gens = {g for m in slices_of(view) for g in m.group.generators()}
        assert count == len(view.carrier) * len(gens)
    for view, count in models:
        assert count == len(view.carrier) * len(view.group.generators())
    assert sum(count for _, count in levels) == 164
    assert sum(count for _, count in models) == 42


def test_stirling_pair_inverts_each_element_once_per_group(monkeypatch):
    calls = []  # (group, element) per element inverted
    pinverse = groupoid.pinverse
    inv = groupoid.SymmetricGroup.inv
    inverting = []  # the group whose inv is running

    def counting(a):
        calls.append((inverting[-1], a))
        return pinverse(a)

    def tracking_inv(self, a):
        inverting.append(self)
        try:
            return inv(self, a)
        finally:
            inverting.pop()

    monkeypatch.setattr(groupoid, "pinverse", counting)
    monkeypatch.setattr(groupoid.SymmetricGroup, "inv", tracking_inv)
    pair_stirling_pair(4)
    elements = [a for _, a in calls]
    # per kind, once each: the generators of S2, S3 and S4 (a swap, then a
    # swap and a cycle) for the generator tables, and the cycles' inverses,
    # which the conjugation action inverts back
    assert len(calls) == 2 * (1 + 3 + 3)
    assert elements[:7] == elements[7:] and len(set(elements)) == 7
    # on slices, stirling_pair makes one S_n per n, which its level
    # S_n//S_n, the slices and the second kind's models P//S_n share.  The
    # level's orbits, which the first kind's slices come from, invert the
    # generators of S2, S3 and S4 and, through the conjugation, the cycles'
    # inverses back: 1 + 3 + 3 = 7.  The stabilizer searches invert nothing
    # more (they carry each u^-1 along the search tree), nor do the second
    # kind's relabelling and its models, whose rows invert S_n's generators,
    # already inverted.  stirling_pair checks naturality once per slice, so
    # it reads no slice row; each span_matrix builds its slices' rows when
    # it asks for their orbits, inverting each stabilizer generator not yet
    # inverted, and through the conjugation its inverse when that is not an
    # involution: the first kind's (0, 2, 1) at n = 3 and (0, 2, 3, 1) (and
    # its inverse), (0, 1, 3, 2) and (2, 3, 0, 1) at n = 4, 1 + 4, then the
    # second kind's (0, 2, 1, 3) at n = 4, 1.  No group inverts an element
    # twice.  With an S_n per model and per kind's level, stirling_pair made
    # the first kind's models' 2 + 9 + 12 = 23 inversions and the second's
    # 2 + 6 + 8 = 16, and the span_matrix calls 4 + 9, then 3 + 8, 63 in
    # all; with stabilizers scanned through the conjugation the total was
    # 128, with a row per slice 116, and with a stabilizer search at every
    # representative 146.
    calls.clear()
    first, second = stirling_pair(4)
    assert len(calls) == 1 + 3 + 3
    span_matrix(first)
    assert len(calls) == 7 + 1 + 4
    span_matrix(second)
    assert len({(id(group), a) for group, a in calls}) == len(calls)
    assert len(calls) == 7 + 1 + 4 + 1
