"""Each view's generating_family() against what it replaces: its handles are
the generating family as the views listed it by handles alone
(listed_sample), in order, and each triple's endpoints are
source_of and target_of of its handle.  The walkers (GSpan.validate,
SpanMorphism.validate) read those endpoints and call neither.

Inputs: the seeded acceptance corpus (both spans, their feet and the
composite), the Stirling apexes and composites for N <= 5, the c07 coset and
subset apexes, and the composite apexes of the cells workload's squares."""

import random

import pytest

from gspans import random_spans as rnd
from gspans.constructions import PullbackView
from gspans.examples import stirling_pair
from gspans.groupoid import (
    ActionGroupoid,
    DisjointUnion,
    TableGroupoid,
    symmetric_family,
)
from gspans.gspan import compose_spans, interchange_check
from test_span_kernel import c07_sweep_spans

SEED = 20260810  # the acceptance corpus of criteria 3, 4, 6 and 8


def listed_sample(view):
    """A view's generating family as handles alone, listed as each kind of
    view lists it without endpoints: a table's component stars off its hom
    index (all of Aut(r), then the first r -> x), an action groupoid's
    points x generators, a union's members' in turn, tagged, and a pullback
    view's search forest, searched again here (search_forest)."""
    if isinstance(view, DisjointUnion):
        return [
            (i, m)
            for i, member in enumerate(view.members)
            for m in listed_sample(member)
        ]
    if isinstance(view, ActionGroupoid):
        gens = view.group.generators()
        return [(x, g) for x in view.carrier for g in gens]
    if isinstance(view, TableGroupoid):
        out = []
        for comp in view.components():
            r = comp[0]
            for x in comp:
                ms = view.hom(r, x)
                out.extend(ms if x == r else ms[:1])
        return out
    if not isinstance(view, PullbackView):
        raise TypeError("no listed sample for %r" % (view,))
    return search_forest(view)


def search_forest(view):
    """A pullback view's forest by a search of its own: from each object
    not yet reached, in enumeration order, all its automorphisms, then,
    from each object in the order reached, the moves (s, t, id) for s in
    M1's symmetric family, then (id, t, s) for s in M2's, out of it,
    keeping each move that reaches a new object.  Targets are read with
    target_of, and nothing is composed."""
    M1, M2 = view.M1, view.M2
    out1, out2 = {}, {}
    for s in symmetric_family(M1):
        out1.setdefault(M1.source_of(s), []).append(s)
    for s in symmetric_family(M2):
        out2.setdefault(M2.source_of(s), []).append(s)
    reached, out = set(), []
    for r in view.objects:
        if r in reached:
            continue
        reached.add(r)
        out.extend(view.hom(r, r))
        queue = [r]
        for a1, t, a2 in queue:  # grows as the search reaches new objects
            moves = [(s, t, M2.identity_at(a2)) for s in out1.get(a1, ())]
            moves += [(M1.identity_at(a1), t, s) for s in out2.get(a2, ())]
            for m in moves:
                y = view.target_of(m)
                if y not in reached:
                    reached.add(y)
                    queue.append(y)
                    out.append(m)
    return out


def assert_family_with_endpoints(view):
    family = list(view.generating_family())
    listed = listed_sample(view)
    assert [m for m, _, _ in family] == listed
    assert list(view.morphism_sample()) == listed
    for m, x, y in family:
        assert (x, y) == (view.source_of(m), view.target_of(m))


def distinct(views):
    seen = {}
    for v in views:
        seen.setdefault(id(v), v)
    return list(seen.values())


def corpus_views():
    rng = random.Random(SEED)
    views = []
    for _ in range(50):
        sp1, sp2 = rnd.random_composable_pair(
            rng, max_group_order=6, max_objects=8, max_apex_objects=8
        )
        composed = compose_spans(sp1, sp2)
        for sp in (sp1, sp2, composed):
            views += [sp.apex, sp.source, sp.target]
    return distinct(views)


def stirling_views(max_n=5):
    views = []
    for n in range(max_n + 1):
        first, second = stirling_pair(n)
        views += [first.apex, second.apex, compose_spans(first, second).apex]
    return views


def c07_apexes():
    return [sp.apex for sp in c07_sweep_spans()]


def cell_square_composite_apexes():
    """The apexes of the composites that interchange_check builds on the
    cells workload's fixed squares (square i from the i-th 64-bit draw of
    random.Random(0))."""
    composites = []
    compose = compose_spans

    def recording(sp1, sp2):
        composites.append(compose(sp1, sp2))
        return composites[-1]

    base = random.Random(0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("gspans.gspan.compose_spans", recording)
        for _ in range(40):
            square = rnd.random_two_cell_square(random.Random(base.getrandbits(64)))
            assert interchange_check(*square)
    return [sp.apex for sp in composites]


INPUTS = {
    "acceptance corpus": corpus_views,
    "stirling apexes and composites": stirling_views,
    "c07 coset and subset apexes": c07_apexes,
    "cell square composites": cell_square_composite_apexes,
}


# the kinds of view each input must reach, so no walker path goes untested
KINDS = {
    "acceptance corpus": {TableGroupoid, PullbackView},
    "stirling apexes and composites": {DisjointUnion, ActionGroupoid, PullbackView},
    "c07 coset and subset apexes": {ActionGroupoid},
    "cell square composites": {PullbackView},
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_family_is_the_listed_sample_with_its_endpoints(name):
    views = INPUTS[name]()
    kinds = set()
    for view in views:
        assert_family_with_endpoints(view)
        kinds.add(type(view))
        kinds.update(type(m) for m in getattr(view, "members", ()))
    assert KINDS[name] <= kinds
    if name == "acceptance corpus":
        # pullbacks whose forests come from a search over a connected T
        assert any(
            isinstance(v, PullbackView) and not v.T.is_discrete for v in views
        )
