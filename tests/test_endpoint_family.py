"""Each view's generating_family() against what it replaces: its handles are
the generating family as the views listed it by handles alone
(listed_sample), in order, and each triple's endpoints are
source_of and target_of of its handle.  The walkers (GSpan.validate,
SpanMorphism.validate) read those endpoints and call neither.

Inputs: the seeded acceptance corpus (both spans, their feet and the
composite), the Stirling apexes and composites for N <= 5, the c07 coset and
subset apexes, and the composite apexes of the cells workload's squares."""

import functools
import random

import pytest

from gspans import random_spans as rnd
from gspans.constructions import PullbackView
from gspans.examples import stirling_pair
from gspans.groupoid import ActionGroupoid, DisjointUnion, TableGroupoid
from gspans.gspan import compose_spans, interchange_check
from test_span_kernel import c07_sweep_spans

SEED = 20260810  # the acceptance corpus of criteria 3, 4, 6 and 8


def listed_sample(view):
    """A view's generating family as handles alone, listed as each kind of
    view listed it before it yielded endpoints: a table's component stars
    off its hom index (all of Aut(r), then the first r -> x), an action
    groupoid's points x generators, a union's members' in turn, tagged, and
    a pullback view's stars off its search (all of Aut(r), then the
    search-tree morphism r -> x)."""
    if isinstance(view, DisjointUnion):
        return [
            (i, m)
            for i, member in enumerate(view.members)
            for m in listed_sample(member)
        ]
    if isinstance(view, ActionGroupoid):
        gens = view.group.generators()
        return [(x, g) for x in view.carrier for g in gens]
    out = []
    if isinstance(view, TableGroupoid):
        for comp in view.components():
            r = comp[0]
            for x in comp:
                ms = view.hom(r, x)
                out.extend(ms if x == r else ms[:1])
        return out
    if not isinstance(view, PullbackView):
        raise TypeError("no listed sample for %r" % (view,))
    comps, _, _, tree = view._searched()
    objs = view.objects
    reached_from = {y: (x, move) for x, y, move in tree}

    @functools.cache  # each prefix of a path is composed once
    def path(y):  # the search-tree path from y's representative to y
        if y not in reached_from:
            return view.identity_at(objs[y])
        x, move = reached_from[y]
        return view.compose_m(move, path(x))

    for comp in comps:
        r = objs[comp[0]]
        out.extend(view.hom(r, r))
        out.extend(path(i) for i in comp[1:])
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
        # pullbacks whose stars come from a search over a connected T
        assert any(
            isinstance(v, PullbackView) and not v.T.is_discrete for v in views
        )
