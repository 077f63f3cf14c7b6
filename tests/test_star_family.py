"""A table's generating family (the star of each component) against every
morphism: its structure, the validators and cells_equal that walk it against
the all-morphism oracles on the acceptance corpus, the cells workload's
squares, drawn squares and seeded one-point mutations, and the functoriality
of the Phis cells_equal compares, which the family argument needs.  The
materialized pullback view against the loop that looks up its leg values
per morphism pair."""

import glob
import os
import random
from collections import Counter, namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gspans import gspan
from gspans import random_spans as rnd
from gspans.cli import DocumentError, parse_document
from gspans.constructions import GroupoidFunctor, GroupValuedFunctor, PullbackView
from gspans.groupoid import SizeGuardError, TableGroupoid, materialize
from gspans.gspan import (
    ComposabilityError,
    GSpan,
    SpanMorphism,
    cells_equal,
    compose_spans,
    interchange_check,
)
from oracles import (
    all_morphism_cell_naturality,
    all_morphism_cells_equal,
    all_morphism_span_naturality,
    triple_loop_table_pullback,
)

SEED = 20260810  # the acceptance corpus of criteria 3, 4, 6 and 8
CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def outcome(check, x):
    """None if check(x) accepts, else the type of what it raised."""
    try:
        check(x)
    except ValueError as e:
        return type(e)
    return None


def non_representatives(view):
    return [o for c in view.components() for o in c[1:]]


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(SEED)
    pairs = [
        rnd.random_composable_pair(
            rng, max_group_order=6, max_objects=8, max_apex_objects=8
        )
        for _ in range(50)
    ]
    return [(sp1, sp2, compose_spans(sp1, sp2)) for sp1, sp2 in pairs]


# what interchange_check compared (lhs, rhs) and the horizontal and vertical
# composites it built on the way
Interchange = namedtuple("Interchange", "holds lhs rhs horizontals verticals")

# the spans and cells that drawing a square and checking it built
Built = namedtuple("Built", "spans cells interchange")


def run_interchange(square):
    """interchange_check(*square), recording what it builds and compares."""
    horizontals, verticals, compared = [], [], []
    compose, stack = gspan.horizontal_compose, gspan.vertical_compose
    equal = gspan.cells_equal

    def recording_compose(*args):
        horizontals.append(compose(*args))
        return horizontals[-1]

    def recording_stack(*args):
        verticals.append(stack(*args))
        return verticals[-1]

    def recording_equal(u, w):
        compared.append((u, w))
        return equal(u, w)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gspan, "horizontal_compose", recording_compose)
        mp.setattr(gspan, "vertical_compose", recording_stack)
        mp.setattr(gspan, "cells_equal", recording_equal)
        holds = interchange_check(*square)
    [(lhs, rhs)] = compared
    return Interchange(holds, lhs, rhs, horizontals, verticals)


@pytest.fixture(scope="module")
def squares():
    """The cells workload's fixed list: square i is drawn from the i-th
    64-bit draw of random.Random(0).  Returns each square's cells with its
    Built: the spans validated or composed and the cells validated."""
    spans, cells = [], []
    span_validate = GSpan.validate
    cell_validate = SpanMorphism.validate
    compose = gspan.compose_spans

    def record_span(sp):
        spans.append(sp)
        span_validate(sp)

    def record_composite(sp1, sp2):
        spans.append(compose(sp1, sp2))
        return spans[-1]

    def record_cell(cell):
        cells.append(cell)
        cell_validate(cell)

    base = random.Random(0)
    subs = [base.getrandbits(64) for _ in range(40)]
    out = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GSpan, "validate", record_span)
        mp.setattr(SpanMorphism, "validate", record_cell)
        mp.setattr(gspan, "compose_spans", record_composite)
        for sub in subs:
            del spans[:], cells[:]
            square = rnd.random_two_cell_square(random.Random(sub))
            run = run_interchange(square)
            assert run.holds
            out.append((square, Built(list(spans), list(cells), run)))
    return out


def built_of(squares):
    """The Built of every square."""
    return [b for _, b in squares]


def tables_of(views):
    seen = {}
    for v in views:
        if isinstance(v, TableGroupoid):
            seen.setdefault(id(v), v)
    return list(seen.values())


def corpus_document_tables():
    views = []
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.json"))):
        with open(path) as f:
            try:
                doc = parse_document(f.read(), path)
            except DocumentError:
                continue  # the bad_* documents are refused on purpose
        views.extend(doc.groupoids.values())
        views.extend(sp.apex for sp in doc.spans.values())
    return tables_of(views)


def span_views(sp):
    return [sp.apex, sp.source, sp.target]


# ---------------------------------------------------------------------------
# the family's structure


def closure(table, family):
    """Every morphism reachable from the family, its inverses and their
    composites."""
    gens = list(family) + [table.inverse_m(m) for m in family]
    by_source = {}
    for g in gens:
        by_source.setdefault(table.source_of(g), []).append(g)
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        m = frontier.pop()
        for g in by_source.get(table.target_of(m), ()):
            c = table.compose_m(g, m)
            if c not in seen:
                seen.add(c)
                frontier.append(c)
    return seen


def assert_star_family(table):
    # a fresh copy: same ids and law, no cached family, no filled dicts
    fresh = table.full_subgroupoid(table.objects)
    family = list(fresh.morphism_sample())
    assert fresh.compose == {} and fresh.inverse == {}
    assert fresh.generating_family() is fresh.generating_family()  # cached
    assert family == list(table.morphism_sample())
    comps = fresh.components()
    assert len(family) == sum(
        fresh.aut_order(c[0]) + len(c) - 1 for c in comps
    )
    for m in family:
        assert fresh.source_of(m) == fresh.component_rep(fresh.source_of(m))
    assert closure(fresh, family) == set(fresh.all_morphisms())


def test_star_family_of_corpus_tables(corpus):
    tables = tables_of(
        v for sp1, sp2, c in corpus for sp in (sp1, sp2, c) for v in span_views(sp)
    )
    assert len(tables) == 250  # five per pair: the composite is a view
    for t in tables:
        assert_star_family(t)


def test_star_family_of_cell_square_tables(squares):
    tables = tables_of(
        v for spans, cells, _ in built_of(squares)
        for sp in spans + [c.dst_span for c in cells]
        for v in span_views(sp)
    )
    assert len(tables) == 360  # the composites' apexes are views
    for t in tables:
        assert_star_family(t)


def test_star_family_of_document_tables():
    tables = corpus_document_tables()
    assert len(tables) >= 8
    for t in tables:
        assert_star_family(t)


def test_star_family_of_a_table_that_is_not_a_groupoid():
    # one object unreachable from the representative's side: no star
    t = TableGroupoid([0, 1], {0: 0, 1: 1, 2: 1}, {0: 0, 1: 1, 2: 0},
                      {0: 0, 1: 1}, {}, {})
    with pytest.raises(ValueError, match="no morphism 0 -> 1"):
        t.morphism_sample()


# ---------------------------------------------------------------------------
# span naturality: the family walk against every morphism


def assert_spans_agree(sp, rng, mutations=2):
    assert outcome(GSpan.validate, sp) == outcome(all_morphism_span_naturality, sp)
    G = sp.group
    nonzero = [g for g in G.elements() if g != G.identity]
    movable = non_representatives(sp.apex)
    for x in rng.sample(movable, min(mutations, len(movable))) if nonzero else ():
        g = rng.choice(nonzero)
        eps = {o: sp.eps(o) for o in sp.apex.objects}
        eps[x] = G.add(eps[x], g)
        bad = GSpan(sp.apex, sp.left, sp.right, sp.h, sp.v, eps, check=False)
        assert outcome(GSpan.validate, bad) is gspan.GSpanError
        assert outcome(all_morphism_span_naturality, bad) is gspan.GSpanError


def test_span_validate_matches_the_oracle_on_the_corpus(corpus):
    rng = random.Random(SEED + 1)
    for sp1, sp2, composed in corpus:
        for sp in (sp1, sp2, composed):
            assert_spans_agree(sp, rng)


def test_span_validate_matches_the_oracle_on_cell_squares(squares):
    rng = random.Random(SEED + 2)
    for spans, _, _ in built_of(squares):
        assert sum(isinstance(sp.apex, PullbackView) for sp in spans) == 5
        for sp in spans:
            assert_spans_agree(sp, rng, mutations=1)


# ---------------------------------------------------------------------------
# 2-cell naturality: the family walk against every morphism


def mutated_cell(cell, which, x, rng):
    """cell with A (which="a") or B changed at the object x: to another
    morphism with the same endpoints if there is one, else to any other."""
    sp = cell.src_span
    foot = sp.source if which == "a" else sp.target
    comp = getattr(cell, which)
    old = comp(x)
    same = foot.hom(foot.source_of(old), foot.target_of(old))
    others = [m for m in same if m != old] or [
        m for m in foot.all_morphisms() if m != old
    ]
    if not others:
        return None
    new = rng.choice(others)
    changed = lambda o: new if o == x else comp(o)  # noqa: E731
    a, b = (changed, cell.b) if which == "a" else (cell.a, changed)
    return SpanMorphism(cell.src_span, cell.dst_span, cell.phi, a, b, check=False)


def test_cell_validate_matches_the_oracle_on_cell_squares(squares):
    # drawing a square validates six cells (q and p2 on each leg and the
    # two universal cells); interchange_check walks none of its six
    # composites, which the composition lemma checks, so they are walked
    # here, against the oracle too
    checked = 0
    for _, cells, run in built_of(squares):
        composites = run.horizontals + run.verticals
        assert len(cells) == 6 and len(composites) == 6
        assert all(cell.checked for cell in composites)
        for cell in cells + composites:
            assert outcome(SpanMorphism.validate, cell) is None
            assert outcome(all_morphism_cell_naturality, cell) is None
            checked += 1
    assert checked > 450


def test_one_point_mutations_of_a_and_b_are_rejected_by_both(squares):
    rng = random.Random(SEED + 4)
    rejected = by_walk = 0
    for square, _ in squares:
        for cell in square:
            movable = non_representatives(cell.src_span.apex)
            for which in ("a", "b"):
                for x in rng.sample(movable, min(2, len(movable))):
                    bad = mutated_cell(cell, which, x, rng)
                    if bad is None:
                        continue
                    want = outcome(all_morphism_cell_naturality, bad)
                    assert want is gspan.SpanMorphismError
                    with pytest.raises(want) as err:
                        bad.validate()
                    rejected += 1
                    by_walk += "not natural" in str(err.value)
    # the object laws pass for some mutations: only the walk rejects those
    assert rejected > 150 and by_walk > 80


# ---------------------------------------------------------------------------
# 2-cell equality: the family against every morphism


def test_cells_equal_matches_the_oracle_on_cell_squares(squares):
    runs = [b.interchange for b in built_of(squares)]
    assert len(runs) == 40
    for run in runs:
        assert cells_equal(run.lhs, run.rhs)
        assert all_morphism_cells_equal(run.lhs, run.rhs)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_cells_equal_matches_the_oracle_on_drawn_squares(seed):
    rng = random.Random(seed)
    try:
        run = run_interchange(rnd.random_two_cell_square(rng))
    except SizeGuardError:
        return
    assert run.holds and all_morphism_cells_equal(run.lhs, run.rhs)
    objects = run.lhs.src_span.apex.objects
    for which in ("a", "b") if objects else ():
        bad = mutated_cell(run.rhs, which, rng.choice(objects), rng)
        if bad is not None:
            assert cells_equal(run.lhs, bad) == all_morphism_cells_equal(
                run.lhs, bad
            )


def phi_changed_on_an_automorphism(cell):
    """cell with Phi sent elsewhere at one non-identity automorphism of a
    component representative of its source apex, or None if it has none."""
    M, N = cell.src_span.apex, cell.dst_span.apex
    autos = [
        m for r in M.component_reps() for m in M.hom(r, r) if m != M.identity_at(r)
    ]
    if not autos:
        return None
    m0 = autos[0]
    new = next(n for n in N.all_morphisms() if n != cell.phi.on_mor(m0))
    phi = GroupoidFunctor(
        M,
        N,
        cell.phi.on_obj,
        lambda m: new if m == m0 else cell.phi.on_mor(m),
        check=False,
    )
    return SpanMorphism(cell.src_span, cell.dst_span, phi, cell.a, cell.b,
                        check=False)


def on_a_copy_of_the_apex(cell):
    """cell with its source span moved onto a copy of its apex, a composite's
    view: same objects, legs and labels, another view object."""
    sp = cell.src_span
    copy = PullbackView(sp.apex.r1, sp.apex.l2)

    def moved_leg(leg):
        return GroupoidFunctor(copy, leg.target, leg.on_obj, leg.on_mor,
                               check=False)

    moved = GSpan(copy, moved_leg(sp.left), moved_leg(sp.right), sp.h, sp.v,
                  sp.eps, check=False)
    return SpanMorphism(moved, cell.dst_span, cell.phi, cell.a, cell.b,
                        check=False)


def test_cells_equal_rejects_cells_that_differ_at_one_place(squares):
    rng = random.Random(SEED + 5)
    kinds = Counter()
    for built in built_of(squares):
        lhs, rhs = built.interchange.lhs, built.interchange.rhs
        objects = lhs.src_span.apex.objects
        bad = {
            "phi": phi_changed_on_an_automorphism(rhs),
            "copy": on_a_copy_of_the_apex(rhs),
        }
        if objects:
            bad["a"] = mutated_cell(rhs, "a", rng.choice(objects), rng)
            bad["b"] = mutated_cell(rhs, "b", rng.choice(objects), rng)
        for kind, cell in bad.items():
            if cell is None:
                continue
            assert not cells_equal(lhs, cell)
            assert not all_morphism_cells_equal(lhs, cell)
            kinds[kind] += 1
    assert kinds["copy"] == 40
    assert min(kinds.values()) > 20


def test_compared_phis_are_functors(squares):
    """cells_equal's family argument needs both Phis to be functors; here
    that is checked for every square (GroupoidFunctor checks composition on
    generating pairs, which test_generating_pairs holds against every
    pair)."""
    built = built_of(squares)
    assert len(built) == 40
    for b in built:
        run = b.interchange
        for cell in [run.rhs] + run.horizontals:
            GroupoidFunctor(cell.src_span.apex, cell.dst_span.apex,
                            cell.phi.on_obj, cell.phi.on_mor)


# ---------------------------------------------------------------------------
# the materialized pullback view against the per-pair loop


def test_table_pullback_matches_the_per_pair_loop_on_the_corpus(corpus):
    tables = 0
    for sp1, sp2, composed in corpus:
        apex = materialize(composed.pullback.groupoid)
        want = triple_loop_table_pullback(sp1.right, sp2.left)
        assert apex.object_labels == want.object_labels
        assert apex.morphism_labels == want.morphism_labels
        assert apex.source == want.source and apex.target == want.target
        tables += 1
    assert tables == 50


def test_square_24_passes_interchange_at_the_default_guard(squares, monkeypatch):
    # square 24's top composite has 54 objects and 26 244 morphisms: the
    # table pullback was refused by the guard, the view enumerates only its
    # objects and its 88 forest handles, and only materializing it is guarded
    monkeypatch.delenv("GSPANS_SIZE_GUARD", raising=False)
    square, built = squares[24]
    assert interchange_check(*square)
    top = built.interchange.lhs.src_span.apex
    assert isinstance(top, PullbackView)
    assert (len(top.objects), len(list(top.morphism_sample()))) == (54, 88)
    with pytest.raises(SizeGuardError) as err:
        materialize(top)
    assert (err.value.requested, err.value.bound) == (20001, 20000)


# ---------------------------------------------------------------------------
# extensional equality of the middle legs


def twist(v, m0):
    """H = V + delta for a functor delta: T -> BG nonzero at m0, or None:
    for m0: x -> y with x != y, delta = gamma(target) - gamma(source) with
    gamma a nonzero element at y only; for a loop, delta = V (H = 2V),
    nonzero at m0 iff V is."""
    T, G = v.source, v.group
    x, y = T.source_of(m0), T.target_of(m0)
    if x != y:
        g = next(g for g in G.elements() if g != G.identity)

        def delta(m):
            return G.sub(g if T.target_of(m) == y else G.identity,
                         g if T.source_of(m) == y else G.identity)
    elif v.value(m0) != G.identity:
        delta = v.value
    else:
        return None
    return GroupValuedFunctor(
        T, G, {m: G.add(v.value(m), delta(m)) for m in T.morphisms}, check=False
    )


def test_middle_legs_differing_at_one_morphism_are_not_composable(corpus):
    twisted = 0
    for k, (sp1, sp2, _) in enumerate(corpus):
        T, v1 = sp1.target, sp1.v
        if len(v1.group.elements()) < 2:
            continue
        for m0 in T.morphisms:
            if m0 == T.identity_at(T.source_of(m0)):
                continue
            h2 = twist(v1, m0)
            if h2 is None:
                continue
            assert h2.value(m0) != v1.value(m0)
            if k < 3:
                h2.validate()  # a functor, so it differs on the family too
            assert not all(
                h2.value(m) == v1.value(m) for m in T.all_morphisms()
            )
            bad = GSpan(sp2.apex, sp2.left, sp2.right, h2, sp2.v, sp2.eps,
                        check=False)
            with pytest.raises(ComposabilityError, match="middle legs differ"):
                compose_spans(sp1, bad)
            twisted += 1
    assert twisted > 200
