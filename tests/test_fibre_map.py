"""Differential tests: fibre_map_preserves_labels, which walks the objects of
the source fibre c\\M1/d and tests each image's membership in c\\M2/d, against
the map read off both fibre tables (oracles.table_fibre_map_preserves_labels),
at every pair of objects (c, d), on well-formed 2-cells and on cells made
with check=False that miss the target fibre or move a label; and the engine
paths that must run without building a two-sided fibre table."""

import importlib.util
import os
import random
import sys

import pytest

from gspans import constructions
from gspans import random_spans as rnd
from gspans.constructions import GroupoidFunctor
from gspans.examples import stirling_pair, universal_cell
from gspans.gspan import (
    SpanMorphism,
    compose_spans,
    fibre_map_preserves_labels,
    horizontal_compose,
    identity_cell,
    identity_composite_cells,
    interchange_check,
    labeled_fibre,
    labeled_pullback_identity,
    span_matrix,
    vertical_compose,
)
from oracles import table_fibre_map_preserves_labels
from test_span_kernel import SEED, broken_cell

WORKLOADS = os.path.join(os.path.dirname(__file__), "..", "bench", "workloads.py")


def outcome(f, *args):
    """f's value, or the type and text of what it raised."""
    try:
        return f(*args)
    except Exception as e:  # a malformed cell must fail the same way in both
        return type(e), str(e)


def entries(cell):
    sp = cell.src_span
    return [(c, d) for c in sp.source.objects for d in sp.target.objects]


def assert_matches_table(cell):
    """The walk equals the table oracle at every (c, d); returns the values."""
    got = []
    for c, d in entries(cell):
        want = outcome(table_fibre_map_preserves_labels, cell, c, d)
        assert outcome(fibre_map_preserves_labels, cell, c, d) == want, (c, d)
        got.append(want)
    return got


def square_cells(u1, w1, u2, w2):
    """The four cells of an interchange square and the vertical and
    horizontal composites interchange_check builds from them."""
    top = compose_spans(u1.src_span, u2.src_span)
    mid = compose_spans(u1.dst_span, u2.dst_span)
    bot = compose_spans(w1.dst_span, w2.dst_span)
    v1, v2 = vertical_compose(w1, u1), vertical_compose(w2, u2)
    hu = horizontal_compose(u1, u2, top, mid)
    hw = horizontal_compose(w1, w2, mid, bot)
    return [
        u1, w1, u2, w2, v1, v2, hu, hw,
        horizontal_compose(v1, v2, top, bot),
        vertical_compose(hw, hu),
    ]


def _first_other(view, y, same):
    """The first morphism out of y that is a non-identity automorphism of y
    (same) or ends at another object (not same), in view's order; None if
    there is none."""
    for z in view.objects:
        if (z == y) != same:
            continue
        for f in view.hom(y, z):
            if f != view.identity_at(y):
                return f
    return None


def broken_variants(cell):
    """Cells made with check=False from cell: Phi off the target apex, A
    ending at another object of S or B at another object of T (all miss
    the fibre), and A or B
    composed with an automorphism of its end (the image stays in the fibre
    and its label moves by H or V of it, unless that is 0)."""
    sp1, sp2 = cell.src_span, cell.dst_span
    S, T = sp1.source, sp1.target
    phi, a, b = cell.phi, cell.a, cell.b

    def then(view, pick, leg, nat):
        def component(x):
            f = pick(view, leg.on_obj(phi.on_obj(x)))
            return nat(x) if f is None else view.compose_m(f, nat(x))

        return component

    def make(phi_, a_, b_):
        return SpanMorphism(sp1, sp2, phi_, a_, b_, check=False)

    def off(view, y):
        return _first_other(view, y, False)

    def twist(view, y):
        return _first_other(view, y, True)

    absent = GroupoidFunctor(
        sp1.apex, sp2.apex, lambda x: ("absent", x), phi.on_mor, check=False
    )
    return {
        "miss": [
            make(absent, a, b),
            make(phi, then(S, off, sp2.left, a), b),
            make(phi, a, then(T, off, sp2.right, b)),
        ],
        "label": [
            make(phi, then(S, twist, sp2.left, a), b),
            make(phi, a, then(T, twist, sp2.right, b)),
        ],
    }


def assert_family(cells):
    """Every cell of a family and its broken variants agree with the table;
    the cells map labels faithfully and the variants of the family give
    False both by missing the fibre and by moving a label."""
    falses = {"miss": 0, "label": 0}
    for cell in cells:
        assert all(v is True for v in assert_matches_table(cell))
        for kind, variants in broken_variants(cell).items():
            for bad in variants:
                falses[kind] += assert_matches_table(bad).count(False)
    assert falses["miss"] > 0 and falses["label"] > 0, falses


@pytest.fixture
def shared_fibre_tables(monkeypatch):
    """The oracle's fibre tables, built once per (legs, c, d) within a test:
    a cell, its broken variants and the cells of one square share spans.
    The legs are kept with their table, so no id is reused."""
    build, tables = constructions.two_sided_fibre, {}

    def shared(l, r, c, d):
        key = (id(l), id(r), c, d)
        if key not in tables:
            tables[key] = (l, r, build(l, r, c, d))
        return tables[key][2]

    monkeypatch.setattr(constructions, "two_sided_fibre", shared)


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


def workload_squares():
    """The cells workload's 40 squares, as bench/workloads.py draws them."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [op.make_input() for op in next(workloads._rounds_cells(0))]


@pytest.mark.usefixtures("shared_fibre_tables")
def test_walk_matches_table_on_c10_squares():
    rng = random.Random(SEED + 10)
    squares = [rnd.random_two_cell_square(rng) for _ in range(20)]
    assert_family([cell for sq in squares for cell in square_cells(*sq)])


@pytest.mark.usefixtures("shared_fibre_tables")
def test_walk_matches_table_on_the_cells_workload_squares():
    squares = workload_squares()
    assert len(squares) == 40
    assert_family([cell for sq in squares for cell in square_cells(*sq)])


@pytest.mark.usefixtures("shared_fibre_tables")
def test_walk_matches_table_on_identity_composite_cells(corpus):
    cells = []
    for sp1, sp2, _ in corpus:
        for sp in (sp1, sp2):
            q, p2, _ = identity_composite_cells(sp)
            cells += [q, p2]
    assert_family(cells)


@pytest.mark.usefixtures("shared_fibre_tables")
def test_walk_matches_table_on_universal_cells(corpus):
    assert_family([universal_cell(sp) for spans in corpus for sp in spans])


def test_walk_matches_table_on_broken_cell():
    assert set(assert_matches_table(broken_cell())) == {False}


def stirling_composite_cells(n, composite_p2=True):
    """Cells over the Stirling composite: the horizontal composite of the
    factors' identity cells, and the p2 of identity_composite_cells of each
    factor and, if composite_p2, of the composite."""
    first, second = stirling_pair(n)
    spans = [first, second]
    if composite_p2:
        spans.append(compose_spans(first, second))
    cells = [horizontal_compose(identity_cell(first), identity_cell(second))]
    return cells + [identity_composite_cells(sp)[1] for sp in spans]


@pytest.mark.usefixtures("shared_fibre_tables")
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_walk_matches_table_on_stirling_composite_cells(n):
    for cell in stirling_composite_cells(n):
        assert all(v is True for v in assert_matches_table(cell))


@pytest.mark.parametrize("n", [4, 5])
def test_walk_preserves_labels_on_stirling_composite_cells(n):
    # past N = 3 the table of the composite walks its 925 832 morphisms
    # (N = 4) once per entry, so the walk runs alone here; at N = 5 the p2
    # of the composite's own identity_composite_cells is left out, because
    # validating that cell searches the 124 278 objects of its source
    # apex, about 12 s
    cells = stirling_composite_cells(n, composite_p2=n < 5)
    for cell in cells:
        for c, d in entries(cell):
            assert fibre_map_preserves_labels(cell, c, d) is True, (c, d)
    assert len(entries(cells[0])) == (n + 1) ** 2


def test_engine_paths_build_no_two_sided_fibre(monkeypatch, corpus):
    # the two-sided fibre table is the tests' oracle and the CLI's fibre
    # documents; span matrices, fibres, the lemma, the interchange law and
    # the 2-cell fibre map read none
    def refuse(*args):
        raise AssertionError("two_sided_fibre built")

    build = constructions.two_sided_fibre
    monkeypatch.setattr(constructions, "two_sided_fibre", refuse)
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "gspans"]
    for module in modules:  # and wherever a module imported it by name
        if vars(module).get("two_sided_fibre") is build:
            monkeypatch.setattr(module, "two_sided_fibre", refuse)
    pairs = [(sp1, sp2) for sp1, sp2, _ in corpus]
    pairs += [stirling_pair(n) for n in range(5)]
    for sp1, sp2 in pairs:
        composed = compose_spans(sp1, sp2)
        for sp in (sp1, sp2, composed):
            span_matrix(sp)
            for c in sp.source.component_reps():
                for d in sp.target.component_reps():
                    labeled_fibre(sp, c, d)
        for c1 in sp1.source.component_reps():
            for c2 in sp2.target.component_reps():
                lhs, rhs = labeled_pullback_identity(
                    sp1, sp2, c1, c2, composed=composed
                )
                assert lhs == rhs
        _, u1, _ = identity_composite_cells(sp1)
        _, u2, _ = identity_composite_cells(sp2)
        w1, w2 = universal_cell(sp1), universal_cell(sp2)
        assert interchange_check(u1, w1, u2, w2)
        for cell in (u1, w1, u2, w2):
            for c, d in entries(cell):
                assert fibre_map_preserves_labels(cell, c, d)
