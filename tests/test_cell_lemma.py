"""The composition lemma for 2-cells against the oracles, on the cells
workload's squares: vertical_compose and horizontal_compose walk no
composite, only a factor made with check=False.  Under seeded one-point
mutations of A, B, Phi or eps in one such factor, a composite is refused
exactly when that factor fails all_morphism_cell_naturality, and a composite
that is accepted passes SpanMorphism.validate and the oracle; the same holds
for the factors as the square made them.  interchange_check walks exactly
its unchecked factors, each once, and no composite cell."""

import random
from collections import Counter

import pytest

from gspans import random_spans as rnd
from gspans.gspan import (
    GSpan,
    GSpanError,
    SpanMorphism,
    SpanMorphismError,
    horizontal_compose,
    interchange_check,
    vertical_compose,
)
from gspans.constructions import GroupoidFunctor
from oracles import all_morphism_cell_naturality

KINDS = ("a", "b", "phi", "eps")


def cells_squares(count):
    """The first count squares of the cells workload's fixed list: square i
    is drawn from the i-th 64-bit draw of random.Random(0)."""
    base = random.Random(0)
    subs = [base.getrandbits(64) for _ in range(40)]
    return [rnd.random_two_cell_square(random.Random(sub)) for sub in subs[:count]]


@pytest.fixture(scope="module")
def squares():
    return cells_squares(40)


def unchecked(cell, src_span=None, phi=None, a=None, b=None):
    """A copy of cell made with check=False, with the given parts replaced."""
    return SpanMorphism(
        src_span if src_span is not None else cell.src_span,
        cell.dst_span,
        phi if phi is not None else cell.phi,
        a if a is not None else cell.a,
        b if b is not None else cell.b,
        check=False,
    )


def moved_at(fn, point, value):
    return lambda o: value if o == point else fn(o)


def mutated(cell, kind, rng):
    """cell, made with check=False, changed at one place, or None if there
    is nothing to change there: A or B at an object to another morphism with
    the same endpoints if there is one, else to any other; Phi at a morphism
    of the source apex's generating family to another morphism with the same
    endpoints; or the source span's label at an object, by a nonzero shift,
    on a span made with check=False."""
    sp = cell.src_span
    objects = list(sp.apex.objects)
    if kind in ("a", "b"):
        foot = sp.source if kind == "a" else sp.target
        comp = getattr(cell, kind)
        x = rng.choice(objects)
        old = comp(x)
        same = foot.hom(foot.source_of(old), foot.target_of(old))
        others = [m for m in same if m != old] or [
            m for m in foot.all_morphisms() if m != old
        ]
        if not others:
            return None
        return unchecked(cell, **{kind: moved_at(comp, x, rng.choice(others))})
    if kind == "phi":
        M, N = sp.apex, cell.dst_span.apex
        moves = []
        for m in M.morphism_sample():
            pm = cell.phi.on_mor(m)
            moves += [
                (m, n) for n in N.hom(N.source_of(pm), N.target_of(pm)) if n != pm
            ]
        if not moves:
            return None
        m, n = rng.choice(moves)
        phi = GroupoidFunctor(
            M, N, cell.phi.on_obj, moved_at(cell.phi.on_mor, m, n), check=False
        )
        return unchecked(cell, phi=phi)
    G = sp.group
    shifts = [g for g in G.elements() if g != G.identity]
    if not shifts or not objects:
        return None
    x, g = rng.choice(objects), rng.choice(shifts)
    eps = moved_at(sp.eps, x, G.add(sp.eps(x), g))
    moved = GSpan(sp.apex, sp.left, sp.right, sp.h, sp.v, eps, check=False)
    return unchecked(cell, src_span=moved)


def oracle_fails(cell):
    try:
        all_morphism_cell_naturality(cell)
    except SpanMorphismError:
        return True
    return False


def composites_with(square, position, factor):
    """The vertical and the horizontal composite that use the square's
    factor at position (0: u1, 1: w1, 2: u2, 3: w2) replaced by factor, as
    thunks.  A factor that starts from another span than the square's own
    has no vertical composite when it comes second (w1, w2)."""
    cells = list(square)
    cells[position] = factor
    u1, w1, u2, w2 = cells
    second = position in (1, 3)
    vertical = (w1, u1) if position < 2 else (w2, u2)
    horizontal = (u1, u2) if position in (0, 2) else (w1, w2)
    out = {"horizontal": lambda: horizontal_compose(*horizontal)}
    if not second or factor.src_span is square[position].src_span:
        out["vertical"] = lambda: vertical_compose(*vertical)
    return out


def assert_composite_agrees(build, factor):
    """build() is refused exactly when factor fails the oracle; what it
    returns is checked and passes validate and the oracle.  A factor whose
    own source span is not natural may be refused by compose_spans' walk of
    that span, as GSpanError.  Returns whether build() was accepted."""
    try:
        composite = build()
    except (SpanMorphismError, GSpanError):
        accepted = False
    else:
        accepted = True
        assert composite.checked
        composite.validate()
        all_morphism_cell_naturality(composite)
    assert accepted == (not oracle_fails(factor))
    return accepted


def test_composites_of_the_squares_pass_both_walks(squares):
    for square in squares:
        for position, cell in enumerate(square):
            assert cell.checked and not oracle_fails(cell)
            for build in composites_with(square, position, cell).values():
                assert assert_composite_agrees(build, cell)


def test_composites_are_refused_exactly_when_a_mutated_factor_fails(squares):
    rng = random.Random(20260810)
    verdicts = Counter()
    for square in squares:
        for position, cell in enumerate(square):
            for kind in KINDS:
                bad = mutated(cell, kind, rng)
                if bad is None:
                    continue
                for how, build in composites_with(square, position, bad).items():
                    accepted = assert_composite_agrees(build, bad)
                    verdicts[kind, how, accepted] += 1
    for kind in KINDS:
        for how in ("vertical", "horizontal"):
            assert verdicts[kind, how, False] > 10, (kind, how)
    # the object laws and the naturality walk let some mutations through
    assert sum(n for (_, _, ok), n in verdicts.items() if ok) > 20


def test_interchange_check_walks_only_its_unchecked_factors(monkeypatch):
    # squares made before the counter: their cells are checked where made
    squares = cells_squares(8)
    walked = []
    walk = SpanMorphism.validate
    monkeypatch.setattr(
        SpanMorphism, "validate", lambda cell: walked.append(cell) or walk(cell)
    )
    for square in squares:
        assert interchange_check(*square)
    assert walked == []
    # every subset of the four factors made with check=False, on each square
    for k, square in enumerate(squares):
        for subset in range(16):
            positions = [i for i in range(4) if subset >> i & 1]
            cells = [
                unchecked(c) if i in positions else c for i, c in enumerate(square)
            ]
            del walked[:]
            assert interchange_check(*cells)
            assert Counter(map(id, walked)) == Counter(
                id(cells[i]) for i in positions
            ), (k, positions)
            assert all(c.checked for c in cells)
