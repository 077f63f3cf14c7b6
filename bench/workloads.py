"""The four benchmark workloads: seeded inputs, one op each, exact checks.

A workload is a sequence of *rounds*.  Each round is a list of ops; an op is
a pair (make_input, run) where make_input() builds the op's inputs from the
seeded generator (untimed, counted as set-up) and run(inputs) is the user work
that is timed.  check(inputs, result) verifies the result exactly and returns
None or a mismatch message; it runs untimed, after the op.

Every op builds fresh objects, so no op sees a cache warmed by an earlier one.
gspans is imported lazily (inside functions) so that the caller can time the
import as part of set-up.
"""

import random
import sys
from pathlib import Path

# The c07 sweep enumerates abelian groups with the acceptance tests' own oracle,
# so the benchmark and the tests cover the same groups.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import abelian_group_order_lists  # noqa: E402

WORKLOADS = ("stirling", "theorem", "cells", "closed_forms")

# Sizes of the seeded acceptance corpus (criteria 3 and 4).
THEOREM_SIZES = dict(max_group_order=6, max_objects=8, max_apex_objects=8)
STIRLING_N = 4

# theorem and cells repeat one fixed list of inputs, drawn once from this seed,
# so every run measures the same work; their heavy-tailed op costs would
# otherwise make a run's figures depend on which inputs its seed drew.
FIXED_LIST_SEED = 0
THEOREM_PAIRS = 60
CELLS_SQUARES = 40


class Op:
    __slots__ = ("kind", "make_input", "run", "check")

    def __init__(self, kind, make_input, run, check):
        self.kind = kind
        self.make_input = make_input
        self.run = run
        self.check = check


def rounds(name, seed):
    """Infinite iterator of rounds (lists of Op) for a workload."""
    if name not in WORKLOADS:
        raise ValueError("unknown workload %r" % (name,))
    return globals()["_rounds_" + name](seed)


def setup_inputs(name):
    """How many ops' inputs one set-up measurement generates, from the start
    of the first round; None means the whole first round."""
    return {"stirling": 0, "theorem": 10, "cells": None, "closed_forms": None}[name]


def _fixed_rounds(kind, size, draw, run, check):
    """Rounds that each repeat the same `size` inputs: input i is draw(rng)
    with rng seeded from the i-th draw of FIXED_LIST_SEED, regenerated for
    every op so that no op reuses an object."""
    base = random.Random(FIXED_LIST_SEED)
    subs = [base.getrandbits(64) for _ in range(size)]
    ops = [Op(kind, lambda sub=sub: draw(random.Random(sub)), run, check)
           for sub in subs]
    while True:
        yield ops


# ---------------------------------------------------------------------------
# stirling: acceptance criterion c01's pipeline at N = 4 (seed unused)


def stirling_numbers(n_max):
    """Unsigned Stirling numbers of both kinds by their recurrences."""
    s1 = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    s2 = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    s1[0][0] = s2[0][0] = 1
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            s1[n][k] = s1[n - 1][k - 1] + (n - 1) * s1[n - 1][k]
            s2[n][k] = s2[n - 1][k - 1] + k * s2[n - 1][k]
    return s1, s2


def _stirling_run(_inputs):
    from gspans.algebra import AbelianGroup, Character
    from gspans import examples, gspan

    first, second = examples.stirling_pair(STIRLING_N)
    a = gspan.span_matrix(first)
    b = gspan.span_matrix(second)
    ab = gspan.matrix_multiply(a, b)
    sign = Character(AbelianGroup([2]), (1,))
    signed = gspan.character_matrix(a, sign) * gspan.character_matrix(b, sign)
    sign_is_identity = signed.is_identity()
    composed = gspan.span_matrix(gspan.compose_spans(first, second))
    return a, b, ab, sign_is_identity, composed


def _stirling_check(_inputs, result):
    from gspans.algebra import AbelianGroup, GroupRingElement

    a, b, ab, sign_is_identity, composed = result
    G = AbelianGroup([2])
    s1, s2 = stirling_numbers(STIRLING_N)
    size = STIRLING_N + 1
    want_a = [
        [GroupRingElement(G, {((n - k) % 2,): s1[n][k]}) for k in range(size)]
        for n in range(size)
    ]
    want_b = [
        [GroupRingElement(G, {(0,): s2[k][m]}) for m in range(size)]
        for k in range(size)
    ]
    want_ab = []
    for n in range(size):
        row = []
        for m in range(size):
            terms = {}
            for k in range(size):
                g = ((n - k) % 2,)
                terms[g] = terms.get(g, 0) + s1[n][k] * s2[k][m]
            row.append(GroupRingElement(G, terms))
        want_ab.append(row)
    if a.entries != want_a:
        return "first-kind matrix differs from the S1 recurrence"
    if b.entries != want_b:
        return "second-kind matrix differs from the S2 recurrence"
    if ab.entries != want_ab:
        return "matrix_multiply(A, B) differs from the recurrence product"
    if not sign_is_identity:
        return "signed S1 x S2 is not the identity"
    if composed.entries != want_ab:
        return "span_matrix(composed) differs from A.B"
    return None


def _rounds_stirling(_seed):
    while True:
        yield [Op("stirling", lambda: None, _stirling_run, _stirling_check)]


# ---------------------------------------------------------------------------
# theorem: main theorem + per-label lemma on one seeded composable pair


def _theorem_run(pair):
    from gspans import gspan

    sp1, sp2 = pair
    composed = gspan.compose_spans(sp1, sp2)
    lhs = gspan.span_matrix(composed)
    rhs = gspan.matrix_multiply(gspan.span_matrix(sp1), gspan.span_matrix(sp2))
    main_holds = lhs == rhs
    lemma = [
        gspan.labeled_pullback_identity(sp1, sp2, c1, c2, composed=composed)
        for c1 in sp1.source.component_reps()
        for c2 in sp2.target.component_reps()
    ]
    lemma_holds = all(l == r for l, r in lemma)
    return main_holds, lemma_holds


def _theorem_check(_pair, result):
    main_holds, lemma_holds = result
    if not main_holds:
        return "span_matrix(composed) != span_matrix(sp1) . span_matrix(sp2)"
    if not lemma_holds:
        return "labeled_pullback_identity sides differ"
    return None


def _draw_pair(rng):
    from gspans import random_spans

    return random_spans.random_composable_pair(rng, **THEOREM_SIZES)


def _rounds_theorem(_seed):
    return _fixed_rounds("theorem", THEOREM_PAIRS, _draw_pair, _theorem_run,
                         _theorem_check)


# ---------------------------------------------------------------------------
# cells: interchange law on one seeded 2-cell square


def _cells_run(square):
    from gspans import gspan

    return gspan.interchange_check(*square)


def _cells_check(_square, result):
    return None if result is True else "interchange_check returned %r" % (result,)


def _draw_square(rng):
    from gspans import random_spans

    return random_spans.random_two_cell_square(rng)


def _rounds_cells(_seed):
    return _fixed_rounds("cells", CELLS_SQUARES, _draw_square, _cells_run,
                         _cells_check)


# ---------------------------------------------------------------------------
# closed_forms: acceptance criterion c07, one round = one full sweep


def _subset_params():
    """(orders, subset, S, T) for every abelian G of order <= 8, every pair of
    subgroups S, T, and the (S + T)-coset of the identity as invariant subset."""
    from gspans.algebra import AbelianGroup

    out = []
    for orders in abelian_group_order_lists(8):
        G = AbelianGroup(orders)
        subs = [sorted(s) for s in G.all_subgroups()]
        for s_els in subs:
            for t_els in subs:
                st = G.subgroup_closure(set(s_els) | set(t_els))
                subset = sorted(st)
                out.append((orders, subset, s_els, t_els))
    return out


def _coset_params():
    """(orders, H1, K1, K2) for every H1 <= K1 cap K2 over the c07 groups."""
    from gspans.algebra import AbelianGroup

    out = []
    for orders in ([4], [6], [8], [2, 2], [2, 4]):
        G = AbelianGroup(orders)
        subs = [sorted(s) for s in G.all_subgroups()]
        for k1 in subs:
            for k2 in subs:
                inter = set(k1) & set(k2)
                for h1 in subs:
                    if set(h1) <= inter:
                        out.append((orders, h1, k1, k2))
    return out


def _subset_run(params):
    from gspans import examples, gspan
    from gspans.algebra import AbelianGroup

    orders, subset, s_els, t_els = params
    sp = examples.subset_span(AbelianGroup(orders), subset, s_els, t_els)
    return gspan.span_matrix(sp)


def _subset_check(params, m):
    from gspans import examples
    from gspans.algebra import AbelianGroup

    orders, subset, _, t_els = params
    want = examples.subset_span_closed_form(AbelianGroup(orders), subset, t_els)
    ok = len(m.entries) == 1 and m.entries[0] == [want]
    return None if ok else "subset span %r: matrix != closed form" % (params,)


def _coset_run(params):
    from gspans import examples, gspan
    from gspans.algebra import AbelianGroup

    orders, h1, k1, k2 = params
    return gspan.span_matrix(examples.coset_span(AbelianGroup(orders), h1, k1, k2))


def _coset_check(params, m):
    from gspans import examples
    from gspans.algebra import AbelianGroup

    orders, h1, k1, k2 = params
    want = examples.coset_span_closed_form(AbelianGroup(orders), h1, k1, k2)
    ok = len(m.entries) == 1 and m.entries[0] == [want]
    return None if ok else "coset span %r: matrix != closed form" % (params,)


def _universal_run(hv):
    from gspans import examples, gspan

    return gspan.span_matrix(examples.universal_span(*hv))


def _universal_check(hv, m):
    from gspans import examples

    ok = m == examples.universal_matrix_closed_form(*hv)
    return None if ok else "universal span matrix != closed form"


def _push_run(forward):
    def run(data):
        from gspans import gspan

        build = gspan.pushforward_span if forward else gspan.pullback_span
        return gspan.span_matrix(build(*data))

    return run


def _push_check(forward):
    def check(data, m):
        from gspans import gspan

        want = gspan.pushforward_matrix_closed_form(*data, forward=forward)
        ok = m == want
        return None if ok else "%s span matrix != closed form" % (
            "pushforward" if forward else "pullback"
        )

    return check


def _rounds_closed_forms(seed):
    from gspans import random_spans as rnd

    rng = random.Random(seed)
    subset_params = _subset_params()
    coset_params = _coset_params()

    def universal_input():
        G = rnd.random_group(rng, 8)
        s = rnd.random_groupoid(rng, 5)
        t = rnd.random_groupoid(rng, 5)
        return rnd.random_bg_functor(rng, s, G), rnd.random_bg_functor(rng, t, G)

    def push_inputs():
        # pushforward and pullback ops of one seeded datum: two draws from the
        # same sub-seed give equal data in distinct objects
        sub = rng.getrandbits(64)

        def make():
            return rnd.random_pushforward_data(random.Random(sub), max_group_order=8)

        return make

    def const(value):
        return lambda: value

    while True:
        ops = [
            Op("universal", universal_input, _universal_run, _universal_check)
            for _ in range(8)
        ]
        ops += [Op("subset", const(p), _subset_run, _subset_check) for p in subset_params]
        for _ in range(12):
            make = push_inputs()
            ops.append(Op("pushforward", make, _push_run(True), _push_check(True)))
            ops.append(Op("pullback", make, _push_run(False), _push_check(False)))
        ops += [Op("coset", const(p), _coset_run, _coset_check) for p in coset_params]
        yield ops

