"""Differential tests: span_matrix (one pass over pi0 of the apex) against
the per-entry fibre construction, with exact equality; plus the typed errors
of the matrix and fibre layer and the action groupoid's closure check, which
must also fire under python -O."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gspans
from gspans import random_spans as rnd
from gspans.algebra import AbelianGroup, CyclotomicNumber, GroupRingElement
from gspans.constructions import (
    GroupoidFunctor,
    GroupValuedFunctor,
    delooping_bg,
    discrete_groupoid,
    identity_functor,
)
from gspans.examples import (
    coset_span,
    stirling_pair,
    subset_span,
    universal_span,
)
from gspans.gspan import (
    CharacterMatrix,
    GSpan,
    GSpanError,
    SpanMatrix,
    SpanMorphism,
    compose_spans,
    fibre_map_preserves_labels,
    labeled_fibre,
    labeled_pullback_identity,
    pullback_span,
    pushforward_span,
    span_matrix,
)
from gspans.groupoid import ActionGroupoid, SymmetricGroup
from oracles import (
    abelian_group_order_lists,
    fibre_chi_by_label,
    fibre_span_matrix,
)

SEED = 20260810


def assert_kernel_matches_fibres(sp):
    assert span_matrix(sp) == fibre_span_matrix(sp)


def assert_lemma_lhs_matches_fibres(sp1, sp2, composed):
    for c1 in sp1.source.component_reps():
        for c2 in sp2.target.component_reps():
            lhs, _ = labeled_pullback_identity(sp1, sp2, c1, c2, composed=composed)
            assert lhs == fibre_chi_by_label(composed, c1, c2)


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


def test_kernel_matches_fibres_on_random_corpus(corpus):
    for sp1, sp2, composed in corpus:
        for sp in (sp1, sp2, composed):
            assert_kernel_matches_fibres(sp)


def test_lemma_lhs_matches_fibres_on_random_corpus(corpus):
    for sp1, sp2, composed in corpus:
        assert_lemma_lhs_matches_fibres(sp1, sp2, composed)


def test_lemma_lhs_is_one_pass_moved_to_any_objects(corpus):
    # the left-hand side at every pair of objects, representatives or not,
    # is read off the one pass span_matrix made over the composite's pi0,
    # the stream of its representatives
    for sp1, sp2, _ in corpus[:10]:
        composed = compose_spans(sp1, sp2)
        reps = composed.apex.representatives
        passes = []
        composed.apex.representatives = lambda: passes.append(1) or reps()
        span_matrix(composed)
        for c1 in sp1.source.objects:
            for c2 in sp2.target.objects:
                lhs, rhs = labeled_pullback_identity(
                    sp1, sp2, c1, c2, composed=composed
                )
                assert lhs == rhs == fibre_chi_by_label(composed, c1, c2)
        assert passes == [1]


def c07_sweep_spans():
    """The subset and coset spans of acceptance criterion 7's sweeps: a
    subset span for every pair of subgroups S, T of every abelian G of order
    <= 8, on S + T (the coset of S + T through 0), and a coset span
    H1\\G between K1\\G and K2\\G for every H1 <= K1 cap K2 of Z4, Z6,
    Z8, Z2^2 and Z2 x Z4."""
    out = []
    for orders in abelian_group_order_lists(8):
        G = AbelianGroup(orders)
        subs = G.all_subgroups()
        for s_els in subs:
            for t_els in subs:
                st_ = G.subgroup_closure(set(s_els) | set(t_els))
                out.append(subset_span(G, sorted(st_), s_els, t_els))
    for orders in [[4], [6], [8], [2, 2], [2, 4]]:
        G = AbelianGroup(orders)
        subs = G.all_subgroups()
        for k1 in subs:
            for k2 in subs:
                inter = set(k1) & set(k2)
                for h1 in subs:
                    if set(h1) <= inter:
                        out.append(coset_span(G, h1, k1, k2))
    return out


def test_kernel_matches_fibres_on_subset_and_coset_sweeps():
    # the subset and coset sweeps of acceptance criterion 7
    for sp in c07_sweep_spans():
        assert_kernel_matches_fibres(sp)


def test_kernel_matches_fibres_on_universal_push_pull_spans():
    rng = random.Random(SEED + 7)
    for _ in range(8):
        G = rnd.random_group(rng, 8)
        s = rnd.random_groupoid(rng, 5)
        t = rnd.random_groupoid(rng, 5)
        h = rnd.random_bg_functor(rng, s, G)
        v = rnd.random_bg_functor(rng, t, G)
        assert_kernel_matches_fibres(universal_span(h, v))
    for _ in range(12):
        phi, h, v, eps = rnd.random_pushforward_data(rng, max_group_order=8)
        assert_kernel_matches_fibres(pushforward_span(phi, h, v, eps))
        assert_kernel_matches_fibres(pullback_span(phi, h, v, eps))


def test_kernel_matches_fibres_on_stirling():
    first, second = stirling_pair(3)
    composed = compose_spans(first, second)
    for sp in (first, second, composed):
        assert_kernel_matches_fibres(sp)
    assert_lemma_lhs_matches_fibres(first, second, composed)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_kernel_matches_fibres_on_random_seeds(seed):
    rng = random.Random(seed)
    sp1, sp2 = rnd.random_composable_pair(rng, max_objects=5, max_apex_objects=5)
    composed = compose_spans(sp1, sp2)
    for sp in (sp1, sp2, composed):
        assert_kernel_matches_fibres(sp)
    assert_lemma_lhs_matches_fibres(sp1, sp2, composed)


def test_lemma_on_coset_spans_whose_orbits_nobody_has_asked_for():
    # fresh coset groupoids as feet: the lemma's left-hand side is the first
    # thing to ask for their components; c1 and c2 are not representatives
    def pair():
        G = AbelianGroup([6])
        sub = [(0,), (3,)]
        sp1 = coset_span(G, [(0,)], sub, G.elements())
        sp2_raw = coset_span(G, [(0,)], G.elements(), sub)
        # the same left leg into sp1's copy of the middle foot, where H lives
        left = GroupoidFunctor(
            sp2_raw.apex, sp1.target, sp2_raw.left.on_obj, sp2_raw.left.on_mor
        )
        sp2 = GSpan(
            sp2_raw.apex, left, sp2_raw.right, sp1.v, sp2_raw.v, sp2_raw.eps
        )
        return sp1, sp2

    sp1, sp2 = pair()
    c1, c2 = sp1.source.objects[-1], sp2.target.objects[-1]
    lhs, rhs = labeled_pullback_identity(sp1, sp2, c1, c2)
    assert lhs == rhs
    sp1, sp2 = pair()
    assert lhs == fibre_chi_by_label(compose_spans(sp1, sp2), c1, c2)


def test_validate_walks_the_whole_lazy_generating_family():
    # action-groupoid apexes hand GSpan.validate their generating family
    # lazily; a label that is wrong only at the last carrier point is caught
    G = AbelianGroup([6])
    sp = coset_span(G, [(0,)], [(0,), (3,)], [(0,), (3,)])
    last = sp.apex.objects[-1]
    with pytest.raises(GSpanError, match="not natural"):
        GSpan(
            sp.apex, sp.left, sp.right, sp.h, sp.v,
            lambda a: (1,) if a == last else (0,),
        )


def test_several_components_over_one_entry_and_a_zero_row():
    # apex: three points over (0, *); source object 1 is hit by nothing
    Z4 = AbelianGroup([4])
    Z2 = AbelianGroup([2])
    apex = discrete_groupoid(3)
    s = discrete_groupoid(2)
    t = delooping_bg(Z2)
    star = t.objects[0]
    left = GroupoidFunctor(
        apex, s, lambda a: 0, lambda m: s.identity_at(0), check=False
    )
    right = GroupoidFunctor(
        apex, t, lambda a: star, lambda m: t.identity_at(star), check=False
    )
    h = GroupValuedFunctor.trivial(s, Z4)
    v = GroupValuedFunctor(t, Z4, lambda m: (2 * t.morphism_labels[m][0],))
    eps = {0: (0,), 1: (1,), 2: (1,)}
    sp = GSpan(apex, left, right, h, v, eps)
    m = span_matrix(sp)
    assert m == fibre_span_matrix(sp)
    half = Fraction(1, 2)
    assert m.entries[0][0] == GroupRingElement(
        Z4, {(0,): half, (2,): half, (1,): 1, (3,): 1}
    )
    assert m.entries[1][0].is_zero()


# ---------------------------------------------------------------------------
# typed errors of the matrix / fibre layer


def swap_groupoid():
    """Two isomorphic objects 0 and 1 (S_2 acting on {0, 1})."""
    return ActionGroupoid(SymmetricGroup(2), [0, 1], lambda x, g: g[x])


def broken_cell():
    """A 2-cell whose A component ends at the wrong object, built unchecked:
    the induced fibre map sends the fibre over 0 outside the fibre over 0."""
    Z2 = AbelianGroup([2])
    S = swap_groupoid()
    apex = discrete_groupoid(1)
    T = discrete_groupoid(1)
    left = GroupoidFunctor(apex, S, lambda a: 0, lambda m: S.identity_at(0))
    right = GroupoidFunctor(apex, T, lambda a: 0, lambda m: T.identity_at(0))
    sp = GSpan(
        apex,
        left,
        right,
        GroupValuedFunctor.trivial(S, Z2),
        GroupValuedFunctor.trivial(T, Z2),
        lambda a: Z2.identity,
    )
    swap = S.hom(0, 1)[0]
    return SpanMorphism(
        sp,
        sp,
        identity_functor(apex),
        lambda x: swap,
        lambda x: T.identity_at(0),
        check=False,
    )


def test_fibre_map_missing_the_fibre_is_not_label_preserving():
    assert fibre_map_preserves_labels(broken_cell(), 0, 0) is False


def test_chi_by_label_rejects_a_label_that_varies_on_a_component():
    # apex the swap groupoid on {0, 1} labelled eps(a) = a, which no check
    # catches with check=False: over discrete feet the fibre over (0, 0) is
    # the apex, and over the swap groupoid as left foot it is the two-sided
    # fibre with objects (0, id, id) and (1, swap, id); in both the label
    # takes two values on one component
    Z2 = AbelianGroup([2])
    apex = swap_groupoid()
    point = discrete_groupoid(1)
    to_point = GroupoidFunctor(
        apex, point, lambda a: 0, lambda m: point.identity_at(0)
    )
    for left in (to_point, identity_functor(apex)):
        sp = GSpan(
            apex,
            left,
            to_point,
            GroupValuedFunctor.trivial(left.target, Z2),
            GroupValuedFunctor.trivial(point, Z2),
            lambda a: (a,),
            check=False,
        )
        with pytest.raises(GSpanError, match="component of 0"):
            labeled_fibre(sp, 0, 0)


def test_character_matrix_product_mismatches_raise_value_error():
    one2, one4 = CyclotomicNumber.one(2), CyclotomicNumber.one(4)
    a = CharacterMatrix([0], [0], [[one2]], 2)
    with pytest.raises(ValueError):
        a * CharacterMatrix([0], [0], [[one4]], 4)
    with pytest.raises(ValueError):
        a * CharacterMatrix([1], [0], [[one2]], 2)


def test_span_matrix_shape_mismatches_raise_value_error():
    Z2 = AbelianGroup([2])
    one = GroupRingElement.one(Z2)
    with pytest.raises(ValueError):
        SpanMatrix(Z2, [0, 1], [0], [[one]])
    with pytest.raises(ValueError):
        SpanMatrix(Z2, [0], [0, 1], [[one]])
    # a character matrix has the same shape check: a ragged one would
    # multiply a 2 x 1 matrix into a 1 x 1 result from one of two terms
    one2 = CyclotomicNumber.one(2)
    with pytest.raises(ValueError):
        CharacterMatrix([0], [0, 1], [[one2]], 2)
    with pytest.raises(ValueError):
        CharacterMatrix([0, 1], [0], [[one2]], 2)


OPTIMIZED_CHECKS = """
import sys
sys.path.insert(0, sys.argv[1])
import test_span_kernel as t  # pytest.raises still checks under -O

assert False  # stripped under -O, like every assert below this line
if not sys.flags.optimize:
    sys.exit("not running under -O")
if t.fibre_map_preserves_labels(t.broken_cell(), 0, 0) is not False:
    sys.exit("a fibre map that misses the fibre passed")
t.test_chi_by_label_rejects_a_label_that_varies_on_a_component()
t.test_character_matrix_product_mismatches_raise_value_error()
t.test_span_matrix_shape_mismatches_raise_value_error()
import test_groupoid
test_groupoid.test_action_on_an_unclosed_carrier_raises()
test_groupoid.test_invariants_raise_value_error()
import test_gspan
test_gspan.test_span_invariants_raise_typed_errors()
import test_algebra
test_algebra.test_cyclotomic_invariants_raise_arithmetic_error()
test_algebra.test_non_int_orders_and_conductors_raise_type_error()
import test_integer_products
test_integer_products.test_a_label_outside_the_group_is_refused()
import test_cli
test_cli.test_rational_entry_rejects_an_irrational_entry()
import test_member_naturality
test_member_naturality.test_unchecked_h_nonzero_at_an_identity_is_refused_by_both_paths()
import test_fibre_search
test_fibre_search.test_an_unchecked_h_that_is_not_a_functor_is_refused_at_every_fibre()
print("checks fired")
"""


def test_typed_errors_fire_under_python_O():
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(gspans.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECKS, tests_dir],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "checks fired"
