"""Stirling spans over levels shared per pair, and chi summed in integers.

stirling_pair builds one level Sigma(n)//Sigma(n) per n for both kinds, and
the first kind reads its slices off that level's own orbits.  These tests
hold the members against the per-k models they replace
(fin_perm_groupoid(n, k), fin_rel_groupoid(n, k)), the spans of a pair
against spans built alone, and _fibre_chi's one-denominator map against
one Fraction per (c, d, |Aut|, label), counted from the span's components
by the closure route."""

import math
import random
import sys
from fractions import Fraction

import pytest

from gspans import gspan
from gspans import random_spans as rnd
from gspans.constructions import discrete_groupoid
from gspans.examples import StirlingSpanConfig, stirling_pair, stirling_span
from gspans.groupoid import ActionGroupoid, SymmetricGroup
from gspans.gspan import compose_spans, labeled_pullback_identity, span_matrix
from oracles import closure_keys, fin_perm_groupoid, fin_rel_groupoid
from test_examples import catalog_pairs


def member_rows(sp):
    """(carrier, stabilizer elements, order, (n, k-side value, label)) per
    apex member, in member order."""
    base_label = {o: lab for lab, o in sp.left.target.object_of_label.items()}
    return [
        (
            member.carrier,
            member.group.elements(),
            member.group.order,
            (
                base_label[sp.left.member_objects[i]],
                base_label[sp.right.member_objects[i]],
                sp.member_label.values[i],
            ),
        )
        for i, member in enumerate(sp.apex.members)
    ]


def model_rows(kind, N):
    """member_rows of the span as the per-k models give it: the slices of
    fin_perm_groupoid(n, k) (first kind) or fin_rel_groupoid(n, k) (second)
    over a fresh level, stratum by stratum."""
    rows = []
    for n in range(N + 1):
        sym = SymmetricGroup(n)
        level = ActionGroupoid(sym, sym.elements(), sym.conjugate)
        for k in range(0 if n == 0 else 1, n + 1):
            if kind == "first":
                model, label = fin_perm_groupoid(n, k), ((n - k) % 2,)
            else:
                model, label = fin_rel_groupoid(n, k), (0,)
            rows += [
                (sl.carrier, sl.group.elements(), sl.group.order, (n, k, label))
                for sl in model.slices(level)
            ]
    return rows


@pytest.mark.parametrize("N", range(6))
@pytest.mark.parametrize("kind", ["first", "second"])
def test_members_are_the_models_slices(kind, N):
    # same members in the same order, each with the same stabilizer (element
    # set and order) and the same legs and label, alone and in a pair
    want = model_rows(kind, N)
    assert member_rows(stirling_span(StirlingSpanConfig(kind, N))) == want
    pair = stirling_pair(N)
    assert member_rows(pair[kind == "second"]) == want


@pytest.mark.parametrize("N", range(7))
def test_spans_built_alone_give_the_pairs_matrices(N):
    base = discrete_groupoid(N + 1)
    alone = [stirling_span(StirlingSpanConfig(kind, N), base) for kind in ("first", "second")]
    pair = stirling_pair(N)
    for sp, want in zip(alone, pair):
        assert span_matrix(sp) == span_matrix(want)
    assert span_matrix(compose_spans(*alone)) == span_matrix(compose_spans(*pair))


def per_key_counts(sp):
    """{(c, d, |Aut a|): {g: number of (a, s, t)}} over the apex's listed
    component representatives a (closure_keys), with c = rep(La),
    d = rep(Ra), s in S(c, La), t in T(Ra, d) and g the label
    V(t) + eps(a) + H(s), added one (s, t) at a time."""
    S, T, G = sp.source, sp.target, sp.group
    counts = {}
    for (la, ra, n, e), k in closure_keys(sp).items():
        c, d = S.component_rep(la), T.component_rep(ra)
        by_label = counts.setdefault((c, d, n), {})
        for s in S.hom(c, la):
            for t in T.hom(ra, d):
                g = G.add(sp.v.value(t), G.add(e, sp.h.value(s)))
                by_label[g] = by_label.get(g, 0) + k
    return counts


def per_key_chi(counts):
    """The chi maps as one Fraction(count, |Aut|) per key of counts, added in
    the order of counts."""
    out = {}
    for (c, d, n), by_label in counts.items():
        chi = out.setdefault((c, d), {})
        for g, k in by_label.items():
            chi[g] = chi.get(g, 0) + Fraction(k, n)
    return out


@pytest.fixture
def recorded(monkeypatch):
    """Every call of _fibre_chi that makes a span's map, not reads its memo,
    as (calling function, span, result)."""
    calls = []
    fibre_chi = gspan._fibre_chi

    def recording(sp):
        fresh = sp._chi is None
        result = fibre_chi(sp)
        if fresh:
            calls.append((sys._getframe(1).f_code.co_name, sp, result))
        return result

    monkeypatch.setattr(gspan, "_fibre_chi", recording)
    return calls


def theorem_pairs():
    """The 60 composable pairs of the bench's theorem workload: pair i is
    drawn from the i-th 64-bit draw of Random(0), with groups of order at
    most 6 and at most 8 objects on the feet and the apex."""
    base = random.Random(0)
    subs = [base.getrandbits(64) for _ in range(60)]
    for sub in subs:
        yield rnd.random_composable_pair(
            random.Random(sub), max_group_order=6, max_objects=8, max_apex_objects=8
        )


def assert_same_chi(calls):
    assert calls
    assert len({id(sp) for _, sp, _ in calls}) == len(calls)  # once per span
    for _, sp, (den, chi) in calls:
        counts = per_key_counts(sp)
        want = per_key_chi(counts)
        # each chi an integer numerator over the span's one int denominator,
        # the lcm of its |Aut a| values
        got = {
            pair: {g: Fraction(k, den) for g, k in nums.items()}
            for pair, nums in chi.items()
        }
        assert got == want
        assert den == math.lcm(*{n for _, _, n in counts})
        # the same pairs in the same order (rendering sorts the labels)
        assert list(got) == list(want)
        assert type(den) is int
        assert all(type(k) is int for nums in chi.values() for k in nums.values())


def test_chi_of_counts_is_the_per_key_sum_on_stirling(recorded):
    for N in range(6):
        first, second = stirling_pair(N)
        for sp in (first, second, compose_spans(first, second)):
            span_matrix(sp)
    assert_same_chi(recorded)
    assert len(recorded) == 3 * 6


def test_chi_of_counts_is_the_per_key_sum_on_the_theorem_pairs(recorded):
    # span_matrix and both sides of the lemma read _fibre_chi, and make
    # each span's map once
    for sp1, sp2 in theorem_pairs():
        composed = compose_spans(sp1, sp2)
        span_matrix(composed)
        for c1 in sp1.source.component_reps():
            for c2 in sp2.target.component_reps():
                labeled_pullback_identity(sp1, sp2, c1, c2, composed=composed)
    assert_same_chi(recorded)
    assert {caller for caller, _, _ in recorded} <= {
        "span_matrix", "labeled_fibre", "labeled_pullback_identity"
    }


@pytest.mark.parametrize("kind", ["trivial_h", "maximal_h"])
def test_chi_of_counts_is_the_per_key_sum_on_the_coset_composites(recorded, kind):
    for a, b, _ in catalog_pairs(kind):
        span_matrix(compose_spans(a, b))
    assert_same_chi(recorded)
    assert len(recorded) == 792
