"""The Stirling spans on orbit-stabilizer slices against the product model
(P x Sigma(n))//Sigma(n) of tests/oracles.py: whole span matrices over QG,
of each kind and of the composite, and per stratum chi, pi0 and |Aut|; and
the greedy generating sets of Subgroup that the slices act through."""

import random
from fractions import Fraction

import pytest

from gspans.algebra import AbelianGroup
from gspans.examples import (
    fin_perm_groupoid,
    fin_rel_groupoid,
    relabel_partition,
    rgs_partitions,
    stirling_pair,
)
from gspans.groupoid import ActionGroupoid, Subgroup, SymmetricGroup
from gspans.gspan import compose_spans, span_matrix
from oracles import abelian_group_order_lists, pair_stirling_pair


def strata_of(sp):
    """The apex members grouped by their (left, right) leg values, which are
    constant on a member: one stratum (n, k) of the span per key."""
    out = {}
    for i, member in enumerate(sp.apex.members):
        o = (i, member.carrier[0])
        out.setdefault((sp.left.on_obj(o), sp.right.on_obj(o)), []).append(member)
    return out


def invariants(members):
    """chi, the pi0 count and the sorted |Aut| list of a union of members."""
    auts = sorted(m.aut_order(r) for m in members for r in m.component_reps())
    return sum((m.chi() for m in members), Fraction(0)), len(auts), auts


@pytest.fixture(scope="module")
def models():
    out = {}
    for n in range(6):
        pairs = {"slices": stirling_pair(n), "oracle": pair_stirling_pair(n)}
        out[n] = {
            name: (first, second, compose_spans(first, second))
            for name, (first, second) in pairs.items()
        }
    return out


@pytest.mark.parametrize("n", range(6))
def test_slices_give_the_product_model_span_matrices(models, n):
    slices, oracle = models[n]["slices"], models[n]["oracle"]
    for sp, want in zip(slices, oracle):
        assert span_matrix(sp) == span_matrix(want)


PARTITION_COUNTS = [1, 1, 2, 3, 5, 7]  # p(n): orbits of S_n on P, all k


@pytest.mark.parametrize("n", range(6))
def test_slices_are_equivalent_to_the_product_strata(models, n):
    slices, oracle = models[n]["slices"], models[n]["oracle"]
    for sp, want in zip(slices[:2], oracle[:2]):
        got_strata, want_strata = strata_of(sp), strata_of(want)
        assert list(got_strata) == list(want_strata)
        for key, members in want_strata.items():
            assert len(members) == 1  # one product stratum per (n, k)
            assert invariants(got_strata[key]) == invariants(members)
        # one slice S_m//Stab(x) per orbit of S_m on P
        assert sum(len(m.carrier) for m in sp.apex.members) == sum(
            PARTITION_COUNTS[m] * len(SymmetricGroup(m).elements())
            for m in range(n + 1)
        )


@pytest.mark.parametrize("n", range(6))
def test_the_composite_of_slices_is_equivalent_to_the_product_composite(
    models, n
):
    got, want = models[n]["slices"][2].apex, models[n]["oracle"][2].apex
    assert got.chi() == want.chi()
    assert len(got.component_reps()) == len(want.component_reps())
    assert sorted(got.aut_order(r) for r in got.component_reps()) == sorted(
        want.aut_order(r) for r in want.component_reps()
    )


def level_of(model):
    """S_n acting on itself by conjugation, for a model P//S_n."""
    sym = model.group
    return ActionGroupoid(sym, sym.elements(), sym.conjugate)


def test_slices_of_a_product_action_are_its_stabilizer_actions():
    sym = SymmetricGroup(4)
    model = fin_perm_groupoid(4, 2)
    taus = sym.elements()
    level = ActionGroupoid(sym, taus, sym.conjugate)
    slices = model.slices(level)
    assert [sl.carrier for sl in slices] == [taus] * len(model.component_reps())
    for x, sl in zip(model.component_reps(), slices):
        want = [g for g in sym.elements() if sym.conjugate(x, g) == x]
        assert sl.group.elements() == sorted(want)
        assert sl.act == sym.conjugate


@pytest.mark.parametrize("make_model", [fin_perm_groupoid, fin_rel_groupoid])
def test_a_fixed_point_slice_acts_through_the_whole_group(make_model):
    # Stab(x) = S_n exactly when x is a fixed point; its slice gets S_n itself,
    # with its own generators, and the other slices get the stabilizer
    for n in range(6):
        for k in range(n + 1):
            model = make_model(n, k)
            sym = model.group
            slices = model.slices(level_of(model))
            for x, sl in zip(model.component_reps(), slices):
                want = [g for g in sym.elements() if model.act(x, g) == x]
                assert sl.group.elements() == sorted(want)
                assert (sl.group is sym) == (len(want) == sym.order)
                if sl.group is not sym:
                    assert isinstance(sl.group, Subgroup)


def test_the_identity_slice_at_n7_has_two_generators():
    model = fin_perm_groupoid(7, 7)  # the identity, fixed by all of S_7
    (sl,) = model.slices(level_of(model))
    assert sl.group is model.group and len(sl.group.generators()) == 2
    assert len(Subgroup(model.group, model.group.elements()).generators()) == 6


# --- greedy generating sets -------------------------------------------------


def closure(group, gens):
    """The subgroup gens generate, as a sorted list: products until fixed."""
    found = {group.identity}
    while True:
        grown = found | {group.op(h, g) for h in found for g in gens}
        if grown == found:
            return sorted(found)
        found = grown


def subgroups():
    """Every subgroup of every abelian G with |G| <= 8, and every stabilizer
    in S_n (n <= 5) of a permutation under conjugation and of a partition
    under relabelling."""
    out = []
    for orders in abelian_group_order_lists(8):
        G = AbelianGroup(orders)
        out += [Subgroup(G, els) for els in G.all_subgroups()]
    for n in range(6):
        sym = SymmetricGroup(n)
        for carrier, act in (
            (sym.elements(), sym.conjugate),
            (rgs_partitions(n), relabel_partition),
        ):
            view = ActionGroupoid(sym, carrier, act)
            for x in carrier:
                stab = view.stabilizer(x)
                assert stab.elements() == sorted(
                    g for g in sym.elements() if act(x, g) == x
                )
                out.append(stab)
    return out


def test_greedy_generators_generate_the_subgroup():
    subs = subgroups()
    # 53 abelian subgroups; sum n! permutations and sum B(n) partitions, n <= 5
    assert len(subs) == 53 + 154 + 76
    rng = random.Random(7)
    for sub in subs:
        gens = sub.generators()
        assert closure(sub, gens) == sub.elements()
        assert sub.identity not in gens
        assert 2 ** len(gens) <= sub.order
        assert sub.generators() == gens
        shuffled = sub.elements()
        rng.shuffle(shuffled)
        assert Subgroup(sub.ambient, shuffled).generators() == gens


def test_greedy_generators_take_each_element_outside_the_closure():
    sym = SymmetricGroup(4)
    full = Subgroup(sym, sym.elements())
    gens = full.generators()
    els = full.elements()
    for i, g in enumerate(els):
        before = [h for h in gens if els.index(h) < i]
        assert (g in gens) == (g not in closure(full, before))
