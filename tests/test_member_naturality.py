"""GSpan.validate's per-member path against the walk over the generating
family: a span whose legs come from GroupoidFunctor.constant_on_members and
whose label is a MemberLabel is checked once per member of its DisjointUnion
apex, and its verdict must be the walk's on the same span rebuilt with plain
maps, and the all-morphism oracle's.  Anything else, such as a label
changed at one point, goes back to the walk."""

import random
from contextlib import contextmanager

import pytest

from gspans.algebra import AbelianGroup
from gspans.constructions import (
    FunctorError,
    GroupoidFunctor,
    GroupValuedFunctor,
    coset_groupoid,
    delooping_bg,
    discrete_groupoid,
)
from gspans.examples import (
    SIGN_GROUP,
    StirlingSpanConfig,
    fin_perm_groupoid,
    fin_rel_groupoid,
    stirling_span,
)
from gspans.groupoid import DisjointUnion
from gspans.gspan import GSpan, GSpanError, MemberLabel
from oracles import all_morphism_span_naturality

SEED = 20261019


def plain(sp, eps=None, h=None):
    """sp rebuilt unchecked with plain maps (the same functions, wrapped),
    so validate walks its generating family; eps and h replace its label
    and H when given."""
    def rewrap(f):
        return GroupoidFunctor(
            f.source, f.target, lambda o: f.on_obj(o), lambda m: f.on_mor(m),
            check=False,
        )

    return GSpan(
        sp.apex, rewrap(sp.left), rewrap(sp.right), h or sp.h, sp.v,
        eps or (lambda o: sp.eps(o)), check=False,
    )


def verdict(sp):
    """None if validate accepts, else the GSpanError's message."""
    try:
        sp.validate()
    except GSpanError as err:
        return str(err)
    return None


def oracle_verdict(sp):
    try:
        all_morphism_span_naturality(sp)
    except GSpanError:
        return False
    return True


@contextmanager
def family_unread(view):
    """Within the block, reading the view's generating family fails."""
    def refuse():
        raise AssertionError("the per-member path read the generating family")

    view.generating_family = refuse
    try:
        yield
    finally:
        del view.generating_family


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("kind", ["first", "second"])
def test_stirling_per_member_verdict_is_the_walks(kind, n):
    sp = stirling_span(StirlingSpanConfig(kind, n))
    assert sp.checked and sp.member_label is not None
    assert sp.left.member_objects is not None
    assert sp.right.member_objects is not None
    walked = plain(sp)
    assert walked.left.member_objects is None
    assert verdict(walked) is None
    with family_unread(sp.apex):
        assert verdict(sp) is None


def random_union(rng):
    """A DisjointUnion of three to six members, each an action groupoid
    (a coset groupoid A/B, or conjugation on permutations with k cycles or
    relabelling of partitions with k blocks) or a table (a delooping BA, or
    a discrete groupoid), one target object and one label per member."""
    members = []
    for _ in range(rng.randint(3, 6)):
        pick = rng.randrange(5)
        if pick == 0:
            A = AbelianGroup(rng.choice([[2], [3], [4], [2, 2], [6]]))
            B = rng.choice(A.all_subgroups())
            members.append(coset_groupoid(A, B))
        elif pick == 1:
            n = rng.randint(1, 4)
            members.append(fin_perm_groupoid(n, rng.randint(1, n)))
        elif pick == 2:
            n = rng.randint(1, 4)
            members.append(fin_rel_groupoid(n, rng.randint(1, n)))
        elif pick == 3:
            members.append(delooping_bg(AbelianGroup([rng.randint(2, 4)])))
        else:
            members.append(discrete_groupoid(rng.randint(1, 3)))
    return DisjointUnion(members)


def random_member_span(rng, G):
    union = random_union(rng)
    k = len(union.members)
    S, T = discrete_groupoid(3), delooping_bg(AbelianGroup([2]))
    left = GroupoidFunctor.constant_on_members(
        union, S, [rng.choice(S.objects) for _ in range(k)]
    )
    right = GroupoidFunctor.constant_on_members(
        union, T, [T.objects[0]] * k
    )
    h = GroupValuedFunctor.trivial(S, G)
    half = G.elements()[G.order // 2]  # BZ2 -> G, onto the element of order 2
    v = GroupValuedFunctor(
        T, G, lambda m: half if T.morphism_labels[m] == (1,) else G.identity
    )
    labels = MemberLabel(union, [rng.choice(G.elements()) for _ in range(k)])
    return GSpan(union, left, right, h, v, labels, check=False)


def test_random_unions_with_a_one_point_mutation_fall_back_to_the_walk():
    rng = random.Random(SEED)
    G = AbelianGroup([4])
    refused = 0
    while refused < 40:
        sp = random_member_span(rng, G)
        assert verdict(plain(sp)) is None
        with family_unread(sp.apex):
            assert verdict(sp) is None
        assert oracle_verdict(sp)
        # one point, in a component with another object, relabelled: not a
        # MemberLabel, so the walk decides, and refuses at a morphism
        movable = [(i, m) for i, m in enumerate(sp.apex.members)
                   if any(len(c) > 1 for c in m.components())]
        if not movable:
            continue
        i, member = rng.choice(movable)
        x = rng.choice([o for c in member.components() if len(c) > 1 for o in c])
        e = sp.eps((i, x))
        other = G.add(e, rng.choice(G.elements()[1:]))
        mutated = (lambda o, i=i, x=x, other=other:
                   other if o == (i, x) else sp.eps(o))
        with pytest.raises(GSpanError, match="not natural at morphism"):
            GSpan(sp.apex, sp.left, sp.right, sp.h, sp.v, mutated)
        bad = GSpan(sp.apex, sp.left, sp.right, sp.h, sp.v, mutated, check=False)
        assert bad.member_label is None
        assert not oracle_verdict(bad)
        refused += 1


def test_member_label_and_constant_legs_refuse_what_does_not_fit():
    union = DisjointUnion([discrete_groupoid(1), discrete_groupoid(2)])
    base = discrete_groupoid(2)
    with pytest.raises(FunctorError, match="1 objects for 2 members"):
        GroupoidFunctor.constant_on_members(union, base, [0])
    with pytest.raises(FunctorError, match="outside the target"):
        GroupoidFunctor.constant_on_members(union, base, [0, 5])
    with pytest.raises(FunctorError, match="DisjointUnion"):
        GroupoidFunctor.constant_on_members(base, base, [0, 1])
    with pytest.raises(GSpanError, match="3 labels for 2 members"):
        MemberLabel(union, [(0,), (0,), (0,)])
    with pytest.raises(GSpanError, match="DisjointUnion"):
        MemberLabel(base, [(0,), (0,)])
    leg = GroupoidFunctor.constant_on_members(union, base, [0, 1])
    triv = GroupValuedFunctor.trivial(base, SIGN_GROUP)
    other = DisjointUnion([discrete_groupoid(1), discrete_groupoid(2)])
    with pytest.raises(GSpanError, match="label the apex"):
        GSpan(union, leg, leg, triv, triv, MemberLabel(other, [(0,), (1,)]))
    # a constant leg is a functor: the full walk accepts it
    leg.validate()


def test_unchecked_h_nonzero_at_an_identity_is_refused_by_both_paths():
    # H is not a functor: it is the nonzero element at the identity of 3,
    # where every member over n = 3 lands, so both the per-member check and
    # the walk (at the first handle over 3) refuse the span
    sp = stirling_span(StirlingSpanConfig("first", 3))
    base = sp.source
    bad_id = base.identity_at(base.object_of_label[3])
    h = GroupValuedFunctor(
        base, SIGN_GROUP, lambda m: (1,) if m == bad_id else (0,), check=False
    )
    per_member = GSpan(sp.apex, sp.left, sp.right, h, sp.v, sp.member_label,
                       check=False)
    assert per_member.member_label is not None
    with family_unread(sp.apex):
        with pytest.raises(GSpanError, match="not natural on member"):
            per_member.validate()
    with pytest.raises(GSpanError, match="not natural at morphism"):
        plain(sp, h=h).validate()
    assert not per_member.checked
