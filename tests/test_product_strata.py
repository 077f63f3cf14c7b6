"""The composite over a discrete middle foot, the union over d of the
products M1_d x M2_d of its legs' level sets, against the plain action
groupoid on each enumerated product carrier, with exact equality; and
compose_spans' check of a composite's factors against the oracles: it
rejects exactly the pairs with a factor that is not a G-span, and every
pair whose composite, built unchecked, is not natural, under one-point
mutations of labels and legs, over discrete, split, twisted and composite
feet and over the general middle feet of the acceptance corpus."""

import random

import pytest

from gspans.algebra import AbelianGroup
from gspans.constructions import (
    FunctorError,
    GroupoidFunctor,
    GroupValuedFunctor,
    PullbackView,
    coset_groupoid,
    discrete_groupoid,
)
from gspans.examples import stirling_pair
from gspans.groupoid import (
    ActionGroupoid,
    DisjointUnion,
    ProductGroup,
    SymmetricGroup,
)
from gspans import random_spans as rnd
from gspans.gspan import GSpan, GSpanError, compose_spans, span_matrix
from oracles import (
    all_morphism_span_naturality,
    all_pairs_group_valued_check,
    fibre_span_matrix,
    pair_stirling_pair,
    unchecked_composite,
)

Z2 = AbelianGroup([2])
SEED = 20260810  # the acceptance corpus of criteria 3, 4, 6 and 8


def plain_strata(view):
    """The composite view of two unions of action groupoids over a discrete
    T as plain action groupoids, one per member pair (i, j) and object d on
    its enumerated product carrier, acting through the members' own act:
    the strata the pullback was built from before it kept its factors."""
    members1, members2 = view.M1.members, view.M2.members
    carriers = {}
    for o in view.objects:
        (i, _), t, (j, _) = o
        carriers.setdefault((i, t, j), []).append(o)
    out = {}
    for (i, t, j), carrier in carriers.items():
        v1, v2 = members1[i], members2[j]

        def act(o, g, v1=v1, v2=v2):
            (i, x), t, (j, y) = o
            return ((i, v1.act(x, g[0])), t, (j, v2.act(y, g[1])))

        plain = ActionGroupoid(ProductGroup(v1.group, v2.group), carrier, act)
        for o in carrier:
            out[o] = plain
    return out


def plain_handle(m):
    """The plain stratum's handle (source, (g1, g2)) of a view handle."""
    ((i, (x, g1)), t, (j, (y, g2))) = m
    return ((i, x), t, (j, y)), (g1, g2)


def assert_same_strata(view, rng, pairs=200):
    plain_of = plain_strata(view)
    objs = view.objects
    assert len(objs) == len(plain_of) and set(objs) == set(plain_of)
    plains = list({id(p): p for p in plain_of.values()}.values())
    position = {o: k for k, o in enumerate(objs)}
    want = sorted(
        (c for p in plains for c in p.components()),
        key=lambda c: position[c[0]],
    )
    assert view.components() == want
    assert view.component_reps() == [c[0] for c in want]
    assert view.chi() == sum(p.chi() for p in plains)
    for o in objs:
        assert view.component_rep(o) == plain_of[o].component_rep(o)
        assert view.aut_order(o) == plain_of[o].aut_order(o)
    for _ in range(pairs):
        comp = rng.choice(want)
        a = rng.choice(comp)
        b = rng.choice(comp) if rng.random() < 0.5 else rng.choice(objs)
        plain = plain_of[a]
        same = plain_of[b] is plain
        assert view.hom_size(a, b) == (plain.hom_size(a, b) if same else 0)
    a = want[-1][0]
    for b in (want[-1][-1], want[0][-1]):
        homs = view.hom(a, b)
        plain = plain_of[a]
        want_hom = plain.hom(a, b) if plain_of[b] is plain else []
        assert [plain_handle(m) for m in homs] == want_hom
        for m in homs:
            assert view.target_of(m) == b
            assert view.compose_m(view.inverse_m(m), m) == view.identity_at(a)


@pytest.fixture(scope="module")
def stirling_composites():
    out = {}
    for n in (2, 3, 4):
        first, second = stirling_pair(n)
        out[n] = (first, second, compose_spans(first, second))
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stirling_strata_match_the_plain_product(stirling_composites, n):
    first, second, composed = stirling_composites[n]
    assert isinstance(composed.apex, PullbackView)
    assert composed.apex.M1 is first.apex and composed.apex.M2 is second.apex
    assert_same_strata(composed.apex, random.Random(n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stirling_composed_matrix_is_the_product_and_the_fibres(
    stirling_composites, n
):
    first, second, composed = stirling_composites[n]
    m = span_matrix(composed)
    assert m == span_matrix(first) * span_matrix(second)
    assert m == fibre_span_matrix(composed)


def assert_search_forest(view, family):
    """family, a list of (handle, source, target) triples, is the pullback
    view's search forest: for each component in order, all of Aut(r) at its
    representative r, then one move (s, t, id) or (id, t, s) into each other
    object y, from r or an object reached before y, with its endpoints;
    sources come in the order their objects were reached, so the family is
    grouped by source and its size is the sum of |Aut r| + |comp| - 1."""
    M1, M2 = view.M1, view.M2
    at = 0
    for comp in view.components():
        r = comp[0]
        aut = view.hom(r, r)
        assert family[at:at + len(aut)] == [(a, r, r) for a in aut]
        at += len(aut)
        position = {r: 0}
        for m, x, y in family[at:at + len(comp) - 1]:
            assert (x, y) == (view.source_of(m), view.target_of(m))
            assert y not in position
            assert m[0] == M1.identity_at(x[0]) or m[2] == M2.identity_at(x[2])
            position[y] = len(position)
        sources = [position[x] for _, x, _ in family[at:at + len(comp) - 1]]
        assert sources == sorted(sources)
        assert len(position) == len(comp) and set(position) == set(comp)
        at += len(comp) - 1
    assert at == len(family)


def validate_walk(composed):
    """The handles that composed.validate() draws from the apex's
    generating_family, checked to be morphism_sample() and to be its search
    forest (assert_search_forest)."""
    apex = composed.apex
    want = list(apex.morphism_sample())
    seen = []
    family = apex.generating_family

    def counting_family():
        for triple in family():
            seen.append(triple)
            yield triple

    apex.generating_family = counting_family
    try:
        composed.validate()
    finally:
        del apex.generating_family
    assert [m for m, _, _ in seen] == want
    assert_search_forest(apex, seen)
    return seen


def test_validate_visits_every_generating_handle(stirling_composites):
    # pointwise validate walks the composite's search forest; on the
    # product model (P x S_n)//S_n, 22 389 handles (56 274 points x
    # generators before the stars), on the slices S_n//Stab(x) 11 631
    oracle = compose_spans(*pair_stirling_pair(4))
    assert len(validate_walk(oracle)) == 22389
    assert len(validate_walk(stirling_composites[4][2])) == 11631


def test_a_label_broken_at_one_point_of_a_composite_is_caught(stirling_composites):
    composed = stirling_composites[3][2]
    comp = max(composed.apex.components(), key=len)
    broken = comp[-1]
    G = composed.group

    def eps(o):
        e = composed.eps(o)
        return G.add(e, (1,)) if o == broken else e

    with pytest.raises(GSpanError, match="not natural"):
        GSpan(composed.apex, composed.left, composed.right, composed.h,
              composed.v, eps)


# ---------------------------------------------------------------------------
# a union whose legs send different orbits of one member to different d


def _swap_first_pairs(n):
    """S2 on {0..n-1} swapping 2i and 2i+1 (an odd last point stays)."""
    sym = SymmetricGroup(2)

    def act(x, g):
        if g == sym.identity or x == n - 1 and n % 2:
            return x
        return x ^ 1

    return ActionGroupoid(sym, list(range(n)), act)


def split_pair():
    S, T, U = discrete_groupoid(1), discrete_groupoid(2), discrete_groupoid(2)
    a = _swap_first_pairs(3)  # orbits {0, 1} over d = 0 and {2} over d = 1
    b = coset_groupoid(AbelianGroup([4]), [(0,), (2,)])  # one orbit, d = 1
    c = _swap_first_pairs(4)  # orbits {0, 1} over d = 0 and {2, 3} over d = 1
    h = GroupValuedFunctor.trivial(S, Z2)
    mid = GroupValuedFunctor.trivial(T, Z2)
    v = GroupValuedFunctor.trivial(U, Z2)

    def functor(apex, base, val):
        def obj(o):
            return base.object_of_label[val(o)]

        return GroupoidFunctor(
            apex,
            base,
            obj,
            lambda m: base.identity_at(obj(apex.source_of(m))),
            check=False,
        )

    apex1 = DisjointUnion([a, b])
    over1 = lambda o: (0 if o[1] in (0, 1) else 1) if o[0] == 0 else 1
    sp1 = GSpan(
        apex1,
        functor(apex1, S, lambda o: 0),
        functor(apex1, T, over1),
        h,
        mid,
        lambda o: (1,) if o == (0, 2) else (0,),
    )
    apex2 = DisjointUnion([c])
    sp2 = GSpan(
        apex2,
        functor(apex2, T, lambda o: o[1] // 2),
        functor(apex2, U, lambda o: 1 - o[1] // 2),
        mid,
        v,
        lambda o: (o[1] // 2,),
    )
    return sp1, sp2, (a, b, c)


def test_split_members_become_full_subgroupoid_factors():
    # the factors over d are the full subgroupoids of the level sets: member
    # a splits into {0, 1} over d = 0 and {2} over d = 1, and c likewise
    sp1, sp2, (a, b, c) = split_pair()
    composed = compose_spans(sp1, sp2)
    view = composed.apex
    plain_of = plain_strata(view)
    carriers = {}
    for o, plain in plain_of.items():
        carriers.setdefault(id(plain), (o[0][0], o[2][0], plain.carrier))
    left = [(i, sorted({o[0][1] for o in cs})) for i, _, cs in carriers.values()]
    right = [sorted({o[2][1] for o in cs}) for _, _, cs in carriers.values()]
    assert left == [(0, [0, 1]), (0, [2]), (1, [(0,), (1,)])]
    assert right == [[0, 1], [2, 3], [2, 3]]
    assert_same_strata(view, random.Random(0))
    m = span_matrix(composed)
    assert m == span_matrix(sp1) * span_matrix(sp2)
    assert m == fibre_span_matrix(composed)


# ---------------------------------------------------------------------------
# compose_spans checks the factors of a composite, never the composite: the
# squares of the two spans (an unchecked one is walked once) and their legs
# over BG on the feet.  The oracles: a factor is a G-span when its legs pass
# the all-pair functor check and its label the all-morphism square; by the
# composition lemma, the composite of two G-spans, built unchecked, passes
# GSpan.validate and the all-morphism square.


def factor_failure(sp1, sp2):
    """Whether a factor fails its oracle: one of H1, V1, H2 and V2 breaks a
    functor law on some composable pair, or a label is not natural at some
    morphism of its apex."""
    try:
        for f in (sp1.h, sp1.v, sp2.h, sp2.v):
            all_pairs_group_valued_check(f)
    except FunctorError:
        return True
    try:
        for sp in (sp1, sp2):
            all_morphism_span_naturality(sp)
    except GSpanError:
        return True
    return False


def composite_failure(sp1, sp2, every_morphism):
    """Whether the composite, built unchecked, fails GSpan.validate or, with
    every_morphism, the square at every morphism of its apex."""
    composed = unchecked_composite(sp1, sp2)
    try:
        composed.validate()
        if every_morphism:
            all_morphism_span_naturality(composed)
    except GSpanError:
        return True
    return False


def assert_factor_check_agrees(sp1, sp2, every_morphism=True):
    """compose_spans raises GSpanError exactly when a factor fails its
    oracle, and whenever the composite, built unchecked, fails one (the
    lemma's contrapositive); what it returns is checked and passes them.
    Returns whether it accepted the pair."""
    try:
        composed = compose_spans(sp1, sp2)
    except GSpanError:
        accepted = False
    else:
        accepted = True
        assert composed.checked
    assert accepted == (not factor_failure(sp1, sp2))
    if accepted:
        assert not composite_failure(sp1, sp2, every_morphism)
    return accepted


def with_changes(sp, h=None, v=None, eps=None):
    """sp with H, V or eps replaced, built unchecked."""
    return GSpan(
        sp.apex,
        sp.left,
        sp.right,
        h if h is not None else sp.h,
        v if v is not None else sp.v,
        eps if eps is not None else sp.eps,
        check=False,
    )


def eps_moved_at(sp, point, shift):
    G = sp.group
    return with_changes(
        sp, eps=lambda o: G.add(sp.eps(o), shift) if o == point else sp.eps(o)
    )


def value_moved_at(f, morphism, shift):
    """The G-valued functor f with shift added at one morphism."""
    G = f.group
    return GroupValuedFunctor(
        f.source,
        G,
        lambda m: G.add(f.value(m), shift) if m == morphism else f.value(m),
        check=False,
    )


Z4 = AbelianGroup([4])


def twisted_pair():
    """A composable pair over a discrete T whose outer legs are not trivial:
    S and U are BZ4 (Z4 acting on one point), H1 and V2 are the identity of
    Z4, and Z4 acts on its own points by translation (member 0) and on
    {0, 1} through Z2 (member 1, sent to S and U through g -> 2g)."""
    S = ActionGroupoid(Z4, ["s"], lambda x, g: x)
    T = discrete_groupoid(2)
    U = ActionGroupoid(Z4, ["u"], lambda x, g: x)
    free = ActionGroupoid(Z4, Z4.elements(), Z4.add)
    halves = ActionGroupoid(Z4, [0, 1], lambda x, g: (x + g[0]) % 2)
    apex1 = DisjointUnion([free, halves])
    apex2 = DisjointUnion([free, halves])

    def to_bz4(apex, point):
        # member 0 maps g to g, member 1 maps g to 2g
        return GroupoidFunctor(
            apex,
            S if point == "s" else U,
            lambda o: point,
            lambda m: (point, m[1][1] if m[0] == 0 else Z4.add(m[1][1], m[1][1])),
        )

    def to_t(apex, d):
        return GroupoidFunctor(
            apex,
            T,
            lambda o: d(o),
            lambda m: T.identity_at(d(apex.source_of(m))),
        )

    mid = GroupValuedFunctor.trivial(T, Z4)
    sp1 = GSpan(
        apex1,
        to_bz4(apex1, "s"),
        to_t(apex1, lambda o: o[0]),
        GroupValuedFunctor(S, Z4, lambda m: m[1]),
        mid,
        # eps1(y) = y on member 0 and 2y on member 1
        lambda o: o[1] if o[0] == 0 else ((2 * o[1]) % 4,),
    )
    sp2 = GSpan(
        apex2,
        to_t(apex2, lambda o: 1 - o[0]),
        to_bz4(apex2, "u"),
        mid,
        GroupValuedFunctor(U, Z4, lambda m: m[1]),
        # eps2(y) = -y on member 0 and 2y on member 1
        lambda o: Z4.neg(o[1]) if o[0] == 0 else ((2 * o[1]) % 4,),
    )
    return sp1, sp2


def test_the_twisted_pair_is_lazy_and_natural():
    sp1, sp2 = twisted_pair()
    assert assert_factor_check_agrees(sp1, sp2)
    composed = compose_spans(sp1, sp2)
    assert len(set(map(id, plain_strata(composed.apex).values()))) == 2
    assert span_matrix(composed) == span_matrix(sp1) * span_matrix(sp2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_factor_check_accepts_the_stirling_composites(stirling_composites, n):
    # the every-morphism square of the N=4 composite loops 14 050 x 8 830
    # handle pairs, so there GSpan.validate on its forest is the oracle
    first, second, _ = stirling_composites[n]
    assert assert_factor_check_agrees(first, second, every_morphism=n < 4)


def test_factor_check_accepts_the_split_union():
    sp1, sp2, _ = split_pair()
    assert assert_factor_check_agrees(sp1, sp2)


def one_point_mutations(sp1, sp2, rng, count, kinds):
    """count seeded one-point mutations of the pair, cycling through kinds:
    "eps" moves eps1 or eps2 at a point; "generator" and "identity" move H1
    or V2 at a member of its foot's generating family or at an identity;
    "middle" moves V1 and H2 together at a generator of T.  Every move adds
    a nonzero element of G."""
    G = sp1.group
    shifts = [g for g in G.elements() if g != G.identity]
    out = []
    for k in range(count):
        kind, which = kinds[k % len(kinds)], k // len(kinds) % 2
        shift = rng.choice(shifts)
        if kind == "eps":
            sp = (sp1, sp2)[which]
            moved = eps_moved_at(sp, rng.choice(sp.apex.objects), shift)
            out.append((moved, sp2) if which == 0 else (sp1, moved))
        elif kind == "middle":
            T = sp1.target
            f = value_moved_at(sp1.v, rng.choice(list(T.morphism_sample())), shift)
            out.append((with_changes(sp1, v=f), with_changes(sp2, h=f)))
        else:
            f = (sp1.h, sp2.v)[which]
            foot = f.source
            if kind == "identity":
                m = foot.identity_at(rng.choice(foot.objects))
            else:
                m = rng.choice(list(foot.morphism_sample()))
            f = value_moved_at(f, m, shift)
            out.append(
                (with_changes(sp1, h=f), sp2)
                if which == 0
                else (sp1, with_changes(sp2, v=f))
            )
    return out


@pytest.mark.parametrize(
    "pair", ["stirling", "split", "twisted", "composite left", "composite right"]
)
def test_factor_check_agrees_under_one_point_label_mutations(
    stirling_composites, pair
):
    if pair == "stirling":
        sp1, sp2, _ = stirling_composites[3]
    elif pair == "split":
        sp1, sp2, _ = split_pair()
    elif pair == "twisted":
        sp1, sp2 = twisted_pair()
    else:
        # a composite as a factor: (first o second) o first and first o
        # (second o first), with a composite's view as one apex; its
        # composite's every-morphism square is out of reach at N=3
        first, second, composed = stirling_composites[3]
        if pair == "composite left":
            sp1, sp2 = composed, first
        else:
            sp1, sp2 = first, compose_spans(second, first)
    rng = random.Random(pair)
    composite = pair.startswith("composite")
    verdicts = [
        assert_factor_check_agrees(a, b, every_morphism=not composite)
        for a, b in one_point_mutations(
            sp1, sp2, rng, 8 if composite else 24, ["eps"]
        )
    ]
    assert False in verdicts
    if pair == "stirling":
        # points of S_0 and S_1 strata have no generating handles
        assert True in verdicts


def test_factor_check_agrees_with_wrong_outer_legs():
    sp1, sp2 = twisted_pair()
    S, U = sp1.source, sp2.target
    one = (1,)
    cases = [
        # H1 wrong on one generator morphism of S, V2 on one of U
        (with_changes(sp1, h=value_moved_at(sp1.h, ("s", one), one)), sp2),
        (sp1, with_changes(sp2, v=value_moved_at(sp2.v, ("u", one), one))),
        # ... on the morphism the halves member's generator is sent to
        (with_changes(sp1, h=value_moved_at(sp1.h, ("s", (2,)), (2,))), sp2),
        # ... on a morphism that only handles off the apexes' generating
        # families reach: H1's identity law and the walk of sp1 both pass,
        # and only the functor check of H1 on S sees it
        (with_changes(sp1, h=value_moved_at(sp1.h, ("s", (3,)), one)), sp2),
        (sp1, with_changes(sp2, v=value_moved_at(sp2.v, ("u", (3,)), one))),
        # a nonzero value on an identity of S or of U
        (with_changes(sp1, h=value_moved_at(sp1.h, S.identity_at("s"), one)), sp2),
        (sp1, with_changes(sp2, v=value_moved_at(sp2.v, U.identity_at("u"), one))),
    ]
    assert [assert_factor_check_agrees(a, b) for a, b in cases] == [
        False
    ] * len(cases)
    # the off-family cases: both walks pass and H1 and V2 keep their
    # identity laws, yet the composite fails the every-morphism square
    for a, b in cases[3:5]:
        a.validate()
        b.validate()
        for f in (a.h, b.v):
            foot = f.source
            assert all(
                f.value(foot.identity_at(o)) == Z4.identity for o in foot.objects
            )
        assert composite_failure(a, b, every_morphism=True)


def test_factor_check_agrees_with_a_nonzero_identity_on_stirling_feet(
    stirling_composites,
):
    # the feet are discrete: every handle of a stratum over n in S reads
    # H1 at the identity of n, and likewise V2 at the identity of m in U
    first, second, _ = stirling_composites[3]
    base = first.source
    verdicts = []
    for n in base.objects:
        h = value_moved_at(first.h, base.identity_at(n), (1,))
        v = value_moved_at(second.v, base.identity_at(n), (1,))
        verdicts.append((
            assert_factor_check_agrees(with_changes(first, h=h), second),
            assert_factor_check_agrees(first, with_changes(second, v=v)),
        ))
    assert verdicts == [(False, False)] * len(base.objects)


def test_factor_check_is_sound_on_corpus_pairs_over_general_middle_feet():
    # seeded one-point mutations of every kind on the acceptance corpus
    # pairs whose middle foot is not discrete and whose group is not trivial
    rng = random.Random(SEED)
    pairs = [
        rnd.random_composable_pair(
            rng, max_group_order=6, max_objects=8, max_apex_objects=8
        )
        for _ in range(50)
    ]
    pairs = [
        (a, b) for a, b in pairs
        if not a.target.is_discrete and len(a.group.elements()) > 1
    ][:12]
    assert len(pairs) == 12
    kinds = ["eps", "generator", "identity", "middle"]
    verdicts = []
    for k, (sp1, sp2) in enumerate(pairs):
        assert assert_factor_check_agrees(sp1, sp2)
        mutations = one_point_mutations(sp1, sp2, random.Random(k), 8, kinds)
        verdicts += [assert_factor_check_agrees(a, b) for a, b in mutations]
    assert False in verdicts and True in verdicts


def test_an_unchecked_factor_is_walked_once(stirling_composites, monkeypatch):
    first, second, _ = stirling_composites[3]
    walked = []
    walk = GSpan.validate
    monkeypatch.setattr(
        GSpan, "validate", lambda sp: walked.append(sp) or walk(sp)
    )
    h = GroupValuedFunctor(first.source, first.group, first.h.value, check=False)
    unchecked = with_changes(first, h=h)
    assert not unchecked.checked and not h.checked
    composed = compose_spans(unchecked, second)
    assert walked == [unchecked] and unchecked.checked and composed.checked
    assert h.checked  # validated on its foot once, like the span
    # the second composition has a checked composite and a walked factor
    compose_spans(composed, unchecked)
    assert walked == [unchecked]
    # a factor that fails its walk stays unchecked and is walked again
    broken = eps_moved_at(first, first.apex.objects[-1], (1,))
    for _ in range(2):
        with pytest.raises(GSpanError, match="not natural"):
            compose_spans(broken, second)
    assert walked == [unchecked, broken, broken] and not broken.checked
