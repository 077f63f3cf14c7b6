"""Groupoid-building recipes: deloopings, cosets, homotopy pullbacks, fibres,
two-sided pullbacks, and Grothendieck constructions of set-valued functors.

The homotopy pullback of M1 --R--> T <--L-- M2 has objects (a1, t, a2) with
t in T(R a1, L a2); a morphism (m1, m2) : (a1,t,a2) -> (b1,u,b2) requires
u o R(m1) = L(m2) o t in T.  Pullback outputs are tables (guarded by their
morphism count) labelled by slot tuples, objects (a1, t, a2) and morphisms
(m1, t, m2).  Their compose/inverse entries are filled on demand by the one
slot law, slotwise: (n1, u, n2) o (m1, t, m2) = (n1 o m1, t, n2 o m2), and
the projections p1, p2 read slots 0 and 2 (slot_projection).  Over a discrete
T with legs from disjoint unions of action groupoids the pullback stays lazy:
it is a disjoint union of factorized product strata X1 x X2 // (G1 x G2), one
per member pair and object d of T (ProductActionGroupoid), whose components,
|Aut| and chi come from the two factors' orbits.  Fibres, two-sided pullbacks
and Grothendieck constructions are tables of the same kind as the table
pullback: an object label has its morphism labels' slot layout, with each
view slot holding an object where a morphism label holds a morphism.

The functors check their composition law on groupoid.generating_pairs of
the source, which is complete, and every other law on every morphism.
"""

from collections import namedtuple
from fractions import Fraction

from gspans.groupoid import (
    ActionFactor,
    ActionGroupoid,
    DisjointUnion,
    ProductActionGroupoid,
    SizeGuardError,
    TableBuilder,
    discrete_table,
    generating_pairs,
    size_guard,
    slotwise,
    weighting,
)


class FunctorError(ValueError):
    """A would-be functor fails a preservation law; message carries a witness."""


def _as_fn(m):
    return m if callable(m) else m.__getitem__


class GroupoidFunctor:
    """Functor between groupoid views; maps given as dicts or callables.

    Validation is eager by default: a functor failing a preservation check is
    rejected at construction.  Composition is checked on generating_pairs of
    the source (complete, see there), the other laws everywhere.
    """

    def __init__(self, source, target, obj_map, mor_map, check=True):
        self.source = source
        self.target = target
        self.on_obj = _as_fn(obj_map)
        self.on_mor = _as_fn(mor_map)
        if check:
            self.validate()

    def validate(self):
        src, tgt = self.source, self.target
        tgt_objects = set(tgt.objects)
        image = {m: self.on_mor(m) for m in src.all_morphisms()}
        for m, fm in image.items():
            if self.on_obj(src.source_of(m)) != tgt.source_of(fm) or self.on_obj(
                src.target_of(m)
            ) != tgt.target_of(fm):
                raise FunctorError("functor breaks source/target at %r" % (m,))
        for o in src.objects:
            if self.on_obj(o) not in tgt_objects:
                raise FunctorError("functor sends %r outside the target" % (o,))
            if image[src.identity_at(o)] != tgt.identity_at(self.on_obj(o)):
                raise FunctorError("functor breaks the identity at %r" % (o,))
        for m2, m1 in generating_pairs(src):
            if image[src.compose_m(m2, m1)] != tgt.compose_m(image[m2], image[m1]):
                raise FunctorError("functor breaks composition on %r" % ((m2, m1),))

    def then(self, other):
        """other after self."""
        if not (
            self.target is other.source
            or self.target.objects == other.source.objects
        ):
            raise ValueError("functors do not compose: target != source")
        return GroupoidFunctor(
            self.source,
            other.target,
            lambda o: other.on_obj(self.on_obj(o)),
            lambda m: other.on_mor(self.on_mor(m)),
            check=False,
        )


def identity_functor(view):
    return GroupoidFunctor(view, view, lambda o: o, lambda m: m, check=False)


class GroupValuedFunctor:
    """Functor S -> BG packaged as a G-valued map on morphisms of S; its
    composition law is checked on generating_pairs, as GroupoidFunctor's."""

    def __init__(self, source, group, mor_map, check=True):
        self.source = source
        self.group = group
        self._mor_map = _as_fn(mor_map)
        if check:
            self.validate()

    def value(self, m):
        return self._mor_map(m)

    def validate(self):
        src, G = self.source, self.group
        for o in src.objects:
            if self.value(src.identity_at(o)) != G.identity:
                raise FunctorError("BG-functor nonzero on identity at %r" % (o,))
        for m in src.all_morphisms():
            G.check(self.value(m))
        value = self.value
        for m2, m1 in generating_pairs(src):
            if value(src.compose_m(m2, m1)) != G.add(value(m2), value(m1)):
                raise FunctorError("BG-functor breaks composition on %r" % ((m2, m1),))

    @classmethod
    def trivial(cls, source, group):
        return cls(source, group, lambda m: group.identity, check=False)

    def extensionally_equals(self, other):
        """Same source objects and equal values on the source's generating
        family morphism_sample() (a table's component stars): two functors
        that agree there agree on every morphism.  Both must be functors;
        one that is not can differ off the family unseen."""
        if self.group != other.group:
            return False
        if list(self.source.objects) != list(other.source.objects):
            return False
        return all(
            self.value(m) == other.value(m) for m in self.source.morphism_sample()
        )


# ---------------------------------------------------------------------------
# elementary builders


def delooping_bg(group):
    """BG: one object, morphisms the elements of the group."""
    b = TableBuilder()
    b.obj("*", group.identity)
    for g in group.elements():
        b.mor(g, "*", "*")
    t = b.build(group.op, lambda g, _: group.inv(g))
    t.group = group
    return t


def bg_self_functor(bg):
    """The tautological BG -> G valued functor (morphism labels are elements)."""
    return GroupValuedFunctor(
        bg, bg.group, lambda m: bg.morphism_labels[m], check=False
    )


def discrete_groupoid(labels_or_n):
    labels = (
        list(range(labels_or_n)) if isinstance(labels_or_n, int) else list(labels_or_n)
    )
    return discrete_table(labels)


def trivial_subgroupoid(view, d):
    """1{d}: the object d with its identity as only morphism."""
    return discrete_table([d])


def point_inclusion(view, d):
    """1{d} together with its inclusion into the ambient groupoid."""
    one = trivial_subgroupoid(view, d)
    inc = GroupoidFunctor(
        one,
        view,
        lambda o: d,
        lambda m: view.identity_at(d),
        check=False,
    )
    return one, inc


def coset_groupoid(group, subgroup_elements):
    """H\\G as the action groupoid of G on right cosets Hg; hom-sets are
    double cosets.  Cosets are canonicalized to their minimal element."""
    sub = sorted(set(subgroup_elements))
    if group.identity not in sub:
        raise ValueError("subgroup must contain the identity")
    for h1 in sub:
        if group.inv(h1) not in sub:
            raise ValueError("%r is not closed under inverses" % (sub,))
        for h2 in sub:
            if group.op(h1, h2) not in set(sub):
                raise ValueError("%r is not closed under the operation" % (sub,))

    def coset_of(x):
        return min(group.op(h, x) for h in sub)

    carrier = sorted({coset_of(x) for x in group.elements()})

    def act(rep, g):
        return coset_of(group.op(rep, g))

    ag = ActionGroupoid(group, carrier, act)
    ag.coset_of = coset_of
    ag.subgroup = sub
    return ag


# ---------------------------------------------------------------------------
# homotopy pullbacks


# the pullback groupoid and its projections to M1 and M2
PullbackResult = namedtuple("PullbackResult", "groupoid p1 p2")


def slot_projection(table, view, i):
    """The functor table -> view reading slot i of the slot tuple labels."""
    obj, mor = table.object_labels, table.morphism_labels
    return GroupoidFunctor(
        table, view, lambda o: obj[o][i], lambda m: mor[m][i], check=False
    )


def _action_members(view):
    if isinstance(view, ActionGroupoid):
        return None  # bare action legs are wrapped by callers that want lazy
    if isinstance(view, DisjointUnion) and all(
        isinstance(m, ActionGroupoid) for m in view.members
    ):
        return view.members
    return None


def homotopy_pullback(r1, l2):
    """Homotopy pullback of the cospan r1: M1 -> T <- M2 : l2.

    Returns a PullbackResult whose groupoid has objects (a1, t, a2).  Uses an
    explicit table when the legs enumerate (refused past size_guard()
    morphisms), and stays lazy (disjoint union of factorized product strata,
    objects (stratum, (a1, t, a2))) over a discrete T with action legs.
    """
    T = r1.target
    if (
        T.is_discrete
        and _action_members(r1.source) is not None
        and _action_members(l2.source) is not None
    ):
        return _lazy_discrete_pullback(r1, l2)
    return _table_pullback(r1, l2)


def _table_pullback(r1, l2):
    bound = size_guard()
    M1, M2, T = r1.source, l2.source, r1.target
    l2_objs = [(a2, l2.on_obj(a2)) for a2 in M2.objects]
    homs = {}  # a1 -> {a2: T(R1 a1, L2 a2)}, each looked up once
    b = TableBuilder()
    for a1 in M1.objects:
        ra1 = r1.on_obj(a1)
        row = homs[a1] = {a2: T.hom(ra1, la2) for a2, la2 in l2_objs}
        for a2, ts in row.items():
            for t in ts:
                b.obj((a1, t, a2), (M1.identity_at(a1), t, M2.identity_at(a2)))
    legs2 = [
        (m2, l2.on_mor(m2), M2.source_of(m2), M2.target_of(m2))
        for m2 in M2.all_morphisms()
    ]
    count = 0
    for m1 in M1.all_morphisms():
        rm1_inv = T.inverse_m(r1.on_mor(m1))
        s1, t1 = M1.source_of(m1), M1.target_of(m1)
        row = homs[s1]
        for m2, lm2, s2, t2 in legs2:
            for t in row[s2]:
                u = T.compose_m(T.compose_m(lm2, t), rm1_inv)
                count += 1
                if count > bound:
                    raise SizeGuardError(count, bound)
                b.mor((m1, t, m2), (s1, t, s2), (t1, u, t2))
    g = b.build(*slotwise((M1, None, M2)))
    return PullbackResult(g, slot_projection(g, M1, 0), slot_projection(g, M2, 2))


def _level_factors(functor, members):
    """Per member i of the source union, {d: ActionFactor of i's level set
    over d}.  The leg is constant on orbits (T is discrete), so each level
    set is action-closed; a member lying over one d is its own factor."""
    out = []
    for i, member in enumerate(members):
        levels = {}
        for x in member.carrier:
            levels.setdefault(functor.on_obj((i, x)), []).append(x)
        out.append({
            d: ActionFactor(
                i,
                member if len(xs) == len(member.carrier)
                else member.full_subgroupoid(xs),
            )
            for d, xs in levels.items()
        })
    return out


def _lazy_discrete_pullback(r1, l2):
    """Pullback over a discrete T where both legs are unions of action
    groupoids.  Stratum (i, j, d) is X1 x X2 // (G1 x G2) for the level sets
    X1 of member i over d and X2 of member j over d, kept factorized as a
    ProductActionGroupoid: its components, |Aut| and chi come from the factor
    orbits, and no product carrier is built.  Each factor is made once per
    (member, d) and shared by every stratum it belongs to."""
    M1, M2, T = r1.source, l2.source, r1.target
    factors1 = _level_factors(r1, M1.members)
    factors2 = _level_factors(l2, M2.members)
    strata = []
    for by_d1 in factors1:
        for by_d2 in factors2:
            for d in T.objects:
                if d in by_d1 and d in by_d2:
                    strata.append(
                        ProductActionGroupoid(by_d1[d], by_d2[d], T.identity_at(d))
                    )
    union = DisjointUnion(strata)
    p1 = GroupoidFunctor(
        union,
        M1,
        lambda o: o[1][0],
        lambda m: (m[1][0][0][0], (m[1][0][0][1], m[1][1][0])),
        check=False,
    )
    p2 = GroupoidFunctor(
        union,
        M2,
        lambda o: o[1][2],
        lambda m: (m[1][0][2][0], (m[1][0][2][1], m[1][1][1])),
        check=False,
    )
    return PullbackResult(union, p1, p2)


# ---------------------------------------------------------------------------
# homotopy fibres (built directly; spot-checked against the generic pullback)


def left_fibre(l, c):
    """c\\M for l: M -> S: objects (a, s) with s in S(c, La); a morphism
    (m, s) acts by (a1, s) -> (a2, L(m) o s)."""
    M, S = l.source, l.target
    b = TableBuilder()
    for a in M.objects:
        for s in S.hom(c, l.on_obj(a)):
            b.obj((a, s), (M.identity_at(a), s))
    for m in M.all_morphisms():
        a1, a2 = M.source_of(m), M.target_of(m)
        lm = l.on_mor(m)
        for s in S.hom(c, l.on_obj(a1)):
            b.mor((m, s), (a1, s), (a2, S.compose_m(lm, s)))
    return b.build(*slotwise((M, None)))


def right_fibre(r, d):
    """M/d for r: M -> T: objects (a, t) with t in T(Ra, d); a morphism
    (m, t) acts by (a1, t) -> (a2, t o R(m)^-1)."""
    M, T = r.source, r.target
    b = TableBuilder()
    for a in M.objects:
        for t in T.hom(r.on_obj(a), d):
            b.obj((a, t), (M.identity_at(a), t))
    for m in M.all_morphisms():
        a1, a2 = M.source_of(m), M.target_of(m)
        rm_inv = T.inverse_m(r.on_mor(m))
        for t in T.hom(r.on_obj(a1), d):
            b.mor((m, t), (a1, t), (a2, T.compose_m(t, rm_inv)))
    return b.build(*slotwise((M, None)))


def two_sided_fibre(l, r, c, d):
    """c\\M/d: objects (a, s, t); a morphism (m, s, t) acts by
    (a1, s, t) -> (a2, L(m) o s, t o R(m)^-1)."""
    M, S, T = l.source, l.target, r.target
    b = TableBuilder()
    for a in M.objects:
        la, ra = l.on_obj(a), r.on_obj(a)
        for s in S.hom(c, la):
            for t in T.hom(ra, d):
                b.obj((a, s, t), (M.identity_at(a), s, t))
    for m in M.all_morphisms():
        a1, a2 = M.source_of(m), M.target_of(m)
        lm = l.on_mor(m)
        rm_inv = T.inverse_m(r.on_mor(m))
        for s in S.hom(c, l.on_obj(a1)):
            s2 = S.compose_m(lm, s)
            for t in T.hom(r.on_obj(a1), d):
                b.mor((m, s, t), (a1, s, t), (a2, s2, T.compose_m(t, rm_inv)))
    return b.build(*slotwise((M, None, None)))


def two_sided_pullback(r1, l, r, l2):
    """P x_S M x_T Q for P -R1-> S <-L- M -R-> T <-L2- Q: objects
    (x, a, y, s, t); a morphism (u, m, v, s, t) is a triple (u, m, v) of
    morphisms at the source (x1, a1, y1, s, t), whose target's s and t make
    the evident squares commute in S and T."""
    P, S, M, T, Q = r1.source, r1.target, l.source, r.target, l2.source
    b = TableBuilder()
    for x in P.objects:
        for a in M.objects:
            for s in S.hom(r1.on_obj(x), l.on_obj(a)):
                for y in Q.objects:
                    for t in T.hom(r.on_obj(a), l2.on_obj(y)):
                        ident = (P.identity_at(x), M.identity_at(a), Q.identity_at(y))
                        b.obj((x, a, y, s, t), ident + (s, t))
    for u in P.all_morphisms():
        r1u_inv = S.inverse_m(r1.on_mor(u))
        for m in M.all_morphisms():
            lm = l.on_mor(m)
            rm_inv = T.inverse_m(r.on_mor(m))
            for v in Q.all_morphisms():
                l2v = l2.on_mor(v)
                x1, x2 = P.source_of(u), P.target_of(u)
                a1, a2 = M.source_of(m), M.target_of(m)
                y1, y2 = Q.source_of(v), Q.target_of(v)
                for s in S.hom(r1.on_obj(x1), l.on_obj(a1)):
                    s2 = S.compose_m(S.compose_m(lm, s), r1u_inv)
                    for t in T.hom(r.on_obj(a1), l2.on_obj(y1)):
                        t2 = T.compose_m(T.compose_m(l2v, t), rm_inv)
                        b.mor(
                            (u, m, v, s, t),
                            (x1, a1, y1, s, t),
                            (x2, a2, y2, s2, t2),
                        )
    return b.build(*slotwise((P, M, Q, None, None)))


# ---------------------------------------------------------------------------
# Grothendieck constructions


class SetValuedFunctor:
    """Set-valued functor on a groupoid view: a finite set per object and a
    bijective transport per morphism (validated as GroupoidFunctor is)."""

    def __init__(self, base, value_sets, transport, check=True):
        self.base = base
        self.value_sets = _as_fn(value_sets)
        self._transport = transport if callable(transport) else transport.__getitem__
        if check:
            self.validate()

    def transport(self, m):
        t = self._transport(m)
        return t if callable(t) else t.__getitem__

    def validate(self):
        base = self.base
        for o in base.objects:
            ident = self.transport(base.identity_at(o))
            for x in self.value_sets(o):
                if ident(x) != x:
                    raise FunctorError("transport of identity moves %r" % (x,))
        for m in base.all_morphisms():
            f = self.transport(m)
            image = [f(x) for x in self.value_sets(base.source_of(m))]
            tgt_set = set(self.value_sets(base.target_of(m)))
            if len(set(image)) != len(image) or set(image) - tgt_set:
                raise FunctorError("transport of %r is not a bijection" % (m,))
        for m2, m1 in generating_pairs(base):
            f1, f2 = self.transport(m1), self.transport(m2)
            f21 = self.transport(base.compose_m(m2, m1))
            if any(f21(x) != f2(f1(x)) for x in self.value_sets(base.source_of(m1))):
                raise FunctorError("transport breaks composition on %r" % ((m2, m1),))


def grothendieck(sv):
    """Category of elements of a set-valued functor: objects (a, x) with
    x in X(a), morphisms m: (a1, x1) -> (a2, transport(m)(x1))."""
    base = sv.base
    b = TableBuilder()
    for a in base.objects:
        for x in sv.value_sets(a):
            b.obj((a, x), (base.identity_at(a), x))
    for m in base.all_morphisms():
        a1, a2 = base.source_of(m), base.target_of(m)
        f = sv.transport(m)
        for x in sv.value_sets(a1):
            b.mor((m, x), (a1, x), (a2, f(x)))
    return b.build(*slotwise((base, None)))


def grothendieck_chi_by_weighting(sv):
    """chi of the category of elements via a weighting on the base:
    chi(int X) = sum_a k^a |X(a)|."""
    k = weighting(sv.base)
    return sum(
        (k[a] * len(list(sv.value_sets(a))) for a in sv.base.objects), Fraction(0)
    )


# ---------------------------------------------------------------------------
# the pullback Euler-characteristic identity


def pullback_euler_check(r1, l2):
    """Both sides of chi(M1 x_T M2) = sum_d chi(M1/d) chi(T{d}) chi(d\\M2)."""
    T = r1.target
    lhs = homotopy_pullback(r1, l2).groupoid.chi()
    rhs = Fraction(0)
    for d in T.component_reps():
        rhs += (
            right_fibre(r1, d).chi()
            * Fraction(1, T.aut_order(d))
            * left_fibre(l2, d).chi()
        )
    return lhs, rhs
