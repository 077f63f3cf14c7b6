"""Groupoid-building recipes: deloopings, cosets, homotopy pullbacks, fibres,
two-sided pullbacks, and Grothendieck constructions of set-valued functors.

The homotopy pullback of M1 --R--> T <--L-- M2 has objects (a1, t, a2) with
t in T(R a1, L a2); a morphism (m1, m2) : (a1,t,a2) -> (b1,u,b2) requires
u o R(m1) = L(m2) o t in T.  homotopy_pullback returns it for every cospan
as one lazy PullbackView whose objects are those triples and whose morphism
handles are the triples (m1, t, m2), composed slotwise; the projections p1,
p2 read slots 0 and 2.  Its representatives and their |Aut| come from the
double cosets L(Aut r2) \\ T(R r1, L r2) / R(Aut r1), over representatives
r1 of M1 and r2 of M2, for every T, without listing its objects; its
components come from a search over its moves; materialize(view) is the
explicit table, guarded by its morphism count.  The one-sided fibres
c\\M = 1{c} x_S M and M/d = M x_T 1{d} and the two-sided pullback
(P x_S M) x_T Q are pullback views too.  The two-sided fibre c\\M/d and
the Grothendieck constructions are tables labelled by slot tuples, with
compose/inverse entries filled on demand by the one slot law, slotwise: an
object label has its morphism labels' slot layout, with each view slot
holding an object where a morphism label holds a morphism.

The functors check their composition law on groupoid.generating_pairs of
the source, which is complete, and every other law on every morphism.
"""

from collections import namedtuple
from fractions import Fraction
from operator import itemgetter

from gspans.groupoid import (
    ActionGroupoid,
    DisjointUnion,
    GroupoidView,
    Subgroup,
    TableBuilder,
    discrete_table,
    generating_pairs,
    slotwise,
    symmetric_family,
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
    member_objects is set by constant_on_members only.
    """

    def __init__(self, source, target, obj_map, mor_map, check=True):
        self.source = source
        self.target = target
        self.on_obj = _as_fn(obj_map)
        self.on_mor = _as_fn(mor_map)
        self.member_objects = None  # one target object per member, or None
        if check:
            self.validate()

    @classmethod
    def constant_on_members(cls, union, target, objects):
        """The functor from a DisjointUnion that sends every object of
        member i to objects[i] and every morphism of member i to that
        object's identity.  Its maps read only the member index, so it is
        constant on each member by construction, and a functor: a morphism
        of member i goes between objects of member i, and id o id = id.  So
        it is not walked; FunctorError if the objects do not fit the union
        or the target."""
        if not isinstance(union, DisjointUnion):
            raise FunctorError("constant_on_members needs a DisjointUnion")
        objects = list(objects)
        if len(objects) != len(union.members):
            raise FunctorError(
                "%d objects for %d members" % (len(objects), len(union.members))
            )
        outside = set(objects) - set(target.objects)
        if outside:
            raise FunctorError(
                "objects outside the target: %r" % sorted(outside, key=repr)
            )
        ids = [target.identity_at(x) for x in objects]
        f = cls(
            union,
            target,
            lambda o: objects[o[0]],
            lambda m: ids[m[0]],
            check=False,
        )
        f.member_objects = objects
        return f

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
    composition law is checked on generating_pairs, as GroupoidFunctor's.
    value is the given map itself, so reading it adds no call.  validate()
    marks it checked, so a check made where it is built (or by
    compose_spans, once) is not repeated."""

    def __init__(self, source, group, mor_map, check=True):
        self.source = source
        self.group = group
        self.value = _as_fn(mor_map)
        self.checked = False
        if check:
            self.validate()

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
        self.checked = True

    @classmethod
    def trivial(cls, source, group):
        """m -> 0, a functor to BG on every source (0 + 0 = 0), so checked."""
        f = cls(source, group, lambda m: group.identity, check=False)
        f.checked = True
        return f

    @classmethod
    def projection(cls, view, group):
        """m -> m[1] on an action groupoid X//G of the given group G, so
        checked: ActionGroupoid.compose_m multiplies the group parts,
        (y, g2) o (x, g1) = (x, g2 g1), an identity is (x, 0), and every
        value is an element of G.  FunctorError for any other view."""
        if not isinstance(view, ActionGroupoid) or view.group != group:
            raise FunctorError(
                "projection needs an action groupoid of %r, got %r" % (group, view)
            )
        f = cls(view, group, itemgetter(1), check=False)
        f.checked = True
        return f

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
    double cosets.  H is checked to be a subgroup: it holds the identity and
    the inverses of its elements, and the closure of its greedy generators
    (Subgroup.is_closed) adds nothing to it.  Cosets are canonicalized to
    their minimal element into one table that coset_of and the action read,
    one coset at a time: each element of G not yet in the table gives its
    coset Hx and one min, so building takes |G| products."""
    subgroup = Subgroup(group, subgroup_elements)
    sub = subgroup.elements()
    members = set(sub)
    if any(group.inv(h) not in members for h in sub):
        raise ValueError("%r is not closed under inverses" % (sub,))
    if not subgroup.is_closed():
        raise ValueError("%r is not closed under the operation" % (sub,))

    canonical = {}
    for x in group.elements():
        if x not in canonical:
            coset = [group.op(h, x) for h in sub]
            least = min(coset)
            for y in coset:
                canonical[y] = least
    coset_of = canonical.__getitem__
    carrier = sorted(set(canonical.values()))

    def act(rep, g):
        return canonical[group.op(rep, g)]

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


class PullbackView(GroupoidView):
    """The homotopy pullback of the cospan r1: M1 -> T <- M2 : l2, kept lazy.

    Objects are the triples (a1, t, a2) with t in T(R1 a1, L2 a2), and a
    morphism handle (m1, t, m2) sits at the source (a1, t, a2) of m1 and m2;
    its target is (b1, L2(m2) t R1(m1)^-1, b2).  Objects are enumerated
    a1, a2, t and handles m1, m2, t, so materialize(view) is the table
    pullback with its ids.  Composition is slotwise, keeping the first
    factor's t: (n1, u, n2) o (m1, t, m2) = (n1 o m1, t, n2 o m2).

    pi0 and |Aut| at the representatives come from one double-coset pass,
    for every T, that never lists the objects.  For representatives r1 of
    M1 and r2 of M2 whose legs land in one component of T, Aut(r1) x
    Aut(r2) acts on T(R1 r1, L2 r2) by t -> L2(m2) t R1(m1)^-1, and:
    - every (a1, t, a2) is isomorphic to an object over (r1, r2), the
      representatives of a1's and a2's components: for m1: a1 -> r1 and
      m2: a2 -> r2, (m1, t, m2) goes to (r1, L2(m2) t R1(m1)^-1, r2);
    - a morphism between two objects over (r1, r2) is some (m1, t, m2)
      with m1 in Aut(r1) and m2 in Aut(r2), so they are isomorphic exactly
      when their t lie in one orbit, and Aut(r1, t, r2) is the stabilizer
      of t, of order |Aut r1| |Aut r2| / |orbit|;
    - a component's first object in enumeration order (a1, a2, t) is
      (r1, least t of its orbit, r2), since r1 and r2 are the first objects
      of their components.
    So the pass, over r1 in M1's order, r2 in M2's order and each orbit's
    least t in T.hom order, yields the search's representatives in the
    search's order.  It reads T(x, y) once per pair of objects x, y of T,
    and the legs' images of Aut(r1) and Aut(r2) only where an orbit can
    have more than one point.  Over a discrete T a non-empty T(x, y) is
    T(x, x) = {id_x}, so a representative is a pair of the factors' and
    |Aut| multiplies.  The pass is one generator, representatives(), that
    yields (r1, t, r2, |Aut|) and stores nothing per component: a
    composite's span matrix reads each component once from it, with the
    factors' rows, and never holds the list (gspan._composite_keys).  The
    list of representatives is built from it once, only when
    component_reps() needs it; aut_order multiplies the factors' orders
    over a discrete T and counts hom(o, o) over any other.
    components(), component_rep(o) and the generating family need every
    object: a search over the moves (s, t, id) and (id, t, s), for s in
    M1's and M2's generating families and their inverses, finds the
    components, each represented by its first object, and keeps its tree
    without composing along it.  The generating family is the component
    stars of that search: all of Aut(r) and the search-tree path r -> x for
    every other object x, composed only there, each with the endpoints the
    search found.
    """

    def __init__(self, r1, l2):
        self.r1, self.l2 = r1, l2
        self.M1, self.M2, self.T = r1.source, l2.source, r1.target
        self._discrete = self.T.is_discrete
        self._objects = None
        self._reps = None
        self._search = None
        self._family = None

    # -- handles -------------------------------------------------------------

    def _object_list(self):
        if self._objects is None:
            M2, T, l2 = self.M2, self.T, self.l2
            legs2 = [(a2, l2.on_obj(a2)) for a2 in M2.objects]
            self._objects = [
                (a1, t, a2)
                for a1 in self.M1.objects
                for ra1 in (self.r1.on_obj(a1),)
                for a2, la2 in legs2
                for t in T.hom(ra1, la2)
            ]
        return self._objects

    @property
    def objects(self):
        return list(self._object_list())

    def identity_at(self, o):
        a1, t, a2 = o
        return (self.M1.identity_at(a1), t, self.M2.identity_at(a2))

    def source_of(self, m):
        m1, t, m2 = m
        return (self.M1.source_of(m1), t, self.M2.source_of(m2))

    def _target_t(self, m):
        """The t slot L2(m2) t R1(m1)^-1 of the target of m = (m1, t, m2)."""
        m1, t, m2 = m
        T = self.T
        return T.compose_m(
            T.compose_m(self.l2.on_mor(m2), t), T.inverse_m(self.r1.on_mor(m1))
        )

    def target_of(self, m):
        return (self.M1.target_of(m[0]), self._target_t(m), self.M2.target_of(m[2]))

    def compose_m(self, m2, m1):
        """m2 after m1, slotwise: M1 and M2 refuse slots that do not compose,
        and the t of m2 must be the target t of m1."""
        if m2[1] != self._target_t(m1):
            raise ValueError("compose of non-composable pair %r" % ((m2, m1),))
        return (
            self.M1.compose_m(m2[0], m1[0]), m1[1], self.M2.compose_m(m2[2], m1[2])
        )

    def inverse_m(self, m):
        return (self.M1.inverse_m(m[0]), self._target_t(m), self.M2.inverse_m(m[2]))

    def hom(self, a, b):
        """The (m1, t, m2) with m1 in M1(a1, b1), m2 in M2(a2, b2) and
        L2(m2) t = u R1(m1), for a = (a1, t, a2) and b = (b1, u, b2)."""
        (a1, t, a2), (b1, u, b2) = a, b
        T = self.T
        legs2 = [
            (m2, T.compose_m(self.l2.on_mor(m2), t)) for m2 in self.M2.hom(a2, b2)
        ]
        out = []
        for m1 in self.M1.hom(a1, b1):
            v = T.compose_m(u, self.r1.on_mor(m1))
            out.extend((m1, t, m2) for m2, w in legs2 if w == v)
        return out

    def hom_size(self, a, b):
        return len(self.hom(a, b))

    def all_morphisms(self):
        """Every handle, enumerated lazily in the order m1, m2, t.  The pairs
        (m2, t) with t in T(R1 a1, L2 a2) are listed once per value of
        R1(a1), so over a discrete T each m1 meets only the m2 on its level."""
        M1, M2, T = self.M1, self.M2, self.T
        legs2 = [(m2, self.l2.on_obj(M2.source_of(m2))) for m2 in M2.all_morphisms()]
        over = {}  # R1(a1) -> [(m2, t)]
        for m1 in M1.all_morphisms():
            ra1 = self.r1.on_obj(M1.source_of(m1))
            if ra1 not in over:
                over[ra1] = [(m2, t) for m2, la2 in legs2 for t in T.hom(ra1, la2)]
            for m2, t in over[ra1]:
                yield (m1, t, m2)

    # -- invariants ----------------------------------------------------------

    def _searched(self):
        """Components as sorted position lists, ordered by first position,
        each object's component number, and the search tree: a search along
        the moves (s, t, id) and (id, t, s) with s in the symmetric family
        of M1 and of M2, which generate the pullback and reach every object
        of a component from any of its objects.  The tree is the list of
        (x, y, move), in the order the search reached each object y other
        than a representative, from the position x of the object it was
        reached from along move; it composes nothing, generating_family
        makes the paths."""
        if self._search is None:
            M1, M2, T = self.M1, self.M2, self.T
            out1, out2 = {}, {}
            for s in symmetric_family(M1):
                out1.setdefault(M1.source_of(s), []).append(
                    (s, M1.target_of(s), T.inverse_m(self.r1.on_mor(s)))
                )
            for s in symmetric_family(M2):
                out2.setdefault(M2.source_of(s), []).append(
                    (s, M2.target_of(s), self.l2.on_mor(s))
                )
            objs = self._object_list()
            index = {o: i for i, o in enumerate(objs)}
            comp_of = [None] * len(objs)
            comps, tree = [], []
            for i, o in enumerate(objs):
                if comp_of[i] is not None:
                    continue
                k = comp_of[i] = len(comps)
                comp = [i]
                for j in comp:  # grows as the search reaches new objects
                    a1, t, a2 = objs[j]
                    steps = [
                        ((s, t, M2.identity_at(a2)), (y1, T.compose_m(t, rinv), a2))
                        for s, y1, rinv in out1.get(a1, ())
                    ] + [
                        ((M1.identity_at(a1), t, s), (a1, T.compose_m(ls, t), y2))
                        for s, y2, ls in out2.get(a2, ())
                    ]
                    for move, y in steps:
                        n = index[y]
                        if comp_of[n] is None:
                            comp_of[n] = k
                            tree.append((j, n, move))
                            comp.append(n)
                comps.append(sorted(comp))
            self._search = comps, comp_of, index, tree
        return self._search

    def components(self):
        """Components, each in enumeration order, ordered by their first
        object, the representative."""
        objs = self._object_list()
        return [[objs[i] for i in c] for c in self._searched()[0]]

    def component_reps(self):
        """The pass's representatives as a list, made once."""
        if self._reps is None:
            self._reps = [(a, t, b) for a, t, b, _ in self.representatives()]
        return list(self._reps)

    def representatives(self):
        """Yield (r1, t, r2, |Aut|) for each component, in the search's
        order, from one pass over pairs of the factors' representatives (see
        the class docstring).  Nothing is stored per component: a caller
        that reads each component once, such as a composite's _fibre_chi,
        never holds the list.  |Aut r2| and each row of hom-sets are read
        once, and the legs' images of Aut(r1) and Aut(r2) only where an
        orbit can have two points."""
        M1, M2, T = self.M1, self.M2, self.T
        part = (lambda y: y) if self._discrete else T.component_rep
        over = {}  # component of T -> [(r2, L2 r2, |Aut r2|)], in M2's order
        for b in M2.component_reps():
            y = self.l2.on_obj(b)
            over.setdefault(part(y), []).append((b, y, M2.aut_order(b)))
        rows = {}  # x -> [(r2, |Aut r2|, T(x, L2 r2))] over x's component
        images = {}  # r2 -> L2(Aut r2), read once an orbit needs it
        for a in M1.component_reps():
            x = self.r1.on_obj(a)
            row = rows.get(x)
            if row is None:
                group = over.get(part(x), ())
                homs = {y: T.hom(x, y) for y in {y for _, y, _ in group}}
                row = rows[x] = [(b, n2, homs[y]) for b, y, n2 in group]
            n1, image1 = M1.aut_order(a), None
            for b, n2, hom in row:
                n = n1 * n2
                if n == 1 or len(hom) == 1:  # no orbit has two points
                    for t in hom:
                        yield a, t, b, n
                    continue
                if image1 is None:
                    image1 = _aut_image(self.r1, a)
                if b not in images:
                    images[b] = _aut_image(self.l2, b)
                seen = set()
                for t in hom:
                    if t not in seen:
                        orbit = {
                            T.compose_m(u, tr)
                            for tr in {T.compose_m(t, r) for r in image1}
                            for u in images[b]
                        }
                        seen |= orbit
                        yield a, t, b, n // len(orbit)

    def component_rep(self, o):
        comps, comp_of, index, _ = self._searched()
        return self._object_list()[comps[comp_of[index[o]]][0]]

    def aut_order(self, o):
        """Over a discrete T the factors' orders multiply; otherwise
        hom_size(o, o)."""
        if self._discrete:
            return self.M1.aut_order(o[0]) * self.M2.aut_order(o[2])
        return self.hom_size(o, o)

    def generating_family(self):
        """The component stars: at each representative r, all of Aut(r),
        each r -> r, then the search-tree morphism r -> x for every other
        object x of its component in enumeration order, endpoints as the
        search found them.  Any x -> y is star(y) a star(x)^-1 with a in
        Aut(r), so the stars generate.  The path to y is the move that
        reached y after the path to the object it was reached from, composed
        here, in the search's order, once per object.  Made once and
        cached."""
        if self._family is None:
            comps, _, _, tree = self._searched()
            objs = self._object_list()
            path = [None] * len(objs)
            for comp in comps:
                path[comp[0]] = self.identity_at(objs[comp[0]])
            for x, y, move in tree:
                path[y] = self.compose_m(move, path[x])
            family = []
            for comp in comps:
                r = objs[comp[0]]
                family.extend((a, r, r) for a in self.hom(r, r))
                family.extend((path[i], r, objs[i]) for i in comp[1:])
            self._family = tuple(family)
        return self._family


def _aut_image(functor, a):
    """The distinct images of Aut(a) under functor, a subgroup of the
    automorphisms of its image object."""
    return list(dict.fromkeys(functor.on_mor(m) for m in functor.source.hom(a, a)))


def homotopy_pullback(r1, l2):
    """Homotopy pullback of the cospan r1: M1 -> T <- M2 : l2, as a
    PullbackView with its projections to M1 and M2 (slots 0 and 2)."""
    view = PullbackView(r1, l2)
    first, last = itemgetter(0), itemgetter(2)
    return PullbackResult(
        view,
        GroupoidFunctor(view, r1.source, first, first, check=False),
        GroupoidFunctor(view, l2.source, last, last, check=False),
    )


# ---------------------------------------------------------------------------
# homotopy fibres and two-sided pullbacks


def left_fibre(l, c):
    """c\\M = 1{c} x_S M for l: M -> S, as a PullbackView: objects (0, s, a)
    with s in S(c, La), enumerated a then s; a morphism (id, s, m) acts by
    (0, s, a1) -> (0, L(m) o s, a2)."""
    return homotopy_pullback(point_inclusion(l.target, c)[1], l).groupoid


def right_fibre(r, d):
    """M/d = M x_T 1{d} for r: M -> T, as a PullbackView: objects (a, t, 0)
    with t in T(Ra, d), enumerated a then t; a morphism (m, t, id) acts by
    (a1, t, 0) -> (a2, t o R(m)^-1, 0)."""
    return homotopy_pullback(r, point_inclusion(r.target, d)[1]).groupoid


def two_sided_fibre(l, r, c, d):
    """c\\M/d = (1{c} x_S M) x_T 1{d}, built directly as one table: objects
    (a, s, t); a morphism (m, s, t) acts by
    (a1, s, t) -> (a2, L(m) o s, t o R(m)^-1).  It is the fibre of the CLI's
    "fibre" documents, and the tests' oracle for labeled_fibre, which
    searches its components without building it, and for the 2-cell fibre
    map.  As nested views it would take about twice as long."""
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
    """P x_S M x_T Q = (P x_S M) x_T Q for P -R1-> S <-L- M -R-> T <-L2- Q,
    as nested PullbackViews: objects ((x, s, a), t, y), enumerated x, a, s,
    y, t, and morphisms ((u, s, m), t, v)."""
    return homotopy_pullback(homotopy_pullback(r1, l).p2.then(r), l2).groupoid


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
