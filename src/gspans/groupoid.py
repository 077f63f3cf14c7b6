"""Finite groupoids in two interchangeable representations.

TableGroupoid stores explicit composition tables; object and morphism ids are
opaque non-negative integers, with optional decode labels so constructed
objects (pullback triples, fibre pairs) stay inspectable.  ActionGroupoid is
the lazy form X//G of a right group action: components are orbits and
automorphism group orders come from orbit-stabilizer, so the large examples
never materialize their hom-sets.

Composition convention: compose(m2, m1) means "m2 after m1".  In X//G the
hom-set (x1 -> x2) is {g : x2.g = x1}, so the morphism handle (x1, g) has
source x1 and target x1.g^-1, and (x1,g1) followed by (y1,g2) is (x1, g2*g1).

Everything is immutable after construction and all analyses are pure; the
hom index, component partition, and orbit partition are lazily cached, so
prime them (call components() once) before sharing a groupoid across threads.
"""

import itertools
import math
import os
from fractions import Fraction


DEFAULT_SIZE_GUARD = 20000


def size_guard():
    """Materialization guard (number of morphisms); env-overridable."""
    v = os.environ.get("GSPANS_SIZE_GUARD")
    return int(v) if v else DEFAULT_SIZE_GUARD


class SizeGuardError(RuntimeError):
    def __init__(self, requested, bound):
        super().__init__(
            "materialization of %d morphisms exceeds the size guard %d "
            "(set GSPANS_SIZE_GUARD to raise it)" % (requested, bound)
        )
        self.requested = requested
        self.bound = bound


# ---------------------------------------------------------------------------
# acting groups (duck-typed: identity, op, inv, order, elements, generators)


def pcompose(a, b):
    """a after b on tuples: (a o b)[i] = a[b[i]]."""
    return tuple(a[i] for i in b)


def pinverse(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


class SymmetricGroup:
    """All permutations of {0..n-1} as image tuples; op is composition."""

    def __init__(self, n):
        self.n = n
        self.identity = tuple(range(n))
        self.order = math.factorial(n)

    def op(self, a, b):
        return pcompose(a, b)

    def inv(self, a):
        return pinverse(a)

    def elements(self):
        return [tuple(p) for p in itertools.permutations(range(self.n))]

    def generators(self):
        n = self.n
        if n < 2:
            return []
        swap = (1, 0) + tuple(range(2, n))
        cycle = tuple(range(1, n)) + (0,)
        return [swap] if n == 2 else [swap, cycle]

    def __repr__(self):
        return "SymmetricGroup(%d)" % self.n


class ProductGroup:
    """Direct product; elements are pairs."""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.identity = (left.identity, right.identity)
        self.order = left.order * right.order

    def op(self, a, b):
        return (self.left.op(a[0], b[0]), self.right.op(a[1], b[1]))

    def inv(self, a):
        return (self.left.inv(a[0]), self.right.inv(a[1]))

    def elements(self):
        return [
            (x, y) for x in self.left.elements() for y in self.right.elements()
        ]

    def generators(self):
        le, re = self.left.identity, self.right.identity
        return [(g, re) for g in self.left.generators()] + [
            (le, g) for g in self.right.generators()
        ]

    def __repr__(self):
        return "ProductGroup(%r, %r)" % (self.left, self.right)


class Subgroup:
    """A subgroup of an ambient group, given by its element set."""

    def __init__(self, ambient, elements):
        els = sorted(set(elements))
        self.ambient = ambient
        self._elements = els
        self.identity = ambient.identity
        assert self.identity in els, "subgroup must contain the identity"
        self.order = len(els)

    def op(self, a, b):
        return self.ambient.op(a, b)

    def inv(self, a):
        return self.ambient.inv(a)

    def elements(self):
        return list(self._elements)

    def generators(self):
        return [g for g in self._elements if g != self.identity]

    def __repr__(self):
        return "Subgroup(%r, %d elements)" % (self.ambient, self.order)


# ---------------------------------------------------------------------------
# explicit tables


class TableGroupoid:
    """Finite groupoid as explicit tables over integer ids."""

    def __init__(
        self,
        objects,
        source,
        target,
        identity,
        compose,
        inverse,
        object_labels=None,
        morphism_labels=None,
    ):
        self.objects = list(objects)
        self.source = dict(source)
        self.target = dict(target)
        self.identity = dict(identity)
        self.compose = dict(compose)
        self.inverse = dict(inverse)
        self.object_labels = dict(object_labels or {})
        self.morphism_labels = dict(morphism_labels or {})
        self._hom = None
        self._components = None
        self._rep_of = None

    # -- basic access ------------------------------------------------------

    @property
    def morphisms(self):
        return list(self.source)

    def identity_at(self, o):
        return self.identity[o]

    def source_of(self, m):
        return self.source[m]

    def target_of(self, m):
        return self.target[m]

    def compose_m(self, m2, m1):
        return self.compose[(m2, m1)]

    def inverse_m(self, m):
        return self.inverse[m]

    def _hom_index(self):
        if self._hom is None:
            hom = {}
            for m, s in self.source.items():
                hom.setdefault((s, self.target[m]), []).append(m)
            for v in hom.values():
                v.sort()
            self._hom = hom
        return self._hom

    def hom(self, a, b):
        return list(self._hom_index().get((a, b), []))

    def hom_size(self, a, b):
        return len(self._hom_index().get((a, b), []))

    @property
    def is_discrete(self):
        return len(self.source) == len(self.objects)

    def morphism_sample(self):
        """A generating family of morphisms (here: all of them)."""
        return self.morphisms

    def all_morphisms(self):
        return self.morphisms

    # -- invariants ----------------------------------------------------------

    def components(self):
        """Connected components, each sorted, ordered by minimal object id."""
        return [list(c) for c in self._component_lists()]

    def _component_lists(self):
        if self._components is None:
            parent = {o: o for o in self.objects}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for m, s in self.source.items():
                a, b = find(s), find(self.target[m])
                if a != b:
                    parent[a] = b
            comps = {}
            for o in self.objects:
                comps.setdefault(find(o), []).append(o)
            out = [sorted(c) for c in comps.values()]
            out.sort(key=lambda c: c[0])
            self._components = out
        return self._components

    def component_reps(self):
        return [c[0] for c in self._component_lists()]

    def component_rep(self, o):
        """The canonical representative of o's component."""
        if self._rep_of is None:
            self._rep_of = {
                x: c[0] for c in self._component_lists() for x in c
            }
        return self._rep_of[o]

    def aut_order(self, o):
        return self.hom_size(o, o)

    def chi(self):
        return sum(
            (Fraction(1, self.aut_order(c[0])) for c in self.components()),
            Fraction(0),
        )

    # -- construction --------------------------------------------------------

    def full_subgroupoid(self, objs):
        objs = [o for o in self.objects if o in set(objs)]
        keep = set(objs)
        mids = [
            m
            for m, s in self.source.items()
            if s in keep and self.target[m] in keep
        ]
        mset = set(mids)
        return TableGroupoid(
            objs,
            {m: self.source[m] for m in mids},
            {m: self.target[m] for m in mids},
            {o: self.identity[o] for o in objs},
            {
                pair: m
                for pair, m in self.compose.items()
                if pair[0] in mset and pair[1] in mset
            },
            {m: self.inverse[m] for m in mids},
            {o: self.object_labels[o] for o in objs if o in self.object_labels},
            {m: self.morphism_labels[m] for m in mids if m in self.morphism_labels},
        )

    def validate(self):
        """All groupoid axioms; returns a list of violations with witnesses."""
        bad = []
        objs = set(self.objects)
        for m, s in self.source.items():
            if s not in objs or self.target[m] not in objs:
                bad.append("morphism %r has endpoints outside the object set" % m)
        for o in self.objects:
            i = self.identity.get(o)
            if i is None or self.source.get(i) != o or self.target.get(i) != o:
                bad.append("object %r lacks a well-formed identity" % o)
        mor = self.morphisms
        by_tgt = {}
        for m in mor:
            by_tgt.setdefault(self.target[m], []).append(m)
        composable = [
            (m2, m1)
            for m1 in mor
            for m2 in self.source
            if self.source[m2] == self.target[m1]
        ]
        for pair in composable:
            if pair not in self.compose:
                bad.append("compose undefined on composable pair %r" % (pair,))
        for pair, m in self.compose.items():
            m2, m1 = pair
            if self.source.get(m2) != self.target.get(m1):
                bad.append("compose defined on non-composable pair %r" % (pair,))
            elif (
                self.source[m] != self.source[m1]
                or self.target[m] != self.target[m2]
            ):
                bad.append("compose endpoints wrong for %r" % (pair,))
        if not bad:
            for m in mor:
                if self.compose[(m, self.identity[self.source[m]])] != m:
                    bad.append("right identity law fails at %r" % m)
                if self.compose[(self.identity[self.target[m]], m)] != m:
                    bad.append("left identity law fails at %r" % m)
            for m in mor:
                i = self.inverse.get(m)
                if i is None:
                    bad.append("morphism %r lacks an inverse" % m)
                elif (
                    self.compose[(i, m)] != self.identity[self.source[m]]
                    or self.compose[(m, i)] != self.identity[self.target[m]]
                ):
                    bad.append("inverse law fails at %r" % m)
            for m1 in mor:
                for m2 in by_tgt.get(self.source[m1], []):
                    left = self.compose[(m1, m2)]
                    for m3 in by_tgt.get(self.source[m2], []):
                        if self.compose[(left, m3)] != self.compose[
                            (m1, self.compose[(m2, m3)])
                        ]:
                            bad.append(
                                "associativity fails on triple (%r, %r, %r)"
                                % (m1, m2, m3)
                            )
        return bad


class TableBuilder:
    """Interning helper: build a TableGroupoid from labelled pieces."""

    def __init__(self):
        self._obj = {}
        self._mor = {}
        self.objects = []
        self.source = {}
        self.target = {}
        self.identity = {}
        self.compose = {}
        self.inverse = {}

    def obj(self, label):
        if label not in self._obj:
            self._obj[label] = len(self._obj)
            self.objects.append(self._obj[label])
        return self._obj[label]

    def obj_id(self, label):
        return self._obj[label]

    def has_mor(self, label):
        return label in self._mor

    def mor(self, label, src_label, tgt_label):
        if label not in self._mor:
            mid = len(self._mor)
            self._mor[label] = mid
            self.source[mid] = self.obj(src_label)
            self.target[mid] = self.obj(tgt_label)
        return self._mor[label]

    def mor_id(self, label):
        return self._mor[label]

    def set_identity(self, obj_label, mor_label):
        self.identity[self._obj[obj_label]] = self._mor[mor_label]

    def set_compose(self, m2_label, m1_label, result_label):
        self.compose[(self._mor[m2_label], self._mor[m1_label])] = self._mor[
            result_label
        ]

    def set_inverse(self, mor_label, inv_label):
        self.inverse[self._mor[mor_label]] = self._mor[inv_label]

    def build(self):
        g = TableGroupoid(
            self.objects,
            self.source,
            self.target,
            self.identity,
            self.compose,
            self.inverse,
            object_labels={v: k for k, v in self._obj.items()},
            morphism_labels={v: k for k, v in self._mor.items()},
        )
        g.object_of_label = dict(self._obj)
        g.morphism_of_label = dict(self._mor)
        return g


# ---------------------------------------------------------------------------
# action groupoids


class ActionGroupoid:
    """X//G for a right action: objects are carrier points, hom(x1,x2) =
    {g : x2.g = x1}.  Components and automorphism orders are computed from
    orbits without enumerating morphisms."""

    def __init__(self, group, carrier, act):
        self.group = group
        self.carrier = list(carrier)
        assert len(set(self.carrier)) == len(self.carrier), "carrier has duplicates"
        self.act = act
        self._index = {x: i for i, x in enumerate(self.carrier)}
        self._orbit_of = None
        self._orbit_list = None

    @property
    def objects(self):
        return list(self.carrier)

    # -- morphism handles: (source point, group element) --------------------

    def identity_at(self, x):
        return (x, self.group.identity)

    def source_of(self, m):
        return m[0]

    def target_of(self, m):
        return self.act(m[0], self.group.inv(m[1]))

    def compose_m(self, m2, m1):
        assert self.target_of(m1) == m2[0]
        return (m1[0], self.group.op(m2[1], m1[1]))

    def inverse_m(self, m):
        return (self.target_of(m), self.group.inv(m[1]))

    def hom(self, a, b):
        return [
            (a, g) for g in self.group.elements() if self.act(b, g) == a
        ]

    def hom_size(self, a, b):
        if self._orbits_index()[a] != self._orbits_index()[b]:
            return 0
        return self.group.order // len(self._orbit_list[self._orbits_index()[a]])

    @property
    def is_discrete(self):
        return self.group.order == 1

    def morphism_sample(self):
        """Generating family: one handle per carrier point per generator,
        made lazily (a composed apex can have tens of thousands)."""
        gens = self.group.generators()
        return ((x, g) for x in self.carrier for g in gens)

    def all_morphisms(self):
        return [(x, g) for x in self.carrier for g in self.group.elements()]

    # -- orbits --------------------------------------------------------------

    def _orbits_index(self):
        if self._orbit_of is None:
            gens = self.group.generators()
            orbit_of = {}
            orbits = []
            for x in self.carrier:
                if x in orbit_of:
                    continue
                idx = len(orbits)
                orbit = [x]
                orbit_of[x] = idx
                frontier = [x]
                while frontier:
                    nxt = []
                    for y in frontier:
                        for g in gens:
                            z = self.act(y, g)
                            if z not in orbit_of:
                                i = self._index.get(z)
                                if i is None:
                                    raise ValueError(
                                        "carrier is not closed under the action"
                                    )
                                # keep the carrier's own point, not act's copy:
                                # the index is cached for the groupoid's life
                                z = self.carrier[i]
                                orbit_of[z] = idx
                                orbit.append(z)
                                nxt.append(z)
                    frontier = nxt
                orbits.append(orbit)
            self._orbit_of = orbit_of
            self._orbit_list = orbits
        return self._orbit_of

    def components(self):
        """Orbits, each ordered by carrier position, in first-point order."""
        self._orbits_index()
        key = self._index.__getitem__
        return [sorted(orbit, key=key) for orbit in self._orbit_list]

    def component_reps(self):
        # the orbit search starts each orbit at its first carrier point
        self._orbits_index()
        return [orbit[0] for orbit in self._orbit_list]

    def component_rep(self, x):
        idx = self._orbits_index()[x]
        return self._orbit_list[idx][0]

    def aut_order(self, x):
        idx = self._orbits_index()[x]
        return self.group.order // len(self._orbit_list[idx])

    def chi(self):
        self._orbits_index()
        return sum(
            (Fraction(len(orbit), self.group.order) for orbit in self._orbit_list),
            Fraction(0),
        )

    def full_subgroupoid(self, objs):
        # valid only for action-closed subsets (orbit BFS asserts closure);
        # all internal uses restrict to level sets of orbit-constant maps
        keep = set(objs)
        return ActionGroupoid(
            self.group, [x for x in self.carrier if x in keep], self.act
        )

    def materialize(self, guard=None):
        """Explicit table; morphisms are (source point, group element) pairs."""
        bound = guard if guard is not None else size_guard()
        total = len(self.carrier) * self.group.order
        if total > bound:
            raise SizeGuardError(total, bound)
        b = TableBuilder()
        for x in self.carrier:
            b.obj(x)
        els = self.group.elements()
        for x in self.carrier:
            for g in els:
                y = self.act(x, self.group.inv(g))
                assert y in self._index, "carrier is not closed under the action"
                b.mor((x, g), x, y)
        for x in self.carrier:
            b.set_identity(x, (x, self.group.identity))
        for x in self.carrier:
            for g1 in els:
                y = self.act(x, self.group.inv(g1))
                for g2 in els:
                    b.set_compose((y, g2), (x, g1), (x, self.group.op(g2, g1)))
        for x in self.carrier:
            for g in els:
                y = self.act(x, self.group.inv(g))
                b.set_inverse((x, g), (y, self.group.inv(g)))
        return b.build()


class DisjointUnion:
    """Disjoint union of groupoid views; objects and morphisms are tagged."""

    def __init__(self, members):
        self.members = list(members)

    @property
    def objects(self):
        return [(i, o) for i, m in enumerate(self.members) for o in m.objects]

    def identity_at(self, o):
        i, x = o
        return (i, self.members[i].identity_at(x))

    def source_of(self, m):
        i, mm = m
        return (i, self.members[i].source_of(mm))

    def target_of(self, m):
        i, mm = m
        return (i, self.members[i].target_of(mm))

    def compose_m(self, m2, m1):
        assert m2[0] == m1[0]
        return (m2[0], self.members[m2[0]].compose_m(m2[1], m1[1]))

    def inverse_m(self, m):
        return (m[0], self.members[m[0]].inverse_m(m[1]))

    def hom(self, a, b):
        if a[0] != b[0]:
            return []
        return [(a[0], m) for m in self.members[a[0]].hom(a[1], b[1])]

    def hom_size(self, a, b):
        return 0 if a[0] != b[0] else self.members[a[0]].hom_size(a[1], b[1])

    @property
    def is_discrete(self):
        return all(m.is_discrete for m in self.members)

    def morphism_sample(self):
        return (
            (i, m)
            for i, member in enumerate(self.members)
            for m in member.morphism_sample()
        )

    def all_morphisms(self):
        return [
            (i, m)
            for i, member in enumerate(self.members)
            for m in member.all_morphisms()
        ]

    def components(self):
        out = []
        for i, member in enumerate(self.members):
            out.extend([[(i, o) for o in c] for c in member.components()])
        return out

    def component_reps(self):
        return [
            (i, r) for i, m in enumerate(self.members) for r in m.component_reps()
        ]

    def component_rep(self, o):
        return (o[0], self.members[o[0]].component_rep(o[1]))

    def aut_order(self, o):
        return self.members[o[0]].aut_order(o[1])

    def chi(self):
        return sum((m.chi() for m in self.members), Fraction(0))

    def full_subgroupoid(self, objs):
        # keep every member (possibly emptied) so object tags stay stable
        per = [[] for _ in self.members]
        for i, x in objs:
            per[i].append(x)
        return DisjointUnion(
            [m.full_subgroupoid(p) for m, p in zip(self.members, per)]
        )


def discrete_table(labels):
    """Discrete groupoid: identities only."""
    b = TableBuilder()
    for x in labels:
        b.obj(x)
        b.mor(("id", x), x, x)
        b.set_identity(x, ("id", x))
        b.set_compose(("id", x), ("id", x), ("id", x))
        b.set_inverse(("id", x), ("id", x))
    return b.build()


def disjoint_union_tables(tables):
    """Materialized disjoint union of TableGroupoids (re-interned)."""
    b = TableBuilder()
    for i, t in enumerate(tables):
        for o in t.objects:
            b.obj((i, o))
        for m in t.morphisms:
            b.mor((i, m), (i, t.source[m]), (i, t.target[m]))
        for o in t.objects:
            b.set_identity((i, o), (i, t.identity[o]))
        for (m2, m1), m in t.compose.items():
            b.set_compose((i, m2), (i, m1), (i, m))
        for m, mi in t.inverse.items():
            b.set_inverse((i, m), (i, mi))
    return b.build()


# ---------------------------------------------------------------------------
# weightings


def weighting(view):
    """k^b = 1/(|component(b)| * |Aut(b)|); also a coweighting (hom-sets are
    symmetric in a groupoid).  Satisfies sum_b k^b |Hom(a,b)| = 1 at every a."""
    out = {}
    for comp in view.components():
        n = len(comp)
        for o in comp:
            out[o] = Fraction(1, n * view.aut_order(o))
    return out


def coweighting(view):
    """The dual of weighting; equal to it here because |Hom(a,b)| = |Hom(b,a)|
    in any groupoid."""
    return weighting(view)


def check_weighting(view, k):
    """Verify the defining equation of a weighting at every object."""
    for a in view.objects:
        total = sum(
            (k[b] * view.hom_size(a, b) for b in view.objects), Fraction(0)
        )
        if total != 1:
            return False
    return True


def check_coweighting(view, k):
    """Dual equation: sum_a k_a |Hom(a, b)| = 1 at every object b."""
    for b in view.objects:
        total = sum(
            (k[a] * view.hom_size(a, b) for a in view.objects), Fraction(0)
        )
        if total != 1:
            return False
    return True
