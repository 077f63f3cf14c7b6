"""Finite groupoids in two interchangeable representations.

TableGroupoid is a groupoid over opaque non-negative integer ids, with decode
labels so constructed objects (fibre pairs, Grothendieck elements) stay
inspectable.  Tables built from labels (TableBuilder) carry their composition
law as two functions on labels, and fill their compose/inverse tables on
demand from it, so no table is filled that nobody reads.  Every constructed
table is a category of elements whose labels are slot tuples, and slotwise
gives its law: (n1, u, n2) after (m1, t, m2) is (n1 m1, t, n2 m2).
materialize turns any view into a table labelled by its own handles,
guarded by size_guard().
ActionGroupoid is the lazy form X//G of a right group action: components are
orbits and automorphism group orders come from orbit-stabilizer, |G|/|orbit|
kept once per orbit next to the orbits, so the large examples never
materialize their hom-sets.  It evaluates the action on generators once,
into one integer table per generator, and everything that moves a point by a
generator reads that table: orbits, targets, and stabilizers, whose Schreier
elements come from an orbit search, not a scan of G; its restrictions to
subgroups share those tables.

Composition convention: compose(m2, m1) means "m2 after m1".  In X//G the
hom-set (x1 -> x2) is {g : x2.g = x1}, so the morphism handle (x1, g) has
source x1 and target x1.g^-1, and (x1,g1) followed by (y1,g2) is (x1, g2*g1).

Every view has a generating family: an action groupoid's points x
generators, a table's component stars (at each representative r, all of
Aut(r) and one morphism r -> x per object x).  A natural square, or an
equality of functors, that holds on the family holds on every morphism, so
the validators walk the family, not the morphisms; a functor's composition
law and a table's associativity are checked on generating_pairs.  Each view
yields the family once, with endpoints, from generating_family(): (handle,
source, target) triples read from what it already holds (an action
groupoid's generator rows by carrier position, a table's hom index, a union's
members tagged in turn, a pullback view's search), so the validators make no
source_of or target_of call per handle; morphism_sample() is its handle
projection, written once, on GroupoidView.

Groupoids do not change after construction and all analyses are pure; the
hom index, component partition, star family, orbit partition, an action
groupoid's generator tables and a table's compose/inverse entries are filled
lazily, so prime them (call components(), or validate() on a table) before
sharing a groupoid across threads.
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
        self._inverses = {}

    def op(self, a, b):
        return pcompose(a, b)

    def inv(self, a):
        i = self._inverses.get(a)
        if i is None:
            i = self._inverses[a] = pinverse(a)
        return i

    def conjugate(self, sigma, g):
        """The right conjugation action sigma . g = g^-1 sigma g."""
        ginv = self.inv(g)
        return tuple(ginv[sigma[i]] for i in g)

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


def _extend_closure(op, gens, closure, seen, g):
    """Add g to gens and grow closure, the subgroup they generate, with seen
    its element set: a search from every element along every generator."""
    gens.append(g)
    for h in closure:  # grows as the search reaches new elements
        for s in gens:
            hs = op(h, s)
            if hs not in seen:
                seen.add(hs)
                closure.append(hs)


class Subgroup:
    """A subgroup of an ambient group, given by its element set."""

    def __init__(self, ambient, elements):
        els = sorted(set(elements))
        self.ambient = ambient
        self._elements = els
        self.identity = ambient.identity
        if self.identity not in els:
            raise ValueError("subgroup must contain the identity")
        self.order = len(els)
        self._generators = None
        self._generated = None  # the order of the closure of generators()

    def op(self, a, b):
        return self.ambient.op(a, b)

    def inv(self, a):
        return self.ambient.inv(a)

    def elements(self):
        return list(self._elements)

    def generators(self):
        """Greedy: each element, in element order, not yet in the closure of
        those taken before it.  Each one at least doubles the closure (a
        subgroup), so there are at most log2 |H| of them."""
        if self._generators is None:
            gens, closure = [], [self.identity]
            seen = set(closure)
            for g in self._elements:
                if g not in seen:
                    _extend_closure(self.op, gens, closure, seen, g)
            self._generators = gens
            self._generated = len(closure)
        return list(self._generators)

    def is_closed(self):
        """Whether the elements are closed under the operation.  Every
        element lies in the closure of generators(), so they are exactly
        when that closure is no larger than the element set."""
        self.generators()
        return self._generated == self.order

    def __repr__(self):
        return "Subgroup(%r, %d elements)" % (self.ambient, self.order)


# ---------------------------------------------------------------------------
# views


class GroupoidView:
    """What the groupoid views share.  Each yields its generating family once,
    with endpoints, from generating_family(): (handle, source, target)
    triples, grouped by source, read from what the view already holds (a
    table's hom index, an action groupoid's generator rows, a pullback view's
    search), so a walker calls no source_of or target_of per handle."""

    def morphism_sample(self):
        """The handles of generating_family(), in its order, lazily."""
        return (m for m, _, _ in self.generating_family())

    def chi(self):
        """The groupoid cardinality: sum of 1/|Aut r| over component_reps()."""
        return sum(
            (Fraction(1, self.aut_order(r)) for r in self.component_reps()),
            Fraction(0),
        )


# ---------------------------------------------------------------------------
# explicit tables


def composable_pairs(view):
    """Every composable pair (m2, m1), m2 after m1: m1 in all_morphisms()
    order, then each m2 out of target(m1) in the same order."""
    mors = list(view.all_morphisms())
    by_src = {}
    for m in mors:
        by_src.setdefault(view.source_of(m), []).append(m)
    for m1 in mors:
        for m2 in by_src.get(view.target_of(m1), ()):
            yield m2, m1


def symmetric_family(view):
    """morphism_sample() followed by the inverse_m of its members, each
    once: a family closed under inverses that generates the view, so a
    search along it reaches a whole component from any of its objects."""
    sample = list(view.morphism_sample())
    return list(dict.fromkeys(sample + [view.inverse_m(s) for s in sample]))


def generating_pairs(view):
    """The pairs (s, f), s after f, that the law checks walk: s in S' and f
    any morphism into source(s), where S' is morphism_sample() followed by
    the inverse_m of its members, each once.  On a BG that is every pair.

    They suffice for a functor F that preserves identities, into an
    associative target: the h with F(h f) = F(h) F(f) for all f are closed
    under composition, F(h2 h1 f) = F(h2) F(h1) F(f) = F(h2 h1) F(f), and
    every x -> y is a product star(y) a star(x)^-1 of members of S', with a
    in Aut(r) (a word in the generators, on an action groupoid).

    As middle factors, (h s) f = h (s f), they suffice for associativity
    (Light's test): if a and b are middle-associative, so is a b, since
    (h (a b)) f = ((h a) b) f = (h a) (b f) = h (a (b f)) = h ((a b) f).
    Once every composite is defined with the right endpoints and the
    identity and inverse laws hold, each f : x -> y is star(y) (a star(x)^-1)
    with a = star(y)^-1 (f star(x)), each regrouping a middle-in-S' step."""
    family = symmetric_family(view)
    into = {}
    for m in view.all_morphisms():
        into.setdefault(view.target_of(m), []).append(m)
    for s in family:
        for f in into.get(view.source_of(s), ()):
            yield s, f


class TableGroupoid(GroupoidView):
    """Finite groupoid as tables over integer ids.

    compose and inverse map id pairs and ids to ids.  A table built from
    labels (TableBuilder) also carries its composition law on labels,
    compose_label(lab2, lab1) and inverse_label(lab, target object label);
    compose_m and inverse_m fill the dicts from it on demand, so they hold
    only the pairs that were used.  A table handed complete dicts and no law
    takes its dicts, read through the labels, as the law."""

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
        compose_label=None,
        inverse_label=None,
    ):
        self.objects = list(objects)
        self.source = dict(source)
        self.target = dict(target)
        self.identity = dict(identity)
        self.compose = dict(compose)
        self.inverse = dict(inverse)
        self.object_labels = dict(object_labels or {})
        self.morphism_labels = dict(morphism_labels or {})
        self.object_of_label = {lab: o for o, lab in self.object_labels.items()}
        self.morphism_of_label = {
            lab: m for m, lab in self.morphism_labels.items()
        }
        # full subgroupoids share the law, so a law read off the dicts
        # keeps composing in them
        self._compose_label = compose_label or self._compose_by_dict
        self._inverse_label = inverse_label or self._inverse_by_dict
        self._hom = None
        self._components = None
        self._rep_of = None
        self._family = None

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
        try:
            return self.compose[(m2, m1)]
        except KeyError:
            pass
        if self.source[m2] != self.target[m1]:
            raise ValueError("compose of non-composable pair %r" % ((m2, m1),))
        labels = self.morphism_labels
        m = self.morphism_of_label.get(
            self._compose_label(labels.get(m2), labels.get(m1))
        )
        if m is None:
            raise ValueError("compose undefined on composable pair %r" % ((m2, m1),))
        self.compose[(m2, m1)] = m
        return m

    def inverse_m(self, m):
        try:
            return self.inverse[m]
        except KeyError:
            pass
        i = self.morphism_of_label.get(
            self._inverse_label(
                self.morphism_labels.get(m), self.object_labels.get(self.target[m])
            )
        )
        if i is None:
            raise ValueError("morphism %r lacks an inverse" % (m,))
        self.inverse[m] = i
        return i

    def _compose_by_dict(self, lab2, lab1):
        pair = (self.morphism_of_label.get(lab2), self.morphism_of_label.get(lab1))
        return self.morphism_labels.get(self.compose.get(pair))

    def _inverse_by_dict(self, lab, target_label):
        return self.morphism_labels.get(
            self.inverse.get(self.morphism_of_label.get(lab))
        )

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

    def generating_family(self):
        """The star of each component: at its representative r, all of
        Aut(r) and the first morphism r -> x to every other object x, each
        with its endpoints r and x, the key it has in the hom index.  Any
        x -> y is star(y) a star(x)^-1 with a in Aut(r), so a natural square
        or an equality of functors that holds on the family holds
        everywhere.  Every handle leaves its representative, in component
        order.  Read off the hom index once and cached; nothing is
        composed."""
        if self._family is None:
            hom = self._hom_index()
            family = []
            for comp in self._component_lists():
                r = comp[0]
                for x in comp:
                    ms = hom.get((r, x))
                    if not ms:
                        raise ValueError(
                            "no morphism %r -> %r in a component" % (r, x)
                        )
                    family.extend((m, r, x) for m in (ms if x == r else ms[:1]))
            self._family = tuple(family)
        return self._family

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

    # -- construction --------------------------------------------------------

    def full_subgroupoid(self, objs):
        """The full subgroupoid on objs; it keeps this table's ids, labels
        and composition law."""
        keep = set(objs)
        objs = [o for o in self.objects if o in keep]
        mids = [
            m
            for m, s in self.source.items()
            if s in keep and self.target[m] in keep
        ]
        return TableGroupoid(
            objs,
            {m: self.source[m] for m in mids},
            {m: self.target[m] for m in mids},
            {o: self.identity[o] for o in objs},
            {},
            {},
            {o: self.object_labels[o] for o in objs if o in self.object_labels},
            {m: self.morphism_labels[m] for m in mids if m in self.morphism_labels},
            self._compose_label,
            self._inverse_label,
        )

    def validate(self):
        """All groupoid axioms; returns a list of violations with witnesses.
        Every composable pair is reached through compose_m, so a table built
        from labels has its whole law defined; associativity is checked on
        generating_pairs as middle factors, once every other law holds."""
        bad = []
        objs = set(self.objects)
        for m, s in self.source.items():
            if s not in objs or self.target[m] not in objs:
                bad.append("morphism %r has endpoints outside the object set" % m)
        for o in self.objects:
            i = self.identity.get(o)
            if i is None or self.source.get(i) != o or self.target.get(i) != o:
                bad.append("object %r lacks a well-formed identity" % o)
        for pair in composable_pairs(self):
            try:
                self.compose_m(*pair)
            except ValueError:
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
        if bad:
            return bad
        compose = self.compose_m
        mor = self.morphisms
        for m in mor:
            if compose(m, self.identity[self.source[m]]) != m:
                bad.append("right identity law fails at %r" % m)
            if compose(self.identity[self.target[m]], m) != m:
                bad.append("left identity law fails at %r" % m)
        for m in mor:
            try:
                i = self.inverse_m(m)
            except ValueError:
                bad.append("morphism %r lacks an inverse" % m)
                continue
            if (
                self.source.get(i) != self.target[m]
                or self.target.get(i) != self.source[m]
                or compose(i, m) != self.identity[self.source[m]]
                or compose(m, i) != self.identity[self.target[m]]
            ):
                bad.append("inverse law fails at %r" % m)
        if bad:
            return bad
        out_of = {}
        for m in mor:
            out_of.setdefault(self.source[m], []).append(m)
        c = self.compose  # holds every composable pair by now
        for s, f in generating_pairs(self):
            sf = c[s, f]
            for h in out_of[self.target[s]]:
                if c[c[h, s], f] != c[h, sf]:
                    bad.append("associativity fails on triple %r" % ((h, s, f),))
        return bad


class TableBuilder:
    """Interning helper: build a TableGroupoid from labelled pieces.  Objects
    come first, each with the label of its identity morphism."""

    def __init__(self):
        self._obj = {}
        self._mor = {}
        self._identity = {}  # object id -> label of its identity
        self.source = {}
        self.target = {}

    def obj(self, label, identity):
        if label not in self._obj:
            oid = self._obj[label] = len(self._obj)
            self._identity[oid] = identity
        return self._obj[label]

    def mor(self, label, src_label, tgt_label):
        if label not in self._mor:
            if src_label not in self._obj or tgt_label not in self._obj:
                raise ValueError("morphism %r leaves the object set" % (label,))
            mid = len(self._mor)
            self._mor[label] = mid
            self.source[mid] = self._obj[src_label]
            self.target[mid] = self._obj[tgt_label]
        return self._mor[label]

    def build(self, compose, inverse):
        """The table, with its composition law on labels: compose(lab2, lab1)
        is the label of lab2 after lab1, inverse(lab, target object label)
        the label of lab's inverse.  Both are evaluated on demand.  Slot
        tuple labels take their law from slotwise."""
        return TableGroupoid(
            list(self._identity),
            self.source,
            self.target,
            {o: self._mor[lab] for o, lab in self._identity.items()},
            {},
            {},
            object_labels={v: k for k, v in self._obj.items()},
            morphism_labels={v: k for k, v in self._mor.items()},
            compose_label=compose,
            inverse_label=inverse,
        )


def slotwise(views):
    """The composition law, as (compose, inverse) for TableBuilder.build, of
    labels that are tuples with one slot per entry of views.  A view's slot
    holds one of its morphisms (one of its objects, in an object label) and
    is composed and inverted in that view.  A None slot carries an element:
    a composite keeps the first factor's (lab1's), and an inverse reads it
    off the target object label."""

    def compose(lab2, lab1):
        return tuple(
            x1 if v is None else v.compose_m(x2, x1)
            for v, x2, x1 in zip(views, lab2, lab1)
        )

    def inverse(lab, tgt):
        return tuple(
            y if v is None else v.inverse_m(x)
            for v, x, y in zip(views, lab, tgt)
        )

    return compose, inverse


def materialize(view):
    """Explicit table of any groupoid view: its labels are the view's own
    object and morphism handles, and its law is the view's compose_m and
    inverse_m.  Refused at the first morphism past size_guard(), so a
    refusal costs at most that many morphisms of a lazy enumeration."""
    return _table_of(view, size_guard())


def _table_of(view, bound):
    b = TableBuilder()
    for o in view.objects:
        b.obj(o, view.identity_at(o))
    for count, m in enumerate(view.all_morphisms(), 1):
        if count > bound:
            raise SizeGuardError(count, bound)
        b.mor(m, view.source_of(m), view.target_of(m))
    return b.build(view.compose_m, lambda lab, _: view.inverse_m(lab))


# ---------------------------------------------------------------------------
# action groupoids


class ActionGroupoid(GroupoidView):
    """X//G for a right action: objects are carrier points, hom(x1,x2) =
    {g : x2.g = x1}, and a morphism handle is (source point, g).  Components
    and automorphism orders are computed from orbits without enumerating
    morphisms: |Aut| = |G|/|orbit| is kept per orbit, next to the orbits.

    The action on generators is evaluated once, into one row per generator
    g (carrier position -> position of x.g^-1), built on first use; orbits,
    stabilizers, the generating family and target_of on generator handles
    read it.  Other handles act through act(x, g^-1).  The rows are kept by
    element g, and restricted(H) views share them, so an element that
    generates several subgroups gets one row."""

    def __init__(self, group, carrier, act):
        self.group = group
        self.carrier = list(carrier)
        self.act = act
        self._index = {x: i for i, x in enumerate(self.carrier)}
        if len(self._index) != len(self.carrier):
            raise ValueError("carrier has duplicates")
        self._rows = {}  # g -> row of g, shared with every restriction
        self._forget_analyses()

    def _forget_analyses(self):
        """Start the analyses of this view's own group empty."""
        self._moves = None  # {g: row} over the generators of self.group
        self._orbit_of = None
        self._orbit_list = None
        self._orbit_auts = None  # |G|/|orbit| per orbit

    def restricted(self, subgroup):
        """X//H for a subgroup H of this group, acting by the same act: a
        view that shares the carrier, its index and the rows, and reads or
        fills a row for each generator of H, so no row is built twice among
        the restrictions of one action.  Its orbits are its own."""
        view = object.__new__(type(self))
        view.__dict__.update(self.__dict__, group=subgroup)
        view._forget_analyses()
        return view

    @property
    def objects(self):
        return list(self.carrier)

    def identity_at(self, x):
        return (x, self.group.identity)

    def source_of(self, m):
        return m[0]

    def compose_m(self, m2, m1):
        if self.target_of(m1) != m2[0]:
            raise ValueError("compose of non-composable pair %r" % ((m2, m1),))
        return (m1[0], self.group.op(m2[1], m1[1]))

    def inverse_m(self, m):
        return (self.target_of(m), self.group.inv(m[1]))

    @property
    def is_discrete(self):
        return self.group.order == 1

    def generating_family(self):
        """One handle (x, g) per point x and generator g, grouped by source,
        made lazily, with its target x.g^-1 read from g's row by carrier
        position."""
        moves = self._generator_tables()
        rows = [(g, moves[g]) for g in self.group.generators()]
        carrier = self.carrier
        return (
            ((x, g), x, carrier[row[i]])
            for i, x in enumerate(carrier)
            for g, row in rows
        )

    def all_morphisms(self):
        els = self.group.elements()
        return [(x, g) for x in self.carrier for g in els]

    def _generator_tables(self):
        """{g: [position of x.g^-1 for x in the carrier]} per generator g,
        each row read from the shared rows or built into them.  A row is
        stored only once every x.g^-1 is in the carrier, so an unclosed
        carrier is refused on every call."""
        if self._moves is None:
            rows, index, act, inv = self._rows, self._index, self.act, self.group.inv
            moves = {}
            for g in self.group.generators():
                row = rows.get(g)
                if row is None:
                    h = inv(g)
                    row = [index.get(act(x, h)) for x in self.carrier]
                    if None in row:
                        raise ValueError("carrier is not closed under the action")
                    rows[g] = row
                moves[g] = row
            self._moves = moves
        return self._moves

    def target_of(self, m):
        x, g = m
        row = (self._moves or self._generator_tables()).get(g)
        if row is None:
            return self.act(x, self.group.inv(g))
        return self.carrier[row[self._index[x]]]

    def hom(self, a, b):
        return [
            (a, g) for g in self.group.elements() if self.act(b, g) == a
        ]

    def hom_size(self, a, b):
        orbit = self._orbit(a)
        return self.group.order // len(orbit) if self._orbit(b) is orbit else 0

    def stabilizer(self, x):
        """Stab(x) = {g : x.g = x}, the automorphism group of x, by
        orbit-stabilizer: a search from x along the generator rows gives
        each point y it reaches an element u_y with x.u_y = y, and
        u_y g^-1 u_z^-1, for each step y -> z = y.g^-1 that reaches no new
        point, fixes x.  These Schreier elements generate Stab(x); each one
        outside the closure built so far joins it, and the search stops once
        the closure has |G|/|orbit| elements, all of Stab(x).  Only the
        generators are inverted (their rows did so already): u_z^-1 =
        g u_y^-1 is carried along the search tree."""
        G = self.group
        op = G.op
        order = G.order // len(self._orbit(x))
        closure = [G.identity]
        seen, gens = set(closure), []
        if order == 1:
            return Subgroup(G, closure)
        moves = self._generator_tables()
        steps = [(g, G.inv(g), row) for g, row in moves.items()]
        start = self._index[x]
        tree = {start: (G.identity, G.identity)}  # position -> (u, u^-1)
        reached = [start]
        for i in reached:  # grows as the search reaches new points
            u, u_inv = tree[i]
            for g, g_inv, row in steps:
                j = row[i]
                ug = op(u, g_inv)
                if j not in tree:
                    tree[j] = ug, op(g, u_inv)
                    reached.append(j)
                    continue
                s = op(ug, tree[j][1])
                if s not in seen:
                    _extend_closure(op, gens, closure, seen, s)
                    if len(closure) == order:
                        return Subgroup(G, closure)
        raise ValueError(
            "the search from %r closed %d of |G|/|orbit| = %d elements: the "
            "group's generators do not generate it" % (x, len(closure), order)
        )

    def slices(self, level):
        """(X x Y)//G, for this X//G and level = Y//G (G acting on Y), as the
        union over the orbit representatives x of the slices Y//Stab(x).
        y -> (x, y) is fully faithful, hom((x, y1), (x, y2)) = {g in Stab(x)
        : y2.g = y1}, and essentially surjective, as every (x', y) is
        isomorphic to a point over a representative; so the union is
        equivalent to (X x Y)//G, on |X/G| |Y| points in place of |X| |Y|.
        Each slice is level.restricted(Stab(x)), so the slices of every X
        given the same level build one row per generator between them.  A
        fixed point's stabilizer is all of G, so its slice acts through G's
        generators with no stabilizer search."""
        return [
            level.restricted(
                self.group if len(self._orbit(x)) == 1 else self.stabilizer(x)
            )
            for x in self.component_reps()
        ]

    # -- orbits --------------------------------------------------------------

    def _orbits(self):
        """The orbit number of each carrier position, and the orbits as
        position lists in first-point order, each starting at its first
        point: a search over the generator tables (orbits under the g^-1
        are the orbits under the g).  |G|/|orbit| is kept per orbit."""
        if self._orbit_of is None:
            rows = list(self._generator_tables().values())
            orbit_of = [None] * len(self.carrier)
            orbits = []
            for i in range(len(self.carrier)):
                if orbit_of[i] is not None:
                    continue
                k = len(orbits)
                orbit_of[i] = k
                orbit = [i]
                for j in orbit:  # grows as the search reaches new points
                    for row in rows:
                        n = row[j]
                        if orbit_of[n] is None:
                            orbit_of[n] = k
                            orbit.append(n)
                orbits.append(orbit)
            self._orbit_of = orbit_of
            self._orbit_list = orbits
            self._orbit_auts = [self.group.order // len(o) for o in orbits]
        return self._orbit_of, self._orbit_list

    def _orbit(self, x):
        orbit_of, orbits = self._orbits()
        return orbits[orbit_of[self._index[x]]]

    def components(self):
        """Orbits, each ordered by carrier position, in first-point order."""
        carrier = self.carrier
        return [[carrier[i] for i in sorted(o)] for o in self._orbits()[1]]

    def component_reps(self):
        carrier = self.carrier
        return [carrier[o[0]] for o in self._orbits()[1]]

    def component_rep(self, x):
        return self.carrier[self._orbit(x)[0]]

    def aut_order(self, x):
        if self._orbit_auts is None:
            self._orbits()
        return self._orbit_auts[self._orbit_of[self._index[x]]]

    # GroupoidView's formula, named in this class's own __dict__ because
    # bench/tracer.py wraps ActionGroupoid.chi there by name
    chi = GroupoidView.chi


class DisjointUnion(GroupoidView):
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
        if m2[0] != m1[0]:
            raise ValueError("compose of non-composable pair %r" % ((m2, m1),))
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

    def generating_family(self):
        """The members' families, member by member, each triple tagged."""
        return (
            ((i, m), (i, x), (i, y))
            for i, member in enumerate(self.members)
            for m, x, y in member.generating_family()
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


def discrete_table(labels):
    """Discrete groupoid: identities only."""
    b = TableBuilder()
    for x in labels:
        b.obj(x, ("id", x))
        b.mor(("id", x), x, x)
    return b.build(lambda lab2, lab1: lab1, lambda lab, _: lab)


def disjoint_union_tables(tables):
    """Materialized disjoint union of groupoid views: the i-th member's
    object o and morphism m become (i, o) and (i, m).  Not guarded: the
    random corpus and documents join small explicit members."""
    return _table_of(DisjointUnion(tables), math.inf)


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
