"""G-spans of groupoids and their matrices over the group ring QG.

A G-span from S to T is an apex M with functors L: M -> S, R: M -> T, group
valued functors H on S and V on T (the two legs over BG), and a labeling
eps: Ob(M) -> G with the naturality square, written additively:

    eps(a2) + (H L)(m) = (V R)(m) + eps(a1)      for every m: a1 -> a2.

Its matrix has rows pi0(S) and columns pi0(T) in canonical component order,

    entry(c, d) = sum_g chi( (c\\M/d){label = g} ) * (1/|T(d,d)|) * g,

where the label of a fibre object (a, s, t) is V(t) + eps(a) + H(s).  That
is the definition, and the tests build the fibre as a table
(two_sided_fibre) as the oracle.  The code computes it without a fibre,
in _fibre_chi, which span_matrix reads, as does labeled_fibre on a checked
span over discrete feet.  Elsewhere labeled_fibre reads one search per
span (_searched_chi), a union-find over the objects of the fibres at every
pair of representatives at once, joined along the apex's generating
family, and moves a fibre at representatives to any other pair of objects
by an equivalence that shifts its labels (_to_pair).  A fibre object (a, s, t)
has as many outgoing morphisms as a has in M, and naturality moves
(a, s, t) along M without changing its label, so each component [a] of M
contributes to exactly one entry, by groupoid cardinality:

    entry(c, d) = sum over [a] in pi0(M) with [La] = c and [Ra] = d of
                  1/(|Aut a| |Aut d|) * sum over s in S(c, La), t in T(Ra, d)
                  of [V(t) + eps(a) + H(s)].

The inner sum is the QG product of three histograms, V on T(Ra, d), the
point eps(a) and H on S(c, La), so _fibre_chi groups the components by
(La, Ra, |Aut a|) and multiplies each group's histogram of eps by V.H once.

This relies on the naturality square, which is checked once per span,
where the span is made: GSpan validates it at construction, and
GSpan(..., check=False) is the caller's promise that it holds, which
span_matrix takes and compose_spans does not (it validates such an input
once).  Validation walks the apex's generating family, except on a span
constant on the members of a DisjointUnion apex (legs from
GroupoidFunctor.constant_on_members, a MemberLabel), where the square is
one equation per member (see GSpan.validate).
Span composition is the homotopy pullback, a lazy PullbackView whose objects
are the triples (a1, t, a2), with label eps2(a2) + V1(t) + eps1(a1); the
composition lemma makes the composite natural, so compose_spans checks only
its factors (their legs over BG on the feet, an unchecked factor's square)
and never walks the composite.  A composite's matrix is still read off its
own pi0, as one stream: the apex's double-coset pass yields each component
(a1, t, a2, |Aut|) once, and _fibre_chi takes L1(a1), R2(a2) and the label
from the factors' rows, (L1 a1, eps1 a1) and (R2 a2, eps2 a2) once per
factor representative and V1(t) once per t, with no list of the
composite's components and no call of its legs or label per component.
A composite is a span like any other and can be composed again.  2-cells
between composites map those triples directly, and a 2-cell is checked
once, where it is made, by the same rule: SpanMorphism validates at
construction, and vertical_compose and horizontal_compose check only their
factors and mark the composite checked by the composition lemma for
2-cells, so no composite cell is walked.
Matrix products use the order (A B)(c1, c2) = sum_d B(d, c2) A(c1, d) (for
abelian G this equals the usual product; a test asserts both agree).
Component representatives are fixed once per groupoid (its first object),
and all label formulas use those representatives consistently.
"""

import math
from fractions import Fraction

from gspans.algebra import CyclotomicNumber, GroupRingElement
from gspans.constructions import (
    FunctorError,
    GroupoidFunctor,
    _as_fn,
    homotopy_pullback,
    identity_functor,
)
from gspans.groupoid import DisjointUnion


class GSpanError(ValueError):
    """Naturality violation; the message names the witness morphism."""


class ComposabilityError(ValueError):
    """The middle legs V1 and H2 are not the same functor to BG, or a given
    composite is not the composite of the given spans."""


class GSpan:
    """Validated G-span; immutable after construction.  Both legs start at
    the apex, and H and V are functors on the very feet the legs end at
    (GSpanError otherwise), so no leg is read on another groupoid's ids."""

    def __init__(self, apex, left, right, h, v, eps, check=True):
        if left.source is not apex or right.source is not apex:
            raise GSpanError("both legs must start at the apex")
        if h.source is not left.target or v.source is not right.target:
            raise GSpanError(
                "H and V must live on the feet: H on the target of L, V on "
                "the target of R"
            )
        if h.group != v.group:
            raise GSpanError(
                "H and V map to different groups: %r vs %r" % (h.group, v.group)
            )
        self.apex = apex
        self.left = left
        self.right = right
        self.h = h
        self.v = v
        self.group = h.group
        if isinstance(eps, MemberLabel):
            if eps.union is not apex:
                raise GSpanError("a MemberLabel must label the apex")
            self.member_label = eps
            self.eps = eps.at
        else:
            self.member_label = None
            self.eps = _as_fn(eps)  # the given labeling itself, called directly
        self._searched = None  # _searched_chi(self)
        self._chi = None  # _fibre_chi(self)
        self.checked = False  # set by validate, or by compose_spans
        self.factors = None  # (sp1, sp2) on compose_spans(sp1, sp2)
        if check:
            self.validate()

    @property
    def source(self):
        return self.left.target

    @property
    def target(self):
        return self.right.target

    def validate(self):
        """The naturality square eps(a2) + HL(m) = VR(m) + eps(a1) at every
        morphism m: a1 -> a2 of the apex, checked once per member when the
        span is constant on the members of a DisjointUnion, and otherwise on
        the apex's generating family.  Raises GSpanError at the first
        failure, or marks the span checked.  compose_spans marks its
        composite checked by the composition lemma, without either check.

        Per member: both legs come from GroupoidFunctor.constant_on_members
        and the label is a MemberLabel of the apex, so on member i the legs
        send every morphism to id at x_i and to id at y_i, and eps is e_i at
        every object; all three read only the member index.  Then the square
        at any m in member i reads e_i + H(id_{x_i}) = V(id_{y_i}) + e_i,
        the same equation for every m, so checking it once per member checks
        the square at every morphism of the member, identities included.

        The walk: the generating family (the component stars of a table or
        a pullback view, an action groupoid's points x generators) is read
        with its endpoints from generating_family(); composites and inverses
        follow since HL and VR are functors.  The family comes grouped by
        source, so eps(a1) is read once per run of handles with the same
        source (once per component on a star family)."""
        lo, ro = self.left.member_objects, self.right.member_objects
        if lo is not None and ro is not None and self.member_label is not None:
            self._validate_members(lo, ro, self.member_label.values)
            self.checked = True
            return
        add, eps = self.group.add, self.eps
        h, left = self.h.value, self.left.on_mor
        v, right = self.v.value, self.right.on_mor
        a1 = None
        for m, src, tgt in self.apex.generating_family():
            if a1 is None or src != a1:
                a1 = src
                e1 = eps(a1)
            e2 = eps(tgt)
            lhs = add(e2, h(left(m)))
            rhs = add(v(right(m)), e1)
            if lhs != rhs:
                raise GSpanError(
                    "labeling is not natural at morphism %r: %r + HL != VR + %r"
                    % (m, e2, e1)
                )
        self.checked = True

    def _validate_members(self, lo, ro, labels):
        """e_i + H(id_{x_i}) = V(id_{y_i}) + e_i for each member i, with x_i
        = lo[i], y_i = ro[i] and e_i = labels[i] (see validate)."""
        add, S, T = self.group.add, self.source, self.target
        h_id = {x: self.h.value(S.identity_at(x)) for x in set(lo)}
        v_id = {y: self.v.value(T.identity_at(y)) for y in set(ro)}
        for i, e in enumerate(labels):
            if add(e, h_id[lo[i]]) != add(v_id[ro[i]], e):
                raise GSpanError(
                    "labeling is not natural on member %d: %r + H(id) != "
                    "V(id) + %r" % (i, e, e)
                )


class MemberLabel:
    """A labeling of a DisjointUnion that is constant on each member: every
    object (i, x) is labelled values[i].  GSpan reads it through at, which
    reads only the member index, so it cannot vary on a member; with legs
    from GroupoidFunctor.constant_on_members it lets GSpan.validate check
    the square once per member."""

    def __init__(self, union, values):
        if not isinstance(union, DisjointUnion):
            raise GSpanError("a MemberLabel needs a DisjointUnion")
        values = list(values)
        if len(values) != len(union.members):
            raise GSpanError(
                "%d labels for %d members" % (len(values), len(union.members))
            )
        self.union = union
        self.values = values
        self.at = lambda o: values[o[0]]


def labeled_fibre(sp, c, d):
    """{g: chi((c\\M/d){label = g})} for the labelled two-sided fibre
    c\\M/d of a span at objects c of S and d of T, whose object (a, s, t),
    s in S(c, La) and t in T(Ra, d), is labelled V(t) + eps(a) + H(s).
    Naturality makes the label constant on each component, so a level set
    is a union of components, each adding 1/|Aut|.  On a checked span over
    discrete feet every object is a representative, and the map is
    _fibre_chi's entry (see the module docstring).  Every other span's
    fibres are searched, not built, all at once (_searched_chi), at the
    representatives r1 of c and r2 of d, and the map at (r1, r2) is moved
    to (c, d) by the equivalence of _to_pair, which shifts every label by
    V(u0) + H(s0).  GSpanError, naming two objects of c\\M/d, is raised if
    the label varies on a component of the fibre; an unchecked span over
    discrete feet is searched too, so a wrong label is refused at exactly
    the (c, d) whose fibre holds it.  two_sided_fibre is the table the tests
    compare with.  The search is memoized on the span (spans do not
    change), once for all its fibres; only the chi maps and the witnesses
    are kept."""
    if sp.checked and sp.source.is_discrete and sp.target.is_discrete:
        return _fibre_chi(sp).get((c, d), {})
    r1, r2, move = _to_pair(sp, c, d)
    chi, refused = _searched_chi(sp)
    witness = refused.get((r1, r2))
    if witness is not None:
        a1, g1, o1, g2, o2 = witness
        if move is not None:
            obj, label = move
            g1, o1, g2, o2 = label(g1), obj(o1), label(g2), obj(o2)
        raise GSpanError(
            "label not constant on the component of %r: %r at %r, %r at %r"
            % (a1, g1, o1, g2, o2)
        )
    chi = chi.get((r1, r2), {})
    if move is None:
        return chi
    label = move[1]
    return {label(g): x for g, x in chi.items()}


def _to_pair(sp, c, d):
    """(r1, r2, move) for objects c of S and d of T: the representatives r1
    of c's component and r2 of d's, and move, None when (c, d) is (r1, r2)
    and otherwise the maps (obj, label) of the equivalence
    r1\\M/r2 -> c\\M/d, (a, s, t) -> (a, s s0, u0 t), for the first s0 in
    S(c, r1) and u0 in T(r2, d).  It sends the fibre morphism (m, s, t) to
    (m, s s0, u0 t), so it matches components and |Aut|, and it moves the
    label V(t) + eps(a) + H(s) to V(u0) + V(t) + eps(a) + H(s) + H(s0), as
    H and V are functors: label(g) = V(u0) + g + H(s0).  labeled_fibre
    moves the searched fibres and labeled_pullback_identity the composite's
    _fibre_chi with it."""
    S, T = sp.source, sp.target
    r1, r2 = S.component_rep(c), T.component_rep(d)
    if (r1, r2) == (c, d):
        return r1, r2, None
    s0, u0 = S.hom(c, r1)[0], T.hom(r2, d)[0]
    add, h0, v0 = sp.group.add, sp.h.value(s0), sp.v.value(u0)

    def obj(o):
        a, s, t = o
        return a, S.compose_m(s, s0), T.compose_m(u0, t)

    def label(g):
        return add(v0, add(g, h0))

    return r1, r2, (obj, label)


def _searched_chi(sp):
    """(chi, refused): chi is {(c, d): {g: chi((c\\M/d){label = g})}} over
    the representatives c of S and d of T whose fibre is not empty, and
    refused is {(c, d): (a1, g1, o1, g2, o2)}, the first move, in family
    order, whose two ends o1 and o2 in c\\M/d have different labels g1 and
    g2 (a1 the apex object of o1).  One union-find runs over the objects of
    every such fibre at once: each apex object a lies in exactly one, over
    c = rep(La) and d = rep(Ra), since S(c', La) is empty for every other
    representative c'.  Its objects (a, s, t), s in S(c, La) and t in
    T(Ra, d), are numbered in the order a in M.objects, s, t, so each
    fibre's objects keep two_sided_fibre's relative order.

    Each triple (m, a1, a2) of M's generating family moves (a1, s, t) to
    (a2, L(m) s, t R(m)^-1), within the fibre of a1 (a2 is isomorphic to
    a1, so it has the same representatives); the move is the fibre
    morphism (m, s, t), and the join of its two ends checks that they have
    the same label; an identity of the family moves nothing and is
    skipped.  A move that fails is recorded against its fibre,
    joins nothing, and the search goes on.  The moves reach a whole
    component: the action of M on fibre objects is functorial (the move of
    m2 m1 is that of m2 after that of m1, and m^-1 moves back), and every
    morphism of M is a word in the family and its inverses, so every fibre
    morphism is a path of moves.  So in a fibre that nothing refused the
    joins find exactly the components, and a label equal at the ends of
    every move is constant on each of them.  A component is numbered by
    its least object, as in the table.  Each adds 1/|Aut(a, s, t)|, and
    Aut(a, s, t) = {m in M(a, a) : L(m) s = s, t R(m)^-1 = t}
              = {m in M(a, a) : L(m) = id, R(m) = id}
    since s and t are invertible, which conjugation along any a -> a'
    carries to Aut(a', s', t'), so |Aut| is counted once per component of
    M.  The components are counted in integers per (c, d, |Aut|, label)
    and summed into one Fraction per (c, d, label) by _chi_of_counts, as in
    _fibre_chi.  Made once per span and memoized."""
    if sp._searched is not None:
        return sp._searched
    S, T, M = sp.source, sp.target, sp.apex
    add, left, right, eps = sp.group.add, sp.left, sp.right, sp.eps
    homs_s, homs_t = {}, {}  # La -> S(rep La, La); Ra -> T(Ra, rep Ra)
    at = {}  # a -> (first object id, S(c, La), T(Ra, d)), with values
    labels = []  # per object id: V(t) + eps(a) + H(s)
    for a in M.objects:
        la, ra = left.on_obj(a), right.on_obj(a)
        hs = homs_s.get(la)
        if hs is None:
            c = S.component_rep(la)
            hs = homs_s[la] = _hom_with_values(c, S.hom(c, la), sp.h.value)
        vt = homs_t.get(ra)
        if vt is None:
            d = T.component_rep(ra)
            vt = homs_t[ra] = _hom_with_values(d, T.hom(ra, d), sp.v.value)
        at[a] = (len(labels), hs, vt)
        e = eps(a)
        for h in hs[3]:
            x = add(e, h)
            labels.extend([add(v, x) for v in vt[3]])
    parent = list(range(len(labels)))
    refused = {}
    for m, a1, a2 in M.generating_family():
        if a1 == a2 and m == M.identity_at(a1):
            continue  # its move fixes every object
        o1, (c, ss, _, _), (d, ts, _, _) = at[a1]
        o2, (_, _, s_pos, _), (_, _, t_pos, _) = at[a2]
        lm, rm_inv = left.on_mor(m), T.inverse_m(right.on_mor(m))
        n = len(ts)
        t_moves = [t_pos[T.compose_m(t, rm_inv)] for t in ts]
        for i, s in enumerate(ss):
            s2 = S.compose_m(lm, s)
            i2 = s_pos[s2]
            for j, j2 in enumerate(t_moves):
                u, w = o1 + i * n + j, o2 + i2 * n + j2
                if labels[u] != labels[w]:
                    if (c, d) not in refused:
                        t = ts[j]
                        refused[c, d] = (
                            a1, labels[u], (a1, s, t),
                            labels[w], (a2, s2, T.compose_m(t, rm_inv)),
                        )
                    continue
                while parent[u] != u:
                    parent[u] = parent[parent[u]]
                    u = parent[u]
                while parent[w] != w:
                    parent[w] = parent[parent[w]]
                    w = parent[w]
                if u < w:
                    parent[w] = u
                elif w < u:
                    parent[u] = w
    counts = {}  # (c, d, |Aut|) -> {label: number of components}
    auts = {}  # representative of a's component in M -> |Aut(a, s, t)|
    for a, (o, (c, ss, _, _), (d, ts, _, _)) in at.items():
        by_label = None
        for k in range(o, o + len(ss) * len(ts)):
            if parent[k] == k:  # the least object of its component
                if by_label is None:
                    r = M.component_rep(a)
                    n = auts.get(r)
                    if n is None:
                        n = auts[r] = _kernel_order(sp, r)
                    by_label = counts.setdefault((c, d, n), {})
                g = labels[k]
                by_label[g] = by_label.get(g, 0) + 1
    sp._searched = _chi_of_counts(counts), refused
    return sp._searched


def _hom_with_values(x, hom, value):
    """(x, hom, {morphism: position}, [value of each morphism]) of a
    hom-set with x the representative it starts or ends at."""
    return x, hom, {m: i for i, m in enumerate(hom)}, [value(m) for m in hom]


def _kernel_order(sp, a):
    """#{m in M(a, a) : L(m) = id and R(m) = id}, the |Aut| of every object
    (a, s, t) of a two-sided fibre."""
    left, right = sp.left, sp.right
    id_s = sp.source.identity_at(left.on_obj(a))
    id_t = sp.target.identity_at(right.on_obj(a))
    return sum(
        1
        for m in sp.apex.hom(a, a)
        if left.on_mor(m) == id_s and right.on_mor(m) == id_t
    )


# ---------------------------------------------------------------------------
# matrices


class SpanMatrix:
    """pi0(S) x pi0(T) array of group-ring elements, canonical index order."""

    def __init__(self, group, row_index, col_index, entries):
        self.group = group
        self.row_index = list(row_index)
        self.col_index = list(col_index)
        self.entries = [list(row) for row in entries]
        if len(self.entries) != len(self.row_index):
            raise ValueError(
                "%d rows of entries for %d row indexes"
                % (len(self.entries), len(self.row_index))
            )
        for i, row in enumerate(self.entries):
            if len(row) != len(self.col_index):
                raise ValueError(
                    "row %d has %d entries for %d column indexes"
                    % (i, len(row), len(self.col_index))
                )

    def entry(self, i, j):
        return self.entries[i][j]

    @classmethod
    def identity(cls, group, index):
        one = GroupRingElement.one(group)
        zero = GroupRingElement.zero(group)
        return cls(
            group,
            index,
            index,
            [[one if i == j else zero for j in range(len(index))] for i in range(len(index))],
        )

    def __eq__(self, other):
        return (
            isinstance(other, SpanMatrix)
            and self.group == other.group
            and self.row_index == other.row_index
            and self.col_index == other.col_index
            and self.entries == other.entries
        )

    def __mul__(self, other):
        return matrix_multiply(self, other)

    def is_diagonal(self):
        return all(
            self.entries[i][j].is_zero()
            for i in range(len(self.row_index))
            for j in range(len(self.col_index))
            if i != j
        )

    def render(self):
        return "\n".join(
            " | ".join(e.render() for e in row) for row in self.entries
        )

    def to_json(self):
        return {
            "rows": [repr(r) for r in self.row_index],
            "cols": [repr(c) for c in self.col_index],
            "entries": [[e.render() for e in row] for row in self.entries],
        }

    def __repr__(self):
        return "<SpanMatrix %dx%d over %r>" % (
            len(self.row_index),
            len(self.col_index),
            self.group,
        )


def _fibre_chi(sp):
    """{(c, d): {g: chi((c\\M/d){label = g})}} over the component
    representatives c of S and d of T, by the entry formula of the module
    docstring, in one pass over pi0(M) made once per span: span_matrix,
    labeled_fibre and labeled_pullback_identity read the same map.

    Only the point eps(a) of a component's product V.eps(a).H depends on
    more than (La, Ra, |Aut a|).  So the pass counts the components per key
    (La, Ra, |Aut a|) and label eps(a), in integers; H on S(c, La) and V on
    T(Ra, d) are read once per La and Ra, their product V.H, a histogram,
    is made once per (La, Ra), and each key's histogram of eps is
    multiplied by its V.H once (G is abelian, so the order of the factors
    does not matter).  This regroups the span's own pi0: a composite's map
    comes from the composite's representatives, streamed by its apex's
    double-coset pass and keyed from its factors' rows (_composite_keys),
    in the order and with the counts that the loop over its listed
    representatives and its legs, label and aut_order gives every other
    span.  The counts per
    (c, d, |Aut a|) and label are summed in integers (_chi_of_counts), so
    each (c, d) and label makes one Fraction, however many components and
    |Aut| values share it (the composed Stirling apex at N=8 has 1.37 M
    components).  Over discrete feet V.H is one point."""
    if sp._chi is not None:
        return sp._chi
    S, T, M = sp.source, sp.target, sp.apex
    add = sp.group.add
    if sp.factors is None:
        left, right, eps, aut = sp.left.on_obj, sp.right.on_obj, sp.eps, M.aut_order
        by_key = {}  # (La, Ra, |Aut a|, eps(a)) -> number of components
        for a in M.component_reps():
            key = left(a), right(a), aut(a), eps(a)
            by_key[key] = by_key.get(key, 0) + 1
    else:
        by_key = _composite_keys(sp)
    h_of, v_of = {}, {}  # La -> (c, H on S(c, La)); Ra -> (d, V on T(Ra, d))
    vh_of = {}  # (La, Ra) -> (c, d, V.H as (label, count) pairs)
    counts = {}  # (c, d, |Aut a|) -> {label: number of (a, s, t)}
    for (la, ra, n, e), k in by_key.items():
        vh = vh_of.get((la, ra))
        if vh is None:
            if la not in h_of:
                c = S.component_rep(la)
                h_of[la] = c, [sp.h.value(s) for s in S.hom(c, la)]
            if ra not in v_of:
                d = T.component_rep(ra)
                v_of[ra] = d, [sp.v.value(t) for t in T.hom(ra, d)]
            (c, hs), (d, vs) = h_of[la], v_of[ra]
            product = {}
            for v in vs:
                for h in hs:
                    g = add(v, h)
                    product[g] = product.get(g, 0) + 1
            vh = vh_of[la, ra] = c, d, product.items()
        c, d, product = vh
        by_label = counts.get((c, d, n))
        if by_label is None:
            by_label = counts[c, d, n] = {}
        for x, kx in product:
            g = add(e, x)
            by_label[g] = by_label.get(g, 0) + k * kx
    sp._chi = _chi_of_counts(counts)
    return sp._chi


def _composite_keys(sp):
    """_fibre_chi's count per key (La, Ra, |Aut a|, eps(a)) on a composite
    of sp1 and sp2, from the stream of its apex's representatives
    (a1, t, a2, |Aut|): L is L1(a1), R is R2(a2) and eps is
    eps2(a2) + V1(t) + eps1(a1), read from the factor rows (L1 a1, eps1 a1),
    made as the stream reaches each a1 (it yields each a1's components
    together), and (R2 a2, eps2 a2), made once per a2, and from V1(t), once
    per t; V1(t) + eps1(a1) is added once per run of one (a1, t).  Every
    component of the composite is visited once, and no list of them is
    made.  No count of one factor's representatives meets the other's:
    the keys are the composite's own, one per component."""
    sp1, sp2 = sp.factors
    add, left1, eps1 = sp.group.add, sp1.left.on_obj, sp1.eps
    right2, eps2, v1 = sp2.right.on_obj, sp2.eps, sp1.v.value
    rows2, v_of = {}, {}  # a2 -> (R2 a2, eps2 a2); t -> V1 t
    by_key = {}
    last1 = last_t = object()  # the stream yields each a1's components together
    for a1, t, a2, n in sp.apex.representatives():
        if a1 is not last1:
            last1, last_t, l1, e1 = a1, object(), left1(a1), eps1(a1)
        if t is not last_t:
            vt = v_of.get(t)
            if vt is None:
                vt = v_of[t] = v1(t)
            last_t, w = t, add(vt, e1)
        row2 = rows2.get(a2)
        if row2 is None:
            row2 = rows2[a2] = right2(a2), eps2(a2)
        key = l1, row2[0], n, add(row2[1], w)
        by_key[key] = by_key.get(key, 0) + 1
    return by_key


def _chi_of_counts(counts):
    """{(c, d): {g: chi}} from integer counts {(c, d, |Aut|): {g: count}}:
    chi at (c, d, g) is the sum of count/|Aut| over the |Aut| values,
    summed in integers over their lcm at (c, d), so each (c, d, g) makes
    one Fraction.  The pairs (c, d), and the labels within each, keep the
    order in which counts first has them."""
    by_pair = {}  # (c, d) -> [(|Aut|, {g: count})]
    for (c, d, n), by_label in counts.items():
        by_pair.setdefault((c, d), []).append((n, by_label))
    out = {}
    for pair, groups in by_pair.items():
        den = math.lcm(*(n for n, _ in groups))
        num = {}
        for n, by_label in groups:
            scale = den // n
            for g, k in by_label.items():
                num[g] = num.get(g, 0) + k * scale
        out[pair] = {g: Fraction(k, den) for g, k in num.items()}
    return out


def span_matrix(sp):
    """[M, eps]: entry(c,d) = sum_g chi((c\\M/d){label=g}) (1/|T(d,d)|) g,
    with the chi maps of _fibre_chi (the entry formula is in the module
    docstring).  This relies on the naturality square that GSpan validates
    at construction; GSpan(..., check=False) is the caller's promise that
    it holds.  Coefficients are checked to be >= 0 (the semiring
    guarantee)."""
    G = sp.group
    rows = sp.source.component_reps()
    cols = sp.target.component_reps()
    chi = _fibre_chi(sp)
    entries = []
    for c in rows:
        row = []
        for d in cols:
            chi_td = Fraction(1, sp.target.aut_order(d))
            terms = {g: x * chi_td for g, x in chi.get((c, d), {}).items()}
            if any(v < 0 for v in terms.values()):
                raise GSpanError("negative coefficient at entry (%r, %r)" % (c, d))
            row.append(GroupRingElement(G, terms))
        entries.append(row)
    return SpanMatrix(G, rows, cols, entries)


def _product_entries(a, b, zero):
    """Entries of A B over a ring with the given zero:
    (A B)(c1, c2) = sum_d B(d, c2) A(c1, d) -- the order that stays correct
    over non-commutative group rings; equals the usual product here.  The
    sum is sparse: for each row of A only the d with A(c1, d) nonzero, and
    for each of those only the c2 with B(d, c2) nonzero, in increasing d,
    so a zero product is never formed (Stirling matrices are triangular).
    An entry with no such d is the given zero."""
    if a.col_index != b.row_index:
        raise ValueError("inner indexes do not match")
    b_nonzero = [
        [(j, x) for j, x in enumerate(row) if not x.is_zero()] for row in b.entries
    ]
    entries = []
    for a_row in a.entries:
        row = [zero] * len(b.col_index)
        for k, y in enumerate(a_row):
            if not y.is_zero():
                for j, x in b_nonzero[k]:
                    row[j] = row[j] + x * y
        entries.append(row)
    return entries


def matrix_multiply(a, b):
    """The product A B of span matrices (see _product_entries)."""
    if a.group != b.group:
        raise ValueError("matrices over different groups")
    entries = _product_entries(a, b, GroupRingElement.zero(a.group))
    return SpanMatrix(a.group, a.row_index, b.col_index, entries)


class CharacterMatrix:
    """Entrywise character image of a SpanMatrix, exact in Q(zeta_m)."""

    def __init__(self, row_index, col_index, entries, conductor):
        self.row_index = list(row_index)
        self.col_index = list(col_index)
        self.entries = [list(r) for r in entries]
        self.conductor = conductor

    def entry(self, i, j):
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, CharacterMatrix)
            and self.conductor == other.conductor
            and self.row_index == other.row_index
            and self.col_index == other.col_index
            and self.entries == other.entries
        )

    def __mul__(self, other):
        if self.conductor != other.conductor:
            raise ValueError(
                "conductors differ: %r vs %r" % (self.conductor, other.conductor)
            )
        entries = _product_entries(
            self, other, CyclotomicNumber.zero(self.conductor)
        )
        return CharacterMatrix(self.row_index, other.col_index, entries, self.conductor)

    def is_identity(self):
        one = CyclotomicNumber.one(self.conductor)
        zero = CyclotomicNumber.zero(self.conductor)
        if len(self.row_index) != len(self.col_index):
            return False
        for i in range(len(self.row_index)):
            for j in range(len(self.col_index)):
                if self.entries[i][j] != (one if i == j else zero):
                    return False
        return True

    def render(self):
        return "\n".join(
            " | ".join(e.render() for e in row) for row in self.entries
        )


def character_matrix(matrix, rho):
    """[[M, eps]] = rho applied entrywise."""
    if rho.group != matrix.group:
        raise ValueError("character over a different group")
    return CharacterMatrix(
        matrix.row_index,
        matrix.col_index,
        [[rho.apply(e) for e in row] for row in matrix.entries],
        rho.conductor,
    )


# ---------------------------------------------------------------------------
# span composition and the main theorem


def compose_spans(sp1, sp2):
    """Homotopy-pullback composition; the apex is the PullbackView of the
    middle legs and the composed label is
    eps(a1, t, a2) = eps2(a2) + V1(t) + eps1(a1).

    The composite is a G-span by the composition lemma, so it is marked
    checked and never walked.  A handle (m1, t, m2) goes from (a1, t, a2)
    to (b1, t', b2) with t' = L2(m2) t R1(m1)^-1, and V1 is a functor, so

        eps(b) + H1 L1(m1)
          = eps2(b2) + V1 L2(m2) + V1(t) - V1 R1(m1) + eps1(b1) + H1 L1(m1)
          = eps2(b2) + H2 L2(m2) + V1(t) + eps1(a1)     sp1's square, V1 = H2
          = V2 R2(m2) + eps2(a2) + V1(t) + eps1(a1)     sp2's square
          = V2 R2(m2) + eps(a).

    Its premises are checked on the feet and the factors, never on the
    composite, and each at most once: V1 and H2 agree on T's generating
    family; each of H1, V1, H2 and V2 is a functor to BG, validated on its
    foot unless it already was, so V1 = H2 on all of T; and the squares of
    sp1 and sp2 hold on their generating families, walked here for a span
    made with check=False, so at every morphism, since the legs are
    functors.  validate marks a functor or a span checked.  A failure
    raises GSpanError, or ComposabilityError if the middle legs differ."""
    if sp1.group != sp2.group:
        raise ComposabilityError("spans over different groups")
    if not sp1.v.extensionally_equals(sp2.h):
        raise ComposabilityError(
            "middle legs differ: V1 and H2 must be the same functor to BG "
            "(extensional equality on objects and morphisms)"
        )
    _validate_legs_over_bg(
        (("H1", sp1.h), ("V1", sp1.v), ("H2", sp2.h), ("V2", sp2.v)), GSpanError
    )
    _walk_unchecked(sp1, sp2)
    res = homotopy_pullback(sp1.right, sp2.left)
    G = sp1.group
    v1 = sp1.v

    def eps(obj):
        a1, t, a2 = obj
        return G.add(sp2.eps(a2), G.add(v1.value(t), sp1.eps(a1)))

    out = GSpan(
        res.groupoid,
        res.p1.then(sp1.left),
        res.p2.then(sp2.right),
        sp1.h,
        sp2.v,
        eps,
        check=False,
    )
    out.checked = True
    out.pullback = res
    out.factors = (sp1, sp2)
    return out


def _walk_unchecked(*factors):
    """Validate each span or 2-cell that is not checked yet (validate marks
    it checked)."""
    for f in factors:
        if not f.checked:
            f.validate()


def _validate_legs_over_bg(named, error):
    """Validate each unchecked G-valued functor of (name, functor) pairs once
    (validate marks it checked); raise error, naming it, if one is not a
    functor to BG."""
    for name, f in named:
        if not f.checked:
            try:
                f.validate()
            except FunctorError as err:
                raise error("%s is not a functor to BG: %s" % (name, err))


def check_main_theorem(sp1, sp2):
    """Both sides of [M1 x_T M2, eps1 x_T eps2] = [M1,eps1][M2,eps2]."""
    lhs = span_matrix(compose_spans(sp1, sp2))
    rhs = matrix_multiply(span_matrix(sp1), span_matrix(sp2))
    return lhs, rhs


def labeled_pullback_identity(sp1, sp2, c1, c2, composed=None):
    """Both sides of the per-label composition identity at entry (c1, c2):

    chi((c1\\(M1 x_T M2)/c2){label = g}) =
        sum_d sum_{g2+g1=g} chi((c1\\M1/d){.. = g1}) chi(T{d})
                            chi((d\\M2/c2){.. = g2})

    returned as maps g -> Fraction.  This is the per-label identity in the
    entrywise (two-sided fibre) form, where every level set is a union of
    components; on the raw pullback apex the labels are not component
    constant and the naive reading fails.

    The left-hand side is read off pi0 of the composed apex, in the one
    pass span_matrix makes (_fibre_chi), at the representatives r1 of c1
    and r2 of c2, and moved to (c1, c2) by _to_pair's equivalence
    (a, s, t) -> (a, s s0, u0 t) of r1\\M/r2 with c1\\M/c2, which moves
    every label g to V2(u0) + g + H1(s0), the move labeled_fibre makes off
    the representatives.  The right-hand side reads the labelled fibres of
    sp1 and sp2 over each d (labeled_fibre), which are what the identity is
    about, from one search per span: looping over the entries reuses it.
    A given composed must be compose_spans(sp1, sp2) itself
    (ComposabilityError otherwise)."""
    composed = _composite_of(sp1, sp2, composed, ComposabilityError, "sp1, sp2")
    G, T = sp1.group, sp1.target
    r1, r2, move = _to_pair(composed, c1, c2)
    lhs = _fibre_chi(composed).get((r1, r2), {})
    if move is not None:
        label = move[1]
        lhs = {label(g): x for g, x in lhs.items()}
    rhs = {}
    for d in T.component_reps():
        chi_td = Fraction(1, T.aut_order(d))
        left_side = labeled_fibre(sp1, c1, d)
        right_side = labeled_fibre(sp2, d, c2).items()
        for g1, x1 in left_side.items():
            y1 = x1 * chi_td
            for g2, x2 in right_side:
                g = G.add(g2, g1)
                rhs[g] = rhs.get(g, 0) + y1 * x2
    rhs = {g: v for g, v in rhs.items() if v != 0}
    return lhs, rhs


# ---------------------------------------------------------------------------
# identity / pushforward / pullback spans


def identity_span(h):
    """(id_S, e)_*: apex S, both legs the identity, label constantly 0."""
    S = h.source
    G = h.group
    return GSpan(
        S,
        identity_functor(S),
        identity_functor(S),
        h,
        h,
        lambda a: G.identity,
    )


def pushforward_span(phi, h, v, eps):
    """(phi, eps)_* for phi: S -> T and eps natural from H to V o phi."""
    S = phi.source
    return GSpan(S, identity_functor(S), phi, h, v, eps)


def pullback_span(phi, h, v, eps):
    """(phi, eps^-1)^*: the same data viewed as a span from T to S, with the
    inverted labels."""
    S = phi.source
    G = h.group
    eps_fn = _as_fn(eps)
    return GSpan(
        S,
        phi,
        identity_functor(S),
        v,
        h,
        lambda a: G.neg(eps_fn(a)),
    )


def pushforward_matrix_closed_form(phi, h, v, eps, forward=True):
    """Counting form of the (phi, eps)_* and (phi, eps^-1)^* matrices:

    forward:  entry(c,d) = chi(T{d}) sum_g |{t in T(phi c, d) : V(t)+eps(c)=g}| g
    backward: entry(d,c) = chi(S{c}) sum_g |{t in T(d, phi c) : -eps(c)+V(t)=g}| g
    """
    S, T = phi.source, phi.target
    G = h.group
    eps_fn = _as_fn(eps)
    s_reps = S.component_reps()
    t_reps = T.component_reps()
    if forward:
        rows, cols = s_reps, t_reps
    else:
        rows, cols = t_reps, s_reps
    entries = []
    for rrep in rows:
        row = []
        for crep in cols:
            c, d = (rrep, crep) if forward else (crep, rrep)
            counts = {}
            if forward:
                for t in T.hom(phi.on_obj(c), d):
                    g = G.add(v.value(t), eps_fn(c))
                    counts[g] = counts.get(g, 0) + 1
                scale = Fraction(1, T.aut_order(d))
            else:
                for t in T.hom(d, phi.on_obj(c)):
                    g = G.add(G.neg(eps_fn(c)), v.value(t))
                    counts[g] = counts.get(g, 0) + 1
                scale = Fraction(1, S.aut_order(c))
            row.append(
                GroupRingElement(G, {g: scale * n for g, n in counts.items()})
            )
        entries.append(row)
    return SpanMatrix(G, rows, cols, entries)


# ---------------------------------------------------------------------------
# 2-cells (G-span morphisms)


class SpanMorphismError(ValueError):
    """A would-be 2-cell fails one of its laws; carries a witness."""


class SpanMorphism:
    """(A, Phi, B): a functor between apexes plus natural transformations
    A: L1 => L2 Phi and B: R1 => R2 Phi with V(Bx) + eps1(x) = eps2(Phi x) + H(Ax)."""

    def __init__(self, src_span, dst_span, phi, a, b, check=True):
        self.src_span = src_span
        self.dst_span = dst_span
        self.phi = phi
        self.a = _as_fn(a)
        self.b = _as_fn(b)
        self.checked = False  # set by validate, identity_cell or a composite
        if check:
            self.validate()

    def validate(self):
        """The laws of a 2-cell, checked once, where the cell is made: at
        construction, unless check=False, the caller's promise that they
        hold.  vertical_compose and horizontal_compose walk such a factor
        once, and never walk their composites, which the composition lemma
        checks (see there); identity_cell is a 2-cell for every span.  The
        two spans share their feet (the same objects) and their H and V (the
        same functors, or functors to BG equal on the foot's generating
        family; an unchecked one is validated once).  At every object x of
        M1, A(x) and B(x) have the right endpoints and V(Bx) + eps1(x) =
        eps2(Phi x) + H(Ax); and A and B are natural on the generating
        family, read with its endpoints from M1.generating_family() (the
        component stars of a table or a pullback view: any f: x -> y is
        star(y) a star(x)^-1 with a in Aut(r) at the representative r).  Naturality on generators implies it on
        composites and inverses only because L1, L2, R1, R2 and Phi are
        functors, which this does not check: vertical_compose,
        horizontal_compose and identity_composite_cells build Phi as a
        functor (see cells_equal), and the CLI checks a document's legs and
        Phi with GroupoidFunctor(check=True).  Raises SpanMorphismError at
        the first failure, or marks the cell checked."""
        sp1, sp2 = self.src_span, self.dst_span
        if sp1.source is not sp2.source or sp1.target is not sp2.target:
            raise SpanMorphismError("the cell's two spans have different feet")
        legs = (("H", sp1.h, sp2.h), ("V", sp1.v, sp2.v))
        _validate_legs_over_bg(
            [(name, f) for name, f1, f2 in legs for f in (f1, f2)],
            SpanMorphismError,
        )
        for name, f1, f2 in legs:
            if f1 is not f2 and not f1.extensionally_equals(f2):
                raise SpanMorphismError(
                    "the cell's two spans have different %s over BG" % name
                )
        S, T, G = sp1.source, sp1.target, sp1.group
        M1 = sp1.apex
        comps = {}  # x -> (A(x), B(x))
        for x in M1.objects:
            px = self.phi.on_obj(x)
            ax, bx = comps[x] = self.a(x), self.b(x)
            if S.source_of(ax) != sp1.left.on_obj(x) or S.target_of(
                ax
            ) != sp2.left.on_obj(px):
                raise SpanMorphismError("A component has wrong endpoints at %r" % (x,))
            if T.source_of(bx) != sp1.right.on_obj(x) or T.target_of(
                bx
            ) != sp2.right.on_obj(px):
                raise SpanMorphismError("B component has wrong endpoints at %r" % (x,))
            lhs = G.add(sp1.v.value(bx), sp1.eps(x))
            rhs = G.add(sp2.eps(px), sp1.h.value(ax))
            if lhs != rhs:
                raise SpanMorphismError(
                    "label compatibility fails at object %r" % (x,)
                )
        for m, x, y in M1.generating_family():
            ax, bx = comps[x]
            ay, by = comps[y]
            pm = self.phi.on_mor(m)
            if S.compose_m(ay, sp1.left.on_mor(m)) != S.compose_m(
                sp2.left.on_mor(pm), ax
            ):
                raise SpanMorphismError("A is not natural at %r" % (m,))
            if T.compose_m(by, sp1.right.on_mor(m)) != T.compose_m(
                sp2.right.on_mor(pm), bx
            ):
                raise SpanMorphismError("B is not natural at %r" % (m,))
        self.checked = True


def _checked_cell(src_span, dst_span, phi, a, b):
    """A cell whose laws hold by construction: built unwalked, marked checked."""
    cell = SpanMorphism(src_span, dst_span, phi, a, b, check=False)
    cell.checked = True
    return cell


def identity_cell(sp):
    """(id, id_M, id): a 2-cell from every span to itself, so checked."""
    S, T = sp.source, sp.target
    return _checked_cell(
        sp,
        sp,
        identity_functor(sp.apex),
        lambda x: S.identity_at(sp.left.on_obj(x)),
        lambda x: T.identity_at(sp.right.on_obj(x)),
    )


def vertical_compose(c2, c1):
    """(A2 Phi1 o A1, Phi2 o Phi1, B2 Phi1 o B1) : M1 => M3.

    The composite is a 2-cell by the composition lemma, so it is marked
    checked and never walked.  c1: sp1 => sp2 and c2: sp2 => sp3 have the
    same feet and the same H and V (validate checks that per cell), V is a
    functor and G is abelian, so at every object x of M1

        V(B2 Phi1 x o B1 x) + eps1(x)
          = V(B2 Phi1 x) + eps2(Phi1 x) + H(A1 x)          c1's law at x
          = eps3(Phi2 Phi1 x) + H(A2 Phi1 x) + H(A1 x)     c2's law at Phi1 x
          = eps3(Phi2 Phi1 x) + H(A2 Phi1 x o A1 x);

    the components have the composed endpoints, and A2 Phi1 o A1 and
    B2 Phi1 o B1 are natural because A1 and B1 are, and so are A2 and B2
    whiskered by the functor Phi1.  The premises, checked here: c1 ends at
    the span c2 starts from (the same object: another span on the same apex
    has other labels), and each factor is checked, walked here once if it
    was made with check=False.  A failure raises SpanMorphismError."""
    if c1.dst_span is not c2.src_span:
        raise SpanMorphismError(
            "cells do not compose vertically: the first ends at another span"
        )
    _walk_unchecked(c1, c2)
    S, T = c1.src_span.source, c1.src_span.target
    return _checked_cell(
        c1.src_span,
        c2.dst_span,
        c1.phi.then(c2.phi),
        lambda x: S.compose_m(c2.a(c1.phi.on_obj(x)), c1.a(x)),
        lambda x: T.compose_m(c2.b(c1.phi.on_obj(x)), c1.b(x)),
    )


def _composite_of(sp1, sp2, composed, error, of):
    """compose_spans(sp1, sp2), or composed if compose_spans made it from
    exactly these two spans; otherwise raise error, naming them as of."""
    if composed is None:
        return compose_spans(sp1, sp2)
    factors = composed.factors
    if factors is None or factors[0] is not sp1 or factors[1] is not sp2:
        raise error("a given composite is not compose_spans of %s" % of)
    return composed


def horizontal_compose(c1, c2, composed_src=None, composed_dst=None):
    """(A1 p1, Phi1 x_T Phi2, B2 p2): on objects
    (x1, t, x2) -> (Phi1 x1, A2 x2 o t o (B1 x1)^-1, Phi2 x2), and on
    handles (m1, t, m2) -> (Phi1 m1, A2 x2 o t o (B1 x1)^-1, Phi2 m2) for
    m1 from x1 and m2 from x2.  The middle slot u is computed once per
    object (x1, t, x2) of the source apex; a handle reads it at its source.

    The composite is a 2-cell by the composition lemma, so it is marked
    checked and never walked.  It is vertical_compose's computation,
    slotwise on (x1, t, x2): with u = A2(x2) t B1(x1)^-1, V1 = H2 a
    functor, and each cell's two spans sharing H and V (validate checks
    that per cell),

        V2(B2 x2) + eps(x1, t, x2)
          = V2(B2 x2) + eps2(x2) + V1(t) + eps1(x1)
          = eps2'(Phi2 x2) + H2(A2 x2) + V1(t)            c2's law at x2
            - V1(B1 x1) + eps1'(Phi1 x1) + H1(A1 x1)      c1's law at x1
          = eps2'(Phi2 x2) + V1(u) + eps1'(Phi1 x1) + H1(A1 x1)
          = eps'(Phi(x1, t, x2)) + H1(A1 x1);

    A1 p1 and B2 p2 are natural because A1 and B2 are, and the composites'
    outer legs are L1 p1 and R2 p2.  The premises, checked here: each
    factor is checked, walked here once if it was made with check=False,
    and the two spans are compose_spans of the factors' spans, which checks
    V1 = H2 and the legs over BG: composed_src and composed_dst, when
    given, must have been made by compose_spans from exactly those spans.
    A failure raises SpanMorphismError, or compose_spans' own error."""
    _walk_unchecked(c1, c2)
    of = "the cells' spans"
    src = _composite_of(c1.src_span, c2.src_span, composed_src, SpanMorphismError, of)
    dst = _composite_of(c1.dst_span, c2.dst_span, composed_dst, SpanMorphismError, of)
    T = c1.src_span.target
    M1, M2 = c1.src_span.apex, c2.src_span.apex
    u_of = {}  # object (x1, t, x2) of the source apex -> its u

    def u_at(o):
        u = u_of.get(o)
        if u is None:
            x1, t, x2 = o
            u = u_of[o] = T.compose_m(
                c2.a(x2), T.compose_m(t, T.inverse_m(c1.b(x1)))
            )
        return u

    def obj_map(o):
        return (c1.phi.on_obj(o[0]), u_at(o), c2.phi.on_obj(o[2]))

    def mor_map(m):
        m1, t, m2 = m
        u = u_at((M1.source_of(m1), t, M2.source_of(m2)))
        return (c1.phi.on_mor(m1), u, c2.phi.on_mor(m2))

    phi = GroupoidFunctor(src.apex, dst.apex, obj_map, mor_map, check=False)
    return _checked_cell(
        src, dst, phi, lambda o: c1.a(o[0]), lambda o: c2.b(o[2])
    )


def identity_composite_cells(sp):
    """The two 2-cells from the absorption proof: q: M => S x_S M (insert the
    identity leg) and p2: S x_S M => M (project it away), plus the composite
    span S x_S M itself."""
    spm = compose_spans(identity_span(sp.h), sp)
    S, T, M = sp.source, sp.target, sp.apex

    def q_obj(x):
        lx = sp.left.on_obj(x)
        return (lx, S.identity_at(lx), x)

    def q_mor(m):
        lx = sp.left.on_obj(M.source_of(m))
        return (sp.left.on_mor(m), S.identity_at(lx), m)

    q = SpanMorphism(
        sp,
        spm,
        GroupoidFunctor(M, spm.apex, q_obj, q_mor, check=False),
        lambda x: S.identity_at(sp.left.on_obj(x)),
        lambda x: T.identity_at(sp.right.on_obj(x)),
    )

    p2 = SpanMorphism(
        spm,
        sp,
        spm.pullback.p2,
        lambda o: o[1],
        lambda o: T.identity_at(sp.right.on_obj(o[2])),
    )
    return q, p2, spm


def interchange_check(u1, w1, u2, w2):
    """(w1 * u1) x_T (w2 * u2) == (w1 x_T w2) * (u1 x_T u2), componentwise.
    u1: A1 => M1, w1: M1 => U1 on the first leg; u2, w2 likewise.  The six
    composites are checked by the composition lemma, so no composite cell
    is walked, and a factor only if it was made with check=False.  Both
    Phis are functors, so cells_equal compares them on generators only."""
    top = compose_spans(u1.src_span, u2.src_span)
    mid = compose_spans(u1.dst_span, u2.dst_span)
    bot = compose_spans(w1.dst_span, w2.dst_span)
    lhs = horizontal_compose(
        vertical_compose(w1, u1), vertical_compose(w2, u2), top, bot
    )
    hu = horizontal_compose(u1, u2, top, mid)
    hw = horizontal_compose(w1, w2, mid, bot)
    rhs = vertical_compose(hw, hu)
    return cells_equal(lhs, rhs)


def cells_equal(u, w):
    """Componentwise equality of parallel 2-cells on one source apex M: Phi,
    A and B at every object, and Phi on M.morphism_sample().  That family
    suffices for functors: any f: x -> y of a table or a pullback view is
    star(y) a star(x)^-1 with a in Aut(r) at its component's representative
    r (an action groupoid's family generates it).  interchange_check's two Phis are
    functors by construction: vertical_compose's is `then` of two functors,
    and horizontal_compose's, (m1, t, m2) -> (Phi1 m1, A2(x2) t B1(x1)^-1,
    Phi2 m2) for m1 from x1 and m2 from x2, is one whenever Phi1 and Phi2
    are functors and A and B are natural, because slotwise takes a
    composite's element slot from its source factor."""
    M = u.src_span.apex
    if w.src_span.apex is not M:
        return False
    for x in M.objects:
        if (
            u.phi.on_obj(x) != w.phi.on_obj(x)
            or u.a(x) != w.a(x)
            or u.b(x) != w.b(x)
        ):
            return False
    return all(u.phi.on_mor(m) == w.phi.on_mor(m) for m in M.morphism_sample())


def fibre_map_preserves_labels(cell, c, d):
    """The induced map of two-sided fibres
    (x, s, t) -> (Phi x, A(x) o s, t o B(x)^-1) lands in the target fibre
    and in the same label level; False if some image misses either.  It
    walks the objects of c\\M1/d in the fibre table's order, and an image
    (px, s2, t2) is in c\\M2/d when px is in M2, s2 in S(c, L2 px) and t2
    in T(R2 px, d), so it builds no fibre and walks no apex morphism."""
    sp1, sp2 = cell.src_span, cell.dst_span
    S, T, G = sp1.source, sp1.target, sp1.group
    objects2 = set(sp2.apex.objects)

    def label(sp, a, s, t):
        return G.add(sp.v.value(t), G.add(sp.eps(a), sp.h.value(s)))

    for x in sp1.apex.objects:
        for s in S.hom(c, sp1.left.on_obj(x)):
            for t in T.hom(sp1.right.on_obj(x), d):
                px = cell.phi.on_obj(x)
                s2 = S.compose_m(cell.a(x), s)
                t2 = T.compose_m(t, T.inverse_m(cell.b(x)))
                if (
                    px not in objects2
                    or s2 not in sp2.source.hom(c, sp2.left.on_obj(px))
                    or t2 not in sp2.target.hom(sp2.right.on_obj(px), d)
                ):
                    return False  # the image misses the target fibre
                if label(sp2, px, s2, t2) != label(sp1, x, s, t):
                    return False
    return True
