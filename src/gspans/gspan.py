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
in _fibre_chi, which span_matrix, labeled_fibre and the per-label lemma
read; labeled_fibre moves a fibre at representatives to any other pair of
objects by an equivalence that shifts its labels (_to_pair).  A fibre
object (a, s, t) has as many outgoing morphisms as a has in M, and
naturality moves (a, s, t) along M without changing its label, so each
component [a] of M contributes to exactly one entry, by groupoid
cardinality:

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
once), and labeled_fibre refuses only at the fibres whose square fails
(_refused).  Validation walks the apex's generating family, except on a span
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
A span's chi map has one denominator, the lcm of its |Aut a| values, and
a span or character matrix one integer form (den, rows): rows[i][j] lists
entry (i, j)'s nonzero (key, numerator) terms over den.  span_matrix folds
1/|Aut d| into den and makes entries from the same integers, one Fraction
per term.  Matrix products use the order (A B)(c1, c2) = sum_d B(d, c2)
A(c1, d) (for abelian G this equals the usual product; a test asserts both
agree).  Span and character matrices share one sparse product,
_product_entries, which reads both forms and sums the product's own in
integers.  A character image maps a form's numerators by exponent
(Character._image, which apply reads too); a character matrix makes its
CyclotomicNumber entries only when read, and is_identity and == read the
forms.  The right-hand side of the per-label lemma
(labeled_pullback_identity) sums the factors' integer chi maps over each
d and moves the sum once, by the composite's shift.  None checks a key
again, so each label is checked to be an element of G where it is read:
per member, on the validation walk, and at the representatives in
_fibre_chi.
Component representatives are fixed once per groupoid (its first object),
and all label formulas use those representatives consistently.
"""

import functools
import math
import operator
from fractions import Fraction

from gspans.algebra import CyclotomicNumber, GroupRingElement, _accumulate, _reduce
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
        self._refused = None  # _refused(self)
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

        Otherwise the square is walked on the generating family
        (_unnatural), and the first handle where it fails is the witness."""
        lo, ro = self.left.member_objects, self.right.member_objects
        if lo is not None and ro is not None and self.member_label is not None:
            self._validate_members(lo, ro, self.member_label.values)
            self.checked = True
            return
        for m, _, _, e1, e2 in _unnatural(self):
            raise GSpanError(
                "labeling is not natural at morphism %r: %r + HL != VR + %r"
                % (m, e2, e1)
            )
        self.checked = True

    def _validate_members(self, lo, ro, labels):
        """e_i + H(id_{x_i}) = V(id_{y_i}) + e_i for each member i, with x_i
        = lo[i], y_i = ro[i] and e_i = labels[i] (see validate); each
        distinct e_i is checked once to be an element of G."""
        add, S, T = self.group.add, self.source, self.target
        checked = set()
        h_id = {x: self.h.value(S.identity_at(x)) for x in set(lo)}
        v_id = {y: self.v.value(T.identity_at(y)) for y in set(ro)}
        for i, e in enumerate(labels):
            if e not in checked:
                _check_label(self.group, e, checked)
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


def _check_label(group, e, checked):
    """Add the label e to the set checked if it is an element of group, and
    raise GSpanError otherwise: the group's add would truncate or reduce a
    label of the wrong length or range without an error, and no term of
    the matrix is checked again.  Callers skip the labels already in
    checked, so each distinct label is checked once."""
    try:
        group.check(e)
    except (TypeError, ValueError):
        raise GSpanError("label %r is not an element of %r" % (e, group)) from None
    checked.add(e)


def _unnatural(sp):
    """(m, a1, a2, eps(a1), eps(a2)) for each handle m: a1 -> a2 of the
    apex's generating family (a table's component stars, a pullback view's
    search forest, an action groupoid's points x generators) where the
    square eps(a2) + HL(m) = VR(m) + eps(a1) fails, in family order;
    composites and inverses follow from the family when HL and VR are
    functors.  The family comes grouped by source, so eps(a1) is read once
    per run of handles with the same source.  Each distinct label read is
    checked to be an element of G (GSpanError otherwise).
    GSpan.validate raises at the first; _refused keeps the first per fibre."""
    G, eps, checked = sp.group, sp.eps, set()
    add = G.add
    h, left = sp.h.value, sp.left.on_mor
    v, right = sp.v.value, sp.right.on_mor
    a1 = None
    for m, src, tgt in sp.apex.generating_family():
        if a1 is None or src != a1:
            a1 = src
            e1 = eps(a1)
            if e1 not in checked:
                _check_label(G, e1, checked)
        e2 = eps(tgt)
        if e2 not in checked:
            _check_label(G, e2, checked)
        if add(e2, h(left(m))) != add(v(right(m)), e1):
            yield m, a1, tgt, e1, e2


def labeled_fibre(sp, c, d):
    """{g: chi((c\\M/d){label = g})} for the labelled two-sided fibre
    c\\M/d of a span at objects c of S and d of T, whose object (a, s, t),
    s in S(c, La) and t in T(Ra, d), is labelled V(t) + eps(a) + H(s).  It
    is _fibre_chi's map at the representatives r1 of c and r2 of d, the
    span matrix's own, moved to (c, d) by _to_pair's equivalence, which
    shifts every label by V(u0) + H(s0).  two_sided_fibre is the table the
    tests compare with.  A span made with check=False is refused
    (GSpanError, naming two objects of c\\M/d with different labels) at
    exactly the (c, d) whose fibre holds a handle where its square fails
    (_refused); a checked span walks nothing."""
    r1, r2, move = _to_pair(sp, c, d)
    witness = None if sp.checked else _refused(sp).get((r1, r2))
    if witness is not None:
        a1, g1, o1, g2, o2 = witness
        if move is not None:
            obj, label = move
            g1, o1, g2, o2 = label(g1), obj(o1), label(g2), obj(o2)
        raise GSpanError(
            "label not constant on the component of %r: %r at %r, %r at %r"
            % (a1, g1, o1, g2, o2)
        )
    den, chi = _fibre_chi(sp)
    nums = chi.get((r1, r2), {})
    if move is None:
        return {g: Fraction(k, den) for g, k in nums.items()}
    label = move[1]
    return {label(g): Fraction(k, den) for g, k in nums.items()}


def _to_pair(sp, c, d):
    """(r1, r2, move) for objects c of S and d of T: the representatives r1
    of c's component and r2 of d's, and move, None when (c, d) is (r1, r2)
    and otherwise the maps (obj, label) of the equivalence
    r1\\M/r2 -> c\\M/d, (a, s, t) -> (a, s s0, u0 t), for the first s0 in
    S(c, r1) and u0 in T(r2, d).  It sends the fibre morphism (m, s, t) to
    (m, s s0, u0 t), so it matches components and |Aut|, and it moves the
    label V(t) + eps(a) + H(s) to V(u0) + V(t) + eps(a) + H(s) + H(s0), as
    H and V are functors: label(g) = V(u0) + g + H(s0).  labeled_fibre
    moves _fibre_chi's map, and a refusal's witness, with it."""
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


def _refused(sp):
    """{(c, d): (a1, g1, o1, g2, o2)} over the representatives c of S and d
    of T: the first handle m: a1 -> a2 of the generating family, with
    c = rep(L a1) and d = rep(R a1), where the square fails (_unnatural),
    as a move of c\\M/d from o1 = (a1, s0, t0), s0 the first of S(c, L a1)
    and t0 the first of T(R a1, d), to o2 = (a2, L(m) s0, t0 R(m)^-1),
    with labels g1 at o1 and g2 at o2.  As H and V are functors (validated
    here first, GSpanError otherwise),
    g2 - g1 = eps(a2) + HL(m) - VR(m) - eps(a1) for every s and t, so the
    labels differ at the ends of m's moves exactly where the square fails;
    in a fibre with none the label is constant on each component, and
    _fibre_chi's count |S(c, La)| |T(Ra, d)| / |Aut a| per component of M is
    the sum of 1/|Aut| over the fibre's components it meets, by
    orbit-stabilizer.  Made once per span and memoized."""
    if sp._refused is None:
        _validate_legs_over_bg((("H", sp.h), ("V", sp.v)), GSpanError)
        S, T, add = sp.source, sp.target, sp.group.add
        h, v, left, right = sp.h.value, sp.v.value, sp.left, sp.right
        refused = {}
        for m, a1, a2, e1, e2 in _unnatural(sp):
            la, ra = left.on_obj(a1), right.on_obj(a1)
            c, d = S.component_rep(la), T.component_rep(ra)
            if (c, d) not in refused:
                s0, t0 = S.hom(c, la)[0], T.hom(ra, d)[0]
                s2 = S.compose_m(left.on_mor(m), s0)
                t2 = T.compose_m(t0, T.inverse_m(right.on_mor(m)))
                refused[c, d] = (
                    a1, add(v(t0), add(e1, h(s0))), (a1, s0, t0),
                    add(v(t2), add(e2, h(s2))), (a2, s2, t2),
                )
        sp._refused = refused
    return sp._refused


# ---------------------------------------------------------------------------
# matrices


def _entry_rows(row_index, col_index, entries):
    """entries as a list of rows, one per row index, each with one entry per
    column index: the shape of a span or character matrix, else ValueError."""
    rows = [list(row) for row in entries]
    if len(rows) != len(row_index) or any(len(r) != len(col_index) for r in rows):
        raise ValueError(
            "rows of %r entries for %d row and %d column indexes"
            % ([len(r) for r in rows], len(row_index), len(col_index))
        )
    return rows


class SpanMatrix:
    """pi0(S) x pi0(T) array of group-ring elements, canonical index order,
    with its integer form (den, rows): rows[i][j] lists entry (i, j)'s
    nonzero (g, numerator) terms over den (see the module docstring)."""

    def __init__(self, group, row_index, col_index, entries):
        self.group = group
        self.row_index = list(row_index)
        self.col_index = list(col_index)
        self.entries = _entry_rows(self.row_index, self.col_index, entries)
        self.form = _integer_rows(self.entries)

    @classmethod
    def _made(cls, group, row_index, col_index, entries, form):
        """The matrix with these entries and their form, taken as they are."""
        x = object.__new__(cls)
        x.group, x.entries, x.form = group, entries, form
        x.row_index, x.col_index = list(row_index), list(col_index)
        return x

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
            and _same_form(self.form, other.form)
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


def _integer_rows(entries):
    """The integer form (den, rows) of a matrix's entries: den is the lcm of
    the denominators of every entry, and rows[i][j] lists the nonzero terms
    of entry (i, j) as (key, numerator over den) pairs."""
    forms = [[x._numerators() for x in row] for row in entries]
    den = math.lcm(*[d for row in forms for d, _ in row])
    return den, [
        [[(g, k * (den // d)) for g, k in terms] for d, terms in row]
        for row in forms
    ]


def _same_form(form1, form2):
    """Whether two integer forms of one shape hold the same entries: each
    entry's numerators, cross-multiplied by the other form's denominator,
    make the same map."""
    (den1, rows1), (den2, rows2) = form1, form2
    return all(
        len(x) == len(y) and {g: k * den2 for g, k in x} == {g: k * den1 for g, k in y}
        for row1, row2 in zip(rows1, rows2)
        for x, y in zip(row1, row2)
    )


def _fibre_chi(sp):
    """(den, {(c, d): {g: numerator}}) over the component representatives c
    of S and d of T: chi((c\\M/d){label = g}) is numerator / den, by the
    entry formula of the module docstring, in one pass over pi0(M) made
    once per span.  span_matrix, labeled_fibre and the per-label lemma read
    the same map.

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
    span.  One denominator serves the whole span: den is the lcm of its
    |Aut a| values, and each key's count is scaled by den / |Aut a| as it
    is added, so every chi is one integer numerator over den, however many
    components and |Aut| values share it (the composed Stirling apex at N=8
    has 1.37 M components); a reader makes one Fraction per term.  Each
    distinct label eps(a) is checked to be an element of G.  Over discrete
    feet V.H is one point."""
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
    checked = set()  # GSpan(..., check=False) has read no label yet
    for key in by_key:
        if key[3] not in checked:
            _check_label(sp.group, key[3], checked)
    den = math.lcm(*{key[2] for key in by_key})
    h_of, v_of = {}, {}  # La -> (c, H on S(c, La)); Ra -> (d, V on T(Ra, d))
    vh_of = {}  # (La, Ra) -> (c, d, V.H as (label, count) pairs)
    chi = {}  # (c, d) -> {label: chi times den}
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
        by_label = chi.get((c, d))
        if by_label is None:
            by_label = chi[c, d] = {}
        k *= den // n
        for x, kx in product:
            g = add(e, x)
            by_label[g] = by_label.get(g, 0) + k * kx
    sp._chi = den, chi
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


def span_matrix(sp):
    """[M, eps]: entry(c,d) = sum_g chi((c\\M/d){label=g}) (1/|T(d,d)|) g,
    with the chi maps of _fibre_chi (the entry formula is in the module
    docstring).  Each chi is an integer numerator over the span's one
    denominator den, and 1/|T(d,d)| is folded in: the matrix's integer form
    is over den * L, L the lcm of the |T(d,d)|, read once per column d, and
    column d's numerators are scaled by L / |T(d,d)|.  Each entry is made
    from the same integers, one Fraction per term; its label was checked to
    be an element of G where _fibre_chi read it.  This relies on the
    naturality square that GSpan validates at construction;
    GSpan(..., check=False) is the caller's promise that it holds.
    Coefficients are checked to be >= 0 (the semiring guarantee)."""
    G, T = sp.group, sp.target
    rows = sp.source.component_reps()
    cols = T.component_reps()
    den, chi = _fibre_chi(sp)
    auts = [T.aut_order(d) for d in cols]
    lcm = math.lcm(*auts)
    den *= lcm
    scaled_cols = [(d, lcm // n) for d, n in zip(cols, auts)]
    entries, form, empty = [], [], {}
    for c in rows:
        row, form_row = [], []
        for d, scale in scaled_cols:
            terms = [(g, k * scale) for g, k in chi.get((c, d), empty).items() if k]
            if any(k < 0 for _, k in terms):
                raise GSpanError("negative coefficient at entry (%r, %r)" % (c, d))
            row.append(GroupRingElement._over(G, terms, den))
            form_row.append(terms)
        entries.append(row)
        form.append(form_row)
    return SpanMatrix._made(G, rows, cols, entries, (den, form))


def _product_entries(a, b, add):
    """The integer form (den, sums) of A B, for span or character matrices:
    (A B)(c1, c2) = sum_d B(d, c2) A(c1, d) -- the order that stays correct
    over non-commutative group rings; equals the usual product here.  It
    reads both operands' integer forms: den is the product of their
    denominators, and sums[i][j] maps each key add(key in B, key in A) to
    the sum over every d of the products of the entries' numerators.  The
    sum is sparse: for each row of A only the d with A(c1, d) nonzero, and
    for each of those only the c2 with B(d, c2) nonzero, in increasing d,
    so a zero product is never formed (Stirling matrices are triangular).
    A sum may be 0 where terms cancel."""
    if a.col_index != b.row_index:
        raise ValueError("inner indexes do not match")
    den_a, rows_a = a.form
    den_b, rows_b = b.form
    b_nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in rows_b]
    out = []
    for a_row in rows_a:
        sums = [{} for _ in b.col_index]
        for k, y in enumerate(a_row):
            if y:
                for j, x in b_nonzero[k]:
                    _accumulate(sums[j], add, x, y)
        out.append(sums)
    return den_a * den_b, out


def matrix_multiply(a, b):
    """The product A B of span matrices (see _product_entries): keys add
    in G, and each entry is made once from its integer sums."""
    if a.group != b.group:
        raise ValueError("matrices over different groups")
    G = a.group
    den, sums = _product_entries(a, b, G.add)
    form = [[[(g, k) for g, k in s.items() if k] for s in row] for row in sums]
    entries = [[GroupRingElement._over(G, terms, den) for terms in row] for row in form]
    return SpanMatrix._made(G, a.row_index, b.col_index, entries, (den, form))


def _nonzero(coeffs):
    """The nonzero (degree, coefficient) pairs of a reduced coefficient list."""
    return [(k, x) for k, x in enumerate(coeffs) if x]


class CharacterMatrix:
    """Entrywise character image of a SpanMatrix, exact in Q(zeta_m), with
    its integer form (den, rows): rows[i][j] lists entry (i, j)'s nonzero
    (degree, numerator) pairs, reduced mod Phi_m, over den.  An image or a
    product is made from its form alone (_made), and its entries on their
    first read, once."""

    def __init__(self, row_index, col_index, entries, conductor):
        self.row_index = list(row_index)
        self.col_index = list(col_index)
        self._entries = _entry_rows(self.row_index, self.col_index, entries)
        self.conductor = conductor
        self.form = _integer_rows(self._entries)

    @classmethod
    def _made(cls, row_index, col_index, form, conductor):
        """The matrix with the given integer form, its entries not yet made."""
        x = object.__new__(cls)
        x.row_index, x.col_index = list(row_index), list(col_index)
        x._entries, x.conductor, x.form = None, conductor, form
        return x

    @property
    def entries(self):
        if self._entries is None:
            m, (den, rows) = self.conductor, self.form
            over = CyclotomicNumber._over
            self._entries = [[over(m, terms, den) for terms in row] for row in rows]
        return self._entries

    def entry(self, i, j):
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, CharacterMatrix)
            and self.conductor == other.conductor
            and self.row_index == other.row_index
            and self.col_index == other.col_index
            and _same_form(self.form, other.form)
        )

    def __mul__(self, other):
        if self.conductor != other.conductor:
            raise ValueError(
                "conductors differ: %r vs %r" % (self.conductor, other.conductor)
            )
        # keys are powers of z, added unreduced and reduced once per entry
        m = self.conductor
        den, sums = _product_entries(self, other, operator.add)
        rows = [
            [_nonzero(_reduce(m, s.items())) if s else [] for s in row] for row in sums
        ]
        return CharacterMatrix._made(self.row_index, other.col_index, (den, rows), m)

    def is_identity(self):
        """Square, with 1 = den / den at degree 0 on the diagonal and every
        other entry 0, read off the integer form."""
        if len(self.row_index) != len(self.col_index):
            return False
        den, rows = self.form
        one = [(0, den)]
        return all(
            terms == (one if i == j else [])
            for i, row in enumerate(rows)
            for j, terms in enumerate(row)
        )

    def render(self):
        return "\n".join(
            " | ".join(e.render() for e in row) for row in self.entries
        )


def character_matrix(matrix, rho):
    """[[M, eps]] = rho applied entrywise: each entry's numerators are
    imaged by rho._image, the routine Character.apply reads, over the
    matrix's own denominator, and no CyclotomicNumber is made."""
    if rho.group != matrix.group:
        raise ValueError("character over a different group")
    den, rows = matrix.form
    image = rho._image
    form = [[_nonzero(image(terms)) if terms else [] for terms in row] for row in rows]
    return CharacterMatrix._made(
        matrix.row_index, matrix.col_index, (den, form), rho.conductor
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

    The left-hand side is labeled_fibre of the composite at (c1, c2).  The
    right-hand side reads the factors' _fibre_chi maps, which span_matrix
    reads too, at r1 = rep(c1), each representative d of T and r2 =
    rep(c2): one map {g: numerator} per factor and d, over the factor's one
    denominator den1 or den2.  Its terms n1 n2 / (den1 |Aut d| den2) are
    summed in integers over den1 L den2, L the lcm of those |Aut d|, and
    one Fraction(k, den1 L den2) is made per nonzero sum,
    once its key is shifted by the composite's own move of (r1, r2) to
    (c1, c2), H1(s0) + V2(u0) (_to_pair).  No other shift is needed:
    labeled_fibre would move sp1's map at (r1, d) to (c1, d) by
    V1(u) + H1(s0) and sp2's at (d, r2) to (d, c2) by H2(u) + V2(u0), with u
    the first of Aut(d), and (a, s, t) -> (a, s, u t) is an automorphism of
    a fibre c\\M/d that adds V(u) to every label, so the map from label
    to chi at (c, d) is unchanged by a shift by V(u), u in Aut(d) (and, by
    (a, s, t) -> (a, s u, t), by H(u), u in Aut(c)).  Nor is a refusal: a
    composite exists only of checked factors, as compose_spans walks an
    unchecked one, so no fibre of a factor has a failing square.  A given
    composed must be compose_spans(sp1, sp2) itself (ComposabilityError
    otherwise)."""
    composed = _composite_of(sp1, sp2, composed, ComposabilityError, "sp1, sp2")
    T, add = sp1.target, sp1.group.add
    lhs = labeled_fibre(composed, c1, c2)
    r1, r2, move = _to_pair(composed, c1, c2)
    (den1, chi1), (den2, chi2) = _fibre_chi(sp1), _fibre_chi(sp2)
    terms = []  # (|Aut d|, sp1's numerators, sp2's numerators)
    for d in T.component_reps():
        left_side, right_side = chi1.get((r1, d)), chi2.get((d, r2))
        if left_side and right_side:
            terms.append((T.aut_order(d), left_side, right_side.items()))
    lcm = math.lcm(*(n for n, _, _ in terms))
    sums = {}
    for n, nums1, nums2 in terms:
        scale = lcm // n
        for g1, n1 in nums1.items():
            k1 = n1 * scale
            for g2, n2 in nums2:
                g = add(g2, g1)
                sums[g] = sums.get(g, 0) + k1 * n2
    den = den1 * lcm * den2
    label = (lambda g: g) if move is None else move[1]
    rhs = {label(g): Fraction(k, den) for g, k in sums.items() if k}
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
        self._dst_objects = None  # fibre_map_preserves_labels(self, ...)
        self._src_buckets = None  # likewise
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
        family, read with its endpoints from M1.generating_family(), a
        generating family grouped by source (see groupoid.generating_pairs
        for why it generates).  Naturality on generators implies it on
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
    suffices for functors, as it generates M: on a pullback view any
    f: x -> y is path(y) a path(x)^-1 with a in Aut(r) at its component's
    representative r and each path a word in the search forest's moves.
    interchange_check's two Phis are functors by construction:
    vertical_compose's is `then` of two functors, and horizontal_compose's,
    (m1, t, m2) -> (Phi1 m1, A2(x2) t B1(x1)^-1, Phi2 m2) for m1 from x1
    and m2 from x2, is one whenever Phi1 and Phi2 are functors and A and B
    are natural, because slotwise takes a composite's element slot from its
    source factor."""
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
    in T(R2 px, d), so it builds no fibre and walks no apex morphism.  Only
    the x with L1 x in c's component and R1 x in d's have fibre objects, as
    S(c, L1 x) and T(R1 x, d) are empty otherwise, so a call walks only
    their bucket of M1's objects, keyed by the components of L1 x and R1 x
    and made once per cell with M2's object set.  For those Phi(x), A(x),
    B(x)^-1 and the parts of the labels in x and s or x and t are read once
    per x, and each hom-set once per foot object."""
    sp1, sp2 = cell.src_span, cell.dst_span
    S, T, add = sp1.source, sp1.target, sp1.group.add
    if cell._dst_objects is None:
        cell._dst_objects = set(sp2.apex.objects)
        left, right = sp1.left.on_obj, sp1.right.on_obj
        rep_s = functools.cache(S.component_rep)
        rep_t = functools.cache(T.component_rep)
        buckets = cell._src_buckets = {}  # (rep L1 x, rep R1 x) -> [(x, L1 x, R1 x)]
        for x in sp1.apex.objects:
            lx, rx = left(x), right(x)
            buckets.setdefault((rep_s(lx), rep_t(rx)), []).append((x, lx, rx))
    objects2 = cell._dst_objects
    bucket = cell._src_buckets.get((S.component_rep(c), T.component_rep(d)), ())
    from_c = functools.cache(lambda y: S.hom(c, y))
    to_d = functools.cache(lambda y: T.hom(y, d))
    from_c2 = functools.cache(lambda y: sp2.source.hom(c, y))
    to_d2 = functools.cache(lambda y: sp2.target.hom(y, d))
    for x, lx, rx in bucket:
        ss, ts = from_c(lx), to_d(rx)
        px = cell.phi.on_obj(x)
        if px not in objects2:
            return False  # the image misses the target fibre
        ax, bx_inv = cell.a(x), T.inverse_m(cell.b(x))
        ss2 = [S.compose_m(ax, s) for s in ss]
        ts2 = [T.compose_m(t, bx_inv) for t in ts]
        hom_s2 = from_c2(sp2.left.on_obj(px))
        hom_t2 = to_d2(sp2.right.on_obj(px))
        if any(s2 not in hom_s2 for s2 in ss2) or any(
            t2 not in hom_t2 for t2 in ts2
        ):
            return False  # the image misses the target fibre
        e1, e2 = sp1.eps(x), sp2.eps(px)
        # label(x, s, t) = V(t) + (eps(x) + H(s)), its last two read per s
        xs = [
            (add(e1, sp1.h.value(s)), add(e2, sp2.h.value(s2)))
            for s, s2 in zip(ss, ss2)
        ]
        for t, t2 in zip(ts, ts2):
            v1, v2 = sp1.v.value(t), sp2.v.value(t2)
            for w1, w2 in xs:
                if add(v2, w2) != add(v1, w1):
                    return False
    return True

