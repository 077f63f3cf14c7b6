"""Executable catalog of concrete spans: subset spans, universal spans, spans
of groups, coset spans, and the Stirling spans over the finite base 0..N.

The Stirling span apexes are Grothendieck constructions with value Fin(X,X)
over the skeletal action-groupoid models P_k//Sigma(n) of n-sets with a
k-cycle permutation (conjugation of Sigma(n) on S1(X,k)), resp. with a
k-block partition (relabelling of restricted-growth strings): the action
groupoid of Sigma(n) on pairs (sigma, tau) resp. (rho, tau) under simultaneous
conjugation, built as the equivalent union of its orbit-stabilizer slices
(ActionGroupoid.slices): over each representative sigma, Stab(sigma) acting
on tau by conjugation.  All the slices over n, of both kinds, restrict one
level Sigma(n)//Sigma(n), which stirling_pair builds once per n for both
spans; the first kind's slices are the level's own, since Sigma(n)
conjugating itself is the union over k of the permutations with k cycles.
The models P_k//Sigma(n) are built only here; tests/oracles.py has them
standalone, as reference models.  Matrices only see chi of labeled fibres,
which is what these models compute without ever materializing hom-sets.
"""

from collections import namedtuple
from fractions import Fraction

from gspans.algebra import AbelianGroup, GroupRingElement, NotASubgroupError
from gspans.constructions import (
    GroupoidFunctor,
    GroupValuedFunctor,
    coset_groupoid,
    delooping_bg,
    discrete_groupoid,
    slot_projection,
)
from gspans.groupoid import (
    ActionGroupoid,
    DisjointUnion,
    ProductGroup,
    Subgroup,
    SymmetricGroup,
    TableBuilder,
    slotwise,
)
from gspans.gspan import GSpan, MemberLabel, SpanMatrix, SpanMorphism


# ---------------------------------------------------------------------------
# permutations with k cycles, partitions with m blocks


def cycle_count(perm):
    seen = [False] * len(perm)
    count = 0
    for i in range(len(perm)):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return count


def rgs_partitions(n):
    """All set partitions of {0..n-1} as restricted-growth strings."""
    if n == 0:
        return [()]
    out = []

    def grow(prefix, top):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(top + 2):
            grow(prefix + [v], max(top, v))

    grow([0], 0)
    return out


def rgs_blocks(rgs):
    return (max(rgs) + 1) if rgs else 0


def _canonical_rgs(labels):
    seen = {}
    out = []
    for x in labels:
        if x not in seen:
            seen[x] = len(seen)
        out.append(seen[x])
    return tuple(out)


def relabel_partition(rgs, g):
    """Right action: i ~ j in rgs.g  iff  g(i) ~ g(j) in rgs."""
    return _canonical_rgs([rgs[g[i]] for i in range(len(g))])


# ---------------------------------------------------------------------------
# Stirling spans over the finite discrete base {0..N}


class StirlingSpanConfig(namedtuple("StirlingSpanConfig", "kind truncation")):
    """kind is "first" or "second"; the base is {0..truncation}."""

    __slots__ = ()

    def __new__(cls, kind, truncation):
        if kind not in ("first", "second"):
            raise ValueError("kind must be 'first' or 'second'")
        if isinstance(truncation, bool) or not isinstance(truncation, int):
            raise TypeError("truncation must be an int, not %r" % (truncation,))
        if truncation < 0:
            raise ValueError("truncation must be >= 0")
        return super().__new__(cls, kind, truncation)


SIGN_GROUP = AbelianGroup([2])


def stirling_span(cfg, base=None):
    """The sign-group span whose matrix has entries (n, k) -> S1(n,k) with
    sign label (first kind) or (k, m) -> S2(k,m) (second kind).  Both feet are
    the finite discrete base {0..N} (pass a shared one to make two spans
    strictly composable); a base without an object labelled n for some n
    in 0..N is refused with ValueError.

    The stratum (n, k) of the apex is (P x Sigma(n))//Sigma(n), P the
    permutations with k cycles (resp. partitions with k blocks), built as
    its orbit-stabilizer slices: one Sigma(n)//Stab(x) per representative x
    of P, the stabilizer acting on tau by conjugation.  Every slice over n,
    of every k, is a restriction of one level Sigma(n)//Sigma(n), so each
    generator's conjugation row on Sigma(n) is built once (once per pair in
    stirling_pair, which shares the levels); the first kind's slices are
    the level's own (_stirling_strata).  The legs
    (GroupoidFunctor.constant_on_members) and the label (MemberLabel) read
    only the slice index, so GSpan checks the naturality square once per
    slice, not per morphism, and the rows are built when span_matrix first
    asks for the slices' orbits.  A matrix entry is chi of a labelled fibre,
    which an equivalence of apexes keeps."""
    return _stirling_span(cfg, base, {})


def _stirling_span(cfg, base, levels):
    """stirling_span over levels, {n: (Sigma(n), Sigma(n)//Sigma(n))},
    read for each n it has and filled for each n it lacks."""
    if isinstance(cfg, str):
        raise TypeError("pass a StirlingSpanConfig")
    N = cfg.truncation
    if base is None:
        base = discrete_groupoid(N + 1)
    obj_of = getattr(base, "object_of_label", {})
    missing = [n for n in range(N + 1) if n not in obj_of]
    if missing:
        raise ValueError(
            "the base has no object labelled %s (need 0..%d)"
            % (", ".join(map(repr, missing)), N)
        )
    slices = []
    meta = []  # (left value, right value, label) per slice
    for n in range(N + 1):
        if n not in levels:
            sym = SymmetricGroup(n)
            levels[n] = sym, ActionGroupoid(sym, sym.elements(), sym.conjugate)
        for k, strata in _stirling_strata(cfg.kind, *levels[n]):
            label = ((n - k) % 2,) if cfg.kind == "first" else (0,)
            slices += strata
            meta += [(n, k, label)] * len(strata)
    apex = DisjointUnion(slices)
    left, right = (
        GroupoidFunctor.constant_on_members(apex, base, [obj_of[m[i]] for m in meta])
        for i in (0, 1)
    )
    triv = GroupValuedFunctor.trivial(base, SIGN_GROUP)
    labels = MemberLabel(apex, [m[2] for m in meta])
    sp = GSpan(apex, left, right, triv, triv, labels)
    sp.config = cfg
    return sp


def _stirling_strata(kind, sym, level):
    """[(k, slices of the stratum (n, k))] in increasing k, over the level
    Sigma(n)//Sigma(n).  First kind: the level's orbits are the conjugacy
    classes, in first-point order, and a class's least element is its
    first point both in Sigma(n) and in the sorted P_k, so bucketing the
    level's slices by cycle count gives each k's slices in the order of
    P_k//Sigma(n).slices(level); each stabilizer search visits the
    same points along the same rows, so it gives the same Stab(x).  Second
    kind: one model P_k//Sigma(n), relabelling partitions, per k, from one
    enumeration of the partitions of n."""
    if kind == "first":
        by_k = {}
        for x, sl in zip(level.component_reps(), level.slices(level)):
            by_k.setdefault(cycle_count(x), []).append(sl)
        return sorted(by_k.items())
    points = {}
    for rgs in rgs_partitions(sym.n):
        points.setdefault(rgs_blocks(rgs), []).append(rgs)
    return [
        (k, ActionGroupoid(sym, sorted(points[k]), relabel_partition).slices(level))
        for k in sorted(points)
    ]


def stirling_pair(N):
    """Composable (first kind, second kind) spans over one shared base; the
    middle legs (first's V, second's H) are both trivial, so equal.  The two
    spans share their levels Sigma(n)//Sigma(n), so a conjugation row on
    Sigma(n) that slices of both kinds act through is built once."""
    base = discrete_groupoid(N + 1)
    levels = {}
    first = _stirling_span(StirlingSpanConfig("first", N), base, levels)
    second = _stirling_span(StirlingSpanConfig("second", N), base, levels)
    return first, second


# ---------------------------------------------------------------------------
# universal spans


def universal_span(h, v):
    """S x_BG T with label (x, k, y) -> k; every matrix entry is
    (|G|/|T(d,d)|) * average of G."""
    S, T, G = h.source, v.source, h.group
    b = TableBuilder()
    for x in S.objects:
        for k in G.elements():
            for y in T.objects:
                b.obj((x, k, y), (S.identity_at(x), k, T.identity_at(y)))
    for s in S.all_morphisms():
        hs = h.value(s)
        x1, x2 = S.source_of(s), S.target_of(s)
        for t in T.all_morphisms():
            k_shift = G.sub(v.value(t), hs)
            y1, y2 = T.source_of(t), T.target_of(t)
            for k1 in G.elements():
                b.mor((s, k1, t), (x1, k1, y1), (x2, G.add(k_shift, k1), y2))
    apex = b.build(*slotwise((S, None, T)))
    left, right = slot_projection(apex, S, 0), slot_projection(apex, T, 2)
    return GSpan(apex, left, right, h, v, lambda o: apex.object_labels[o][1])


def universal_matrix_closed_form(h, v):
    """Entrywise (|G|/|T(d,d)|) * Gbar."""
    S, T, G = h.source, v.source, h.group
    gbar = GroupRingElement(
        G, {g: Fraction(1, G.order) for g in G.elements()}
    )
    rows = S.component_reps()
    cols = T.component_reps()
    entries = [
        [gbar.scaled(Fraction(G.order, T.aut_order(d))) for d in cols] for c in rows
    ]
    return SpanMatrix(G, rows, cols, entries)


def universal_cell(sp):
    """The canonical 2-cell from any span to the universal span on (H, V):
    Phi(x) = (Lx, eps x, Rx), with identity transformations."""
    uni = universal_span(sp.h, sp.v)
    S, T, M = sp.source, sp.target, sp.apex

    def obj_map(x):
        return uni.apex.object_of_label[
            (sp.left.on_obj(x), sp.eps(x), sp.right.on_obj(x))
        ]

    def mor_map(m):
        return uni.apex.morphism_of_label[
            (sp.left.on_mor(m), sp.eps(M.source_of(m)), sp.right.on_mor(m))
        ]

    phi = GroupoidFunctor(M, uni.apex, obj_map, mor_map, check=False)
    return SpanMorphism(
        sp,
        uni,
        phi,
        lambda x: S.identity_at(sp.left.on_obj(x)),
        lambda x: T.identity_at(sp.right.on_obj(x)),
    )


# ---------------------------------------------------------------------------
# subset spans: (1 x 1) matrices from invariant subsets of G


def subset_span(G, subset, s_elements, t_elements):
    """Action-groupoid span realizing the (1 x 1) matrix (1/|T|) sum(subset).

    s_elements/t_elements are subgroups of G, acting by x -> -t + x + s;
    NotASubgroupError (a ValueError) names one that is not
    (Subgroup.is_closed)."""
    s_grp = Subgroup(G, s_elements)
    t_grp = Subgroup(G, t_elements)
    for name, grp in (("s_elements", s_grp), ("t_elements", t_grp)):
        if not grp.is_closed():
            raise NotASubgroupError(
                "%s %r is not a subgroup of %r" % (name, grp.elements(), G)
            )
    subset = sorted({G.check(x) for x in subset})

    def act(x, st):
        s, t = st
        return G.add(G.neg(t), G.add(x, s))

    # closed under the generators (s, 0) and (0, t) of S x T is closed under
    # S x T: each acts on the finite G as a bijection, which maps a subset
    # it maps into itself onto itself, so its inverse keeps the subset too
    st_grp = ProductGroup(s_grp, t_grp)
    gens = st_grp.generators()
    in_subset = set(subset)
    for x in subset:
        for st in gens:
            if act(x, st) not in in_subset:
                raise ValueError(
                    "subset is not invariant: %r escapes under (s,t)=%r" % (x, st)
                )
    apex = ActionGroupoid(st_grp, subset, act)
    bs = delooping_bg(s_grp)
    bt = delooping_bg(t_grp)
    left = GroupoidFunctor(
        apex,
        bs,
        lambda o: bs.objects[0],
        lambda m: bs.morphism_of_label[m[1][0]],
        check=False,
    )
    right = GroupoidFunctor(
        apex,
        bt,
        lambda o: bt.objects[0],
        lambda m: bt.morphism_of_label[m[1][1]],
        check=False,
    )
    hf = GroupValuedFunctor(bs, G, lambda m: bs.morphism_labels[m], check=False)
    vf = GroupValuedFunctor(bt, G, lambda m: bt.morphism_labels[m], check=False)
    return GSpan(apex, left, right, hf, vf, lambda x: x)


def subset_span_closed_form(G, subset, t_elements):
    """(1/|T|) sum of the subset, as a 1 x 1 matrix entry."""
    c = Fraction(1, len(set(t_elements)))
    return GroupRingElement(G, {G.check(x): c for x in set(subset)})


# ---------------------------------------------------------------------------
# spans of groups (deloopings commuting up to a conjugation constant)


def group_square_span(G, m_grp, k1_grp, k2_grp, l, r, h, v, x):
    """Span of deloopings BK1 <- BM -> BK2 over BG with constant label x;
    requires x + h(l(m)) = v(r(m)) + x for every m."""
    x = G.check(x)
    for m in m_grp.elements():
        if G.add(x, h(l(m))) != G.add(v(r(m)), x):
            raise ValueError(
                "square does not commute up to conjugation at m=%r" % (m,)
            )
    bm = delooping_bg(m_grp)
    bk1 = delooping_bg(k1_grp)
    bk2 = delooping_bg(k2_grp)
    left = GroupoidFunctor(
        bm,
        bk1,
        lambda o: bk1.objects[0],
        lambda mm: bk1.morphism_of_label[l(bm.morphism_labels[mm])],
        check=False,
    )
    right = GroupoidFunctor(
        bm,
        bk2,
        lambda o: bk2.objects[0],
        lambda mm: bk2.morphism_of_label[r(bm.morphism_labels[mm])],
        check=False,
    )
    hf = GroupValuedFunctor(bk1, G, lambda mm: h(bk1.morphism_labels[mm]), check=False)
    vf = GroupValuedFunctor(bk2, G, lambda mm: v(bk2.morphism_labels[mm]), check=False)
    return GSpan(bm, left, right, hf, vf, lambda o: x)


def group_square_closed_form(G, m_grp, k1_grp, k2_grp, h, v, x):
    """(1/(|M||K2|)) sum_g |{(k1,k2): v(k2) + x + h(k1) = g}| g."""
    counts = {}
    for k1 in k1_grp.elements():
        for k2 in k2_grp.elements():
            g = G.add(v(k2), G.add(x, h(k1)))
            counts[g] = counts.get(g, 0) + 1
    c = Fraction(1, m_grp.order * k2_grp.order)
    return GroupRingElement(G, {g: c * n for g, n in counts.items()})


# ---------------------------------------------------------------------------
# coset spans


def coset_span(G, h1_elements, k1_elements, k2_elements):
    """H1\\G between K1\\G and K2\\G over BG, with trivial label; requires
    H1 <= K1 and H1 <= K2."""
    h1 = set(h1_elements)
    if not (h1 <= set(k1_elements) and h1 <= set(k2_elements)):
        raise ValueError("need H1 contained in K1 and in K2")
    apex = coset_groupoid(G, h1_elements)
    k1g = coset_groupoid(G, k1_elements)
    k2g = coset_groupoid(G, k2_elements)
    left = GroupoidFunctor(
        apex,
        k1g,
        lambda o: k1g.coset_of(o),
        lambda m: (k1g.coset_of(m[0]), m[1]),
        check=False,
    )
    right = GroupoidFunctor(
        apex,
        k2g,
        lambda o: k2g.coset_of(o),
        lambda m: (k2g.coset_of(m[0]), m[1]),
        check=False,
    )
    hf = GroupValuedFunctor.projection(k1g, G)
    vf = GroupValuedFunctor.projection(k2g, G)
    return GSpan(apex, left, right, hf, vf, lambda o: G.identity)


def coset_span_closed_form(G, h1_elements, k1_elements, k2_elements):
    """(1/(|H1||K2|)) sum_g |{(k1,k2) in K1 x K2 : k2 + k1 = g}| g,
    at the canonical (identity coset) representatives."""
    counts = {}
    for k1 in k1_elements:
        for k2 in k2_elements:
            g = G.add(k2, k1)
            counts[g] = counts.get(g, 0) + 1
    c = Fraction(1, len(set(h1_elements)) * len(set(k2_elements)))
    return GroupRingElement(G, {g: c * n for g, n in counts.items()})
