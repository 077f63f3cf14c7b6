"""Seeded random corpus: groupoids, BG-functors, functors, G-spans, 2-cells.

Random groupoids are disjoint unions of coset action groupoids of small
abelian groups, so every component carries known structure: the acting group
A, the stabilizer subgroup B (= automorphism group of each object), and the
coset carrier.  Functors out of such a component are built from a group
homomorphism plus a gauge, which is exactly the general form, so the corpus
reaches nontrivial automorphism images in BG.  Random spans are full
subgroupoids of universal spans with per-component label shifts; every
constructed object passes its eager validation.
"""

from gspans.algebra import AbelianGroup
from gspans.constructions import (
    GroupoidFunctor,
    GroupValuedFunctor,
    coset_groupoid,
)
from gspans.groupoid import ActionGroupoid, disjoint_union_tables
from gspans.gspan import GSpan
from gspans.examples import universal_span


GROUP_ORDER_CHOICES = [
    [1], [2], [3], [4], [2, 2], [5], [6], [2, 3], [7], [8], [2, 4], [2, 2, 2],
]
COMPONENT_GROUP_CHOICES = [[1], [2], [3], [4], [2, 2]]
HOM_TRIES = 8  # homomorphisms random_functor draws before the trivial one
MAX_VALUE_SET = 3  # random_set_valued_functor's largest value set


def random_group(rng, max_order=6):
    choices = [o for o in GROUP_ORDER_CHOICES if _prod(o) <= max_order]
    return AbelianGroup(rng.choice(choices))


def _prod(xs):
    out = 1
    for x in xs:
        out *= x
    return out


class GroupoidMeta:
    """A table groupoid plus per-component structure data."""

    def __init__(self, table, components):
        self.table = table
        # components: list of dicts with keys
        #   group, subgroup (frozenset), cosets (list of reps), obj_ids (dict
        #   rep -> table object id), comp_index
        self.components = components


def random_groupoid(rng, max_objects=8, max_component_group=4):
    """Disjoint union of coset groupoids A/B with A small abelian, as a table
    labelled (i, coset) and (i, (coset, a)) for the i-th component drawn."""
    members = []
    comps = []
    total = 0
    n_comps = rng.randint(1, 3)
    choices = [o for o in COMPONENT_GROUP_CHOICES if _prod(o) <= max_component_group]
    for i in range(n_comps):
        A = AbelianGroup(rng.choice(choices))
        B = rng.choice(A.all_subgroups())
        member = coset_groupoid(A, B)
        if total + len(member.carrier) > max_objects:
            # an empty member keeps the index i of the components after it
            members.append(ActionGroupoid(A, [], member.act))
            continue
        total += len(member.carrier)
        members.append(member)
        comps.append(
            {
                "group": A,
                "subgroup": frozenset(B),
                "cosets": member.carrier,
                "index": i,
            }
        )
    if not comps:
        # always produce at least one point
        trivial = AbelianGroup([])
        members = [coset_groupoid(trivial, [trivial.identity])]
        comps.append(
            {
                "group": trivial,
                "subgroup": frozenset({()}),
                "cosets": [()],
                "index": 0,
            }
        )
    return GroupoidMeta(disjoint_union_tables(members), comps)


def random_hom(rng, A, G):
    """A random homomorphism A -> G as images of the cyclic generators."""
    images = []
    for n in A.orders:
        candidates = [
            g for g in G.elements() if _scalar_mul(G, n, g) == G.identity
        ]
        images.append(rng.choice(candidates))

    def hom(a):
        out = G.identity
        for coeff, img in zip(a, images):
            out = G.add(out, _scalar_mul(G, coeff, img))
        return out

    return hom


def _scalar_mul(G, n, g):
    out = G.identity
    for _ in range(n):
        out = G.add(out, g)
    return out


def random_bg_functor(rng, meta, G):
    """Random functor (table groupoid) -> BG: per component a homomorphism
    psi: A -> G plus a gauge on objects; value of (x, a) is
    psi(a) + gamma(target) - gamma(source)."""
    table = meta.table
    values = {}
    for comp in meta.components:
        A = comp["group"]
        psi = random_hom(rng, A, G)
        gamma = {x: rng.choice(G.elements()) for x in comp["cosets"]}
        i = comp["index"]
        for mid, lab in table.morphism_labels.items():
            if lab[0] != i:
                continue
            x, a = lab[1]
            src = table.object_labels[table.source[mid]][1]
            tgt = table.object_labels[table.target[mid]][1]
            values[mid] = G.add(
                psi(a), G.sub(gamma[tgt], gamma[src])
            )
    return GroupValuedFunctor(table, G, values)


def random_functor(rng, src_meta, dst_meta):
    """Random functor between random groupoids: each source component maps to
    a destination component through a homomorphism psi with psi(B) <= B' and
    an equivariant coset map."""
    src, dst = src_meta.table, dst_meta.table
    obj_map = {}
    mor_map = {}
    for comp in src_meta.components:
        A, B = comp["group"], comp["subgroup"]
        target_comp = rng.choice(dst_meta.components)
        A2, B2 = target_comp["group"], target_comp["subgroup"]

        def coset2(x, A2=A2, B2=B2):
            return min(A2.add(h, x) for h in B2)

        psi = None
        for _ in range(HOM_TRIES):
            cand = random_hom(rng, A, A2)
            if all(coset2(cand(h)) == coset2(A2.identity) for h in B):
                psi = cand
                break
        if psi is None:
            psi = lambda a, A2=A2: A2.identity
        offset = rng.choice(A2.elements())
        i, j = comp["index"], target_comp["index"]
        for x in comp["cosets"]:
            obj_map[src.object_of_label[(i, x)]] = dst.object_of_label[
                (j, coset2(A2.add(psi(x), offset)))
            ]
        for mid, lab in src.morphism_labels.items():
            if lab[0] != i:
                continue
            x, a = lab[1]
            fx = coset2(A2.add(psi(x), offset))
            mor_map[mid] = dst.morphism_of_label[(j, (fx, psi(a)))]
    return GroupoidFunctor(src, dst, obj_map, mor_map)


def random_span(rng, h, v, max_apex_objects=6):
    """Full subgroupoid of the universal span on (h, v), on at least one
    object, with per-component label shifts; always a valid span."""
    uni = universal_span(h, v)
    G = h.group
    pool = list(uni.apex.objects)
    size = rng.randint(1, min(max_apex_objects, len(pool)))
    objs = sorted(rng.sample(pool, size))
    apex = uni.apex.full_subgroupoid(objs)
    left = GroupoidFunctor(
        apex, uni.source, uni.left.on_obj, uni.left.on_mor, check=False
    )
    right = GroupoidFunctor(
        apex, uni.target, uni.right.on_obj, uni.right.on_mor, check=False
    )
    shift = {}
    for comp in apex.components():
        s = rng.choice(G.elements())
        for o in comp:
            shift[o] = s
    eps = {o: G.add(uni.eps(o), shift[o]) for o in apex.objects}
    return GSpan(apex, left, right, h, v, eps)


def random_composable_pair(rng, max_group_order=6, max_objects=6,
                           max_apex_objects=6, group=None):
    """Two spans sharing the middle leg functor, ready for compose_spans."""
    G = group if group is not None else random_group(rng, max_group_order)
    s1 = random_groupoid(rng, max_objects)
    t = random_groupoid(rng, max_objects)
    s2 = random_groupoid(rng, max_objects)
    h1 = random_bg_functor(rng, s1, G)
    vt = random_bg_functor(rng, t, G)
    v2 = random_bg_functor(rng, s2, G)
    sp1 = random_span(rng, h1, vt, max_apex_objects)
    sp2 = random_span(rng, vt, v2, max_apex_objects)
    return sp1, sp2


def random_cospan(rng, max_objects=5):
    """Functors M1 -> T <- M2 between random groupoids."""
    m1 = random_groupoid(rng, max_objects)
    t = random_groupoid(rng, max_objects)
    m2 = random_groupoid(rng, max_objects)
    return random_functor(rng, m1, t), random_functor(rng, m2, t)


def random_pushforward_data(rng, max_group_order=6, max_objects=6):
    """(phi, h, v, eps) with eps natural from h to v o phi: phi, v, eps are
    free and h is the induced functor, which is the general form."""
    G = random_group(rng, max_group_order)
    s = random_groupoid(rng, max_objects)
    t = random_groupoid(rng, max_objects)
    phi = random_functor(rng, s, t)
    v = random_bg_functor(rng, t, G)
    eps = {o: rng.choice(G.elements()) for o in s.table.objects}
    table = s.table

    def h_value(m):
        return G.add(
            G.neg(eps[table.target[m]]),
            G.add(v.value(phi.on_mor(m)), eps[table.source[m]]),
        )

    h = GroupValuedFunctor(table, G, h_value)
    return phi, h, v, eps


def random_span_with_structure(rng, max_group_order=6, max_objects=6,
                               max_apex_objects=6, group=None):
    """A single random span (with fresh feet)."""
    G = group if group is not None else random_group(rng, max_group_order)
    s = random_groupoid(rng, max_objects)
    t = random_groupoid(rng, max_objects)
    h = random_bg_functor(rng, s, G)
    v = random_bg_functor(rng, t, G)
    return random_span(rng, h, v, max_apex_objects)


def random_two_cell_square(rng):
    """Four 2-cells forming an interchange square: on each leg the projection
    cell A_i => M_i (absorption) followed by the canonical cell M_i => U_i
    into the universal span.  Sizes are kept tiny; the nested pullbacks that
    interchange_check builds are lazy views, so no size guard applies and
    only their objects and search forests are enumerated."""
    from gspans.examples import universal_cell
    from gspans.gspan import identity_composite_cells

    G = random_group(rng, 2)
    s1 = random_groupoid(rng, 2, max_component_group=3)
    t = random_groupoid(rng, 2, max_component_group=3)
    s2 = random_groupoid(rng, 2, max_component_group=3)
    h1 = random_bg_functor(rng, s1, G)
    vt = random_bg_functor(rng, t, G)
    v2 = random_bg_functor(rng, s2, G)
    sp1 = random_span(rng, h1, vt, 3)
    sp2 = random_span(rng, vt, v2, 3)
    _, u1, _ = identity_composite_cells(sp1)
    _, u2, _ = identity_composite_cells(sp2)
    w1 = universal_cell(sp1)
    w2 = universal_cell(sp2)
    return u1, w1, u2, w2


def random_set_valued_functor(rng, meta):
    """Set-valued functor on a random groupoid: per component a value set of
    fixed size transported by cyclic shifts through a random homomorphism."""
    from gspans.constructions import SetValuedFunctor

    table = meta.table
    sizes = {}
    shifts = {}
    for comp in meta.components:
        size = rng.randint(0, MAX_VALUE_SET)
        i = comp["index"]
        sizes[i] = size
        A = comp["group"]
        cyc = AbelianGroup([size]) if size > 0 else AbelianGroup([1])
        psi = random_hom(rng, A, cyc)
        shifts[i] = psi
    comp_of_obj = {}
    for comp in meta.components:
        for x in comp["cosets"]:
            comp_of_obj[table.object_of_label[(comp["index"], x)]] = comp["index"]

    def value_sets(o):
        return list(range(sizes[comp_of_obj[o]]))

    def transport(m):
        lab = table.morphism_labels[m]
        i = lab[0]
        size = sizes[i]
        if size == 0:
            return lambda x: x
        delta = shifts[i](lab[1][1])[0]
        return lambda x, d=delta, s=size: (x + d) % s

    return SetValuedFunctor(table, value_sets, transport)
