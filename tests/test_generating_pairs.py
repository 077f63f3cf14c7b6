"""The law checks on generating pairs against the all-pairs and all-triples
oracles.  generating_pairs is a subset of the composable pairs led by the
generating family and its inverses (all of them on a BG).  The three
functor validators give the oracles' verdict (accept, or the type of what
they raise) on the seeded corpus functors, the corpus documents' functors,
the cells squares' Phis and seeded one-point mutations at morphisms outside
the family; TableGroupoid.validate finds an associativity failure exactly
when the all-triples loop does, on seeded compose-table swaps."""

import glob
import os
import random
from collections import Counter

from gspans import random_spans as rnd
from gspans.algebra import AbelianGroup
from gspans.cli import DocumentError, parse_document
from gspans.constructions import (
    GroupoidFunctor,
    GroupValuedFunctor,
    SetValuedFunctor,
    coset_groupoid,
    delooping_bg,
    identity_functor,
)
from gspans.examples import stirling_pair
from gspans.groupoid import (
    DisjointUnion,
    TableGroupoid,
    composable_pairs,
    generating_pairs,
    materialize,
)
from gspans.gspan import compose_spans
from oracles import (
    all_pairs_functor_check,
    all_pairs_group_valued_check,
    all_pairs_set_valued_check,
    all_triples_associativity,
)
from test_star_family import built_of, outcome, squares  # noqa: F401

SEED = 20260810
CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")
TRIPLES = 20000  # all-triples oracle budget per table
PAIRS = 2000  # all-pairs oracle budget per Phi


def family(view):
    """The left factors of generating_pairs: the sample and its inverses."""
    sample = list(view.morphism_sample())
    return set(sample) | {view.inverse_m(s) for s in sample}


def off_the_family(view):
    """The morphisms of view that are neither in family(view) nor
    identities, in all_morphisms() order."""
    fam = family(view)
    ids = {view.identity_at(o) for o in view.objects}
    return [m for m in view.all_morphisms() if m not in fam and m not in ids]


def composable_pairs_count(view):
    mors = list(view.all_morphisms())
    out = Counter(view.source_of(m) for m in mors)
    return sum(out[view.target_of(m)] for m in mors)


def composable_triples_count(table):
    out = Counter(table.source.values())
    return sum(out[table.target[m]] ** 2 for m in table.source)


def views():
    Z4 = AbelianGroup([4])
    rng = random.Random(SEED)
    out = [delooping_bg(Z4), delooping_bg(AbelianGroup([2, 2]))]
    out += [rnd.random_groupoid(rng).table for _ in range(10)]
    out += [coset_groupoid(Z4, [(0,)]), coset_groupoid(AbelianGroup([6]), [(0,), (3,)])]
    out.append(DisjointUnion([out[0], out[-1]]))
    first, second = stirling_pair(2)
    out.append(compose_spans(first, second).apex)  # a view over a discrete T
    pair = rnd.random_composable_pair(
        rng, max_group_order=4, max_objects=4, max_apex_objects=4
    )
    out.append(compose_spans(*pair).apex)  # a view over a general T
    return out


def test_generating_pairs_are_composable_pairs_led_by_the_family():
    vs = views()
    for view in vs:
        pairs = list(generating_pairs(view))
        assert len(set(pairs)) == len(pairs)
        assert set(pairs) <= set(composable_pairs(view))
        assert {s for s, _ in pairs} == family(view)
        into = Counter(view.target_of(m) for m in view.all_morphisms())
        assert len(pairs) == sum(into[view.source_of(s)] for s in family(view))
    for bg in vs[:2]:
        assert set(generating_pairs(bg)) == set(composable_pairs(bg))


# ---------------------------------------------------------------------------
# functor verdicts against the all-pairs oracles


def with_mor(functor, m, u):
    """functor with on_mor changed at m to u, unchecked."""
    def on_mor(x):
        return u if x == m else functor.on_mor(x)

    return GroupoidFunctor(
        functor.source, functor.target, functor.on_obj, on_mor, check=False
    )


def mutated_functor(functor, rng):
    """functor changed at one morphism off the source's family to another
    morphism between the same target objects, or None if there is none."""
    tgt = functor.target
    off = off_the_family(functor.source)
    rng.shuffle(off)
    for m in off:
        fm = functor.on_mor(m)
        others = [u for u in tgt.hom(tgt.source_of(fm), tgt.target_of(fm)) if u != fm]
        if others:
            return with_mor(functor, m, rng.choice(others))
    return None


def mutated_group_valued(functor, rng):
    """functor changed at one morphism off the source's family to another
    element, or None if there is none."""
    off = off_the_family(functor.source)
    G = functor.group
    if not off or G.order < 2:
        return None
    m = rng.choice(off)
    u = rng.choice([g for g in G.elements() if g != functor.value(m)])
    return GroupValuedFunctor(
        functor.source, G, lambda x: u if x == m else functor.value(x), check=False
    )


def mutated_set_valued(sv, rng):
    """sv with the transport at one morphism off the family followed by a
    swap of two points of its target set, or None if there is none."""
    base = sv.base
    off = [
        m
        for m in off_the_family(base)
        if len(list(sv.value_sets(base.target_of(m)))) > 1
    ]
    if not off:
        return None
    m = rng.choice(off)
    a, b = rng.sample(list(sv.value_sets(base.target_of(m))), 2)
    swap = {a: b, b: a}

    def transport(x):
        f = sv.transport(x)
        if x != m:
            return f
        return lambda p: swap.get(f(p), f(p))

    return SetValuedFunctor(base, sv.value_sets, transport, check=False)


CHECKS = [
    (GroupoidFunctor, all_pairs_functor_check, mutated_functor),
    (GroupValuedFunctor, all_pairs_group_valued_check, mutated_group_valued),
    (SetValuedFunctor, all_pairs_set_valued_check, mutated_set_valued),
]


def assert_verdicts_agree(functors, rng):
    """Both checks accept each functor, and reject one mutation of it (when
    there is one) with the same exception type; returns the mutation count
    per functor type."""
    mutated = Counter()
    for f in functors:
        for kind, oracle, mutate in CHECKS:
            if isinstance(f, kind):
                break
        assert outcome(kind.validate, f) is None
        assert outcome(oracle, f) is None
        bad = mutate(f, rng)
        if bad is not None:
            verdict = outcome(kind.validate, bad)
            assert verdict is not None
            assert verdict is outcome(oracle, bad)
            mutated[kind.__name__] += 1
    return mutated


def test_functor_verdicts_match_the_all_pairs_oracles_on_the_corpus():
    rng = random.Random(SEED)
    functors = []
    for _ in range(100):
        m, t = rnd.random_groupoid(rng), rnd.random_groupoid(rng)
        G = rnd.random_group(rng, 6)
        functors += [
            rnd.random_functor(rng, m, t),
            rnd.random_bg_functor(rng, m, G),
            rnd.random_set_valued_functor(rng, m),
        ]
    Z4, Z6 = AbelianGroup([4]), AbelianGroup([6])
    for view in (coset_groupoid(Z4, [(0,)]), coset_groupoid(Z6, [(0,), (3,)])):
        functors.append(identity_functor(view))
        functors.append(GroupValuedFunctor(view, view.group, lambda m: m[1]))
    mutated = assert_verdicts_agree(functors, rng)
    assert min(mutated.values()) >= 20 and len(mutated) == 3, mutated


def test_functor_verdicts_match_the_all_pairs_oracles_on_documents():
    functors = []
    for path in sorted(glob.glob(os.path.join(CORPUS, "*.json"))):
        with open(path) as f:
            try:
                doc = parse_document(f.read(), path)
            except DocumentError:
                continue  # the bad_* documents are refused on purpose
        functors += list(doc.functors.values()) + list(doc.bg_functors.values())
        functors += [c.phi for c in doc.cells.values()]
        for sp in doc.spans.values():
            functors += [sp.left, sp.right, sp.h, sp.v]
    assert len(functors) > 10
    assert_verdicts_agree(functors, random.Random(SEED))


def test_phi_verdicts_match_the_all_pairs_oracle_on_cell_squares(squares):
    rng = random.Random(SEED)
    phis = []
    for built in built_of(squares):
        run = built.interchange
        for cell in [run.rhs] + run.horizontals:
            src = cell.src_span.apex
            if composable_pairs_count(src) <= PAIRS:
                phis.append(GroupoidFunctor(
                    src, cell.dst_span.apex, cell.phi.on_obj, cell.phi.on_mor,
                    check=False,
                ))
    mutated = assert_verdicts_agree(phis, rng)
    assert len(phis) > 80 and mutated["GroupoidFunctor"] > 20, mutated


# ---------------------------------------------------------------------------
# associativity against the all-triples oracle


def swapped(table, rng):
    """A copy of table with full compose/inverse dicts in which one entry
    (m2, m1), neither an identity and m2 not m1's inverse, has another
    morphism of its hom-set as result: the identity and inverse laws still
    hold.  None if the table has no such entry."""
    compose = {pair: table.compose_m(*pair) for pair in composable_pairs(table)}
    inverse = {m: table.inverse_m(m) for m in table.morphisms}
    ids = set(table.identity.values())
    entries = [
        (pair, m)
        for pair, m in compose.items()
        if ids.isdisjoint(pair)
        and pair[0] != inverse[pair[1]]
        and table.hom_size(table.source[m], table.target[m]) > 1
    ]
    if not entries:
        return None
    pair, m = rng.choice(entries)
    others = [u for u in table.hom(table.source[m], table.target[m]) if u != m]
    compose[pair] = rng.choice(others)
    return TableGroupoid(
        table.objects, table.source, table.target, table.identity, compose, inverse
    )


def test_associativity_matches_the_all_triples_oracle_on_swapped_tables():
    rng = random.Random(SEED)
    tables = [rnd.random_groupoid(rng).table for _ in range(30)]
    for _ in range(30):
        sp1, sp2 = rnd.random_composable_pair(
            rng, max_group_order=4, max_objects=4, max_apex_objects=4
        )
        tables.append(materialize(compose_spans(sp1, sp2).apex))
    swaps = 0
    for table in tables:
        if composable_triples_count(table) > TRIPLES:
            continue
        assert table.validate() == [] and all_triples_associativity(table) == []
        for _ in range(3):
            bad = swapped(table, rng)
            if bad is None:
                break
            report = bad.validate()
            assert report and all(r.startswith("associativity") for r in report)
            assert all_triples_associativity(bad)
            swaps += 1
    assert swaps > 60
