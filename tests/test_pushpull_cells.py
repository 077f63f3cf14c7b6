"""The 2-cells relating (phi,eps)_* o (phi,eps^-1)^* to identity spans."""

import random

from gspans.constructions import GroupoidFunctor
from gspans.gspan import (
    SpanMorphism,
    compose_spans,
    identity_span,
    pullback_span,
    pushforward_span,
)
from gspans.random_spans import random_pushforward_data


def cell_identity_to_roundtrip(phi, h, v, eps):
    """(id_S, e)_* => (phi,eps)_* x_T (phi,eps^-1)^*  via x -> (x, id_phix, x)."""
    fwd = pushforward_span(phi, h, v, eps)
    bwd = pullback_span(phi, h, v, eps)
    comp = compose_spans(fwd, bwd)
    ident = identity_span(h)
    S, T = ident.source, fwd.target

    def obj_map(x):
        return (x, T.identity_at(phi.on_obj(x)), x)

    def mor_map(m):
        x = S.source_of(m)
        return (m, T.identity_at(phi.on_obj(x)), m)

    cell = SpanMorphism(
        ident,
        comp,
        GroupoidFunctor(ident.apex, comp.apex, obj_map, mor_map, check=False),
        lambda x: S.identity_at(x),
        lambda x: S.identity_at(x),
    )
    return cell


def cell_roundtrip_to_identity(phi, h, v, eps):
    """(phi,eps^-1)^* x_S (phi,eps)_* => (id_T, e)_*  via (x1, s, x2) -> phi x1."""
    fwd = pushforward_span(phi, h, v, eps)
    bwd = pullback_span(phi, h, v, eps)
    comp = compose_spans(bwd, fwd)  # span from T to T with apex S x_S S
    ident = identity_span(v)
    S, T = phi.source, phi.target

    def obj_map(o):
        x1, s, x2 = o
        return phi.on_obj(x1)

    def mor_map(m):
        m1, s, m2 = m
        return phi.on_mor(m1)

    def b_comp(o):
        x1, s, x2 = o
        return T.inverse_m(phi.on_mor(s))

    cell = SpanMorphism(
        comp,
        ident,
        GroupoidFunctor(comp.apex, ident.apex, obj_map, mor_map, check=False),
        lambda o: T.identity_at(phi.on_obj(o[0])),
        b_comp,
    )
    return cell


def test_roundtrip_cells_exist_and_validate():
    rng = random.Random(42)
    for _ in range(5):
        phi, h, v, eps = random_pushforward_data(rng, max_objects=4)
        cell_identity_to_roundtrip(phi, h, v, eps)  # validates on construction
        cell_roundtrip_to_identity(phi, h, v, eps)
