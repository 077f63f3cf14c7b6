"""JSON definition language and command-line interface.

A document is a JSON object with sections "groups", "groupoids", "functors",
"bg_functors", "characters", "spans", "cells"; entries refer to each other by
name and the reference graph must be acyclic.  A group is a JSON array of
integer cyclic orders.  Literal table groupoids use caller-chosen
object/morphism names; builder groupoids ("BG", "discrete", "coset",
"action", "disjoint", "pullback", "fibre") are constructed on demand, and
BG and discrete groupoids name their objects and morphisms too.  Every
resolved object passes its module's validation; errors carry the JSON path.

Commands: validate, euler, matrix, compose, check, example.  Exit codes:
0 = pass, 1 = check failure, 2 = input error or a materialization refused by
the size guard.  Pullbacks and one-sided fibres are lazy; a document's
"pullback" and "fibre" groupoids and the apex and feet that compose writes
out are materialized, and the environment variable GSPANS_SIZE_GUARD
overrides the guard on that.
"""

import argparse
import json
import random
import sys

from gspans.algebra import AbelianGroup, Character
from gspans.constructions import (
    FunctorError,
    GroupoidFunctor,
    GroupValuedFunctor,
    bg_self_functor,
    coset_groupoid,
    delooping_bg,
    discrete_groupoid,
    homotopy_pullback,
    left_fibre,
    pullback_euler_check,
    right_fibre,
    two_sided_fibre,
)
from gspans.groupoid import (
    ActionGroupoid,
    SizeGuardError,
    TableGroupoid,
    composable_pairs,
    disjoint_union_tables,
    materialize,
)
from gspans.gspan import (
    ComposabilityError,
    GSpan,
    GSpanError,
    SpanMorphism,
    SpanMorphismError,
    character_matrix,
    check_main_theorem,
    compose_spans,
    identity_span,
    interchange_check,
    labeled_pullback_identity,
    matrix_multiply,
    pushforward_matrix_closed_form,
    pushforward_span,
    pullback_span,
    span_matrix,
)
from gspans.examples import stirling_pair, universal_span
from gspans import random_spans as rnd


class DocumentError(Exception):
    def __init__(self, path, reason):
        super().__init__("%s: %s" % (path, reason))
        self.path = path
        self.reason = reason


SECTIONS = (
    "groups", "groupoids", "functors", "bg_functors", "characters", "spans",
    "cells",
)


_JSON_TYPE = {dict: "object", list: "array"}


def _need(mapping, key, path, kind=object):
    """mapping[key], checked to exist and to be an instance of kind."""
    if not isinstance(mapping, dict):
        raise DocumentError(path, "must be a JSON object")
    if key not in mapping:
        raise DocumentError(path, "missing required field %r" % key)
    value = mapping[key]
    if not isinstance(value, kind):
        raise DocumentError(
            "%s.%s" % (path, key), "must be a JSON %s" % _JSON_TYPE[kind]
        )
    return value


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _element(grp, value, path):
    """A group element written as a JSON array of integers, checked to lie
    in grp."""
    if not isinstance(value, list) or not all(_is_int(x) for x in value):
        raise DocumentError(path, "group element must be a JSON array of integers")
    try:
        return grp.check(value)
    except ValueError as e:
        raise DocumentError(path, str(e))


class Document:
    """Parsed and fully resolved document.  Each entry is built once, in
    section order, into the dict named after its section (groups ...
    cells).  names[view] = ({object name: id}, {morphism name: id}) for each
    groupoid built from names: literal tables, BG and discrete groupoids."""

    def __init__(self, data):
        if not isinstance(data, dict):
            raise DocumentError("$", "document must be a JSON object")
        self.data = data
        self.groups = {}
        self.groupoids = {}
        self.functors = {}
        self.bg_functors = {}
        self.characters = {}
        self.spans = {}
        self.cells = {}
        self.names = {}
        self._sections = {
            "groups": (self.groups, self._build_group),
            "groupoids": (self.groupoids, self._build_groupoid),
            "functors": (self.functors, self._build_functor),
            "bg_functors": (self.bg_functors, self._build_bg_functor),
            "characters": (self.characters, self._build_character),
            "spans": (self.spans, self._build_span),
            "cells": (self.cells, self._build_cell),
        }
        self._resolving = set()
        for section in SECTIONS:
            if not isinstance(data.get(section, {}), dict):
                raise DocumentError(section, "section must be a JSON object")
        for section in SECTIONS:
            for name in data.get(section, {}):
                self._get(section, name)

    # -- sections ----------------------------------------------------------

    def _get(self, section, name):
        """The entry section.name, type-checked (names are strings, groups
        are arrays of integers, other entries objects), built by its
        section's builder on first use and kept; a name met again while it
        is being built closes a reference cycle."""
        path = "%s.%s" % (section, name)
        specs = self.data.get(section, {})
        if not isinstance(name, str) or name not in specs:
            raise DocumentError(path, "unresolved name")
        spec = specs[name]
        if section == "groups":
            if not isinstance(spec, list) or not all(_is_int(n) for n in spec):
                raise DocumentError(path, "must be a JSON array of integers")
        elif not isinstance(spec, dict):
            raise DocumentError(path, "entry must be a JSON object")
        built, build = self._sections[section]
        if name not in built:
            if (section, name) in self._resolving:
                raise DocumentError(path, "reference cycle")
            self._resolving.add((section, name))
            try:
                built[name] = build(spec, path)
            finally:
                self._resolving.discard((section, name))
        return built[name]

    def _build_group(self, orders, path):
        try:
            return AbelianGroup(orders)
        except ValueError as e:
            raise DocumentError(path, str(e))

    def _build_groupoid(self, spec, path):
        kind = spec.get("type", "table" if "objects" in spec else None)
        if kind == "table" or ("objects" in spec and "morphisms" in spec):
            return self._literal_table(spec, path)
        if kind == "BG":
            g = delooping_bg(self._get("groups", _need(spec, "group", path)))
            self.names[g] = (
                {"*": g.objects[0]},
                {
                    ",".join(str(e) for e in lab): mid
                    for mid, lab in g.morphism_labels.items()
                },
            )
            return g
        if kind == "discrete":
            objs = _need(spec, "objects", path)
            if _is_int(objs) and objs >= 0:
                labels = list(range(objs))
            elif isinstance(objs, list) and all(
                isinstance(l, str) or _is_int(l) for l in objs
            ):
                labels = list(objs)
            else:
                raise DocumentError(
                    path + ".objects", "must be a count or a JSON array of names"
                )
            seen = set()
            for l in labels:
                if str(l) in seen:
                    raise DocumentError(path + ".objects", "duplicate object %r" % l)
                seen.add(str(l))
            g = discrete_groupoid(labels)
            self.names[g] = (
                {str(l): g.object_of_label[l] for l in labels},
                {"id:%s" % l: g.morphism_of_label[("id", l)] for l in labels},
            )
            return g
        if kind == "coset":
            grp = self._get("groups", _need(spec, "group", path))
            sub = [
                _element(grp, x, "%s.subgroup[%d]" % (path, k))
                for k, x in enumerate(_need(spec, "subgroup", path, list))
            ]
            try:
                return coset_groupoid(grp, sub)
            except ValueError as e:
                raise DocumentError(path, str(e))
        if kind == "action":
            grp = self._get("groups", _need(spec, "group", path))
            points = [str(p) for p in _need(spec, "points", path, list)]
            if len(set(points)) != len(points):
                raise DocumentError(path + ".points", "duplicate point")
            table = _need(spec, "action", path, dict)
            act_map = {}
            for p, moves in table.items():
                if p not in points:
                    raise DocumentError(path + ".action.%s" % p, "unknown point")
                if not isinstance(moves, dict):
                    raise DocumentError(
                        path + ".action.%s" % p, "must be a JSON object"
                    )
                for el, q in moves.items():
                    where = "%s.action.%s.%s" % (path, p, el)
                    try:
                        g = grp.check([int(x) for x in el.split(",")] if el else [])
                    except ValueError as e:
                        raise DocumentError(where, str(e))
                    if str(q) not in points:
                        raise DocumentError(where, "unknown point %r" % (q,))
                    if (p, g) in act_map:
                        raise DocumentError(where, "element %r given twice" % (g,))
                    if g == grp.identity and str(q) != p:  # act never reads it
                        raise DocumentError(where, "the identity moves %r" % p)
                    act_map[(p, g)] = str(q)

            def act(x, g):
                if g == grp.identity:
                    return x
                if (x, g) not in act_map:
                    raise DocumentError(path, "action undefined at (%r, %r)" % (x, g))
                return act_map[(x, g)]

            # the law on g2 in the generators suffices, by induction on a
            # word in them: act(act(x, g1), g2 + h)
            # = act(act(act(x, g1), g2), h) = act(act(x, g1 + g2), h)
            # = act(x, g1 + g2 + h); every (x, g1) is still evaluated, so
            # totality is checked too
            for x in points:
                for g1 in grp.elements():
                    for g2 in grp.generators():
                        if act(act(x, g1), g2) != act(x, grp.add(g1, g2)):
                            raise DocumentError(
                                path,
                                "not a right action at (%r, %r, %r)" % (x, g1, g2),
                            )
            return ActionGroupoid(grp, points, act)
        if kind == "disjoint":
            parts = [
                self._get("groupoids", p) for p in _need(spec, "parts", path, list)
            ]
            bad = [p for p in parts if not isinstance(p, TableGroupoid)]
            if bad:
                raise DocumentError(path, "disjoint parts must be tables")
            return disjoint_union_tables(parts)
        if kind == "pullback":
            f1 = self._get("functors", _need(spec, "left", path))
            f2 = self._get("functors", _need(spec, "right", path))
            try:
                return materialize(homotopy_pullback(f1, f2).groupoid)
            except Exception as e:
                raise DocumentError(path, str(e))
        if kind == "fibre":
            side = _need(spec, "side", path)
            at = _need(spec, "at", path)
            if side in ("left", "right"):
                f = self._get("functors", _need(spec, "functor", path))
                fibre = left_fibre if side == "left" else right_fibre
                fib = fibre(f, self._object(f.target, at, path))
            elif side == "two":
                if not (isinstance(at, list) and len(at) == 2):
                    raise DocumentError(path, "two-sided fibre needs at=[c, d]")
                l = self._get("functors", _need(spec, "left", path))
                r = self._get("functors", _need(spec, "right", path))
                c = self._object(l.target, at[0], path)
                d = self._object(r.target, at[1], path)
                fib = two_sided_fibre(l, r, c, d)
            else:
                raise DocumentError(path, "fibre side must be left|right|two")
            try:
                return materialize(fib)
            except Exception as e:
                raise DocumentError(path, str(e))
        raise DocumentError(path, "unknown groupoid type %r" % kind)

    def _object(self, view, objname, path):
        # resolve an object by name when the groupoid has names, else
        # accept the raw id
        names = self.names.get(view, ({}, {}))[0]
        if str(objname) in names:
            return names[str(objname)]
        if objname in view.objects:
            return objname
        raise DocumentError(path, "unknown object %r" % (objname,))

    def _literal_table(self, spec, path):
        objs = _need(spec, "objects", path, list)
        mors = _need(spec, "morphisms", path, list)
        onames = {}
        source, target, identity, compose, inverse = {}, {}, {}, {}, {}
        mnames = {}
        for i, o in enumerate(objs):
            if str(o) in onames:
                raise DocumentError(path, "duplicate object %r" % o)
            onames[str(o)] = i
        for j, m in enumerate(mors):
            if not isinstance(m, dict):
                raise DocumentError(
                    path + ".morphisms[%d]" % j, "morphism must be a JSON object"
                )
            mid = str(_need(m, "id", path))
            if mid in mnames:
                raise DocumentError(path, "duplicate morphism %r" % mid)
            mnames[mid] = j
            ends = []
            for key in ("src", "tgt"):
                side = _need(m, key, path + ".morphisms[%d]" % j)
                if str(side) not in onames:
                    raise DocumentError(
                        path + ".morphisms.%s" % mid, "unknown object %r" % side
                    )
                ends.append(onames[str(side)])
            source[j], target[j] = ends
        for o, m in _need(spec, "identity", path, dict).items():
            if str(o) not in onames or str(m) not in mnames:
                raise DocumentError(path + ".identity", "unknown name %r" % o)
            identity[onames[str(o)]] = mnames[str(m)]
        for triple in _need(spec, "compose", path, list):
            if not isinstance(triple, list) or len(triple) != 3:
                raise DocumentError(path + ".compose", "need [after, before, result]")
            m2, m1, m = (str(x) for x in triple)
            for x in (m2, m1, m):
                if x not in mnames:
                    raise DocumentError(path + ".compose", "unknown morphism %r" % x)
            compose[(mnames[m2], mnames[m1])] = mnames[m]
        for m, mi in _need(spec, "inverse", path, dict).items():
            if str(m) not in mnames or str(mi) not in mnames:
                raise DocumentError(path + ".inverse", "unknown morphism %r" % m)
            inverse[mnames[str(m)]] = mnames[str(mi)]
        g = TableGroupoid(
            list(range(len(objs))),
            source,
            target,
            identity,
            compose,
            inverse,
            object_labels={i: o for o, i in onames.items()},
            morphism_labels={j: m for m, j in mnames.items()},
        )
        report = g.validate()
        if report:
            raise DocumentError(path, "; ".join(report))
        self.names[g] = (onames, mnames)
        return g

    def _build_functor(self, spec, path):
        ends = [_need(spec, key, path) for key in ("source", "target")]
        src, tgt = [self._get("groupoids", name) for name in ends]
        if src not in self.names or tgt not in self.names:
            raise DocumentError(path, "functor endpoints must be addressable")
        (so, sm), (to, tm) = self.names[src], self.names[tgt]
        omap, mmap = {}, {}
        maps = (("objects", omap, so, to), ("morphisms", mmap, sm, tm))
        for field, out, keys, values in maps:
            where = "%s.%s" % (path, field)
            for a, b in _need(spec, field, path, dict).items():
                if str(a) not in keys:
                    raise DocumentError(where, "unknown %s %r" % (field[:-1], a))
                if str(b) not in values:
                    raise DocumentError(where, "unresolved name %r" % (b,))
                out[keys[str(a)]] = values[str(b)]
        missing = [o for o in src.objects if o not in omap]
        if missing or any(m not in mmap for m in src.morphisms):
            raise DocumentError(path, "object/morphism map is not total")
        try:
            return GroupoidFunctor(src, tgt, omap, mmap)
        except FunctorError as e:
            raise DocumentError(path, str(e))

    def _build_bg_functor(self, spec, path):
        kind = spec.get("type", "table")
        src = self._get("groupoids", _need(spec, "source", path))
        if kind == "tautological":
            # delooping_bg alone gives a table its group
            if not (isinstance(src, TableGroupoid) and hasattr(src, "group")):
                raise DocumentError(path, "tautological needs a BG groupoid")
            return bg_self_functor(src)
        grp = self._get("groups", _need(spec, "group", path))
        if kind == "trivial":
            return GroupValuedFunctor.trivial(src, grp)
        if kind != "table":
            raise DocumentError(path, "unknown bg functor type %r" % kind)
        if src not in self.names:
            raise DocumentError(path, "source must be addressable")
        sm = self.names[src][1]
        values = {}
        for f, g in _need(spec, "morphisms", path, dict).items():
            if str(f) not in sm:
                raise DocumentError(path, "unknown morphism %r" % f)
            values[sm[str(f)]] = _element(grp, g, "%s.morphisms.%s" % (path, f))
        if any(m not in values for m in src.morphisms):
            raise DocumentError(path, "morphism map is not total")
        try:
            return GroupValuedFunctor(src, grp, values)
        except FunctorError as e:
            raise DocumentError(path, str(e))

    def _build_character(self, spec, path):
        grp = self._get("groups", _need(spec, "group", path))
        # exponents live in the dual group, written like elements of grp
        exponents = _element(grp, _need(spec, "exponents", path), path + ".exponents")
        return Character(grp, exponents)

    def _build_span(self, spec, path):
        kind = spec.get("type", "explicit")
        bg = lambda key: self._get("bg_functors", _need(spec, key, path))
        if kind == "identity":
            return identity_span(bg("h"))
        if kind == "universal":
            return universal_span(bg("h"), bg("v"))
        if kind != "explicit":
            raise DocumentError(path, "unknown span type %r" % kind)
        apex = self._get("groupoids", _need(spec, "apex", path))
        left = self._get("functors", _need(spec, "left", path))
        right = self._get("functors", _need(spec, "right", path))
        h, v = bg("h"), bg("v")
        if apex not in self.names:
            raise DocumentError(path, "apex must be addressable")
        onames = self.names[apex][0]
        eps = {}
        for o, g in _need(spec, "eps", path, dict).items():
            if str(o) not in onames:
                raise DocumentError(path + ".eps", "unknown object %r" % o)
            eps[onames[str(o)]] = _element(h.group, g, "%s.eps.%s" % (path, o))
        if any(o not in eps for o in apex.objects):
            raise DocumentError(path + ".eps", "labeling is not total")
        try:
            return GSpan(apex, left, right, h, v, eps)
        except GSpanError as e:
            raise DocumentError(path, str(e))

    def _build_cell(self, spec, path):
        src = self._get("spans", _need(spec, "from", path))
        dst = self._get("spans", _need(spec, "to", path))
        # phi is given over the apex names of both spans, a and b over the
        # feet's, and only an explicit span's apex has names
        if src.apex not in self.names or dst.apex not in self.names:
            raise DocumentError(path, "cells need explicit spans over tables")
        (so, sm), (to, tm) = self.names[src.apex], self.names[dst.apex]
        s_names = self.names[src.source][1]
        t_names = self.names[src.target][1]

        def names_map(where, where_path, field, key_names, value_names):
            out = {}
            for x, y in _need(where, field, where_path, dict).items():
                if str(x) not in key_names or str(y) not in value_names:
                    raise DocumentError(
                        "%s.%s" % (where_path, field), "unknown name %r" % ((x, y),)
                    )
                out[key_names[str(x)]] = value_names[str(y)]
            return out

        phi_spec = _need(spec, "phi", path, dict)
        omap = names_map(phi_spec, path + ".phi", "objects", so, to)
        mmap = names_map(phi_spec, path + ".phi", "morphisms", sm, tm)
        a = names_map(spec, path, "a", so, s_names)
        b = names_map(spec, path, "b", so, t_names)
        if any(
            o not in omap or o not in a or o not in b for o in src.apex.objects
        ) or any(m not in mmap for m in src.apex.morphisms):
            raise DocumentError(path, "cell maps are not total")
        try:
            phi = GroupoidFunctor(src.apex, dst.apex, omap, mmap)
            return SpanMorphism(src, dst, phi, a, b)
        except (FunctorError, SpanMorphismError) as e:
            raise DocumentError(path, str(e))

    # -- serialization (round-trip) -----------------------------------------

    def serialize(self):
        return json.dumps(self.data, indent=2, sort_keys=True)


def parse_document(text, path="<doc>"):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(path, "JSON syntax error: %s" % e)
    return Document(data)


# ---------------------------------------------------------------------------
# serialization of computed spans (for `compose`)


def table_doc(view):
    """Any groupoid as a literal table document, materialized under the size
    guard, with the names it gives the view's object and morphism handles:
    "o<i>" and "m<j>" in the view's order."""
    t = materialize(view)
    on = {o: "o%d" % i for i, o in enumerate(t.objects)}
    mn = {m: "m%d" % j for j, m in enumerate(t.morphisms)}
    doc = {
        "objects": list(on.values()),
        "morphisms": [
            {"id": mn[m], "src": on[t.source[m]], "tgt": on[t.target[m]]}
            for m in t.morphisms
        ],
        "identity": {on[o]: mn[t.identity[o]] for o in t.objects},
        "compose": [
            [mn[m2], mn[m1], mn[t.compose_m(m2, m1)]]
            for m2, m1 in composable_pairs(t)
        ],
        "inverse": {mn[m]: mn[t.inverse_m(m)] for m in t.morphisms},
    }
    ol, ml = t.object_labels, t.morphism_labels
    return doc, {ol[o]: n for o, n in on.items()}, {ml[m]: n for m, n in mn.items()}


def span_to_doc(sp, out_name):
    """A standalone re-parseable document containing the span, with its
    apex and both feet written by table_doc."""
    apex = out_name + ".apex"
    apex_doc, ao, am = table_doc(sp.apex)
    span = {"apex": apex, "eps": {name: list(sp.eps(x)) for x, name in ao.items()}}
    doc = {
        "groups": {"G": list(sp.group.orders)},
        "groupoids": {apex: apex_doc},
        "functors": {},
        "bg_functors": {},
        "spans": {out_name: span},
    }
    for side, foot, bg in (("left", "source", "h"), ("right", "target", "v")):
        leg, value = getattr(sp, side), getattr(sp, bg).value
        names = {k: "%s.%s" % (out_name, k) for k in (side, foot, bg)}
        doc["groupoids"][names[foot]], fo, fm = table_doc(leg.target)
        doc["functors"][names[side]] = {
            "source": apex,
            "target": names[foot],
            "objects": {name: fo[leg.on_obj(x)] for x, name in ao.items()},
            "morphisms": {name: fm[leg.on_mor(m)] for m, name in am.items()},
        }
        doc["bg_functors"][names[bg]] = {
            "source": names[foot],
            "group": "G",
            "morphisms": {name: list(value(m)) for m, name in fm.items()},
        }
        span[side], span[bg] = names[side], names[bg]
    return doc


# ---------------------------------------------------------------------------
# commands


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return parse_document(f.read(), path)
    except OSError as e:
        raise DocumentError(path, str(e))


def _named_entry(doc, section, name):
    """The entry of a resolved document named on the command line."""
    entries = getattr(doc, section)
    if name not in entries:
        raise DocumentError("%s.%s" % (section, name), "unresolved name")
    return entries[name]


def cmd_validate(args):
    _load(args.file)
    print("ok")
    return 0


def cmd_euler(args):
    print(_named_entry(_load(args.file), "groupoids", args.name).chi())
    return 0


def _rational_entry(e):
    """Render a conductor-<=2 cyclotomic entry as a plain rational."""
    if any(c != 0 for c in e.coeffs[1:]):
        raise ValueError("%r is not a rational entry" % (e,))
    return str(e.coeffs[0])


def cmd_matrix(args):
    doc = _load(args.file)
    m = span_matrix(_named_entry(doc, "spans", args.span))
    if args.character:
        rho = _named_entry(doc, "characters", args.character)
        if rho.group != m.group:
            raise DocumentError(
                "characters.%s" % args.character,
                "character over %r, span %s over %r" % (rho.group, args.span, m.group),
            )
        cm = character_matrix(m, rho)
        rows = [[e.render() for e in row] for row in cm.entries]
        value = {"entries": rows} if args.json else cm.render()
    else:
        value = m.to_json() if args.json else m.render()
    print(json.dumps(value, indent=2) if args.json else value)
    return 0


def cmd_compose(args):
    doc = _load(args.file)
    left, right = [_named_entry(doc, "spans", n) for n in (args.left, args.right)]
    try:
        composed = compose_spans(left, right)
    except ComposabilityError as e:
        raise DocumentError("spans.%s" % args.right, str(e))
    out = args.out or "%s.%s" % (args.left, args.right)
    print(json.dumps(span_to_doc(composed, out), indent=2, sort_keys=True))
    return 0


# each check is one trial: the trial's failure message, or None


def _check_main(rng, trial, spans):
    sp1, sp2 = rnd.random_composable_pair(rng)
    lhs, rhs = check_main_theorem(sp1, sp2)
    if lhs != rhs:
        return "composition != product:\n%s\nvs\n%s" % (lhs.render(), rhs.render())
    return None


def _check_restrict(rng, trial, spans):
    sp = spans[trial] if trial < len(spans) else rnd.random_span_with_structure(rng)
    m = span_matrix(sp)
    li = span_matrix(identity_span(sp.h))
    ri = span_matrix(identity_span(sp.v))
    if matrix_multiply(li, m) != m or matrix_multiply(m, ri) != m:
        return "absorption fails for span matrix\n%s" % m.render()
    return None


def _check_phistar(rng, trial, spans):
    phi, h, v, eps = rnd.random_pushforward_data(rng)
    if span_matrix(pushforward_span(phi, h, v, eps)) != (
        pushforward_matrix_closed_form(phi, h, v, eps, forward=True)
    ):
        return "pushforward closed form mismatch"
    if span_matrix(pullback_span(phi, h, v, eps)) != (
        pushforward_matrix_closed_form(phi, h, v, eps, forward=False)
    ):
        return "pullback closed form mismatch"
    return None


def _check_interchange(rng, trial, spans):
    if not interchange_check(*rnd.random_two_cell_square(rng)):
        return "interchange law fails"
    return None


def _check_lemma_chi(rng, trial, spans):
    sp1, sp2 = rnd.random_composable_pair(rng, max_objects=5, max_apex_objects=5)
    composed = compose_spans(sp1, sp2)
    for c1 in sp1.source.component_reps():
        for c2 in sp2.target.component_reps():
            lhs, rhs = labeled_pullback_identity(sp1, sp2, c1, c2, composed=composed)
            if lhs != rhs:
                return "per-label identity fails at (%r,%r)" % (c1, c2)
    r1, l2 = rnd.random_cospan(rng)
    lhs, rhs = pullback_euler_check(r1, l2)
    if lhs != rhs:
        return "pullback chi: %s != %s" % (lhs, rhs)
    return None


CHECKS = {
    "main": _check_main,
    "restrict": _check_restrict,
    "phi*": _check_phistar,
    "interchange": _check_interchange,
    "lemma-chi": _check_lemma_chi,
}


def cmd_check(args):
    if args.trials < 0:
        raise DocumentError(
            "--trials", "the trial count must be >= 0, got %d" % args.trials
        )
    # a document's spans are the first trials of restrict
    spans = list(_load(args.file).spans.values()) if args.file else []
    which = list(CHECKS) if args.which == "all" else [args.which]
    failed = False
    for w in which:
        rng = random.Random(args.seed)
        for i in range(args.trials):
            message = CHECKS[w](rng, i, spans)
            if message is not None:
                failed = True
                print("FAIL %s (trial %d, seed %d): %s" % (w, i, args.seed, message))
                break
        else:
            print("pass %s (%d trials, seed %d)" % (w, args.trials, args.seed))
    return 1 if failed else 0


# the one bound on --n, part of the CLI contract: on orbit-stabilizer slices
# an apex has 8 904 points at N=6 and 84 504 at N=7
STIRLING_MAX_N = 6


def cmd_example(args):
    if args.kind != "stirling":
        raise DocumentError("$", "unknown example %r" % args.kind)
    n = args.n
    if not 0 <= n <= STIRLING_MAX_N:
        raise DocumentError(
            "--n", "N must be in 0..%d, got %d" % (STIRLING_MAX_N, n)
        )
    first, second = stirling_pair(n)
    a, b = span_matrix(first), span_matrix(second)
    sign = args.character == "sign"
    if sign:
        rho = Character(first.group, (1,))
        a, b = character_matrix(a, rho), character_matrix(b, rho)
        product = a * b
        rows = lambda cm: [[_rational_entry(e) for e in r] for r in cm.entries]
        as_json, as_text = rows, lambda cm: "\n".join(map(" ".join, rows(cm)))
    else:
        product = matrix_multiply(a, b)
        as_json, as_text = (lambda m: m.to_json()), (lambda m: m.render())
    shown = [
        ("first", "signed first kind" if sign else "first kind", a),
        ("second", "second kind", b),
        ("product", "product", product),
    ]
    if args.json:
        out = {key: as_json(m) for key, _, m in shown}
        if sign:
            out["product_is_identity"] = product.is_identity()
        print(json.dumps(out, indent=2))
    else:
        for _, title, m in shown:
            print(title + ":")
            print(as_text(m))
        if sign:
            print("identity:", product.is_identity())
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="gspans",
        description="Exact span matrices over group rings for finite groupoids",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="parse and validate a document")
    v.add_argument("file")
    v.set_defaults(fn=cmd_validate)

    e = sub.add_parser("euler", help="Euler characteristic of a groupoid")
    e.add_argument("file")
    e.add_argument("--name", required=True)
    e.set_defaults(fn=cmd_euler)

    m = sub.add_parser("matrix", help="span matrix, optionally under a character")
    m.add_argument("file")
    m.add_argument("--span", required=True)
    m.add_argument("--character")
    m.add_argument("--json", action="store_true")
    m.set_defaults(fn=cmd_matrix)

    c = sub.add_parser("compose", help="compose two spans, emit a document")
    c.add_argument("file")
    c.add_argument("--left", required=True)
    c.add_argument("--right", required=True)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_compose)

    k = sub.add_parser("check", help="run seeded theorem checks")
    k.add_argument("file", nargs="?")
    k.add_argument("--which", default="all", choices=[*CHECKS, "all"])
    k.add_argument("--seed", type=int, default=20260810)
    k.add_argument("--trials", type=int, default=20)
    k.set_defaults(fn=cmd_check)

    x = sub.add_parser("example", help="emit catalog example matrices")
    x.add_argument("kind", choices=["stirling"])
    x.add_argument("--n", type=int, default=4)
    x.add_argument("--character", choices=["sign"])
    x.add_argument("--json", action="store_true")
    x.set_defaults(fn=cmd_example)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DocumentError, SizeGuardError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
