"""JSON definition language and command-line interface.

A document is a JSON object with sections "groups", "groupoids", "functors",
"bg_functors", "characters", "spans", "cells"; entries refer to each other by
name and the reference graph must be acyclic.  Literal table groupoids use
caller-chosen object/morphism names; builder groupoids ("BG", "discrete",
"coset", "disjoint", "pullback", "fibre") are constructed on demand.  Every
resolved object passes its module's validation; errors carry the JSON path.

Commands: validate, euler, matrix, compose, check, example.  Exit codes:
0 = pass, 1 = check failure, 2 = input error or a materialization refused by
the size guard.  Pullbacks and one-sided fibres are lazy; a document's
"pullback" and "fibre" groupoids and the apex that compose writes out are
materialized, and the environment variable GSPANS_SIZE_GUARD overrides the
guard on that.
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


def _element(grp, value, path):
    """A group element written as a JSON array of integers, checked to lie
    in grp."""
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise DocumentError(path, "group element must be a JSON array of integers")
    try:
        return grp.check(value)
    except ValueError as e:
        raise DocumentError(path, str(e))


class Document:
    """Parsed and fully resolved document."""

    def __init__(self, data):
        if not isinstance(data, dict):
            raise DocumentError("$", "document must be a JSON object")
        self.data = data
        self.groups = {}
        self.groupoids = {}
        self.obj_names = {}  # groupoid name -> {object name -> id}
        self.mor_names = {}  # groupoid name -> {morphism name -> id}
        self.functors = {}
        self.bg_functors = {}
        self.characters = {}
        self.spans = {}
        self.cells = {}
        self._resolving = set()
        for section in SECTIONS:
            if not isinstance(data.get(section, {}), dict):
                raise DocumentError(section, "section must be a JSON object")
        for name in data.get("groups", {}):
            self._group(name)
        for name in data.get("groupoids", {}):
            self._groupoid(name)
        for name in data.get("functors", {}):
            self._functor(name)
        for name in data.get("bg_functors", {}):
            self._bg_functor(name)
        for name in data.get("characters", {}):
            spec, path = self._entry("characters", name)
            grp = self._group(_need(spec, "group", path))
            # exponents live in the dual group, written like elements of grp
            exponents = _element(
                grp, _need(spec, "exponents", path), path + ".exponents"
            )
            self.characters[name] = Character(grp, exponents)
        for name in data.get("spans", {}):
            self._span(name)
        for name in data.get("cells", {}):
            self._cell(name)

    # -- sections ----------------------------------------------------------

    def _entry(self, section, name):
        """(spec, path) of a named section entry, type-checked before it is
        resolved: names are strings, entries other than groups are objects."""
        path = "%s.%s" % (section, name)
        specs = self.data.get(section, {})
        if not isinstance(name, str) or name not in specs:
            raise DocumentError(path, "unresolved name")
        spec = specs[name]
        if section != "groups" and not isinstance(spec, dict):
            raise DocumentError(path, "entry must be a JSON object")
        return spec, path

    def _group(self, name):
        orders, path = self._entry("groups", name)
        if name in self.groups:
            return self.groups[name]
        try:
            self.groups[name] = AbelianGroup(orders)
        except (TypeError, ValueError) as e:
            raise DocumentError(path, str(e))
        return self.groups[name]

    def _groupoid(self, name):
        spec, path = self._entry("groupoids", name)
        if name in self.groupoids:
            return self.groupoids[name]
        if name in self._resolving:
            raise DocumentError(path, "reference cycle")
        self._resolving.add(name)
        try:
            g = self._build_groupoid(name, spec, path)
        finally:
            self._resolving.discard(name)
        self.groupoids[name] = g
        return g

    def _build_groupoid(self, name, spec, path):
        kind = spec.get("type", "table" if "objects" in spec else None)
        if kind == "table" or ("objects" in spec and "morphisms" in spec):
            return self._literal_table(name, spec, path)
        if kind == "BG":
            grp = self._group(_need(spec, "group", path))
            g = delooping_bg(grp)
            self.obj_names[name] = {"*": g.objects[0]}
            self.mor_names[name] = {
                ",".join(str(e) for e in lab): mid
                for mid, lab in g.morphism_labels.items()
            }
            return g
        if kind == "discrete":
            objs = _need(spec, "objects", path)
            if isinstance(objs, int):
                labels = list(range(objs))
            elif isinstance(objs, list) and all(
                isinstance(l, (int, str)) for l in objs
            ):
                labels = list(objs)
            else:
                raise DocumentError(
                    path + ".objects", "must be a count or a JSON array of names"
                )
            g = discrete_groupoid(labels)
            self.obj_names[name] = {str(l): g.object_of_label[l] for l in labels}
            self.mor_names[name] = {
                "id:%s" % l: g.morphism_of_label[("id", l)] for l in labels
            }
            return g
        if kind == "coset":
            grp = self._group(_need(spec, "group", path))
            sub = [
                _element(grp, x, "%s.subgroup[%d]" % (path, k))
                for k, x in enumerate(_need(spec, "subgroup", path, list))
            ]
            try:
                return coset_groupoid(grp, sub)
            except ValueError as e:
                raise DocumentError(path, str(e))
        if kind == "action":
            grp = self._group(_need(spec, "group", path))
            points = [str(p) for p in _need(spec, "points", path, list)]
            if len(set(points)) != len(points):
                raise DocumentError(path + ".points", "duplicate point")
            table = _need(spec, "action", path, dict)
            act_map = {}
            for p, moves in table.items():
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
                    act_map[(str(p), g)] = str(q)

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
            parts = [self._groupoid(p) for p in _need(spec, "parts", path, list)]
            bad = [p for p in parts if not isinstance(p, TableGroupoid)]
            if bad:
                raise DocumentError(path, "disjoint parts must be tables")
            return disjoint_union_tables(parts)
        if kind == "pullback":
            f1 = self._functor(_need(spec, "left", path))
            f2 = self._functor(_need(spec, "right", path))
            try:
                return materialize(homotopy_pullback(f1, f2).groupoid)
            except Exception as e:
                raise DocumentError(path, str(e))
        if kind == "fibre":
            side = _need(spec, "side", path)
            at = _need(spec, "at", path)
            if side in ("left", "right"):
                f = self._functor(_need(spec, "functor", path))
                fibre = left_fibre if side == "left" else right_fibre
                fib = fibre(f, self._object(f.target, at, path))
            elif side == "two":
                if not (isinstance(at, list) and len(at) == 2):
                    raise DocumentError(path, "two-sided fibre needs at=[c, d]")
                l = self._functor(_need(spec, "left", path))
                r = self._functor(_need(spec, "right", path))
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
        # resolve an object by name when the groupoid has a name map,
        # else accept the raw id
        gname = None
        for name, g in self.groupoids.items():
            if g is view:
                gname = name
                break
        names = self.obj_names.get(gname, {})
        if str(objname) in names:
            return names[str(objname)]
        if objname in view.objects:
            return objname
        raise DocumentError(path, "unknown object %r" % (objname,))

    def _literal_table(self, name, spec, path):
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
        self.obj_names[name] = onames
        self.mor_names[name] = mnames
        return g

    def _functor(self, name):
        spec, path = self._entry("functors", name)
        if name in self.functors:
            return self.functors[name]
        src_name = _need(spec, "source", path)
        tgt_name = _need(spec, "target", path)
        src = self._groupoid(src_name)
        tgt = self._groupoid(tgt_name)
        so, to = self.obj_names.get(src_name), self.obj_names.get(tgt_name)
        sm, tm = self.mor_names.get(src_name), self.mor_names.get(tgt_name)
        if so is None or to is None:
            raise DocumentError(path, "functor endpoints must be addressable")
        omap, mmap = {}, {}
        for a, b in _need(spec, "objects", path, dict).items():
            if str(a) not in so:
                raise DocumentError(path + ".objects", "unknown object %r" % a)
            if str(b) not in to:
                raise DocumentError(path + ".objects", "unresolved name %r" % b)
            omap[so[str(a)]] = to[str(b)]
        for f, u in _need(spec, "morphisms", path, dict).items():
            if str(f) not in sm:
                raise DocumentError(path + ".morphisms", "unknown morphism %r" % f)
            if str(u) not in tm:
                raise DocumentError(path + ".morphisms", "unresolved name %r" % u)
            mmap[sm[str(f)]] = tm[str(u)]
        missing = [o for o in src.objects if o not in omap]
        if missing or any(m not in mmap for m in src.morphisms):
            raise DocumentError(path, "object/morphism map is not total")
        try:
            fun = GroupoidFunctor(src, tgt, omap, mmap)
        except FunctorError as e:
            raise DocumentError(path, str(e))
        self.functors[name] = fun
        return fun

    def _bg_functor(self, name):
        spec, path = self._entry("bg_functors", name)
        if name in self.bg_functors:
            return self.bg_functors[name]
        kind = spec.get("type", "table")
        src_name = _need(spec, "source", path)
        src = self._groupoid(src_name)
        if kind == "tautological":
            if not hasattr(src, "group"):
                raise DocumentError(path, "tautological needs a BG groupoid")
            fun = bg_self_functor(src)
        else:
            grp = self._group(_need(spec, "group", path))
            if kind == "trivial":
                fun = GroupValuedFunctor.trivial(src, grp)
            elif kind == "table":
                sm = self.mor_names.get(src_name)
                if sm is None:
                    raise DocumentError(path, "source must be addressable")
                values = {}
                for f, g in _need(spec, "morphisms", path, dict).items():
                    if str(f) not in sm:
                        raise DocumentError(path, "unknown morphism %r" % f)
                    values[sm[str(f)]] = _element(
                        grp, g, "%s.morphisms.%s" % (path, f)
                    )
                if any(m not in values for m in src.morphisms):
                    raise DocumentError(path, "morphism map is not total")
                try:
                    fun = GroupValuedFunctor(src, grp, values)
                except FunctorError as e:
                    raise DocumentError(path, str(e))
            else:
                raise DocumentError(path, "unknown bg functor type %r" % kind)
        self.bg_functors[name] = fun
        return fun

    def _span(self, name):
        spec, path = self._entry("spans", name)
        if name in self.spans:
            return self.spans[name]
        kind = spec.get("type", "explicit")
        if kind == "identity":
            sp = identity_span(self._bg_functor(_need(spec, "h", path)))
        elif kind == "universal":
            sp = universal_span(
                self._bg_functor(_need(spec, "h", path)),
                self._bg_functor(_need(spec, "v", path)),
            )
        elif kind == "explicit":
            apex_name = _need(spec, "apex", path)
            apex = self._groupoid(apex_name)
            left = self._functor(_need(spec, "left", path))
            right = self._functor(_need(spec, "right", path))
            h = self._bg_functor(_need(spec, "h", path))
            v = self._bg_functor(_need(spec, "v", path))
            onames = self.obj_names.get(apex_name)
            if onames is None:
                raise DocumentError(path, "apex must be addressable")
            eps_spec = _need(spec, "eps", path, dict)
            eps = {}
            for o, g in eps_spec.items():
                if str(o) not in onames:
                    raise DocumentError(path + ".eps", "unknown object %r" % o)
                eps[onames[str(o)]] = _element(
                    h.group, g, "%s.eps.%s" % (path, o)
                )
            if any(o not in eps for o in apex.objects):
                raise DocumentError(path + ".eps", "labeling is not total")
            try:
                sp = GSpan(apex, left, right, h, v, eps)
            except GSpanError as e:
                raise DocumentError(path, str(e))
        else:
            raise DocumentError(path, "unknown span type %r" % kind)
        self.spans[name] = sp
        return sp

    def _cell(self, name):
        spec, path = self._entry("cells", name)
        if name in self.cells:
            return self.cells[name]
        src = self._span(_need(spec, "from", path))
        dst = self._span(_need(spec, "to", path))
        # phi is given over the apex names of both spans
        apex_src_name = self.data["spans"][spec["from"]].get("apex")
        apex_dst_name = self.data["spans"][spec["to"]].get("apex")
        so = self.obj_names.get(apex_src_name)
        sm = self.mor_names.get(apex_src_name)
        to = self.obj_names.get(apex_dst_name)
        tm = self.mor_names.get(apex_dst_name)
        if None in (so, sm, to, tm):
            raise DocumentError(path, "cells need explicit spans over tables")
        s_names = self.mor_names[self._name_of(src.source)]
        t_names = self.mor_names[self._name_of(src.target)]

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
            cell = SpanMorphism(src, dst, phi, a, b)
        except (FunctorError, SpanMorphismError) as e:
            raise DocumentError(path, str(e))
        self.cells[name] = cell
        return cell

    def _name_of(self, view):
        for name, g in self.groupoids.items():
            if g is view:
                return name
        raise DocumentError("$", "anonymous groupoid in cell")

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


def table_to_doc(g):
    objs = ["o%d" % i for i in range(len(g.objects))]
    oname = {o: "o%d" % i for i, o in enumerate(g.objects)}
    mname = {m: "m%d" % j for j, m in enumerate(g.morphisms)}
    return {
        "objects": objs,
        "morphisms": [
            {"id": mname[m], "src": oname[g.source[m]], "tgt": oname[g.target[m]]}
            for m in g.morphisms
        ],
        "identity": {oname[o]: mname[g.identity[o]] for o in g.objects},
        "compose": [
            [mname[m2], mname[m1], mname[g.compose_m(m2, m1)]]
            for m2, m1 in composable_pairs(g)
        ],
        "inverse": {mname[m]: mname[g.inverse_m(m)] for m in g.morphisms},
    }, oname, mname


def span_to_doc(sp, out_name):
    """A standalone re-parseable document containing the span, with its
    apex materialized (refused past the size guard)."""
    table = materialize(sp.apex)
    obj, mor = table.object_labels, table.morphism_labels
    apex_doc, ao, am = table_to_doc(table)
    apex = out_name + ".apex"
    span = {
        "apex": apex,
        "eps": {ao[o]: list(sp.eps(obj[o])) for o in table.objects},
    }
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
        foot_doc, fo, fm = table_to_doc(leg.target)
        doc["groupoids"][names[foot]] = foot_doc
        doc["functors"][names[side]] = {
            "source": apex,
            "target": names[foot],
            "objects": {ao[o]: fo[leg.on_obj(obj[o])] for o in table.objects},
            "morphisms": {am[m]: fm[leg.on_mor(mor[m])] for m in table.morphisms},
        }
        doc["bg_functors"][names[bg]] = {
            "source": names[foot],
            "group": "G",
            "morphisms": {fm[m]: list(value(m)) for m in leg.target.morphisms},
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


def cmd_validate(args):
    _load(args.file)
    print("ok")
    return 0


def cmd_euler(args):
    doc = _load(args.file)
    if args.name not in doc.groupoids:
        raise DocumentError("groupoids.%s" % args.name, "unresolved name")
    print(doc.groupoids[args.name].chi())
    return 0


def _rational_entry(e):
    """Render a conductor-<=2 cyclotomic entry as a plain rational."""
    if any(c != 0 for c in e.coeffs[1:]):
        raise ValueError("%r is not a rational entry" % (e,))
    return str(e.coeffs[0])


def cmd_matrix(args):
    doc = _load(args.file)
    if args.span not in doc.spans:
        raise DocumentError("spans.%s" % args.span, "unresolved name")
    m = span_matrix(doc.spans[args.span])
    if args.character:
        if args.character not in doc.characters:
            raise DocumentError(
                "characters.%s" % args.character, "unresolved name"
            )
        rho = doc.characters[args.character]
        if rho.group != m.group:
            raise DocumentError(
                "characters.%s" % args.character,
                "character over %r, span %s over %r" % (rho.group, args.span, m.group),
            )
        cm = character_matrix(m, rho)
        if args.json:
            print(
                json.dumps(
                    {
                        "entries": [
                            [e.render() for e in row] for row in cm.entries
                        ]
                    },
                    indent=2,
                )
            )
        else:
            print(cm.render())
    else:
        if args.json:
            print(json.dumps(m.to_json(), indent=2))
        else:
            print(m.render())
    return 0


def cmd_compose(args):
    doc = _load(args.file)
    for name in (args.left, args.right):
        if name not in doc.spans:
            raise DocumentError("spans.%s" % name, "unresolved name")
    try:
        composed = compose_spans(doc.spans[args.left], doc.spans[args.right])
    except ComposabilityError as e:
        raise DocumentError("spans.%s" % args.right, str(e))
    out = args.out or "%s.%s" % (args.left, args.right)
    fragment = span_to_doc(composed, out)
    print(json.dumps(fragment, indent=2, sort_keys=True))
    return 0


def _check_main(rng, trials, report):
    for i in trials:
        sp1, sp2 = rnd.random_composable_pair(rng)
        lhs, rhs = check_main_theorem(sp1, sp2)
        if lhs != rhs:
            report("main", i, "composition != product:\n%s\nvs\n%s" % (
                lhs.render(), rhs.render()))
            return False
    return True


def _check_restrict(rng, trials, report, doc):
    spans = list(doc.spans.values()) if doc else []
    for i in trials:
        sp = spans[i] if i < len(spans) else rnd.random_span_with_structure(rng)
        m = span_matrix(sp)
        li = span_matrix(identity_span(sp.h))
        ri = span_matrix(identity_span(sp.v))
        if matrix_multiply(li, m) != m or matrix_multiply(m, ri) != m:
            report("restrict", i, "absorption fails for span matrix\n%s" % m.render())
            return False
    return True


def _check_phistar(rng, trials, report):
    for i in trials:
        phi, h, v, eps = rnd.random_pushforward_data(rng)
        if span_matrix(pushforward_span(phi, h, v, eps)) != (
            pushforward_matrix_closed_form(phi, h, v, eps, forward=True)
        ):
            report("phi*", i, "pushforward closed form mismatch")
            return False
        if span_matrix(pullback_span(phi, h, v, eps)) != (
            pushforward_matrix_closed_form(phi, h, v, eps, forward=False)
        ):
            report("phi*", i, "pullback closed form mismatch")
            return False
    return True


def _check_interchange(rng, trials, report):
    for i in trials:
        u1, w1, u2, w2 = rnd.random_two_cell_square(rng)
        if not interchange_check(u1, w1, u2, w2):
            report("interchange", i, "interchange law fails")
            return False
    return True


def _check_lemma_chi(rng, trials, report):
    for i in trials:
        sp1, sp2 = rnd.random_composable_pair(
            rng, max_objects=5, max_apex_objects=5
        )
        composed = compose_spans(sp1, sp2)
        for c1 in sp1.source.component_reps():
            for c2 in sp2.target.component_reps():
                lhs, rhs = labeled_pullback_identity(
                    sp1, sp2, c1, c2, composed=composed
                )
                if lhs != rhs:
                    report("lemma-chi", i, "per-label identity fails at (%r,%r)"
                           % (c1, c2))
                    return False
        r1, l2 = rnd.random_cospan(rng)
        lhs, rhs = pullback_euler_check(r1, l2)
        if lhs != rhs:
            report("lemma-chi", i, "pullback chi: %s != %s" % (lhs, rhs))
            return False
    return True


CHECKS = {
    "main": lambda rng, n, rep, doc: _check_main(rng, n, rep),
    "restrict": _check_restrict,
    "phi*": lambda rng, n, rep, doc: _check_phistar(rng, n, rep),
    "interchange": lambda rng, n, rep, doc: _check_interchange(rng, n, rep),
    "lemma-chi": lambda rng, n, rep, doc: _check_lemma_chi(rng, n, rep),
}


def cmd_check(args):
    if args.trials < 0:
        raise DocumentError(
            "--trials", "the trial count must be >= 0, got %d" % args.trials
        )
    doc = _load(args.file) if args.file else None
    which = list(CHECKS) if args.which == "all" else [args.which]
    failures = []

    def report(check, trial, message):
        failures.append((check, trial, message))
        print("FAIL %s (trial %d, seed %d): %s" % (check, trial, args.seed, message))

    for w in which:
        rng = random.Random(args.seed)
        if CHECKS[w](rng, range(args.trials), report, doc):
            print("pass %s (%d trials, seed %d)" % (w, args.trials, args.seed))
    return 1 if failures else 0


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
    prod = matrix_multiply(a, b)
    if args.character == "sign":
        rho = Character(first.group, (1,))
        fa = character_matrix(a, rho)
        fb = character_matrix(b, rho)
        fp = fa * fb
        render = lambda cm: "\n".join(
            " ".join(_rational_entry(e) for e in row) for row in cm.entries
        )
        if args.json:
            print(
                json.dumps(
                    {
                        "first": [[_rational_entry(e) for e in r] for r in fa.entries],
                        "second": [[_rational_entry(e) for e in r] for r in fb.entries],
                        "product": [[_rational_entry(e) for e in r] for r in fp.entries],
                        "product_is_identity": fp.is_identity(),
                    },
                    indent=2,
                )
            )
        else:
            print("signed first kind:")
            print(render(fa))
            print("second kind:")
            print(render(fb))
            print("product:")
            print(render(fp))
            print("identity:", fp.is_identity())
    else:
        if args.json:
            print(
                json.dumps(
                    {
                        "first": a.to_json(),
                        "second": b.to_json(),
                        "product": prod.to_json(),
                    },
                    indent=2,
                )
            )
        else:
            print("first kind:")
            print(a.render())
            print("second kind:")
            print(b.render())
            print("product:")
            print(prod.render())
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
    k.add_argument(
        "--which",
        default="all",
        choices=["main", "restrict", "phi*", "interchange", "lemma-chi", "all"],
    )
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
