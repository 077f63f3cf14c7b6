"""Per-layer tracing of gspans from outside the package.

install() wraps the public functions and methods listed in TARGETS.  A module
function is rebound in every gspans module that imported it by name (gspan
imports two_sided_fibre, random_spans imports universal_span, ...); a method
is replaced on its class.  Nothing under src/ is edited, and uninstall() puts
every original back.

Each wrapped call pushes a frame; when it returns, its duration is added to
the parent frame, so self time = duration - time covered by traced children.
A call becomes one span (id, name, start, end, parent span, op id) kept in
memory; after AGGREGATE_AFTER calls of one function, or SPAN_CAP spans in
all, further calls are only counted and timed.  Counter hooks run after the
call returns and are charged to no layer.
"""

import json
import time

AGGREGATE_AFTER = 100_000
SPAN_CAP = 200_000


def _sample_size(view):
    """Size of a view's generating family of morphisms (what GSpan.validate
    walks), read from its public attributes without enumerating it."""
    members = getattr(view, "members", None)
    if members is not None:
        return sum(_sample_size(m) for m in members)
    carrier = getattr(view, "carrier", None)
    if carrier is not None:
        return len(carrier) * len(view.group.generators())
    return len(view.source)


# -- counter hooks: hook(counters, args, result, error) -----------------------


def _pullback_counts(c, args, result, error):
    from gspans.groupoid import SizeGuardError, TableGroupoid

    if error is not None:
        c["refused"] += isinstance(error, SizeGuardError)
        return
    g = result.groupoid
    if isinstance(g, TableGroupoid):
        c["table_calls"] += 1
        c["objects"] += len(g.objects)
        c["morphisms"] += len(g.source)
    else:
        c["lazy_calls"] += 1


def _build_counts(c, args, result, error):
    if error is None:
        c["morphisms"] += len(result.source)


def _validate_counts(c, args, result, error):
    c["morphisms_checked"] += _sample_size(args[0].apex)


def _components_counts(c, args, result, error):
    c["points"] += len(args[0].carrier)


def _span_matrix_counts(c, args, result, error):
    if error is None:
        c["entries"] += len(result.row_index) * len(result.col_index)
        c["nonzero"] += sum(not e.is_zero() for row in result.entries for e in row)


def _fibre_counts(c, args, result, error):
    if error is None:
        c["objects"] += len(result.objects)


def _hom_counts(c, args, result, error):
    if error is None:
        c["returned"] += len(result)
        c["scanned"] += args[0].group.order


# (module, attribute path, counter hook).  Every target reports self_s and
# calls; hooks add the counters named in RATIOS and COUNTERS below.
TARGETS = [
    ("constructions", "homotopy_pullback", _pullback_counts),
    ("constructions", "two_sided_fibre", _fibre_counts),
    ("constructions", "GroupoidFunctor.validate", None),
    ("constructions", "GroupValuedFunctor.validate", None),
    ("groupoid", "TableBuilder.build", _build_counts),
    ("groupoid", "ActionGroupoid.components", _components_counts),
    ("groupoid", "ActionGroupoid.chi", None),
    ("groupoid", "ActionGroupoid.hom", _hom_counts),
    ("gspan", "GSpan.validate", _validate_counts),
    ("gspan", "span_matrix", _span_matrix_counts),
    ("gspan", "labeled_fibre", None),
    ("gspan", "labeled_pullback_identity", None),
    ("gspan", "compose_spans", None),
    ("gspan", "matrix_multiply", None),
    ("gspan", "character_matrix", None),
    ("gspan", "CharacterMatrix.__mul__", None),
    ("gspan", "interchange_check", None),
    ("gspan", "horizontal_compose", None),
    ("gspan", "vertical_compose", None),
    ("gspan", "cells_equal", None),
    ("gspan", "SpanMorphism.validate", None),
    ("algebra", "GroupRingElement.__mul__", None),
    ("algebra", "CyclotomicNumber.__mul__", None),
    ("examples", "stirling_pair", None),
    ("examples", "coset_span", None),
    ("examples", "subset_span", None),
    ("examples", "universal_span", None),
]

# Per-layer counters beyond self_s and calls: (target, counter).
COUNTERS = [
    ("constructions.homotopy_pullback", "table_calls"),
    ("constructions.homotopy_pullback", "lazy_calls"),
    ("constructions.homotopy_pullback", "objects"),
    ("constructions.homotopy_pullback", "morphisms"),
    ("constructions.homotopy_pullback", "refused"),
    ("constructions.two_sided_fibre", "objects"),
    ("groupoid.TableBuilder.build", "morphisms"),
    ("groupoid.ActionGroupoid.components", "points"),
    ("gspan.GSpan.validate", "morphisms_checked"),
    ("gspan.span_matrix", "entries"),
]

# Ratios: (metric name, target, numerator counter, denominator counter).
RATIOS = [
    ("gspan.span_matrix.nonzero_ratio", "gspan.span_matrix", "nonzero", "entries"),
    ("groupoid.ActionGroupoid.hom.hit_ratio", "groupoid.ActionGroupoid.hom",
     "returned", "scanned"),
]

# Every public function of random_spans is traced; they report as one layer.
RANDOM_SPANS = "random_spans"


class _Stat:
    __slots__ = ("calls", "total", "self_time", "counters")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counters = _Counters()


class _Counters(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    def __init__(self):
        self.stats = {}
        self.names = []
        self.spans = []
        self.op_id = -1  # -1 while generating inputs
        self._stack = []
        self._next_id = 0
        self._patches = []
        # inclusive time of span_matrix on composed spans (compose_spans
        # marks its result with .pullback)
        self.composed_matrix_s = 0.0

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn, hook):
        stat = self.stats.setdefault(name, _Stat())
        name_idx = len(self.names)
        self.names.append(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        is_span_matrix = name == "gspan.span_matrix"

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            frame = [0.0, sid]
            parent = stack[-1] if stack else None
            stack.append(frame)
            error = result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - frame[0]
                if stat.calls <= AGGREGATE_AFTER and len(spans) < SPAN_CAP:
                    spans.append((sid, name_idx, t0, t1,
                                  parent[1] if parent else -1, self.op_id))
                if is_span_matrix and getattr(args[0], "pullback", None) is not None:
                    self.composed_matrix_s += dur
                if hook is not None:
                    hook(stat.counters, args, result, error)
                if parent is not None:
                    parent[0] += clock() - t0

        return traced

    def install(self):
        import importlib
        import sys

        def gspans_modules():
            return [m for n, m in list(sys.modules.items())
                    if n == "gspans" or n.startswith("gspans.")]

        def rebind_function(module, attr, name, hook):
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig, hook)
            for m in gspans_modules():
                if m.__dict__.get(attr) is orig:
                    self._patches.append((m, attr, orig))
                    setattr(m, attr, wrapped)

        for mod_name, path, hook in TARGETS:
            module = importlib.import_module("gspans." + mod_name)
            name = "%s.%s" % (mod_name, path)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[attr]
                self._patches.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(name, orig, hook))
            else:
                rebind_function(module, path, name, hook)
        rnd = importlib.import_module("gspans.random_spans")
        for attr, value in list(vars(rnd).items()):
            if (callable(value) and not attr.startswith("_")
                    and getattr(value, "__module__", None) == rnd.__name__
                    and not isinstance(value, type)):
                rebind_function(rnd, attr, "%s.%s" % (RANDOM_SPANS, attr), None)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, ops):
        """Per-layer metrics, each a total over the traced pass divided by the
        number of ops (ratios excepted)."""
        per = float(ops)
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for mod_name, path, _ in TARGETS:
            name = "%s.%s" % (mod_name, path)
            st = self.stats[name]
            put(name + ".self_s", st.self_time / per, "s/op")
            put(name + ".calls", st.calls / per, "count/op")
        rnd = [s for n, s in self.stats.items() if n.startswith(RANDOM_SPANS + ".")]
        put(RANDOM_SPANS + ".self_s", sum(s.self_time for s in rnd) / per, "s/op")
        put(RANDOM_SPANS + ".calls", sum(s.calls for s in rnd) / per, "count/op")
        for target, counter in COUNTERS:
            put("%s.%s" % (target, counter),
                self.stats[target].counters[counter] / per, "count/op")
        for name, target, num, den in RATIOS:
            c = self.stats[target].counters
            put(name, c[num] / c[den] if c[den] else 0.0, "ratio")
        put("gspan.compose_spans.total_s",
            self.stats["gspan.compose_spans"].total / per, "s/op")
        put("gspan.span_matrix.composed_total_s", self.composed_matrix_s / per, "s/op")
        return out

    def dump(self, path):
        """Write the recorded spans as one JSON document."""
        doc = {
            "fields": ["id", "name", "start", "end", "parent", "op"],
            "names": self.names,
            "spans": self.spans,
            "calls": {n: s.calls for n, s in self.stats.items()},
        }
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))
