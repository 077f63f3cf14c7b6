"""Document parsing, command output, exit codes, and the golden corpus."""

import json
import os

import pytest

from gspans.algebra import CyclotomicNumber
from gspans.cli import _rational_entry, main, parse_document

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def doc_path(name):
    return os.path.join(CORPUS, name)


def test_validate_ok(capsys):
    assert main(["validate", doc_path("bz2_identity.json")]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    assert main(["validate", doc_path("point_span.json")]) == 0


def test_validate_dangling_name(capsys):
    assert main(["validate", doc_path("bad_dangling.json")]) == 2
    err = capsys.readouterr().err
    assert "unresolved name" in err or "nowhere" in err


def test_validate_nonnatural_eps(capsys):
    assert main(["validate", doc_path("bad_eps.json")]) == 2
    err = capsys.readouterr().err
    assert "natural" in err


EULER = [
    # coset groupoids G//K of Z6: chi = 1/|K|
    ("coset_z6.json", "HG2", "1/2"),
    ("coset_z6.json", "HG3", "1/3"),
    # a discrete groupoid counts its objects, BG counts 1/|G|
    ("coset_z6.json", "two_points", "2"),
    ("coset_z6.json", "bz6", "1/6"),
    # chi is additive: 2 points + BZ6 -> 2 + 1/6
    ("coset_z6.json", "both", "13/6"),
    # Z2 swaps two of three points: chi = |X|/|G| = 3/2
    ("coset_z6.json", "swap", "3/2"),
    ("point_span.json", "pt", "1"),
    ("point_span.json", "ap", "1"),
    ("point_span.json", "pull", "1"),
    ("point_span.json", "fib", "1"),
]


@pytest.mark.parametrize(
    "doc,name,chi", EULER, ids=[name for _, name, _ in EULER]
)
def test_euler(capsys, doc, name, chi):
    assert main(["euler", doc_path(doc), "--name", name]) == 0
    assert capsys.readouterr().out == chi + "\n"


@pytest.mark.parametrize(
    "spec",
    [
        {"side": "left", "functor": "to_pt", "at": "*"},
        {"side": "right", "functor": "to_pt", "at": "*"},
        {"side": "two", "left": "to_pt", "right": "to_pt", "at": ["*", "*"]},
    ],
    ids=["left", "right", "two"],
)
def test_fibre_documents_are_materialized_under_the_guard(
    tmp_path, monkeypatch, capsys, spec
):
    # each fibre of x -> * at * is a point; at a guard of 0 materializing
    # its one morphism is refused with the entry's path
    doc = corpus_doc_with("point_span.json", ["groupoids", "pull"], None)
    doc["groupoids"]["fib"] = dict(spec, type="fibre")
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    assert main(["euler", str(f), "--name", "fib"]) == 0
    assert capsys.readouterr().out == "1\n"
    monkeypatch.setenv("GSPANS_SIZE_GUARD", "0")
    assert main(["validate", str(f)]) == 2
    assert capsys.readouterr().err == (
        "error: groupoids.fib: materialization of 1 morphisms exceeds the "
        "size guard 0 (set GSPANS_SIZE_GUARD to raise it)\n"
    )


def test_matrix_identity_span(capsys):
    assert main(["matrix", doc_path("bz2_identity.json"), "--span", "ident"]) == 0
    assert capsys.readouterr().out.strip() == "1/2*g(0) + 1/2*g(1)"


def test_matrix_point_span(capsys):
    assert main(["matrix", doc_path("point_span.json"), "--span", "unit"]) == 0
    assert capsys.readouterr().out.strip() == "1*g(1)"
    assert (
        main(
            [
                "matrix",
                doc_path("point_span.json"),
                "--span",
                "unit",
                "--character",
                "rho",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out.strip()
    assert out.startswith("1*z^1")  # zeta_4 = i
    assert "+1.000000000000i" in out


def test_matrix_json(capsys):
    assert (
        main(["matrix", doc_path("bz2_identity.json"), "--span", "ident", "--json"])
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    assert data["entries"] == [["1/2*g(0) + 1/2*g(1)"]]


def test_compose_roundtrip(capsys):
    assert (
        main(
            [
                "compose",
                doc_path("point_span.json"),
                "--left",
                "unit",
                "--right",
                "unit",
                "--out",
                "sq",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    doc = parse_document(out)
    assert "sq" in doc.spans
    from gspans.gspan import span_matrix

    m = span_matrix(doc.spans["sq"])
    # (1) * (1) = (2) additively in Z4
    assert m.entries[0][0].support() == [(2,)]


def test_document_roundtrip_serialize():
    with open(doc_path("point_span.json")) as f:
        text = f.read()
    doc = parse_document(text)
    again = parse_document(doc.serialize())
    assert again.data == doc.data
    assert doc.serialize() == again.serialize()


def test_check_passes(capsys):
    assert main(["check", "--which", "main", "--seed", "5", "--trials", "4"]) == 0
    out = capsys.readouterr().out
    assert "pass main" in out


def test_check_all_passes(capsys):
    assert main(["check", "--seed", "3", "--trials", "2"]) == 0
    out = capsys.readouterr().out
    for which in ("main", "restrict", "phi*", "interchange", "lemma-chi"):
        assert "pass %s" % which in out


def test_check_with_doc_spans(capsys):
    assert (
        main(
            [
                "check",
                doc_path("bz2_identity.json"),
                "--which",
                "restrict",
                "--trials",
                "3",
            ]
        )
        == 0
    )
    assert "pass restrict" in capsys.readouterr().out


def test_example_stirling_golden(capsys):
    assert main(["example", "stirling", "--n", "3", "--character", "sign"]) == 0
    out = capsys.readouterr().out
    with open(doc_path("stirling_n3_sign.golden")) as f:
        assert out == f.read()


def test_example_stirling_n4_golden(capsys):
    assert main(["example", "stirling", "--n", "4", "--character", "sign"]) == 0
    out = capsys.readouterr().out
    with open(doc_path("stirling_n4_sign.golden")) as f:
        assert out == f.read()


def test_example_stirling_json(capsys):
    assert (
        main(["example", "stirling", "--n", "2", "--character", "sign", "--json"])
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    assert data["product_is_identity"] is True
    assert data["first"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "-1", "1"]]


def test_example_stirling_groupring(capsys):
    assert main(["example", "stirling", "--n", "2"]) == 0
    out = capsys.readouterr().out
    with open(doc_path("stirling_n2_qg.golden")) as f:
        assert out == f.read()


@pytest.mark.parametrize("trials", ["-1", "-2"])
def test_check_negative_trials_exits_2(capsys, trials):
    assert main(["check", "--which", "main", "--trials", trials]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --trials: the trial count must be >= 0, got %s\n" % trials


@pytest.mark.parametrize("n", ["-1", "7"])
def test_example_stirling_out_of_range_exits_2(capsys, n):
    assert main(["example", "stirling", "--n", n]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --n: N must be in 0..6, got %s\n" % n


def test_cell_parses():
    with open(doc_path("point_span.json")) as f:
        doc = parse_document(f.read())
    assert "id_cell" in doc.cells


def test_determinism(capsys):
    main(["matrix", doc_path("bz2_identity.json"), "--span", "ident"])
    first = capsys.readouterr().out
    main(["matrix", doc_path("bz2_identity.json"), "--span", "ident"])
    assert capsys.readouterr().out == first


def corpus_doc_with(name, keys, value):
    """A corpus document with the value at keys replaced (None deletes)."""
    with open(doc_path(name)) as f:
        doc = json.load(f)
    node = doc
    for k in keys[:-1]:
        node = node.setdefault(k, {}) if isinstance(node, dict) else node[k]
    if value is None:
        del node[keys[-1]]
    else:
        node[keys[-1]] = value
    return doc


@pytest.mark.parametrize(
    "doc, path",
    [
        ({"spans": {"s": 3}}, "spans.s"),
        ({"cells": {"c": 3}}, "cells.c"),
        ({"functors": {"f": 3}}, "functors.f"),
        (
            {
                "groupoids": {
                    "g": {
                        "objects": ["a"],
                        "morphisms": [3],
                        "identity": {},
                        "compose": [],
                        "inverse": {},
                    }
                }
            },
            "groupoids.g.morphisms[0]",
        ),
        ({"spans": 3}, "spans"),
        ({"spans": {"s": {"type": "identity", "h": [1]}}}, "bg_functors.[1]"),
        # group elements: a JSON array of ints inside the group
        (
            corpus_doc_with("point_span.json", ["characters", "rho", "exponents"], 5),
            "characters.rho.exponents",
        ),
        (
            corpus_doc_with("point_span.json", ["spans", "unit", "eps", "x"], [7]),
            "spans.unit.eps.x",
        ),
        (
            corpus_doc_with(
                "point_span.json",
                ["bg_functors", "tab"],
                {"source": "pt", "group": "Z4", "morphisms": {"id": 5}},
            ),
            "bg_functors.tab.morphisms.id",
        ),
        (
            corpus_doc_with(
                "coset_z6.json", ["groupoids", "HG2", "subgroup"], [[0], 5]
            ),
            "groupoids.HG2.subgroup[1]",
        ),
        (
            corpus_doc_with(
                "coset_z6.json", ["groupoids", "swap", "action", "a"], {"x": "b"}
            ),
            "groupoids.swap.action.a.x",
        ),
        (
            corpus_doc_with(
                "coset_z6.json", ["groupoids", "swap", "action", "a"], {"1": "z"}
            ),
            "groupoids.swap.action.a.1",
        ),
        # shapes the fuzz test below found ending in a traceback
        (
            corpus_doc_with(
                "coset_z6.json", ["groupoids", "two_points", "objects"], {"a": 1}
            ),
            "groupoids.two_points.objects",
        ),
        (
            corpus_doc_with(
                "point_span.json", ["groupoids", "ap", "morphisms", 0, "src"], None
            ),
            "groupoids.ap.morphisms[0]",
        ),
        (
            corpus_doc_with("point_span.json", ["cells", "id_cell", "a"], {}),
            "cells.id_cell",
        ),
        # action entries that act would ignore or overwrite
        (
            corpus_doc_with(
                "coset_z6.json", ["groupoids", "swap", "action", "zzz"], {"1": "a"}
            ),
            "groupoids.swap.action.zzz",
        ),
        (
            corpus_doc_with(
                "coset_z6.json",
                ["groupoids", "swap", "action", "a"],
                {"1": "a", "01": "b"},
            ),
            "groupoids.swap.action.a.01",
        ),
        (
            corpus_doc_with(
                "coset_z6.json",
                ["groupoids", "swap", "action", "a"],
                {"0": "b", "1": "b"},
            ),
            "groupoids.swap.action.a.0",
        ),
    ],
)
def test_malformed_documents_exit_2_with_their_path(tmp_path, capsys, doc, path):
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    assert main(["validate", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % path)
    assert "Traceback" not in err


def test_a_cell_between_spans_on_other_feet_exits_2(tmp_path, capsys):
    # unit2 is unit over a copy of its foot pt; a cell's two spans share
    # their feet, so the cell unit => unit2 is refused
    doc = corpus_doc_with("point_span.json", ["cells", "id_cell", "to"], "unit2")
    doc["groupoids"]["pt2"] = doc["groupoids"]["pt"]
    doc["functors"]["to_pt2"] = dict(doc["functors"]["to_pt"], target="pt2")
    doc["bg_functors"]["triv2"] = dict(doc["bg_functors"]["triv"], source="pt2")
    doc["spans"]["unit2"] = dict(
        doc["spans"]["unit"], left="to_pt2", right="to_pt2", h="triv2", v="triv2"
    )
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    assert main(["validate", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cells.id_cell: ") and "different feet" in err


@pytest.mark.parametrize("leg", ["h", "v"])
def test_a_span_whose_leg_over_bg_is_off_its_foot_exits_2(tmp_path, capsys, leg):
    # a trivial functor to BG on the apex ap, not on the foot pt
    doc = corpus_doc_with(
        "point_span.json",
        ["bg_functors", "on_apex"],
        {"type": "trivial", "source": "ap", "group": "Z4"},
    )
    doc["spans"]["unit"][leg] = "on_apex"
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    assert main(["validate", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: spans.unit: ") and "live on the feet" in err
    assert "Traceback" not in err


def two_group_point_span():
    """point_span.json plus a Z2 character and a span u2 over Z2."""
    doc = corpus_doc_with("point_span.json", ["groups", "Z2"], [2])
    doc["characters"]["rho2"] = {"group": "Z2", "exponents": [1]}
    doc["bg_functors"]["triv2"] = {"type": "trivial", "source": "pt", "group": "Z2"}
    doc["spans"]["u2"] = dict(doc["spans"]["unit"], h="triv2", v="triv2")
    return doc


@pytest.mark.parametrize(
    "argv, path",
    [
        (["matrix", "--span", "unit", "--character", "rho2"], "characters.rho2"),
        (["compose", "--left", "unit", "--right", "u2"], "spans.u2"),
    ],
)
def test_mismatched_groups_exit_2_with_their_path(tmp_path, capsys, argv, path):
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(two_group_point_span()))
    assert main([argv[0], str(f)] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s: " % path)
    assert "Traceback" not in err


def test_rational_entry_rejects_an_irrational_entry():
    assert _rational_entry(CyclotomicNumber(2, (3,))) == "3"
    with pytest.raises(ValueError, match="not a rational entry"):
        _rational_entry(CyclotomicNumber(4, (0, 1)))


def test_compose_refused_by_the_size_guard_exits_2(monkeypatch, capsys):
    # the pullback of ident with itself has 8 morphisms; materializing it
    # for the output document stops at the 4th
    monkeypatch.setenv("GSPANS_SIZE_GUARD", "3")
    argv = ["compose", doc_path("bz2_identity.json"), "--left", "ident",
            "--right", "ident"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: materialization of 4 morphisms exceeds the size guard 3 "
        "(set GSPANS_SIZE_GUARD to raise it)\n"
    )


def test_check_interchange_seed_2_passes_on_lazy_pullbacks(monkeypatch, capsys):
    # trial 2 of seed 2 nests a pullback of more than 20 000 morphisms, which
    # the size guard refused while pullbacks were tables; the lazy pullback
    # enumerates only objects and component stars, and is not guarded
    monkeypatch.delenv("GSPANS_SIZE_GUARD", raising=False)
    assert main(["check", "--which", "interchange", "--seed", "2"]) == 0
    out, err = capsys.readouterr()
    assert out == "pass interchange (20 trials, seed 2)\n"
    assert err == ""


def test_check_materializes_nothing(monkeypatch, capsys):
    # pullbacks and one-sided fibres are lazy and only a document's are
    # materialized, and two-sided fibres are not guarded, so no trial of
    # any check meets the size guard, even at a guard of one morphism
    monkeypatch.setenv("GSPANS_SIZE_GUARD", "1")
    assert main(["check", "--seed", "5", "--trials", "3"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "action, reason",
    [
        # Z2 cycling three points: the law fails at (a, 1, 1)
        ({"a": {"1": "b"}, "b": {"1": "c"}, "c": {"1": "a"}}, "not a right action"),
        ({"a": {"1": "b"}, "b": {"1": "a"}}, "action undefined"),
    ],
    ids=["cycle", "undefined"],
)
def test_an_action_that_is_not_a_right_action_exits_2(tmp_path, capsys, action,
                                                      reason):
    doc = corpus_doc_with("coset_z6.json", ["groupoids", "swap", "action"], action)
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    assert main(["validate", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: groupoids.swap: %s at " % reason)
    assert "Traceback" not in err


def literal_groupoid(objects, arrows, compose):
    """A literal groupoid document entry; arrows maps a name to (src, tgt)
    and compose maps (after, before) to the composite, names throughout."""
    ids = {o: next(m for m, e in arrows.items() if e == (o, o)) for o in objects}
    inverse = {
        m: next(i for i in arrows if compose.get((i, m)) == ids[arrows[m][0]])
        for m in arrows
    }
    return {
        "objects": list(objects),
        "morphisms": [{"id": m, "src": s, "tgt": t} for m, (s, t) in arrows.items()],
        "identity": ids,
        "compose": [[m2, m1, m] for (m2, m1), m in compose.items()],
        "inverse": inverse,
    }


def codiscrete_xyz():
    """The groupoid with one morphism ij: i -> j for all i, j in x, y, z."""
    objs = "xyz"
    arrows = {i + j: (i, j) for i in objs for j in objs}
    compose = {(j + k, i + j): i + k for i in objs for j in objs for k in objs}
    return literal_groupoid(objs, arrows, compose)


def test_a_functor_broken_off_the_star_family_exits_2(tmp_path, capsys):
    # xyz's star family at x is xx, xy, xz and with inverses yx, zx; the
    # functor to BZ2 sends every morphism to e except yz, which is outside
    z2 = {"e": ("*", "*"), "t": ("*", "*")}
    add = {("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e"}
    images = {m: "t" if m == "yz" else "e" for m in codiscrete_xyz()["inverse"]}
    doc = {
        "groupoids": {"xyz": codiscrete_xyz(), "b2": literal_groupoid("*", z2, add)},
        "functors": {
            "F": {
                "source": "xyz",
                "target": "b2",
                "objects": {o: "*" for o in "xyz"},
                "morphisms": images,
            }
        },
    }
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    assert main(["validate", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: functors.F: functor breaks composition on ")
    assert "Traceback" not in err
    images["yz"] = "e"
    f.write_text(json.dumps(doc))
    assert main(["validate", str(f)]) == 0


def test_a_table_that_is_not_associative_exits_2(tmp_path, capsys):
    # e, a, b with a a = b b = e and a b = b a = a: identities and inverses
    # hold, but (a a) b = b while a (a b) = e
    arrows = {m: ("*", "*") for m in "eab"}
    compose = {("e", m): m for m in "eab"}
    compose.update({(m, "e"): m for m in "ab"})
    compose.update({("a", "a"): "e", ("b", "b"): "e", ("a", "b"): "a", ("b", "a"): "a"})
    doc = {"groupoids": {"loop": literal_groupoid("*", arrows, compose)}}
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    assert main(["validate", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: groupoids.loop: associativity fails on triple ")
    assert "identity" not in err and "inverse" not in err
    assert "Traceback" not in err


def test_check_failures_print_one_fail_line_each_and_exit_1(monkeypatch, capsys):
    # interchange fails at its second call and the pullback closed form at
    # its first: each check stops at its first failing trial, and the
    # others still pass
    import gspans.cli as cli

    calls = []
    real_interchange = cli.interchange_check
    real_closed_form = cli.pushforward_matrix_closed_form

    def interchange(*cells):
        calls.append(cells)
        return len(calls) != 2 and real_interchange(*cells)

    def closed_form(phi, h, v, eps, forward):
        return real_closed_form(phi, h, v, eps, forward=True) if forward else None

    monkeypatch.setattr(cli, "interchange_check", interchange)
    monkeypatch.setattr(cli, "pushforward_matrix_closed_form", closed_form)
    assert main(["check", "--which", "all", "--seed", "3", "--trials", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == (
        "pass main (4 trials, seed 3)\n"
        "pass restrict (4 trials, seed 3)\n"
        "FAIL phi* (trial 0, seed 3): pullback closed form mismatch\n"
        "FAIL interchange (trial 1, seed 3): interchange law fails\n"
        "pass lemma-chi (4 trials, seed 3)\n"
    )
    assert err == ""


@pytest.mark.parametrize("source", ["HG2", "swap", "two_points"])
def test_tautological_needs_a_bg_groupoid(tmp_path, capsys, source):
    # a coset and an action groupoid carry a group too, but only BG's
    # morphisms are its elements
    doc = corpus_doc_with(
        "coset_z6.json",
        ["bg_functors", "taut"],
        {"type": "tautological", "source": source},
    )
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    assert main(["validate", str(f)]) == 2
    assert capsys.readouterr().err == (
        "error: bg_functors.taut: tautological needs a BG groupoid\n"
    )
    doc["bg_functors"]["taut"]["source"] = "bz6"
    f.write_text(json.dumps(doc))
    assert main(["validate", str(f)]) == 0


def test_compose_writes_action_groupoid_feet_as_tables(capsys):
    # the feet of id are the action groupoid Z2/{0}, not tables
    with open(doc_path("coset_feet.json")) as f:
        ident = parse_document(f.read()).spans["id"]
    argv = ["compose", doc_path("coset_feet.json"), "--left", "id", "--right", "id"]
    assert main(argv) == 0
    out = parse_document(capsys.readouterr().out)
    from gspans.gspan import compose_spans, span_matrix

    composed = out.spans["id.id"]
    # the written feet index the rows by table ids, not by coset points
    m, expected = span_matrix(composed), span_matrix(compose_spans(ident, ident))
    assert (m.group, m.entries) == (expected.group, expected.entries)
    assert len(composed.source.objects) == len(ident.source.objects) == 2
    assert len(composed.source.morphisms) == 4


@pytest.mark.parametrize(
    "keys, value, path",
    [
        (["groups", "Z6"], [2.5], "groups.Z6"),
        (["groups", "Z6"], "66", "groups.Z6"),
        (["groups", "Z6"], [True, 3], "groups.Z6"),
        (["groups", "Z6"], ["4"], "groups.Z6"),
        (["groups", "Z6"], {}, "groups.Z6"),
        (["groupoids", "two_points", "objects"], True, "groupoids.two_points.objects"),
        (["groupoids", "two_points", "objects"], -2, "groupoids.two_points.objects"),
        (["groupoids", "two_points", "objects"], [False], "groupoids.two_points.objects"),
    ],
    ids=["float", "string", "bool", "string-order", "object", "true", "negative",
         "bool-name"],
)
def test_group_orders_and_discrete_counts_are_type_checked(
    tmp_path, capsys, keys, value, path
):
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(corpus_doc_with("coset_z6.json", keys, value)))
    assert main(["validate", str(f)]) == 2
    reason = (
        "must be a JSON array of integers"
        if keys[0] == "groups"
        else "must be a count or a JSON array of names"
    )
    assert capsys.readouterr().err == "error: %s: %s\n" % (path, reason)


@pytest.mark.parametrize("value", [0, 3, [], [0, "a"]])
def test_a_discrete_groupoid_takes_a_count_or_names(tmp_path, capsys, value):
    keys = ["groupoids", "two_points", "objects"]
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(corpus_doc_with("coset_z6.json", keys, value)))
    assert main(["euler", str(f), "--name", "two_points"]) == 0
    count = value if isinstance(value, int) else len(value)
    assert capsys.readouterr().out == "%d\n" % count


@pytest.mark.parametrize("value, name", [([1, "1"], "'1'"), (["a", "b", "a"], "'a'")])
def test_a_discrete_groupoid_refuses_a_duplicate_name(tmp_path, capsys, value, name):
    # names are read as strings, so 1 and "1" name one object
    keys = ["groupoids", "two_points", "objects"]
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(corpus_doc_with("coset_z6.json", keys, value)))
    assert main(["validate", str(f)]) == 2
    assert capsys.readouterr().err == (
        "error: groupoids.two_points.objects: duplicate object %s\n" % name
    )


def test_a_reference_cycle_exits_2_where_it_closes(tmp_path, capsys):
    # P is the pullback of f with itself and f starts at P: the cycle closes
    # at P.  With Q in front, Q -> f -> P -> f closes at the functor f.
    doc = corpus_doc_with(
        "point_span.json", ["groupoids", "P"], {"type": "pullback", "left": "f",
                                               "right": "f"}
    )
    doc["functors"]["f"] = dict(doc["functors"]["to_pt"], source="P")
    doc["groupoids"] = {"P": doc["groupoids"]["P"], **doc["groupoids"]}
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(doc))
    assert main(["validate", str(f)]) == 2
    assert capsys.readouterr().err == "error: groupoids.P: reference cycle\n"
    doc["groupoids"] = {"Q": doc["groupoids"]["P"], **doc["groupoids"]}
    f.write_text(json.dumps(doc))
    assert main(["validate", str(f)]) == 2
    assert capsys.readouterr().err == "error: functors.f: reference cycle\n"
