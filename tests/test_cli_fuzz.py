"""Fuzz `gspans validate`, `euler`, `matrix`, `compose` and `check FILE` with
mutated corpus documents: whatever the edit, each command exits 0 (still
valid) or 2 (input error, with a message) and never ends in a traceback."""

import contextlib
import copy
import glob
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from gspans.cli import main

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")


def load(path):
    with open(path) as f:
        return json.load(f)


DOCS = {
    os.path.basename(p): load(p)
    for p in sorted(glob.glob(os.path.join(CORPUS, "*.json")))
}


def paths(node, prefix=()):
    """Every key path of a JSON value, the root included."""
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from paths(v, prefix + (i,))


def names(doc):
    return sorted({k for p in paths(doc) for k in p if isinstance(k, str)}) or ["x"]


def junk(doc):
    # small values only: a group order or object count stays small, so an
    # accepted document stays cheap to validate
    return st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-2, max_value=6),
        st.sampled_from(["", "x", "1", "0,1", "*"]),
        st.lists(st.integers(min_value=-1, max_value=5), max_size=2),
        st.just({}),
        st.sampled_from(names(doc)),
        st.lists(st.sampled_from(names(doc)), min_size=1, max_size=1),
    )


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(DOCS[draw(st.sampled_from(sorted(DOCS)))])
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        path = draw(st.sampled_from(list(paths(doc))))
        if not path:
            doc = draw(junk(doc))
            continue
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        key = path[-1]
        edit = draw(st.sampled_from(["replace", "delete", "rekey"]))
        if edit == "replace":
            parent[key] = draw(junk(doc))
        elif edit == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(names(doc)))] = parent.pop(key)
        else:
            parent.insert(key, draw(junk(doc)))
    return doc


def run(doc, argv):
    """main([command, <doc written to a file>, *options]); exit code, stderr."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "doc.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([argv[0], path] + argv[1:])
    return code, err.getvalue()


def assert_exits_0_or_2(doc, argv):
    code, err = run(doc, argv)
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error: ")


def section_names(doc, section):
    """The entry names of a section of the document, else any name in it."""
    entries = doc.get(section) if isinstance(doc, dict) else None
    if isinstance(entries, dict) and entries:
        return sorted(entries)
    return names(doc)


@settings(max_examples=50, deadline=None)
@given(mutated_documents())
def test_validate_on_mutated_corpus_exits_0_or_2(doc):
    assert_exits_0_or_2(doc, ["validate"])


@settings(max_examples=50, deadline=None)
@given(mutated_documents(), st.data())
def test_matrix_on_mutated_corpus_exits_0_or_2(doc, data):
    argv = ["matrix", "--span", data.draw(st.sampled_from(section_names(doc, "spans")))]
    if data.draw(st.booleans()):
        argv += [
            "--character",
            data.draw(st.sampled_from(section_names(doc, "characters"))),
        ]
    if data.draw(st.booleans()):
        argv.append("--json")
    assert_exits_0_or_2(doc, argv)


@settings(max_examples=50, deadline=None)
@given(mutated_documents(), st.data())
def test_compose_on_mutated_corpus_exits_0_or_2(doc, data):
    spans = st.sampled_from(section_names(doc, "spans"))
    argv = ["compose", "--left", data.draw(spans), "--right", data.draw(spans)]
    assert_exits_0_or_2(doc, argv)


@settings(max_examples=50, deadline=None)
@given(mutated_documents(), st.data())
def test_euler_on_mutated_corpus_exits_0_or_2(doc, data):
    name = data.draw(st.sampled_from(section_names(doc, "groupoids")))
    assert_exits_0_or_2(doc, ["euler", "--name", name])


@settings(max_examples=50, deadline=None)
@given(mutated_documents())
def test_check_restrict_on_mutated_corpus_exits_0_or_2(doc):
    # the document's spans are the first trials, then seeded random spans
    assert_exits_0_or_2(doc, ["check", "--which", "restrict", "--trials", "2"])
