"""The functions and methods the bench tracer wraps still exist.

bench/tracer.py wraps its TARGETS by name from outside the package; a rename
in gspans would otherwise only show up as a failing `bench/run.py --trace 1`.
Nothing is wrapped or run here.  And tests/oracles.py, which bench/workloads.py
imports before it times the import of gspans, loads no gspans module."""

import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

TRACER = os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py")


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _targets():
    return [(mod, path) for mod, path, _ in _tracer().TARGETS]


@pytest.mark.parametrize("mod, path", _targets())
def test_tracer_target_resolves(mod, path):
    module = importlib.import_module("gspans." + mod)
    if "." in path:
        cls_name, attr = path.split(".")
        # the tracer replaces the entry in the class's own __dict__
        assert attr in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, path))


def test_compose_spans_hands_no_view_to_the_tracer_validate_hook():
    # the validate hook sizes apex.morphism_sample() from the views' public
    # attributes (members, carrier, source), which a PullbackView does not
    # have; compose_spans walks only an unchecked factor and marks its
    # composite checked by the composition lemma, so the hook sees no apex,
    # not even with a composite as a factor of the next composition
    import random

    from gspans import random_spans as rnd
    from gspans.constructions import PullbackView
    from gspans.examples import stirling_pair
    from gspans.gspan import GSpan, compose_spans

    first, second = stirling_pair(2)
    pairs = [(first, second), rnd.random_composable_pair(random.Random(0))]
    for sp in pairs[0]:
        want = sum(1 for _ in sp.apex.morphism_sample())
        assert _tracer()._sample_size(sp.apex) == want
    hooked = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GSpan, "validate", lambda sp: hooked.append(sp))
        for sp1, sp2 in pairs:
            compose_spans(sp1, sp2)
        inner = compose_spans(first, second)
        outer = compose_spans(inner, first)
    assert hooked == []
    assert isinstance(outer.apex.M1, PullbackView) and outer.checked


def test_importing_the_oracles_loads_no_gspans_module():
    # bench/run.py times `import gspans` as part of set-up, after
    # bench/workloads.py has imported oracles; an oracle that imported
    # gspans at module level would move that cost out of the timing
    code = (
        "import sys, oracles; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'gspans'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=os.path.dirname(os.path.abspath(__file__)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
