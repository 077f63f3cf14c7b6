"""The functions and methods the bench tracer wraps still exist.

bench/tracer.py wraps its TARGETS by name from outside the package; a rename
in gspans would otherwise only show up as a failing `bench/run.py --trace 1`.
Nothing is wrapped or run here."""

import importlib
import importlib.util
import os

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


def test_tracer_sizes_the_generating_family_of_a_composed_apex():
    # the validate hook sizes apex.morphism_sample() from the views' public
    # attributes; a lazy composite's strata must still answer them
    from gspans.examples import stirling_pair
    from gspans.gspan import compose_spans

    apex = compose_spans(*stirling_pair(2)).apex
    assert _tracer()._sample_size(apex) == sum(1 for _ in apex.morphism_sample())
