"""The benchmark under bench/ reaches into the package by name: its reference
solver checks itself against propagate_closed_form, and its traced runs wrap
module attributes. These tests fail when an API change would crash the
benchmark or silently drop one of its per-layer metrics."""

import importlib
import importlib.util
import os

import emolex

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "bench")


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(
        "bench_" + name, os.path.join(BENCH_DIR, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(module_name, attr):
    return callable(getattr(importlib.import_module(module_name), attr, None))


def test_reference_self_check_within_tolerance():
    reference = load_bench_module("reference")
    assert reference.self_check(emolex) <= reference.SELF_CHECK_TOL


def test_traced_hooks_resolve():
    traced = load_bench_module("traced_child")
    absent = ["%s.%s" % (m, a) for m, a, _ in traced.HOOKS if not resolves(m, a)]
    assert absent == []


def test_expander_factories_resolve():
    traced = load_bench_module("traced_child")
    absent = ["%s.%s" % (m, a) for m, a in traced.EXPANDER_FACTORIES
              if not resolves(m, a)]
    assert absent == []
