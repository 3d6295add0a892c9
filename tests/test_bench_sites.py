"""The benchmark's contract with the package, checked without running it.

bench/spans.py wraps functions at their call sites and TreeClassifier
methods in the class dict; a refactor that renames or drops one of them
would only surface as a KeyError under ``bench/run.py --trace 1``.  The
workload configs in bench/workloads.py must use only known config keys.
"""

import importlib
import logging
import types
from pathlib import Path

import pytest

from ceda.cli import _warn_unknown_keys
from ceda.predictive_map import TreeClassifier

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    # executed from source so that no bytecode cache is written under bench/
    path = BENCH / (name + ".py")
    module = types.ModuleType("bench_" + name)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


spans = _load("spans")
workloads = _load("workloads")


@pytest.mark.parametrize("module_name,attr,span", spans.FUNCTION_SITES)
def test_function_site_exists(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert attr in module.__dict__, "%s.%s (span %s) is gone" % (module_name, attr, span)
    assert callable(module.__dict__[attr])


@pytest.mark.parametrize("attr,span", spans.METHOD_SITES)
def test_method_site_exists(attr, span):
    assert attr in TreeClassifier.__dict__, "TreeClassifier.%s (span %s) is gone" % (attr, span)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_config_keys_are_known(name, caplog):
    cfg = workloads.WORKLOADS[name].config("dataset.csv", 1)
    with caplog.at_level(logging.WARNING, logger="ceda"):
        _warn_unknown_keys(cfg)
    assert not caplog.records
