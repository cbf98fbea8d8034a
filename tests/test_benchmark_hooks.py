"""The benchmark (``perfbench/``) keeps running against the library.

The benchmark wraps library functions and model callbacks from outside, by
name, and checks ``worker_count()``; its workloads call the library with the
keywords they were written for.  A rename or deletion in ``src/`` would only
show when the benchmark runs.  These tests import ``spans.py`` and
``workloads.py`` unchanged, exercise the same lookups, and run one operation
of each workload.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from nonholo import jump_analysis
from nonholo.core_geometry import projection_set
from nonholo.models import build_model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"


@pytest.fixture(scope="module")
def spans():
    module_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves(spans):
    for _, module_name, attr in spans.FUNCTION_SPANS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_installed_wrappers_record_and_restore(spans, racer):
    original = jump_analysis.psi_scan
    rec = spans.Recorder()
    with rec.installed():
        assert jump_analysis.psi_scan is not original
        jump_analysis.psi_scan(racer.spec, jump_analysis.BoxSampler(racer.sample_box, seed=0), n_samples=2)
    assert jump_analysis.psi_scan is original
    assert rec.counts()["jump_analysis.psi_scan"] == 1


@pytest.mark.parametrize("name", ["roller-racer", "rolling-ball"])
def test_wrapped_bundle_records_each_callback(spans, name):
    bundle = build_model(name)
    rec = spans.Recorder()
    traced = rec.wrap_bundle(bundle)
    q = bundle.default_q0
    P = projection_set(traced.spec, q)
    assert np.array_equal(P.ginv, projection_set(bundle.spec, q).ginv)
    # no model has a frame field: the frame form builds the generic frame
    assert bundle.frame_field is traced.frame_field is None
    assert rec.counts() == {"models.metric": 1, "models.omega": 1}


def test_worker_count_is_one():
    assert jump_analysis.worker_count() == 1


@pytest.fixture(scope="module")
def workloads():
    module_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(module_spec)
    sys.modules[module_spec.name] = module  # its dataclasses look their module up there
    try:
        module_spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[module_spec.name]


@pytest.mark.parametrize("name", ["racer-simulate", "ball-frame-simulate", "ball-checkfit", "racer-dither"])
def test_workload_operation_passes_its_checks(workloads, name):
    """Seed 0's first operation of each workload passes every guard, and a rerun gives the same primary bytes."""
    wl = workloads.WORKLOADS[name]
    mods = workloads.build_models()
    inp = wl.make_input(mods, 0, 0)
    result = wl.run(mods, inp)
    margins = wl.check(mods, inp, result)["margins"]
    assert margins and min(margins.values()) > 0.0, margins
    assert wl.primary(wl.run(mods, inp)) == wl.primary(result)
