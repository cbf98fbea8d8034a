"""The library names the benchmark's trace mode looks up (``perfbench/spans.py``) keep resolving.

The benchmark wraps library functions and model callbacks from outside, by
name, and checks ``worker_count()``; a rename or deletion in ``src/`` would
only show when the traced benchmark runs.  These tests import ``spans.py``
unchanged and exercise the same lookups.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from nonholo import jump_analysis
from nonholo.core_geometry import projection_set
from nonholo.models import build_model

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
    traced.frame_field(q)
    assert rec.counts() == {"models.metric": 1, "models.omega": 1, spans.FRAME_SPAN: 1}


def test_worker_count_is_one():
    assert jump_analysis.worker_count() == 1
