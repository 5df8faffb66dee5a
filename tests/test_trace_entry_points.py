"""The benchmark's tracer finds every entry point it wraps.

`bench/spans.py` wraps the functions named in its `ENTRY_POINTS` table; a
name that no longer resolves only warns there, and the trace then reports 0
calls for it.  This test makes a rename or removal fail instead.  It reads
the table from the file and writes nothing (no bytecode cache) under bench/.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_entry_point_resolves(spans):
    missing = []
    for layer, kind, target, tag in spans.ENTRY_POINTS:
        try:
            owner, attr, original = spans._resolve(target)
        except (ImportError, AttributeError, KeyError):
            missing.append(target)
            continue
        assert callable(original), target
    assert missing == []


def test_tracer_wraps_without_warning(spans, recwarn):
    with spans.Tracer() as tracer:
        pass
    assert tracer.missing == []
    assert not [w for w in recwarn if "trace entry point" in str(w.message)]
