"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

from freesplit.classify import rank2_classify
from freesplit.fixtures import RANK2_CATALOG

import run
import tracing
import workloads


def test_sweep_has_152_distinct_basis_maps():
    maps = workloads.sweep_maps()
    assert len(maps) == 152
    assert len(set(maps)) == 152


def test_gl2_oracle_against_library_oracle():
    for matrix, _ in RANK2_CATALOG.values():
        (a, b), (c, d) = matrix
        assert a * d - b * c == 1
        assert workloads.gl2_loxodromic(matrix) == \
            (rank2_classify(matrix) == "Loxodromic")
    # determinant -1: trace 2 is hyperbolic, but |tr| > 2 says otherwise
    assert workloads.gl2_loxodromic([[2, 1], [1, 0]])
    assert rank2_classify([[2, 1], [1, 0]]) == "NotLoxodromic"


def _bindings():
    return {(m.__name__, attr): value for m in tracing.library_modules()
            for attr, value in vars(m).items()}


def test_install_and_uninstall_restore_every_binding():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
        changed = {k for k in before if during[k] is not before[k]}
        # imported by name into classify, and re-exported by the package
        assert ("freesplit.classify", "build_context") in changed
        assert ("freesplit", "classify") in changed
        assert ("freesplit.wproj", "w_of") in changed
        assert all(during[k].__wrapped__ is before[k] for k in changed)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_operation_has_the_untraced_digest():
    [op] = [o for o in workloads.build("loxodromic")
            if o.op_id == "classify rank2_tr3"]
    [plain] = run.run_pass([op])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        [traced] = run.run_pass([op], tracer)
    finally:
        tracer.uninstall()
    assert plain["status"] == traced["status"] == workloads.DECIDED
    assert plain["digest"] == traced["digest"]
    summary = tracer.summary()
    assert summary["classify.classify.calls"] == 1
    assert summary["words.reduce_word.calls"] > 0
    assert summary["classify.classify.self_s"] >= 0
    spans = tracer.spans()
    assert spans[0][0] == "operation" and spans[0][3] == -1
    assert all(0 <= parent < i for i, (*_, parent) in enumerate(spans) if i)
