"""Tests of the benchmark harness itself.

Run from the repository root:  python3 -m pytest -q bench/tests

The harness's guarantees are only as good as these: calls run cold and
one at a time, the tracer sees calls that arrive through names imported
into other modules, and a wrong result is counted as a failure.
Every ``groupdet`` call here goes through a forked child, so this
process's caches stay empty, as they do in the benchmark's parent.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402  (pins the BLAS thread variables on import)
import workloads  # noqa: E402
from calls import run_call  # noqa: E402


def _layer(res, key):
    return res.trace["layers"][key]


def test_consecutive_calls_rebuild_the_cayley_table(tmp_path):
    rng = workloads.random.Random(0)
    coeffs = workloads._random_coeffs(rng, "heisenberg", (11,), 2)
    path = workloads._write_poly(str(tmp_path), "h11.json", "heisenberg", (11,), coeffs)
    first, second = (run_call(["compute", path], trace=True) for _ in range(2))
    assert first.code == second.code == 0
    for res in (first, second):
        assert _layer(res, "groups.build_group")["calls"] > 0
        assert _layer(res, "groups.build_group")["busy_ms"] > 0
    assert first.stdout.split('"elapsed_ms"')[0] == second.stdout.split('"elapsed_ms"')[0]


def test_one_call_in_flight_with_blas_pinned():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        assert run.os.environ[var] == "1"
    calls = [workloads.Call(["sharp", "--family", "zp2", "--p", "5"]),
             workloads.Call(["lambda", "--p", "3"])]
    passes = run.run_passes(calls, seconds=0, trace=False)
    assert len(passes) == run.MIN_PASSES
    spans = [(res.start, res.end) for _, results in passes for res in results]
    assert all(end <= nxt for (_, end), (nxt, _) in zip(spans, spans[1:]))


def test_tracer_counts_calls_through_imported_names():
    # verify imports heisenberg_measure by name; each trial calls it once
    res = run_call(["verify", "congruence", "--p", "3", "--trials", "3", "--seed", "1"],
                   trace=True)
    assert res.code == 0
    assert _layer(res, "measures.heisenberg_measure")["calls"] == 3
    assert _layer(res, "verify.check_measure_congruence")["calls"] == 3
    assert _layer(res, "exactdet.det_bareiss.cycint")["calls"] > 0
    assert _layer(res, "cyclotomic.CycInt.__mul__")["calls"] > 0
    layers = res.trace["layers"]
    assert layers["cli.main"]["busy_ms"] >= layers["measures.heisenberg_measure"]["busy_ms"]


def test_per_layer_metrics_name_existing_public_functions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    derived = {"search.useful_ratio", "roots.degree_sum", "trace.wall_s", "trace.overhead_s"}
    for m in spec["per_layer"]:
        if m["name"] in derived:
            continue
        key = m["name"].rsplit(".", 1)[0]
        if key.startswith("exactdet.det_bareiss."):
            key = "exactdet.det_bareiss"
        module, *attrs = key.split(".")
        obj = importlib.import_module("groupdet." + ("_roots" if module == "roots" else module))
        for attr in attrs:
            obj = getattr(obj, attr)
        assert callable(obj), m["name"]


def test_deleted_function_is_reported_absent():
    spec = {"per_layer": [{"name": "measures.no_such_function.busy_ms", "unit": "ms"},
                          {"name": "measures.heisenberg_measure.calls", "unit": "count"}]}
    calls = [workloads.Call(["verify", "congruence", "--p", "3", "--trials", "2"])]
    passes = [(False, [run_call(c.argv) for c in calls]),
              (True, [run_call(c.argv, trace=True) for c in calls])]
    out, _ = run.per_layer(calls, passes, spec)
    assert out["measures.no_such_function.busy_ms"][0] == 0
    assert out["measures.no_such_function.busy_ms"][3] == "absent"
    assert out["measures.heisenberg_measure.calls"][0] == 2


def test_corrupted_reference_is_counted_as_failed(tmp_path):
    calls = workloads.build("numeric", 1, str(tmp_path))
    passes = [(False, [run_call(c.argv) for c in calls])]
    attempted, failed, _ = run.check_passes(calls, passes)
    assert (attempted, failed) == (len(calls), 0)
    call = next(c for c in calls if c.argv[:2] == ["measure", "heis"])
    path, kind, value = call.checks[0]
    assert (path, kind) == ("value", "float")
    call.checks[0] = (path, kind, value * (1 + 1e-6))
    attempted, failed, notes = run.check_passes(calls, passes)
    assert failed / attempted > 0
    assert "value:float" in notes[0]


@pytest.mark.parametrize("kind,params", [("heisenberg", (3,)), ("dihedral", (8,)),
                                         ("dicyclic", (12,)), ("elementary", (3, 2))])
def test_cayley_reference_agrees_with_the_oracle_command(tmp_path, kind, params):
    rng = workloads.random.Random(5)
    coeffs = workloads._random_coeffs(rng, kind, params, 2)
    path = workloads._write_poly(str(tmp_path), "f.json", kind, params, coeffs)
    res = run_call(["oracle", path])
    assert res.code == 0
    got = json.loads(res.stdout)["results"]["m_oracle"]
    assert int(got) == workloads.ref.cayley_det(kind, params, coeffs)
