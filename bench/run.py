"""Benchmark the ``groupdet`` command line on two seeded workloads.

    python3 bench/run.py --workload exact --seed 1 --seconds 45 --trace 0

One client runs the workload's fixed list of CLI calls in a closed loop,
one call in flight, each call in a child forked from a parent that has
imported ``groupdet.cli`` (so caches start empty, as in a fresh process).
Whole passes over the list repeat until ``--seconds`` have passed and at
least ``MIN_PASSES`` passes are done.  Every report is then checked
against references computed by independent routes.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: a fresh interpreter until ``groupdet.cli`` is imported and
  its parser built, median of ``SETUP_REPEATS`` spawns; every CLI
  invocation pays it.
* ``wall_s``: one pass over the call list, median over passes.
* ``call_ms_p50``: median call latency, pooled over the run.
* ``call_ms_tail``: the highest percentile with ``TAIL_BEYOND`` calls
  beyond it, over the calls of the first ``MIN_PASSES`` passes.
* ``peak_rss_mb``: the largest peak resident set of any call.
* ``evals_per_s`` (workloads with searches): the search reports'
  ``evaluations`` over the time spent in search calls.
* ``failed_frac``: calls with a nonzero exit status or a failed check,
  over calls attempted.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced passes (see ``tracer``): counts from one
pass, times as medians over traced passes, and the tracing overhead.

The metrics of the final line are those ``BENCHMARK.json`` at the
repository root names; ``evals_per_s`` and ``failed_frac`` are printed
only, since the first exists for one workload and the second is gated by
``correct`` and ``failed``.  Human-readable lines, each with its unit and
sample count, come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, in this process and every child: one call in
# flight on one core, so BLAS must not start threads of its own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# A run completes at least MIN_PASSES passes, and the tail latency is
# taken over the calls of exactly the first MIN_PASSES: the calls of one
# pass differ in cost by up to 100x, so a pool whose size followed the
# number of passes would move the tail from one kind of call to another
# from run to run.  With 7 passes the 11th-largest call of every workload
# falls well inside a group of calls of one kind, not at its edge.
MIN_PASSES = 7
TAIL_BEYOND = 10
SETUP_REPEATS = 11


class SetupError(RuntimeError):
    pass


def _load_groupdet():
    if not (SRC / "groupdet" / "cli.py").is_file():
        raise SetupError(f"no groupdet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import groupdet.cli

    if Path(groupdet.cli.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"groupdet imported from {groupdet.cli.__file__}, not {SRC}")
    return groupdet.cli


def _benchmark_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"missing {path}")
    return json.loads(path.read_text())


def time_setup(repeats: int) -> list:
    """Seconds from a fresh interpreter to groupdet.cli imported and its
    parser built, once per repeat."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import groupdet.cli as c; c.build_parser()")
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def machine(seed: int) -> dict:
    import numpy

    def importable(name):
        return importlib.util.find_spec(name) is not None

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "numba": importable("numba"),
            "gmpy2": importable("gmpy2"), "seed": seed}


def run_passes(calls, seconds: float, trace: bool) -> list:
    """[(traced, [CallResult, ...]), ...]; with trace, passes alternate
    untraced and traced."""
    from calls import run_call

    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        traced = trace and len(passes) % 2 == 1
        passes.append((traced, [run_call(c.argv, trace=traced) for c in calls]))
    return passes


def check_passes(calls, passes) -> tuple:
    """(attempted, failed, [failure descriptions]) over every call run."""
    from workloads import check_results

    attempted, failed, notes = 0, 0, []
    verdicts = {}
    for _, results in passes:
        for i, (call, res) in enumerate(zip(calls, results)):
            attempted += 1
            problems = [] if res.code == 0 else [f"exit status {res.code}"]
            if not problems:
                try:
                    body = json.loads(res.stdout)["results"]
                except (ValueError, KeyError, TypeError):
                    problems = ["report is not JSON with a results object"]
                else:
                    key = (i, json.dumps(body, sort_keys=True))
                    if key not in verdicts:
                        verdicts[key] = check_results(call, body)
                    problems = verdicts[key]
            if problems:
                failed += 1
                notes.append(f"{' '.join(call.argv)}: {', '.join(problems)}")
    return attempted, failed, notes


def _search_reports(calls, results):
    """The results objects of the search calls of one pass that succeeded."""
    for call, res in zip(calls, results):
        if call.argv[0] == "search" and res.code == 0:
            yield res, json.loads(res.stdout)["results"]


def _pass_wall(results) -> float:
    return results[-1].end - results[0].start


def end_to_end(calls, passes, setup) -> dict:
    """{name: (value, unit, samples, note)} for the untraced passes."""
    plain = [results for traced, results in passes if not traced]
    walls = [_pass_wall(r) for r in plain]
    every = [res for results in plain for res in results]
    latencies = sorted(res.wall_s * 1e3 for res in every)
    head = plain[:MIN_PASSES]
    pool = sorted((res.wall_s * 1e3 for results in head for res in results), reverse=True)
    n = len(pool)
    beyond = min(TAIL_BEYOND, n - 1)
    tail, level = pool[beyond], 100.0 * (n - beyond) / n
    out = {
        "setup_s": (statistics.median(setup), "s", len(setup), ""),
        "wall_s": (statistics.median(walls), "s", len(walls), "passes"),
        "call_ms_p50": (statistics.median(latencies), "ms", len(latencies), "calls"),
        "call_ms_tail": (tail, "ms", n, f"calls of the first {len(head)} passes, "
                         f"level p{level:.1f}, {beyond} calls beyond"),
        "peak_rss_mb": (max(res.peak_rss_mb for res in every), "MB", len(every), "calls"),
    }
    searches = [(res, body) for results in plain for res, body in _search_reports(calls, results)]
    if searches:
        evals = sum(int(body["evaluations"]) for _, body in searches)
        busy = sum(res.wall_s for res, _ in searches)
        out["evals_per_s"] = (evals / busy, "1/s", len(searches),
                              f"{evals} evaluations in {busy:.3f} s of search calls")
    return out


def _pass_layers(results) -> tuple:
    """Sum the traced calls of one pass: ({key: {field: value}}, {counter: value})."""
    layers, counters = {}, {}
    for res in results:
        if res.trace is None:
            continue
        for key, vals in res.trace["layers"].items():
            acc = layers.setdefault(key, {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0})
            for f, v in vals.items():
                acc[f] += v
        for key, v in res.trace["counters"].items():
            counters[key] = counters.get(key, 0) + v
    return layers, counters


def _count(series) -> tuple:
    """A count is the same in every traced pass; say so, or show how not."""
    return series[0], ("same in every traced pass" if len(set(series)) == 1
                       else f"varies: {series}")


def per_layer(calls, passes, spec) -> tuple:
    """({name: (value, unit, samples, note)}, {"untraced_wall_s", "traced_wall_s"})."""
    traced = [results for t, results in passes if t]
    plain = [results for t, results in passes if not t]
    summed = [_pass_layers(r) for r in traced]
    walls = {"untraced_wall_s": statistics.median(_pass_wall(r) for r in plain),
             "traced_wall_s": statistics.median(_pass_wall(r) for r in traced)}
    distinct = evaluated = 0
    for _, body in _search_reports(calls, traced[0]):
        distinct += int(body["num_distinct_values"])
        evaluated += int(body["evaluations"])
    out = {}
    for m in spec["per_layer"]:
        name, unit = m["name"], m["unit"]
        note = ""
        if name == "trace.overhead_s":
            value = walls["traced_wall_s"] - walls["untraced_wall_s"]
        elif name == "trace.wall_s":
            value = walls["traced_wall_s"]
        elif name == "search.useful_ratio":
            value = distinct / evaluated if evaluated else 0.0
            note = f"{distinct} distinct of {evaluated} evaluations"
        elif name in summed[0][1]:
            value, note = _count([c[name] for _, c in summed])
        else:
            key, field = name.rsplit(".", 1)
            present = key in summed[0][0] or key.rsplit(".", 1)[0] in summed[0][0]
            series = [layers.get(key, {}).get(field, 0) for layers, _ in summed]
            if not present:
                value, note = 0, "absent"
            elif field == "calls":
                value, note = _count(series)
            else:
                value = statistics.median(series)
        out[name] = (value, unit, len(traced), note)
    return out, walls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if ns.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {ns.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    try:
        spec = _benchmark_spec()
        cli = _load_groupdet()
        setup = time_setup(SETUP_REPEATS)
    except (SetupError, subprocess.CalledProcessError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    info = machine(ns.seed)
    info.update(workload=ns.workload, trace=ns.trace, groupdet=str(Path(cli.__file__).parent))
    tmpdir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    try:
        calls = workloads.build(ns.workload, ns.seed, tmpdir)
        passes = run_passes(calls, ns.seconds, trace=bool(ns.trace))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    attempted, failed, notes = check_passes(calls, passes)
    for note in notes[:20]:
        print(f"FAILED {note}")
    e2e = end_to_end(calls, passes, setup)
    e2e["failed_frac"] = (failed / attempted, "ratio", attempted, f"{failed} failed")
    if ns.trace:
        shown, walls = per_layer(calls, passes, spec)
        info["tracing_overhead_s"] = walls["traced_wall_s"] - walls["untraced_wall_s"]
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        shown = e2e
        wanted = [m["name"] for m in spec["end_to_end"]]
    print("machine " + json.dumps(info))
    for name, (value, unit, samples, note) in {**e2e, **shown}.items():
        print(f"{name:48s} {value:>16.6f} {unit:6s} n={samples:<5d} {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": shown[n][0], "unit": shown[n][1]} for n in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
