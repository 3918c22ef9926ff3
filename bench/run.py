"""The shufflestar benchmark: one workload per process, every answer checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the library is imported from its
`src/` directory.  The workloads, with the reason each was chosen, are
listed in `BENCHMARK.json`; their code is in `bench/workloads.py`.

The run is a closed loop with one client: ops run one after another in
this process, with no extra threads or workers.  The loop keeps starting
ops until the next one would not finish within --seconds (at least one op
always runs).  Each op is timed on its own; its exactness check runs after
the clock stops, and an op that raises or fails its check counts as failed,
never as a fast answer.

With --trace 0 the last line of stdout reports the end-to-end metrics of
`BENCHMARK.json`: the median seconds per op, the process's peak resident
memory, and the set-up time (imports plus the median of several
repetitions of input generation and, for ideal_warm, filling the cache).
Times are wall-clock seconds rescaled to a nominal machine speed sampled
during the timed work (`bench/speed.py`), because the shared host's speed
drifts by tens of percent within minutes; the raw wall-clock values are in
the stderr table and the results record.
With --trace 1 untraced and traced ops alternate, and it reports the
per-layer metrics of `bench/tracing.py` instead.  Both modes print a readable
table to stderr, including the tail percentile and sample counts, and
append a record with the environment to `bench/results/<workload>.jsonl`.
A traced run compares its deterministic counters with the last traced run
of the same code and seed and flags every counter that differs.

`PSA_CACHE_DIR` is ignored and `--max-coeff-bits` is never passed, so no
setting from outside or from another workload reaches a run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPS = 3


def _source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted([*ROOT.glob("src/shufflestar/*.py"), *BENCH.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def tail_percentile(samples: list[float]) -> dict | None:
    """The highest of p99, p95, p90, p75, p50 with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    for p in (99, 95, 90, 75, 50):
        k = -(-p * n // 100)          # nearest-rank position of the p-th percentile
        if n - k >= 10:
            return {"percentile": p, "value_s": xs[k - 1], "beyond": n - k, "samples": n}
    return None


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="toy-sized inputs, for the smoke test")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    load_at_start = os.getloadavg()
    os.environ.pop("PSA_CACHE_DIR", None)
    sys.path.insert(0, str(ROOT / "src"))
    sampler = speed.SpeedSampler()
    sampler.install()
    try:
        return _main(args, sampler, load_at_start)
    finally:
        sampler.uninstall()


def _main(args, sampler, load_at_start) -> int:
    if not (ROOT / "src" / "shufflestar").is_dir():
        # never fall back to an installed copy: the benchmark measures this tree
        print(f"no library sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        (workloads, tracing), import_s, import_samples = sampler.timed(_import)
    except ImportError as exc:
        print(f"cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.smoke)
    workdir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _run(args, workload, workdir, sampler, (import_s, import_samples),
                    load_at_start, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _import():
    import tracing
    import workloads
    return workloads, tracing


def _run(args, workload, workdir, sampler, imported, load_at_start, tracing) -> int:
    import_s, setup_samples = imported
    setup_times = []
    for _ in range(SETUP_REPS):
        state, dt, smp = sampler.timed(lambda: workload.setup(args.seed, workdir))
        setup_times.append(dt)
        setup_samples = setup_samples + smp
    setup_wall_s = import_s + median(setup_times)

    tracer = tracing.Tracer(sampler.clock) if args.trace else None
    untraced_s: list[float] = []
    traced_s: list[float] = []
    samples = {False: [], True: []}
    traces = []
    first_counters: dict | None = None
    failures: list[str] = []
    attempted = failed = 0
    loop_start = time.perf_counter()
    op_wall: list[float] = []
    i = 0
    while True:
        # a traced run alternates untraced and traced ops on the same inputs
        traced = tracer is not None and i % 2 == 1
        k = i // 2 if tracer is not None else i
        t_wall = time.perf_counter()
        attempted += 1
        try:
            if traced:
                (answer, tr), dt, smp = sampler.timed(
                    lambda: tracer.run(lambda: workload.op(state, k),
                                       workload.cache_dir(state, k)))
            else:
                answer, dt, smp = sampler.timed(lambda: workload.op(state, k))
            problems = workload.check(state, k, answer)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            failed += 1
            failures.append(f"op {i}: " + "; ".join(problems))
        else:
            (traced_s if traced else untraced_s).append(dt)
            samples[traced].extend(smp)
            if traced:
                traces.append(tr)
                if first_counters is None:
                    first_counters = workload.counters(answer)
        op_wall.append(time.perf_counter() - t_wall)
        i += 1
        elapsed = time.perf_counter() - loop_start
        enough = untraced_s and (tracer is None or traced_s)
        if (enough or i >= 4) and elapsed + median(op_wall) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    if not untraced_s or (tracer is not None and not traced_s):
        print("no op succeeded; no metrics", file=sys.stderr)
        return 1

    untraced_scale = speed.scale(samples[False])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "why": _why(args.workload),
        "environment": {
            "git_revision": _git_revision(), "source_hash": _source_hash(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": _numpy_version(), "loadavg_at_start": list(load_at_start),
        },
        "attempted": attempted, "failed": failed,
        "samples": {"untraced": len(untraced_s), "traced": len(traced_s)},
        "wall": {"time_to_answer_s": median(untraced_s), "setup_s": setup_wall_s,
                 "import_s": import_s, "setup_reps_s": setup_times},
        "speed_scale": {"ops": untraced_scale, "setup": speed.scale(setup_samples),
                        "loop_samples": len(samples[False])},
    }
    if tracer is None:
        metrics = {
            "time_to_answer_s": (median(untraced_s) * untraced_scale, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_wall_s * speed.scale(setup_samples), "s"),
        }
        record["tail"] = tail_percentile([t * untraced_scale for t in untraced_s])
    else:
        traced_scale = speed.scale(samples[True])
        values = tracing.layer_metrics(
            traces, traced_scale,
            overhead=(median(traced_s) * traced_scale) / (median(untraced_s) * untraced_scale),
            report_bytes=first_counters.get("cli.report_bytes", 0),
            pinched_rows=first_counters.get("plucker.pinched_rows", 0),
            failed_ratio=failed / attempted)
        metrics = {name: (values[name], unit) for name, unit in tracing.PER_LAYER}
        record["counters"] = {name: values[name] for name in tracing.DETERMINISTIC}
        record["counter_drift"] = _counter_drift(record)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    _report(record, len(untraced_s))
    _save(record)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def _why(name: str) -> str | None:
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    for w in json.loads(spec.read_text())["workloads"]:
        if w["name"] == name:
            return w["why"]
    return None


def _numpy_version() -> str:
    import numpy
    return numpy.__version__


def _results_path(record) -> Path:
    return BENCH / "results" / f"{record['workload']}{'-smoke' if record['smoke'] else ''}.jsonl"


def _counter_drift(record) -> dict:
    """Counters that differ from the last traced run of this code and seed."""
    path = _results_path(record)
    if not path.is_file():
        return {}
    previous = None
    for line in path.read_text().splitlines():
        old = json.loads(line)
        if (old.get("counters") is not None and old["seed"] == record["seed"]
                and old["environment"]["source_hash"] == record["environment"]["source_hash"]):
            previous = old["counters"]
    if previous is None:
        return {}
    return {name: [previous.get(name), value] for name, value in record["counters"].items()
            if previous.get(name) != value}


def _save(record) -> None:
    path = _results_path(record)
    path.parent.mkdir(exist_ok=True)
    with path.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def _report(record, samples: int) -> None:
    env = record["environment"]
    out = [f"workload {record['workload']}  seed {record['seed']}  "
           f"ops {record['attempted']} ({record['failed']} failed)  "
           f"samples {record['samples']}",
           f"rev {env['git_revision'] or '-'}  source {env['source_hash']}  nproc {env['nproc']}  "
           f"python {env['python']}  numpy {env['numpy']}  load {env['loadavg_at_start']}"]
    for name, m in record["metrics"].items():
        out.append(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
    wall, sc = record["wall"], record["speed_scale"]
    out.append(f"  wall clock: time_to_answer {wall['time_to_answer_s']:.6g} s, "
               f"setup {wall['setup_s']:.6g} s; speed scale ops {sc['ops']:.4f}, "
               f"setup {sc['setup']:.4f} ({sc['loop_samples']} loop samples)")
    tail = record.get("tail")
    if record["trace"] == 0:
        if tail:
            out.append(f"  {'time_to_answer_s_tail':36s} {tail['value_s']:>14.6g} s "
                       f"(p{tail['percentile']}, {tail['beyond']} of {tail['samples']} beyond)")
        else:
            out.append(f"  {'time_to_answer_s_tail':36s} {'-':>14} s "
                       f"(only {samples} samples; needs ten beyond p50)")
    for name, (old, new) in record.get("counter_drift", {}).items():
        out.append(f"  COUNTER DRIFT {name}: {old} -> {new} (same code and seed)")
    print("\n".join(out), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
