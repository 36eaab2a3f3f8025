"""shiftlab benchmark: one workload, one seed, a closed loop of verdict jobs.

Run from the repository root:

    python3 bench/run.py --workload sequence-verdicts --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --compare OLD NEW

One process and one thread run the workload's fixed task list (see
``workloads.py``) in passes; each task starts when the previous one has
ended.  Whole passes are run while the next one still fits in ``--seconds``
(at least one pass; with tracing, at least one untraced and one traced).

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:
set-up time (median over fresh interpreter set-ups), the time of one pass,
task latency percentiles and peak RSS.  Pass time and latencies are given in
units of a fixed reference loop timed between the tasks (see ``in_refs``);
the pass time in seconds is printed too.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics: self time per
pass of each layer function called, the counts the tasks record, and the
tracing overhead.  It also writes the spans to ``bench/results``.

Every run writes a result file with an environment block to ``bench/results``
and prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--compare OLD NEW`` takes two
result files or directories of them and prints each workload x metric with
both medians, their ratio and whether the change stays within the bound.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# per-layer metrics derived from two counts rather than recorded directly
RATIOS = {"abstract_graphs.hit_ratio": ("abstract_graphs.colorings_found",
                                        "abstract_graphs.candidates_tried")}
OVERHEAD = "tracing.overhead_pct"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="sequence-verdicts | wide-language | loop-bound")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measuring time; whole passes run while the next one fits")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    p.add_argument("--setup-only", action="store_true", dest="setup_only",
                   help="set up the workload, print 'ready' and exit (used to time set-up)")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                   help="compare two result files or directories")
    args = p.parse_args(argv)
    if not args.compare and not args.workload:
        p.error("--workload is required")
    return args


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- environment ---------------------------------------------------------------


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args: argparse.Namespace, passes: list[dict], setup_runs: int, tasks: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": "smoke" if args.smoke else "full",
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "tasks_per_pass": tasks,
        "setup_runs": setup_runs,
    }


# -- measuring -------------------------------------------------------------------


def time_setup(args: argparse.Namespace) -> float:
    """Seconds from spawning a fresh interpreter until it is ready to run the first task."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up run failed with exit code {child.returncode}")
    return elapsed


def reference_loop() -> int:
    """A fixed piece of pure-Python work that calls nothing in ``src/``.

    String slicing, dict counting and a sort, the mix the shiftlab layers
    spend their time in; about 2 ms on a 2 GHz Xeon.
    """
    text = "".join("ab"[(i * i + i // 3) % 2] for i in range(2000))
    seen: dict[str, int] = {}
    for n in (4, 8, 12):
        for i in range(len(text) - n):
            w = text[i : i + n]
            seen[w] = seen.get(w, 0) + 1
    ranked = sorted(seen.items(), key=lambda kv: (-kv[1], kv[0]))
    return len({w[:3] for w, _ in ranked})


def run_pass(tasks, tracer, traced: bool) -> dict:
    """Run every task once, each followed by one timed run of the reference loop."""
    tracer.enabled = traced
    latencies, refs, failures = [], [], []
    start = time.perf_counter()
    for i, task in enumerate(tasks):
        t0 = time.perf_counter()
        try:
            with tracer.task(i, task.name):
                task.run(tracer)
        except Exception as exc:  # one failing task must not stop the run
            failures.append({"task": task.name, "error": f"{type(exc).__name__}: {exc}"})
            traceback.print_exc(file=sys.stderr)
        latencies.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        reference_loop()
        refs.append(time.perf_counter() - t0)
    tracer.enabled = False
    return {"traced": traced, "duration": time.perf_counter() - start,
            "wall": sum(latencies), "ref": statistics.fmean(refs),
            "latencies": latencies, "failures": failures}


def measure(tasks, tracer, seconds: float, trace: bool, between: Callable[[], None]) -> list[dict]:
    """Run passes while the next one fits in ``seconds``; call ``between`` after each."""
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        # with tracing, untraced and traced passes alternate
        passes.append(run_pass(tasks, tracer, traced=trace and len(passes) % 2 == 1))
        between()
        if trace and len(passes) < 2:
            continue
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["duration"] for p in passes) > seconds:
            return passes


# -- metrics ---------------------------------------------------------------------


def in_refs(passes: list[dict]) -> tuple[list[float], list[float]]:
    """Pass times and each task's median latency, in reference-loop units.

    Other tenants of a shared machine slow every process on it, and their
    load shifts from minute to minute: on a 2-vCPU Xeon, the same 30 s run
    read anywhere from 1x to 1.75x its fastest pass time, even taking each
    task at its fastest of 35 passes.  The reference loop runs between the
    tasks and is slowed alike, so a pass divided by the mean reference time
    of that same pass stays within a few percent from run to run.
    """
    norm = [[lat / p["ref"] for lat in p["latencies"]] for p in passes]
    per_pass = [sum(lats) for lats in norm]
    per_task = [statistics.median(lats) for lats in zip(*norm)]
    return per_pass, per_task


def end_to_end(passes: list[dict], setup_times: list[float]) -> dict[str, float]:
    per_pass, per_task = in_refs(passes)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_ref": statistics.median(per_pass),
        "verdict_p50_ref": nearest_rank(per_task, 0.5),
        "verdict_p90_ref": nearest_rank(per_task, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(passes: list[dict], tracer, names: list[str]) -> tuple[dict[str, float], dict]:
    from tracing import self_times

    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    k = len(traced)
    selfs = self_times(tracer.spans)
    values: dict[str, float] = {}
    for name in names:
        if name == OVERHEAD:
            plain = statistics.median(in_refs(untraced)[0])
            values[name] = 100 * (statistics.median(in_refs(traced)[0]) / plain - 1)
        elif name in RATIOS:
            num, den = RATIOS[name]
            values[name] = tracer.counts[num] / tracer.counts[den] if tracer.counts[den] else 0.0
        elif name.endswith(".s"):
            values[name] = selfs.get(name[:-2], (0, 0.0))[1] / k
        else:
            values[name] = tracer.counts[name] / k
    table = {name: {"calls_per_pass": calls / k, "self_s_per_pass": total / k}
             for name, (calls, total) in selfs.items()}
    return values, table


def print_layer_table(table: dict, traced_passes: int, wall: float) -> None:
    print(f"per-layer self time, mean of {traced_passes} traced pass(es):")
    print(f"  {'span':46} {'calls':>9} {'self s':>10} {'share':>7}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s_per_pass"]):
        share = row["self_s_per_pass"] / wall if wall else 0.0
        print(f"  {name:46} {row['calls_per_pass']:9.0f} {row['self_s_per_pass']:10.4f} {share:7.1%}")


# -- compare ---------------------------------------------------------------------


def load_results(path: str) -> dict[str, dict[str, list[float]]]:
    """Workload -> metric -> values over all result files under ``path``."""
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    out: dict[str, dict[str, list[float]]] = {}
    for f in files:
        obj = json.loads(f.read_text())
        if "env" not in obj:
            continue  # a span file
        key = obj["env"]["workload"] + (" (smoke)" if obj["env"]["sizes"] == "smoke" else "")
        for name, m in obj["metrics"].items():
            out.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return out


def compare(old_path: str, new_path: str, spec: dict) -> int:
    old, new = load_results(old_path), load_results(new_path)
    metrics = spec["end_to_end"] + spec["per_layer"]
    regressed = 0
    print(f"{'workload':20} {'metric':44} {'old':>12} {'new':>12} {'new/old':>8}  verdict")
    for workload in sorted(set(old) & set(new)):
        for m in metrics:
            a, b = old[workload].get(m["name"]), new[workload].get(m["name"])
            if not a or not b:
                continue
            mo, mn = statistics.median(a), statistics.median(b)
            ratio = mn / mo if mo else math.inf if mn else 1.0
            if "bound" not in m:
                verdict = "no bound"
            else:
                worse = (mn - mo) if m["better"] == "lower" else (mo - mn)
                ok = worse <= m["bound"] * abs(mo)
                verdict = f"{'within' if ok else 'OUTSIDE'} bound {m['bound']:.0%}"
                regressed += not ok
            print(f"{workload:20} {m['name']:44} {mo:12.5g} {mn:12.5g} {ratio:8.3f}  {verdict}"
                  f"  (runs {len(a)}/{len(b)})")
    for workload in sorted(set(old) ^ set(new)):
        print(f"{workload:20} only in {'OLD' if workload in old else 'NEW'}")
    return 1 if regressed else 0


# -- main ------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if not (SRC / "shiftlab" / "__init__.py").is_file():
        print(f"error: no shiftlab sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import shiftlab

    if not Path(shiftlab.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported shiftlab from {shiftlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    if args.setup_only:
        workloads.build(args.workload, args.seed, sizes)
        print("ready", flush=True)
        return 0

    # set-up time is an end-to-end metric, so only the untraced run pays for
    # timing it; the set-ups are spread over the run, as the load of other
    # tenants shifts within it
    setup_runs = 0 if args.trace else 2 if args.smoke else 9
    setup_times: list[float] = []
    start = time.perf_counter()

    def next_setup() -> None:
        due = len(setup_times) * args.seconds / max(setup_runs, 1)
        if len(setup_times) < setup_runs and time.perf_counter() - start >= due:
            setup_times.append(time_setup(args))

    tasks = workloads.build(args.workload, args.seed, sizes)
    tracer = Tracer()
    passes = measure(tasks, tracer, args.seconds, bool(args.trace), next_setup)
    while len(setup_times) < setup_runs:
        setup_times.append(time_setup(args))

    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    if args.trace:
        declared = spec["per_layer"]
        values, table = per_layer(passes, tracer, [m["name"] for m in declared])
    else:
        declared = spec["end_to_end"]
        values, table = end_to_end(passes, setup_times), None
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    RESULTS.mkdir(exist_ok=True)
    result = {
        "env": environment(args, passes, len(setup_times), len(tasks)),
        "metrics": metrics,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "pass_walls_s": [p["wall"] for p in passes],
        "pass_refs_s": [p["ref"] for p in passes],
        "setup_times_s": setup_times,
        "task_latencies_s": {
            task.name: [p["latencies"][i] for p in passes] for i, task in enumerate(tasks)
        },
        "layers": table,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")

    env = result["env"]
    print(f"{args.workload} seed {args.seed}: {env['passes']} pass(es) of {len(tasks)} tasks, "
          f"{attempted} latency samples, {len(setup_times)} set-ups; "
          f"{env['cpu_model']}, {env['nproc']} cpu, Python {env['python']}")
    if args.trace:
        (RESULTS / f"{stem}-spans.json").write_text(
            json.dumps([s.to_json() for s in tracer.spans]) + "\n")
        traced_wall = statistics.median(p["wall"] for p in passes if p["traced"])
        print_layer_table(table, env["traced_passes"], traced_wall)
    ref_s = statistics.median(p["ref"] for p in passes)
    per_task = f"{len(tasks)} tasks, each its median of {env['passes']} pass(es)"
    notes = {"setup_s": f"median of {len(setup_times)} set-ups",
             "wall_ref": f"median of {env['passes']} pass(es); 1 ref = {ref_s * 1e3:.3f} ms here",
             "verdict_p50_ref": per_task,
             "verdict_p90_ref": per_task}
    for name, m in metrics.items():
        if args.trace and not m["value"]:
            continue  # a layer this workload does not call
        n = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:44} {m['value']:14.6g} {m['unit']}{n}")
    print(f"  {'pass_s':44} {statistics.median(p['wall'] for p in passes):14.6g} s  "
          f"(median of {env['passes']} pass(es), as timed on this machine)")
    print(f"  {'error_rate':44} {len(failures) / attempted:14.6g} ratio  "
          f"({len(failures)} failed / {attempted} attempted)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
