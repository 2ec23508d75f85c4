"""varjet benchmark: seeded workloads, end-to-end metrics and a traced breakdown.

Run from the repository root:

  python3 perfbench/run.py --workload derive-ladder --seed 1 --seconds 20 --trace 0

One worker process (a fresh interpreter on one CPU, one client, closed
loop, BLAS threads pinned to 1) runs the workload's ops through varjet's
public API.  The ops come in whole cycles of the workload's ladder, as many
as fill --seconds on the seed code.  Inputs are made here from --seed and
written to files under .perfbench_work/; the worker receives only the
problem files, grid files and expression texts.  A pinned reference set runs
first as warm-up and its output digests must match pinned.json; after the
timed run every op's output is checked (see checks.py).  Op and set-up
times are scaled to a reference speed of the CPU (see calibrate.py).

--trace 0 prints the end-to-end metrics.  --trace 1 runs the first cycle's
ops four times, each in a fresh worker: plain and spanned taking turns op
by op, then spanned with kernel call counters, all on one CPU, while the
profiled pass runs on the other.  It prints
the per-layer metrics and the tracing overhead, and fails unless every
exact count agrees between two of the traced passes.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED = os.path.join(HERE, "pinned.json")
WORK = ".perfbench_work"
SETUP_SAMPLES = 7
CHECKERS = 2  # the checks run after the timed loop, on both cores
TAIL_BEYOND = 10  # op_tail_ms is the highest percentile with this many ops above it

SETUP_CODE = ("import time; t0 = time.perf_counter(); import numpy; "
              "t1 = time.perf_counter(); import varjet.cli; t2 = time.perf_counter(); "
              "print(t1 - t0, t2 - t1, flush=True)")

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MiB"), ("ok_ratio", "ratio"))


def per_layer_names() -> list:
    import tracing
    return ([(f"{p}_s", "s") for p in tracing.SPANNED]
            + [("symcore.substitute_calls", "count"),
               ("jetcalc.total_derivative_calls", "count"),
               ("symcore.expr_built", "count"), ("symcore.sort_key_calls", "count"),
               ("symcore.terms_out", "count"), ("numeric.stencil_passes", "count"),
               ("numeric.stencil_bytes", "B")]
            + [(f"{m}.self_s", "s") for m in tracing.MODULES + ("fractions",)]
            + [("import.numpy_s", "s"), ("import.varjet_s", "s"),
               ("trace.plain_ops_per_s", "1/s"), ("trace.span_ops_per_s", "1/s"),
               ("trace.span_overhead", "ratio"), ("trace.profile_overhead", "ratio")])


class Worker:
    """A worker process speaking JSON lines; always waited for on exit."""

    def __init__(self, mode: str, env: dict, cpu: int = 0):
        with one_cpu(cpu):  # so each op runs on the CPU its reference jobs measure
            self.proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "worker.py"), mode],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)

    def send(self, request: dict) -> None:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with status {self.proc.wait()}")
        return json.loads(line)

    def ask(self, request: dict) -> dict:
        self.send(request)
        return self.receive()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def child_env(root: str) -> dict:
    """The checkout's src/ first on the path, BLAS on one thread, and a fixed
    hash seed, so that set iteration order and the exact counts repeat."""
    env = dict(os.environ)
    paths = [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env.update(PYTHONPATH=os.pathsep.join(paths), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


@contextlib.contextmanager
def one_cpu(k: int = 0):
    """Keep this process, and the interpreters it starts, on one CPU (the
    k-th it may use).  The host's CPUs drift in speed independently, so the
    reference job measures the speed of the CPU it runs on only."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {sorted(cpus)[k % len(cpus)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def measure_setup(env: dict) -> dict:
    """Fresh interpreters until `import varjet.cli` is done; medians.  All
    run on one CPU, and each wall time is scaled by the reference job run
    right before and after it."""
    with one_cpu():
        return _measure_setup(env)


def _measure_setup(env: dict) -> dict:
    walls, numpy_s, varjet_s = [], [], []
    for _ in range(SETUP_SAMPLES):
        before = calibrate.probe()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE],
                                stdout=subprocess.PIPE, env=env, text=True)
        line = proc.stdout.readline()
        wall = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait() != 0 or not line:
            raise RuntimeError("a fresh interpreter could not import varjet.cli")
        speed = calibrate.REFERENCE_SECONDS["interpreter"] / ((before + calibrate.probe()) / 2)
        a, b = map(float, line.split())
        walls.append(wall * speed)
        numpy_s.append(a * speed)
        varjet_s.append(b * speed)
    return {"setup_s": statistics.median(walls),
            "import.numpy_s": statistics.median(numpy_s),
            "import.varjet_s": statistics.median(varjet_s)}


# -- inputs --------------------------------------------------------------------

def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def materialize(specs: list, indir: str, tag: str) -> list:
    """Write each op's input files; returns specs with their paths."""
    for spec in specs:
        base = os.path.join(indir, f"{tag}-s{spec['slot']}")
        if spec["kind"] in ("derive", "grid"):
            spec["path"] = base + ".problem"
            _write(spec["path"], spec["problem"])
        if spec["kind"] == "grid":
            spec["grid_path"] = base + ".grid"
            workloads.write_grid(spec["grid_path"], *workloads.grid_arrays(spec))
    return specs


def bind_outputs(specs: list, outdir: str, tag: str) -> list:
    """Per-op output paths and the request the worker receives."""
    bound = []
    for spec in specs:
        spec = dict(spec)
        base = os.path.join(outdir, f"{tag}-s{spec['slot']}")
        if spec["kind"] == "derive":
            spec["outputs"] = {cmd: f"{base}.{cmd}" for cmd in workloads.DERIVE_COMMANDS}
            spec["wire"] = {"argvs": [[cmd, spec["path"], "--out", out]
                                      for cmd, out in spec["outputs"].items()]}
        elif spec["kind"] == "grid":
            spec["out"] = base + ".json"
            spec["wire"] = {"argvs": [["check-solution", spec["path"], "--grid",
                                       spec["grid_path"], "--system", spec["system"],
                                       "--format", "json", "--out", spec["out"]]]}
        else:
            spec["out"] = base + ".plain"
            spec["wire"] = {"expr": spec["expr"], "out": spec["out"],
                            "independents": list(workloads.INDEPENDENTS[:spec["n"]])}
        spec["wire"]["reference"] = workloads.REFERENCE_JOB[spec["kind"]]
        bound.append(spec)
    return bound


def digest(specs: list) -> str:
    h = hashlib.sha256()
    for spec in specs:
        for path in spec["outputs"].values() if "outputs" in spec else [spec["out"]]:
            try:
                with open(path, "rb") as fh:
                    h.update(fh.read())
            except FileNotFoundError:  # the op failed before writing it
                h.update(b"\0missing\0")
    return h.hexdigest()


def pinned_specs(workload: str) -> list:
    """A fixed, seed-independent reference set whose output bytes are pinned."""
    specs = workloads.CYCLES[workload]("pinned", 0)
    if workload == "residual-grid":
        # every slot: the acceptance soliton at 512^2 and 1024^2 and the wave
        # u = sin(0.6x + 0.8y - t) at 128^3.  Running each grid size once
        # before the timed loop also settles the allocator's thresholds.
        for spec in specs:
            spec["params"] = {"c": 1.0, "shift": 0.0} if spec["grid"] == "soliton" \
                else {"angle": 0.0, "phase": 0.0}
        return specs
    return specs[:5] if workload == "derive-ladder" else specs[:1]


def scaled_seconds(result: dict, job: str) -> float:
    """The op's seconds at the reference speed: each segment's seconds times
    the reference job's nominal time over its mean time right before and
    right after the segment."""
    probes, nominal = result["probes"], calibrate.REFERENCE_SECONDS[job]
    return sum(t * nominal / ((a + b) / 2)
               for t, a, b in zip(result["segments"], probes, probes[1:]))


def run_ops(worker: Worker, specs: list, replies=None) -> list:
    """Runs the ops, or takes the worker's replies to them if already asked."""
    if replies is None:
        replies = worker.ask({"ops": [spec["wire"] for spec in specs]})["results"]
    for spec, reply in zip(specs, replies):
        reply["scaled"] = scaled_seconds(reply, spec["wire"]["reference"])
    return [dict(spec, result=reply) for spec, reply in zip(specs, replies)]


def run_pinned(worker: Worker, workload: str, rundir: str) -> str:
    specs = bind_outputs(materialize(pinned_specs(workload), rundir, "pin"), rundir, "pin")
    done = run_ops(worker, specs)
    if any(op["result"]["error"] for op in done):
        return "error"
    return digest(done)


# -- checks ----------------------------------------------------------------------

def check_ops(done: list, seed: int) -> int:
    """Checks every op, split over CHECKERS processes; returns the number
    failed.  sympy's euler_equations checks the first-cycle derivations whose
    slot is congruent to the seed mod 3, so each rung is covered every 3 seeds."""
    tasks = []
    for op in done:
        paired = None
        if op["kind"] == "grid":
            paired = next((o for o in done if o["cycle"] == op["cycle"] and o["npts"] == 1024
                           and (o["grid"], o["system"]) == ("soliton", "el")), None)
        tasks.append((op, paired, op["cycle"] == 0 and op["slot"] % 3 == seed % 3))
    procs = [subprocess.Popen([sys.executable, os.path.join(HERE, "checks.py")],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
             for _ in range(CHECKERS)]
    reasons = [None] * len(tasks)
    try:
        for k, proc in enumerate(procs):
            proc.stdin.write(json.dumps(tasks[k::CHECKERS]))
            proc.stdin.close()
        for k, proc in enumerate(procs):
            reasons[k::CHECKERS] = json.loads(proc.stdout.read())
    finally:
        for proc in procs:
            proc.wait()
    for op, reason in zip(done, reasons):
        if reason is not None:
            print(f"perfbench: op cycle {op['cycle']} slot {op['slot']} failed: {reason}",
                  file=sys.stderr)
    return sum(reason is not None for reason in reasons)


def check_pins(workload: str, got: str) -> bool:
    with open(PINNED, encoding="utf-8") as fh:
        want = json.load(fh)[workload]
    if got != want:
        print(f"perfbench: pinned {workload} outputs changed: sha256 {got} != {want}",
              file=sys.stderr)
    return got == want


# -- runs ------------------------------------------------------------------------

def tail(latencies: list):
    """(value, percentile): the highest percentile with TAIL_BEYOND ops above it."""
    ordered = sorted(latencies)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def cycles_for(workload: str, seconds: float) -> int:
    """Whole cycles for a run of `seconds`: enough for a tail, and scaled
    from the workload's count at the nominal run length."""
    slots = len(workloads.CYCLES[workload](0, 0))
    return max(math.ceil((TAIL_BEYOND + 1) / slots),
               round(workloads.CYCLES_PER_RUN[workload] * seconds
                     / workloads.NOMINAL_SECONDS))


def timed_run(workload: str, seed: int, seconds: float, rundir: str, env: dict) -> dict:
    make = workloads.CYCLES[workload]
    cycles = cycles_for(workload, seconds)
    done = []
    with Worker("plain", env) as worker:
        # the pinned reference set doubles as warm-up: lazy imports and
        # caches fill before the first timed op
        pins = run_pinned(worker, workload, rundir)
        for k in range(cycles):
            tag = f"c{k}"
            specs = bind_outputs(materialize(make(seed, k), rundir, tag), rundir, tag)
            ops = run_ops(worker, specs)
            for op in ops:
                op["cycle"] = k
                if op["kind"] == "grid":
                    os.remove(op["grid_path"])
            done.extend(ops)
        stats = worker.ask({"stats": True})
    return {"done": done, "cycles": cycles, "stats": stats, "pins": pins}


def slot_medians(done: list) -> list:
    """Each slot's median scaled latency over the run's cycles."""
    slots = sorted({op["slot"] for op in done})
    return [statistics.median(op["result"]["scaled"] for op in done if op["slot"] == s)
            for s in slots]


def end_to_end(workload: str, seed: int, seconds: float, rundir: str, env: dict) -> int:
    marks = [time.perf_counter()]
    setup = measure_setup(env)
    marks.append(time.perf_counter())
    run = timed_run(workload, seed, seconds, rundir, env)
    marks.append(time.perf_counter())
    done = run["done"]
    failed = check_ops(done, seed)
    marks.append(time.perf_counter())
    pins_ok = check_pins(workload, run["pins"])
    latencies = [op["result"]["scaled"] for op in done]
    raw = [op["result"]["seconds"] for op in done]
    typical = slot_medians(done)
    tail_s, tail_pct = tail(latencies)
    attempted = len(done)
    metrics = {
        "ops_per_s": len(typical) * (attempted - failed) / attempted / sum(typical),
        "op_p50_ms": 1e3 * statistics.median(typical),
        "op_tail_ms": 1e3 * tail_s,
        "setup_s": setup["setup_s"],
        "peak_rss_mb": run["stats"]["peak_rss_kib"] / 1024.0,
        "ok_ratio": (attempted - failed) / attempted,
    }
    per_cycle = [sum(op["result"]["scaled"] for op in done if op["cycle"] == k)
                 for k in range(run["cycles"])]
    print(f"workload {workload}  seed {seed}  cycles {run['cycles']}  ops {attempted}  "
          f"timed {sum(raw):.2f} s wall, {sum(latencies):.2f} s scaled  "
          f"outputs sha256 {digest(done)}")
    print(f"  machine speed: scaled / wall = {sum(latencies) / sum(raw):.3f}")
    print("  phases: set-up {:.1f} s, worker {:.1f} s, checks {:.1f} s".format(
        *(b - a for a, b in zip(marks, marks[1:]))))
    print(f"  cycle scaled seconds {' '.join(f'{t:.3f}' for t in per_cycle)}")
    print(f"  op wall seconds {' '.join(f'{t:.4f}' for t in raw)}")
    print(f"  op scaled seconds {' '.join(f'{t:.4f}' for t in latencies)}")
    print("  all times below are scaled to the reference speed (calibrate.py)")
    print(f"  ops_per_s    {metrics['ops_per_s']:.4f} 1/s")
    print(f"  op_p50_ms    {metrics['op_p50_ms']:.2f} ms")
    print(f"  op_tail_ms   {metrics['op_tail_ms']:.2f} ms  (p{tail_pct:.1f} of {attempted} ops)")
    print(f"  setup_s      {metrics['setup_s']:.4f} s  (median of {SETUP_SAMPLES} fresh "
          f"interpreters; numpy {setup['import.numpy_s']:.3f} s, "
          f"varjet {setup['import.varjet_s']:.3f} s)")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MiB  (worker process)")
    print(f"  fail_ratio   {failed / attempted:.4f}  ({failed} of {attempted} ops; "
          f"reported as ok_ratio = 1 - fail_ratio, which is never 0)")
    print(f"  pinned reference outputs {'match' if pins_ok else 'CHANGED'}")
    emit(failed == 0 and pins_ok, attempted, failed,
         {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END})
    return 0


def traced(workload: str, seed: int, rundir: str, env: dict) -> int:
    import tracing
    setup = measure_setup(env)
    specs = materialize(workloads.CYCLES[workload](seed, 0), rundir, "c0")
    bound = {}
    for mode in ("plain", "span", "count", "profile"):
        os.mkdir(os.path.join(rundir, mode))
        bound[mode] = bind_outputs(specs, os.path.join(rundir, mode), "c0")
    ops = {}
    with contextlib.ExitStack() as stack:
        # the profiled pass, about 4x slower than the others, runs on the
        # second CPU meanwhile: profiler self time is only compared between
        # commits, and the counts are exact whatever the load
        workers = {"profile": stack.enter_context(Worker("profile", env, cpu=1))}
        workers["profile"].send({"ops": [spec["wire"] for spec in bound["profile"]]})
        # plain and span take turns op by op on the first CPU, so that drift
        # of its speed falls on both sides of the overhead ratio alike
        for mode in ("plain", "span"):
            workers[mode] = stack.enter_context(Worker(mode, env))
        ops["plain"], ops["span"] = [], []
        for k in range(len(specs)):
            for mode in ("plain", "span") if k % 2 == 0 else ("span", "plain"):
                ops[mode] += run_ops(workers[mode], [bound[mode][k]])
        workers["count"] = stack.enter_context(Worker("count", env))
        ops["count"] = run_ops(workers["count"], bound["count"])
        ops["profile"] = run_ops(workers["profile"], bound["profile"],
                                 workers["profile"].receive()["results"])
        passes = {}
        for mode, worker in workers.items():
            spans = os.path.join(WORK, f"spans-{workload}.jsonl") if mode == "span" else None
            stats = worker.ask({"stats": True, "spans": spans})
            pins = run_pinned(worker, workload, os.path.join(rundir, mode)) \
                if mode == "plain" else None
            for op in ops[mode]:
                op["cycle"] = 0
            passes[mode] = {"ops": ops[mode], "stats": stats, "pins": pins,
                            "ops_per_s": len(ops[mode]) / sum(
                                op["result"]["scaled"] for op in ops[mode])}
    plain, span, count, prof = (passes[m] for m in ("plain", "span", "count", "profile"))
    failed = check_ops(plain["ops"], seed)
    ok = failed == 0 and check_pins(workload, plain["pins"])

    if len({digest(p["ops"]) for p in passes.values()}) != 1:
        print("perfbench: op outputs differ between the traced passes", file=sys.stderr)
        ok = False
    # every count must come out the same from two traced runs: the spanned
    # and counting passes share the span counts, and the counting and
    # profiled passes share the kernel counts
    counts = count["stats"]["counts"]
    pairs = [(name, value, counts[name]) for name, value in span["stats"]["counts"].items()]
    pairs += [(name, value, counts.get(name)) for name, value in prof["stats"]["counts"].items()]
    pairs.append(("numeric.stencil_bytes", span["stats"]["stencil_bytes"],
                  count["stats"]["stencil_bytes"]))
    for name, a, b in pairs:
        if a != b:
            print(f"perfbench: {name} differs between two traced runs: {a} != {b}",
                  file=sys.stderr)
            ok = False

    values = dict(counts)
    values["numeric.stencil_bytes"] = span["stats"]["stencil_bytes"]
    values.update(span["stats"]["times"])
    for module in tracing.MODULES + ("fractions",):
        values[f"{module}.self_s"] = prof["stats"]["self_s"].get(f"{module}.self_s", 0.0)
    values["import.numpy_s"] = setup["import.numpy_s"]
    values["import.varjet_s"] = setup["import.varjet_s"]
    values["trace.plain_ops_per_s"] = plain["ops_per_s"]
    values["trace.span_ops_per_s"] = span["ops_per_s"]
    values["trace.span_overhead"] = span["ops_per_s"] / plain["ops_per_s"]
    values["trace.profile_overhead"] = prof["ops_per_s"] / plain["ops_per_s"]

    n = len(plain["ops"])
    print(f"workload {workload}  seed {seed}  traced cycle of {n} ops, each pass in a "
          f"fresh worker: plain and span taking turns, then count; profile meanwhile")
    print(f"  tracing overhead: spanned {span['ops_per_s']:.4f} ops/s / plain "
          f"{plain['ops_per_s']:.4f} ops/s = {values['trace.span_overhead']:.3f}; "
          f"profiled {prof['ops_per_s']:.4f} ops/s / plain = "
          f"{values['trace.profile_overhead']:.3f} (bases: the same {n} ops)")
    print("  numeric.stencil_bytes is computed: stencil passes x input array bytes")
    names = per_layer_names()
    for name, unit in names:
        print(f"  {name:34s} {values[name]:.6g} {unit}")
    emit(ok, n, failed, {name: {"value": values[name], "unit": unit} for name, unit in names})
    return 0


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def write_pins(rundir: str, env: dict) -> int:
    """Regenerate pinned.json from the current program; only for an intended
    change of output, which the change must say and explain."""
    pins = {}
    for workload in workloads.CYCLES:
        with Worker("plain", env) as worker:
            pins[workload] = run_pinned(worker, workload, rundir)
    with open(PINNED, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(pins, indent=2, sort_keys=True))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.CYCLES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="regenerate pinned.json from the current program")
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "varjet", "cli.py")):
        print("perfbench: src/varjet not found; run from the repository root",
              file=sys.stderr)
        return 2
    if not args.write_pins and args.workload is None:
        parser.error("--workload is required")
    env = child_env(root)
    os.makedirs(WORK, exist_ok=True)
    rundir = os.path.join(WORK, f"run-{os.getpid()}")
    os.mkdir(rundir)
    try:
        if args.write_pins:
            return write_pins(rundir, env)
        if args.trace:
            return traced(args.workload, args.seed, rundir, env)
        return end_to_end(args.workload, args.seed, args.seconds, rundir, env)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
