"""Benchmark worker: runs ops through varjet's public API, one at a time.

run.py starts it as `python3 worker.py <plain|span|count|profile>` with the
checkout's src/ on PYTHONPATH.  Requests arrive as JSON lines on stdin and
each gets one JSON line back on stdout:

  {"ops": [...]}   run the ops in order; answer each op's seconds, its
                   timed segments and the reference job's times around
                   them (see OpTimer), and its error
  {"stats": true}  answer peak RSS and, when tracing, counts, times and spans

varjet's own stdout is redirected to stderr so it cannot corrupt replies.
An op is a few steps (CLI subcommands, or parse, renders and re-parse).
Only the steps are timed; the reference job, garbage collection and result
bookkeeping happen outside the timed segments.
"""

from __future__ import annotations

import cProfile
import functools
import gc
import json
import resource
import signal
import sys
import time
import traceback


def op_steps(op: dict, cli, symcore, box: dict) -> list:
    """The op's steps, run in order.  CLI ops are lists of argv; an expansion
    op leaves in `box` what the parent checks (the plain rendering and
    whether it re-parses equal)."""
    if "argvs" in op:
        def subcommand(argv):
            status = cli.main(argv)
            if status != 0:
                raise RuntimeError(f"varjet {argv[0]} exited with status {status}")
        return [functools.partial(subcommand, argv) for argv in op["argvs"]]
    ctx = symcore.JetContext(tuple(op["independents"]), ("u",))

    def parse():
        box["expr"] = symcore.parse(op["expr"], ctx)

    def render(fmt):
        box[fmt] = symcore.render(box["expr"], ctx, fmt)

    def reparse():
        box["again"] = symcore.parse(box["plain"], ctx)

    return [parse] + [functools.partial(render, fmt) for fmt in ("plain", "latex", "json")] \
        + [reparse]


SAMPLE_EVERY = 0.1  # seconds of a step between two runs of the reference job


class OpTimer:
    """Times an op's steps in segments, with the op's reference job
    (calibrate.py) run at every cut: before the first step, after each step and, when
    sampling, every SAMPLE_EVERY seconds inside a step, from a timer signal.
    A step of seconds (the re-parse of 800 terms) then still has the host's
    speed measured around each of its segments.  The traced modes do not
    sample, so that no reference job runs inside a span or the profiler."""

    def __init__(self, calibrate, profiler, sampling: bool):
        self.calibrate = calibrate
        self.profiler = profiler
        self.sampling = sampling
        self.in_step = False
        if sampling:
            signal.signal(signal.SIGALRM, self._alarm)

    def begin(self, job: str) -> None:
        self.job = job
        self.segments = []
        self.probes = [self.calibrate.probe(job)]

    def _cut(self) -> None:
        self.segments.append(time.perf_counter() - self.start)
        self.probes.append(self.calibrate.probe(self.job))
        self.start = time.perf_counter()

    def _alarm(self, signum, frame) -> None:
        if self.in_step:  # a signal still pending from a finished step is dropped
            self._cut()
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY)

    def step(self, fn) -> None:
        if self.profiler is not None:
            self.profiler.enable()
        self.start = time.perf_counter()
        if self.sampling:
            self.in_step = True
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY)
        try:
            fn()
        finally:
            self.in_step = False
            if self.sampling:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if self.profiler is not None:
                self.profiler.disable()
            self._cut()


def main() -> int:
    mode = sys.argv[1]
    replies, sys.stdout = sys.stdout, sys.stderr
    from varjet import cli, symcore
    import calibrate
    import tracing

    tracer = profiler = None
    if mode in ("span", "count"):
        tracer = tracing.Tracer(kernel_counts=mode == "count")
        tracer.install()
    elif mode == "profile":
        profiler = cProfile.Profile()

    timer = OpTimer(calibrate, profiler, sampling=mode == "plain")
    op_id = 0
    for line in sys.stdin:
        request = json.loads(line)
        if "ops" in request:
            results = []
            for op in request["ops"]:
                gc.collect()
                error = None
                box = {}
                if tracer is not None:
                    tracer.op = op_id
                timer.begin(op["reference"])
                for step in op_steps(op, cli, symcore, box):
                    try:
                        timer.step(step)
                    except (Exception, SystemExit) as exc:
                        error = f"{type(exc).__name__}: {exc}"
                        traceback.print_exc()
                        break
                if tracer is not None:
                    tracer.op = None
                result = {"seconds": sum(timer.segments), "segments": timer.segments,
                          "probes": timer.probes, "error": error}
                if "again" in box:
                    with open(op["out"], "w", encoding="utf-8") as fh:
                        fh.write(box["plain"])
                    result["reparse_equal"] = box["again"] == box["expr"]
                results.append(result)
                op_id += 1
            reply = {"results": results}
        else:
            reply = {"peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            if tracer is not None:
                reply.update(tracer.summary())
                if request.get("spans"):
                    tracer.write(request["spans"])
            if profiler is not None:
                reply.update(tracing.profile_summary(profiler))
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
