"""senlab benchmark: one workload, one seed, one JSON line of results.

    python3 bench/run.py --workload series --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ./src only, so a
directory without the sources fails fast with exit code 2.  A run sets up
several times (setup_s is the median), then runs whole rounds of checked
tasks, closed loop with one client, until at least --seconds have passed and
at least 100 tasks were attempted.  With --trace 0 the last line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced pass, measured against an untraced pass over the same inputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_TASKS = 100
# seconds one reference loop takes when the host runs at full speed
REFERENCE_S = 0.00034
# recalibrate when the last reference sample is older than this
CALIBRATE_EVERY_S = 0.05



def load_package():
    if not os.path.isfile(os.path.join(SRC, "senlab", "__init__.py")):
        print("bench: no senlab sources under %s" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import senlab
    if not os.path.abspath(senlab.__file__).startswith(SRC + os.sep):
        print("bench: senlab was imported from %s, not %s" % (senlab.__file__, SRC),
              file=sys.stderr)
        sys.exit(2)


def _reference_loop():
    """Fixed pure-Python work (big-integer arithmetic, calls, allocation)."""
    m = 3 ** 40
    acc, out = 1, []
    for i in range(1, 1500):
        acc = (acc * (i | 1) + i) % m
        out.append((acc, i))
    return len(out)


class SpeedClock:
    """Scales measured durations to the host's full speed.

    The host's speed drifts by up to 1.9x within seconds (other tenants on
    the same cores), and the program slows with it.  The clock times a fixed
    reference loop before each task (at most every CALIBRATE_EVERY_S) and
    after every longer task, and multiplies each duration by REFERENCE_S over
    the reference time measured around it.
    """

    def __init__(self):
        self.factor = 1.0
        self.stamp = -1.0

    def calibrate(self):
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            _reference_loop()
            samples.append(time.perf_counter() - t0)
        self.factor = REFERENCE_S / statistics.median(samples)
        self.stamp = time.perf_counter()
        return self.factor

    def measure(self, fn):
        """(result, exception or None, scaled seconds) of fn()."""
        if time.perf_counter() - self.stamp > CALIBRATE_EVERY_S:
            self.calibrate()
        before = self.factor
        out, err = None, None
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:      # a task that raises is timed and counted as failed
            err = exc
        raw = time.perf_counter() - t0
        factor = before
        if raw > CALIBRATE_EVERY_S:
            factor = (before + self.calibrate()) / 2.0
        return out, err, raw * factor


class Tally:
    """Task latencies and outcomes of one pass."""

    def __init__(self, clock):
        self.clock = clock
        self.latencies = []
        self.round_rates = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.busy = 0.0

    def run_round(self, rnd, tracer=None):
        busy = 0.0
        fault_failures = 0
        for task in rnd.tasks:
            run = task.run if tracer is None else _in_span(tracer, task.name, task.run)
            out, err, dt = self.clock.measure(run)
            ok = False
            if err is None:
                try:
                    ok = bool(task.check(out))
                except Exception as exc:
                    err = exc
            self.attempted += 1
            self.latencies.append(dt)
            busy += dt
            if not ok:
                self.failed += 1
                fault_failures += task.known_fault
                if not task.known_fault:
                    self.correct = False
                    print("bench: task %s failed: %s" % (task.name, err or "wrong result"),
                          file=sys.stderr)
                    if err is not None:
                        traceback.print_exception(type(err), err, err.__traceback__,
                                                  file=sys.stderr)
        if fault_failures > rnd.known_faults:
            self.correct = False
            print("bench: %d known-fault tasks failed, more than the %d expected"
                  % (fault_failures, rnd.known_faults), file=sys.stderr)
        for post in rnd.post_checks:
            try:
                good = bool(post())
            except Exception:
                good = False
            if not good:
                self.correct = False
                print("bench: round check %s failed" % post.__name__, file=sys.stderr)
        self.busy += busy
        self.round_rates.append(len(rnd.tasks) / busy)


def _in_span(tracer, name, fn):
    def run():
        with tracer.task(name):
            return fn()
    return run


def percentile(values, q):
    """Nearest-rank percentile of a list of numbers."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def timed_setups(wl, clock):
    """Median of repeated set-ups: at least 5, and more (up to 51) while they
    add up to less than half a second, so that millisecond set-ups are
    sampled as well as slow ones."""
    times, state = [], None
    while len(times) < 5 or (sum(times) < 0.5 and len(times) < 51):
        gc.collect()
        state, err, scaled = clock.measure(wl.setup)
        if err is not None:
            raise err
        times.append(scaled)
    return statistics.median(times), state


def run_untraced(wl, seed, seconds):
    clock = SpeedClock()
    setup_s, state = timed_setups(wl, clock)
    rng = random.Random(seed)
    tally = Tally(clock)
    start = time.perf_counter()
    while True:
        tally.run_round(wl.round(state, rng))
        if time.perf_counter() - start >= seconds and tally.attempted >= MIN_TASKS:
            break
    if getattr(wl, "in_process", True):
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "tasks_per_s": (statistics.median(tally.round_rates), "1/s"),
        "task_p50_ms": (percentile(tally.latencies, 0.5) * 1000.0, "ms"),
        "task_p90_ms": (percentile(tally.latencies, 0.9) * 1000.0, "ms"),
        "peak_rss_mb": (peak / 1024.0, "MB"),
    }
    return tally, metrics


def run_traced(wl, seed, seconds):
    """Cycles of set-up plus one round, untraced then traced on equal inputs.

    Per-layer values are per cycle, in raw wall-clock time; the overhead
    compares the scaled program time of the two passes.
    """
    from tracer import Tracer

    if hasattr(wl, "in_process"):
        wl.in_process = True        # the CLI runs through cli.main(argv)

    clock = SpeedClock()

    def cycles(count, tracer):
        rng = random.Random(seed)
        tally = Tally(clock)
        start = time.perf_counter()
        done = 0
        setup_busy = 0.0
        while True:
            setup = wl.setup if tracer is None else _in_span(tracer, "setup", wl.setup)
            state, err, scaled = clock.measure(setup)
            if err is not None:
                raise err
            setup_busy += scaled
            tally.run_round(wl.round(state, rng), tracer)
            done += 1
            if count is not None and done >= count:
                break
            if count is None and time.perf_counter() - start >= seconds / 2:
                break
        return tally, done, setup_busy + tally.busy

    plain, n_cycles, plain_busy = cycles(None, None)
    tracer = Tracer()
    tracer.install()
    try:
        traced, _, traced_busy = cycles(n_cycles, tracer)
    finally:
        tracer.uninstall()
    import_ms = []
    if hasattr(wl, "import_time_ms"):
        import_ms = [wl.import_time_ms() for _ in range(n_cycles)]
    self_ms = tracer.self_times_ms()
    metrics = {}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        layer_metrics = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    for name, unit in layer_metrics:
        if name == "trace.overhead_pct":
            value = (traced_busy / plain_busy - 1.0) * 100.0
        elif name == "cli.import.ms":
            value = statistics.median(import_ms) if import_ms else 0.0
        elif name.endswith(".calls") or name == "padic.scalar_ops":
            layer = name[:-len(".calls")] if name.endswith(".calls") else name
            value = tracer.counts.get(layer, 0) / n_cycles
        else:
            value = self_ms.get(name[:-len(".ms")], 0.0) / n_cycles
        metrics[name] = (value, unit)
    out_dir = os.path.join(ROOT, "bench", "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, "spans-%s-%d.csv" % (wl.name, seed)))
    combined = Tally(clock)
    for t in (plain, traced):
        combined.attempted += t.attempted
        combined.failed += t.failed
        combined.correct = combined.correct and t.correct
    return combined, metrics


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that the reference
    loop samples the CPU the measured code runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_package()
    pin_to_one_cpu()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s"
                     % (args.workload, ", ".join(WORKLOADS)))
    wl = WORKLOADS[args.workload](ROOT, args.seed)
    try:
        if args.trace:
            tally, metrics = run_traced(wl, args.seed, args.seconds)
        else:
            tally, metrics = run_untraced(wl, args.seed, args.seconds)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
