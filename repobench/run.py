#!/usr/bin/env python3
"""The repository benchmark: seeded workloads through the FLEP simulator.

Run from the repository root::

    python3 repobench/run.py --workload fleet_scale --seed 1 --seconds 10 --trace 0

``--workload`` is one of ``fleet_scale``, ``fleet_chaos``,
``fig8_chains`` and ``preempt_storm`` (``BENCHMARK.json`` says why each
is there). One run is one process and one thread; it

1. times set-up in fresh child processes, one after another: imports,
   input generation and building the first system;
2. generates the workload's inputs from ``--seed`` and runs them once
   on the simulator's step-based reference loop, which gives the
   schedule hash every later run must repeat;
3. runs the inputs again and again for ``--seconds`` seconds, untraced,
   checking every run: the conservation ledger closes and the schedule
   hash equals the reference loop's;
4. with ``--trace 0``, pools the simulated-time statistics of the
   reference run and a few more input sets drawn from the seed (they
   are exact functions of the seed); with ``--trace 1``, splits host
   time by layer under cProfile and reads the program's own counters
   (the per-layer metrics).

Earlier lines of standard output carry the host fingerprint and the run
details. The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

"Host" figures are time this machine spent, scaled to a reference host
speed by a fixed loop timed around every execution (calibrate.py says
why); "sim" figures are modelled GPU time. Exits 2 without a result
when the simulator source is missing.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import pstats
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

import calibrate
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: child processes that each time one cold set-up
SETUP_PROBES = 3

#: the workload whose traced run also times the same trace at half its
#: length (``fleet.scale_ratio``; 0 elsewhere)
SCALE_PROBED = "fleet_scale"

#: input sets the simulated-time statistics pool: the timed one and
#: more drawn from the seed. Tail latencies and drain times of one set
#: rest on a few dozen events; pooling keeps them close across seeds.
STAT_SETS = 4


class ProgramMissing(Exception):
    """The checkout holds no simulator to benchmark."""


def load_program():
    """Import the simulator from this checkout's ``src/`` — never from
    anywhere else on the path — and the benchmark's workloads."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise ProgramMissing(f"no simulator source under {SRC}")
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"repro imported from {repro.__file__}")
    import scenarios

    return scenarios


def host_fingerprint() -> dict:
    """Which machine produced the numbers: figures from different hosts
    are never compared as a delta."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------
def setup_probe(workload: str, seed: int, scale: float) -> None:
    """Child side: import, generate the inputs, build the first system,
    report the split on stdout."""
    t0 = time.perf_counter()
    sc = load_program()
    t1 = time.perf_counter()
    w = sc.WORKLOADS[workload]
    w.prepare(w.generate(seed, scale))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}), flush=True)


def time_setups(clock, workload: str, seed: int, scale: float) -> dict:
    """Parent side: start a fresh interpreter per probe, one at a time,
    and time it from launch until its system is built."""
    totals, imports, builds = [], [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--scale", str(scale)]

    def probe():
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
        if child.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe failed: {cmd}")
        return elapsed, json.loads(line)

    for _ in range(SETUP_PROBES):
        (elapsed, split), _, k = clock.time(probe)
        totals.append(elapsed * k)
        imports.append(split["import_s"] * k)
        builds.append(split["build_s"] * k)
    return {
        "setup_s": median(totals),
        "setup.import_s": median(imports),
        "setup.build_s": median(builds),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------
class Run:
    """One benchmark invocation's state and results."""

    def __init__(self, sc, clock, workload: str, seed: int, scale: float):
        self.sc = sc
        self.clock = clock
        self.workload = workload
        self.w = sc.WORKLOADS[workload]
        self.seed = seed
        self.scale = scale
        self.inputs = self.w.generate(seed, scale)
        self.problems = []
        self.attempted = 0
        self.failed = 0
        # host seconds are scaled to the reference speed (calibrate.py)
        self.walls = []       # host seconds per timed execution
        self.raw_walls = []   # the same, unscaled
        self.peak_rss_mb = 0.0
        self.parts = []       # (host s, requests, sim µs) per timed part

    def reference(self) -> None:
        """Run once on the step-based reference loop (which also turns
        macro events off). Its schedule hash is the one every timed
        execution must repeat. Monitors only observe, so they stay off
        here: on the reference loop they would cost several times the
        run itself."""
        from repro.gpu.sim import Simulator

        Simulator.use_reference_loop = True
        try:
            self.ref = self.w.execute(self.inputs, probe=True, monitors=False)
        finally:
            Simulator.use_reference_loop = False
        self.problems += [
            f"reference: {p}"
            for p in self.sc.check(self.ref, self.ref.schedule_hash)
        ]

    def statistics(self) -> None:
        """The simulated-time statistics: the reference run pooled with
        ``STAT_SETS - 1`` more input sets drawn from the seed, each run
        once, probed, without monitors. They are exact functions of the
        seed."""
        rng = random.Random(self.seed)
        self.stats = [self.ref]
        for _ in range(STAT_SETS - 1):
            inputs = self.w.generate(rng.randrange(2 ** 31), self.scale)
            out = self.w.execute(inputs, probe=True, monitors=False)
            self.problems += [
                f"statistics set: {p}"
                for p in self.sc.check(out, out.schedule_hash)
            ]
            self.stats.append(out)

    def timed(self, seconds: float) -> None:
        """Execute untraced until ``seconds`` have passed (at least
        once), checking every execution."""
        end = time.perf_counter() + seconds
        while True:
            gc.collect()
            n = self.inputs.requests
            self.attempted += n
            try:
                out, raw, k = self.clock.time(
                    lambda: self.w.execute(self.inputs, tick=self.clock.tick)
                )
            except Exception:  # noqa: BLE001 - a crash fails the run
                traceback.print_exc()
                self.problems.append("execution raised")
                self.failed += n
                return
            errors = self.sc.check(out, self.ref.schedule_hash)
            if errors:
                self.problems += errors
                self.failed += n
            self.walls.append(raw * k)
            self.raw_walls.append(raw)
            self.parts += [(w * k, n, s) for w, n, s in out.parts]
            self.peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            if time.perf_counter() >= end:
                return

    def end_to_end(self) -> dict:
        from repro.metrics import percentile

        hi = [x for out in self.stats for x in out.high_latencies_us]
        drains = [x for out in self.stats for x in out.drain_latencies_us]
        slo_total = sum(out.slo_total for out in self.stats)
        return {
            "host_ms_per_request": median(
                [1000.0 * w / n for w, n, _ in self.parts]
            ),
            "sim_us_per_host_s": median([s / w for w, _, s in self.parts]),
            "peak_rss_mb": self.peak_rss_mb,
            # served over every pooled input set, and nothing of a timed
            # execution that raised or failed its check
            "served_share":
                sum(out.served for out in self.stats)
                / sum(out.requests for out in self.stats)
                * (1.0 - self.failed / self.attempted),
            "sim_p50_us_high": percentile(hi, 50) if hi else 0.0,
            "sim_p99_us_high": percentile(hi, 99) if hi else 0.0,
            "slo_attainment":
                sum(out.slo_met for out in self.stats) / slo_total
                if slo_total else 0.0,
            # the mean, not the median: drain times cluster by victim
            # kernel, and a median jumps between clusters from seed to
            # seed
            "sim_preempt_latency_us":
                statistics.mean(drains) if drains else 0.0,
        }

    # -- traced ---------------------------------------------------------
    def per_layer(self, seconds: float) -> dict:
        from repro.obs.profiler import SimProfiler, profiled

        # counters: one probed pass under the self-profiler
        with profiled(SimProfiler()) as prof:
            out = self.w.execute(self.inputs, probe=True)
        self.problems += self.sc.check(out, self.ref.schedule_hash)
        kinds = prof.events_by_kind
        polls = prof.flag_polls
        c = out.counts
        m = {
            "gpu.sim.events": prof.events_total,
            "gpu.sim.peak_pending": prof.peak_queue_depth,
            "gpu.cta.task_pulls": prof.task_pulls,
            "gpu.cta.flag_polls": polls,
            "gpu.cta.batches":
                kinds.get("batch", 0) + prof.batches_collapsed,
            "gpu.cta.batches_collapsed": prof.batches_collapsed,
            "gpu.cta.yield_per_poll":
                kinds.get("yield", 0) / polls if polls else 0.0,
            "gpu.dispatch.cta_admissions": prof.cta_admissions,
            "gpu.dispatch.sm_occupancy":
                out.cta_residency_us / out.sm_capacity_us
                if out.sm_capacity_us else 0.0,
            "runtime.invocations": c["invocations"],
            "runtime.preempt_temporal":
                prof.preempt_requested.get("temporal", 0),
            "runtime.preempt_spatial":
                prof.preempt_requested.get("spatial", 0),
            "serving.admitted": c["admitted"],
            "serving.shed": c["shed"],
            "fleet.routes": c["routes"],
            "fleet.steals": c["steals"],
            "fleet.reroutes": c["reroutes"],
            "fleet.lost": c["lost"],
        }
        # host time by layer: cProfile passes until ``seconds`` pass
        splits, walls, scales = [], [], []
        end = time.perf_counter() + seconds

        def profiled_execution():
            profiler = cProfile.Profile()
            profiler.enable()
            self.w.execute(self.inputs)
            profiler.disable()
            return profiler

        while not walls or time.perf_counter() < end:
            gc.collect()
            profiler, raw, k = self.clock.time(profiled_execution)
            walls.append(raw * k)
            scales.append(k)
            splits.append(layers.LayerSplit(pstats.Stats(profiler).stats, SRC))
        traced = median(walls)
        for layer in layers.LAYERS:
            m[f"{layer}.self_s"] = median(
                [s.self_s[layer] * k for s, k in zip(splits, scales)]
            )
        m["validate.calls"] = splits[0].calls_into("validate")
        m["validate.share"] = m["validate.self_s"] / traced
        m["trace.overhead"] = traced / median(self.walls)
        # scaling: the same trace at half its length, untraced
        m["fleet.scale_ratio"] = 0.0
        if self.workload == SCALE_PROBED:
            half = self.w.generate(self.seed, self.scale / 2)
            half_walls = []
            end = time.perf_counter() + seconds / 2
            while len(half_walls) < 2 or time.perf_counter() < end:
                gc.collect()
                _, raw, k = self.clock.time(
                    lambda: self.w.execute(half, tick=self.clock.tick)
                )
                half_walls.append(raw * k)
            m["fleet.scale_ratio"] = median(self.walls) / median(half_walls)
        return m


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names and units this run prints."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def measure(sc, args) -> tuple:
    """The whole measurement: returns (run, metrics)."""
    clock = calibrate.HostClock()
    setup = time_setups(clock, args.workload, args.seed, args.scale)
    run = Run(sc, clock, args.workload, args.seed, args.scale)
    run.reference()
    run.timed(args.seconds)
    if args.trace:
        metrics = run.per_layer(args.seconds)
        metrics["setup.import_s"] = setup["setup.import_s"]
        metrics["setup.build_s"] = setup["setup.build_s"]
    else:
        run.statistics()
        metrics = run.end_to_end()
        metrics["setup_s"] = setup["setup_s"]
    return run, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="workload size factor (the self-tests shrink it)")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    host = host_fingerprint()
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed, args.scale)
            return 0
        sc = load_program()
        spec = load_spec()
    except (ProgramMissing, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in sc.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(have {sorted(sc.WORKLOADS)})", file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    try:
        run, metrics = measure(sc, args)
    except Exception:  # noqa: BLE001 - report the failure as a result
        # the program raised outside the timed loop: every request of
        # the run counts as failed, and no figure is meaningful
        traceback.print_exc()
        print(json.dumps({"host": host, "workload": args.workload,
                          "seed": args.seed, "problems": ["run raised"]}))
        n = max(1, sc.WORKLOADS[args.workload].generate(
            args.seed, args.scale).requests)
        result = {"correct": False, "attempted": n, "failed": n,
                  "metrics": {name: 0.0 for name in units}}
    else:
        print(json.dumps({
            "host": host,
            "workload": args.workload,
            "seed": args.seed,
            "requests_per_execution": run.inputs.requests,
            "executions": len(run.walls),
            "host_speed": run.clock.speed,
            "raw_host_s_per_execution": median(run.raw_walls),
            "parts": [[round(w, 4), n, round(s, 1)] for w, n, s in run.parts],
            "schedule_hash": run.ref.schedule_hash,
            "problems": run.problems,
        }))
        result = {
            "correct": not run.problems,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
        }
    result["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
