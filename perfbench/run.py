"""The repository benchmark: end-to-end and per-layer metrics of the
three paths users run (see ``perfbench/README.md``).

Run from the repository root::

    python3 perfbench/run.py --workload figures-cold --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
untouched. ``--trace 1`` runs the same workload with spans recorded
around the program's public functions and reports per-layer metrics,
the tracing overhead and the traced time no span covers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(settings, every metric with its sample counts, failures) is written to
``.perfbench_out/<workload>-seed<seed>-trace<trace>.json``; compare two
records with ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import loads  # noqa: E402
import measure  # noqa: E402
import oracle  # noqa: E402
import spans as spanlib  # noqa: E402

RECORD_SCHEMA = 1
FIGURES_MIN_SAMPLES = 3
RUN_MIN_ROUNDS = 2
#: serve-mixed's timed loop is cut into this many segments; its rates
#: and batch wall are medians over them, so one slow stretch of a shared
#: host moves them less than a mean over the whole loop
SERVE_SEGMENTS = 10
# set-up samples: taken before the timed loop and spread through it, so
# the median covers the whole run rather than its first seconds
CLI_SETUP_FIRST = 3
CLI_SETUP_PER_FIGURES = 2
CLI_SETUP_EVERY_RUNS = 4
SERVE_SETUP_FIRST = 2
#: share of --seconds the untraced serve leg gets in a traced run
SERVE_TRACE_UNTRACED_SHARE = 0.35

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p99_ms": "ms",
    "sim_mcycles_per_s": "Mcycles/s",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
}


class Context:
    """One benchmark run: its settings, private directories and tallies."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path,
                 reference: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.reference = reference
        self.ops = measure.Ops()
        self.python = sys.executable
        self._dirs = 0

    def fresh_dir(self, label: str) -> Path:
        """A new empty directory inside this run's private work area."""
        self._dirs += 1
        path = self.work / f"{label}-{self._dirs}"
        path.mkdir()
        return path

    def env(self) -> Dict[str, str]:
        """Environment of a program process: ``src`` importable, a new
        empty cache directory, no ``SMARQ_*`` switches from outside."""
        env = {
            k: v for k, v in os.environ.items()
            if not k.startswith(("SMARQ_", "REPRO_", "PYTHON"))
        }
        env["PYTHONPATH"] = str(ROOT / "src")
        env["REPRO_CACHE_DIR"] = str(self.fresh_dir("cache"))
        return env

    def repro(self, args, spans_out: Optional[Path] = None) -> List[str]:
        """argv of one ``python -m repro`` command, traced if ``spans_out``."""
        if spans_out is None:
            return [self.python, "-m", "repro", *args]
        return [self.python, str(HERE / "traced.py"), str(spans_out), "--", *args]

    def run(self, args, spans_out: Optional[Path] = None) -> measure.Finished:
        """Run one ``python -m repro`` command to completion."""
        return measure.run_child(self.repro(args, spans_out), self.env(), ROOT, self.work)


# ----------------------------------------------------------------------
# figures-cold
# ----------------------------------------------------------------------
def _check_figures(ctx: Context, done: measure.Finished) -> bool:
    expected = ctx.reference["figures"]["stdout_sha256"]
    if done.returncode != 0:
        ctx.ops.fail("failed", f"figures exited {done.returncode}: {done.stderr[-300:]}")
        return False
    if oracle.digest(done.stdout) != expected:
        ctx.ops.fail("mismatched", "figures stdout differs from the interp reference")
        return False
    ctx.ops.ok()
    return True


def _until(deadline: float, last: float, done_count: int, minimum: int) -> bool:
    """Start another sample? Yes below ``minimum``, else if a sample as
    long as the last one would be half done by ``deadline``."""
    return done_count < minimum or time.perf_counter() + last / 2 <= deadline


def _cli_setup(ctx: Context, setup: List[float], samples: int) -> None:
    for _ in range(samples):
        setup.append(measure.cli_setup_seconds(ctx.python, ctx.env(), ROOT))


def figures_cold(ctx: Context, trace: bool) -> dict:
    ref = ctx.reference["figures"]
    setup: List[float] = []
    _cli_setup(ctx, setup, CLI_SETUP_FIRST)
    deadline = time.perf_counter() + ctx.seconds
    if trace:
        return _traced_cli(
            ctx, setup, deadline,
            units=iter(lambda: loads.FIGURES_ARGS, None),
            check=lambda done, _args: _check_figures(ctx, done),
            minimum=1,
        )
    walls: List[float] = []
    rss: List[float] = []
    last = 0.0
    while _until(deadline, last, len(walls), minimum=FIGURES_MIN_SAMPLES):
        done = ctx.run(loads.FIGURES_ARGS)
        last = done.wall_s
        if _check_figures(ctx, done):
            walls.append(done.wall_s)
            rss.append(done.peak_rss_mb)
        _cli_setup(ctx, setup, CLI_SETUP_PER_FIGURES)
    wall = statistics.median(walls)
    tail = measure.tail_percentile(walls, basis=FIGURES_MIN_SAMPLES)
    return {
        "samples": {"setup_s": len(setup), "figures": len(walls)},
        "walls": walls,
        "tail": tail,
        "metrics": {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "jobs_per_s": ref["cells"] / wall,
            "job_p50_ms": wall * 1000.0,
            "job_p99_ms": tail["value"] * 1000.0,
            "sim_mcycles_per_s": ref["total_cycles"] / wall / 1e6,
            "peak_rss_mb": statistics.median(rss),
        },
    }


# ----------------------------------------------------------------------
# run-steady
# ----------------------------------------------------------------------
def _run_args(pair: loads.Pair) -> Tuple[str, ...]:
    bench, scheme = pair
    return ("run", bench, "--scheme", scheme, "--scale", loads.RUN_SCALE)


def _check_run(ctx: Context, done: measure.Finished, pair: loads.Pair) -> Optional[int]:
    """Reference total cycles of ``pair`` if its output is right."""
    expected = ctx.reference["run"]["pairs"][loads.pair_key(pair)]
    if done.returncode != 0:
        ctx.ops.fail("failed", f"run {pair} exited {done.returncode}: {done.stderr[-300:]}")
        return None
    if oracle.digest(done.stdout) != expected["stdout_sha256"]:
        ctx.ops.fail("mismatched", f"run {pair} output differs from the interp reference")
        return None
    ctx.ops.ok()
    return expected["total_cycles"]


def run_steady(ctx: Context, trace: bool) -> dict:
    rounds = loads.run_rounds(ctx.seed)
    setup: List[float] = []
    _cli_setup(ctx, setup, CLI_SETUP_FIRST)
    deadline = time.perf_counter() + ctx.seconds
    if trace:
        return _traced_cli(
            ctx, setup, deadline,
            units=(_run_args(pair) for pairs in rounds for pair in pairs),
            check=lambda done, args: _check_run(ctx, done, (args[1], args[3])) is not None,
            minimum=len(loads.SCHEMES),
        )
    round_walls: List[float] = []
    walls: List[float] = []
    rss: List[float] = []
    pairs_run: List[str] = []
    cycles = 0
    last = 0.0
    while _until(deadline, last, len(round_walls), minimum=RUN_MIN_ROUNDS):
        started = time.perf_counter()
        elapsed = 0.0
        for index, pair in enumerate(next(rounds)):
            done = ctx.run(_run_args(pair))
            elapsed += done.wall_s
            pairs_run.append(loads.pair_key(pair))
            ref_cycles = _check_run(ctx, done, pair)
            if ref_cycles is not None:
                walls.append(done.wall_s)
                rss.append(done.peak_rss_mb)
                cycles += ref_cycles
            if index % CLI_SETUP_EVERY_RUNS == CLI_SETUP_EVERY_RUNS - 1:
                _cli_setup(ctx, setup, 1)
        round_walls.append(elapsed)
        last = time.perf_counter() - started
    tail = measure.tail_percentile(walls, basis=RUN_MIN_ROUNDS * len(loads.BENCHMARKS))
    return {
        "samples": {"setup_s": len(setup), "rounds": len(round_walls), "jobs": len(walls)},
        "pairs": pairs_run,
        "tail": tail,
        "metrics": {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(round_walls),
            "jobs_per_s": len(walls) / sum(round_walls),
            "job_p50_ms": statistics.median(walls) * 1000.0,
            "job_p99_ms": tail["value"] * 1000.0,
            "sim_mcycles_per_s": cycles / sum(walls) / 1e6,
            "peak_rss_mb": statistics.median(rss),
        },
    }


# ----------------------------------------------------------------------
# traced CLI runs: each unit runs untraced, then traced, interleaved
# ----------------------------------------------------------------------
def _traced_cli(ctx: Context, setup: List[float], deadline: float, units,
                check: Callable, minimum: int) -> dict:
    collected = spanlib.Spans()
    untraced = traced = unattributed = 0.0
    count = 0
    last = 0.0
    for args in units:
        if not _until(deadline, last, count, minimum):
            break
        started = time.perf_counter()
        plain = ctx.run(args)
        out = ctx.fresh_dir("spans") / "spans.bin"
        done = ctx.run(args, spans_out=out)
        last = time.perf_counter() - started
        if not (check(plain, args) & check(done, args)):
            continue
        one = spanlib.load(str(out))
        unattributed += spanlib.unattributed(one, (done.started, done.ended))
        collected.extend(one.names, one.start, one.end, one.parent, one.job, one.counts)
        untraced += plain.wall_s
        traced += done.wall_s
        count += 1
    if not count:
        raise RuntimeError("no traced unit completed correctly")
    metrics = spanlib.layer_metrics(collected, count)
    metrics["unattributed_s"] = unattributed / count
    metrics["trace.overhead_ratio"] = traced / untraced
    return {
        "samples": {"setup_s": len(setup), "traced_units": count},
        "walls": {"untraced_s": untraced, "traced_s": traced},
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class Daemon:
    """A ``repro serve --jobs 1`` process with its own empty cache."""

    def __init__(self, ctx: Context, spans_out: Optional[Path] = None) -> None:
        argv = ctx.repro(("serve", "--port", "0", "--jobs", "1"), spans_out)
        self.ready_s, self.proc, line = measure.time_to_line(
            argv, ctx.env(), ROOT, "listening on"
        )
        host, _, port = line.rsplit(" ", 1)[-1].strip().rpartition(":")
        self.address = (host or "127.0.0.1", int(port))
        self.peak_rss_mb = 0.0

    def stop(self) -> None:
        """Drain shutdown (a kill if that fails), then wait for the exit."""
        from repro.serve.client import ServeClient, ServeError

        if self.proc.returncode is not None:
            return
        try:
            with ServeClient(self.address, timeout=30) as client:
                client.shutdown(drain=True)
        except (OSError, ServeError):
            self.proc.kill()
        _rest, self.peak_rss_mb = measure.finish(self.proc, timeout=60)
        if self.proc.returncode != 0:
            raise RuntimeError(f"repro serve exited {self.proc.returncode}")


def _serve_setup(ctx: Context, setup: List[float]) -> None:
    """One set-up sample: a daemon spawned to its ready line, then drained."""
    daemon = Daemon(ctx)
    try:
        setup.append(daemon.ready_s)
    finally:
        daemon.stop()


class ServeLoad:
    """One closed-loop client sending the seeded batches to a daemon."""

    def __init__(self, ctx: Context, daemon: Daemon) -> None:
        from repro.serve.client import ServeClient

        self.ctx = ctx
        self.client = ServeClient(daemon.address, timeout=60, connect_retries=20)
        self.latencies_ms: List[float] = []
        #: one (batches, jobs answered, reference cycles, seconds) per
        #: :meth:`run` call
        self.segments: List[Tuple[int, int, int, float]] = []
        self.cycles = 0
        self.ok_jobs = 0
        self.jobs = 0
        self.loop_s = 0.0
        self.sent = 0

    def batch(self, specs: List[loads.Spec], timed: bool) -> None:
        from repro.engine.jobs import JobSpec
        from repro.serve.client import ServeError

        ref = self.ctx.reference["serve"]["specs"]
        ops = self.ctx.ops
        jobs = [JobSpec(benchmark=b, scheme_key=s, scale=x) for b, s, x in specs]
        arrived: List[float] = []
        start = time.perf_counter()
        try:
            for result in self.client.submit_iter(jobs):
                arrived.append((time.perf_counter() - start) * 1000.0)
                spec = specs[result.index]
                expected = ref[loads.spec_key(spec)]
                if not result.ok or result.report is None:
                    ops.fail("failed", f"{spec}: {result.error}")
                elif oracle.report_digest(result.report) != expected["report_sha256"]:
                    ops.fail("mismatched", f"{spec} report differs from the interp reference")
                else:
                    ops.ok()
                    if timed:
                        self.cycles += expected["total_cycles"]
                        self.ok_jobs += 1
        except ServeError as exc:
            for spec in specs[len(arrived):]:
                ops.fail("refused", f"{spec}: {exc}")
            return
        self.jobs += len(specs)
        if timed:
            self.latencies_ms.extend(arrived)

    def warm_up(self, batches) -> None:
        """The untimed warm-up batches (outputs still checked)."""
        for _ in range(loads.SERVE_WARMUP_BATCHES):
            self.batch(next(batches), timed=False)

    def run(self, batches, deadline: Optional[float] = None,
            count: Optional[int] = None) -> None:
        """Timed batches until ``deadline`` or until ``count`` in all;
        adds to :attr:`loop_s` and :attr:`sent` and records a segment."""
        start = time.perf_counter()
        sent, ok_jobs, cycles = self.sent, self.ok_jobs, self.cycles
        for specs in batches:
            self.batch(specs, timed=True)
            self.sent += 1
            if count is not None and self.sent >= count:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break
        elapsed = time.perf_counter() - start
        self.loop_s += elapsed
        if self.sent > sent:
            self.segments.append((self.sent - sent, self.ok_jobs - ok_jobs,
                                  self.cycles - cycles, elapsed))

    def close(self) -> None:
        self.client.close()


def _serve_layer(before: dict, after: dict, loop_s: float, jobs: int) -> Dict[str, float]:
    """Serve-layer metrics over a window, from two ``stats`` snapshots."""
    def delta(section, key):
        return after[section][key] - before[section][key]

    jobs = max(1, jobs)
    submitted = delta("jobs", "submitted")
    engine_s = delta("engine", "wall_seconds")
    return {
        "serve.memo_hit_ratio": delta("memo", "hits") / submitted if submitted else 0.0,
        "serve.dedup_hits": delta("jobs", "dedup_hits") / jobs,
        "serve.sim_s": engine_s / jobs,
        "serve.overhead_ms_per_job": (loop_s - engine_s) / jobs * 1000.0,
    }


def serve_mixed(ctx: Context, trace: bool) -> dict:
    setup: List[float] = []
    for _ in range(SERVE_SETUP_FIRST):
        _serve_setup(ctx, setup)
    daemon = Daemon(ctx)
    setup.append(daemon.ready_s)
    try:
        load = ServeLoad(ctx, daemon)
        batches = loads.serve_batches(ctx.seed)
        load.warm_up(batches)
        budget = ctx.seconds * (SERVE_TRACE_UNTRACED_SHARE if trace else 1.0)
        before = load.client.stats()
        # the timed loop in segments, a set-up sample between two
        for segment in range(SERVE_SEGMENTS):
            if segment:
                _serve_setup(ctx, setup)
            load.run(batches, deadline=time.perf_counter() + budget / SERVE_SEGMENTS)
        after = load.client.stats()
        load.close()
    finally:
        daemon.stop()
    if not load.latencies_ms:
        raise RuntimeError("no serve batch completed")
    timed_jobs = load.jobs - loads.SERVE_WARMUP_SPECS
    serve_layer = _serve_layer(before, after, load.loop_s, timed_jobs)
    if trace:
        return _traced_serve(ctx, setup, load, serve_layer)
    tail = measure.tail_percentile(load.latencies_ms)
    segments = load.segments
    return {
        "samples": {"setup_s": len(setup), "batches": load.sent,
                    "jobs": load.ok_jobs, "segments": len(segments)},
        "tail": tail,
        "segments": [dict(zip(("batches", "jobs", "cycles", "seconds"), seg))
                     for seg in segments],
        "serve_layer": serve_layer,
        "metrics": {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(s / n for n, _j, _c, s in segments),
            "jobs_per_s": statistics.median(j / s for _n, j, _c, s in segments),
            "job_p50_ms": statistics.median(load.latencies_ms),
            "job_p99_ms": tail["value"],
            "sim_mcycles_per_s": statistics.median(c / s / 1e6 for _n, _j, c, s in segments),
            "peak_rss_mb": daemon.peak_rss_mb,
        },
    }


def _traced_serve(ctx: Context, setup: List[float], untraced: ServeLoad,
                  serve_layer: Dict[str, float]) -> dict:
    """The traced leg: the same batches, to a daemon with spans on."""
    out = ctx.fresh_dir("spans") / "spans.bin"
    daemon = Daemon(ctx, spans_out=out)
    try:
        load = ServeLoad(ctx, daemon)
        batches = loads.serve_batches(ctx.seed)
        window_start = time.perf_counter()
        load.warm_up(batches)
        load.run(batches, count=untraced.sent)
        window = (window_start, time.perf_counter())
        load.close()
    finally:
        daemon.stop()
    collected = spanlib.load(str(out))
    metrics = spanlib.layer_metrics(collected, load.jobs)
    metrics["unattributed_s"] = spanlib.unattributed(collected, window) / load.jobs
    metrics["trace.overhead_ratio"] = load.loop_s / untraced.loop_s
    return {
        "samples": {"setup_s": len(setup), "batches": load.sent, "traced_jobs": load.jobs},
        "walls": {"untraced_s": untraced.loop_s, "traced_s": load.loop_s},
        "serve_layer": serve_layer,
        "metrics": metrics,
    }


WORKLOADS: Dict[str, Callable[[Context, bool], dict]] = {
    "figures-cold": figures_cold,
    "run-steady": run_steady,
    "serve-mixed": serve_mixed,
}

#: per-layer metrics printed in the JSON line of a traced run
PER_LAYER = (
    "cli.import_s", "workloads.build_s",
    "frontend.interpret_s", "frontend.steps", "frontend.form_s", "frontend.regions_formed",
    "opt.optimize_s", "opt.optimize_calls", "opt.reopt_calls", "opt.tc_hit_ratio",
    "opt.tc_store_s", "opt.stage_hit_ratio",
    "analysis.deps_s", "analysis.certify_s",
    "sched.prepare_s", "sched.schedule_s", "smarq.alloc_s",
    "sim.lower_s", "sim.codegen_s", "sim.codegen_calls", "sim.compiles_per_trace",
    "sim.execute_s", "sim.region_execs", "sim.execute_us_per_commit",
    "sim.batched_commit_ratio", "sim.abort_interp_s",
    "unattributed_s", "trace.overhead_ratio",
)


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms_per_job"):
        return "ms"
    if name.endswith("_us_per_commit"):
        return "us"
    if name.endswith(("_ratio", "per_trace")):
        return "ratio"
    return "count"


def settings(ctx: Context, trace: bool) -> dict:
    """Everything that must match for two records to be comparable."""
    flavor = measure.run_child(
        [ctx.python, "-c",
         "from repro.sim.replay_backends import batch_flavor; print(batch_flavor())"],
        ctx.env(), ROOT, ctx.work,
    ).stdout.strip()
    config = {
        "figures-cold": {"args": list(loads.FIGURES_ARGS)},
        "run-steady": {"scale": loads.RUN_SCALE, "pairs_per_round": len(loads.BENCHMARKS),
                       "min_rounds": RUN_MIN_ROUNDS},
        "serve-mixed": {
            "batch": loads.SERVE_BATCH, "fresh_per_batch": loads.SERVE_FRESH_PER_BATCH,
            "warmup_batches": loads.SERVE_WARMUP_BATCHES,
            "warmup_scale": loads.SERVE_WARMUP_SCALE,
            "repeat_window": loads.SERVE_REPEAT_WINDOW,
            "schemes": list(loads.SERVE_SCHEMES), "scales": list(loads.SERVE_SCALES),
            "clients": 1, "jobs": 1, "segments": SERVE_SEGMENTS,
        },
    }[ctx.workload]
    return {
        "schema": RECORD_SCHEMA,
        "workload": ctx.workload,
        "config": config,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "batch_flavor": flavor,
        "nproc": os.cpu_count(),
    }


def render(record: dict) -> str:
    lines = [f"perfbench {record['settings']['workload']} "
             f"(seed {record['settings']['seed']}, trace {record['settings']['trace']})"]
    for name, value in record["metrics"].items():
        lines.append(f"  {name:28s} {value:14.6f} {_unit(name)}")
    for name, value in record["result"].get("serve_layer", {}).items():
        lines.append(f"  {name:28s} {value:14.6f} {_unit(name)}")
    tail = record["result"].get("tail")
    if tail:
        lines.append(
            f"  job_p99_ms is the nearest-rank p{tail['percentile']:g} of "
            f"{tail['samples']} samples, {tail['beyond']} beyond it"
            + ("" if tail["qualified"] else " (too few samples for a tail: the median)")
        )
    lines.append(f"  samples: {record['result']['samples']}")
    for note in record["ops"]["notes"]:
        lines.append(f"  {note}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a termination request unwinds like an error, so that every
    # program process this run started is stopped and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        reference = oracle.load_reference()
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read the reference outputs: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    ctx = Context(args.workload, args.seed, args.seconds, work, reference)
    try:
        result = WORKLOADS[args.workload](ctx, bool(args.trace))
        record = {"settings": settings(ctx, bool(args.trace))}
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = ctx.ops
    metrics = dict(result["metrics"])
    record.update(
        result=result,
        metrics=dict(metrics, failed_ratio=ops.failed_ratio) if not args.trace else metrics,
        ops={"attempted": ops.attempted, "failed": ops.failed, "refused": ops.refused,
             "mismatched": ops.mismatched, "notes": ops.notes},
    )
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(render(record))
    print(f"  record: {path.relative_to(ROOT)}")

    names = PER_LAYER if args.trace else tuple(n for n in UNITS if n != "failed_ratio")
    print(json.dumps({
        "correct": ops.bad == 0,
        "attempted": ops.attempted,
        "failed": ops.bad,
        "metrics": {n: {"value": metrics[n], "unit": _unit(n)} for n in names},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
