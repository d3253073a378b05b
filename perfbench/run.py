#!/usr/bin/env python3
"""Benchmark of the tritree command line, one workload per run.

    python3 perfbench/run.py --workload accept --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Jobs go through `tritree.cli.main(argv)` in
this process as a closed loop: one client, jobs back to back, no threads.
Inputs are generated from the seed into perfbench/.work and removed at the
end.  A run times whole blocks of inputs (see workloads.py) back to back for
about --seconds.  Every output is checked against ground truth after timing.

--trace 0 times each job untraced and prints the end-to-end metrics.  Times
are calibrated against a small stdlib kernel sampled between and inside jobs,
so that drift in host speed moves them less; raw figures are printed beside
them.  --trace 1 runs a fixed few blocks and a small probe untraced and
traced, unit by unit, with spans around tritree's public functions, and
prints the per-layer metrics and the tracing overhead; spans go to
perfbench/out/.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import traceback
from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import chain, combinations, islice
from math import comb
from pathlib import Path
from time import perf_counter
from typing import Iterator

import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
HASH_SEED = "0"
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag
SETUP_REPEATS = 7

# The calibration kernel: build and scan a dict keyed by 3-subsets, the
# program's own kind of work.  Its working set (about 10 000 entries) is large
# enough that it slows down with the host the way the big maps do; a kernel
# that fits in cache overstated the slowdown of n=48 jobs by about 10%.
_KERNEL_NAMES = tuple(f"k{i:02d}" for i in range(40))
# A nominal kernel time, about that of the reference host (2-core x86_64 VM,
# CPython 3.11.7) in its slower phase.  A calibrated time is the raw time
# scaled by KERNEL_REF_S over the kernel times sampled around it.
KERNEL_REF_S = 0.0050
KERNEL_GAP_S = 0.05
KERNEL_WINDOW_S = 0.25
# In the untraced run a timer also samples the kernel inside jobs: the speed
# swings within a job of a second or more, and samples taken only between
# jobs calibrated such jobs worse than no calibration at all.
KERNEL_TICK_S = 0.1


def _kernel() -> None:
    table = {tri: tri[0] for tri in combinations(_KERNEL_NAMES, 3)}
    tally: dict[str, int] = {}
    for tri in combinations(_KERNEL_NAMES, 3):
        value = table[tri]
        tally[value] = tally.get(value, 0) + 1


class Clock:
    """Kernel samples over time, for scaling raw intervals to the reference host.

    The host's speed drifts by up to 2x within seconds, so each interval is
    scaled by the samples taken in and around it, not by one per-run figure.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernel: list[float] = []
        self._ticking = False
        self._timing = False

    def _time_kernel(self) -> None:
        """The cyclic collector is off meanwhile: the kernel's objects are
        freed by reference counting, and a collection would time the heap.
        A timer signal that arrives during a sample is dropped."""
        if self._timing:
            return
        self._timing = True
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        _kernel()
        end = perf_counter()
        if enabled:
            gc.enable()
        self.times.append(end)
        self.kernel.append(end - start)
        self._timing = False

    def sample(self, force: bool = False) -> None:
        """Time the kernel, unless the timer does or one ran within the last KERNEL_GAP_S."""
        if force or not (self._ticking or self.times and perf_counter() - self.times[-1] < KERNEL_GAP_S):
            self._time_kernel()

    @contextmanager
    def ticking(self) -> Iterator[None]:
        """Time the kernel every KERNEL_TICK_S from a timer signal, inside jobs too.

        Time the signal takes inside a job is taken out again by `busy`.
        """
        previous = signal.signal(signal.SIGALRM, lambda *_: self._time_kernel())
        signal.setitimer(signal.ITIMER_REAL, KERNEL_TICK_S, KERNEL_TICK_S)
        self._ticking = True
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._ticking = False

    def busy(self, start: float, end: float) -> float:
        """The interval's length less the kernel samples taken inside it."""
        return end - start - sum(self.kernel[bisect_left(self.times, start) : bisect_right(self.times, end)])

    def factor(self, start: float, end: float) -> float:
        lo = bisect_left(self.times, start - KERNEL_WINDOW_S)
        hi = bisect_right(self.times, end + KERNEL_WINDOW_S)
        # Always include the nearest sample on each side of the interval.
        lo = min(lo, max(bisect_left(self.times, start) - 1, 0))
        hi = max(hi, min(bisect_right(self.times, end) + 1, len(self.times)))
        return KERNEL_REF_S / statistics.median(self.kernel[lo:hi])


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Result:
    unit: int
    command: str
    n: int
    start: float
    end: float
    code: object
    out_digest: str
    err_digest: str
    err: str
    error: str | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _run_job(cli, units, index: int, command: str) -> Result:
    unit = units[index]
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(unit.argv(command))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code, error = None, traceback.format_exc()
        end = perf_counter()
    text = err.getvalue()
    return Result(index, command, unit.n, start, end, code, _digest(out.getvalue()), _digest(text), text[:4096], error)


def _run_units(cli, units, clock: Clock, indices: range, rec=None):
    """Run every job of the given units in order, sampling the kernel between jobs."""
    results: list[Result] = []
    for index in indices:
        unit = units[index]
        for command in unit.commands:
            clock.sample()
            if rec is not None:
                rec.job, rec.n = rec.job + 1, unit.n
            results.append(_run_job(cli, units, index, command))
    clock.sample(force=True)
    return results


def _failures(units, results: list[Result]) -> list[str]:
    cache: dict[int, dict] = {}
    failed = []
    for r in results:
        if r.unit not in cache:
            cache[r.unit] = workloads.expected(units[r.unit])
        code, out, err = cache[r.unit][r.command]
        if err is workloads.ERROR_LINE:
            err_ok = r.err.startswith("error: ") and r.err.count("\n") == 1 and r.err.endswith("\n")
        else:
            err_ok = r.err_digest == _digest(err)
        if r.error is None and r.code == code and r.out_digest == _digest(out) and err_ok:
            continue
        why = r.error or f"exit {r.code} (want {code}), stderr {r.err[:200]!r}"
        failed.append(f"{r.command} {units[r.unit].argv(r.command)[1]}: {why}")
    return failed


def _declared(kind: str) -> list[dict]:
    """The metrics BENCHMARK.json lists under `kind`; the result line carries exactly these."""
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())[kind]


def _setup(args, work: Path):
    """Import tritree afresh and make the blocks of inputs the reference host
    runs in --seconds; time both.  Later blocks, if any, are made on demand.

    Files are written later, outside the clock: on the reference host the time
    to create a few thousand small files swung twentyfold from one minute to
    the next, which would drown the set-up work of the program.
    """
    start = perf_counter()
    for name in [m for m in sys.modules if m == "tritree" or m.startswith("tritree.")]:
        del sys.modules[name]
    cli = importlib.import_module("tritree.cli")
    stream = workloads.blocks(args.workload, args.seed, work)
    ahead = list(islice(stream, workloads.block_count(args.workload, args.seconds, bool(args.trace))))
    return start, perf_counter(), cli, chain(ahead, stream)


def _take(units: list, block: workloads.Block) -> None:
    """Write a block's files and append its units."""
    more, files = block
    for path, text in files.items():
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)
    units.extend(more)


def _timed_blocks(cli, stream, clock: Clock, seconds: float):
    """Run whole blocks until the time spent running them is nearest to `seconds`.

    Yields each block's units and results, and the time measured so far.
    Writing a block's files, making later blocks and whatever the caller does
    with a block happen between blocks and are not counted.  The first block
    always runs.
    """
    measured = 0.0
    for done, block in enumerate(stream, 1):
        units: list = []
        _take(units, block)
        begin = perf_counter()
        with clock.ticking():
            results = _run_units(cli, units, clock, range(len(units)))
        measured += perf_counter() - begin
        for path in block[1]:
            Path(path).unlink()
        yield units, results, measured
        # Stop if one more block of average length would overshoot by more
        # than stopping now falls short.
        if measured + measured / done / 2 >= seconds:
            return


def _end_to_end(args, work: Path):
    clock = Clock()
    setups = []
    for _ in range(SETUP_REPEATS):
        clock.sample(force=True)
        with clock.ticking():
            start, end, cli, stream = _setup(args, work)
        clock.sample(force=True)
        seconds = clock.busy(start, end)
        setups.append((seconds * clock.factor(start, end), seconds))
    # The harness's own objects stay out of the collections the jobs trigger,
    # as they would in a process of the program's own.
    gc.collect()
    gc.freeze()

    # Each block is checked, and reduced to these figures, before the next
    # runs, so that the harness's memory does not grow with the jobs run.
    cal, raw = array("d"), array("d")
    rates: list[tuple[float, float]] = []
    per_command: dict[str, list[float]] = {}
    failed: list[str] = []
    blocks = 0
    for units, results, measured in _timed_blocks(cli, stream, clock, args.seconds):
        failed += _failures(units, results)
        block_raw = [clock.busy(r.start, r.end) for r in results]
        block_cal = [t * clock.factor(r.start, r.end) for r, t in zip(results, block_raw)]
        triples = sum(comb(r.n, 3) for r in results)
        rates.append((triples / sum(block_cal), triples / sum(block_raw)))
        for r, c, t in zip(results, block_cal, block_raw):
            sums = per_command.setdefault(r.command, [0, 0.0, 0.0])
            sums[0] += comb(r.n, 3)
            sums[1] += c
            sums[2] += t
        cal.extend(block_cal)
        raw.extend(block_raw)
        blocks += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    jobs = len(cal)
    # The highest percentile with ten jobs beyond it; none with fewer than 11 jobs.
    tail_at = jobs - 11

    rows = [("setup_s", "s", *(statistics.median(times) for times in zip(*setups)))]
    # The median over blocks, so that a block caught in a slow phase of the
    # host that the kernel samples between jobs miss moves it little.
    rows.append(("triples_per_s", "triples/s", *(statistics.median(rate) for rate in zip(*rates))))
    for command, (triples, cal_s, raw_s) in per_command.items():
        rows.append((f"{command.replace('-', '_')}_triples_per_s", "triples/s", triples / cal_s, triples / raw_s))
    rows.append(("job_p50_s", "s", statistics.median(cal), statistics.median(raw)))
    if tail_at >= 0:
        rows.append(("job_tail_s", "s", sorted(cal)[tail_at], sorted(raw)[tail_at]))
    rows.append(("peak_rss_mb", "MB", rss_mb, rss_mb))
    rows.append(("failed_ratio", "ratio", len(failed) / jobs, len(failed) / jobs))

    kernel_ms = statistics.median(clock.kernel) * 1e3
    print(f"workload {args.workload} seed {args.seed}: {jobs} jobs in {blocks} blocks over {measured:.2f} s, "
          f"{sum(raw):.2f} s of it in jobs; kernel median {kernel_ms:.3f} ms "
          f"(range {min(clock.kernel) * 1e3:.3f}-{max(clock.kernel) * 1e3:.3f}) over {len(clock.kernel)} samples")
    for name, unit, value, raw_value in rows:
        note = ""
        if name == "job_tail_s":
            note = f"  p{100 * (tail_at + 1) / jobs:.1f}, 10 of {jobs} jobs beyond"
        if name == "setup_s":
            note = f"  median of {SETUP_REPEATS}"
        print(f"  {name:28s} {value:14.6g} {unit:9s} raw {raw_value:.6g}{note}")
    if tail_at < 0:
        print(f"  job_tail_s: none, only {jobs} jobs")
    wanted = {spec["name"] for spec in _declared("end_to_end")}
    metrics = {name: {"value": value, "unit": unit} for name, unit, value, _ in rows if name in wanted}
    return jobs, failed, metrics


def _traced(args, work: Path):
    _, _, cli, stream = _setup(args, work)
    units: list = []
    for block in islice(stream, workloads.block_count(args.workload, args.seconds, True)):
        _take(units, block)
    _take(units, workloads.probe(work))
    clock = Clock()
    rec = spans.Recorder()
    gc.collect()
    gc.freeze()
    plain: list[Result] = []
    timed: list[Result] = []
    # Each unit runs once to warm up (a second run of the same input is
    # faster), then untraced and traced back to back in alternating order,
    # and the overhead is taken on calibrated times, so that neither warm-up
    # nor drift in host speed ends up in it.
    for i in range(len(units)):
        _run_units(cli, units, clock, range(i, i + 1))
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            uninstall = spans.install(rec) if with_spans else None
            results = _run_units(cli, units, clock, range(i, i + 1), rec if with_spans else None)
            (timed if with_spans else plain).extend(results)
            if uninstall:
                uninstall()
    plain_s, timed_s = (sum(r.seconds * clock.factor(r.start, r.end) for r in rs) for rs in (plain, timed))
    failed = _failures(units, plain + timed)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{args.workload}-seed{args.seed}.jsonl"
    rec.write(path)
    print(f"workload {args.workload} seed {args.seed}: {len(timed)} jobs traced, spans in {path}")
    print(f"  {'stage':34s} {'parent':34s} {'calls':>8s} {'self_s':>10s}")
    for (stage, parent), (calls, seconds) in spans.stage_table(rec).items():
        print(f"  {stage:34s} {parent:34s} {calls:8d} {seconds:10.4f}")
    layers = spans.layer_metrics(rec)
    layers["trace.overhead_s"] = timed_s - plain_s
    print(f"  calibrated totals: untraced {plain_s:.4f} s, traced {timed_s:.4f} s")
    metrics = {}
    for spec in _declared("per_layer"):
        value = layers[spec["name"]]
        print(f"  {spec['name']:34s} {value:14.6g} {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return len(plain) + len(timed), failed, metrics


def _fix_addresses() -> None:
    """Turn off address-space randomisation for this process and what it execs.

    With it on, the same seed's triples_per_s spread twice as wide from one
    process to the next on the reference host (IQR/median 0.078 against 0.040
    over nine runs each).  Where the call is refused the run goes on as is.
    """
    try:
        personality = ctypes.CDLL(None, use_errno=True).personality
    except (OSError, AttributeError):
        return
    current = personality(0xFFFFFFFF)
    if current != -1:
        personality(current | ADDR_NO_RANDOMIZE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # A fresh interpreter with fixed string hashing, so that set order and
        # peak memory belong to this workload alone.
        _fix_addresses()
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)

    if not (SRC / "tritree" / "cli.py").is_file():
        print(f"error: no tritree sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = _traced if args.trace else _end_to_end
        attempted, failed, metrics = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in failed[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
