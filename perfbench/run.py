#!/usr/bin/env python3
"""Benchmark for permseq.

Run from the root of a checkout:

    python3 perfbench/run.py --workload golden-tables --seed 1 --seconds 20 --trace 0

It imports the package from ``src/`` of that checkout, builds the
workload's inputs from the seed, measures set-up time in fresh
interpreters, then repeats the workload's pass (a closed loop, one pass at
a time) for ``--seconds`` and checks every pass against the references.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates plain and traced passes and reports the per-layer metrics.
The last line of standard output is one JSON object; the run record and,
for a traced run, the spans are written under ``perfbench/work/``.
"""

from __future__ import annotations

import argparse
import gzip
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
SETUP_MIN_SAMPLES = 7
# On a shared virtual machine, speed drifts by up to a half over minutes as
# other tenants load the host. Each pass is therefore also expressed at a fixed
# reference speed: its time times CALIBRATION_REF_S over the mean time of
# the calibration job run just before and just after it (a set-up sample:
# over the job just before it). CALIBRATION_REF_S is about what the job
# takes on an idle 2-core Xeon virtual machine.
CALIBRATION_ROUNDS = 8
CALIBRATION_REF_S = 0.06
MIN_PASSES = 3

sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

END_TO_END = {"wall_ref_s": "s", "cpu_ref_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# per-layer metrics and their units, in BENCHMARK.json order
_COUNTS = (
    "enumeration.count_table.calls", "enumeration.nodes",
    "enumeration.iter_avoiders.calls", "enumeration.iter_avoiders.yielded",
    "enumeration.generate_avoiders.calls", "enumeration.pool.jobs",
    "almost_decomp.compat_search.calls", "almost_decomp.f_map.calls",
    "almost_decomp.f_domain.calls", "perms.contains.calls", "perms.avoids.calls",
    "perms.standardize.calls", "partitions.partitions_of.yielded",
    "partitions.lambda_map.calls", "series.mul.calls", "injections.inject.calls",
    "cli.cache.hits", "cli.cache.misses", "trace.spans",
)
# metric name -> span name whose busy time it reports
_TIMES = {
    "enumeration.count_table.s": "enumeration.count_table",
    "enumeration.iter_avoiders.s": "enumeration.iter_avoiders",
    "enumeration.generate_avoiders.s": "enumeration.generate_avoiders",
    "almost_decomp.compat_search.s": "almost_decomp.compat_search",
    "almost_decomp.compat_table_row.s": "almost_decomp.compat_table_row",
    "almost_decomp.f_map.s": "almost_decomp.f_map",
    "perms.contains.s": "perms.contains",
    "partitions.indecomposable_avoiders.s": "partitions.indecomposable_avoiders",
    "partitions.family_counts.s": "partitions.family_counts",
    "series.named_gf.s": "series.named_gf",
    "injections.verify_injection.s": "injections.verify_injection",
    "golden.load_golden.s": "golden.load_golden",
}
_RATIOS = ("enumeration.pool.speedup", "almost_decomp.domain_frac",
           "partitions.indecomposable_yield", "cli.cache.hit_frac", "check_fail_frac")
PER_LAYER = {
    **{name: "count" for name in _COUNTS},
    **{name: "s" for name in _TIMES},
    "enumeration.limit.s": "s",
    "cli.cache.s": "s",
    **{f"layer.{layer}.self_s": "s" for layer in tracing.LAYERS},
    "trace.overhead_s": "s",
    "enumeration.nodes_per_s": "1/s",
    **{name: "ratio" for name in _RATIOS},
}


class ProgramMissing(Exception):
    pass


def import_program():
    """Import permseq from this checkout's src/, never from anywhere else."""
    if not (SRC / "permseq" / "__init__.py").is_file():
        raise ProgramMissing(f"no permseq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import permseq
    from permseq import (almost_decomp, cli, enumeration, golden, injections,  # noqa: F401
                         partitions, perms, series, tableio)

    if Path(permseq.__file__).resolve().parent != (SRC / "permseq").resolve():
        raise ProgramMissing(f"permseq was imported from {permseq.__file__}, not {SRC}")
    return enumeration


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="toy sizes, for the benchmark's tests")
    p.add_argument("--setup-only", action="store_true",
                   help="import, load references, build the inputs and exit")
    return p.parse_args(argv)


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _read_first(path: str, prefix: str = "") -> str:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip() if prefix else line.split()[0]
    except OSError:
        pass
    return "unknown"


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref_path = ROOT / ".git" / text[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            packed = (ROOT / ".git" / "packed-refs").read_text().splitlines()
            return next(ln.split()[0] for ln in packed if ln.endswith(" " + text[5:]))
        return text
    except (OSError, StopIteration):
        return "unknown (not a git checkout)"


def calibrate() -> float:
    """Seconds for a fixed pure-Python job that does not use permseq: the
    inversions of every permutation of 7, eight times over."""
    t0 = time.perf_counter()
    total = 0
    for _ in range(CALIBRATION_ROUNDS):
        for p in itertools.permutations(range(7)):
            for i in range(6):
                a = p[i]
                for b in p[i + 1:]:
                    if a > b:
                        total += 1
    elapsed = time.perf_counter() - t0
    if total != CALIBRATION_ROUNDS * 52920:
        raise AssertionError("calibration job miscounted")
    return elapsed


def setup_probe(args):
    """A function that times one fresh interpreter to first job ready."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    if args.smoke:
        argv.append("--smoke")

    def probe() -> float:
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        return time.perf_counter() - t0
    return probe


class Runner:
    """Runs and checks passes, keeping what each one measured."""

    def __init__(self, workload, tracer: tracing.Tracer | None, probe=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.probe = probe
        self.setup_s: list[float] = []  # raw set-up samples
        self.setup_ref_s: list[float] = []  # the same at the reference speed
        self.passes: list[dict] = []
        self.checks_attempted = 0
        self.checks_failed = 0
        self.failures: list[str] = []
        self._calibration: float | None = None
        self.summaries: dict[int, dict] = {}  # per traced pass
        self.kept_spans: list[tuple] = []  # the first traced pass, written out at the end

    def run(self, traced: bool = False, warmup: bool = False) -> dict:
        index = len(self.passes)
        outputs = None
        error = None
        # the job after one pass is the job before the next
        cal_before = self._calibration or calibrate()
        if self.probe is not None:
            self.sample_setup(cal_before)
        if traced:
            self.tracer.install()
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            if traced:
                with self.tracer.root(index):
                    outputs = self.workload.run_pass()
            else:
                outputs = self.workload.run_pass()
        except Exception:  # a crash in the program fails the pass, not the run
            error = traceback.format_exc()
        finally:
            wall = time.perf_counter() - t0
            cpu = _cpu_seconds() - cpu0
            if traced:
                self.tracer.uninstall()
        cal_after = self._calibration = calibrate()
        if traced:
            self._summarise(index)
        checks = Checks()
        if error is None:
            try:
                self.workload.check(outputs, checks)
            except Exception:
                error = traceback.format_exc()
            finally:
                cleanup = getattr(self.workload, "cleanup", None)
                if cleanup is not None:
                    cleanup(outputs)
        if error is not None:
            print(error, file=sys.stderr)
            checks.expect(False, error.strip().splitlines()[-1])
        self.add_checks(checks)
        record = {"index": index, "traced": traced, "warmup": warmup, "wall_s": wall,
                  "cpu_s": cpu, "speed": CALIBRATION_REF_S * 2 / (cal_before + cal_after),
                  "calibration_s": [cal_before, cal_after], "checks": checks.attempted,
                  "failed_checks": checks.failed}
        self.passes.append(record)
        return record

    def sample_setup(self, calibration: float) -> None:
        """One set-up sample, scaled by the calibration job just before it."""
        seconds = self.probe()
        self.setup_s.append(seconds)
        self.setup_ref_s.append(seconds * CALIBRATION_REF_S / calibration)

    def add_checks(self, checks: Checks) -> None:
        self.checks_attempted += checks.attempted
        self.checks_failed += checks.failed
        self.failures.extend(checks.messages[: max(0, 10 - len(self.failures))])

    def _summarise(self, index: int) -> None:
        """Reduce the pass's spans to its summary; keep only the first
        traced pass's spans, which bounds the memory a traced run holds."""
        spans, self.tracer.spans = self.tracer.spans, []
        summary = tracing.pass_summary(spans)
        summary["pool_jobs"] = self.tracer.counters.get((index, "pool_jobs"), 0)
        summary["spans"] = len(spans)
        self.summaries[index] = summary
        if not self.kept_spans:
            self.kept_spans = spans

    def measured(self, traced: bool) -> list[dict]:
        """Passes that count toward the metrics: not the warm-up, and never a
        failed pass unless every pass failed."""
        runs = [p for p in self.passes if not p["warmup"] and p["traced"] == traced]
        good = [p for p in runs if p["failed_checks"] == 0]
        return good or runs


def tail(values: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it; the
    maximum when there are fewer than twenty samples."""
    n = len(values)
    if n < 20:
        return {"percentile": 100, "value": max(values)}
    pct = math.floor(100 * (1 - 10 / n))
    return {"percentile": pct,
            "value": statistics.quantiles(values, n=100, method="inclusive")[pct - 1]}


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    passes = runner.measured(traced=False)
    walls = [p["wall_s"] for p in passes]
    cpus = [p["cpu_s"] for p in passes]
    ref_walls = [p["wall_s"] * p["speed"] for p in passes]
    metrics = {
        "wall_ref_s": statistics.median(ref_walls),
        "cpu_ref_s": statistics.median(p["cpu_s"] * p["speed"] for p in passes),
        "peak_rss_mb": _peak_rss_mb(),
        "setup_s": statistics.median(runner.setup_ref_s),
    }
    raw = {"count": len(walls),
           "wall_s": {"median": statistics.median(walls), "tail": tail(walls)},
           "cpu_s": {"median": statistics.median(cpus), "tail": tail(cpus)},
           "wall_ref_s": {"median": metrics["wall_ref_s"], "tail": tail(ref_walls)},
           "setup_s": {"median": statistics.median(runner.setup_s), "count": len(runner.setup_s)}}
    return metrics, {"passes_measured": raw}


def per_layer(runner: Runner, speedups: list[float], workload) -> dict:
    traced = runner.measured(traced=True)
    summaries = [runner.summaries[p["index"]] for p in traced]

    def counts(s) -> dict:
        calls, size = s["calls"], s["size"]
        return {
            "enumeration.count_table.calls": calls.get("enumeration.count_table", 0),
            "enumeration.nodes": size.get("enumeration.count_table", 0),
            "enumeration.iter_avoiders.calls": calls.get("enumeration.iter_avoiders", 0),
            "enumeration.iter_avoiders.yielded": size.get("enumeration.iter_avoiders", 0),
            "enumeration.generate_avoiders.calls": calls.get("enumeration.generate_avoiders", 0),
            "enumeration.pool.jobs": s["pool_jobs"],
            "almost_decomp.compat_search.calls": calls.get("almost_decomp.compat_search", 0),
            "almost_decomp.f_map.calls": calls.get("almost_decomp.f_map", 0),
            "almost_decomp.f_domain.calls": calls.get("almost_decomp.f_domain", 0),
            "perms.contains.calls": calls.get("perms.contains", 0),
            "perms.avoids.calls": calls.get("perms.avoids", 0),
            "perms.standardize.calls": calls.get("perms.standardize", 0),
            "partitions.partitions_of.yielded": size.get("partitions.partitions_of", 0),
            "partitions.lambda_map.calls": calls.get("partitions.lambda_map", 0),
            "series.mul.calls": calls.get("series.mul", 0),
            "injections.inject.calls": calls.get("injections.inject", 0),
            "cli.cache.hits": s["cache_hits"],
            "cli.cache.misses": s["cache_misses"],
            "trace.spans": s["spans"],
        }

    exact = [counts(s) for s in summaries]
    checks = Checks()
    # the counts are exact: every traced pass must repeat them
    checks.expect(all(c == exact[0] for c in exact), "traced passes disagree on exact counts")
    expected = getattr(workload, "expected_nodes", None)
    if expected is not None:
        checks.expect(exact[0]["enumeration.nodes"] == expected,
                      f"enumeration.nodes {exact[0]['enumeration.nodes']} != {expected}")
    runner.add_checks(checks)

    def med(fn) -> float:
        return statistics.median(fn(s) for s in summaries)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    first = summaries[0]
    metrics = dict(exact[0])
    for name, span in _TIMES.items():
        metrics[name] = med(lambda s: s["busy"].get(span, 0.0))
    metrics["enumeration.limit.s"] = med(lambda s: s["limit_s"])
    metrics["cli.cache.s"] = med(lambda s: s["cache_s"])
    for layer in tracing.LAYERS:
        metrics[f"layer.{layer}.self_s"] = med(lambda s: s["self_s"][layer])
    plain = [p["wall_s"] * p["speed"] for p in runner.measured(traced=False)]
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] * p["speed"] for p in traced)
                                   - statistics.median(plain))
    metrics["enumeration.nodes_per_s"] = ratio(metrics["enumeration.nodes"],
                                               metrics["enumeration.count_table.s"])
    metrics["enumeration.pool.speedup"] = statistics.median(speedups) if speedups else 0.0
    metrics["almost_decomp.domain_frac"] = ratio(first["size"].get("almost_decomp.f_domain", 0),
                                                 metrics["almost_decomp.f_domain.calls"])
    metrics["partitions.indecomposable_yield"] = ratio(
        first["size"].get("partitions.indecomposable_avoiders", 0),
        first["indecomposable_generated"])
    metrics["cli.cache.hit_frac"] = ratio(metrics["cli.cache.hits"],
                                          metrics["cli.cache.hits"] + metrics["cli.cache.misses"])
    metrics["check_fail_frac"] = ratio(runner.checks_failed, runner.checks_attempted)
    return metrics


def pool_speedup(runner: Runner, enumeration) -> float:
    """The workload's pooled table at threads=1 over the same table on its
    worker processes, untraced; the two tables must be equal."""
    w = runner.workload
    basis = w.basis.split(",")
    t0 = time.perf_counter()
    one = enumeration.count_table(basis, w.n, w.k, threads=1)
    t1 = time.perf_counter()
    two = enumeration.count_table(basis, w.n, w.k, threads=w.threads)
    t2 = time.perf_counter()
    checks = Checks()
    checks.expect(one == two, "pooled and sequential tables differ")
    runner.add_checks(checks)
    return (t1 - t0) / (t2 - t1)


def write_spans(path: Path, spans: list[tuple]) -> None:
    with gzip.open(path, "wt") as fh:
        fh.write("id,parent,name,start,end,busy,size,run\n")
        for s in spans:
            fh.write(f"{s[0]},{s[1]},{s[2]},{s[3]:.9f},{s[4]:.9f},{s[5]:.9f},{s[6]},{s[7]}\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        enumeration = import_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    tmp = WORK / "tmp"
    tmp.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    refs = reference.References()
    workload = WORKLOADS[args.workload](args.seed, args.smoke, refs, WORK)
    if args.setup_only:
        return 0

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "commit": _commit(),
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "loadavg_1m_start": _read_first("/proc/loadavg"),
    }
    tracer = tracing.Tracer() if args.trace else None
    # set-up is sampled before every pass of a plain run, so that its median
    # spans the same minutes as the passes
    runner = Runner(workload, tracer, None if args.trace else setup_probe(args))
    runner.run(warmup=True)
    speedups: list[float] = []
    start = time.perf_counter()
    while True:
        done = time.perf_counter() - start >= args.seconds
        plain = sum(1 for p in runner.passes if not p["warmup"] and not p["traced"])
        traced = sum(1 for p in runner.passes if p["traced"])
        if args.trace:
            if done and plain >= 2 and traced >= 2:
                break
            if traced < plain:
                runner.run(traced=True)
                if getattr(workload, "threads", 1) > 1:
                    speedups.append(pool_speedup(runner, enumeration))
            else:
                runner.run()
        else:
            if done and plain >= MIN_PASSES:
                break
            runner.run()

    if args.trace:
        metrics = per_layer(runner, speedups, workload)
        units = PER_LAYER
        extra = {}
    else:
        while len(runner.setup_s) < SETUP_MIN_SAMPLES:
            runner.sample_setup(calibrate())
        metrics, extra = end_to_end(runner)
        units = END_TO_END
    record["loadavg_1m_end"] = _read_first("/proc/loadavg")
    record["plan"] = workload.plan()
    record["setup_s_samples"] = runner.setup_s
    record["passes"] = runner.passes
    record["checks"] = {"attempted": runner.checks_attempted, "failed": runner.checks_failed,
                        "first_failures": runner.failures}
    record.update(extra)
    if args.trace:
        record["pool_speedup_samples"] = speedups
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        write_spans(WORK / f"{stem}-spans.csv.gz", runner.kept_spans)

    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    for message in runner.failures:
        print(f"FAILED CHECK: {message}", file=sys.stderr)
    print(json.dumps({"run_record": {k: record[k] for k in (
        "workload", "seed", "commit", "nproc", "python", "cpu_model",
        "loadavg_1m_start", "loadavg_1m_end", "plan")}, **extra}))
    result = {
        "correct": runner.checks_failed == 0,
        "attempted": len(runner.passes),
        "failed": sum(1 for p in runner.passes if p["failed_checks"]),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
