"""The longhop benchmark: runs the `longhop` CLI the way a user does.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the CLI is imported from the
checkout's `src/`.  The seed makes every input; the program sees only the
files written to a temporary directory under `.perfbench_work/`.

With --trace 0 each command runs as its own fresh child process, in
sequence (child.py).  The benchmark times the command's work inside the
child, the child's whole lifetime (what the user waits, summed into
wall_s) and reads the child's peak RSS from os.wait4.  It repeats rounds
of set-up calls and passes over the workload's commands (most of them
twice a round) while they fit in S seconds, and reports the mean over
the run (setup_s: the median).  With --trace 1 the same commands run in
this process through `longhop.cli.main(argv)`, each once untraced and once
with spans around every layer (spans.py); the per-layer values come
from the traced run, and the difference between the two is the tracing
overhead.  Every output is checked (checks.py), and the last line of
standard output is one JSON object with the result.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
CHILD = Path(__file__).with_name("child.py")
WORK = ROOT / ".perfbench_work"
NPROC = len(os.sched_getaffinity(0))
CHILD_TIMEOUT_S = 60   # the slowest command (scan, spectrum-d21) takes about 1.5 s on a 2-vCPU Xeon

PORTS, RADIX = "131072", "64"
CLUSTER_LEVELS = 3
DIVERSITY = 4


@dataclass(frozen=True)
class Step:
    label: str                          # the end-to-end metric is <label>_s
    argv: list[str]
    check: Callable[[str, dict], None]
    threads: int = 1                    # LONGHOP_THREADS for this command
    metric: bool = True                 # False: only makes a later command's input


def plan(ref: dict) -> list[Step]:
    """The commands of one pass, in order; later ones read earlier outputs."""
    cmp_code, cmp_hops = ref["cmp_code"], ref["cmp_hops"]
    d, m = ref["start_d"], ref["start_m"]
    q = str(DIVERSITY)
    dests = [(1 << d) - 1, int(("10" * d)[:d], 2), int(("01" * d)[:d], 2)]
    return [
        Step("mindist", ["mindist", "code.txt"], checks.mindist),
        Step("convert", ["convert", "--to-hops", "code.txt", "-o", "net.hops"], checks.convert,
             metric=False),
        Step("bisect", ["bisect", "net.hops"], checks.bisect),
        Step("scan", ["bisect", "--method", "scan", "net.hops"], checks.bisect),
        Step("scan_par", ["bisect", "--method", "scan", "net.hops"], checks.bisect, threads=NPROC),
        Step("compare", ["compare", "--ports", PORTS, "--radix", RADIX, "--lh-code", cmp_code,
                         "--format", "json"], checks.compare),
        Step("cluster", ["cluster", cmp_hops, "--levels", str(CLUSTER_LEVELS), "-o", "clusters.csv"],
             checks.cluster(CLUSTER_LEVELS)),
        Step("optimize", ["optimize", "-d", str(d), "-m", str(m), "--method", "greedy",
                          "--start", "start.hops", "-o", "opt.hops"], checks.optimize),
        Step("verify", ["verify", "opt.hops"], checks.verify),
        Step("ftable", ["ftable", "opt.hops", "--diversity", q, "-o", "ftable.csv"],
             checks.ftable(DIVERSITY)),
        *(Step("routes", ["routes", "opt.hops", "--diversity", q, "--dest", f"{y:0{d}b}"],
               checks.routes(y, DIVERSITY)) for y in dests),
    ]


SETUP_STEP = Step("setup", ["bisect", str(ROOT / "tests" / "data" / "folded3.hops")], checks.setup_bisect)


class Tally:
    """Commands attempted and failed; a failure is a nonzero exit or a wrong output."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, step: Step, status: int, out: str, ctx: dict) -> None:
        self.attempted += 1
        try:
            checks.expect(status == 0, f"exit status {status}")
            step.check(out, ctx)
        except Exception as exc:   # any error reading the output means it is wrong
            self.failed += 1
            print(f"FAILED {step.label}: {' '.join(step.argv)}: {exc!r}", file=sys.stderr)


@dataclass(frozen=True)
class ChildRun:
    lifetime: float   # seconds from spawn to reaped, as the user waits
    work: float       # seconds inside cli.main, without start-up (child.py)
    rss_kib: int      # the child's peak RSS
    status: int
    out: str


def run_child(step: Step, cwd: Path) -> ChildRun:
    """Run one command in a fresh child process through child.py."""
    env = dict(os.environ, LONGHOP_THREADS=str(step.threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    timefile = cwd / "work_seconds.txt"
    timefile.unlink(missing_ok=True)
    with open(cwd / "stdout.txt", "w+b") as out, open(cwd / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(timefile), *step.argv],
                                cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        lifetime = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        out.seek(0)
        work = float(timefile.read_text(encoding="utf-8")) if timefile.exists() else lifetime
        return ChildRun(lifetime, work, usage.ru_maxrss, proc.returncode, out.read().decode("utf-8"))


def run_inproc(step: Step, main: Callable[[list[str]], int]) -> tuple[float, int, str]:
    """Run one command through main(argv) in this process: (seconds, exit status, stdout)."""
    os.environ["LONGHOP_THREADS"] = str(step.threads)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            status = main(list(step.argv))
            elapsed = time.perf_counter() - start
    except Exception as exc:   # a traceback fails the command, not the benchmark
        print(f"{' '.join(step.argv)}: {exc!r}", file=sys.stderr)
        return 0.0, 1, ""
    return elapsed, status, out.getvalue()


def fill(start: float, seconds: float, one_round: Callable[[], None], estimate: float) -> int:
    """Run rounds while the next, expected to take as long as the one
    before (the first `estimate`), would end within `seconds` of `start`."""
    count = 0
    while time.perf_counter() - start + estimate <= seconds:
        began = time.perf_counter()
        one_round()
        estimate = time.perf_counter() - began
        count += 1
    return count


def measure_e2e(steps: list[Step], ref: dict, work: Path, seconds: float, tally: Tally) -> dict:
    """Rounds while the next one fits in `seconds`.  A round is a set-up
    call and one pass over the workload's commands, then a second set-up
    call and a second run of each command not in ref["once"] (the ones
    that take seconds), so that every command has samples spread over
    the whole run and the quick ones twice as many."""
    warm = run_child(SETUP_STEP, work)   # may write the bytecode cache; not reported
    tally.record(SETUP_STEP, warm.status, warm.out, {})

    ctx = {"dir": work, "ref": ref}
    samples: dict[str, list[float]] = {"setup_s": [], "wall_s": [], "peak_rss_mib": []}
    samples.update({f"{step.label}_s": [] for step in steps if step.metric})
    again = [step for step in steps if step.metric and step.label not in ref["once"]]

    def run(step: Step) -> ChildRun:
        child = run_child(step, work)
        tally.record(step, child.status, child.out, ctx)
        if step.metric:
            samples[f"{step.label}_s"].append(child.work)
        return child

    def set_up() -> None:
        child = run_child(SETUP_STEP, work)
        tally.record(SETUP_STEP, child.status, child.out, {})
        samples["setup_s"].append(child.lifetime)

    def one_round() -> None:
        set_up()
        runs = [run(step) for step in steps]
        samples["wall_s"].append(sum(child.lifetime for child in runs))
        samples["peak_rss_mib"].append(max(child.rss_kib for child in runs) / 1024)
        set_up()
        for step in again:
            run(step)

    start = time.perf_counter()
    one_round()
    count = 1 + fill(start, seconds, one_round, time.perf_counter() - start)
    # A child's peak RSS includes this process's peak at the time it was spawned.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if own >= min(samples["peak_rss_mib"]):
        raise RuntimeError(f"the benchmark's own peak RSS ({own:.0f} MiB) hides its children's")
    return {"passes": count, "samples": samples}


def measure_layers(steps: list[Step], ref: dict, work: Path, seconds: float, tally: Tally) -> dict:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from longhop import cli

    per_pass: list[dict[str, float]] = []

    def one_pass(index: int) -> None:
        ctx = {"dir": work, "ref": ref}
        tracer = spans.Tracer()
        plain = traced = 0.0
        for step in steps:
            # alternate the order so neither run always finds the caches warm
            for trace in ((False, True) if index % 2 == 0 else (True, False)):
                if trace:
                    key = f"cli.{step.label}.self_s"
                    main = tracer.span(f"cli.{step.label}", cli.main, time_key=lambda: key)
                    with spans.installed(tracer):
                        elapsed, status, out = run_inproc(step, main)
                    traced += elapsed
                else:
                    elapsed, status, out = run_inproc(step, cli.main)
                    plain += elapsed
                tally.record(step, status, out, ctx)
        values = tracer.per_layer()
        values["trace.overhead_s"] = (traced - plain) / len(steps)
        per_pass.append(values)

    cwd = os.getcwd()
    threads = os.environ.get("LONGHOP_THREADS")
    os.chdir(work)
    try:
        start = time.perf_counter()
        one_pass(0)
        count = 1 + fill(start, seconds, lambda: one_pass(len(per_pass)), time.perf_counter() - start)
    finally:
        os.chdir(cwd)
        if threads is None:
            os.environ.pop("LONGHOP_THREADS", None)
        else:
            os.environ["LONGHOP_THREADS"] = threads
    keys = set().union(*per_pass)
    return {"passes": count, "samples": {key: [p.get(key, 0.0) for p in per_pass] for key in keys}}


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    wanted = spec["per_layer" if trace else "end_to_end"]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    tally = Tally()
    try:
        subprocess.run([sys.executable, str(Path(__file__).with_name("inputs.py")), name, str(seed),
                        str(work)], check=True)
        ref = json.loads((work / "ref.json").read_text(encoding="utf-8"))
        measure = measure_layers if trace else measure_e2e
        got = measure(plan(ref), ref, work, seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    samples = got["samples"]
    missing = {m["name"] for m in wanted} - set(samples)
    if missing:
        raise RuntimeError(f"no samples for metrics {sorted(missing)}")
    print(f"workload {name}  seed {seed}  trace {int(trace)}  passes {got['passes']}  nproc {NPROC}")
    print("# samples " + json.dumps({m["name"]: samples[m["name"]] for m in wanted}))
    metrics = {}
    for m in wanted:
        v = samples[m["name"]]
        stat = "median" if trace or m["name"] == "setup_s" else "mean"
        value = statistics.median(v) if stat == "median" else statistics.fmean(v)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:42s} {value:<12.6g} {m['unit']:6s} {stat} of {len(v)}")
    print(f"  {'fail_ratio':42s} {tally.failed / max(tally.attempted, 1):.6g}"
          f" ({tally.failed} of {tally.attempted} commands)")
    return {"correct": tally.failed == 0 and tally.attempted > 0,
            "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "longhop" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: no longhop sources under {SRC} or no {SPEC.name}", file=sys.stderr)
        return 2
    if NPROC < 2:
        print("error: scan_par compares LONGHOP_THREADS=1 with nproc threads, which needs"
              f" at least 2 CPUs; this process may use {NPROC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in [*workloads, "all"]:
        parser.error(f"--workload must be one of {', '.join(workloads)} or all")
    for name in workloads if args.workload == "all" else [args.workload]:
        result = run_workload(spec, name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
