"""The coxkl benchmark: one workload of CLI jobs, each in a fresh process.

Usage:
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of stdout is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the metrics are
the `end_to_end` list of BENCHMARK.json with `--trace 0` and its `per_layer`
list with `--trace 1`.  A run record with the machine, the seed and every
job's wall and CPU time goes to benchmark/.work/records/.  See
benchmark/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from jobs import (
    ROOT,
    SRC,
    ChildResult,
    WORK,
    WORKLOADS,
    BENCH_DIR,
    cli_command,
    generate_fixtures,
    job_ok,
    load_references,
    run_child,
    workload_jobs,
)
from tracer import HOT, SPANS

RUN_LIMIT_S = 170.0  # every child is killed by then, so a run ends within 180 s
JOB_TIMEOUT_S = 120.0
SETUP_SAMPLES = 12  # half before the passes and half after, so they span the run
TRACE_OUT = WORK / "trace.json"
# CPU seconds one gauge block takes at the reference speed: its median on
# the machine the benchmark was defined on (2 vCPUs of an Intel Xeon, Python
# 3.11.7).  Times are rescaled to that speed; see README.md.
GAUGE_REF_S = 0.001
GAUGE_N = 300  # terms per gauge block
GAUGE_EVERY_S = 0.025
GAUGE_WARMUP = 20  # blocks run and dropped when the gauge is made


class Gauge:
    """Samples the speed of the CPU that the run and its children share.

    The run pins itself, and with it every child, to one CPU.  Just before
    a child starts, every GAUGE_EVERY_S while it runs, and just after it
    ends, the run times one block by its own thread CPU time.  The block
    adds up small sparse polynomials held as dicts, the way coxkl's Laurent
    polynomials are.  A child's CPU time times GAUGE_REF_S over the mean
    block time is its CPU time at the reference speed.  On a shared host
    the CPU's speed moves by up to 1.7x between phases of seconds to
    minutes, for the block and the jobs alike.
    """

    def __init__(self) -> None:
        self.blocks: list[float] = []
        for _ in range(GAUGE_WARMUP):
            self.tick()

    def tick(self) -> None:
        t0 = time.thread_time()
        acc: dict = {}
        for i in range(GAUGE_N):
            term = {i % 7: i, (i + 3) % 7: -i, 5: 1}
            for e, c in term.items():
                acc[e + i % 5] = acc.get(e + i % 5, 0) + 3 * c
            acc = {e: c for e, c in acc.items() if c}
        self.blocks.append(time.thread_time() - t0)

    def run(self, cmd: list[str], timeout: float) -> tuple[ChildResult, float]:
        """Run one child; return it with the mean block time around it."""
        self.blocks = []
        self.tick()
        res = run_child(cmd, timeout, tick=self.tick, every=GAUGE_EVERY_S)
        self.tick()
        return res, statistics.fmean(self.blocks)


def at_ref_speed(cpu_s: float, gauge_s: float) -> float:
    return cpu_s * GAUGE_REF_S / gauge_s


# Imports the CLI and builds the engine of every group given; prints where
# coxkl came from so the run can check it measured this checkout.
SETUP_PROBE = (
    "import sys, coxkl.cli\n"
    "from coxkl.fixtures import shared_engine\n"
    "for t in sys.argv[1:]:\n"
    "    shared_engine(t)\n"
    "print(coxkl.cli.__file__)\n"
)


@dataclass
class Pass:
    kind: str  # plain, spans or counts
    gauge: Gauge | None = None  # samples the CPU's speed around every job
    wall_s: float = 0.0  # summed over the jobs, process start included
    jobs: list = field(default_factory=list)  # per-job records
    traces: list = field(default_factory=list)  # tracer output per job

    def run(self, key: str, refs: dict, deadline: float) -> None:
        if self.kind == "plain":
            cmd = cli_command(key)
        else:
            TRACE_OUT.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), self.kind, str(TRACE_OUT),
                   *cli_command(key)[3:]]
        timeout = min(JOB_TIMEOUT_S, deadline - time.perf_counter())
        if self.gauge:
            res, gauge_s = self.gauge.run(cmd, timeout)
        else:
            res, gauge_s = run_child(cmd, timeout), 0.0
        ok = job_ok(res, refs.get(key))
        if self.kind != "plain":
            if TRACE_OUT.exists():
                self.traces.append(json.loads(TRACE_OUT.read_text()))
            else:
                ok = False
        if not ok:
            print(f"job failed: {key!r} exit {res.exit} timed_out {res.timed_out}\n"
                  + res.stderr.decode(errors="replace")[-2000:], file=sys.stderr)
        self.wall_s += res.wall_s
        self.jobs.append({
            "key": key, "ok": ok, "exit": res.exit, "timed_out": res.timed_out,
            "wall_s": res.wall_s, "cpu_s": res.cpu_s, "gauge_s": gauge_s,
            "maxrss_mb": res.maxrss_mb,
            "stdout_bytes": len(res.stdout),
        })


def run_pass(kind: str, keys: list[str], refs: dict, deadline: float,
             gauge: Gauge | None = None) -> Pass:
    p = Pass(kind, gauge)
    for key in keys:
        p.run(key, refs, deadline)
    return p


def setup_samples(groups: tuple[str, ...], n: int, gauge: Gauge) -> list[dict]:
    out = []
    for _ in range(n):
        res, gauge_s = gauge.run([sys.executable, "-c", SETUP_PROBE, *groups], JOB_TIMEOUT_S)
        origin = Path(res.stdout.decode().strip() or ".").resolve()
        if res.exit != 0 or SRC.resolve() not in origin.parents:
            raise RuntimeError(f"set-up probe failed (exit {res.exit}, coxkl from {origin}): "
                               + res.stderr.decode(errors="replace"))
        out.append({"wall_s": res.wall_s, "cpu_s": res.cpu_s, "gauge_s": gauge_s})
    return out


def pass_at_ref_speed(passes: list[Pass]) -> float:
    """CPU seconds of one pass at the reference speed: over the jobs of the
    pass, the sum of each job's median over the passes of the run."""
    return sum(statistics.median(at_ref_speed(p.jobs[i]["cpu_s"], p.jobs[i]["gauge_s"])
                                 for p in passes)
               for i in range(len(passes[0].jobs)))


def layer_metrics(plain: Pass, spans: Pass, counts: Pass) -> dict[str, float]:
    m: dict[str, float] = {}
    for name in SPANS:
        m[f"{name}.calls"] = sum(t["spans"][name][0] for t in spans.traces)
        m[f"{name}.self_s"] = sum(t["spans"][name][1] for t in spans.traces)
    for name in HOT:
        m[f"{name}.calls"] = sum(t["counts"][name] for t in counts.traces)
    m["cli.import_s"] = sum(t["import_s"] for t in spans.traces)
    m["linalg.elim_entries"] = sum(t["elim_entries"] for t in spans.traces)
    m["cli.stdout_bytes"] = sum(j["stdout_bytes"] for j in plain.jobs)
    m["trace.overhead_s"] = spans.wall_s - plain.wall_s
    return m


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = ""
    if (ROOT / ".git").exists():  # a plain checkout has no history to ask
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        src.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit or "unknown",
        "source_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "coxkl" / "cli.py").is_file():
        print(f"error: no coxkl sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # one CPU for the run and its children, so the gauge samples the CPU the
    # jobs run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    started_utc = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    compileall.compile_dir(str(SRC), quiet=1)
    generate_fixtures(JOB_TIMEOUT_S)
    refs = load_references()
    wl = WORKLOADS[args.workload]
    gauge = Gauge()
    setup = setup_samples(wl.groups, SETUP_SAMPLES // 2, gauge)
    keys = workload_jobs(args.workload, args.seed)

    if args.trace:
        # each job's plain and span runs are adjacent, so they see the same
        # machine state and their difference is the tracing overhead
        plain, spans = Pass("plain"), Pass("spans")
        for key in keys:
            plain.run(key, refs, deadline)
            spans.run(key, refs, deadline)
        passes = [plain, spans, run_pass("counts", keys, refs, deadline)]
    else:
        # as many whole passes as fill --seconds best, judged by the first
        t0 = time.perf_counter()
        passes = [run_pass("plain", keys, refs, deadline, gauge)]
        for _ in range(round(args.seconds / (time.perf_counter() - t0)) - 1):
            passes.append(run_pass("plain", keys, refs, deadline, gauge))
    setup += setup_samples(wl.groups, SETUP_SAMPLES // 2, gauge)

    if args.trace:
        metrics = layer_metrics(*passes)
    else:
        metrics = {
            "ref_cpu_s": pass_at_ref_speed(passes),
            "peak_rss_mb": statistics.median(max(j["maxrss_mb"] for j in p.jobs)
                                             for p in passes),
            "setup_s": statistics.median(at_ref_speed(x["cpu_s"], x["gauge_s"])
                                         for x in setup),
            # as measured, not rescaled; in the record only
            "wall_s": statistics.median(p.wall_s for p in passes),
            "setup_wall_s": statistics.median(x["wall_s"] for x in setup),
        }

    jobs = [j for p in passes for j in p.jobs]
    failed = sum(not j["ok"] for j in jobs)
    metrics["pass_ratio"] = (len(jobs) - failed) / len(jobs)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started_utc": started_utc, **machine(),
        "run_s": time.perf_counter() - start,
        "gauge_ref_s": GAUGE_REF_S, "setup_samples": setup,
        "passes": [{"kind": p.kind, "wall_s": p.wall_s, "jobs": p.jobs} for p in passes],
        "metrics": metrics,
    }
    rec_dir = WORK / "records"
    rec_dir.mkdir(parents=True, exist_ok=True)
    rec_path = rec_dir / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                          f"{started_utc.replace(':', '')}.json")
    rec_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record: {rec_path}", file=sys.stderr)

    print(json.dumps({"correct": failed == 0, "attempted": len(jobs),
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
