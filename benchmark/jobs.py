"""Workloads, the child-process runner and the reference outputs of the
coxkl benchmark.

A job is one `coxkl` CLI call, named by its key: the CLI arguments joined by
spaces, with each fixture file written as `@name` (for `@b3_chi7` the job
reads `b3_chi7.json` from the generated fixture directory).  In a workload
template the token `@?` stands for a B3 table graph that the workload seed
draws from the ten graphs `b3_chi1` to `b3_chi10`.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import select
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
FIXTURES = WORK / "fixtures"
REFERENCES = BENCH_DIR / "references.json"

B3_GRAPHS = tuple(f"b3_chi{i}" for i in range(1, 11))
DRAWN = "@?"

CATALOGUE_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4",
                   "I2(3)", "I2(4)", "I2(5)", "I2(6)", "H3")


@dataclass(frozen=True)
class Workload:
    groups: tuple[str, ...]  # every group a job builds; the set-up probe builds them
    templates: tuple[tuple[str, ...], ...]


WORKLOADS = {
    # KL side only: element products, Bruhat tests, P*, mu, h_structure.
    "kl-wgraph": Workload(
        ("B4", "D4"),
        (
            ("wgraph", "klgraph", "--group", "B4"),
            ("kl", "--group", "D4"),
            ("cells", "--group", "D4", "--kind", "two-sided"),
        ),
    ),
    # Representation side: Laurent elimination, balancing, gamma tables.
    "j-algebra": Workload(
        ("A4", "B3"),
        (
            ("cellbasis", "--group", "A4"),
            ("jdata", "--group", "B3"),
        ),
    ),
    # Short jobs where process start, import and group build dominate.
    "fixture-jobs": Workload(
        CATALOGUE_TYPES + ("B3:2,1,1",),
        (
            ("--selftest",),
            ("group", "--group", "B4"),
            ("compat", "--group", "B4"),
            ("wgraph", "validate", DRAWN),
            ("wgraph", "omegagy", DRAWN),
            ("wgraph", "restrict", DRAWN, "--subset", "1,2"),
            ("balance", DRAWN),
            ("leading", DRAWN),
            ("labels", DRAWN),
            ("cellrep", DRAWN),
            ("blocks", "@b3_chi9", "@b3_chi9_conj"),
            ("jdata", "--group", "B3"),
            ("kl", "--group", "B3", "--weights", "2,1,1"),
            ("cells", "--group", "B3:2,1,1", "--kind", "two-sided"),
            ("wgraph", "klgraph", "--group", "H3"),
        ),
    ),
}


def _key(template: tuple[str, ...], graph: str) -> str:
    return " ".join("@" + graph if tok == DRAWN else tok for tok in template)


def workload_jobs(name: str, seed: int) -> list[str]:
    """The job keys of one pass: graphs drawn and order permuted by the seed."""
    rng = random.Random(seed)
    keys = [_key(t, rng.choice(B3_GRAPHS)) for t in WORKLOADS[name].templates]
    rng.shuffle(keys)
    return keys


def all_job_keys() -> list[str]:
    """Every key any seed can produce."""
    return sorted({_key(t, g) for wl in WORKLOADS.values() for t in wl.templates
                   for g in B3_GRAPHS})


def job_argv(key: str) -> list[str]:
    return [str(FIXTURES / f"{tok[1:]}.json") if tok.startswith("@") else tok
            for tok in key.split()]


def child_env() -> dict[str, str]:
    """The checkout's own sources first; a fixed hash seed keeps set and
    dict iteration, and with it the work done, the same on every run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def cli_command(key: str) -> list[str]:
    return [sys.executable, "-m", "coxkl.cli", *job_argv(key)]


@dataclass
class ChildResult:
    exit: int
    timed_out: bool
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(cmd: list[str], timeout: float,
              tick: Callable[[], None] | None = None, every: float = 0.05) -> ChildResult:
    """Run one child to completion; its resource usage comes from wait4.

    stdout and stderr go to files under WORK, so a large output cannot
    block the child on a full pipe.  A child still running after `timeout`
    seconds is killed and reported as timed out.  While it runs, `tick` is
    called every `every` seconds.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    out_path, err_path = WORK / "child.stdout", WORK / "child.stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, child_env(), file_actions=actions)
    timed_out = True  # until the child is seen to exit; also kills it on an exception here
    end = t0 + max(timeout, 0.0)
    try:
        pidfd = os.pidfd_open(pid)
        try:
            while True:
                left = max(end - time.perf_counter(), 0.0)
                if select.select([pidfd], [], [], min(left, every) if tick else left)[0]:
                    timed_out = False
                    break
                if time.perf_counter() >= end:
                    break
                if tick:
                    tick()
        finally:
            os.close(pidfd)
    finally:
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return ChildResult(
        exit=os.waitstatus_to_exitcode(status),
        timed_out=timed_out,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def fingerprint(res: ChildResult) -> dict:
    return {
        "exit": res.exit,
        "sha256": hashlib.sha256(res.stdout).hexdigest(),
        "bytes": len(res.stdout),
    }


def load_references() -> dict[str, dict]:
    return json.loads(REFERENCES.read_text())["jobs"]


def job_ok(res: ChildResult, ref: dict | None) -> bool:
    """A job passes when it finished in time with the recorded exit code
    and byte-identical stdout."""
    if ref is None or res.timed_out:
        return False
    fp = fingerprint(res)
    return fp["exit"] == ref["exit"] and fp["sha256"] == ref["sha256"]


def generate_fixtures(timeout: float) -> None:
    """Write the shipped catalogue with `coxkl fixtures` into FIXTURES."""
    res = run_child(
        [sys.executable, "-m", "coxkl.cli", "fixtures", "--out", str(FIXTURES)],
        timeout,
    )
    if res.exit != 0:
        raise RuntimeError("coxkl fixtures failed: " + res.stderr.decode(errors="replace"))
