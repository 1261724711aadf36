"""Benchmark harness for the chardeg command line.

    python3 perfbench/run.py --workload witness --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  One client runs the workload's commands one
at a time (a closed loop), each in a fresh interpreter
(``python3 -m chardeg.cli`` with ``PYTHONPATH=src``), timed from process start
to exit, and checks every exit code and stdout.  Passes repeat until
``--seconds`` have gone by and the workload's minimum pass count is reached.
The sweep runs sequentially; ``--parallel`` is not measured.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the first
pass once in fresh interpreters for reference digests, then alternately runs
it plainly and traced inside one interpreter (``tracer.py``) and reports the
per-layer metrics: counts from the traced pass, times as medians.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The whole record, with raw
samples and provenance, goes to ``perfbench/results/``.  Exits 2 without a
result when the program cannot be run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPS = 9  # fresh interpreters per run for setup_s, and as many bare ones
TRACER_TIMEOUT_S = 150


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "CHARDEG_"))}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


ENV = child_env()
CLI = (sys.executable, "-m", "chardeg.cli")


@dataclass
class Sample:
    argv: list[str]
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    rc: int
    stdout_bytes: int
    sha256: str
    error: str | None = None


def spawn(argv: list[str], limit_s: float) -> tuple[Sample, bytes]:
    """Run argv to completion; the child's own rusage comes from os.wait4."""
    with tempfile.TemporaryFile(dir=RESULTS) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=ENV
        )
        timer = threading.Timer(limit_s, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
            proc.stdout.close()
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    error = None
    if wall >= limit_s:
        error = f"killed after {limit_s} s"
    elif rc not in (0, 1, 2, 3):
        error = f"exit code {rc}: {stderr[-300:]}"
    sample = Sample(
        list(argv),
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss,
        rc,
        len(out),
        hashlib.sha256(out).hexdigest(),
        error,
    )
    return sample, out


def run_command(cmd: workloads.Command) -> tuple[Sample, bytes]:
    sample, out = spawn([*CLI, *cmd.argv], cmd.limit_s)
    if sample.error is None and sample.rc != cmd.expect_rc:
        sample.error = f"exit code {sample.rc}, expected {cmd.expect_rc}"
    if sample.error is None:
        try:
            sample.error = cmd.check(out)
        except Exception as exc:  # malformed output fails the command, not the run
            sample.error = f"check raised {exc!r}"
    return sample, out


def run_pass(commands, pass_check) -> list[Sample]:
    samples, outs = [], []
    for cmd in commands:
        sample, out = run_command(cmd)
        samples.append(sample)
        outs.append(out)
    if pass_check is not None:
        problem = pass_check(b"".join(outs))
        if problem:
            for s in samples:
                s.error = s.error or f"pass check: {problem}"
    return samples


def measure_setup() -> dict:
    """setup_s: a fresh interpreter imports chardeg.cli, builds the parser and
    exits (``--help``); the bare interpreter start is measured beside it."""
    bare, setup = [], []
    for _ in range(SETUP_REPS):
        bare.append(spawn([sys.executable, "-c", "pass"], 30)[0].wall_s)
        s, _ = spawn([*CLI, "--help"], 30)
        if s.rc != 0:
            raise RuntimeError(f"chardeg --help exited {s.rc}")
        setup.append(s.wall_s)
    return {"setup_s": setup, "bare_s": bare}


def provenance(seed: int, workload: str, trace: bool) -> dict:
    def git(*args: str) -> str | None:
        try:
            res = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "data").glob("*")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": src.hexdigest(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, workload: workloads.Workload, golden: dict) -> tuple[dict, dict, list[Sample]]:
    setup = measure_setup()
    passes: list[list[Sample]] = []
    start = time.perf_counter()
    while len(passes) < workload.min_passes or time.perf_counter() - start < args.seconds:
        commands, pass_check = workload.make_pass(golden, args.seed, len(passes))
        passes.append(run_pass(commands, pass_check))
    measured = time.perf_counter() - start
    samples = [s for p in passes for s in p]
    walls_ms = [s.wall_s * 1000 for s in samples]
    # The tail percentile is fixed per workload by its minimum sample count,
    # so it does not move when a faster program fits more passes in a run.
    tail = tracer.tail_pct(workload.min_passes * len(passes[0]))
    metrics = {
        "setup_s": metric(statistics.median(setup["setup_s"]), "s"),
        "wall_s": metric(statistics.median(sum(s.wall_s for s in p) for p in passes), "s"),
        "cpu_s": metric(statistics.median(sum(s.cpu_s for s in p) for p in passes), "s"),
        "cmd_p50_ms": metric(statistics.median(walls_ms), "ms"),
        "cmd_tail_ms": metric(tracer.percentile(walls_ms, tail), "ms"),
        "peak_rss_mb": metric(max(s.maxrss_kb for s in samples) / 1024, "MB"),
    }
    record = {
        "setup": setup,
        "bare_interpreter_s": statistics.median(setup["bare_s"]),
        "measured_s": measured,
        "tail_percentile": tail,
        "tail_samples_beyond": sum(1 for w in walls_ms if w > metrics["cmd_tail_ms"]["value"]),
        "commands": len(samples),
        "fail_ratio": sum(1 for s in samples if s.error) / len(samples),
        "passes": [[asdict(s) for s in p] for p in passes],
    }
    return metrics, record, samples


def run_tracer(commands: list[list[str]], trace: bool) -> dict:
    res = subprocess.run(
        [sys.executable, str(HERE / "tracer.py")],
        input=json.dumps({"commands": commands, "trace": trace}),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=ENV,
        timeout=TRACER_TIMEOUT_S,
    )
    if res.returncode != 0:
        raise RuntimeError(f"tracer exited {res.returncode}: {res.stderr[-500:]}")
    return json.loads(res.stdout)


def traced(args, workload: workloads.Workload, golden: dict) -> tuple[dict, dict, list[Sample]]:
    commands, pass_check = workload.make_pass(golden, args.seed, 0)
    start = time.perf_counter()
    reference = run_pass(commands, pass_check)
    argvs = [list(c.argv) for c in commands]
    plain, traced_reps = [], []
    while not traced_reps or time.perf_counter() - start < args.seconds:
        # Alternate which runs first, so neither side always follows the other.
        pair = (False, True) if len(plain) % 2 == 0 else (True, False)
        for trace in pair:
            (traced_reps if trace else plain).append(run_tracer(argvs, trace))
    # In-process runs must print what the fresh interpreters printed.
    mismatches = []
    for rep in plain + traced_reps:
        for sample, res in zip(reference, rep["commands"]):
            if (res["rc"], res["sha256"]) != (sample.rc, sample.sha256):
                mismatches.append(
                    f"{' '.join(sample.argv[3:])[:120]}: in-process exit {res['rc']} or stdout"
                    " differs from the fresh interpreter"
                )
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    first = traced_reps[0]["metrics"]
    counts_repeat = all(
        rep["metrics"][name] == first[name]
        for rep in traced_reps
        for name in first
        if units.get(name) not in ("s", "ms")
    )
    metrics = {}
    for name, value in first.items():
        if units.get(name) in ("s", "ms"):
            value = statistics.median(rep["metrics"][name] for rep in traced_reps)
        metrics[name] = metric(value, units.get(name, "count"))
    plain_s = statistics.median(sum(c["wall_s"] for c in rep["commands"]) for rep in plain)
    traced_s = statistics.median(sum(c["wall_s"] for c in rep["commands"]) for rep in traced_reps)
    metrics["trace.overhead"] = metric(traced_s / plain_s, "ratio")
    record = {
        "reference_pass": [asdict(s) for s in reference],
        "in_process_mismatches": mismatches,
        "counts_repeat": counts_repeat,
        "absent": traced_reps[0]["absent"],
        "plain_pass_s": [sum(c["wall_s"] for c in rep["commands"]) for rep in plain],
        "traced_pass_s": [sum(c["wall_s"] for c in rep["commands"]) for rep in traced_reps],
        "traced_metrics": [rep["metrics"] for rep in traced_reps],
        "layers": traced_reps[0]["layers"],
        "measured_s": time.perf_counter() - start,
        "commands": len(reference) * (1 + len(plain) + len(traced_reps)),
    }
    return metrics, record, reference


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]

    RESULTS.mkdir(exist_ok=True)
    try:
        golden = workloads.load_golden()
        # Warm-up: compiles the bytecode and shows the program can run at all.
        warm, _ = spawn([*CLI, "--help"], 120)
    except OSError as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    # The directory check keeps an installed chardeg from standing in for src/.
    if warm.rc != 0 or not (ROOT / "src" / "chardeg").is_dir():
        print(f"chardeg cannot be started from {ROOT / 'src'} (exit {warm.rc})", file=sys.stderr)
        return 2

    metrics, record, samples = (traced if args.trace else end_to_end)(args, workload, golden)
    problems = [f"{' '.join(s.argv[3:])[:120]}: {s.error}" for s in samples if s.error]
    problems += record.get("in_process_mismatches", [])
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    attempted, failed = record["commands"], len(problems)
    record = {**provenance(args.seed, args.workload, bool(args.trace)), "metrics": metrics, **record}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
