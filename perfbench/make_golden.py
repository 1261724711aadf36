"""Record golden.json: exit codes and stdout SHA-256 digests of every fixed
command the workloads run, from the code in this checkout.

    python3 perfbench/make_golden.py

Run it only at a commit whose outputs are known to be right; the workloads'
independent oracles check those outputs further on every run.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    run.RESULTS.mkdir(exist_ok=True)
    commands = {}

    def record(argv: tuple[str, ...]) -> bytes:
        sample, out = run.spawn([*run.CLI, *argv], 300)
        if sample.error:
            raise RuntimeError(f"{' '.join(argv)}: {sample.error}")
        commands[" ".join(argv)] = {"rc": sample.rc, "sha256": sample.sha256}
        print(f"{sample.wall_s:7.3f}s rc={sample.rc} {' '.join(argv)[:100]}", file=sys.stderr)
        return out

    full = ("prop42", "--from", str(workloads.WITNESS_FROM), "--to", str(workloads.WITNESS_TO), "--jsonl")
    record(full)
    for fam in list(workloads.CLASSICAL_RANK_MIN) + list(workloads.EXCEPTIONAL):
        argv = workloads.sweep_argv(fam)
        entries = [json.loads(line) for line in record(argv).decode().splitlines()]
        checked = sum(1 for e in entries if e["status"] == "ok")
        commands[" ".join(argv)]["counts"] = {
            "points": len(entries),
            "checked": checked,
            "excluded": len(entries) - checked,
        }
    for argv in workloads.INTERVAL_FIXED + tuple(workloads.all_query_variants()):
        record(argv)
    golden = {
        "witness_range_sha256": commands.pop(" ".join(full))["sha256"],
        "commands": commands,
    }
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
