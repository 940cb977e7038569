"""Write BENCH_<N>.json at the repository root: one point of the performance
trajectory, measured on this checkout.

    python3 scripts/bench_file.py N

The file holds:

- ``workloads``: for ``commutator-es`` and ``cli-suite``, the last line of
  ``perfbench/run.py --trace 0 --seconds 30 --seed 1``;
- ``L0``: ``microbatch.run_microbatch()``, the backend multiply and invert
  cost in microseconds;
- ``L6``: the ``[criterion-N] ... in Xs`` time of each acceptance criterion,
  in seconds, and the pytest summary line, from one Tier-1 run;
- ``environment``: Python version, CPU count and platform.

Everything runs one after another, so the measurements do not compete for
the CPU.  The library is the one under ``src/``; the script imports only from
``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("commutator-es", "cli-suite")
RUN_ARGS = ("--trace", "0", "--seconds", "30", "--seed", "1")
TIER1 = ("-m", "pytest", "-q", "-s", "--continue-on-collection-errors")
CRITERION = re.compile(r"^\[(criterion-\d+)\] \w+: .* in ([0-9.]+)s")
SUMMARY = re.compile(r"^=*\s*(\d+ passed.*)$")


def workload_line(name: str) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, *RUN_ARGS],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def microbatch() -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import microbatch

    if not Path(microbatch.__file__).resolve().is_relative_to(ROOT):
        raise SystemExit(f"imported microbatch from {microbatch.__file__}, not from {ROOT}")
    return microbatch.run_microbatch()


def tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, *TIER1], cwd=ROOT, env=env, capture_output=True, text=True
    )
    criteria, summary = {}, None
    for line in out.stdout.splitlines():
        line = line.strip()
        if match := CRITERION.match(line):
            criteria[match[1]] = float(match[2])
        elif match := SUMMARY.match(line):
            summary = match[1].rstrip("= ")
    return {"criteria_s": criteria, "summary": summary, "exit_code": out.returncode}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("n", type=int, help="trajectory index: writes BENCH_<n>.json")
    args = parser.parse_args(argv)
    record = {
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
        },
        "command": f"python3 perfbench/run.py --workload <name> {' '.join(RUN_ARGS)}",
        "workloads": {name: workload_line(name) for name in WORKLOADS},
        "L0": microbatch(),
        "L6": tier1(),
    }
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
