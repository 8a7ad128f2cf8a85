"""Run one ``wignerq`` command and fail if it exits non-zero or exceeds its limits.

Usage: python peak_rss.py --max-mb MB [--max-cpu-per-wall R] -- ARGV...

The command runs as ``python -m wignerq.cli ARGV...``, spawned from this
small process, so ``ru_maxrss`` (KiB on Linux) and ``ru_utime`` from
``os.wait4`` are the command's own.  It fails at a peak RSS of ``MB`` or
more, and, where ``R`` is given, at more user CPU than ``R`` times the
wall time.
"""

import argparse
import os
import subprocess
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mb", type=float, required=True, help="fail at this peak RSS (MB) or above")
    parser.add_argument("--max-cpu-per-wall", type=float, help="fail above this user CPU per wall second")
    parser.add_argument("argv", nargs="+", help="wignerq arguments, after --")
    args = parser.parse_args()
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-m", "wignerq.cli", *args.argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    code, peak_mb = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024
    print(f"exit {code}, peak RSS {peak_mb:.0f} MB, user CPU {usage.ru_utime:.2f} s, wall {wall:.2f} s")
    too_busy = args.max_cpu_per_wall is not None and usage.ru_utime > args.max_cpu_per_wall * wall
    return int(code != 0 or peak_mb >= args.max_mb or too_busy)


if __name__ == "__main__":
    sys.exit(main())
