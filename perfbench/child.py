"""Run one longhop CLI command in a fresh process and time its own work.

    python3 perfbench/child.py TIMEFILE ARG...

Imports `longhop.cli` (found through PYTHONPATH), then times
`cli.main(ARGS)` up to the flush of its standard output, writes the
seconds to TIMEFILE and exits with the command's status.  The clock
leaves out interpreter start-up and imports, which the benchmark measures
on their own as `setup_s`.  Start-up takes 0.2-0.45 s on a 2-vCPU Xeon
VM, while one `routes` call does about 0.02 s of work, so timing the whole
process would bury changes to the command's own work.
"""
import sys
import time
from pathlib import Path

from longhop import cli


def main() -> int:
    timefile, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    status = cli.main(argv)
    sys.stdout.flush()
    Path(timefile).write_text(repr(time.perf_counter() - start), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
