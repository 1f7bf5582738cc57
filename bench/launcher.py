"""Start commands from a small process and report each one's own peak RSS.

A child inherits, as the starting point of its ``ru_maxrss``, the resident
size of the process it was forked from. Forked from the benchmark, which
holds the workload's inputs, every ``ratefn`` child would report at least the
benchmark's size. This process stays small, so ``os.wait4`` here reports what
the ``ratefn`` process itself used.

Protocol: one JSON object ``{"argv": [...], "log": path}`` per stdin line;
one JSON object ``{"rc": int, "wall_s": float, "maxrss_kb": int}`` per stdout
line. Children inherit this process's environment. Exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=log, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"rc": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
