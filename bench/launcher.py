"""Lean launcher for the timed operations' child processes.

A child started with vfork/exec reports in ``ru_maxrss`` at least the
resident high-water mark of the process that started it.  The benchmark
process holds numpy, scipy and the generated inputs, so it starts this
launcher first, while it is still small, and has it start every timed
child.  Protocol: one JSON request per line on stdin,
``{"argv": [...], "log": path, "timeout": seconds}``; one JSON reply per
line on stdout, ``{"seconds": wall, "cpu_s": user + system, "returncode": rc,
"rss_mb": peak}``.
The launcher exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def spawn(argv: list[str], log: str, timeout: float) -> dict:
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "cpu_s": usage.ru_utime + usage.ru_stime,
            "returncode": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0}


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(spawn(req["argv"], req["log"], req["timeout"])), flush=True)


if __name__ == "__main__":
    main()
