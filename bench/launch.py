"""Run one command and print its wall time and resource use as JSON.

Usage: python3 launch.py TIMEOUT_S STDOUT_FILE STDERR_FILE -- CMD...

The benchmark starts every geodom command through this small process.
A child's ru_maxrss also counts the peak memory of the process that
started it, up to the child's exec, so commands started from the
benchmark itself would carry the benchmark's own memory into
peak_rss_mb. On SIGTERM the command is killed and waited for.
"""

import json
import os
import signal
import subprocess
import sys
import threading
from time import perf_counter


def main() -> int:
    timeout_s, out_path, err_path, sep, *cmd = sys.argv[1:]
    if sep != "--" or not cmd:
        raise SystemExit("usage: launch.py TIMEOUT_S STDOUT_FILE STDERR_FILE -- CMD...")
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)

        def kill(*_):
            killed.set()
            proc.kill()

        signal.signal(signal.SIGTERM, kill)
        timer = threading.Timer(float(timeout_s), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    json.dump(
        {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss,
            "code": None if killed.is_set() else proc.returncode,
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
