"""Run one program and report its own wall time, CPU time and peak RSS.

    python3 -S launch.py REPORT TIMEOUT_S PROGRAM [ARG...]

Writes {"wall_s", "cpu_s", "rss_mb", "exit"} as JSON to REPORT and exits 0;
the program's exit code is in the report. The program inherits this
process's working directory, environment, stdout and stderr, and is killed
after TIMEOUT_S seconds.

Why a launcher: on exec, Linux raises a process's peak-RSS figure to the
peak of the memory it was started from, and posix_spawn or vfork starts a
child in its parent's memory. Started straight from run.py, which holds
numpy and the generated book, every command would report at least run.py's
own peak. This launcher imports nothing heavy, so the floor under the
reported peak is a bare interpreter's.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    report, timeout, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)

    def kill(*_):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    result = {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "exit": os.waitstatus_to_exitcode(status),
    }
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
