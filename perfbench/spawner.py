"""Lean launcher for the benchmark's child processes.

On Linux a child's ``ru_maxrss`` also covers the peak of the address space
it replaced at exec, which is its parent's. A ``saf`` child started straight
from the harness, which holds numpy and reads back large pattern files to
check them, would therefore report at least the harness's own peak. The
harness starts this launcher before it imports numpy. The launcher imports
only a few standard modules, so the floor it leaves under a child's peak RSS
is its own peak of about 10 MB, far below any ``saf`` command. It reports
that peak with every reply, so the harness can flag a child whose figure is
the floor rather than its own.

Protocol, one JSON object per line: a request on standard input is
``{"argv": [...], "stdout": PATH, "stderr": PATH}``; the reply on standard
output has ``code``, ``wall_s``, ``cpu_s``, ``peak_rss_mb`` and
``own_peak_rss_mb``. Children run in the launcher's working directory and
environment. The launcher exits at the end of its input; on SIGTERM it kills
the running child, waits for it, and exits.
"""

import json
import os
import resource
import signal
import sys
import time

running = []


def on_term(signum, frame):
    for pid in running:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    raise SystemExit(128 + signum)


def spawn(request: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(request["argv"][0], request["argv"], os.environ, file_actions=actions)
    running.append(pid)
    try:
        _pid, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        running.remove(pid)
    wall = time.perf_counter() - start
    return {
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "own_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> int:
    signal.signal(signal.SIGTERM, on_term)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(spawn(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
