"""Spawn one command and record its wall time, exit code and peak RSS.

    python3 perfbench/launch.py RESULT_PATH TIMEOUT_S STDERR_PATH COMMAND...

Linux folds the peak RSS of the image a process replaces at exec into its
own ``ru_maxrss``, and a child made by ``posix_spawn`` replaces an image
that shares the spawning process's memory.  So the benchmark spawns each
child from this small, fresh process, to keep its own memory out of the
child's figure.  The command is killed after TIMEOUT_S seconds.
"""

import json
import os
import signal
import sys
import threading
import time


def _kill(pid: int, reaped: threading.Event) -> None:
    if not reaped.is_set():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def main() -> None:
    result_path, timeout, err_path, *cmd = sys.argv[1:]
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    reaped = threading.Event()
    start = time.monotonic()
    pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=actions)
    timer = threading.Timer(float(timeout), _kill, (pid, reaped))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
        end = time.monotonic()
        reaped.set()
    finally:
        timer.cancel()
        timer.join()
    result = {
        "start": start,
        "wall_s": end - start,
        "rc": os.waitstatus_to_exitcode(status),
        "rss_mb": usage.ru_maxrss / 1024,  # Linux reports KiB
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
