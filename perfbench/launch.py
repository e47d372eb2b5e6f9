"""Run one command to exit and report its times and peak memory as JSON.

    python3 perfbench/launch.py STDOUT_FILE STDERR_FILE PROGRAM [ARG ...]

The command's stdout and stderr go to the two files.  The report is
{"start", "end", "wall_s", "cpu_s", "maxrss_kib", "status"}, with start
and end from time.monotonic().

Linux records the spawning process's peak resident set in the child's
ru_maxrss when the child calls exec, so a command started by the
benchmark process, which holds 8 MB outputs and has osctab imported,
would report the benchmark's memory instead of its own.  This launcher
stays smaller than any osctab command, so ru_maxrss is the command's.
"""

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    stdout_path, stderr_path, *command = argv
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out = os.open(stdout_path, flags, 0o644)
    err = os.open(stderr_path, flags, 0o644)
    started = time.monotonic()
    pid = os.posix_spawn(command[0], command, os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, out, 1),
        (os.POSIX_SPAWN_DUP2, err, 2),
    ])
    _, status, usage = os.wait4(pid, 0)
    ended = time.monotonic()
    os.close(out)
    os.close(err)
    json.dump({
        "start": started,
        "end": ended,
        "wall_s": ended - started,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kib": usage.ru_maxrss,
        "status": os.waitstatus_to_exitcode(status),
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
