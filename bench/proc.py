"""Spawn a child, wait for it with a timeout, and read its peak memory."""

from __future__ import annotations

import os
import select
import signal
import time


def spawn_wait(argv: list[str], env: dict, stdout_path: str, stderr_path: str,
               timeout: float) -> tuple[int, float, int]:
    """Run argv to completion with stdout/stderr sent to files.

    Returns (exit code, wall seconds from spawn to reap, peak RSS in KiB).
    posix_spawn shares the caller's address space until exec, so the child's
    peak RSS is its own and not a copy of the caller's.

    Raises:
        TimeoutError: the child ran longer than timeout; it has been killed
            and reaped.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    fd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([fd], [], [], timeout)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(fd)
    wall = time.perf_counter() - t0
    if not ready:
        raise TimeoutError(f"{argv[1:3]} ran longer than {timeout} s and was killed")
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss


#: numpy's BLAS starts a thread per CPU at import; on a host with two shared
#: vCPUs whether those threads run in parallel depends on the neighbours, and
#: import time with it.  No op of the benchmark does BLAS work.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def program_env(root: str) -> dict:
    """Environment that makes ``import tailbound`` load the checkout's src/,
    with numpy's thread pools held to one thread."""
    env = {**os.environ, **SINGLE_THREADED}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
