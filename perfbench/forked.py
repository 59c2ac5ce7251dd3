"""Run one function in a fresh forked process and collect its result.

Every benchmark run happens in its own child, forked from a lean parent, so
peak resident memory, blinder pools and patched functions never leak from
one run into the next.  The child leads its own process group; whatever it
starts (the live runner's workers) joins that group.  The parent registers
as a child subreaper, so on a timeout it can kill the whole group and reap
every member, orphaned workers included.
"""

from __future__ import annotations

import ctypes
import os
import pickle
import select
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

_PR_SET_CHILD_SUBREAPER = 36
_PAGE_KIB = os.sysconf("SC_PAGE_SIZE") // 1024
_SAMPLE_SECONDS = 0.05


@dataclass
class Outcome:
    status: str                  # "ok", "error" or "timeout"
    value: Any = None            # the function's return value when ok
    error: str = ""
    tree_peak_rss_kib: int = 0   # sampled peak of child + its children


def become_subreaper() -> None:
    """Adopt orphaned descendants so that they can be reaped here."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _tree_rss_kib(pid: int) -> int:
    """Resident memory of *pid* plus its direct children (0 once gone)."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as handle:
            pids = [pid, *map(int, handle.read().split())]
    except OSError:
        return 0
    total = 0
    for member in pids:
        try:
            with open(f"/proc/{member}/statm", encoding="ascii") as handle:
                total += int(handle.read().split()[1]) * _PAGE_KIB
        except (OSError, IndexError, ValueError):
            continue
    return total


def run_forked(function: Callable[..., Any], args: tuple, timeout: float) -> Outcome:
    """Call ``function(*args)`` in a forked child; kill its group after *timeout*."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        status = 1
        try:
            os.setpgid(0, 0)
            os.close(read_fd)
            try:
                payload = ("ok", function(*args))
            except Exception:
                payload = ("error", traceback.format_exc())
            with os.fdopen(write_fd, "wb") as writer:
                writer.write(pickle.dumps(payload))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        os.setpgid(pid, pid)
    except (PermissionError, ProcessLookupError):
        pass  # the child already did it, or already exec'd/exited
    chunks: list[bytes] = []
    peak = 0
    deadline = time.monotonic() + timeout
    timed_out = False
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                timed_out = True
                break
            ready, _, _ = select.select([read_fd], [], [], min(remaining, _SAMPLE_SECONDS))
            peak = max(peak, _tree_rss_kib(pid))
            if ready:
                chunk = os.read(read_fd, 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(read_fd)
        _kill_and_reap(pid)
    if timed_out:
        return Outcome("timeout", error=f"run exceeded {timeout:.0f} s",
                       tree_peak_rss_kib=peak)
    if not chunks:
        return Outcome("error", error="child exited without a result",
                       tree_peak_rss_kib=peak)
    status, value = pickle.loads(b"".join(chunks))
    if status != "ok":
        return Outcome("error", error=value, tree_peak_rss_kib=peak)
    return Outcome("ok", value=value, tree_peak_rss_kib=peak)


def _kill_and_reap(pgid: int) -> None:
    """Kill what is left of the group and wait for every member to end."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    while True:
        try:
            os.waitpid(-pgid, 0)
        except ChildProcessError:
            return
