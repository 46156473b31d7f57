"""Process groups: every program process the benchmark starts leads one.

A server CLI spawns shard processes and a grid process spawns pool workers;
starting each in its own session lets the benchmark stop, and wait for, the
whole tree.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path


def group_pids(pgid: int) -> list[int]:
    """Live (non-zombie) processes of process group *pgid*."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = Path(f"/proc/{entry}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            out.append(int(entry))
    return out


def stop_group(proc: subprocess.Popen, first: signal.Signals, grace_s: float = 20.0) -> None:
    """Send *first* to the leader, then SIGKILL the group if it lingers.

    Returns once no process of the group is left.  Safe to call twice.
    """
    if proc.poll() is None:
        proc.send_signal(first)
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            print(f"process {proc.pid} ignored {first.name}; killing its group",
                  file=sys.stderr)
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    deadline = time.monotonic() + grace_s
    while group_pids(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    if group_pids(proc.pid):
        os.killpg(proc.pid, signal.SIGKILL)
        while group_pids(proc.pid):
            time.sleep(0.05)
