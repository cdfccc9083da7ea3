"""``python -m repro.serve`` process lifecycle: a signal never orphans workers."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List

import pytest

import repro

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc"),
                                reason="walks the process tree via /proc")

#: the directory holding the ``repro`` package, for the child's PYTHONPATH
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def descendants(pid: int) -> List[int]:
    """Every live process below ``pid`` in the process tree."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry))
    found: List[int] = []
    frontier = [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def alive(pid: int) -> bool:
    """Is ``pid`` a running (not zombie) process?"""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def start_fleet_cli(artifact: str) -> subprocess.Popen:
    """Start a 2-worker fleet CLI; return once it prints its address."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [PACKAGE_ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", artifact, "--fleet", "2",
         "--port", "0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    ready = threading.Event()
    lines: List[str] = []

    def read() -> None:
        for line in process.stdout:
            lines.append(line)
            if line.startswith("serving ") and "http://" in line:
                ready.set()

    threading.Thread(target=read, daemon=True).start()
    if not ready.wait(timeout=120):
        process.kill()
        process.wait(timeout=10)
        pytest.fail("fleet CLI did not start: " + "".join(lines))
    return process


class TestFleetCliShutdown:
    def test_sigterm_stops_the_parent_and_every_worker(self, artifact_dir):
        process = start_fleet_cli(artifact_dir)
        tree = descendants(process.pid)
        survivors = tree
        try:
            assert len(tree) >= 2          # at least the two workers
            process.send_signal(signal.SIGTERM)
            returncode = process.wait(timeout=30)
            deadline = time.monotonic() + 15
            survivors = [pid for pid in tree if alive(pid)]
            while survivors and time.monotonic() < deadline:
                time.sleep(0.05)
                survivors = [pid for pid in survivors if alive(pid)]
            assert not survivors, f"processes outlived SIGTERM: {survivors}"
            assert returncode == 0     # the Ctrl-C teardown ran
        finally:
            for pid in [process.pid] + survivors:   # never leak a process
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            process.wait(timeout=10)
            process.stdout.close()
