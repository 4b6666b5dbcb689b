"""Local worker launcher: N sweep workers as localhost subprocesses.

Single-host use of the remote transport (and every test of it) spawns its
workers through :class:`LocalWorkerPool`: each worker is a fresh Python
process running ``python -m repro.experiments.remote --connect HOST:PORT``
— exactly the loop the ``react-repro worker`` CLI entry runs on another
machine, so the local and multi-host paths exercise identical code.

The spawned interpreter gets the current :mod:`repro` package's parent
directory prepended to ``PYTHONPATH``, so the pool works identically from
an installed package, an editable install, or a plain ``PYTHONPATH=src``
checkout.
"""

from __future__ import annotations

import logging
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

log = logging.getLogger("repro.remote.launcher")


def worker_command(address: Tuple[str, int]) -> List[str]:
    """The argv that starts one worker process against ``address``."""
    return [
        sys.executable,
        "-m",
        "repro.experiments.remote",
        "--connect",
        f"{address[0]}:{address[1]}",
    ]


class LocalWorkerPool:
    """``count`` localhost worker subprocesses connected to one coordinator."""

    def __init__(self, count: int, address: Tuple[str, int]) -> None:
        import repro

        env = dict(os.environ)
        package_parent = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_parent if not existing else package_parent + os.pathsep + existing
        )
        command = worker_command(address)
        self.processes: List[subprocess.Popen] = [
            subprocess.Popen(command, env=env) for _ in range(count)
        ]
        log.info(
            "spawned %d local worker(s) for %s:%d (pids %s)",
            count,
            address[0],
            address[1],
            self.pids,
        )

    @property
    def pids(self) -> List[int]:
        return [process.pid for process in self.processes]

    def all_exited(self) -> bool:
        """True once every spawned worker process has terminated."""
        return all(process.poll() is not None for process in self.processes)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Terminate any still-running workers and reap every process."""
        for process in self.processes:
            if process.poll() is None:
                try:
                    process.terminate()
                except OSError:
                    pass
        deadline = time.monotonic() + timeout
        for process in self.processes:
            remaining = deadline - time.monotonic()
            try:
                process.wait(timeout=max(0.0, remaining))
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        log.info("local worker pool drained (pids %s)", self.pids)
