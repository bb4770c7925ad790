"""Starting the program under test the way a user does.

Wire workloads launch ``python -m repro serve`` as a child process
with its default front and worker count; only the engine is chosen,
through ``REPRO_ENGINE=numpy``.  Nothing in ``src/`` is patched: the
child imports the package from the checkout's ``src`` directory.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

ENGINE = "numpy"
BANNER_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class Server:
    """One ``repro serve`` child, up and listening on an ephemeral port."""

    def __init__(self, root: Path, csvs: dict[str, Path], wal: Path | None = None):
        env = dict(os.environ, REPRO_ENGINE=ENGINE)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        for name, path in sorted(csvs.items()):
            command += ["--relation", f"{name}={path}"]
        if wal is not None:
            command += ["--wal", str(wal)]
        self.launched = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        self.output: deque[str] = deque(maxlen=50)
        self._banner: str | None = None
        self._listening = threading.Event()
        # Drain the merged stdout/stderr for the child's whole life, so
        # a chatty child can never block on a full pipe.
        self._pump = threading.Thread(target=self._read_output, daemon=True)
        self._pump.start()
        deadline = time.monotonic() + BANNER_TIMEOUT_S
        while not self._listening.wait(0.05):
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                tail = "\n".join(self.output)
                raise RuntimeError(f"repro serve did not start:\n{tail}")
        #: Launch -> listening (the banner is printed once bound).
        self.boot_s = time.perf_counter() - self.launched
        self.url = re.search(r"http://[0-9.:]+", self._banner).group(0)

    def _read_output(self) -> None:
        for line in self.process.stdout:
            self.output.append(line.rstrip())
            if self._banner is None and line.startswith("repro serving on "):
                self._banner = line.strip()
                self._listening.set()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self, graceful: bool = True) -> None:
        """SIGTERM (the server drains), then wait; kill if it hangs.
        ``graceful=False`` kills at once: for a server that only timed
        a set-up and holds nothing worth draining."""
        if self.process.poll() is None:
            if graceful:
                self.process.send_signal(signal.SIGTERM)
            else:
                self.process.kill()
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._pump.join(timeout=STOP_TIMEOUT_S)
        self.process.stdout.close()
