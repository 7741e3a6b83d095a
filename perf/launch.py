"""Child processes of the benchmark, measured from outside.

Children run the program exactly as a user would: a fresh interpreter
with ``PYTHONPATH`` pointing at the checkout's ``src``, every
``REPRO_*`` variable removed (so each layer takes its default path) and
``PYTHONHASHSEED=0``.  :func:`launch` runs one to completion - wall
time from spawn to reap, peak RSS from the child's own ``ru_maxrss``
via :func:`os.wait4`; :class:`Resident` keeps one up to answer
requests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import List


@dataclass
class Launch:
    """What one finished child did."""

    returncode: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def child_env(root: str) -> dict:
    """The environment of every child: defaults only, fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(args: List[str], root: str, scratch: str,
           timeout: float = 120.0) -> Launch:
    """Run ``python ARGS`` in ``root``; stdout/stderr go through files in
    ``scratch`` so a chatty child can never block on a full pipe."""
    argv = [sys.executable] + list(args)
    out_path = os.path.join(scratch, "stdout.txt")
    err_path = os.path.join(scratch, "stderr.txt")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=root, env=child_env(root), stdout=out, stderr=err,
            stdin=subprocess.DEVNULL,
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM is turned into SystemExit by run.py):
            # leave no child behind.
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    return Launch(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                  stdout, stderr)


class Resident:
    """A child that stays up and answers one JSON line per request line.

    Use it as a context manager: leaving the block closes its stdin,
    which ends the child, and kills it if it does not end in time.
    """

    def __init__(self, args: List[str], root: str, scratch: str,
                 timeout: float = 120.0):
        self._stderr = open(os.path.join(scratch, "resident.err"), "w+b")
        self.timeout = timeout
        self.proc = subprocess.Popen(
            [sys.executable] + list(args), cwd=root, env=child_env(root),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )

    def __enter__(self) -> "Resident":
        try:
            self.reply()  # the child is ready
        except BaseException as exc:
            self.__exit__(type(exc))
            raise
        return self

    def request(self, line: str) -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self.reply()

    def reply(self) -> dict:
        killer = threading.Timer(self.timeout, self.proc.kill)
        killer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            killer.cancel()
        if not line:
            self._stderr.seek(0)
            raise RuntimeError("resident child failed:\n%s" % (
                self._stderr.read().decode("utf-8", "replace")))
        return json.loads(line)

    def __exit__(self, exc_type, *_exc) -> None:
        try:
            if exc_type is None:
                self.proc.stdin.close()
                self.proc.wait(timeout=self.timeout)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            for stream in (self.proc.stdin, self.proc.stdout, self._stderr):
                try:
                    stream.close()
                except OSError:  # a pipe the dead child left unread
                    pass
