"""Run one program process at a time and measure it as a user would see it.

Wall time runs from spawn to exit and includes interpreter start-up and
imports. Peak RSS is the child's own high-water mark from os.wait4, not the
benchmark process's. stdout is read to the end through a pipe, as a shell
pipeline would; stderr goes to a file so the two streams cannot block each
other.

Linux carries a parent's RSS high-water mark into a child across fork and
exec, so a child of the benchmark process (which holds numpy and the reference
matrices) would report at least that process's RSS. Commands are therefore
started by a small launcher process (this file run as a script, stdlib only)
and their peak RSS has only the launcher's ~13 MB as a floor.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# what the `attrscale` console script runs
CLI_ENTRY = "import sys; from attrscale.cli import main; sys.exit(main())"

# the README's API use: load a snapshot and suggest attribute groups
GROUPS_CUTOFF, GROUPS_MAX_SIZE = 3.0, 4
GROUPS_ENTRY = f"""\
import json, sys
from attrscale import load_snapshot, suggest_groups
bundle = load_snapshot(sys.argv[1]).bundle
groups = suggest_groups(bundle, cutoff={GROUPS_CUTOFF}, max_size={GROUPS_MAX_SIZE})
print(json.dumps([[list(g.attributes), g.cohesion] for g in groups]))
"""

TIMEOUT_S = 150.0


@dataclass(frozen=True)
class ProcResult:
    argv: tuple[str, ...]
    returncode: int  # -1 on timeout
    wall_s: float
    cpu_s: float  # the child's user + system time
    peak_rss_mb: float
    stdout: bytes
    stderr: str

    @property
    def ok(self) -> bool:
        return self.returncode == 0


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def program_env(root: Path) -> dict[str, str]:
    """Environment that makes the checkout's own package importable."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure(argv: list[str], cwd: str) -> tuple[int, float, float, float, bytes, str]:
    """Run argv in cwd to completion (or kill it at TIMEOUT_S): returncode, wall, CPU, peak RSS MB, stdout, stderr."""
    stderr_path = Path(cwd) / ".stderr"
    previous = signal.signal(signal.SIGALRM, _alarm)
    chunks: list[bytes] = []
    t0 = time.perf_counter()
    try:
        with open(stderr_path, "wb") as err:
            child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, stdin=subprocess.DEVNULL, cwd=cwd)
        fd = child.stdout.fileno()
        status = usage = None
        signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
        try:
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
            _, status, usage = os.wait4(child.pid, 0)
        except _Timeout:
            pass
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        if usage is None:
            child.kill()
            _, _, usage = os.wait4(child.pid, 0)
            code = -1
        else:
            code = os.waitstatus_to_exitcode(status)
        child.returncode = code  # reaped here; keep Popen from waiting again
        child.stdout.close()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    stderr = stderr_path.read_text(encoding="utf-8", errors="replace")
    stderr_path.unlink()
    # ru_maxrss is in KiB on Linux
    return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, b"".join(chunks), stderr


def serve() -> None:
    """Launcher loop: one JSON request per stdin line, one JSON reply per stdout line.

    The child's stdout is left in <cwd>/.stdout for the benchmark process to read.
    """
    for line in sys.stdin:
        req = json.loads(line)
        code, wall, cpu, rss, out, err = measure(req["argv"], req["cwd"])
        Path(req["cwd"], ".stdout").write_bytes(out)
        reply = {"returncode": code, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "stderr": err[-2000:]}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


class Launcher:
    """The benchmark process's handle on the launcher; close() stops it."""

    def __init__(self, env: dict[str, str]) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True
        )

    def run(self, argv: list[str], cwd: Path) -> ProcResult:
        self._proc.stdin.write(json.dumps({"argv": argv, "cwd": str(cwd)}) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher process exited")
        reply = json.loads(line)
        stdout_path = cwd / ".stdout"
        stdout = stdout_path.read_bytes()
        stdout_path.unlink()
        return ProcResult(
            tuple(argv), reply["returncode"], reply["wall_s"], reply["cpu_s"], reply["peak_rss_mb"], stdout, reply["stderr"]
        )

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=TIMEOUT_S + 10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    serve()
