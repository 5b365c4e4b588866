"""Child processes of the benchmark: timed one-shot runs and daemons
that are always stopped and reaped."""

import os
import re
import select
import signal
import subprocess
import time


class BenchError(Exception):
    """A run that cannot produce a result (build, setup or daemon failure)."""


def run_timed(cmd, cwd, stdout_path, stderr_path, timeout=170):
    """Runs `cmd` to completion. Returns (wall seconds, exit code, peak
    RSS in MB of that process alone, from wait4)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err)
        deadline = t0 + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise BenchError(f"{cmd[0]} timed out after {timeout} s")
            time.sleep(0.002)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def run_checked(cmd, cwd, log_path, timeout=170):
    """Runs `cmd`, returns its stdout; raises BenchError with the log tail
    on a non-zero exit."""
    with open(log_path, "wb") as err:
        try:
            res = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=err,
                                 timeout=timeout)
        except subprocess.TimeoutExpired as e:
            raise BenchError(f"{os.path.basename(cmd[0])} timed out") from e
    if res.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:2])} exited {res.returncode}: {tail(log_path)}")
    return res.stdout.decode()


def tail(path, lines=5):
    try:
        with open(path, errors="replace") as f:
            return " | ".join(f.read().strip().splitlines()[-lines:])
    except OSError:
        return ""


def vm_hwm_mb(pid):
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


_live = set()


def kill_all():
    """Kills every daemon still running (an aborted run's leftovers)."""
    for daemon in list(_live):
        daemon.kill()


class Daemon:
    """An `er serve` / `er supervise` process: started, its `serving on`
    banner awaited, and on stop drained with SIGTERM and reaped."""

    def __init__(self, cmd, cwd, log_path, banner_timeout=60):
        self.log_path = log_path
        self.log = open(log_path, "wb")
        self.proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=self.log)
        _live.add(self)
        self.addr = None
        deadline = time.monotonic() + banner_timeout
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
                break
            line = self.proc.stdout.readline()
            if line.startswith(b"serving on "):
                host, port = line.split()[-1].decode().rsplit(":", 1)
                self.addr = (host, int(port))
                return
            if not line:
                break
        self.kill()
        raise BenchError(f"{cmd[1]} did not come up: {tail(log_path)}")

    def child_pids(self):
        """Pids of the supervisor's serving children, from its log."""
        with open(self.log_path, errors="replace") as f:
            text = f.read()
        return [int(p) for p in re.findall(r"^supervise: child \d+ \(.*?\) pid (\d+)", text, re.M)]

    def stop(self, timeout=30):
        """SIGTERM (drain), wait; returns the exit code and the log text."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.kill()
                raise BenchError(f"daemon did not drain in {timeout} s")
        self._close()
        with open(self.log_path, errors="replace") as f:
            return self.proc.returncode, f.read()

    def kill(self):
        """SIGKILL the daemon and any serving children it logged."""
        if self.proc.poll() is None:
            for pid in self.child_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            self.proc.kill()
            self.proc.wait()
        self._close()

    def _close(self):
        _live.discard(self)
        self.proc.stdout.close()
        self.log.close()
