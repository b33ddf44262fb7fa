"""The server side of a phase: one subprocess hosting every node.

The benchmark boots the real program — ``python -m repro serve --config …``
— or, for the traced passes, the benchmark-owned ``serve_traced.py`` that
installs wrappers and then calls the same ``serve_forever``.  The server is
pinned to one core and the load process to another (unpinned, p50 was
bimodal on identical code); on a one-core box both share and the output
says so.  CPU and memory are read from ``/proc`` — from outside.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["REPO_ROOT", "SRC_DIR", "pin_cores", "ServerProcess",
           "client_rss_mb"]

_HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(_HERE)
REPO_ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_READY_TIMEOUT_S = 30.0
_STOP_TIMEOUT_S = 20.0


def pin_cores() -> Tuple[Optional[int], Optional[int], str]:
    """``(server core, load core, description)``; pins the calling (load)
    process.  With fewer than two usable cores nothing is pinned."""
    try:
        usable = sorted(os.sched_getaffinity(0))
    except AttributeError:       # not Linux
        return None, None, "unpinned (no sched_setaffinity on this platform)"
    if len(usable) < 2:
        return None, None, (f"shared: {len(usable)} usable core, server and "
                            f"load process are not pinned")
    server_core, load_core = usable[0], usable[1]
    os.sched_setaffinity(0, {load_core})
    return server_core, load_core, (f"server on core {server_core}, load "
                                    f"process on core {load_core}")


def client_rss_mb() -> float:
    """Peak resident set of the calling process so far."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ServerProcess:
    """One server subprocess: spawn, wait for the ready line, learn the
    bound ports, sample CPU/RSS from ``/proc``, stop with SIGTERM."""

    def __init__(self, topology: Any, config_path: str, *,
                 wal_dir: Optional[str] = None,
                 core: Optional[int] = None,
                 traced: Optional[Tuple[str, str]] = None):
        """``traced`` is ``(mode, output path)`` — ``spans`` or ``calls`` —
        and selects ``serve_traced.py`` instead of ``python -m repro``."""
        self.topology = topology
        self.config_path = config_path
        self.wal_dir = wal_dir
        self.core = core
        self.traced = traced
        self.proc: Optional[subprocess.Popen] = None
        self.spawned_at = 0.0      # time.time() at spawn
        self.ready_s = 0.0         # spawn -> ready line
        self.exit_code: Optional[int] = None

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        self.topology.save(self.config_path)
        if self.traced is not None:
            mode, out_path = self.traced
            argv = [sys.executable, os.path.join(BENCH_DIR, "serve_traced.py"),
                    "--mode", mode, "--out", out_path]
        else:
            argv = [sys.executable, "-m", "repro", "serve"]
        argv += ["--config", self.config_path]
        if self.wal_dir is not None:
            argv += ["--wal-dir", self.wal_dir]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.spawned_at = time.time()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=subprocess.STDOUT, text=True,
                                     env=env, cwd=REPO_ROOT)
        if self.core is not None:
            os.sched_setaffinity(self.proc.pid, {self.core})
        self._await_ready()
        self.ready_s = time.time() - self.spawned_at

    def _await_ready(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        deadline = time.time() + _READY_TIMEOUT_S
        seen: List[str] = []
        while time.time() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            seen.append(line.rstrip())
            if line.startswith("repro-serve ready"):
                self._learn_ports(line)
                return
        self.kill()
        raise RuntimeError("server did not become ready:\n" + "\n".join(seen))

    def _learn_ports(self, ready_line: str) -> None:
        """The config binds port 0 everywhere (no collisions between runs);
        the ready line names the ports the kernel chose."""
        nodes = _node_specs(self.topology)
        for token in ready_line.split():
            name, sep, address = token.partition("=")
            if sep and name in nodes:
                nodes[name].port = int(address.rsplit(":", 1)[1])
        unbound = [name for name, node in nodes.items() if not node.port]
        if unbound:
            raise RuntimeError(f"ready line named no port for {unbound}")

    # ------------------------------------------------------------------ #
    def cpu_s(self) -> float:
        """User + system CPU the server has used so far."""
        assert self.proc is not None
        with open(f"/proc/{self.proc.pid}/stat", "r", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def rss_mb(self) -> float:
        """Peak resident set (VmHWM) of the server so far."""
        assert self.proc is not None
        with open(f"/proc/{self.proc.pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    # ------------------------------------------------------------------ #
    def stop(self) -> str:
        """SIGTERM, wait, and return whatever the server printed after the
        ready line.  A non-zero exit (a pump failure) raises."""
        if self.proc is None:
            return ""
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            output, _ = proc.communicate(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            output, _ = proc.communicate()
        self.exit_code = proc.returncode
        if proc.returncode != 0:
            raise RuntimeError(f"server exited with code {proc.returncode}:\n"
                               f"{output}")
        return output

    def kill(self) -> None:
        """Unconditional teardown (error paths); never raises."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.kill()
        try:
            proc.communicate(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        self.exit_code = proc.returncode


def _node_specs(topology: Any) -> Dict[str, Any]:
    """``{node name: NodeSpec}`` for a ClusterSpec or a FleetSpec."""
    if hasattr(topology, "all_nodes"):
        return topology.all_nodes()
    return topology.nodes
