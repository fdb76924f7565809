"""Transports for the distributed backend: who the workers are and how
their framed messages move.

Three ways to obtain a set of connected workers, all yielding the same
:class:`Endpoint` surface (so the driver and the worker loop are
transport-agnostic):

* :func:`launch_local_tcp` — the driver binds an ephemeral localhost
  listener and spawns one OS process per worker; each worker connects
  back over real TCP sockets.  This is the CI-exercisable stand-in for
  a multi-host deployment: same framing, same protocol, same failure
  modes, only the hostnames differ.
* :func:`connect_remote` — the driver connects out to pre-started
  workers (``python -m repro.distributed.worker --listen HOST:PORT``
  on each machine), for genuinely multi-host runs.
* :func:`launch_loopback` — one in-process thread per worker over a
  ``socketpair``.  Messages still travel as pickled frames through the
  kernel, so serialization bugs cannot hide, but there is no TCP stack
  and no process spawn — the fast path for tests.

The driver detects worker death as a transport error on the next
exchange (:class:`~repro.distributed.framing.ConnectionClosed` /
:class:`~repro.distributed.framing.FrameError`) and raises instead of
hanging; see :meth:`WorkerHandle.fail`.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
import time
from typing import List, Optional, Sequence, Tuple

from repro.distributed.framing import (
    DEFAULT_MAX_FRAME,
    TransportError,
    recv_message,
    send_message,
)

__all__ = [
    "Endpoint",
    "WorkerHandle",
    "launch_local_tcp",
    "launch_loopback",
    "connect_remote",
    "parse_host_port",
]

#: Transport names accepted by :class:`DistributedSimulation`.
TRANSPORTS = ("tcp", "loopback")


class Endpoint:
    """One framed-message channel over a connected socket.

    Every message moves as one pickled frame, and the endpoint keeps
    monotonic frame/byte counters in both directions — the ground
    truth the distributed driver's telemetry reads to attribute wire
    traffic per command.
    """

    def __init__(self, sock: socket.socket, max_frame: int = DEFAULT_MAX_FRAME):
        self._sock = sock
        self.max_frame = max_frame
        self.sent_frames = 0
        self.sent_bytes = 0
        self.recv_frames = 0
        self.recv_bytes = 0
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket (loopback socketpair)

    def send(self, obj) -> None:
        self.sent_bytes += send_message(self._sock, obj, self.max_frame)
        self.sent_frames += 1

    def recv(self):
        obj, total = recv_message(self._sock, self.max_frame, with_size=True)
        self.recv_frames += 1
        self.recv_bytes += total
        return obj

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class WorkerHandle:
    """One worker: its endpoint plus whatever runs it (a local process,
    a local thread, or nothing we control for remote workers)."""

    def __init__(
        self,
        index: int,
        endpoint: Endpoint,
        process=None,
        thread: Optional[threading.Thread] = None,
        address: str = "local",
        hello: Optional[dict] = None,
    ) -> None:
        self.index = index
        self.endpoint = endpoint
        self.process = process
        self.thread = thread
        self.address = address
        #: The worker's first message ({"type": "hello", "pid": ...}),
        #: consumed by the launcher so local processes can be matched
        #: to their connections by pid.
        self.hello = hello
        #: Set once the channel died mid-protocol: the other channels
        #: may still hold replies of the broken command, so no sync.
        self.failed = False

    def fail(self, command: str, error: Exception) -> "RuntimeError":
        """The error the driver raises when this worker's channel dies
        mid-protocol — named, immediate, never a hang."""
        self.failed = True
        return RuntimeError(
            f"distributed worker {self.index} ({self.address}) died during "
            f"command {command!r}: {error}"
        )

    def alive(self) -> bool:
        if self.process is not None:
            return self.process.is_alive()
        if self.thread is not None:
            return self.thread.is_alive()
        return True  # remote: liveness only observable through the socket

    def stop(self, timeout: float = 5.0) -> None:
        """Close the channel and reap the local process/thread."""
        try:
            self.endpoint.send(None)  # cooperative shutdown
        except (TransportError, OSError):
            pass
        self.endpoint.close()
        if self.process is not None:
            self.process.join(timeout=timeout)
            if self.process.is_alive():  # pragma: no cover - defensive
                self.process.terminate()
                self.process.join(timeout=1)
        if self.thread is not None:
            self.thread.join(timeout=timeout)


def parse_host_port(spec: str) -> Tuple[str, int]:
    """``"host:port"`` -> ``(host, port)``, with validation."""
    host, sep, port = str(spec).rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"host spec {spec!r} is not of the form 'host:port'"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ValueError(f"host spec {spec!r} has a non-integer port") from None


def _start_method() -> str:
    method = os.environ.get("REPRO_DISTRIBUTED_START_METHOD")
    if method:
        return method
    return (
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )


def launch_local_tcp(
    workers: int,
    max_frame: int = DEFAULT_MAX_FRAME,
    connect_timeout: float = 30.0,
) -> List[WorkerHandle]:
    """Spawn ``workers`` local worker processes connecting back over
    localhost TCP; returns their handles in connect order."""
    from repro.distributed.worker import tcp_worker_main

    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.bind(("127.0.0.1", 0))
        listener.listen(workers)
        address = listener.getsockname()
        context = multiprocessing.get_context(_start_method())
        processes = [
            context.Process(
                target=tcp_worker_main, args=(address, max_frame), daemon=True
            )
            for _ in range(workers)
        ]
        for process in processes:
            process.start()
        handles = []
        deadline = time.monotonic() + connect_timeout
        listener.settimeout(0.5)
        while len(handles) < workers:
            if time.monotonic() > deadline:
                raise TransportError(
                    f"only {len(handles)} of {workers} workers connected "
                    f"within {connect_timeout}s"
                )
            if any(not process.is_alive() for process in processes):
                raise TransportError(
                    "a distributed worker process died before connecting"
                )
            try:
                sock, _peer = listener.accept()
            except socket.timeout:
                continue
            # Bound the hello read too: a connected-but-silent peer
            # must fail the launch, not hang it.
            sock.settimeout(max(deadline - time.monotonic(), 0.1))
            endpoint = Endpoint(sock, max_frame)
            hello = endpoint.recv()
            sock.settimeout(None)
            handles.append(
                WorkerHandle(
                    len(handles),
                    endpoint,
                    address=f"127.0.0.1 pid={hello.get('pid')}",
                    hello=hello,
                )
            )
        # Processes connect in arbitrary order; the hello pid says
        # which process is behind which connection.  (Handle indices
        # are assigned by arrival — workers are symmetric until the
        # init message names their shard range.)
        by_pid = {process.pid: process for process in processes}
        for handle in handles:
            handle.process = by_pid.get(handle.hello.get("pid"))
        return handles
    finally:
        listener.close()


def launch_loopback(
    workers: int, max_frame: int = DEFAULT_MAX_FRAME
) -> List[WorkerHandle]:
    """In-process loopback transport: one serving thread per worker
    over a socketpair, same framed bytes as TCP."""
    from repro.distributed.worker import serve_endpoint

    handles = []
    for index in range(workers):
        driver_sock, worker_sock = socket.socketpair()
        worker_end = Endpoint(worker_sock, max_frame)
        thread = threading.Thread(
            target=serve_endpoint, args=(worker_end,), daemon=True
        )
        thread.start()
        endpoint = Endpoint(driver_sock, max_frame)
        handles.append(
            WorkerHandle(
                index,
                endpoint,
                thread=thread,
                address="loopback",
                hello=endpoint.recv(),
            )
        )
    return handles


def connect_remote(
    hosts: Sequence[str],
    max_frame: int = DEFAULT_MAX_FRAME,
    connect_timeout: float = 30.0,
) -> List[WorkerHandle]:
    """Connect to pre-started listening workers (one per ``host:port``
    spec; start each with
    ``python -m repro.distributed.worker --listen HOST:PORT``)."""
    handles = []
    try:
        for index, spec in enumerate(hosts):
            host, port = parse_host_port(spec)
            sock = socket.create_connection((host, port), timeout=connect_timeout)
            # Keep the timeout through the hello read — a listener that
            # accepts but never speaks must raise, not hang — then go
            # blocking for the (arbitrarily long) command phase.
            endpoint = Endpoint(sock, max_frame)
            hello = endpoint.recv()
            sock.settimeout(None)
            handles.append(
                WorkerHandle(index, endpoint, address=spec, hello=hello)
            )
        return handles
    except BaseException:
        for handle in handles:
            handle.endpoint.close()
        raise
