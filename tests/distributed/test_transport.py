"""Transport-layer tests: framing failure paths, worker-death
detection, the standalone (hosts=) worker, and lifecycle."""

import multiprocessing
import os
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.churn.models import RegularChurn
from repro.core.slices import SlicePartition
from repro.distributed import DistributedSimulation
from repro.distributed.framing import (
    ConnectionClosed,
    FrameError,
    recv_frame,
    recv_message,
    send_frame,
    send_message,
)
from repro.distributed.transport import parse_host_port
from repro.sharded import ShardedSimulation
from repro.vectorized import metrics as vmetrics
from repro.vectorized.simulation import VectorSimulation
from tests.conftest import executor_threads


def make_sim(workers=2, transport="loopback", size=120, **overrides):
    kwargs = dict(
        size=size,
        partition=SlicePartition.equal(8),
        protocol="ranking",
        view_size=6,
        seed=9,
        **overrides,
    )
    return DistributedSimulation(workers=workers, transport=transport, **kwargs)


class TestFraming:
    def pair(self):
        return socket.socketpair()

    def test_roundtrip(self):
        a, b = self.pair()
        send_message(a, {"x": np.arange(5), "y": "hello"})
        message = recv_message(b)
        assert message["y"] == "hello"
        assert np.array_equal(message["x"], np.arange(5))
        a.close()
        b.close()

    def test_multiple_frames_in_order(self):
        a, b = self.pair()
        for i in range(5):
            send_frame(a, bytes([i]) * (i + 1))
        for i in range(5):
            assert recv_frame(b) == bytes([i]) * (i + 1)
        a.close()
        b.close()

    def test_clean_close_between_frames(self):
        a, b = self.pair()
        send_frame(a, b"last")
        a.close()
        assert recv_frame(b) == b"last"
        with pytest.raises(ConnectionClosed):
            recv_frame(b)
        b.close()

    def test_truncated_payload(self):
        a, b = self.pair()
        # Announce 100 bytes, deliver 3, die.
        a.sendall(struct.pack(">Q", 100) + b"abc")
        a.close()
        with pytest.raises(FrameError, match="truncated"):
            recv_frame(b)
        b.close()

    def test_truncated_header(self):
        a, b = self.pair()
        a.sendall(b"\x00\x00\x00")  # 3 of 8 header bytes
        a.close()
        with pytest.raises(FrameError, match="truncated"):
            recv_frame(b)
        b.close()

    def test_oversized_announcement_rejected_before_read(self):
        a, b = self.pair()
        a.sendall(struct.pack(">Q", 1 << 40))
        with pytest.raises(FrameError, match="cap"):
            recv_frame(b, max_frame=1 << 20)
        a.close()
        b.close()

    def wire_bytes(self, obj) -> bytes:
        """Everything ``send_message(obj)`` puts on the wire."""
        a, b = self.pair()
        sender = threading.Thread(target=send_message, args=(a, obj))
        sender.start()
        (total,) = struct.unpack(">Q", b.recv(8, socket.MSG_WAITALL))
        body = bytearray()
        while len(body) < total:
            body += b.recv(total - len(body))
        sender.join(timeout=10)
        a.close()
        b.close()
        return struct.pack(">Q", total) + bytes(body)

    def test_large_message_is_received_in_place(self):
        # 8 MB, far beyond the socket buffer, so the sender needs its own
        # thread: two out-of-band arrays and an empty one.
        sent = {
            "wide": np.arange(625_000, dtype=np.float64),
            "ring": (np.arange(3_000_000) % 251).astype(np.uint8).reshape(-1, 1250),
            "none": np.empty(0, dtype=np.int64),
        }
        a, b = self.pair()
        sizes = []
        sender = threading.Thread(
            target=lambda: sizes.append(send_message(a, sent))
        )
        tracemalloc.start()
        try:
            sender.start()
            received, total = recv_message(b, with_size=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sender.join(timeout=10)
        assert not sender.is_alive() and sizes == [total] and total > 8_000_000
        assert received.keys() == sent.keys()
        for name, array in sent.items():
            assert received[name].dtype == array.dtype
            assert np.array_equal(received[name], array)
        # Every buffer lands once, in the memory the array keeps: no
        # chunk list, no joined copy (which made it 2 x the frame).
        assert peak <= 1.2 * total
        received["wide"][0] = -1.0  # and that memory is the array's own
        a.close()
        b.close()

    def test_message_truncated_inside_a_buffer(self):
        wire = self.wire_bytes({"x": np.arange(1000, dtype=np.int64)})
        a, b = self.pair()
        a.sendall(wire[:-3000])
        a.close()
        with pytest.raises(FrameError, match=r"after 5000 of 8000 payload bytes"):
            recv_message(b)
        with pytest.raises(ConnectionClosed):
            recv_message(b)  # a clean EOF where a header would start
        b.close()

    def test_message_lengths_are_checked_before_allocation(self):
        a, b = self.pair()
        a.sendall(struct.pack(">Q", 1 << 40))  # over the frame cap
        with pytest.raises(FrameError, match="cap"):
            recv_message(b, max_frame=1 << 20)
        # Under the cap, but one buffer claims a terabyte.
        a.sendall(struct.pack(">QIQQ", 100, 1, 10, 1 << 40))
        with pytest.raises(FrameError, match="inconsistent"):
            recv_message(b)
        a.close()
        b.close()

    def test_oversized_send_rejected(self):
        a, b = self.pair()
        with pytest.raises(FrameError, match="cap"):
            send_frame(a, b"x" * 1025, max_frame=1024)
        a.close()
        b.close()

    def test_parse_host_port(self):
        assert parse_host_port("localhost:7077") == ("localhost", 7077)
        with pytest.raises(ValueError, match="host:port"):
            parse_host_port("no-port")
        with pytest.raises(ValueError, match="port"):
            parse_host_port("host:seven")


class TestWorkerDeath:
    """A worker dying mid-run must surface as an immediate, named
    error on the next exchange — never a hang."""

    def test_killed_tcp_worker_raises(self):
        sim = make_sim(workers=2, transport="tcp")
        try:
            sim.run(2)
            victim = sim.executor._workers[1]
            victim.process.kill()
            victim.process.join(timeout=5)
            with pytest.raises(RuntimeError, match="worker 1 .* died"):
                sim.run(3)
        finally:
            sim.close()

    def test_killed_pool_worker_raises_and_metrics_survive(self, monkeypatch):
        # The id dates from the process pool, where a worker could be
        # killed.  A thread fails by raising: a kernel's exception on a
        # non-calling thread must surface as that exception — command
        # and shard named, every other shard joined first — with the
        # metrics still answered and close() leaving nothing behind.
        from repro.vectorized import executor as executor_module

        fold = executor_module.DISPATCH["rank_fold"]
        raised_on = []

        def failing_fold(ctx, **payload):
            if ctx.lo > 0:
                raised_on.append(threading.current_thread().name)
                raise FloatingPointError("injected kernel failure")
            return fold(ctx, **payload)

        sim = ShardedSimulation(
            size=300, partition=SlicePartition.equal(8), view_size=6, seed=9, workers=2
        )
        try:
            sim.run(2)
            monkeypatch.setitem(executor_module.DISPATCH, "rank_fold", failing_fold)
            with pytest.raises(FloatingPointError) as raised:
                sim.run(1)
            assert raised.value.args == ("injected kernel failure",)
            assert raised.value.__notes__ == [
                "command 'rank_fold' failed on shard 1 of 2"
            ]
            assert raised_on and raised_on[0].startswith(executor_module.THREAD_PREFIX)
            state = sim.state
            live = state.live_ids()
            assert sim.slice_disorder() == vmetrics.slice_disorder_arrays(
                state.attribute[live], state.value[live], live, sim.geometry
            )
        finally:
            started = time.time()
            sim.close()
        assert time.time() - started < 5
        assert not multiprocessing.active_children()
        assert not executor_threads()

    def test_worker_error_propagates_with_traceback(self):
        sim = make_sim(workers=2, transport="loopback")
        try:
            sim.run(1)
            with pytest.raises(RuntimeError, match="no-such-command"):
                sim.executor.run("no-such-command", [{}, {}])
            # The pool survives a command error and keeps serving.
            sim.run(1)
        finally:
            sim.close()


class TestStandaloneWorker:
    """The multi-host mode: pre-started listening workers reached via
    ``hosts=["host:port", ...]``."""

    def _free_port(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def test_hosts_mode_end_to_end(self):
        ports = [self._free_port(), self._free_port()]
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        listeners = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.distributed.worker",
                    "--listen",
                    f"127.0.0.1:{port}",
                ],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
            )
            for port in ports
        ]
        sim = None
        try:
            time.sleep(1.0)  # let the listeners bind
            kwargs = dict(
                size=120,
                partition=SlicePartition.equal(8),
                protocol="ranking",
                view_size=6,
                seed=9,
            )
            deadline = time.time() + 15
            while True:
                try:
                    sim = DistributedSimulation(
                        hosts=[f"127.0.0.1:{port}" for port in ports], **kwargs
                    )
                    break
                except (OSError, ConnectionError):
                    if time.time() > deadline:
                        raise
                    time.sleep(0.3)
            assert sim.workers == 2
            sim.run(4)
            vectorized = VectorSimulation(**kwargs)
            vectorized.run(4)
            state = sim.sync_state()
            n = vectorized.state.size
            assert np.array_equal(
                vectorized.state.view_ids[:n], state.view_ids[:n]
            )
            assert np.array_equal(vectorized.state.value[:n], state.value[:n])
            sim.close()
            # Standing workers keep listening: a second driver session
            # against the same hosts must work (figure sweeps build
            # several simulations per run).
            deadline = time.time() + 15
            while True:
                try:
                    sim = DistributedSimulation(
                        hosts=[f"127.0.0.1:{port}" for port in ports], **kwargs
                    )
                    break
                except (OSError, ConnectionError):
                    if time.time() > deadline:
                        raise
                    time.sleep(0.3)
            sim.run(2)
            assert sim.live_count == 120
        finally:
            if sim is not None:
                sim.close()
            for process in listeners:
                process.terminate()
                process.wait(timeout=10)


class TestLifecycle:
    def test_close_is_idempotent(self):
        sim = make_sim(workers=2)
        sim.run(2)
        sim.close()
        sim.close()

    def test_run_after_close_raises_instead_of_diverging(self):
        # A fresh executor after close() would snapshot the driver's
        # stale heavy columns and silently lose parity — must refuse.
        sim = make_sim(workers=2)
        sim.run(2)
        sim.close()
        with pytest.raises(RuntimeError, match="closed"):
            sim.run(1)

    def test_refused_cycle_leaves_the_closed_simulation_untouched(self):
        # The refusal comes before the cycle is planned: no churn (and
        # no due rebalance) may land on the driver's copy first.
        churn = RegularChurn(rate=0.01, period=1)
        sim = make_sim(workers=2, size=2000, churn=churn, rebalance_every=2)
        sim.run(4)
        sim.close()

        def snapshot():
            return (
                sim.state.size,
                sim.state.alive[: sim.state.size].tobytes(),
                sim.slice_disorder(),
                sim.now,
                {name: repr(g.bit_generator.state) for name, g in sim._np_rngs.items()},
            )

        before = snapshot()
        with pytest.raises(RuntimeError, match="closed"):
            sim.run_cycle()
        assert snapshot() == before

    def test_close_syncs_state_for_exact_post_close_reads(self):
        kwargs = dict(
            size=120,
            partition=SlicePartition.equal(8),
            protocol="ranking",
            view_size=6,
            seed=9,
        )
        vectorized = VectorSimulation(**kwargs)
        vectorized.run(4)
        sim = DistributedSimulation(workers=2, transport="loopback", **kwargs)
        sim.run(4)
        sim.close()
        # Metric fallbacks after close read the driver's local copy,
        # which the final sync made an exact replica (obs counters are
        # heavy columns — they only exist driver-side via that sync).
        assert sim.confident_fraction() == vectorized.confident_fraction()
        n = vectorized.state.size
        assert np.array_equal(
            vectorized.state.view_ids[:n], sim.state.view_ids[:n]
        )

    def test_context_manager_releases_workers(self):
        with make_sim(workers=2, transport="tcp") as sim:
            sim.run(1)
            processes = [handle.process for handle in sim.executor._workers]
        deadline = time.time() + 5
        while time.time() < deadline and any(p.is_alive() for p in processes):
            time.sleep(0.05)
        assert all(not p.is_alive() for p in processes)

    def test_garbage_collection_releases_workers(self):
        import gc
        import weakref

        sim = make_sim(workers=2, transport="tcp")
        sim.run(1)
        processes = [handle.process for handle in sim.executor._workers]
        ref = weakref.ref(sim)
        del sim
        gc.collect()
        assert ref() is None, "simulation kept alive by its own finalizer"
        deadline = time.time() + 5
        while time.time() < deadline and any(p.is_alive() for p in processes):
            time.sleep(0.05)
        assert all(not p.is_alive() for p in processes)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_start_methods(self, method, monkeypatch):
        import multiprocessing

        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method!r} unsupported here")
        monkeypatch.setenv("REPRO_DISTRIBUTED_START_METHOD", method)
        kwargs = dict(
            size=100,
            partition=SlicePartition.equal(8),
            protocol="ranking",
            view_size=6,
            seed=2,
        )
        vectorized = VectorSimulation(**kwargs)
        vectorized.run(3)
        with DistributedSimulation(workers=2, transport="tcp", **kwargs) as sim:
            sim.run(3)
            state = sim.sync_state()
            n = vectorized.state.size
            assert np.array_equal(
                vectorized.state.view_ids[:n], state.view_ids[:n]
            )
