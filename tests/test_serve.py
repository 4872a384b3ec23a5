"""``repro serve`` end to end: socket in, JSONL out.

The daemon's contract (ISSUE PR 7): one JSON object per line in both
directions, responses in completion order correlated by ``id``, invalid
records rejected diagnostically at admission, overload rejected
explicitly (never dropped), lint gating before execution, and per-worker
trace files that parse while the daemon runs.  These tests speak the
real protocol over real sockets — unix-domain and TCP both.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.errors import ReproError
from repro.runtime import RunConfig
from repro.runtime.process_pool import _SHUTDOWN_GRACE, _shard
from repro.runtime.serve import Server, connect

PLAIN = "let f = lambda x. x * x in f %d"
FAC = "letrec fac = lambda x. {fac}: if x = 0 then 1 else x * fac (x - 1) in fac %d"
LOOP = "letrec loop = lambda x. loop (x + 1) in loop 0"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _roundtrip(address, lines, expect):
    """Send ``lines`` on one connection; read ``expect`` response records."""
    sock = connect(address)
    try:
        stream = sock.makefile("rw", encoding="utf-8", newline="\n")
        for line in lines:
            stream.write(json.dumps(line) + "\n")
        stream.flush()
        sock.shutdown(socket.SHUT_WR)
        return [json.loads(stream.readline()) for _ in range(expect)]
    finally:
        sock.close()


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "repro.sock"
    with Server(workers=2, socket_path=str(path)) as daemon:
        yield daemon


class TestUnixSocketE2E:
    def test_mixed_batch_correlates_by_id(self, server):
        lines = [
            {"id": "a", "program": PLAIN % 3},
            {"id": "b", "program": FAC % 5, "tools": "profile"},
            {"id": "c", "program": "let oops = in"},
            {"id": "d", "program": PLAIN % 4, "timeout": 0},
        ]
        responses = _roundtrip(server.address, lines, expect=4)
        by_id = {record["id"]: record for record in responses}
        assert set(by_id) == {"a", "b", "c", "d"}
        assert by_id["a"]["ok"] and by_id["a"]["answer"] == 9
        assert by_id["b"]["ok"] and by_id["b"]["reports"]["profile"] == {"fac": 6}
        assert by_id["c"]["ok"] is False
        assert by_id["c"]["error_type"] == "ParseError"
        assert by_id["d"]["ok"] is False
        assert by_id["d"]["error_type"] == "ValueError"
        assert "positive" in by_id["d"]["error"]
        for record in responses:
            assert "duration" in record  # the latency field clients read

    def test_retired_compiled_engine_is_an_error_slot(self, server):
        lines = [
            {"id": "old", "program": PLAIN % 3, "engine": "compiled"},
            {"id": "new", "program": PLAIN % 3, "engine": "codegen"},
        ]
        responses = _roundtrip(server.address, lines, expect=2)
        by_id = {record["id"]: record for record in responses}
        assert by_id["old"]["ok"] is False
        assert by_id["old"]["error"] == (
            "unknown engine 'compiled'; choose one of 'reference', 'codegen'"
        )
        assert by_id["new"]["ok"] and by_id["new"]["answer"] == 9

    def test_ping_stats_and_unknown_op(self, server):
        responses = _roundtrip(
            server.address,
            [{"op": "ping"}, {"op": "stats"}, {"op": "reboot"}],
            expect=3,
        )
        ping, stats, unknown = responses
        assert ping == {"ok": True, "op": "ping"}
        assert stats["ok"] and stats["pool"]["workers"] == 2
        assert stats["serve"]["received"] >= 0
        assert unknown["ok"] is False
        assert unknown["error_type"] == "ProtocolError"

    def test_unparseable_line_is_a_protocol_error(self, server):
        sock = connect(server.address)
        try:
            stream = sock.makefile("rw", encoding="utf-8", newline="\n")
            stream.write("this is not json\n")
            stream.write(json.dumps({"id": "ok", "program": PLAIN % 2}) + "\n")
            stream.flush()
            sock.shutdown(socket.SHUT_WR)
            records = [json.loads(stream.readline()) for _ in range(2)]
        finally:
            sock.close()
        by_type = {record.get("error_type"): record for record in records}
        assert "ProtocolError" in by_type
        assert any(record.get("ok") and record.get("id") == "ok" for record in records)

    def test_concurrent_connections(self, server):
        import threading

        answers = {}

        def client(n):
            [record] = _roundtrip(
                server.address, [{"id": n, "program": PLAIN % n}], expect=1
            )
            answers[n] = record["answer"]

        threads = [threading.Thread(target=client, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert answers == {n: n * n for n in range(6)}


class TestTransports:
    def test_tcp_ephemeral_port(self):
        with Server(workers=1, port=0) as daemon:
            host, port = daemon.address
            assert port > 0
            [record] = _roundtrip((host, port), [{"program": PLAIN % 7}], expect=1)
            assert record["ok"] and record["answer"] == 49

    def test_exactly_one_transport_required(self):
        with pytest.raises(ReproError, match="exactly one transport"):
            Server(workers=1)
        with pytest.raises(ReproError, match="exactly one transport"):
            Server(workers=1, socket_path="/tmp/x.sock", port=9999)


class TestAdmissionControl:
    def test_overload_rejected_never_dropped(self, tmp_path):
        path = tmp_path / "busy.sock"
        with Server(workers=1, queue_depth=1, socket_path=str(path)) as daemon:
            lines = [
                {"id": n, "program": LOOP, "timeout": 0.4} for n in range(10)
            ]
            responses = _roundtrip(daemon.address, lines, expect=10)
            assert {record["id"] for record in responses} == set(range(10))
            kinds = [record["error_type"] for record in responses]
            assert kinds.count("Overloaded") >= 1, kinds
            assert set(kinds) <= {"Overloaded", "EvaluationTimeout"}
            stats = daemon.stats()["serve"]
            assert stats["rejected"] == kinds.count("Overloaded")
            assert stats["rejected"] + stats["completed"] == 10

    def test_lint_error_gates_before_execution(self, tmp_path):
        path = tmp_path / "lint.sock"
        with Server(
            workers=1, socket_path=str(path), config=RunConfig(lint="error")
        ) as daemon:
            responses = _roundtrip(
                daemon.address,
                [
                    {"id": "bad", "program": "foo 1"},
                    # A config key in the record must overlay the daemon's
                    # config, not replace it — the historical bypass built
                    # a fresh lint="off" config from {"max_steps": ...}.
                    {"id": "bad-override", "program": "foo 1", "max_steps": 100},
                    {"id": "ok", "program": PLAIN % 2},
                ],
                expect=3,
            )
            by_id = {record["id"]: record for record in responses}
            for rejected in ("bad", "bad-override"):
                assert by_id[rejected]["ok"] is False
                assert by_id[rejected]["error_type"] == "StaticAnalysisError"
                assert by_id[rejected]["diagnostics"]  # findings ride along
            assert by_id["ok"]["ok"] and by_id["ok"]["answer"] == 4


class TestServeAdmission:
    """A request cannot loosen the daemon's gate or pick its trace
    directory; what a request may set is the option table's ``serve``
    column."""

    def test_request_cannot_loosen_the_gate(self, tmp_path):
        countdown = (
            "letrec count = lambda n. if n = 0 then 0 else count (n - 1) "
            "in count 200000"
        )
        with Server(
            workers=1,
            socket_path=str(tmp_path / "gate.sock"),
            config=RunConfig(lint="error", timeout=0.5),
        ) as daemon:
            responses = _roundtrip(
                daemon.address,
                [
                    {"id": "lint", "program": "foo 1", "lint": "off"},
                    {"id": "timeout", "program": countdown, "timeout": 30},
                    {"id": "tighter", "program": PLAIN % 3, "timeout": 0.4},
                ],
                expect=3,
            )
        by_id = {record["id"]: record for record in responses}
        for key in ("lint", "timeout"):
            assert by_id[key]["ok"] is False
            assert by_id[key]["error_type"] == "ValueError"
            assert f"would loosen the runner's {key}" in by_id[key]["error"]
        assert by_id["tighter"]["ok"] and by_id["tighter"]["answer"] == 9

    def test_trace_directory_is_the_daemons(self, tmp_path):
        allowed, elsewhere = tmp_path / "allowed", tmp_path / "elsewhere"
        with Server(
            workers=1,
            socket_path=str(tmp_path / "traces.sock"),
            config=RunConfig(record_dir=str(allowed)),
        ) as daemon:
            responses = _roundtrip(
                daemon.address,
                [
                    {
                        "id": "elsewhere",
                        "program": PLAIN % 2,
                        "mode": "record",
                        "record_dir": str(elsewhere),
                    },
                    {"id": "recorded", "program": PLAIN % 2, "mode": "record"},
                    {"id": "flow", "program": "1 + 2", "optimize": "flow"},
                ],
                expect=3,
            )
        by_id = {record["id"]: record for record in responses}
        assert by_id["elsewhere"]["ok"] is False
        assert "may not set 'record_dir'" in by_id["elsewhere"]["error"]
        assert not elsewhere.exists()
        assert by_id["recorded"]["ok"]
        assert os.path.dirname(by_id["recorded"]["trace"]) == str(allowed)
        assert by_id["flow"]["ok"] and by_id["flow"]["answer"] == 3


class TestServeTelemetry:
    def test_worker_trace_files_parse_with_worker_tags(self, tmp_path):
        path = tmp_path / "traced.sock"
        trace_dir = tmp_path / "traces"
        with Server(
            workers=2, socket_path=str(path), trace_dir=str(trace_dir)
        ) as daemon:
            _roundtrip(
                daemon.address,
                [{"id": n, "program": FAC % 6, "tools": "profile"} for n in range(3)],
                expect=3,
            )
        paths = sorted(trace_dir.glob("worker-*.jsonl"))
        assert len(paths) == 2
        served = 0
        for trace in paths:
            for line in trace.read_text().splitlines():
                record = json.loads(line)
                assert "worker" in record["payload"]
                if record["type"] == "serve-request":
                    served += 1
        assert served == 3

    def test_stale_socket_file_is_replaced(self, tmp_path):
        path = tmp_path / "stale.sock"
        path.write_text("")  # a dead daemon's leftover
        with Server(workers=1, socket_path=str(path)) as daemon:
            [record] = _roundtrip(daemon.address, [{"program": PLAIN % 2}], expect=1)
            assert record["ok"]
        assert not path.exists()  # close() unlinks


class TestShutdown:
    def test_close_returns_promptly(self, tmp_path):
        """close() wakes the accept thread instead of waiting out its join.

        Closing a listener does not wake a thread blocked in accept() on
        Linux, so every close() used to stall for the 5 s join timeout.
        """
        daemon = Server(workers=1, socket_path=str(tmp_path / "quick.sock"))
        daemon.start()
        [record] = _roundtrip(daemon.address, [{"program": PLAIN % 3}], expect=1)
        assert record["ok"]
        start = time.monotonic()
        daemon.close()
        assert time.monotonic() - start < 1.0
        assert not daemon._accept_thread.is_alive()


def _parent(pid):
    """The parent PID of a live process; ``None`` once it is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            # Fields after the parenthesised command name: state, ppid, ...
            state, ppid = handle.read().rsplit(b")", 1)[1].split()[:2]
    except OSError:
        return None
    return None if state == b"Z" else int(ppid)


def _alive(pid):
    return _parent(pid) is not None


def _children(pid):
    return [
        int(entry)
        for entry in os.listdir("/proc")
        if entry.isdigit() and _parent(entry) == pid
    ]


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
class TestSigterm:
    def test_sigterm_during_prewarm_stops_every_worker(self, tmp_path):
        """SIGTERM before the socket is bound still shuts down cleanly.

        Each worker pre-warms a loop bounded only by its 2 s timeout, so
        the signal lands inside ``start()``: the daemon must still close
        its pool, exit 0 and leave no worker behind.
        """
        programs = {}
        offset = 0
        while len(programs) < 2:  # one pre-warm entry on each shard
            text = f"letrec spin = lambda x. spin (x + {offset}) in spin 0"
            programs.setdefault(_shard(text, 2), text)
            offset += 1
        prewarm = tmp_path / "prewarm.jsonl"
        prewarm.write_text(
            "".join(
                json.dumps({"program": text, "timeout": 2.0}) + "\n"
                for text in programs.values()
            )
        )
        log = tmp_path / "serve.log"
        with open(log, "w") as stderr:
            daemon = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--socket", str(tmp_path / "term.sock"),
                    "--workers", "2",
                    "--prewarm", str(prewarm),
                ],
                env=dict(os.environ, PYTHONPATH=SRC),
                stderr=stderr,
            )
        workers = []
        try:
            deadline = time.monotonic() + 30.0
            while len(workers) < 2 and time.monotonic() < deadline:
                time.sleep(0.02)
                workers = _children(daemon.pid)
            assert len(workers) == 2, "workers never forked"
            daemon.send_signal(signal.SIGTERM)
            returncode = daemon.wait(timeout=30.0)
            deadline = time.monotonic() + _SHUTDOWN_GRACE
            while any(map(_alive, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            orphans = [pid for pid in workers if _alive(pid)]
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
        assert returncode == 0, log.read_text()
        assert "listening on" not in log.read_text()  # the signal hit pre-warm
        assert not orphans
