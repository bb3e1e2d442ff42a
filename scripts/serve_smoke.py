#!/usr/bin/env python3
"""Serve smoke test: boot `tkc serve` on an ephemeral loopback port and
drive it with four concurrent clients (two writers, two readers) mixing
INSERT/BATCH against KAPPA/MAXK/TRUSS/STATS, then SHUTDOWN and assert a
clean exit. Exercises the real release binary end to end — process
startup, WAL recovery print, the wire protocol, and graceful shutdown.

A second scenario then boots the server with an armed WAL failpoint
(`--failpoint wal.append=enospc@N`), drives writes into the injected
disk-full error, and asserts degraded-mode serving: writes answer
`ERR`, reads keep answering from the last epoch, HEALTH and /metrics
report `read_only`, and the recovery supervisor brings the engine back
to `serving` on its own.

A third scenario kills the server with SIGKILL right after a BATCH
reply, restarts it on the same state directory, and asserts that every
op of that batch survived: a BATCH is acknowledged only once it is
durable.

Usage: python3 scripts/serve_smoke.py target/release/tkc
"""

import socket
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request


def connect(addr, timeout=15):
    deadline = time.monotonic() + timeout
    while True:
        try:
            sock = socket.create_connection(addr, timeout=10)
            return sock, sock.makefile("r", encoding="ascii")
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)


class ReconnClient:
    """A client that survives dropped connections: on any socket error it
    reconnects with bounded exponential backoff (0.05s doubling to 1s,
    at most `max_attempts` tries) and replays the command. Callers that
    must not retry non-idempotent commands pass retry=False and get the
    error back after the reconnect."""

    def __init__(self, addr, max_attempts=8):
        self.addr = addr
        self.max_attempts = max_attempts
        self.sock = None
        self.reader = None

    def _ensure(self):
        if self.sock is not None:
            return
        delay = 0.05
        for attempt in range(self.max_attempts):
            try:
                self.sock = socket.create_connection(self.addr, timeout=10)
                self.reader = self.sock.makefile("r", encoding="ascii")
                return
            except OSError:
                if attempt == self.max_attempts - 1:
                    raise
                time.sleep(delay)
                delay = min(delay * 2, 1.0)

    def _drop(self):
        try:
            if self.sock is not None:
                self.sock.close()
        except OSError:
            pass
        self.sock = None
        self.reader = None

    def send(self, cmd, retry=True):
        attempts = self.max_attempts if retry else 1
        for attempt in range(attempts):
            try:
                self._ensure()
                self.sock.sendall((cmd + "\n").encode("ascii"))
                reply = self.reader.readline().rstrip("\n")
                if reply == "":  # peer closed mid-exchange
                    raise ConnectionResetError("empty reply")
                return reply
            except OSError:
                self._drop()
                if attempt == attempts - 1:
                    raise
                time.sleep(min(0.05 * (2 ** attempt), 1.0))

    def close(self):
        self._drop()


def send(sock, reader, cmd):
    sock.sendall((cmd + "\n").encode("ascii"))
    return reader.readline().rstrip("\n")


def read_stats(sock, reader):
    assert send(sock, reader, "STATS") == "OK"
    stats = {}
    while True:
        line = reader.readline().rstrip("\n")
        if line == ".":
            return stats
        key, _, value = line.partition(" ")
        stats[key] = value


def clique(base):
    return [(base + i, base + j) for i in range(5) for j in range(i + 1, 5)]


def scrape(metrics_url):
    """Fetches /metrics and returns {series_name_with_labels: float_value}."""
    with urllib.request.urlopen(metrics_url, timeout=10) as resp:
        assert resp.status == 200, f"GET /metrics -> {resp.status}"
        ctype = resp.headers.get("Content-Type", "")
        assert ctype.startswith("text/plain"), f"Content-Type {ctype!r}"
        text = resp.read().decode("utf-8")
    series = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        series[name] = float(value)
    return series


def assert_monotonic(before, after):
    """Counter-shaped series must never decrease between two scrapes."""
    regressed = [
        name
        for name, value in before.items()
        if name.endswith(("_total", "_count", "_sum")) or "_bucket{" in name
        if after.get(name, 0.0) < value
    ]
    assert not regressed, f"counters went backwards: {regressed}"


def read_metrics_command(sock, reader):
    """Reads the `.`-terminated METRICS block, returns the raw lines."""
    assert send(sock, reader, "METRICS") == "OK"
    lines = []
    while True:
        line = reader.readline().rstrip("\n")
        if line == ".":
            return lines
        lines.append(line)


def writer_insert(addr, failures):
    try:
        sock, reader = connect(addr)
        assert send(sock, reader, "PING") == "OK pong"
        for u, v in clique(0):
            reply = send(sock, reader, f"INSERT {u} {v}")
            assert reply.startswith("OK"), f"INSERT {u} {v} -> {reply}"
        # Toggle one edge to exercise the REMOVE path durably.
        assert send(sock, reader, "REMOVE 0 1") == "OK removed"
        reply = send(sock, reader, "INSERT 0 1")
        assert reply.startswith("OK"), f"re-INSERT 0 1 -> {reply}"
        metrics = read_metrics_command(sock, reader)
        assert any(l.startswith("tkc_engine_removed_total") for l in metrics), (
            f"METRICS lacks tkc_engine_removed_total: {metrics[:5]}..."
        )
        send(sock, reader, "QUIT")
        sock.close()
    except Exception as e:  # noqa: BLE001 - report into the main thread
        failures.append(f"writer_insert: {e!r}")


def writer_batch(addr, failures):
    try:
        sock, reader = connect(addr)
        ops = clique(5)
        payload = f"BATCH {len(ops)}\n" + "".join(f"+ {u} {v}\n" for u, v in ops)
        sock.sendall(payload.encode("ascii"))
        reply = reader.readline().rstrip("\n")
        assert reply == f"OK queued {len(ops)}", f"BATCH -> {reply}"
        send(sock, reader, "QUIT")
        sock.close()
    except Exception as e:  # noqa: BLE001
        failures.append(f"writer_batch: {e!r}")


def reader_loop(addr, failures, rid):
    try:
        sock, reader = connect(addr)
        for _ in range(30):
            assert send(sock, reader, "MAXK").startswith("OK ")
            assert send(sock, reader, "TRUSS 3").startswith("OK cores=")
            kappa = send(sock, reader, "KAPPA 0 1")
            assert kappa.startswith("OK ") or kappa == "ERR no such edge", kappa
            assert "ops_applied" in read_stats(sock, reader)
        send(sock, reader, "QUIT")
        sock.close()
    except Exception as e:  # noqa: BLE001
        failures.append(f"reader_{rid}: {e!r}")


def boot(binary, state_dir, *extra):
    """Starts `tkc serve` and returns (proc, addr, metrics_url)."""
    proc = subprocess.Popen(
        [binary, "serve", state_dir, "--addr", "127.0.0.1:0", "--no-fsync",
         "--metrics-addr", "127.0.0.1:0", *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    addr = None
    metrics_url = None
    for line in proc.stdout:
        print("[degraded]", line.rstrip())
        if line.startswith("metrics listening on "):
            metrics_url = line.split()[-1]
        if line.startswith("tkc-engine listening on "):
            host, _, port = line.split()[-1].rpartition(":")
            addr = (host, int(port))
            break
    assert addr and metrics_url, "server never printed its addresses"
    return proc, addr, metrics_url


def degraded_scenario(binary):
    """Armed failpoint: the Nth WAL append hits ENOSPC. The server must
    degrade to read-only serving (not die), stay readable, surface the
    state via HEALTH and /metrics, and recover on its own."""
    with tempfile.TemporaryDirectory(prefix="tkc_serve_degraded_") as state_dir:
        # Append 1 is the WAL magic header, so trigger 40 = write #39.
        proc, addr, metrics_url = boot(
            binary, state_dir,
            "--failpoint", "wal.append=enospc@40",
            "--recover-backoff-ms", "1500",
        )
        try:
            c = ReconnClient(addr)
            assert c.send("HEALTH") == "OK serving"

            # A chain of distinct edges: one append per INSERT. Write
            # until the failpoint fires.
            degraded_at = None
            for i in range(60):
                reply = c.send(f"INSERT {i} {i + 1}", retry=False)
                if reply.startswith("ERR"):
                    degraded_at = i
                    assert reply.startswith(("ERR WAL", "ERR DEGRADED")), reply
                    break
            assert degraded_at is not None, "failpoint never fired in 60 writes"

            # Degraded: the health check names the state, reads still
            # answer from the last epoch, further writes are refused.
            health = c.send("HEALTH")
            assert health.startswith("OK read_only"), health
            assert c.send("MAXK").startswith("OK "), "reads must keep serving"
            assert c.send("KAPPA 0 1").startswith(("OK", "ERR no such edge"))
            refused = c.send("INSERT 900 901", retry=False)
            assert refused.startswith("ERR DEGRADED"), refused

            series = scrape(metrics_url)
            assert series['tkc_engine_state{state="read_only"}'] == 1.0, series
            assert series['tkc_engine_state{state="serving"}'] == 0.0, series
            assert series["tkc_engine_degraded_total"] >= 1.0, series
            assert series["tkc_faults_injected_total"] >= 1.0, series

            # The supervisor recovers without any operator action.
            deadline = time.monotonic() + 30
            while c.send("HEALTH") != "OK serving":
                assert time.monotonic() < deadline, "engine never recovered"
                time.sleep(0.25)
            assert c.send("INSERT 900 901", retry=False).startswith("OK")
            series = scrape(metrics_url)
            assert series["tkc_recoveries_total"] >= 1.0, series
            assert series['tkc_engine_state{state="serving"}'] == 1.0, series

            assert c.send("SHUTDOWN") == "OK shutting down"
            c.close()
            rest = proc.stdout.read()
            if rest:
                print("[degraded]", rest.rstrip())
            code = proc.wait(timeout=30)
            assert code == 0, f"degraded server exited with {code}"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    print("degraded smoke OK: ENOSPC failpoint -> read-only serving -> "
          "supervised recovery -> writes restored")


def kill9_batch_scenario(binary):
    """SIGKILL right after a BATCH reply: the restarted server must hold
    every op of that batch, inserts and removes alike. Runs with fsync
    on, as a deployment does."""
    with tempfile.TemporaryDirectory(prefix="tkc_serve_kill9_") as state_dir:
        def serve():
            proc = subprocess.Popen(
                [binary, "serve", state_dir, "--addr", "127.0.0.1:0"],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            recovered = None
            for line in proc.stdout:
                print("[kill9]", line.rstrip())
                if line.startswith("recovered "):
                    recovered = line.strip()
                if line.startswith("tkc-engine listening on "):
                    host, _, port = line.split()[-1].rpartition(":")
                    return proc, (host, int(port)), recovered
            raise AssertionError("kill9 server never printed its address")

        proc, addr, _ = serve()
        try:
            sock, reader = connect(addr)
            assert send(sock, reader, "INSERT 10 11").startswith("OK")
            ops = [f"+ {u} {v}" for u, v in clique(0)] + ["- 10 11"]
            payload = f"BATCH {len(ops)}\n" + "".join(op + "\n" for op in ops)
            sock.sendall(payload.encode("ascii"))
            reply = reader.readline().rstrip("\n")
            assert reply == f"OK queued {len(ops)}", f"BATCH -> {reply}"
            proc.kill()
            proc.wait()
            sock.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        proc, addr, recovered = serve()
        try:
            assert recovered and recovered.endswith("/ 10 edges (max κ = 3)"), recovered
            sock, reader = connect(addr)
            for u, v in clique(0):
                assert send(sock, reader, f"KAPPA {u} {v}") == "OK 3", (u, v)
            assert send(sock, reader, "KAPPA 10 11") == "ERR no such edge"
            assert send(sock, reader, "SHUTDOWN") == "OK shutting down"
            sock.close()
            rest = proc.stdout.read()
            if rest:
                print("[kill9]", rest.rstrip())
            assert proc.wait(timeout=30) == 0, "restarted server exit"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    print("kill -9 smoke OK: every op of the acknowledged BATCH survived "
          "SIGKILL and restart")


def boot_repl(binary, state_dir, tag, *extra):
    """Starts `tkc serve` with replication flags and returns
    (proc, client_addr, repl_addr_or_None)."""
    proc = subprocess.Popen(
        [binary, "serve", state_dir, "--addr", "127.0.0.1:0", "--no-fsync",
         *extra],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    addr = None
    repl_addr = None
    for line in proc.stdout:
        print(f"[{tag}]", line.rstrip())
        if line.startswith("replication listening on "):
            repl_addr = line.split()[-1]
        if line.startswith("tkc-engine listening on "):
            host, _, port = line.split()[-1].rpartition(":")
            addr = (host, int(port))
            break
    assert addr, f"{tag} never printed its listening address"
    return proc, addr, repl_addr


def repl_scenario(binary):
    """Two-node replication: writes land on the primary and become
    readable on the follower once the lag drains; follower writes are
    redirected with ERR READONLY; PROMOTE fences the old primary (it
    refuses writes at the lower term) and makes the follower writable;
    after the old primary is killed the promoted node keeps serving."""
    with tempfile.TemporaryDirectory(prefix="tkc_repl_primary_") as p_dir, \
         tempfile.TemporaryDirectory(prefix="tkc_repl_follower_") as f_dir:
        p_proc, p_addr, repl_addr = boot_repl(
            binary, p_dir, "primary", "--repl-addr", "127.0.0.1:0")
        assert repl_addr, "primary never printed its replication address"
        f_proc, f_addr, _ = boot_repl(
            binary, f_dir, "follower", "--follow", repl_addr)
        try:
            p = ReconnClient(p_addr)
            f = ReconnClient(f_addr)
            assert p.send("HEALTH") == "OK serving"

            # Write a K5 to the primary; every edge settles at kappa 3.
            ops = clique(0)
            for u, v in ops:
                reply = p.send(f"INSERT {u} {v}", retry=False)
                assert reply.startswith("OK"), f"INSERT {u} {v} -> {reply}"

            # Read-your-write from the follower once the lag drains.
            deadline = time.monotonic() + 30
            while True:
                sock, reader = connect(f_addr)
                stats = read_stats(sock, reader)
                reader.close()
                sock.close()
                if (int(stats.get("repl_ops_applied", 0)) >= len(ops)
                        and int(stats.get("repl_lag_seq", 1)) == 0):
                    break
                assert time.monotonic() < deadline, \
                    f"follower lag never drained: {stats}"
                time.sleep(0.1)
            assert f.send("EPOCH").startswith("OK ")
            assert f.send("KAPPA 0 1") == "OK 3"
            assert f.send("MAXK") == "OK 3"

            # Follower writes are redirected to the primary.
            refused = f.send("INSERT 90 91", retry=False)
            assert refused == f"ERR READONLY {repl_addr}", refused
            health = f.send("HEALTH")
            assert health.startswith(f"OK follower following {repl_addr}"), health

            # PROMOTE: the follower becomes writable at term 1 and the
            # still-running old primary is fenced read-only.
            assert f.send("PROMOTE") == "OK promoted term=1"
            assert f.send("INSERT 90 91", retry=False).startswith("OK")
            deadline = time.monotonic() + 30
            while not p.send("HEALTH").startswith("OK read_only"):
                assert time.monotonic() < deadline, "old primary never fenced"
                time.sleep(0.1)
            fenced = p.send("INSERT 92 93", retry=False)
            assert fenced.startswith("ERR DEGRADED"), fenced
            # The fence is sticky: the recovery supervisor must not
            # resurrect the superseded primary into a writable state.
            time.sleep(1.0)
            assert p.send("HEALTH").startswith("OK read_only")

            # Kill the old primary outright; the promoted node keeps
            # serving both reads and writes on its own.
            p.close()
            p_proc.kill()
            p_proc.wait()
            assert f.send("INSERT 94 95", retry=False).startswith("OK")
            assert f.send("HEALTH") == "OK serving"
            assert f.send("KAPPA 0 1") == "OK 3"

            assert f.send("SHUTDOWN") == "OK shutting down"
            f.close()
            rest = f_proc.stdout.read()
            if rest:
                print("[follower]", rest.rstrip())
            assert f_proc.wait(timeout=30) == 0, "promoted follower exit"
        finally:
            for proc in (p_proc, f_proc):
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
    print("repl smoke OK: follower read-your-write after lag drain, "
          "ERR READONLY redirect, PROMOTE fenced the old primary, "
          "promoted node served writes after primary kill")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    binary = sys.argv[1]
    with tempfile.TemporaryDirectory(prefix="tkc_serve_smoke_") as state_dir:
        proc = subprocess.Popen(
            [binary, "serve", state_dir, "--addr", "127.0.0.1:0", "--no-fsync",
             "--epoch-ops", "8", "--metrics-addr", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            # The server prints "metrics listening on http://<addr>/metrics"
            # and then "tkc-engine listening on <addr>" once bound.
            addr = None
            metrics_url = None
            for line in proc.stdout:
                print("[server]", line.rstrip())
                if line.startswith("metrics listening on "):
                    metrics_url = line.split()[-1]
                if line.startswith("tkc-engine listening on "):
                    host, _, port = line.split()[-1].rpartition(":")
                    addr = (host, int(port))
                    break
            assert addr, "server never printed its listening address"
            assert metrics_url, "server never printed its metrics address"

            failures = []
            threads = [
                threading.Thread(target=writer_insert, args=(addr, failures)),
                threading.Thread(target=writer_batch, args=(addr, failures)),
                threading.Thread(target=reader_loop, args=(addr, failures, 1)),
                threading.Thread(target=reader_loop, args=(addr, failures, 2)),
            ]
            for t in threads:
                t.start()
            # Scrape twice while the clients hammer the server: every
            # counter-shaped series must be monotonically non-decreasing.
            mid1 = scrape(metrics_url)
            time.sleep(0.2)
            mid2 = scrape(metrics_url)
            assert_monotonic(mid1, mid2)
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive(), "client thread hung"
            assert not failures, "; ".join(failures)

            # Every writer has its replies, so every op is applied: the
            # merged state is two disjoint K5s, every edge at kappa = 3.
            sock, reader = connect(addr)
            assert send(sock, reader, "EPOCH").startswith("OK ")

            # Final scrape (after EPOCH, so the snapshot gauges caught up):
            # counters must agree with the ops we issued and with the STATS
            # wire block, still monotonic vs the mid-load scrapes, and span
            # every instrumented layer. The writers issued 10 INSERTs, a
            # REMOVE + re-INSERT toggle, and one BATCH of 10 ops
            # = 13 applies / WAL appends, 22 ops (20 live edges).
            final = scrape(metrics_url)
            assert_monotonic(mid2, final)
            stats = read_stats(sock, reader)
            assert final["tkc_engine_ops_applied_total"] == 22.0, final
            assert int(stats["ops_applied"]) == 22, stats
            assert final['tkc_server_requests_total{cmd="INSERT"}'] == 11.0, final
            assert final['tkc_server_requests_total{cmd="REMOVE"}'] == 1.0, final
            assert final["tkc_engine_removed_total"] == 1.0, final
            assert final['tkc_server_requests_total{cmd="BATCH"}'] == 1.0, final
            assert final["tkc_engine_wal_bytes_total"] > 0, final
            assert final["tkc_engine_wal_appends_total"] >= 13, final
            assert final["tkc_engine_apply_seconds_count"] >= 13, final
            assert final["tkc_engine_triangles_per_op_count"] == 22.0, final
            assert final["tkc_engine_epochs_published_total"] >= 1, final
            assert final["tkc_graph_edges"] == 20.0, final
            families = {name.split("{")[0] for name in final}
            # Strip histogram sub-series down to their family name.
            families = {
                f.rsplit("_bucket", 1)[0].rsplit("_sum", 1)[0].rsplit("_count", 1)[0]
                for f in families
            }
            assert len(families) >= 12, f"only {len(families)} series: {sorted(families)}"
            assert send(sock, reader, "KAPPA 0 1") == "OK 3"
            assert send(sock, reader, "KAPPA 5 9") == "OK 3"
            assert send(sock, reader, "MAXK") == "OK 3"
            assert send(sock, reader, "TRUSS 3") == "OK cores=2 edges=20 vertices=10"
            assert send(sock, reader, "SHUTDOWN") == "OK shutting down"
            sock.close()

            rest = proc.stdout.read()
            if rest:
                print("[server]", rest.rstrip())
            code = proc.wait(timeout=30)
            assert code == 0, f"server exited with {code}"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        # Graceful shutdown compacts: the packed store exists and a second
        # serve recovers the graph from it (WAL-replay equivalence is
        # covered by the Rust integration tests).
        import os

        assert os.path.exists(os.path.join(state_dir, "state.tkcstor")), \
            "graceful shutdown must leave a compacted store"
        # The restarted server also carries the request-span surface:
        # --slow-op-ms 0 logs every request (elapsed > threshold) with
        # its completed span tree, and --slo arms per-verb objectives
        # behind the SLO verb and the tkc_slo_* gauges.
        proc2 = subprocess.Popen(
            [binary, "serve", state_dir, "--addr", "127.0.0.1:0", "--no-fsync",
             "--metrics-addr", "127.0.0.1:0",
             "--slow-op-ms", "0", "--slo", "INSERT=50,KAPPA=50"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            addr = None
            metrics_url = None
            for line in proc2.stdout:
                print("[restart]", line.rstrip())
                if line.startswith("metrics listening on "):
                    metrics_url = line.split()[-1]
                if line.startswith("tkc-engine listening on "):
                    host, _, port = line.split()[-1].rpartition(":")
                    addr = (host, int(port))
                    break
            assert addr, "restarted server never printed its address"
            assert metrics_url, "restarted server never printed its metrics address"
            sock, reader = connect(addr)
            assert send(sock, reader, "KAPPA 0 1") == "OK 3"
            assert send(sock, reader, "MAXK") == "OK 3"

            def read_block():
                lines = []
                while True:
                    line = reader.readline().rstrip("\n")
                    if line == ".":
                        return lines
                    lines.append(line)

            # SLO: the configured objectives answer with status lines.
            assert send(sock, reader, "SLO") == "OK"
            slo_lines = read_block()
            assert any(l.startswith("KAPPA ") and "status=" in l
                       for l in slo_lines), slo_lines
            assert any(l.startswith("INSERT ") for l in slo_lines), slo_lines

            # TRACE: span records for the requests just served, as JSONL.
            assert send(sock, reader, "TRACE 50") == "OK"
            trace_lines = read_block()
            assert any('"kind":"span"' in l for l in trace_lines), trace_lines
            assert any('"name":"KAPPA"' in l for l in trace_lines), trace_lines

            series = scrape(metrics_url)
            assert 'tkc_slo_burn_rate{cmd="KAPPA"}' in series, sorted(series)
            assert series["tkc_server_slow_ops_total"] >= 2.0, series

            assert send(sock, reader, "SHUTDOWN") == "OK shutting down"
            sock.close()
            rest = proc2.stdout.read()
            if rest:
                print("[restart]", rest.rstrip())
            assert proc2.wait(timeout=30) == 0
            # With the threshold at 0 ms every request is "slow": the
            # slow-op log must have fired with a rendered span tree
            # (the parse child span shows up inside the tree).
            assert "slow op KAPPA" in rest, "slow-op log never fired"
            assert "parse" in rest, "slow-op log lacks the span tree"
        finally:
            if proc2.poll() is None:
                proc2.kill()
                proc2.wait()
    print("serve smoke OK: 4 concurrent clients, graceful shutdown, "
          "state compacted and recovered on restart, slow-op log + "
          "SLO/TRACE verbs live")
    degraded_scenario(binary)
    kill9_batch_scenario(binary)
    repl_scenario(binary)


if __name__ == "__main__":
    main()
