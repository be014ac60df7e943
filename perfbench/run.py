#!/usr/bin/env python3
"""perfbench — the kaltofen-pan benchmark.

Drives the two shipped surfaces the way users do: one-shot `kp` commands
and the `kp serve` daemon.  Every input is generated from --seed, every
answer is checked, and the program's own defaults (multiplier,
preconditioner kind, kernel backend) are what gets timed.

    python3 perfbench/run.py --workload dense-theorem4 --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload blackbox-512 --seed 1 --seconds 24 --trace 1
    python3 perfbench/run.py --selftest

Run from the root of a kaltofen-pan checkout.  The benchmark builds
bin/kp.exe and its direct-call probe (perfbench/probe) with dune, writes
its inputs under .perfbench-work/, and prints one JSON result as the last
line of stdout.  With --trace 0 the result holds the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of a separate traced run
(`--stats=json` on every command, daemon `metrics` snapshots, and timed
direct calls into single layers), and a layer table goes to stderr.
"""

import argparse
import json
import math
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

P = 998244353  # kp's default field, GF(998244353)
WORK = ".perfbench-work"
KP_TARGET, PROBE_TARGET = "bin/kp.exe", "perfbench/probe/probe.exe"
KP = os.path.join("_build", "default", KP_TARGET)
PROBE = os.path.join("_build", "default", PROBE_TARGET)
WORKLOADS = ("dense-theorem4", "blackbox-512", "serve-session")
P99_LIMIT_MS = 1000  # latency limit of the serve rate ladder
LADDER_RPS = (32, 64, 128, 256)


class BenchError(Exception):
    """The benchmark cannot run (no checkout, build failure, dead daemon)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build


def build():
    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("bin", "kp.ml"))):
        raise BenchError("run from the root of a kaltofen-pan checkout (no dune-project / bin/kp.ml here)")
    if shutil.which("dune") is None:
        raise BenchError("dune not found on PATH")
    # keep the build's cache and temporary files inside the checkout
    tmp = os.path.abspath(os.path.join(WORK, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp, XDG_CACHE_HOME=tmp)
    r = subprocess.run(
        ["dune", "build", "--root", ".", KP_TARGET, PROBE_TARGET],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=850)
    if r.returncode != 0:
        raise BenchError("dune build failed:\n" + r.stdout.decode(errors="replace")[-4000:])


# ---------------------------------------------------------------- reference arithmetic


def matvec(a, n, x):
    return [sum(a[i * n + j] * x[j] for j in range(n)) % P for i in range(n)]


def solves(a, n, b, x):
    return x is not None and len(x) == n and matvec(a, n, x) == [v % P for v in b]


def inverts(a, n, inv):
    if inv is None or len(inv) != n * n:
        return False
    for i in range(n):
        row = a[i * n:(i + 1) * n]
        for j in range(n):
            s = sum(row[k] * inv[k * n + j] for k in range(n)) % P
            if s != (1 if i == j else 0):
                return False
    return True


def probe(*args):
    r = subprocess.run([PROBE] + list(args), stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170)
    if r.returncode != 0:
        raise BenchError("probe %s failed: %s" % (args[0], r.stderr.decode(errors="replace")))
    return json.loads(r.stdout.decode().strip().splitlines()[-1])


def ref_dets(paths):
    """det mod p of each matrix file, by the probe's own elimination."""
    return probe("refdet", *paths)["dets"]


# ---------------------------------------------------------------- inputs


class Inputs:
    """Seeded input generator: matrices are drawn until the reference
    elimination certifies them nonsingular, so no run takes the
    singular-witness path."""

    def __init__(self, workload, seed):
        self.rng = random.Random("%s/%d" % (workload, seed))
        self.count = 0

    def vec(self, n):
        return [self.rng.randrange(P) for _ in range(n)]

    def path(self, stem):
        self.count += 1
        return os.path.join(WORK, "%s-%d.txt" % (stem, self.count))

    def write(self, path, n, a, tail=()):
        with open(path, "w") as f:
            f.write("%d\n" % n)
            for i in range(n):
                f.write(" ".join(map(str, a[i * n:(i + 1) * n])) + "\n")
            for row in tail:
                f.write(" ".join(map(str, row)) + "\n")

    def matrices(self, n, count):
        """`count` nonsingular n×n matrices with their reference dets."""
        out = []
        while len(out) < count:
            cands = [self.vec(n * n) for _ in range(count - len(out))]
            paths = []
            for a in cands:
                paths.append(self.path("cand"))
                self.write(paths[-1], n, a)
            for a, d, pth in zip(cands, ref_dets(paths), paths):
                os.remove(pth)
                if d != 0:
                    out.append((a, d))
        return out

    def seed(self):
        return self.rng.randrange(1 << 30)


# ---------------------------------------------------------------- kp one-shot commands


def run_kp(args, trace):
    """Run one kp command; returns (wall seconds, peak RSS MB, exit code,
    stdout text).  Output goes through a file so no pipe can stall it."""
    out_path = os.path.join(WORK, "stdout.txt")
    cmd = [KP] + args + (["--stats=json"] if trace else [])
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        text = f.read()
    return wall, ru.ru_maxrss / 1024.0, proc.returncode, text


def parse_solutions(text):
    """[(engine, [x...]), ...] from `kp solve` output."""
    sols = []
    for line in text.splitlines():
        s = line.strip()
        if s.startswith("solution (engine: "):
            sols.append((s[len("solution (engine: "):].split(",")[0], []))
        elif s.startswith("x_") and sols:
            sols[-1][1].append(int(s.split("=")[1]))
    return sols


def parse_det(text):
    for line in text.splitlines():
        if line.startswith("det = "):
            return int(line.split()[2])
    return None


def parse_inverse(text):
    vals = []
    for line in text.splitlines():
        s = line.strip()
        if s.startswith("[") and s.endswith("]"):
            vals.extend(int(t) for t in s[1:-1].split())
    return vals or None


def stats_of(text):
    last = text.strip().splitlines()[-1] if text.strip() else ""
    try:
        return json.loads(last)
    except ValueError:
        return None


class Op:
    """One generated one-shot command with the check its answer must pass."""

    def __init__(self, kind, args, check):
        self.kind, self.args, self.check = kind, args, check


def check_solution(a, n, bs, engine):
    def check(text):
        sols = parse_solutions(text)
        return (len(sols) == len(bs)
                and all(e.startswith(engine) and solves(a, n, b, x) for (e, x), b in zip(sols, bs)))
    return check


def check_det(d):
    return lambda text: parse_det(text) == d


def check_inverse(a, n):
    return lambda text: inverts(a, n, parse_inverse(text))


def write_system(inp, stem, n, rhs=1):
    """A fresh nonsingular n×n matrix file with `rhs` right-hand sides in
    it (rhs=0: matrix only).  Returns (path, a, det, [b...])."""
    while True:
        a = inp.vec(n * n)
        bs = [inp.vec(n) for _ in range(rhs)]
        path = inp.path(stem)
        inp.write(path, n, a, bs)
        d, = ref_dets([path])
        if d != 0:
            return path, a, d, bs
        os.remove(path)


def program_seed(inp):
    return ["--seed", str(inp.seed())]


def dense_solve(inp):
    f, a, _, bs = write_system(inp, "solve", 64)
    return Op("dense_solve", ["solve", "--engine", "dense", "--matrix", f] + program_seed(inp),
              check_solution(a, 64, bs, "dense"))


def dense_det(inp):
    f, _, d, _ = write_system(inp, "det", 64, rhs=0)
    return Op("dense_det", ["det", "--matrix", f] + program_seed(inp), check_det(d))


def dense_inverse(inp):
    f, a, _, _ = write_system(inp, "inverse", 16, rhs=0)
    return Op("dense_inverse", ["inverse", "--matrix", f] + program_seed(inp), check_inverse(a, 16))


def session_batch(inp):
    f, a, _, _ = write_system(inp, "batch", 64, rhs=0)
    bs = [inp.vec(64) for _ in range(16)]
    fb = inp.path("rhs")
    with open(fb, "w") as out:
        out.write("\n".join(" ".join(map(str, b)) for b in bs) + "\n")
    return Op("session_batch", ["solve", "--matrix", f, "--batch", fb] + program_seed(inp),
              check_solution(a, 64, bs, "session"))


def blackbox_solve(inp):
    f, a, _, bs = write_system(inp, "blackbox", 512)
    return Op("blackbox_solve", ["solve", "--matrix", f] + program_seed(inp),
              check_solution(a, 512, bs, "blackbox"))


def block_solve(inp):
    f, a, _, bs = write_system(inp, "block", 512)
    return Op("block_solve", ["solve", "--engine", "block", "--matrix", f] + program_seed(inp),
              check_solution(a, 512, bs, "block"))


# Operation kinds per one-shot workload.  dense-theorem4: the paper's
# engine — dense solve and det at n=64, the Baur–Strassen inverse at n=16,
# a 16-RHS session batch at n=64.  blackbox-512: the default engine
# (black-box Wiedemann, sparse butterfly preconditioner) and the block
# engine at n=512.
CLI_KINDS = {
    "dense-theorem4": (dense_solve, dense_det, dense_inverse, session_batch),
    "blackbox-512": (blackbox_solve, block_solve),
}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def count(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("FAILED: %s" % what)
        return ok


def passes(check, answer):
    """A check that cannot even parse the answer is a failed check."""
    try:
        return bool(check(answer))
    except (ValueError, TypeError, IndexError, KeyError):
        return False


def account(tally, op, code, text):
    """Count one command: a non-zero exit, a missing answer or a wrong
    answer is a failure."""
    ok = code == 0 and passes(op.check, text)
    return tally.count(ok, "%s %s (exit %d)" % (op.kind, " ".join(op.args), code))


def cli_startup(inp, tally, runs=21):
    """Set-up of a one-shot workload is the program's start-up: median
    wall time of a checked `kp solve` on a 4×4 system."""
    f, a, _, bs = write_system(inp, "startup", 4)
    op = Op("startup", ["solve", "--matrix", f], check_solution(a, 4, bs, ""))
    walls = []
    for _ in range(runs):
        wall, _, code, text = run_kp(op.args, False)
        account(tally, op, code, text)
        walls.append(wall)
    os.remove(f)
    return statistics.median(walls)


def cli_workload(workload, seed, seconds, trace):
    inp = Inputs(workload, seed)
    tally = Tally()
    setup_s = cli_startup(inp, tally)
    kinds = {gen.__name__: gen for gen in CLI_KINDS[workload]}
    walls = {k: [] for k in kinds}
    rss, traced = 0.0, []

    # every kind runs at least once; then the least-measured kind goes
    # next until the measured time reaches `seconds` (traced: half of it,
    # since each command also runs a second time under --stats=json)
    budget = seconds / 2 if trace else seconds
    while True:
        unmeasured = [k for k, w in walls.items() if not w]
        if not unmeasured and sum(map(sum, walls.values())) >= budget:
            break
        op = kinds[min(unmeasured or walls, key=lambda k: sum(walls[k]))](inp)
        wall, mb, code, text = run_kp(op.args, False)
        account(tally, op, code, text)
        walls[op.kind].append(wall)
        rss = max(rss, mb)
        if trace:
            twall, _, tcode, ttext = run_kp(op.args, True)
            stats = stats_of(ttext)
            if account(tally, op, tcode, ttext) and tally.count(
                    stats is not None, "%s: no --stats=json report" % op.kind):
                traced.append((op.kind, wall, twall, stats))
        for arg in op.args:  # the command's input files
            if arg.startswith(WORK + os.sep):
                os.remove(arg)
    medians = {k: statistics.median(v) for k, v in walls.items()}
    for k, v in walls.items():
        log("%-16s median %.4f s over %d command(s)" % (k + "_s", medians[k], len(v)))
    if trace:
        return tally, trace_cli(workload, seed, medians, traced)
    return tally, {
        "op_ms": (1000 * geomean(medians.values()), "ms"),
        "tail_ms": (1000 * max(medians.values()), "ms"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup_s, "s"),
    }


def geomean(xs):
    xs = list(xs)
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


# ---------------------------------------------------------------- kp serve


class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = b""

    def send(self, obj):
        self.sock.sendall((json.dumps(obj, separators=(",", ":")) + "\n").encode())

    def lines(self):
        """Complete reply lines available now (call when readable)."""
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise BenchError("kp serve closed a connection")
        self.buf += chunk
        *done, self.buf = self.buf.split(b"\n")
        return [json.loads(l) for l in done if l.strip()]

    def call(self, obj):
        self.send(obj)
        while True:
            for reply in self.lines():
                if reply.get("id") == obj.get("id"):
                    return reply

    def close(self):
        self.sock.close()


class Daemon:
    """`kp serve` with default flags as its own process."""

    def __init__(self):
        self.sock_path = os.path.join(WORK, "kp.sock")
        if os.path.exists(self.sock_path):
            os.remove(self.sock_path)
        self.proc = subprocess.Popen([KP, "serve", "--socket", self.sock_path],
                                     stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        self.conns = []
        try:
            if b"listening" not in self.proc.stdout.readline():
                raise BenchError("kp serve did not start")
            self.conns = [Conn(self.sock_path) for _ in range(2)]
        except BaseException:
            self.stop()
            raise

    def metrics(self):
        r = self.conns[0].call({"id": "metrics", "op": "metrics"})
        return r["counters"], r["gauges"]

    def stop(self):
        """SIGTERM drain; returns the daemon's peak RSS in MB."""
        for c in self.conns:
            c.close()
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 15
        while True:
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                return ru.ru_maxrss / 1024.0
            if time.monotonic() > deadline:
                self.proc.kill()
            time.sleep(0.01)


# The serve traffic mix is assumed, not taken from a trace; perfbench/NOTES.md
# gives the reasoning.  Keyed solves are most of the traffic, so the median
# is a session read; one request in INLINE_EVERY builds a session entry,
# each build delays the next 13–30 requests, and the 1% slowest requests all
# sit in those backlogs, so p99 is the time a build blocks the worker.
SERVE_N, SERVE_KEYS, SERVE_RPS, INLINE_EVERY = 32, 4, 64, 256
BATCH_FRAC, BLOCK_FRAC = 0.15, 0.15
# rung names of lib/serve/engines.ml: the default engine's ladder starts at
# scalar, "engine":"block" starts at block; an answer from a lower rung is a
# silent fallback and counts as a failure
SCALAR, BLOCK = "scalar", "block"


def serve_working_set(inp):
    return [("k%d" % i, a) for i, (a, _) in enumerate(inp.matrices(SERVE_N, SERVE_KEYS))]


def register(d, keyed, tally):
    """Register the keyed working set on a fresh daemon, which builds one
    session entry per key; returns the per-key build seconds."""
    builds = []
    for key, a in keyed:
        b = [1 + i for i in range(SERVE_N)]
        t = time.perf_counter()
        r = d.conns[0].call({"id": "reg-" + key, "op": "solve", "n": SERVE_N, "a": a, "key": key, "b": b})
        builds.append(time.perf_counter() - t)
        tally.count(r.get("status") == "ok" and passes(reply_solves(a, [b], SCALAR), r), "register " + key)
    return builds


def reply_solves(a, bs, engine):
    """Client-side check of a serve reply: `x` for one RHS, `xs` for a
    batch, answered by the rung `engine`."""
    def check(r):
        xs = [r["x"]] if len(bs) == 1 and "xs" not in r else r["xs"]
        return (r["engine"] == engine and len(xs) == len(bs)
                and all(solves(a, SERVE_N, b, x) for b, x in zip(bs, xs)))
    return check


def serve_schedule(inp, keyed, count, rps):
    """Open-loop schedule: (due seconds, request, check).  Mostly session
    reads (keyed solve, 8-RHS batch, keyed block solve); every
    INLINE_EVERY-th request carries a fresh inline matrix, which builds a
    session entry on the daemon's single worker."""
    mats = dict(keyed)
    fresh = inp.matrices(SERVE_N, max(1, count // INLINE_EVERY))
    reqs = []
    for i in range(count):
        rid = "r%d" % i
        if i % INLINE_EVERY == INLINE_EVERY // 2:
            a = fresh[(i // INLINE_EVERY) % len(fresh)][0]
            b = inp.vec(SERVE_N)
            req = {"id": rid, "op": "solve", "n": SERVE_N, "a": a, "b": b}
            check = reply_solves(a, [b], SCALAR)
        else:
            key = "k%d" % inp.rng.randrange(SERVE_KEYS)
            a = mats[key]
            u = inp.rng.random()
            if u < BATCH_FRAC:
                bs = [inp.vec(SERVE_N) for _ in range(8)]
                req = {"id": rid, "op": "batch", "key": key, "bs": bs}
                check = reply_solves(a, bs, SCALAR)
            else:
                b = inp.vec(SERVE_N)
                req = {"id": rid, "op": "solve", "key": key, "b": b}
                engine = SCALAR
                if u < BATCH_FRAC + BLOCK_FRAC:
                    req["engine"] = engine = BLOCK
                check = reply_solves(a, [b], engine)
        reqs.append((i / rps, req, check))
    return reqs


def percentile_supported(xs):
    """(label, value): the highest of p99.9/p99/p95/p90/p50 with at least
    ten samples beyond it."""
    xs = sorted(xs)
    for q, label in ((0.999, "p99.9"), (0.99, "p99"), (0.95, "p95"), (0.90, "p90")):
        if len(xs) * (1 - q) >= 10:
            return label, xs[min(len(xs) - 1, int(math.ceil(q * len(xs))) - 1)]
    return "p50", statistics.median(xs)


def drive(d, schedule, tally, probes=False, strict=True):
    """Send `schedule` open-loop over the daemon's two connections from one
    thread; each latency runs from when the request was due to when its
    reply was read.  Replies are verified after the run, so checking does
    not delay reading.  Failed or shed requests count as infinitely late,
    and as failures unless `strict` is off (rate-ladder rungs past
    capacity are expected to shed; a wrong answer is a failure either
    way).  With `probes`, a ping and a metrics snapshot ride along every
    quarter second."""
    sel = selectors.DefaultSelector()
    for c in d.conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    start = time.perf_counter() + 0.05
    sent, replies, ping_sent, ping_ms = {}, {}, {}, []
    depth_max, lag_max = 0, 0.0
    i, nprobe = 0, 0
    horizon = start + schedule[-1][0] + 30
    while (i < len(schedule) or len(replies) < len(sent)) and time.perf_counter() < horizon:
        now = time.perf_counter()
        while i < len(schedule) and start + schedule[i][0] <= now:
            d.conns[i % 2].send(schedule[i][1])
            lag_max = max(lag_max, time.perf_counter() - (start + schedule[i][0]))
            sent[schedule[i][1]["id"]] = True
            i += 1
        if probes and i < len(schedule) and now >= start + 0.25 * nprobe:
            ping_sent["ping%d" % nprobe] = time.perf_counter()
            d.conns[nprobe % 2].send({"id": "ping%d" % nprobe, "op": "ping"})
            d.conns[nprobe % 2].send({"id": "metrics%d" % nprobe, "op": "metrics"})
            nprobe += 1
        wait = (start + schedule[i][0] - time.perf_counter()) if i < len(schedule) else 0.5
        for key, _ in sel.select(max(0.0, min(wait, 0.5))):
            t = time.perf_counter()
            for r in key.data.lines():
                rid = r.get("id") or ""
                if rid in ping_sent:
                    ping_ms.append(1000 * (t - ping_sent.pop(rid)))
                elif rid.startswith("metrics"):
                    depth_max = max(depth_max, (r.get("gauges") or {}).get("serve.queue.depth", 0))
                elif rid in sent:
                    replies[rid] = (t, r)
    sel.close()
    lat_ms = []
    for due, req, check in schedule:
        t, r = replies.get(req["id"], (None, {"status": "no reply"}))
        answered = r.get("status") == "ok"
        ok = answered and passes(check, r)
        if answered or strict:
            tally.count(ok, "serve request %s: %s" % (req["id"], json.dumps(r)[:200]))
        lat_ms.append(1000 * (t - (start + due)) if ok else math.inf)
    return {"lat_ms": lat_ms, "ping_ms": ping_ms,
            "depth_max": depth_max, "lag_ms": 1000 * lag_max}


def serve_workload(seed, seconds, trace):
    inp = Inputs("serve-session", seed)
    tally = Tally()
    keyed = serve_working_set(inp)
    count = max(1, int(round(seconds * SERVE_RPS)))
    schedule = serve_schedule(inp, keyed, count, SERVE_RPS)
    setups, builds, live = [], [], []
    try:
        # set-up, three times: daemon launch to the keyed working set
        # registered and built; the third daemon takes the traffic
        for k in range(3):
            t0 = time.perf_counter()
            live.append(Daemon())
            builds.extend(register(live[-1], keyed, tally))
            setups.append(time.perf_counter() - t0)
            if k < 2:
                live[-1].stop()
        d = live[-1]
        if trace:
            return tally, trace_serve(d, inp, keyed, schedule, builds, tally)
        run = drive(d, schedule, tally)
        p50 = statistics.median(run["lat_ms"])
        label, tail = percentile_supported(run["lat_ms"])
        log("serve: %d requests at %d/s, generator lag max %.2f ms" % (count, SERVE_RPS, run["lag_ms"]))
        log("serve: p50 %.3f ms, %s %.3f ms" % (p50, label, tail))
        return tally, {
            "op_ms": (p50, "ms"),
            "tail_ms": (tail, "ms"),
            "peak_rss_mb": (d.stop(), "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    finally:
        for d in live:
            if d.proc.returncode is None:
                d.stop()


# ---------------------------------------------------------------- traced run

# Per-layer metrics; every traced run reports all of them, 0 where the
# workload does not reach the layer.
LAYER_METRICS = [
    ("pipeline.generator_s", "s"), ("pipeline.det_hd_s", "s"), ("pipeline.krylov_s", "s"),
    ("pipeline.precondition_s", "s"), ("pipeline.recover_s", "s"), ("pipeline.session_apply_s", "s"),
    ("circuit.det_circuit_s", "s"), ("circuit.self_s", "s"),
    ("structured.toeplitz_charpoly_s", "s"), ("structured.leverrier_s", "s"), ("structured.gs_apply_s", "s"),
    ("poly.conv_karatsuba_s", "s"), ("poly.conv_ntt_s", "s"),
    ("block.precondition_s", "s"), ("block.sequence_s", "s"), ("block.generator_s", "s"),
    ("block.recover_s", "s"), ("block.krylov_blocks", "count"),
    ("wiedemann.solve_s", "s"), ("blackbox.applies", "count"),
    ("seqgen.bm_s", "s"), ("seqgen.matrix_bm_s", "s"),
    ("precond.hd_build_s", "s"), ("precond.butterfly_apply_s", "s"), ("precond.ops_per_apply", "ops"),
    ("kernel.matvec_s", "s"), ("kernel.matmul_s", "s"), ("kernel.matvec_gops", "Gop/s"),
    ("kernel.matvec_bytes", "B"), ("kernel.bulk_ops", "ops"), ("kernel.calls", "count"),
    ("kernel.ops_per_call", "ops"),
    ("cli.overhead_s", "s"),
    ("session.build_s", "s"), ("session.serve_s", "s"), ("session.hit_ratio", "ratio"),
    ("session.evictions", "count"),
    ("serve.parse_us", "us"), ("serve.render_us", "us"), ("serve.ping_rtt_ms", "ms"),
    ("serve.queue_depth_max", "count"), ("serve.shed", "count"), ("serve.rung_block_ok", "count"),
    ("serve.rung_scalar_ok", "count"), ("serve.gen_lag_ms", "ms"),
    ("serve.max_rps_p99_under_1000ms", "1/s"),
    ("robust.attempts_per_answer", "ratio"), ("robust.rejections", "count"),
    ("obs.trace_overhead_frac", "ratio"),
    ("trace.coverage", "ratio"), ("trace.flags", "count"),
] + [("share." + l, "ratio") for l in (
    "cli", "circuit", "pipeline", "session", "block", "wiedemann", "seqgen", "precond", "kernel", "serve")]

# Which workloads each layer's share should be visible on (> 1% of the
# end-to-end time), and which it should stay out of (< 5%).  A traced run
# that contradicts a prediction is flagged.
PREDICTED = {
    "pipeline": (("dense-theorem4",), ("blackbox-512",)),
    "circuit": (("dense-theorem4",), ("blackbox-512", "serve-session")),
    "session": (("serve-session", "dense-theorem4"), ("blackbox-512",)),
    "block": (("blackbox-512",), ("dense-theorem4",)),
    "wiedemann": (("blackbox-512",), ("dense-theorem4",)),
    "seqgen": (("blackbox-512",), ("dense-theorem4",)),
    "precond": (("blackbox-512",), ("serve-session",)),
    "kernel": (("blackbox-512",), ()),
    "cli": (("blackbox-512",), ("dense-theorem4",)),
    "serve": (("serve-session",), ("dense-theorem4", "blackbox-512")),
}

ENGINES = ("solver", "wiedemann", "block", "inverse")


def self_times(spans):
    """{path: (total s, self s)}: self = total minus direct children."""
    tot = {s["path"]: s["total_ns"] / 1e9 for s in spans}
    out = {}
    for path, total in tot.items():
        kids = sum(t for q, t in tot.items() if "/" in q and q.rsplit("/", 1)[0] == path)
        out[path] = (total, max(0.0, total - kids))
    return out


def attribute(kind, wall, stats, direct):
    """Split one traced command's wall time into layer self times.  Span
    self times come from the program's own spans; inside the black-box
    Wiedemann span, which has no child spans, kernel, preconditioner and
    Berlekamp–Massey time is estimated as counter × direct per-call time
    (capped at the span's self time)."""
    spans = self_times(stats["spans"])
    ctr = stats["counters"]
    layers = dict.fromkeys(["cli", "circuit", "pipeline", "session", "block", "wiedemann",
                            "seqgen", "precond", "kernel", "core"], 0.0)
    named = {}
    top = sum(t for p, (t, _) in spans.items() if "/" not in p)
    for path, (total, selft) in spans.items():
        name = path.rsplit("/", 1)[-1]
        under_block = path.startswith("block.solve")
        if name.startswith("pipeline."):
            metric = ("block." if under_block else "pipeline.") + name.split(".", 1)[1] + "_s"
            named[metric] = named.get(metric, 0.0) + total
            layers["precond" if under_block else "pipeline"] += selft
        elif name.startswith("block."):
            named[name + "_s"] = named.get(name + "_s", 0.0) + total
            layers[{"block.sequence": "kernel", "block.generator": "seqgen"}.get(name, "block")] += selft
        elif name.startswith("session."):
            layers["session"] += selft
        elif name.startswith("precond."):
            layers["precond"] += selft
        elif name.startswith("wiedemann."):
            named["wiedemann.solve_s"] = named.get("wiedemann.solve_s", 0.0) + total
            est = {"kernel": ctr.get("blackbox.applies", 0) * direct.get("kernel.matvec_s", 0.0),
                   "precond": ctr.get("blackbox.preconditioned.applies", 0)
                   * direct.get("precond.butterfly_apply_s", 0.0),
                   "seqgen": ctr.get("wiedemann.attempts", 0) * direct.get("seqgen.bm_s", 0.0)}
            scale = min(1.0, selft / sum(est.values())) if sum(est.values()) > 0 else 0.0
            for l, v in est.items():
                layers[l] += v * scale
            layers["wiedemann"] += selft - sum(est.values()) * scale
        else:
            layers["core"] += selft
    if kind == "dense_inverse":
        # the Baur–Strassen circuit path emits no span of its own
        named["circuit.self_s"] = wall - top
        layers["circuit"] += wall - top
    else:
        named["cli.overhead_s"] = wall - top
        layers["cli"] += wall - top
    return named, layers


def set_counter_metrics(m, ctr):
    """Counter-derived layer metrics from summed program counters."""
    calls = sum(v for k, v in ctr.items()
                if k.startswith("kernel.") and k.count(".") == 1 and k != "kernel.bulk_ops")
    attempts = sum(ctr.get(e + ".attempts", 0) for e in ENGINES)
    answers = sum(ctr.get(e + ".successes", 0) for e in ENGINES)
    hits, misses = ctr.get("session.cache.hit", 0), ctr.get("session.cache.miss", 0)
    m["kernel.bulk_ops"], m["kernel.calls"] = ctr.get("kernel.bulk_ops", 0), calls
    m["kernel.ops_per_call"] = m["kernel.bulk_ops"] / calls if calls else 0.0
    m["block.krylov_blocks"] = ctr.get("block.krylov.blocks", 0)
    m["blackbox.applies"] = ctr.get("blackbox.applies", 0)
    m["robust.attempts_per_answer"] = attempts / answers if answers else 0.0
    m["robust.rejections"] = attempts - answers
    m["session.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["session.evictions"] = ctr.get("session.cache.evict", 0) + ctr.get("session.cache.evict_capacity", 0)


def flag_predictions(workload, shares):
    flags = []
    for layer, (moves, stays) in PREDICTED.items():
        s = shares.get(layer, 0.0)
        if workload in moves and s < 0.01:
            flags.append("%s: predicted to move %s, but carries %.2f%% of its time" % (layer, workload, 100 * s))
        if workload in stays and s > 0.05:
            flags.append("%s: predicted ~0 on %s, but carries %.2f%% of its time" % (layer, workload, 100 * s))
    return flags


def report(workload, m, layers, e2e, flags, extra=()):
    log("\n== traced run: %s (end-to-end %.4f s per cycle, untraced)" % (workload, e2e))
    log("%-10s %12s %8s" % ("layer", "self s", "share"))
    for l, v in sorted(layers.items(), key=lambda kv: -kv[1]):
        log("%-10s %12.6f %7.2f%%" % (l, v, 100 * v / e2e))
    log("coverage %.4f   trace overhead %+.4f" % (m["trace.coverage"], m["obs.trace_overhead_frac"]))
    for line in extra:
        log(line)
    for f in flags:
        log("FLAG " + f)


def trace_cli(workload, seed, medians, traced):
    """Per-layer metrics from the traced command of each kind whose wall
    time is the kind's median: span metrics and counters are per workload
    cycle (one command of each kind), shares are against the untraced
    per-kind medians."""
    direct = probe("dense" if workload == "dense-theorem4" else "blackbox", str(seed))
    m = dict.fromkeys((k for k, _ in LAYER_METRICS), 0.0)
    m.update({k: v for k, v in direct.items() if k in m})
    layers, kinds, ctr = {}, {}, {}
    for kind in medians:
        runs = sorted((t for t in traced if t[0] == kind), key=lambda t: t[2])
        if not runs:
            continue
        _, _, twall, stats = runs[(len(runs) - 1) // 2]
        named, lay = attribute(kind, twall, stats, direct)
        kinds[kind] = (twall, named, lay)
        for k, v in named.items():
            m[k] = m.get(k, 0.0) + v
        for k, v in lay.items():
            layers[k] = layers.get(k, 0.0) + v
        for k, v in stats["counters"].items():
            ctr[k] = ctr.get(k, 0) + v
    set_counter_metrics(m, ctr)
    e2e = sum(medians.values())
    shares = {l: v / e2e for l, v in layers.items()}
    for l, s in shares.items():
        if "share." + l in m:
            m["share." + l] = s
    m["trace.coverage"] = sum(layers.values()) / e2e
    m["obs.trace_overhead_frac"] = sum(t for _, _, t, _ in traced) / sum(w for _, w, _, _ in traced) - 1
    extra = ["%-16s %8.4f s traced: %s" % (k, w, ", ".join(
        "%s %.1f%%" % (l, 100 * v / w) for l, v in sorted(lay.items(), key=lambda kv: -kv[1]) if v / w >= 0.005))
        for k, (w, _, lay) in sorted(kinds.items())]
    extra += acceptance_cli(workload, kinds)
    # Wiedemann's own work is the kernel, preconditioner and BM time
    # estimated out of its span, so its presence is judged by the span
    flags = flag_predictions(workload, dict(shares, wiedemann=m["wiedemann.solve_s"] / e2e))
    m["trace.flags"] = len(flags)
    report(workload, m, layers, e2e, flags, extra)
    return {k: (m[k], u) for k, u in LAYER_METRICS}


def acceptance_cli(workload, kinds):
    lines = []
    if workload == "dense-theorem4":
        for k in ("dense_solve", "dense_det"):
            if k in kinds:
                w, named, _ = kinds[k]
                f = (named.get("pipeline.generator_s", 0) + named.get("pipeline.det_hd_s", 0)) / w
                lines.append("check %s: generator + det_hd = %.1f%% of the command (want >= 90%%)" % (k, 100 * f))
        if "dense_inverse" in kinds:
            w, named, _ = kinds["dense_inverse"]
            lines.append("check dense_inverse: circuit.self = %.1f%% of the command (want >= 50%%)"
                         % (100 * named.get("circuit.self_s", 0) / w))
    else:
        for k, (w, named, lay) in sorted(kinds.items()):
            f = sum(lay.get(l, 0) for l in ("kernel", "precond", "seqgen", "cli")) / w
            lines.append("check %s: kernel + precond + seqgen + cli = %.1f%% of the command (want >= 80%%);"
                         " generator %.4f s, det_hd %.4f s (want 0)" % (
                             k, 100 * f, named.get("pipeline.generator_s", 0), named.get("pipeline.det_hd_s", 0)))
    return lines


def ladder(d, inp, keyed, tally):
    """Highest rung of LADDER_RPS whose p99 (failures count as over) stays
    under P99_LIMIT_MS with no growing backlog; 0 if none does."""
    best = 0
    for rps in LADDER_RPS:
        sched = serve_schedule(inp, keyed, max(200, 4 * rps), rps)
        run = drive(d, sched, tally, strict=False)
        lat = run["lat_ms"]
        _, p99 = percentile_supported(lat)
        half = len(lat) // 2
        growing = statistics.median(lat[half:]) > 2 * statistics.median(lat[:half]) + 50
        log("ladder %4d/s: %d requests, p99 %.1f ms, %d unanswered, backlog %s" % (
            rps, len(lat), p99, sum(map(math.isinf, lat)), "growing" if growing else "flat"))
        if p99 > P99_LIMIT_MS or growing:
            break
        best = rps
    return best


def trace_serve(d, inp, keyed, schedule, builds, tally):
    m = dict.fromkeys((k for k, _ in LAYER_METRICS), 0.0)
    lines_path = os.path.join(WORK, "requests.txt")
    with open(lines_path, "w") as f:
        for _, req, _ in schedule:
            f.write(json.dumps(req, separators=(",", ":")) + "\n")
    m.update(probe("protocol", lines_path))
    plain = drive(d, schedule, tally)
    c0, _ = d.metrics()
    # a second schedule of the same mix: replaying the first would find its
    # inline matrices already cached and skip their builds
    traced = drive(d, serve_schedule(inp, keyed, len(schedule), SERVE_RPS), tally, probes=True)
    c1, _ = d.metrics()
    ctr = {k: c1.get(k, 0) - c0.get(k, 0) for k in c1}
    # idle round trips, closed loop: a keyed session read minus a ping is
    # the session's share of a read
    a = dict(keyed)["k0"]
    reads, idle_pings = [], []
    for j in range(21):
        t = time.perf_counter()
        d.conns[0].call({"id": "idle-ping%d" % j, "op": "ping"})
        idle_pings.append(time.perf_counter() - t)
        b = inp.vec(SERVE_N)
        t = time.perf_counter()
        r = d.conns[0].call({"id": "idle%d" % j, "op": "solve", "key": "k0", "b": b})
        reads.append(time.perf_counter() - t)
        tally.count(r.get("status") == "ok" and passes(reply_solves(a, [b], SCALAR), r), "idle read")
    m["serve.max_rps_p99_under_1000ms"] = ladder(d, inp, keyed, tally)
    d.stop()
    set_counter_metrics(m, ctr)
    p50 = statistics.median(traced["lat_ms"])
    ping = statistics.median(traced["ping_ms"]) if traced["ping_ms"] else 0.0
    m["serve.ping_rtt_ms"] = ping
    m["serve.queue_depth_max"] = traced["depth_max"]
    m["serve.gen_lag_ms"] = traced["lag_ms"]
    m["serve.shed"] = ctr.get("serve.shed", 0)
    m["serve.rung_block_ok"] = ctr.get("serve.engine.block.ok", 0)
    m["serve.rung_scalar_ok"] = ctr.get("serve.engine.scalar.ok", 0)
    m["session.build_s"] = statistics.median(builds)
    m["session.serve_s"] = max(0.0, statistics.median(reads) - statistics.median(idle_pings))
    m["obs.trace_overhead_frac"] = p50 / statistics.median(plain["lat_ms"]) - 1
    wire = ping + (m["serve.parse_us"] + m["serve.render_us"]) / 1000
    layers = {"serve": wire / 1000, "session": m["session.serve_s"]}
    e2e = statistics.median(plain["lat_ms"]) / 1000
    shares = {l: v / e2e for l, v in layers.items()}
    m["share.serve"], m["share.session"] = shares["serve"], shares["session"]
    m["trace.coverage"] = sum(layers.values()) / e2e
    flags = flag_predictions("serve-session", shares)
    m["trace.flags"] = len(flags)
    _, tail = percentile_supported(traced["lat_ms"])
    report("serve-session", m, layers, e2e, flags, [
        "traced p50 %.3f ms, tail %.3f ms; session.build %.4f s; check: p50 = %.2f%% of session.build (want < 10%%)"
        % (p50, tail, m["session.build_s"], 100 * (p50 / 1000) / m["session.build_s"])])
    return {k: (m[k], u) for k, u in LAYER_METRICS}


# ---------------------------------------------------------------- self-test


def selftest():
    """A corrupted x entry or det value, or an answer from another engine
    than the one asked for, must count as a failure, on the one-shot path
    and on the serve path; the untouched answers pass."""
    build()
    inp = Inputs("selftest", 0)
    tally = Tally()
    f, a, d, bs = write_system(inp, "selftest", SERVE_N)
    solve = Op("solve", ["solve", "--matrix", f], check_solution(a, SERVE_N, bs, "blackbox"))
    det = Op("det", ["det", "--matrix", f], check_det(d))
    _, _, code, text = run_kp(solve.args, False)
    x = parse_solutions(text)[0][1]
    bad_x = text.replace("x_3 = %d" % x[3], "x_3 = %d" % ((x[3] + 1) % P))
    _, _, dcode, dtext = run_kp(det.args, False)
    bad_det = dtext.replace("det = %d" % d, "det = %d" % ((d + 1) % P))
    other_engine = text.replace("solution (engine: blackbox", "solution (engine: dense")
    reply = reply_solves(a, bs, SCALAR)
    good_reply = {"status": "ok", "x": x, "engine": SCALAR}
    bad_reply = dict(good_reply, x=x[:3] + [(x[3] + 1) % P] + x[4:])
    verdicts = [
        (True, account(tally, solve, code, text)),
        (True, account(tally, det, dcode, dtext)),
        (True, tally.count(passes(reply, good_reply), "serve reply")),
        (False, account(tally, solve, code, bad_x)),
        (False, account(tally, det, dcode, bad_det)),
        (False, account(tally, solve, code, "")),
        (False, account(tally, solve, code, other_engine)),
        (False, tally.count(passes(reply, bad_reply), "corrupted serve reply")),
        (False, tally.count(passes(reply, dict(good_reply, engine="dense")), "serve reply from another rung")),
    ]
    passed = all(want == got for want, got in verdicts) and tally.failed == 6
    print(json.dumps({"selftest": "pass" if passed else "FAIL", "attempted": tally.attempted,
                      "failed": tally.failed}))
    return 0 if passed else 1


# ---------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="check that corrupted answers count as failures")
    args = ap.parse_args()
    # a terminated benchmark still stops the daemon and commands it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            ap.error("--workload is required")
        build()
        if args.workload == "serve-session":
            tally, metrics = serve_workload(args.seed, args.seconds, args.trace)
        else:
            tally, metrics = cli_workload(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 2
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
