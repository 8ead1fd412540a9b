#!/usr/bin/env python3
"""saSTA benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload batch_iscas --seed 1 --seconds 10 --trace 0

Builds the `sasta` CLI and the benchmark helper from this checkout into
`.bench_build/`, draws the workload's inputs from the seed, measures it from
outside the program (CLI processes and one `sasta --serve` daemon connection)
and checks every result against an independent reference.  `--trace 1` runs
the separate traced run instead and reports the per-layer split.  The last
stdout line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The exit status is nonzero when any correctness gate fails.  See README.md.
"""
import argparse
import glob
import hashlib
import json
import math
import os
import re
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
SASTA = os.path.join(BUILD, "repo", "tools", "sasta")
TOOL = os.path.join(BUILD, "perfbench_tool")

WORKLOADS = ("batch_iscas", "serve_eco")
SETUP_REPS = 2            # setup_s is the median of this many cold set-ups
GOLDEN_TOL_PCT = 5.0      # |saSTA - golden| / golden allowed per path
MAX_SECONDS = 600.0       # --max-seconds: far above any expected analysis
OP_TIMEOUT_S = 150.0      # a single operation longer than this is a failure
REF_CALIB_S = 0.1         # host_scale: reference-kernel seconds at unit scale
PROTOCOL_SAMPLES = 40     # warm requests timed for server.protocol_ms
READ_SAMPLES = 300        # serve_eco: warm analyzes of the unedited design,
                          # per session


def log(*a):
    print(*a, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that ends the run without a result (exit 2)."""


# --- build and provenance ----------------------------------------------------

def build(jobs):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no saSTA sources next to perfbench/ (run from a "
                         "full checkout)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            raise BenchError("cmake configure failed")
    b = subprocess.run(
        ["cmake", "--build", BUILD, "-j", str(jobs), "--target", "sasta_cli",
         "perfbench_tool"], stdout=sys.stderr, stderr=sys.stderr)
    if b.returncode != 0 or not os.path.isfile(SASTA):
        raise BenchError("build failed")


def source_digest():
    """Content hash of the program's sources (the checkout has no .git)."""
    h = hashlib.sha256()
    for d in ("src", "tools"):
        for path in sorted(glob.glob(os.path.join(ROOT, d, "**", "*"),
                                     recursive=True)):
            if os.path.isfile(path):
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def provenance(threads, seed, workload):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                k, v = line.rstrip("\n").split("=", 1)
                cache[k.split(":", 1)[0]] = v
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = []
    for path in glob.glob(os.path.join(BUILD, "CMakeFiles", "*",
                                       "CMakeCXXCompiler.cmake")):
        with open(path) as f:
            for line in f:
                if line.startswith(("set(CMAKE_CXX_COMPILER_ID ",
                                    "set(CMAKE_CXX_COMPILER_VERSION ")):
                    version.append(line.split(" ", 1)[1].strip(' ")\n'))
    git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": compiler,
        "compiler_version": " ".join(version) or "unknown",
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "git_sha": git.stdout.strip() if git.returncode == 0 else None,
        "source_sha256": source_digest(),
        "threads": threads,
        "workload": workload,
        "seed": seed,
    }


# --- processes ---------------------------------------------------------------

def run_timed(cmd, stdout_path, env, timeout=OP_TIMEOUT_S):
    """Runs one child; returns (seconds, exit code, peak RSS in MB)."""
    with open(stdout_path, "w") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL,
                             env=env, cwd=ROOT)
        killer = threading.Timer(timeout, p.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        dt = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return dt, p.returncode, ru.ru_maxrss / 1024.0


def tool(args):
    try:
        r = subprocess.run([TOOL] + args, capture_output=True, text=True,
                           cwd=ROOT, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("perfbench_tool %s timed out" % args[0])
    if r.returncode != 0:
        raise BenchError("perfbench_tool %s failed: %s" % (args[0],
                                                          r.stderr.strip()))
    return json.loads(r.stdout.strip().splitlines()[-1])


class Daemon:
    """One `sasta --serve` process and the benchmark's one connection."""

    def __init__(self, sock_path, env, threads):
        self.sock_path = sock_path
        self.proc = subprocess.Popen(
            [SASTA, "--serve", "--socket", sock_path, "-q", "--threads",
             str(threads), "--max-seconds", str(MAX_SECONDS)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
            cwd=ROOT)
        self.conn = None
        self.buf = b""
        self.next_id = 1
        self.rss_mb = 0.0
        deadline = time.monotonic() + 60.0
        while True:
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.connect(sock_path)
                self.conn = s
                break
            except OSError:
                s.close()
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.proc.kill()
                    self.proc.wait()
                    raise BenchError("daemon did not start")
                time.sleep(0.002)
        self.conn.settimeout(OP_TIMEOUT_S)

    def call(self, method, params=None):
        """Closed loop: send one request, wait for its reply.  Returns
        (round-trip seconds, reply object)."""
        req = {"id": self.next_id, "method": method, "params": params or {}}
        self.next_id += 1
        data = (json.dumps(req) + "\n").encode()
        t0 = time.perf_counter()
        self.conn.sendall(data)
        while b"\n" not in self.buf:
            chunk = self.conn.recv(1 << 20)
            if not chunk:
                raise BenchError("daemon closed the connection")
            self.buf += chunk
        dt = time.perf_counter() - t0
        line, self.buf = self.buf.split(b"\n", 1)
        return dt, json.loads(line)

    def stop(self):
        if self.proc.poll() is None and self.conn is not None:
            try:
                self.call("shutdown")
            except (OSError, BenchError, ValueError):
                pass
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        killer = threading.Timer(30.0, self.proc.kill)
        killer.start()
        try:
            if self.proc.returncode is None:
                _, status, ru = os.wait4(self.proc.pid, 0)
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.rss_mb = ru.ru_maxrss / 1024.0
        finally:
            killer.cancel()
        return self.proc.returncode


# --- statistics --------------------------------------------------------------

def quantile(samples, q):
    """Nearest-rank quantile of the raw samples: never above the max."""
    s = sorted(samples)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def tail(samples):
    """The highest standard percentile with >= 10 samples beyond it.
    Returns (value, label); with fewer than 11 samples, the max."""
    n = len(samples)
    for q, label in ((0.999, "p99.9"), (0.99, "p99"), (0.95, "p95"),
                     (0.9, "p90"), (0.75, "p75"), (0.5, "p50")):
        if n - math.ceil(q * n) >= 10:
            return quantile(samples, q), label
    return max(samples), "max"


# --- workloads ---------------------------------------------------------------

class Run:
    def __init__(self, args, threads, workdir):
        self.args = args
        self.threads = threads
        self.workdir = workdir
        self.attempted = 0
        self.calibs = []
        self.failed = 0
        self.notes = []
        self.daemon = None

    def spans_path(self):
        """Where the traced run leaves its spans: kept after the run."""
        return os.path.join(os.path.dirname(self.workdir),
                            "%s-s%d.trace.json" % (self.args.workload,
                                                   self.args.seed))

    def calibrate(self):
        """Times the reference kernel once: how fast the host runs now."""
        self.calibs.append(tool(["calib", "--threads",
                                 str(self.threads)])["seconds"])

    def host_scale(self):
        """REF_CALIB_S over the run's median kernel time.  A measured time
        times this is the time on a host as fast as the reference: the
        kernel moves with the host, never with the program."""
        return REF_CALIB_S / statistics.median(self.calibs)

    def fail(self, what, n=1):
        self.failed += n
        self.notes.append(what)

    def fresh(self, name):
        path = os.path.join(self.workdir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def env(self, cache):
        return dict(os.environ, SASTA_CACHE_DIR=cache)

    def gen(self, gen_dir):
        return tool(["gen", "--workload", self.args.workload, "--seed",
                     str(self.args.seed), "--dir", gen_dir, "--smoke",
                     "1" if self.args.smoke else "0"])

    def rel(self, path):
        return os.path.relpath(path, ROOT)

    # Set-up: fresh cache -> characterized library + generated inputs (+ for
    # serve_eco a started daemon with the design loaded).
    def setup(self):
        samples = []
        for rep in range(SETUP_REPS):
            cache = self.fresh("cache")
            gen_dir = self.fresh("gen")
            if self.daemon is not None:
                self.daemon.stop()
                self.daemon = None
            self.calibrate()
            t0 = time.perf_counter()
            plan = self.gen(gen_dir)
            if self.args.workload == "serve_eco":
                self.daemon = self.start_daemon(cache, gen_dir, plan)
            else:
                dt, rc, _ = run_timed([SASTA, "-q", "--threads",
                                       str(self.threads), "c17"],
                                      os.path.join(self.workdir, "c17.out"),
                                      self.env(cache))
                if rc != 0:
                    raise BenchError("characterization run failed")
            samples.append(time.perf_counter() - t0)
        self.cache, self.gen_dir, self.plan = cache, gen_dir, plan
        return samples

    def start_daemon(self, cache, gen_dir, plan):
        """A started `sasta --serve` with the plan's design loaded."""
        d = Daemon(self.rel(os.path.join(self.workdir, "s.sock")),
                   self.env(cache), self.threads)
        self.daemon = d
        circuit = plan["circuits"][0]
        with open(os.path.join(gen_dir, circuit["bench"])) as f:
            text = f.read()
        result(d.call("load", {"netlist": circuit["name"],
                               "bench_text": text})[1])
        return d

    def cli_analyze(self, circuit, out_path):
        """One batch analysis of one circuit; returns (seconds, peak RSS MB,
        gate passed, stdout)."""
        bench = os.path.join(self.gen_dir, circuit["bench"])
        dt, rc, rss = run_timed(
            [SASTA, "-q", "--threads", str(self.threads), "--max-seconds",
             str(MAX_SECONDS), "--paths", "10", "--report", bench],
            out_path, self.env(self.cache))
        with open(out_path) as f:
            text = f.read()
        ok = rc == 0 and "worst true paths:" in text and \
            "TRUNCATED" not in text
        return dt, rss, ok, text

    def golden(self, circuit, out_path):
        return tool(["golden", "--bench",
                     os.path.join(self.gen_dir, circuit["bench"]),
                     "--cli-out", out_path, "--cache", self.cache,
                     "--tol-pct", str(self.args.golden_tol_pct)])

    def batch(self, m):
        circuits = self.plan["circuits"]
        per_circuit = {c["name"]: [] for c in circuits}
        op_ms, rss, drops, passes = [], 0.0, 0, 0
        listing = {}
        start = time.perf_counter()
        pass_s = 0.0
        while passes == 0 or (time.perf_counter() - start + pass_s
                              <= self.args.seconds):
            t0 = time.perf_counter()
            self.calibrate()
            for c in circuits:
                out = os.path.join(self.workdir, c["name"] + ".out")
                dt, r, ok, text = self.cli_analyze(c, out)
                self.attempted += 1
                per_circuit[c["name"]].append(dt)
                op_ms.append(dt * 1e3)
                rss = max(rss, r)
                paths = text.split("worst true paths:", 1)[-1]
                if not ok:
                    self.fail("%s: nonzero exit, truncated or no paths"
                              % c["name"])
                elif listing.setdefault(c["name"], paths) != paths:
                    self.fail("%s: worst paths differ between passes"
                              % c["name"])
                if passes == 0:
                    b = re.search(r"(\d+) budget drops", text)
                    f = re.search(r"races, (\d+) drops", text)
                    drops += int(b.group(1)) if b else 0
                    m.setdefault("circuit_rows", []).append(
                        "%s: %s budget drops, %s memo-table full drops"
                        % (c["name"], b.group(1) if b else "?",
                           f.group(1) if f else "?"))
            passes += 1
            pass_s = time.perf_counter() - t0
        err = 0.0
        for c in circuits:
            g = self.golden(c, os.path.join(self.workdir, c["name"] + ".out"))
            err = max(err, g["max_err_pct"])
            m["golden_paths"] = m.get("golden_paths", 0) + g["checked"]
            if g["bad"] > 0:
                # Every analysis of the circuit printed these paths.
                self.fail("%s: %d of %d worst paths outside the %.1f%% "
                          "golden tolerance" % (c["name"], g["bad"],
                                                g["checked"],
                                                self.args.golden_tol_pct),
                          passes)
        # The set's time is the sum of the per-circuit medians: a slow
        # analysis moves only its own circuit's median.
        m["analyze_s"] = sum(statistics.median(v)
                             for v in per_circuit.values())
        for c in circuits:
            v = per_circuit[c["name"]]
            m["circuit_rows"].append("%s: median %.3f s over %d analyses"
                                     % (c["name"], statistics.median(v),
                                        len(v)))
        m["passes"] = passes
        m["op_ms"] = op_ms
        m["peak_rss_mb"] = rss
        m["budget_drops"] = drops
        m["delay_err_pct"] = err

    def serve(self, m):
        """Sessions on a fresh daemon each, until the time is up: load, a
        cold analyze, reads of the unedited design, the seeded mix once,
        then the force_cold gate.  Every session starts from the same
        design, so the gated reads never depend on an edit history."""
        circuit = self.plan["circuits"][0]
        cold, kinds = [], {"read": [], "warm": [], "retime": [], "swap": []}
        swap_dirty = []
        first = None
        rss, sessions, session_s = 0.0, 0, 0.0
        start = time.perf_counter()
        while sessions == 0 or (time.perf_counter() - start + session_s
                                <= self.args.seconds):
            t0 = time.perf_counter()
            self.calibrate()
            d = self.daemon or self.start_daemon(self.cache, self.gen_dir,
                                                 self.plan)
            reply = self.session(d, cold, kinds, swap_dirty)
            first = first or reply
            code = d.stop()
            self.daemon = None
            rss = max(rss, d.rss_mb)
            if code != 0:
                self.fail("daemon exit code %s" % code)
            sessions += 1
            session_s = time.perf_counter() - t0
        m["budget_drops"] = first["stats"]["justify_limited"] if first else 0
        m["peak_rss_mb"] = rss
        m["analyze_s"] = statistics.median(cold)
        m["cold_samples"] = cold
        m["sessions"] = sessions
        m["kinds"] = kinds
        m["op_ms"] = kinds["read"]
        m["swap_dirty"] = swap_dirty
        # Accuracy: the daemon's cold answer must equal the batch CLI's on
        # the same design, whose worst paths are then re-simulated.
        out = os.path.join(self.workdir, "design.out")
        _, _, ok, text = self.cli_analyze(circuit, out)
        self.attempted += 1
        cli_paths = []
        for line in text.split("worst true paths:", 1)[-1].splitlines():
            parts = line.split()
            if len(parts) >= 3 and parts[1] == "ps":
                cli_paths.append((parts[2][:-3], parts[-1], parts[2][-2],
                                  len(parts[3:-1]) // 2, float(parts[0])))
        daemon_paths = [(p["source"], p["sink"], p["edge"], p["stages"],
                         p["delay_ps"])
                        for p in (first or {}).get("paths", [])]
        same = len(cli_paths) == len(daemon_paths) and all(
            a[:4] == b[:4] and abs(a[4] - b[4]) <= 0.05 + 1e-9
            for a, b in zip(cli_paths, daemon_paths))
        if not ok or not same:
            self.fail("daemon cold paths differ from the batch CLI's")
        g = self.golden(circuit, out)
        m["golden_paths"] = g["checked"]
        m["delay_err_pct"] = g["max_err_pct"]
        if g["bad"] > 0:
            self.fail("%d of %d worst paths outside the golden tolerance"
                      % (g["bad"], g["checked"]))

    def session(self, d, cold, kinds, swap_dirty):
        """One closed-loop session on daemon d; returns the first (cold)
        analyze result, or None if it failed."""
        def request(kind, method, params):
            rtt, reply = d.call(method, params)
            self.attempted += 1
            res = reply.get("result")
            if res is None or res.get("truncated"):
                self.fail("%s request failed: %s" % (kind, reply.get("error")))
                return rtt, None
            if kind in kinds:
                kinds[kind].append(rtt * 1e3)
            if kind == "swap":
                swap_dirty.append(res["eco"]["dirty_sources"] /
                                  res["sources"]["total"])
            return rtt, res

        rtt, first = request("cold", "analyze", {"paths": 10})
        cold.append(rtt)
        # Reads of the unedited design: after an ECO, warm cost depends on
        # the session's edit history (see README), so the gated latency is
        # taken here and the seeded mix below is reported alongside.
        for _ in range(READ_SAMPLES):
            request("read", "analyze", {"paths": 10})
        self.calibrate()
        for r in self.plan["requests"]:
            k = r["kind"]
            if k == "warm":
                request("warm", "analyze", {"paths": 10})
            elif k == "resize":
                request("retime", "eco", {"op": "resize_cell",
                                          "instance": r["instance"],
                                          "scale": r["scale"], "paths": 10})
            elif k == "retarget":
                request("retime", "eco", {"op": "retarget_corner",
                                          "temp_c": r["temp_c"],
                                          "paths": 10})
            else:
                for cell in (r["cell"], r["revert_cell"]):
                    request("swap", "eco", {"op": "swap_gate",
                                            "instance": r["instance"],
                                            "cell": cell, "paths": 10})
        self.calibrate()
        # Gate: a forced cold recompute must reproduce the last warm reply.
        _, last = request("warm", "analyze", {"paths": 10})
        rtt, forced = request("cold", "analyze", {"paths": 10,
                                                  "force_cold": True})
        cold.append(rtt)
        if last is None or forced is None or \
                forced.get("report") != last.get("report") or \
                forced.get("paths") != last.get("paths"):
            self.fail("force_cold report differs from the last warm reply")
        return first

    def trace(self):
        gen_dir = self.fresh("gen")
        plan = self.gen(gen_dir)
        r = tool(["trace", "--dir", gen_dir, "--threads", str(self.threads),
                  "--cache", os.path.join(self.workdir, "cache"),
                  "--spans-out", self.spans_path()])
        metrics = r["metrics"]
        self.attempted += len(plan["circuits"])
        if r["mismatches"]:
            self.fail("traced decomposition differs from StaTool::run",
                      r["mismatches"])
        protocol = 0.0
        if self.args.workload == "serve_eco":
            # Protocol cost: client round trip minus the daemon's own
            # request time, on warm analyzes over the one connection.
            d = Daemon(self.rel(os.path.join(self.workdir, "s.sock")),
                       self.env(os.path.join(self.workdir, "cache")),
                       self.threads)
            self.daemon = d
            circuit = plan["circuits"][0]
            with open(os.path.join(gen_dir, circuit["bench"])) as f:
                text = f.read()
            result(d.call("load", {"netlist": circuit["name"],
                                   "bench_text": text})[1])
            result(d.call("analyze", {"paths": 10})[1])
            samples = []
            for _ in range(PROTOCOL_SAMPLES):
                rtt, reply = d.call("analyze", {"paths": 10})
                samples.append((rtt - result(reply)["seconds"]) * 1e3)
            self.daemon = None
            d.stop()
            protocol = statistics.median(samples)
        metrics["server.protocol_ms"] = metric(protocol, "ms")
        return r, metrics


def result(reply):
    """The result of a reply the run cannot continue without."""
    if "result" not in reply:
        raise BenchError("request failed: %s" % reply.get("error"))
    return reply["result"]


def metric(v, unit):
    return {"value": v, "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="smallest inputs (self-test)")
    ap.add_argument("--golden-tol-pct", type=float, default=GOLDEN_TOL_PCT)
    args = ap.parse_args()

    # Half the cores, at most 2: the spare cores let the kernel move a worker
    # off a core the host is slowing, instead of waiting on it.
    threads = max(1, min(2, (os.cpu_count() or 1) // 2))
    workdir = os.path.join(ROOT, ".bench_run",
                           "%s-s%d-%d" % (args.workload, args.seed,
                                          os.getpid()))
    run = Run(args, threads, workdir)
    try:
        # Temporary files of the build and of sasta (its flight-recorder
        # dump file) stay inside the checkout too.
        os.makedirs(os.path.join(workdir, "tmp"))
        os.environ["TMPDIR"] = os.path.join(workdir, "tmp")
        build(os.cpu_count() or 1)
        prov = provenance(threads, args.seed, args.workload)
        if args.trace:
            r, metrics = run.trace()
            print("provenance " + json.dumps(prov))
            print("traced wall %.3f s, layer self times %.3f s, %d spans "
                  "written to %s" % (r["traced_wall_s"], r["attributed_s"],
                                     r["spans"], run.rel(run.spans_path())))
            for k, v in metrics.items():
                print("  %-36s %14.6g %s" % (k, v["value"], v["unit"]))
        else:
            setup = run.setup()
            m = {}
            if args.workload == "serve_eco":
                run.serve(m)
            else:
                run.batch(m)
            metrics = report(args, prov, run, setup, m)
    finally:
        if run.daemon is not None:
            run.daemon.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    for note in run.notes:
        print("FAILED: " + note)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


def report(args, prov, run, setup, m):
    """Prints every end-to-end metric of the workload by name and unit and
    returns the ones BENCHMARK.json gates (defined on every workload).
    Tails are printed, not gated: with a run's few hundred samples at most,
    they move with the host more than with the program.  The gated times
    are the measured ones times host_scale; the table shows both."""
    op_tail, op_label = tail(m["op_ms"])
    scale = run.host_scale()
    gated = {
        "setup_s": metric(statistics.median(setup) * scale, "s"),
        "analyze_s": metric(m["analyze_s"] * scale, "s"),
        "op_p50_ms": metric(quantile(m["op_ms"], 0.5) * scale, "ms"),
        "peak_rss_mb": metric(m["peak_rss_mb"], "MB"),
        "budget_drops": metric(m["budget_drops"], "count"),
        "delay_err_pct": metric(m["delay_err_pct"], "%"),
    }
    rows = [("setup_s", statistics.median(setup), "s",
             "median of %d cold set-ups" % len(setup)),
            ("peak_rss_mb", m["peak_rss_mb"], "MB", ""),
            ("failed_frac", run.failed / max(run.attempted, 1), "ratio",
             "%d of %d operations" % (run.failed, run.attempted)),
            ("budget_drops", m["budget_drops"], "count", ""),
            ("delay_err_pct", m["delay_err_pct"], "%",
             "max over %d golden-checked worst paths, tolerance %.1f%%"
             % (m["golden_paths"], args.golden_tol_pct))]
    if args.workload == "serve_eco":
        k = m["kinds"]
        rows.append(("cold_analyze_s", m["analyze_s"], "s",
                     "median of %d cold analyzes in %d sessions"
                     % (len(m["cold_samples"]), m["sessions"])))
        for name, samples in (("warm", k["read"] + k["warm"]),
                              ("retime", k["retime"])):
            t, label = tail(samples)
            rows += [(name + "_p50_ms", quantile(samples, 0.5), "ms",
                      "n=%d" % len(samples)),
                     (name + "_tail_ms", t, "ms",
                      "%s, n=%d" % (label, len(samples)))]
        rows.append(("swap_p50_ms", quantile(k["swap"], 0.5), "ms",
                     "n=%d" % len(k["swap"])))
    else:
        rows.insert(1, ("analyze_s", m["analyze_s"], "s",
                        "sum of per-circuit medians, %d passes over %d "
                        "circuits" % (m["passes"],
                                      len(run.plan["circuits"]))))
    rows += [("op_p50_ms", quantile(m["op_ms"], 0.5), "ms",
              "n=%d" % len(m["op_ms"])),
             ("op_tail_ms", op_tail, "ms",
              "%s, n=%d" % (op_label, len(m["op_ms"])))]
    print("provenance " + json.dumps(prov))
    print("workload %s seed %d: %s" % (
        args.workload, args.seed,
        ", ".join(c["name"] for c in run.plan["circuits"])))
    for name, value, unit, note in rows:
        print("  %-16s %14.6g %-6s %s" % (name, value, unit, note))
    print("  %-16s %14.6g %-6s %s" % (
        "host_scale", scale, "ratio",
        "%.3f s / median of %d reference-kernel timings (%.4f s)"
        % (REF_CALIB_S, len(run.calibs), statistics.median(run.calibs))))
    print("  gated: " + ", ".join("%s %.6g %s" % (k, v["value"], v["unit"])
                                  for k, v in gated.items()))
    for row in m.get("circuit_rows", []):
        print("  " + row)
    if args.workload == "serve_eco":
        before, after = m["kinds"]["read"], m["kinds"]["warm"]
        print("  warm analyze p50: %.3f ms before any ECO (n=%d), %.3f ms "
              "within the ECO mix (n=%d)" % (quantile(before, 0.5),
                                             len(before),
                                             quantile(after, 0.5), len(after)))
        if m["swap_dirty"]:
            print("  swap_gate dirtied %.0f%%-%.0f%% of the sources"
                  % (100 * min(m["swap_dirty"]), 100 * max(m["swap_dirty"])))
    return gated


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log("perfbench: %s" % e)
        sys.exit(2)
