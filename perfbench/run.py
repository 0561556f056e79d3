#!/usr/bin/env python3
"""The repository benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It configures and builds perfbench/ (the
lacrv libraries, kem_server and the three benchmark programs) in its own Release tree
under $CARGO_TARGET_DIR (default .bench_build), runs the workload, checks
the outputs, and prints as its last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of the traced run. The line before it is the run record
(host, nproc, compiler, build type, source sha, seed, generator output).
See perfbench/README.md for the workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_REPEATS = 9  # set-ups per run; setup_s is their median
SERVER_ARGS = ["--listen", "0", "--workers", "2", "--scheme", "both"]
# The latency limit of slo_ok_ratio. The lac-handshake entry of
# BENCHMARK.json states it, and selfcheck.py checks that the two agree.
SLO_MS = 20

# workload -> kind: "wire" runs against kem_server, "model" in process.
WORKLOADS = {"lac-handshake": "wire", "paper-model": "model"}

SIM_METRICS = [
    "sim_keygen_cycles", "sim_encaps_cycles", "sim_decaps_cycles",
    "sim_lac256_decaps_cycles", "sim_bch_decode_cycles", "sim_core_luts",
]


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(1)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ---- build ----------------------------------------------------------------

def build():
    for need in ("src/CMakeLists.txt", "examples/kem_server.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("cannot build: %s is missing from the checkout" % need)
    top = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bdir = os.path.join(ROOT, top, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", bdir, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return bdir


def run_record(bdir, args):
    cache = {}
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"([A-Z_]+):[A-Z]+=(.*)", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": platform.node(),
        "nproc": os.cpu_count(), "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "git_sha": source_sha(),
    }


def source_sha():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "examples", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


# ---- processes ------------------------------------------------------------

def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


def stop(proc, sig=signal.SIGTERM, timeout=30):
    """Stop a child and wait for it; returns its exit code."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    return proc.returncode


def ping(port):
    """One kPing round trip on a fresh connection; True on a kOk reply."""
    frame = b"LQ" + bytes([1, 3]) + struct.pack("<QII", 1, 0, 0)
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall(frame)
        reply = b""
        while len(reply) < 16:
            chunk = s.recv(16 - len(reply))
            if not chunk:
                return False
            reply += chunk
    return reply[:2] == b"LQ" and reply[3] == 0


class Server:
    """kem_server --listen, timed from spawn to port file plus first kPing."""

    def __init__(self, bdir, workdir, tag, metrics=False):
        self.port_file = os.path.join(workdir, "port-%s" % tag)
        self.metrics = os.path.join(workdir, "metrics-%s.prom" % tag) if metrics else None
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        cmd = [os.path.join(bdir, "kem_server")] + SERVER_ARGS + ["--port-file", self.port_file]
        if self.metrics:
            cmd += ["--metrics", self.metrics]
        self.log = open(os.path.join(workdir, "server-%s.log" % tag), "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=self.log, stderr=subprocess.STDOUT,
                                     cwd=workdir)
        try:
            self._await_ready(t0)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def _await_ready(self, t0):
        deadline = t0 + 60
        while not os.path.exists(self.port_file):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                fail("kem_server did not publish its port")
            time.sleep(0.0005)
        with open(self.port_file) as f:
            self.port = int(f.read().strip())
        if not ping(self.port):
            fail("kem_server did not answer the first kPing")

    def close(self):
        code = stop(self.proc)
        self.log.close()
        return code


def read_exposition(path):
    values = {}
    with open(path) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            name, _, value = line.rpartition(" ")
            if "{" not in name:
                values[name] = float(value)
    return values


def run_json(cmd, timeout):
    """Run a benchmark program and parse its last stdout line. One that found
    wrong outputs still prints its result (with correct false) and exits 1;
    no result at all fails the run."""
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode not in (0, 1) or not lines:
        fail("%s exited %d" % (os.path.basename(cmd[0]), out.returncode))
    return json.loads(lines[-1])


def run_model(bdir, seconds, seed):
    """perfbench_model --mode run; returns (result, peak RSS MB, set-up s)."""
    cmd = [os.path.join(bdir, "perfbench_model"), "--mode", "run", "--seconds",
           str(seconds), "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        line = proc.stdout.readline()
        if ready.strip() != "ready" or not line:
            fail("perfbench_model produced no result")
        rss = vm_hwm_mb(proc.pid)
        proc.stdin.close()
        if proc.wait(timeout=60) != 0:
            log("perfbench_model exited %d" % proc.returncode)
    finally:
        stop(proc, signal.SIGKILL)
    return json.loads(line), rss, setup_s


def model_setup(bdir):
    t0 = time.perf_counter()
    proc = subprocess.Popen([os.path.join(bdir, "perfbench_model"), "--mode", "setup"],
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        code = proc.wait(timeout=60)
    finally:
        stop(proc, signal.SIGKILL)
    if code != 0 or ready.strip() != "ready":
        fail("perfbench_model set-up failed")
    return elapsed


# ---- workloads ------------------------------------------------------------

def gen_cmd(bdir, port, seconds, seed, ping_on):
    return [os.path.join(bdir, "perfbench_gen"), "--port", str(port),
            "--seconds", str(seconds), "--seed", str(seed),
           "--slo-us", str(SLO_MS * 1000), "--ping", "1" if ping_on else "0"]


def serve(bdir, workdir, seconds, seed, traced):
    """Set up kem_server SETUP_REPEATS times, load the last one."""
    setups = []
    for i in range(SETUP_REPEATS - 1):
        s = Server(bdir, workdir, "setup%d" % i)
        setups.append(s.setup_s)
        s.close()
    server = Server(bdir, workdir, "load", metrics=traced)
    setups.append(server.setup_s)
    try:
        gen = run_json(gen_cmd(bdir, server.port, seconds, seed, traced),
                       timeout=seconds + 120)
        rss = vm_hwm_mb(server.proc.pid)
    finally:
        code = server.close()
    if code != 0:
        fail("kem_server exited %d at shutdown" % code)
    expo = read_exposition(server.metrics) if traced else {}
    return gen, rss, statistics.median(setups), expo


def end_to_end(args, bdir, workdir):
    record = {}
    if WORKLOADS[args.workload] == "wire":
        gen, rss, setup_s, _ = serve(bdir, workdir, args.seconds, args.seed, traced=False)
        # The modeled cycles and host_s come from a short model run after
        # the load, so every workload reports every metric.
        model, _, _ = run_model(bdir, 0, args.seed)
        attempted, failed = gen["attempted"], gen["failed"]
        correct = (gen["mismatches"] == 0 and gen["protocol_errors"] == 0
                   and gen["handshakes_ok"] > 0 and model["correct"])
        # Medians over the generator's 2-s windows; the run-wide exact
        # percentiles stay in the record.
        hs_rate = gen["window_handshakes_per_s"]
        latency = (gen["window_handshake_p50_us"], gen["handshake_count"],
                   gen["window_latency_p90_us"], gen["latency_count"])
        slo_ratio = gen["window_slo_ok_ratio"]
        record["generator"] = gen
    else:
        setups = [model_setup(bdir) for _ in range(SETUP_REPEATS - 1)]
        model, rss, first_setup = run_model(bdir, args.seconds, args.seed)
        setups.append(first_setup)
        setup_s = statistics.median(setups)
        attempted, failed = model["attempted"], model["failed"]
        correct = model["correct"] and model["handshakes_ok"] > 0
        hs_rate = model["handshakes_ok"] / model["handshake_s"]
        latency = (model["handshake_p50_us"], model["handshake_count"],
                   model["latency_p90_us"], model["latency_count"])
        # No queue and no network: a modeled request that succeeds is
        # within the limit, so slo_ok_ratio is the share that succeeded.
        slo_ratio = (attempted - failed) / max(attempted, 1)
    record["model"] = model
    record["latency_samples"] = {"p50_handshakes": latency[1], "p90_requests": latency[3]}
    if not model["correct"]:
        log("paper model check failed: " + model["why"])
    metrics = {
        "setup_s": (setup_s, "s"),
        "handshakes_per_s": (hs_rate, "1/s"),
        "latency_p50_us": (latency[0], "us"),
        "latency_p90_us": (latency[2], "us"),
        "ok_ratio": ((attempted - failed) / max(attempted, 1), "ratio"),
        "slo_ok_ratio": (slo_ratio, "ratio"),
        "peak_rss_mb": (rss, "MB"),
        "host_s": (model["host_s"], "s"),
    }
    for name in SIM_METRICS:
        metrics[name] = (model[name], "cycles" if name != "sim_core_luts" else "LUTs")
    return correct, attempted, failed, metrics, record


def traced(args, bdir, workdir, bench):
    """The traced run: a wire segment of LAC handshakes with kPing probes
    and the service exposition, then the in-process layer walk over a
    seeded sample. Both workloads trace the same way."""
    wire_s = max(1.0, args.seconds / 2)
    gen, _, _, expo = serve(bdir, workdir, wire_s, args.seed, traced=True)
    trace_out = os.path.join(workdir, "trace-%s-%d.json" % (args.workload, args.seed))
    layers = run_json([os.path.join(bdir, "perfbench_layers"), "--seed", str(args.seed),
                       "--trace-out", trace_out], timeout=args.seconds + 150)

    def c(name):
        return expo.get("lacrv_service_" + name + "_total", 0.0)

    completed = c("requests_completed")
    metrics = dict((k, tuple(v)) for k, v in layers["metrics"].items())
    metrics["net.ping_rtt_us"] = (gen["ping_p50_us"], "us")
    metrics["service.batch_lanes_mean"] = (
        c("batched_lanes") / max(c("batched_micro_batches"), 1), "lanes")
    metrics["service.scalar_share"] = (1 - c("batched_lanes") / max(completed, 1), "ratio")
    metrics["service.retries"] = (c("retries"), "count")
    metrics["service.rejected"] = (
        c("rejected_overload") + c("rejected_deadline") + c("shed_at_shutdown"), "count")
    # The exposition must have been read: the served requests show in it.
    correct = (gen["mismatches"] == 0 and gen["protocol_errors"] == 0 and layers["correct"]
               and (completed > 0) == (gen["replies"] > 0))
    with open(os.path.join(HERE, "layers.json")) as f:
        moves = json.load(f)
    wanted = [m["name"] for m in bench["per_layer"]]
    missing = [n for n in wanted if n not in metrics or n not in moves["metrics"]]
    if missing:
        log("traced run lacks " + ", ".join(missing))
        correct = False
    record = {"generator": gen, "spans": layers["summary"], "trace_file": trace_out,
              "service_exposition": {k: v for k, v in expo.items() if "service" in k},
              "moves": moves["metrics"], "not_measured": moves["not_measured"]}
    attempted = gen["attempted"] + layers["attempted"]
    failed = gen["failed"] + layers["failed"]
    return correct, attempted, failed, {n: metrics[n] for n in wanted if n in metrics}, record


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        fail("unknown workload %s (have: %s)" % (args.workload, ", ".join(WORKLOADS)))
    bench = load_benchmark()
    bdir = build()
    workdir = os.path.join(bdir, "runs", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)

    if args.trace:
        correct, attempted, failed, metrics, record = traced(
            args, bdir, workdir, bench)
    else:
        correct, attempted, failed, metrics, record = end_to_end(
            args, bdir, workdir)
    run = run_record(bdir, args)
    run.update(record)
    print(json.dumps({"record": run}))
    result = {
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
