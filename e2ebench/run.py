#!/usr/bin/env python3
"""End-to-end benchmark of the chronos isolation checker.

Run from the repository root:

  python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 e2ebench/run.py [--seed N] [--seconds S] [--trace 0|1]  # all four
  python3 e2ebench/run.py --smoke           # all four at 2k txns, traced

Builds the repository (Release) plus e2ebench/trace_layers.cc into
.bench_build/, generates the workload's histories with chronos_gen from
--seed, then runs the real chronos_check on them for --seconds, checking
every run's verdict against a reference checker. With --trace 1 it also
replays each history through trace_layers and reports the per-layer
breakdown. Every metric is printed by name and unit; the last stdout line
is one JSON object {correct, attempted, failed, metrics}. See
e2ebench/README.md for the workloads, metrics and trace format.
"""
import argparse
import fcntl
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "e2ebench")
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BIN = os.path.join(CMAKE_DIR, "bin")
ENV = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))

# Table I defaults of the paper plus rare injected stale reads, so every
# verdict has nonzero INT and EXT counts to compare.
GEN_FLAGS = ["--workload=default", "--sessions=50", "--ops=15", "--keys=1000",
             "--reads=0.5", "--dist=zipf", "--fault=stale_read",
             "--fault-prob=0.001"]
ONLINE = ["--online", "--delay-mean=20", "--delay-stddev=10"]

# name -> (mode, txns per history). Why each exists: BENCHMARK.json.
WORKLOADS = {
    "offline": ("offline", 100_000),
    "online": ("online", 30_000),
    "sharded": ("sharded", 30_000),
    "durable-gc": ("durable", 30_000),
}
HISTORIES = 3        # per run, each its own set-up; reps go round-robin
SMOKE_TXNS = 2_000

# Durable-path knobs for the 30k-txn histories. In-order arrivals come at
# 12.5 txns per virtual ms, so the 1000 ms EXT timeout keeps ~12.5k txns
# unfinalized, as in a 100k-txn run with the same timeout. Each GC pass
# on the shard walks the write intervals of that window, so the passes
# take most of the run at either size (README: workloads). GC runs every
# 500 arrivals and is clamped by the oldest unfinalized view, since 2000
# live txns is below that window. Checkpoints at 12k and 24k: --resume
# loads the 24k one and replays the last 6000 WAL records. --smoke scales
# every knob with its history size, so it still reaches GC and a
# checkpoint.
DURABLE = {"timeout-ms": 1000, "checkpoint-every": 12_000, "gc-every": 500,
           "gc-target": 2_000}

# Verdicts for --seed 1 (generator seeds 4, 5, 6), keyed (txns, seed):
# offline CHRONOS and online AION agreed on each when they were pinned.
PINS = {
    (txns, seed): "violations: total=%d SESSION=0 INT=%d EXT=%d "
                  "NOCONFLICT=0 TS-ORDER=0 TS-DUP=0" % (i + e, i, e)
    for txns, seed, i, e in [
        (100_000, 4, 140, 772), (100_000, 5, 135, 734),
        (100_000, 6, 146, 705), (30_000, 4, 45, 220), (30_000, 5, 33, 200),
        (30_000, 6, 57, 215)]
}


def check_flags(mode, txns):
    if mode == "offline":
        return []
    if mode == "online":
        return ONLINE
    if mode == "sharded":
        # chronos_check runs the monolith for --shards=1 without a
        # checkpoint dir, so 2 shards is the smallest pipeline it drives.
        return ONLINE + ["--shards=2", "--pre-stage-workers=1"]
    scale = txns / WORKLOADS["durable-gc"][1]
    return ["--online", "--shards=1", "--pre-stage-workers=1"] + [
        f"--{k}={max(1, round(v * scale))}" for k, v in DURABLE.items()]


class Proc:
    """One finished child process, timed and measured by os.wait4."""

    def __init__(self, cmd, timeout=150):
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, env=ENV)
        killer = threading.Timer(timeout, p.kill)
        killer.start()
        try:
            out = p.stdout.read()
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            killer.cancel()
            p.stdout.close()
        self.wall = time.perf_counter() - t0
        p.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.out = out.decode(errors="replace")
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0

    def line(self, prefix):
        m = re.search(rf"^{prefix}.*$", self.out, re.M)
        return m.group(0) if m else None

    def verdict_ok(self, ref):
        """Exit status and violations line both match the reference."""
        v = self.line("violations:")
        if v is None or v != ref:
            return False
        total = int(re.search(r"total=(\d+)", v).group(1))
        return self.code == (3 if total else 0)


def run_checked(cmd, what):
    p = Proc(cmd)
    if p.code not in (0, 3):
        raise RuntimeError(f"{what} failed (exit {p.code}):\n{p.out[-2000:]}")
    return p


def build():
    for f in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, f)):
            raise RuntimeError(f"{ROOT} holds no chronos source tree ({f})")
    os.makedirs(ENV["TMPDIR"], exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                            "-DCMAKE_BUILD_TYPE=Release", *gen],
                           check=True, stdout=sys.stderr, env=ENV)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target",
                        "chronos_gen", "chronos_check", "trace_layers"],
                       check=True, stdout=sys.stderr, env=ENV)


def tree_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class History:
    def __init__(self, work, txns, gen_seed):
        self.seed = gen_seed
        self.path = os.path.join(work, f"h{gen_seed}.hist")
        self.setup = run_checked(
            [os.path.join(BIN, "chronos_gen"), f"--out={self.path}",
             f"--txns={txns}", *GEN_FLAGS, f"--seed={gen_seed}",
             f"--fault-seed={gen_seed}"], "chronos_gen").wall


def trace_result(p):
    """The JSON object a trace_layers pass printed last, or None if the
    pass failed or printed none."""
    if p.code != 0:
        return None
    try:
        return json.loads(p.out.splitlines()[-1])
    except (IndexError, ValueError):
        return None


def layer_metrics(t, e2e_wall):
    """Per-layer metrics of one traced replay; e2e_wall is the median
    product wall on the same history (durable: run plus --resume). Every
    workload reports every metric, so a layer only some workloads run is
    given as its share of the traced wall (0 where it does not run); only
    the times every workload has stay in seconds."""
    outs, wall = t["outs"], t["wall"]
    span = {k: sum(o["spans"][k]["total_s"] for o in outs)
            for k in outs[0]["spans"]}
    self_s = {k: sum(o["spans"][k]["self_s"] for o in outs)
              for k in outs[0]["spans"]}
    top = sum(o["top_level_s"] for o in outs)
    c = outs[0]["counters"]
    r = outs[-1]["counters"]  # the --resume pass, for durable

    def share(x):
        return x / wall

    def ratio(a, b):
        return a / b if b else 0.0

    p50 = c["feed_p50_s"]
    return {
        "trace.wall_s": (wall, "s"),
        "trace.overhead": (wall / e2e_wall - 1, "ratio"),
        "trace.unattributed_s": (e2e_wall - top, "s"),
        "trace.coverage": (top / e2e_wall, "ratio"),
        "hist.load_s": (span["hist.load"], "s"),
        "hist.schedule_share": (share(span["hist.schedule"]), "fraction"),
        "hist.free_s": (span["hist.free"], "s"),
        "chronos.check_share": (share(span["chronos.check"]), "fraction"),
        "chronos.sort_share": (share(c["sort_s"]), "fraction"),
        "chronos.scan_share": (share(c["scan_s"]), "fraction"),
        "ingress.admit_share": (share(self_s["ingress.admit"]), "fraction"),
        "ingress.classify_share": (share(span["ingress.classify"]),
                                   "fraction"),
        "ingress.gc_share": (share(span["ingress.gc"]), "fraction"),
        "ingress.gc_useful_ratio": (ratio(c["gc_useful"], c["gc_calls"]),
                                    "ratio"),
        "ingress.live_txns_max": (c["live_txns_max"], "count"),
        "engine.process_share": (share(span["engine.process"]), "fraction"),
        "engine.finalize_share": (share(span["engine.finalize"]),
                                  "fraction"),
        "engine.free_share": (share(span["engine.free"]), "fraction"),
        "engine.collect_share": (share(span["engine.collect"]), "fraction"),
        "engine.ext_rechecks": (c["ext_rechecks"], "count"),
        "engine.noconflict_checks": (c["noconflict_checks"], "count"),
        "engine.recheck_flip_ratio": (ratio(c["flips"], c["ext_rechecks"]),
                                      "ratio"),
        "engine.gc_passes": (c["gc_passes"], "count"),
        "engine.spill_reloads": (c["spill_reloads"], "count"),
        "checker.footprint_bytes_max": (c["bytes_max"], "B"),
        "feed.median_rate": (1 / p50 if p50 else 0.0, "1/s"),
        "feed.p99_over_p50": (ratio(c["feed_p99_s"], p50), "ratio"),
        "feed.p999_over_p50": (ratio(c["feed_p999_s"], p50), "ratio"),
        "feed.max_share": (share(c["feed_max_s"]), "fraction"),
        "sharded.feed_share": (share(span["sharded.feed"]), "fraction"),
        "sharded.finish_share": (share(span["sharded.finish"]), "fraction"),
        "sharded.free_share": (share(span["sharded.free"]), "fraction"),
        "pipeline.idle_ratio": (c["idle_ratio"], "ratio"),
        "pipeline.producer_stalls": (c["producer_stalls"], "count"),
        "pipeline.consumer_stalls": (c["consumer_stalls"], "count"),
        "wal.log_share": (share(span["wal.log"]), "fraction"),
        "wal.sync_share": (share(span["wal.sync"]), "fraction"),
        "wal.bytes": (c["wal_bytes"], "B"),
        "ckpt.export_share": (share(span["ckpt.export"]), "fraction"),
        "ckpt.write_share": (share(span["ckpt.write"]), "fraction"),
        "ckpt.bytes": (c["ckpt_bytes"], "B"),
        "ckpt.count": (c["ckpt_count"], "count"),
        "spill.bytes": (c["spill_bytes"], "B"),
        "recovery.recover_share": (share(span["recovery.recover"]),
                                   "fraction"),
        "recovery.replayed_records": (r["replayed_records"], "count"),
    }


class Bench:
    """One workload run: set-up, reference verdicts, measured reps, and
    (with trace) the per-layer replay."""

    def __init__(self, name, mode, txns, seed, seconds, trace, histories,
                 work):
        self.name, self.mode, self.txns = name, mode, txns
        self.seconds, self.trace, self.work = seconds, trace, work
        self.flags = check_flags(mode, txns)
        self.check = os.path.join(BIN, "chronos_check")
        self.attempted = self.failed = 0
        self.problems = []
        self.hists = [History(work, txns, 3 * seed + i + 1)
                      for i in range(histories)]
        for h in self.hists:
            h.ref = self.reference(h)
            pin = PINS.get((txns, h.seed))
            if pin is not None and pin != h.ref:
                self.problems.append(f"h{h.seed}: reference {h.ref!r} "
                                     f"differs from pinned {pin!r}")

    def reference(self, h):
        """An independent checker's verdict: offline CHRONOS for the online
        workloads, the online AION monolith (in order) for offline."""
        cmd = [self.check, f"--in={h.path}"]
        if self.mode == "offline":
            cmd.append("--online")
        return run_checked(cmd, "reference check").line("violations:")

    def tally(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def rep(self, i):
        h = self.hists[i]
        cmd = [self.check, f"--in={h.path}", *self.flags]
        if self.trace and self.mode != "offline":
            cmd.append("--stats")  # reference lines for the traced replay
        r = {"hist": i}
        if self.mode == "durable":
            d = os.path.join(self.work, f"ckpt-{h.seed}")
            shutil.rmtree(d, ignore_errors=True)
            cmd.append(f"--checkpoint-dir={d}")
            p = Proc(cmd)
            q = Proc([c for c in cmd if c != "--stats"] + ["--resume"])
            self.tally(q.verdict_ok(h.ref), f"h{h.seed}: --resume verdict")
            r.update(resume_wall=q.wall, disk=tree_bytes(d),
                     wal_sha=sha256(os.path.join(d, "wal.log")))
        else:
            p = Proc(cmd)
        self.tally(p.verdict_ok(h.ref), f"h{h.seed}: verdict or exit status")
        flips = re.search(r"(\d+) flip-flops", p.out)
        r.update(wall=p.wall, cpu=p.cpu, rss_mb=p.rss_mb,
                 stats=p.line("stats:"), flips=flips and int(flips.group(1)))
        return r

    def measure(self):
        """Round-robin over the histories until --seconds have passed and
        every history ran at least once. With trace, each product run is
        followed by the traced replay of the same history, so the two
        see the same machine conditions."""
        reps, replays = [], []
        end = time.monotonic() + self.seconds
        while len(reps) < len(self.hists) or time.monotonic() < end:
            reps.append(self.rep(len(reps) % len(self.hists)))
            if self.trace:
                replays.append(self.replay(reps[-1], first=not replays))
        return reps, replays

    def end_to_end(self, reps):
        med = statistics.median
        return {
            "setup_s": (med([h.setup for h in self.hists]), "s"),
            "txn_per_s": (med([self.txns / r["wall"] for r in reps]), "txn/s"),
            "cpu_us_per_txn": (med([r["cpu"] / self.txns * 1e6 for r in reps]),
                               "us/txn"),
            "peak_rss_mb": (med([r["rss_mb"] for r in reps]), "MB"),
        }

    def replay(self, rep, first):
        """Replays rep's history through trace_layers and checks that the
        replay reproduced the product run `rep`: verdict, stats and
        flip-flops, and for durable the WAL bytes and the --resume
        verdict. Returns the traced passes, or None if one failed."""
        h = self.hists[rep["hist"]]
        cmd = [os.path.join(BIN, "trace_layers"), f"--mode={self.mode}",
               f"--in={h.path}", *self.flags]
        if first:
            os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
            cmd.append("--chrome-trace=" + os.path.join(
                BUILD, "traces", f"trace-{self.name}.json"))
        passes = []
        if self.mode == "durable":
            d = os.path.join(self.work, f"traced-{h.seed}")
            shutil.rmtree(d, ignore_errors=True)
            cmd.append(f"--checkpoint-dir={d}")
            passes.append(Proc(cmd))
            passes.append(Proc([c for c in cmd if not c.startswith("--chrome")]
                               + ["--resume"]))
        else:
            passes.append(Proc(cmd))
        outs = [trace_result(p) for p in passes]
        for out in outs:
            self.tally(out is not None and out["violations"] == h.ref,
                       f"h{h.seed}: traced verdict")
        if None in outs:
            return None
        if self.mode != "offline":
            self.tally(outs[0]["stats"] == rep["stats"] and
                       outs[0]["counters"]["flips"] == rep["flips"],
                       f"h{h.seed}: traced stats/flip-flops")
        if self.mode == "durable":
            self.tally(sha256(os.path.join(d, "wal.log")) == rep["wal_sha"],
                       f"h{h.seed}: traced WAL bytes")
        return {"hist": rep["hist"], "wall": sum(p.wall for p in passes),
                "outs": outs}

    def run(self):
        reps, replays = self.measure()
        print(f"workload {self.name}: {len(self.hists)} histories x "
              f"{self.txns} txns, {len(reps)} measured runs")
        med = statistics.median
        if self.mode == "durable":
            print(f"  (durable) --resume wall "
                  f"{med([r['resume_wall'] for r in reps]):.4f} s, disk "
                  f"{med([r['disk'] for r in reps]) / self.txns:.1f} B/txn")
        e2e = self.end_to_end(reps)
        if not self.trace:
            return e2e
        for name, (value, unit) in e2e.items():
            print(f"  e2e {name:<24} {value:>16.6f} {unit}")
        e2e_wall = {i: med([r["wall"] + r.get("resume_wall", 0)
                            for r in reps if r["hist"] == i])
                    for i in range(len(self.hists))}
        layers = [layer_metrics(t, e2e_wall[t["hist"]])
                  for t in replays if t is not None]
        if not layers:
            return {}
        out = {k: (med([m[k][0] for m in layers]), u)
               for k, (_, u) in layers[0].items()}
        cov = out["trace.coverage"][0]
        if cov < 0.9:
            print(f"  gap: top-level spans cover {cov:.1%} of the e2e wall; "
                  f"the rest (trace.unattributed_s) is process start and "
                  f"exit and report output, outside every span")
        return out


def run_workload(name, seed, seconds, trace, txns=None, histories=HISTORIES):
    mode, default_txns = WORKLOADS[name]
    work = os.path.join(BUILD, "work", f"{name}-s{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        b = Bench(name, mode, txns or default_txns, seed, seconds, trace,
                  histories, work)
        metrics = b.run()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name_, (value, unit) in metrics.items():
        print(f"  {name_:<28} {value:>16.6f} {unit}")
    for p in b.problems:
        print(f"  FAILED: {p}")
    return b, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help=f"all workloads at {SMOKE_TXNS} txns, one history "
                         "and one run each, traced")
    ap.add_argument("--out", help="also write the result JSON here")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        build()
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        kw = {}
        if args.smoke:
            names, args.seconds, args.trace = sorted(WORKLOADS), 0, 1
            kw = {"txns": SMOKE_TXNS, "histories": 1}
        results = [(n,) + run_workload(n, args.seed, args.seconds, args.trace,
                                       **kw) for n in names]
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        print(f"e2ebench: {e}", file=sys.stderr)
        return 1
    metrics = {}
    for n, b, m in results:
        prefix = "" if len(results) == 1 else n + "/"
        metrics.update({prefix + k: {"value": v, "unit": u}
                        for k, (v, u) in m.items()})
    result = {
        "correct": all(not b.problems for _, b, _ in results),
        "attempted": sum(b.attempted for _, b, _ in results),
        "failed": sum(b.failed for _, b, _ in results),
        "metrics": metrics,
    }
    line = json.dumps(result)
    if args.out:
        with open(args.out, "w") as f:
            f.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
