#!/usr/bin/env python3
"""Repository benchmark: build the benchmark program, run one workload, report.

    python3 perfbench/run.py --workload pg-edges-stall --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test        # tiny budgets, checks every metric
    python3 perfbench/run.py --write-manifest   # regenerate BENCHMARK.json

One run builds perfbench/perfbench.exe with dune, then runs it once per
repetition, in a fresh process each time, until --seconds have passed (at
least one repetition; with --trace 1 at least one untraced and one traced).
A repetition runs the workload's fixed-budget campaign(s) at the campaign
seed (--campaign-seed, default 1). --seed is the workload seed: it draws the
replay sample of traced runs. Why the campaign seed does not follow --seed is
explained in perfbench/README.md.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0 and the per-layer
metrics with --trace 1. Lines before it give the environment header and the
metrics in readable form; the full result is also written under
.bench_work/.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
EXE_TARGET = "./perfbench/perfbench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
RUN_SECONDS = 36
REP_TIMEOUT_S = 170.0
OVERSHOOT = 1.2

WORKLOADS = [
    ("pg-edges-stall",
     "LEGO on PostgreSQL, CLI defaults, one shard, 36k execs: past the stall "
     "onset, where minidb's executor does nearly all the work"),
    ("pg-both-j2",
     "LEGO on PostgreSQL, --feedback both, two shards with exchange, 64k execs "
     "below the stall: grammar, mutation and sync dominate"),
    ("farm-resume",
     "Four-campaign UCB1 farm, then a resume to budget: the store, oracles, "
     "bandit and non-LEGO generators run only here"),
]

# (name, unit, better, bound)
END_TO_END = [
    ("execs_per_s", "1/s", "higher", 0.25),
    ("late_execs_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("branches", "count", "higher", 0.05),
    ("coverage_keys", "count", "higher", 0.05),
    ("bugs", "count", "higher", 0.25),
    ("affinities", "count", "higher", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit); every per-layer metric is emitted on every workload.
PER_LAYER = [
    ("driver.step_us.p50", "us"), ("driver.step_us.p99", "us"),
    ("driver.step_us.max", "us"), ("driver.execs_per_step", "execs/step"),
    ("harness.execute_us.p50", "us"), ("harness.execute_us.p99", "us"),
    ("harness.interesting_share", "ratio"),
    ("engine.run_us.p50", "us"), ("engine.run_us.p99", "us"),
    ("engine.run_us.max", "us"), ("engine.rows_scanned_per_exec", "rows/exec"),
    ("engine.slow_share", "ratio"), ("engine.slow_time_share", "ratio"),
    ("engine.stmt_error_share", "ratio"),
    ("engine.snapshot_us.p50", "us"), ("engine.restore_us.p50", "us"),
    ("cache.hit_rate", "ratio"), ("cache.bypass_share", "ratio"),
    ("cache.evictions", "count"), ("cache.bytes", "bytes"),
    ("grammar.print_us.p50", "us"), ("grammar.parse_us.p50", "us"),
    ("grammar.parse_us.p99", "us"), ("grammar.novelty_us.p50", "us"),
    ("lego.mutate_us.p50", "us"), ("lego.instantiate_us.p50", "us"),
    ("lego.synthesize_ms", "ms"), ("lego.sequences", "count"),
    ("sync.rounds", "count"), ("sync.shard_skew_s", "s"),
    ("sync.wait_share", "ratio"),
    ("oracle.check_us.p50", "us"), ("oracle.check_us.p99", "us"),
    ("oracle.checks", "count"), ("oracle.violations", "count"),
    ("farm.round_s.p50", "s"), ("farm.round_s.p99", "s"),
    ("farm.rounds", "count"), ("farm.hot_share", "ratio"),
    ("farm.store.load_ms.p50", "ms"), ("farm.store.save_ms.p50", "ms"),
    ("farm.store.bytes", "bytes"),
    ("self_ms.driver", "ms"), ("self_ms.farm", "ms"),
    ("self_ms.harness", "ms"), ("self_ms.engine", "ms"),
    ("self_ms.grammar", "ms"), ("self_ms.lego", "ms"),
    ("self_ms.oracle", "ms"), ("self_ms.replay", "ms"),
    ("replay.cases", "count"),
    ("trace.overhead", "ratio"),
]

# Lower-is-better per-layer metrics; the rest are higher-is-better.
LOWER_LAYER_PREFIXES = ("driver.step_us", "harness.execute_us", "engine.",
                        "cache.bypass", "cache.evictions", "cache.bytes",
                        "grammar.", "lego.mutate", "lego.instantiate",
                        "lego.synthesize", "sync.shard", "sync.wait",
                        "oracle.check_us", "farm.round_s", "farm.store",
                        "self_ms.", "trace.overhead")


def manifest():
    def better(name):
        return "lower" if name.startswith(LOWER_LAYER_PREFIXES) else "higher"
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": better(n)}
                      for n, u in PER_LAYER],
    }


def log(msg):
    print(msg, flush=True)


def build():
    r = subprocess.run(["dune", "build", "--cache=disabled", "--root", ROOT, EXE_TARGET],
                       cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True, timeout=880)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout[-4000:])
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(1)


def source_digest():
    """Digest of the sources the benchmark builds, for the header and for
    keying the deterministic counts of one commit."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for d, subdirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            subdirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def run_rep(workload, campaign_seed, sample_seed, trace, div, timeout):
    """One repetition in a fresh process; returns (result, peak RSS MB).
    The child is reaped with wait4 so its own ru_maxrss is read."""
    cmd = [EXE, "--workload", workload, "--campaign-seed", str(campaign_seed),
           "--sample-seed", str(sample_seed), "--trace", str(trace),
           "--work", WORK, "--div", str(div)]
    out_path = os.path.join(WORK, f"rep-{os.getpid()}.out")
    with open(out_path, "w") as out:
        p = subprocess.Popen(cmd, cwd=ROOT, stdout=out)
    deadline = time.time() + timeout
    try:
        while True:
            pid, status, ru = os.wait4(p.pid, os.WNOHANG)
            if pid != 0:
                p.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.time() >= deadline:
                return None, 0.0
            time.sleep(0.02)
    finally:
        if p.returncode is None:  # timed out or interrupted
            p.kill()
            os.wait4(p.pid, 0)
            p.returncode = -9
    rss = ru.ru_maxrss / 1024.0
    with open(out_path) as fh:
        lines = fh.read().strip().splitlines()
    os.remove(out_path)
    if p.returncode != 0 or not lines:
        return None, rss
    try:
        return json.loads(lines[-1]), rss
    except json.JSONDecodeError:
        return None, rss


def med(xs):
    return statistics.median(xs) if xs else 0.0


def run_workload(workload, seed, seconds, trace, campaign_seed, div):
    """Repeat until --seconds have passed. A further repetition starts only
    if, at the mean repetition length so far, it ends within OVERSHOOT of
    the window, so a run's length stays bounded whatever a repetition
    costs."""
    os.makedirs(WORK, exist_ok=True)
    reps = []  # (trace flag, result, rss)
    start = time.time()
    need = [0, 1] if trace else [0]
    while True:
        flag = need[len(reps)] if len(reps) < len(need) else (
            (len(reps) % 2) if trace else 0)
        left = REP_TIMEOUT_S - (time.time() - start)
        if left <= 0:
            break
        res, rss = run_rep(workload, campaign_seed, seed, flag, div, left)
        reps.append((flag, res, rss))
        if res is None:
            break
        elapsed = time.time() - start
        if len(reps) >= len(need) and (
                elapsed >= seconds
                or elapsed * (len(reps) + 1) / len(reps) > seconds * OVERSHOOT):
            break
    return reps


def check_counts_history(workload, campaign_seed, div, counts, digest):
    """Deterministic counts must repeat across every run of one commit at
    one campaign seed; remember the first run's counts and compare."""
    path = os.path.join(WORK, "counts.json")
    try:
        with open(path) as fh:
            hist = json.load(fh)
    except (OSError, ValueError):
        hist = {}
    key = f"{digest}/{workload}/c{campaign_seed}/d{div}"
    if key in hist:
        return hist[key] == counts, hist[key]
    hist[key] = counts
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(hist, fh, sort_keys=True)
    os.replace(tmp, path)
    return True, counts


def summarize(workload, seed, trace, campaign_seed, div, reps):
    digest = source_digest()
    results = [r for _, r, _ in reps if r is not None]
    problems = []
    if len(results) < len(reps) or not results:
        problems.append("a repetition crashed, timed out or printed no result")
    for r in results:
        for c in r["checks"]:
            if not c["ok"]:
                problems.append(f"{c['name']}: {c['detail']}")
    if len({json.dumps(r["counts"], sort_keys=True) for r in results}) > 1:
        problems.append("deterministic counts differ between repetitions")
    if results and not problems:
        same, first = check_counts_history(workload, campaign_seed, div,
                                           results[0]["counts"], digest)
        if not same:
            problems.append(f"counts differ from an earlier run: {first}")
    correct = not problems
    attempted = sum(r["attempted"] for r in results) or 1
    failed = attempted if not correct else sum(r["failed"] for r in results)

    def rate(r, n, w):
        return r[n] / r[w] if r[w] > 0 else 0.0

    untraced = [(r, rss) for f, r, rss in reps if r is not None and f == 0]
    traced = [r for f, r, _ in reps if r is not None and f == 1]
    metrics = {}
    if not trace:
        c = results[0]["counts"] if results else {}
        vals = {
            "execs_per_s": med([rate(r, "execs", "wall_s") for r, _ in untraced]),
            "late_execs_per_s": med([rate(r, "late_execs", "late_wall_s")
                                     for r, _ in untraced]),
            "setup_s": med([s for r, _ in untraced for s in r["setup_s"]]),
            "branches": c.get("branches", 0),
            "coverage_keys": c.get("coverage_keys", 0),
            "bugs": len(c.get("bugs", [])),
            "affinities": c.get("affinities", 0),
            "peak_rss_mb": med([rss for _, rss in untraced]),
        }
        for n, u, _, _ in END_TO_END:
            metrics[n] = {"value": vals[n], "unit": u}
    else:
        for n, _ in PER_LAYER:
            emitted = [r["layer"][n] for r in traced if n in r["layer"]]
            xs = [m["value"] for m in emitted if m["value"] is not None]
            if xs:
                metrics[n] = {"value": med(xs), "unit": emitted[0]["unit"]}
        base = med([rate(r, "execs", "wall_s") for r, _ in untraced])
        with_trace = med([rate(r, "execs", "wall_s") for r in traced])
        metrics["trace.overhead"] = {
            "value": (with_trace / base - 1.0) if base > 0 else 0.0,
            "unit": "ratio"}
    header = {
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "source_digest": digest,
        "ocaml": results[0]["ocaml"] if results else None,
        "python": platform.python_version(),
        "workload": workload,
        "seed": seed,
        "campaign_seed": campaign_seed,
        "budget_divisor": div,
        "budget_execs": results[0]["attempted"] if results else None,
        "config": results[0]["config"] if results else None,
        "repetitions": len(reps),
        "traced_repetitions": len(traced),
    }
    return {
        "header": header,
        "problems": problems,
        "counts": results[0]["counts"] if results else None,
        "stages": results[-1]["stages"] if results else None,
        "trace_file": traced[-1]["trace_file"] if traced else None,
        "repetitions": [
            {"traced": f, "execs": r["execs"], "wall_s": r["wall_s"],
             "cpu_s": r["cpu_s"], "late_execs": r["late_execs"],
             "late_wall_s": r["late_wall_s"], "setup_s": r["setup_s"],
             "peak_rss_mb": rss}
            for f, r, rss in reps if r is not None],
        "final": {"correct": correct, "attempted": attempted,
                  "failed": failed, "metrics": metrics},
    }


def report(s, trace):
    log("# env " + json.dumps(s["header"], sort_keys=True))
    for p in s["problems"]:
        log("# FAILED CHECK " + p)
    if s["counts"]:
        log("# counts " + json.dumps(s["counts"], sort_keys=True))
    if trace and s["stages"]:
        log("# stage.* registry totals (us) " + json.dumps(s["stages"]))
    if s["trace_file"]:
        log("# spans, slow-execution reservoir, exec histogram: "
            + os.path.relpath(s["trace_file"], ROOT))
    f = s["final"]
    for n, m in f["metrics"].items():
        log(f"{n} = {m['value']:.6g} {m['unit']}")
    log(f"failed_share = {f['failed'] / f['attempted']:.6g} "
        f"({f['failed']}/{f['attempted']})")
    name = (f"result-{s['header']['workload']}-seed{s['header']['seed']}"
            f"-trace{int(trace)}.json")
    with open(os.path.join(WORK, name), "w") as fh:
        json.dump(s, fh, indent=1, sort_keys=True)
    print(json.dumps(f), flush=True)


def self_test():
    """Tiny budgets; every named metric must be emitted with its unit in
    both modes, and BENCHMARK.json must match the manifest above."""
    ok = True
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        if json.load(fh) != manifest():
            log("self-test: BENCHMARK.json differs from run.py's manifest")
            ok = False
    want = {0: {n: u for n, u, _, _ in END_TO_END},
            1: dict(PER_LAYER)}
    for w, _ in WORKLOADS:
        for trace in (0, 1):
            reps = run_workload(w, 1, 0, trace, 1, 16)
            s = summarize(w, 1, trace, 1, 16, reps)
            got = {n: m["unit"] for n, m in s["final"]["metrics"].items()}
            bad = [n for n in want[trace] if got.get(n) != want[trace][n]]
            extra = sorted(set(got) - set(want[trace]))
            status = "ok" if s["final"]["correct"] and not bad and not extra \
                else "FAIL"
            ok = ok and status == "ok"
            log(f"self-test {w} trace={trace}: {status} "
                f"missing/wrong-unit={bad} extra={extra} "
                f"problems={s['problems']}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--campaign-seed", type=int, default=1)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-manifest", action="store_true")
    a = ap.parse_args()
    # SIGTERM unwinds like an exception, so a running repetition is killed
    # and reaped before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if a.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    build()
    if a.self_test:
        return 0 if self_test() else 1
    if a.workload not in [n for n, _ in WORKLOADS]:
        sys.stderr.write(f"unknown workload {a.workload!r}\n")
        return 2
    reps = run_workload(a.workload, a.seed, a.seconds, a.trace,
                        a.campaign_seed, 1)
    report(summarize(a.workload, a.seed, a.trace, a.campaign_seed, 1, reps),
           a.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
