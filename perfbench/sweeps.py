"""The two sweep workloads: the out-of-core shard sweep (`er sweep
--shards`) and the Table VII sweep (`table7_main`). Set-up is the cold
pass that fills the store; each measured pass is a warm rerun."""

import json
import os
import shutil
import time

import stats
from procs import BenchError, run_checked, run_timed

SETUP_REPS = 3
MIN_PASSES = 3

SHARD_ROWS = 300_000
SHARD_ARGS = ["--shards", "4", "--rows", str(SHARD_ROWS), "--cache-budget", "4M"]
T7_DATASETS = ["D2", "D5"]
T7_SCALE = "0.04"
# One sweep worker: on a shared two-core host the two-worker pass time
# swings with neighbouring load far more than the one-worker time does.
T7_ARGS = ["--datasets", ",".join(T7_DATASETS), "--scale", T7_SCALE, "--grid", "quick",
           "--reps", "1", "--dim", "32", "--threads", "1"]

RT_HEADER = "Table VII(c): run-time (RT)"


def without_rt(report):
    """The Table VII report minus its run-time section, the one part that
    holds wall-clock times."""
    out, skipping = [], False
    for line in report.splitlines():
        if line.startswith(RT_HEADER):
            skipping = True
        elif skipping and not line.strip():
            skipping = False
        if not skipping:
            out.append(line)
    return "\n".join(out)


def read(path):
    with open(path) as f:
        return f.read()


class Sweep:
    """One sweep workload: its command, where a pass writes its report,
    and the checks a pass's outputs must meet."""

    def __init__(self, ctx, name):
        self.ctx, self.name = ctx, name
        seed = ["--seed", str(ctx.seed)]
        if name == "sweep_shard_ooc":
            self.cmd = [ctx.er, "sweep", *SHARD_ARGS, *seed]
        else:
            self.cmd = [ctx.table7, *T7_ARGS, *seed]

    def run_pass(self, store, tag):
        """One pass over `store`; returns (wall s, exit code, peak RSS MB,
        report text, metrics document or None)."""
        d = self.ctx.work
        report = os.path.join(d, f"{tag}.report")
        bench = os.path.join(d, f"{tag}.bench.json")
        cmd = self.cmd + ["--store-dir", store]
        if self.name == "sweep_shard_ooc":
            cmd += ["--report", report, "--shard-bench", bench]
        wall, code, rss = run_timed(cmd, self.ctx.root, os.path.join(d, f"{tag}.out"),
                                    os.path.join(d, f"{tag}.log"))
        if self.name == "sweep_shard_ooc":
            text = read(report) if code == 0 else ""
            doc = json.loads(read(bench)) if code == 0 else None
        else:
            text, doc = read(os.path.join(d, f"{tag}.out")), None
        return wall, code, rss, text, doc

    def pass_gates(self, text, doc, warm):
        """Checks on one pass's outputs."""
        if self.name == "sweep_shard_ooc":
            gates = {"candidate_sets_identical": bool(doc and doc["candidate_sets_identical"])}
            if warm:
                cache = doc["cache"] if doc else {}
                gates["warm pass: 4 store hits, no prepare"] = (
                    cache.get("store_hits") == 4 and cache.get("misses") == 0)
            return gates
        return {"zero failed grid points": "Failed grid points" not in text}

    def rows(self):
        """Entity rows one pass sweeps."""
        if self.name == "sweep_shard_ooc":
            return SHARD_ROWS
        total = 0
        for ds in T7_DATASETS:
            out = run_checked([self.ctx.tracer, "info", "--profile", ds, "--scale", T7_SCALE,
                               "--seed", str(self.ctx.seed)], self.ctx.root,
                              os.path.join(self.ctx.work, "info.log"))
            sizes = json.loads(out)
            total += sizes["e1"] + sizes["e2"]
        return total

    def comparable(self, text):
        return text if self.name == "sweep_shard_ooc" else without_rt(text)


def cold_store(ctx, rep):
    store = os.path.join(ctx.work, f"store{rep}")
    shutil.rmtree(store, ignore_errors=True)
    return store


def run_sweep(ctx, name):
    sweep = Sweep(ctx, name)
    gates = {}
    setup_times = []
    for rep in range(SETUP_REPS):
        store = cold_store(ctx, rep)
        wall, code, _, cold_text, doc = sweep.run_pass(store, f"cold{rep}")
        if code != 0:
            raise BenchError(f"cold pass exited {code}")
        setup_times.append(wall)
        for k, v in sweep.pass_gates(cold_text, doc, warm=False).items():
            gates[f"cold: {k}"] = gates.get(f"cold: {k}", True) and v

    walls, rsses = [], []
    attempted = failed = 0
    identical = True
    stop_at = time.perf_counter() + ctx.seconds
    while attempted < MIN_PASSES or time.perf_counter() < stop_at:
        wall, code, rss, text, doc = sweep.run_pass(store, "warm")
        attempted += 1
        if code != 0:
            failed += 1
            continue
        walls.append(wall)
        rsses.append(rss)
        identical &= sweep.comparable(text) == sweep.comparable(cold_text)
        for k, v in sweep.pass_gates(text, doc, warm=True).items():
            gates[f"warm: {k}"] = gates.get(f"warm: {k}", True) and v
    gates["warm report equals cold report"] = identical
    if not walls:
        raise BenchError("every warm pass failed")
    wall_s = stats.median(walls)
    return {
        "attempted": attempted,
        "failed": failed,
        "setup_s": stats.median(setup_times),
        "setup_reps": SETUP_REPS,
        "wall_s": wall_s,
        "passes": len(walls),
        "rows_per_s": sweep.rows() / wall_s,
        "peak_rss_mb": stats.median(rsses),
        "gates": gates,
    }
