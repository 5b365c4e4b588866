#!/usr/bin/env python3
"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds `er`, `table7_main` and the
in-process tracer (`perfbench/trace`) with cargo, makes every input from
`--seed`, sets the workload up, measures it for `--seconds`, checks the
outputs, prints each metric by name with its unit and sample count, and
ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
`--trace 0` reports the end-to-end metrics; `--trace 1` runs the traced
layer tours instead and reports the per-layer metrics. Any failed
correctness gate makes the exit code non-zero. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import types

import layers
import procs
import serving
import sweeps
from procs import BenchError

WORKLOADS = ("serve_proxy_read", "serve_direct_mixed", "sweep_shard_ooc", "sweep_table7")

# (name, unit) of the end-to-end metrics, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("rows_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
]


def build(root, work):
    """Builds the binaries the workloads run; returns their paths."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    log = os.path.join(work, "build.log")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "er-cli", "--bin", "er",
         "-p", "er-bench", "--bin", "table7_main"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "trace", "Cargo.toml")],
    ):
        with open(log, "ab") as f:
            if subprocess.run(cmd, cwd=root, env=env, stdout=f, stderr=f).returncode != 0:
                raise BenchError(f"build failed: {procs.tail(log)}")
    release = os.path.join(target, "release")
    return {name: os.path.join(release, name) for name in ("er", "table7_main",
                                                           "perfbench-trace")}


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def end_to_end(ctx):
    """Runs the workload untraced; returns (lines, attempted, failed,
    metrics, gates)."""
    if ctx.workload == "serve_proxy_read":
        r = serving.serve_proxy_read(ctx)
    elif ctx.workload == "serve_direct_mixed":
        r = serving.serve_direct_mixed(ctx)
    else:
        r = sweeps.run_sweep(ctx, ctx.workload)
    attempted, failed = r["attempted"], r["failed"]
    lines = [f"setup_s = {fmt(r['setup_s'])} s (median of {r['setup_reps']} set-ups)"]
    if ctx.workload.startswith("serve"):
        lk = r["lookup"]
        if lk["p50"] is None:
            raise BenchError("too few answered lookups for a median")
        p50 = lk["p50"]
        lines.append(f"rows_per_s = {fmt(r['rows_per_s'])} 1/s "
                     f"({r['served']} candidate rows in {fmt(r['window_s'])} s)")
        lines.append(f"p50_ms = {fmt(p50)} ms (lookup, n={lk['n']})")
        for kind, quantiles in (("lookup", (95, 99)), ("update", (50, 99))):
            summary = r[kind]
            for q in quantiles if summary["n"] else ():
                v = summary[f"p{q}"]
                shown = f"{fmt(v)} ms" if v is not None else "not reported"
                lines.append(f"{kind}_p{q}_ms = {shown} (n={summary['n']})")
    else:
        p50 = r["wall_s"] * 1000.0
        lines.append(f"rows_per_s = {fmt(r['rows_per_s'])} 1/s (entity rows swept per "
                     f"second of a warm pass)")
        lines.append(f"p50_ms = {fmt(p50)} ms (warm pass wall, n={r['passes']})")
        lines.append(f"wall_s = {fmt(r['wall_s'])} s (n={r['passes']})")
    ok_frac = 1.0 - failed / attempted
    lines.append(f"peak_rss_mb = {fmt(r['peak_rss_mb'])} MB")
    lines.append(f"ok_frac = {fmt(ok_frac)} ratio (failed_frac = {fmt(1.0 - ok_frac)}: "
                 f"{failed} of {attempted})")
    values = {"setup_s": r["setup_s"], "rows_per_s": r["rows_per_s"], "p50_ms": p50,
              "peak_rss_mb": r["peak_rss_mb"], "ok_frac": ok_frac}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return lines, attempted, failed, metrics, r["gates"]


def per_layer(ctx):
    r = layers.traced_run(ctx)
    lines = []
    for name, unit, _ in layers.PER_LAYER:
        n = r["samples"].get(name)
        lines.append(f"{name} = {fmt(r['values'][name])} {unit}"
                     + (f" (n={n})" if n else ""))
    metrics = {name: {"value": r["values"][name], "unit": unit}
               for name, unit, _ in layers.PER_LAYER}
    return lines, r["attempted"], r["failed"], metrics, r["gates"]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        print("perfbench: run from the repository root (no Cargo.toml here)", file=sys.stderr)
        return 2
    work = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        bins = build(root, work)
        ctx = types.SimpleNamespace(root=root, work=work, seed=args.seed,
                                    seconds=args.seconds, workload=args.workload,
                                    er=bins["er"], table7=bins["table7_main"],
                                    tracer=bins["perfbench-trace"])
        run = per_layer if args.trace else end_to_end
        lines, attempted, failed, metrics, gates = run(ctx)
    except BenchError as e:
        print(f"perfbench: {args.workload}: {e}", file=sys.stderr)
        return 2
    finally:
        procs.kill_all()

    print(f"workload {args.workload} seed {args.seed} seconds {fmt(args.seconds)} "
          f"trace {args.trace}")
    for line in lines:
        print(f"  {line}")
    for name, ok in gates.items():
        print(f"  gate {'ok  ' if ok else 'FAIL'} {name}")
    correct = all(gates.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
