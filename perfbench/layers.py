"""The traced run (`--trace 1`): per-layer numbers from in-process tours
of every layer, plus the wire hops of `er serve` and `er supervise`.

Each traced run tours all layers so that it reports every per-layer
metric. The workload's own layers run at the workload's size over its
own inputs; the others run at a small fixed companion size (see
README.md). Every tour runs twice, untraced and traced, and the wall-time
difference is reported as the tracing overhead."""

import json
import os
import re

import serving
import stats
import sweeps
from procs import BenchError, run_checked

OWN_TOUR = {
    "serve_proxy_read": "serve",
    "serve_direct_mixed": "serve",
    "sweep_shard_ooc": "stream",
    "sweep_table7": "grid",
}
COMPANION_SERVE_SCALE = "0.3"
COMPANION_STREAM_ARGS = ["--shards", "4", "--rows", "20000", "--cache-budget", "256K"]
COMPANION_GRID_ARGS = ["--datasets", "D2", "--scale", "0.02", "--grid", "quick",
                       "--reps", "1", "--dim", "32"]
WIRE_LOOKUPS = 50
MIXED_REPLAY = 600

GRID_FAMILIES = ("er-blocking", "er-sparse", "er-dense", "er-neural")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = [
    ("er-serve.protocol.parse_us", "us", "lower"),
    ("er-serve.protocol.encode_us", "us", "lower"),
    ("er-serve.engine.lookup_us", "us", "lower"),
    ("er-sparse.sharded.candidates_per_lookup", "count", "lower"),
    ("er-serve.engine.apply_us", "us", "lower"),
    ("er-serve.engine.compact_ms", "ms", "lower"),
    ("er-serve.engine.open_ms", "ms", "lower"),
    ("er-serve.server.hop_us", "us", "lower"),
    ("er-serve.server.unaccounted_us", "us", "lower"),
    ("er-super.proxy.hop_us", "us", "lower"),
    ("er-super.proxy.retries", "count", "lower"),
    ("er-super.proxy.unavailable", "count", "lower"),
    ("er-datagen.stream.rows_per_s", "1/s", "higher"),
    ("er-sparse.segment.build_s", "s", "lower"),
    ("er-store.load_ms", "ms", "lower"),
    ("er-core.artifacts.store_hits", "count", "higher"),
    ("er-core.artifacts.misses", "count", "lower"),
    ("er-core.artifacts.evictions", "count", "lower"),
    ("er-core.artifacts.unmaps", "count", "lower"),
    ("er-core.artifacts.resident_bytes", "bytes", "lower"),
    ("er-sparse.epsilon.query_us", "us", "lower"),
    *((f"{family}.grid_s", "s", "lower") for family in GRID_FAMILIES),
    ("er-core.optimize.configs_evaluated", "count", "lower"),
    ("er-core.optimize.evaluated_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
]


def run_tour(ctx, kind, args):
    """Runs one tour untraced, traced, then untraced again (so neither
    side alone pays the first run's cold caches). Returns (mean untraced
    wall s, traced wall s, traced counts, traced spans)."""
    base = os.path.join(ctx.work, f"tour-{kind}")
    walls = {"0": [], "1": []}
    for i, trace in enumerate(("0", "1", "0")):
        counts_path = f"{base}.{i}.counts.json"
        cmd = [ctx.tracer, kind, *args, "--trace", trace, "--counts", counts_path]
        if trace == "1":
            cmd += ["--spans", f"{base}.spans.jsonl"]
            traced_counts_path = counts_path
        run_checked(cmd, ctx.root, f"{base}.{i}.log")
        with open(counts_path) as f:
            walls[trace].append(json.load(f)["tour.wall_s"])
    with open(traced_counts_path) as f:
        counts = json.load(f)
    with open(f"{base}.spans.jsonl") as f:
        spans = [json.loads(line) for line in f]
    return stats.median(walls["0"]), walls["1"][0], counts, spans


def by_name(spans):
    """{span name: [(request id, self time in ns)]}."""
    selfs = stats.self_times(spans)
    out = {}
    for s in spans:
        out.setdefault(s["name"], []).append((s["req"], selfs[s["id"]]))
    return out


def median_of(named, name, scale):
    values = [v for _, v in named.get(name, [])]
    if not values:
        raise BenchError(f"the traced run recorded no {name} span")
    return stats.median(values) / scale


def sum_of(named, name, scale):
    return sum(v for _, v in named.get(name, [])) / scale


def serve_inputs(ctx, own):
    """(store, dataset flags, wire lookup lines, mixed replay lines)."""
    d = os.path.join(ctx.work, "serve")
    os.makedirs(d)
    if own == "serve":
        method = "knn" if ctx.workload == "serve_direct_mixed" else "epsilon"
        flags, scale = serving.dataset_flags(ctx.seed, method), serving.SCALE
    else:
        flags = serving.dataset_flags(ctx.seed, "epsilon", COMPANION_SERVE_SCALE)
        scale = COMPANION_SERVE_SCALE
    texts_path = os.path.join(d, "texts.txt")
    n_query = serving.dataset_info(ctx, ctx.seed, texts_path, scale)["e2"]
    with open(texts_path) as f:
        texts = f.read().splitlines()
    store = os.path.join(d, "store")
    serving.build_store(ctx, store, flags, os.path.join(d, "build.log"))
    n = 4 * WIRE_LOOKUPS
    if ctx.workload == "serve_direct_mixed":
        first = serving.mixed_stream(ctx.seed, 0, n_query, texts, n)
    else:
        first = serving.read_stream(ctx.seed, 0, n_query, n)
    wire = [line for line in first if serving.is_lookup(line)][:WIRE_LOOKUPS]
    mixed = serving.mixed_stream(ctx.seed, 1, n_query, texts, MIXED_REPLAY)
    return store, flags, wire, mixed


def wire_hops(ctx, store, flags, wire, expected):
    """The same lookups, lock-step, to `er serve` and through `er
    supervise`; returns (direct results, proxy results, proxy summary,
    gates)."""
    d = os.path.join(ctx.work, "serve")
    direct = serving.start_serve(ctx, store, flags, os.path.join(d, "direct.log"))
    try:
        [direct_res] = serving.drive(direct.addr, [wire], float("inf"))
    finally:
        direct_code, _ = direct.stop()
    proxy = serving.start_supervise(ctx, store, flags, os.path.join(d, "proxy.log"))
    try:
        [proxy_res] = serving.drive(proxy.addr, [wire], float("inf"))
    finally:
        proxy_code, proxy_log = proxy.stop()
    summary = {}
    for line in proxy_log.splitlines():
        if line.startswith("supervise: ") and " served / " in line:
            summary = {key: int(value) for value, key in re.findall(r"(\d+) (\w+)", line)}
    gates = {
        "wire daemons drained with exit 0": direct_code == 0 and proxy_code == 0,
        "direct rows byte-identical to Engine::lookup":
            [serving.strip_us(r[1]) for r in direct_res] == expected,
        "proxy rows byte-identical to Engine::lookup":
            [serving.strip_us(r[1]) for r in proxy_res] == expected,
    }
    return direct_res, proxy_res, summary, gates


def traced_run(ctx):
    own = OWN_TOUR[ctx.workload]
    gates = {}

    store, flags, wire, mixed = serve_inputs(ctx, own)
    d = os.path.join(ctx.work, "serve")
    wire_path, mixed_path = os.path.join(d, "wire.txt"), os.path.join(d, "mixed.txt")
    expected_path = os.path.join(d, "expected.txt")
    for path, lines in ((wire_path, wire), (mixed_path, mixed)):
        with open(path, "w") as f:
            f.writelines(line + "\n" for line in lines)
    serve_args = ["--store", store, *serving.tracer_flags(flags), "--requests", wire_path,
                  "--responses", expected_path, "--mixed", mixed_path]

    stream_args = sweeps.SHARD_ARGS if own == "stream" else COMPANION_STREAM_ARGS
    stream_args = [*stream_args, "--seed", str(ctx.seed)]
    grid_args = sweeps.T7_ARGS if own == "grid" else COMPANION_GRID_ARGS
    grid_args = [*grid_args, "--seed", str(ctx.seed)]
    stream_store = os.path.join(ctx.work, "stream-store")
    grid_store = os.path.join(ctx.work, "grid-store")
    run_checked([ctx.er, "sweep", *stream_args, "--store-dir", stream_store], ctx.root,
                os.path.join(ctx.work, "stream-cold.log"))
    run_checked([ctx.table7, *grid_args, "--store-dir", grid_store], ctx.root,
                os.path.join(ctx.work, "grid-cold.log"))

    untraced_wall = traced_wall = 0.0
    counts, named = {}, {}
    for kind, args in (("serve", serve_args),
                       ("stream", [*stream_args, "--store-dir", stream_store]),
                       ("grid", [*grid_args, "--store-dir", grid_store])):
        untraced, traced, counts[kind], spans = run_tour(ctx, kind, args)
        untraced_wall += untraced
        traced_wall += traced
        named[kind] = by_name(spans)

    with open(expected_path) as f:
        expected = [serving.strip_us(line) for line in f]
    direct_res, proxy_res, proxy_summary, wire_gates = wire_hops(ctx, store, flags, wire,
                                                                 expected)
    gates.update(wire_gates)
    attempted = len(direct_res) + len(proxy_res)
    failed = sum(not serving.succeeded(r[0], r[1]) for r in direct_res + proxy_res)
    gates["grid tour: zero failed grid points"] = not counts["grid"].get("grid.failed", 0)

    # In-process cost of each wire request: parse + lookup + encode.
    sv = named["serve"]
    inproc = {}
    for name in ("er-serve.protocol.parse", "er-serve.engine.lookup",
                 "er-serve.protocol.encode"):
        for req, v in sv[name]:
            inproc[req] = inproc.get(req, 0) + v / 1e3
    direct_hops, unaccounted, proxy_hops = [], [], []
    for (line, resp, t0, t1), (_, presp, p0, p1) in zip(direct_res, proxy_res):
        if not (serving.succeeded(line, resp) and serving.succeeded(line, presp)):
            continue
        rtt_us = (t1 - t0) * 1e6
        direct_hops.append(rtt_us - inproc[json.loads(line)["id"]])
        unaccounted.append(rtt_us - json.loads(resp)["us"])
        proxy_hops.append((p1 - p0) * 1e6 - rtt_us)
    if not direct_hops:
        raise BenchError("no wire lookup was answered")

    sweep_tour = "grid" if own == "grid" else "stream"
    sw, gd, st = named[sweep_tour], named["grid"], named["stream"]
    configs = counts["grid"]["er-core.optimize.configs_evaluated"]
    values = {
        "er-serve.protocol.parse_us": median_of(sv, "er-serve.protocol.parse", 1e3),
        "er-serve.protocol.encode_us": median_of(sv, "er-serve.protocol.encode", 1e3),
        "er-serve.engine.lookup_us": median_of(sv, "er-serve.engine.lookup", 1e3),
        "er-sparse.sharded.candidates_per_lookup":
            counts["serve"]["candidates"] / counts["serve"]["lookups"],
        "er-serve.engine.apply_us": median_of(sv, "er-serve.engine.apply", 1e3),
        "er-serve.engine.compact_ms": median_of(sv, "er-serve.engine.compact", 1e6),
        "er-serve.engine.open_ms": median_of(sv, "er-serve.engine.open", 1e6),
        "er-serve.server.hop_us": stats.median(direct_hops),
        "er-serve.server.unaccounted_us": stats.median(unaccounted),
        "er-super.proxy.hop_us": stats.median(proxy_hops),
        "er-super.proxy.retries": proxy_summary.get("retries", 0),
        "er-super.proxy.unavailable": proxy_summary.get("unavailable", 0),
        "er-datagen.stream.rows_per_s":
            counts["stream"]["stream.rows"] / sum_of(st, "er-datagen.stream.generate", 1e9),
        "er-sparse.segment.build_s": sum_of(st, "er-sparse.segment.build", 1e9),
        "er-store.load_ms": median_of(sw, "er-store.load", 1e6),
        "er-sparse.epsilon.query_us": median_of(st, "er-sparse.epsilon.query", 1e3),
        "er-core.optimize.configs_evaluated": configs,
        "er-core.optimize.evaluated_frac": configs / counts["grid"]["er-core.optimize.grid_size"],
        "trace.overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
        "trace.spans": sum(c["tour.spans"] for c in counts.values()),
    }
    for key in ("store_hits", "misses", "evictions", "unmaps", "resident_bytes"):
        values[f"er-core.artifacts.{key}"] = counts[sweep_tour][f"er-core.artifacts.{key}"]
    for family in GRID_FAMILIES:
        values[f"{family}.grid_s"] = sum_of(gd, f"{family}.grid", 1e9)
    samples = {f"{name}_{unit}": len(tour.get(name, []))
               for tour, name, unit in ((sv, "er-serve.protocol.parse", "us"),
                                        (sv, "er-serve.protocol.encode", "us"),
                                        (sv, "er-serve.engine.lookup", "us"),
                                        (sv, "er-serve.engine.apply", "us"),
                                        (sv, "er-serve.engine.compact", "ms"),
                                        (sw, "er-store.load", "ms"),
                                        (st, "er-sparse.epsilon.query", "us"))}
    for name in ("er-serve.server.hop_us", "er-serve.server.unaccounted_us",
                 "er-super.proxy.hop_us"):
        samples[name] = len(direct_hops)
    return {"attempted": attempted, "failed": failed, "values": values, "gates": gates,
            "samples": samples}
