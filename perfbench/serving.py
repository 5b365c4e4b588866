"""The two serving workloads: lock-step clients against `er supervise`
(through the merge proxy) and against `er serve` directly."""

import hashlib
import json
import os
import random
import re
import shutil
import socket
import threading
import time

import stats
from procs import BenchError, Daemon, run_checked, vm_hwm_mb

PROFILE, SCALE, SHARDS, CHILDREN, K = "D5", "1.0", "4", "2", "5"
CONNECTIONS = 2
SETUP_REPS = 5
EXTRA_IDS = 64  # upserts may insert ids past the indexed side
COMPACT_EVERY = 400  # per connection, staggered: one compact per ~200 ops overall


def dataset_flags(seed, method, scale=SCALE):
    flags = ["--profile", PROFILE, "--scale", scale, "--seed", str(seed),
             "--clean", "--model", "T1G"]
    if method == "knn":
        return flags + ["--method", "knn", "--k", K]
    return flags + ["--method", "epsilon"]


def request_id(conn, i):
    return conn * 1_000_000 + i + 1


def lookup_line(rid, row):
    return f'{{"id":{rid},"row":{row}}}'


def read_stream(seed, conn, n_query, n):
    """Read-only lookups, uniform over the query rows."""
    rng = random.Random(f"read:{seed}:{conn}")
    return [lookup_line(request_id(conn, i), rng.randrange(n_query)) for i in range(n)]


def upsert_text(rng, texts):
    """An indexed text with one token dropped and one borrowed from
    another row, so upserts keep matching queries."""
    words = rng.choice(texts).split()
    if len(words) > 1:
        del words[rng.randrange(len(words))]
    words.append(rng.choice(rng.choice(texts).split() or ["x"]))
    return " ".join(words)


def mixed_stream(seed, conn, n_query, texts, n):
    """~90% lookups, ~8% upserts, ~2% deletes; the connection owns the
    indexed ids of its own parity; a compact every COMPACT_EVERY ops,
    staggered across connections."""
    rng = random.Random(f"mixed:{seed}:{conn}")
    owned = range(conn, len(texts) + EXTRA_IDS, CONNECTIONS)
    out = []
    for i in range(n):
        rid = request_id(conn, i)
        r = rng.random()
        if i % COMPACT_EVERY == COMPACT_EVERY // CONNECTIONS * (conn + 1) - 1:
            out.append(f'{{"op":"compact","id":{rid}}}')
        elif r < 0.90:
            out.append(lookup_line(rid, rng.randrange(n_query)))
        elif r < 0.98:
            text = json.dumps(upsert_text(rng, texts))
            out.append(f'{{"op":"upsert","id":{rid},"row":{rng.choice(owned)},"text":{text}}}')
        else:
            out.append(f'{{"op":"delete","id":{rid},"row":{rng.choice(owned)}}}')
    return out


def is_lookup(line):
    return '"op"' not in line


def succeeded(line, resp):
    """A lookup succeeds with a candidates row, an update with an ack;
    anything else (shed, timeout, unavailable, bad-request, wrong-shard,
    a dropped connection) is a failure."""
    return ('"candidates"' in resp) if is_lookup(line) else ('"ok":true' in resp)


def lockstep(addr, lines, stop_at, out):
    """One connection that sends its next request only after the previous
    answer arrived, until `lines` or the time run out. Appends
    (request, response, start, end) tuples to `out`."""
    try:
        sock = socket.create_connection(addr, timeout=30)
    except OSError:
        out.append((lines[0], "", time.perf_counter(), time.perf_counter()))
        return
    reader = sock.makefile("rb")
    try:
        for line in lines:
            t0 = time.perf_counter()
            if t0 >= stop_at:
                break
            try:
                sock.sendall(line.encode() + b"\n")
                resp = reader.readline().decode()
            except OSError:
                resp = ""
            out.append((line, resp, t0, time.perf_counter()))
            if not resp:
                break
    finally:
        reader.close()
        sock.close()


def drive(addr, streams, seconds):
    """Runs one lock-step connection per stream in parallel threads for
    `seconds`; returns the per-connection result lists."""
    stop_at = time.perf_counter() + seconds
    results = [[] for _ in streams]
    threads = [threading.Thread(target=lockstep, args=(addr, s, stop_at, r))
               for s, r in zip(streams, results)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


def probe(addr, line):
    with socket.create_connection(addr, timeout=30) as sock:
        sock.sendall(line.encode() + b"\n")
        return sock.makefile("rb").readline().decode()


def strip_us(line):
    return re.sub(r',"us":\d+', "", line.strip())


def tree_digest(path):
    """{relative path: sha256} of every file under `path`."""
    out = {}
    for base, _, files in os.walk(path):
        for name in files:
            full = os.path.join(base, name)
            with open(full, "rb") as f:
                out[os.path.relpath(full, path)] = hashlib.sha256(f.read()).hexdigest()
    return out


def dataset_info(ctx, seed, texts_path=None, scale=SCALE):
    cmd = [ctx.tracer, "info", "--profile", PROFILE, "--scale", scale, "--seed", str(seed)]
    if texts_path:
        cmd += ["--texts", texts_path]
    return json.loads(run_checked(cmd, ctx.root, os.path.join(ctx.work, "info.log")))


def build_store(ctx, store, flags, log):
    """A pristine persisted 4-shard family: a one-shot `er serve` over an
    empty store splits the collection and persists it on drain."""
    os.makedirs(store)
    d = Daemon([ctx.er, "serve", "--store-dir", store, *flags, "--shards", SHARDS,
                "--addr", "127.0.0.1:0"], ctx.root, log)
    code, text = d.stop()
    if code != 0 or "persisted segmented index" not in text:
        raise BenchError(f"store build failed (exit {code})")


def start_supervise(ctx, store, flags, log):
    d = Daemon([ctx.er, "supervise", "--store-dir", store, *flags, "--shards", SHARDS,
                "--children", CHILDREN, "--addr", "127.0.0.1:0", "--backoff-ms", "100"],
               ctx.root, log)
    health = probe(d.addr, '{"op":"health"}')
    if '"status":"serving"' not in health or f'"children_up":{CHILDREN}' not in health:
        d.kill()
        raise BenchError(f"supervise unhealthy: {health.strip()}")
    return d


def start_serve(ctx, store, flags, log):
    d = Daemon([ctx.er, "serve", "--store-dir", store, *flags, "--shards", SHARDS,
                "--addr", "127.0.0.1:0"], ctx.root, log)
    if '"status":"serving"' not in probe(d.addr, '{"op":"health"}'):
        d.kill()
        raise BenchError("serve unhealthy")
    return d


def stream_len(seconds):
    return int(60 * seconds) + 200  # well past ~23 lock-step requests/s


def timed_setups(ctx, one_setup):
    """Runs `one_setup(dir)` SETUP_REPS times from clean directories,
    stopping all but the last; returns (median setup seconds, last state)."""
    times, state = [], None
    for rep in range(SETUP_REPS):
        if state is not None:
            state["daemon"].stop()
        d = os.path.join(ctx.work, f"setup{rep}")
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        t0 = time.perf_counter()
        state = one_setup(d)
        times.append(time.perf_counter() - t0)
    return stats.median(times), state


def summarize(results, window_s, peak_rss_mb):
    """End-to-end serving metrics from the lock-step results; failures
    count against the total and as misses in every percentile."""
    lookups, updates = [], []
    attempted = failed = served = 0
    for line, resp, t0, t1 in (r for conn in results for r in conn):
        ok = succeeded(line, resp)
        attempted += 1
        failed += not ok
        sample = (t1 - t0) * 1000.0 if ok else stats.MISS
        if is_lookup(line):
            lookups.append(sample)
            served += ok
        else:
            updates.append(sample)
    return {
        "attempted": attempted,
        "failed": failed,
        "served": served,
        "window_s": window_s,
        "rows_per_s": served / window_s,
        "lookup": stats.latency_summary(lookups),
        "update": stats.latency_summary(updates),
        "peak_rss_mb": peak_rss_mb,
    }


def window(results):
    spans = [r for conn in results for r in conn]
    return max(r[3] for r in spans) - min(r[2] for r in spans)


def serve_proxy_read(ctx):
    """`er supervise` over a D5 epsilon store; two lock-step connections
    of read-only lookups through the merge proxy."""
    flags = dataset_flags(ctx.seed, "epsilon")

    def setup(d):
        n_query = dataset_info(ctx, ctx.seed)["e2"]
        streams = [read_stream(ctx.seed, c, n_query, stream_len(ctx.seconds))
                   for c in range(CONNECTIONS)]
        store = os.path.join(d, "store")
        os.makedirs(store)
        daemon = start_supervise(ctx, store, flags, os.path.join(d, "supervise.log"))
        return {"dir": d, "store": store, "streams": streams, "daemon": daemon}

    setup_s, st = timed_setups(ctx, setup)
    daemon = st["daemon"]
    try:
        pristine = tree_digest(st["store"])
        results = drive(daemon.addr, st["streams"], ctx.seconds)
        rss = vm_hwm_mb(daemon.proc.pid) + sum(vm_hwm_mb(p) for p in daemon.child_pids())
    finally:
        code, _ = daemon.stop()
    out = summarize(results, window(results), rss)
    out["setup_s"], out["setup_reps"] = setup_s, SETUP_REPS
    gates = {"supervise drained with exit 0": code == 0,
             "pristine store byte-unchanged": tree_digest(st["store"]) == pristine}

    # Every answered row against the in-process Engine::lookup reference.
    sent = os.path.join(st["dir"], "sent.txt")
    expected = os.path.join(st["dir"], "expected.txt")
    answered = [r for conn in results for r in conn if succeeded(r[0], r[1])]
    with open(sent, "w") as f:
        f.writelines(r[0] + "\n" for r in answered)
    run_checked([ctx.tracer, "serve", "--store", st["store"], *tracer_flags(flags),
                 "--requests", sent, "--responses", expected],
                ctx.root, os.path.join(st["dir"], "reference.log"))
    with open(expected) as f:
        want = [strip_us(line) for line in f]
    got = [strip_us(r[1]) for r in answered]
    gates["proxy rows byte-identical to Engine::lookup"] = got == want
    out["gates"] = gates
    return out


def tracer_flags(flags):
    """The daemon's dataset flags as the tracer takes them; it always
    serves the cleaned T1G model the daemons are given."""
    i = flags.index("--model")
    return [f for f in flags[:i] + flags[i + 2:] if f != "--clean"] + ["--shards", SHARDS]


def serve_direct_mixed(ctx):
    """`er serve` (no proxy) over a fresh copy of a pristine D5 kNN store;
    two lock-step connections of lookups, upserts, deletes and compacts."""
    flags = dataset_flags(ctx.seed, "knn")

    def setup(d):
        texts_path = os.path.join(d, "texts.txt")
        n_query = dataset_info(ctx, ctx.seed, texts_path)["e2"]
        with open(texts_path) as f:
            texts = f.read().splitlines()
        streams = [mixed_stream(ctx.seed, c, n_query, texts, stream_len(ctx.seconds))
                   for c in range(CONNECTIONS)]
        pristine = os.path.join(d, "pristine")
        build_store(ctx, pristine, flags, os.path.join(d, "build.log"))
        store = os.path.join(d, "store")
        shutil.copytree(pristine, store)
        daemon = start_serve(ctx, store, flags, os.path.join(d, "serve.log"))
        return {"dir": d, "store": store, "streams": streams, "daemon": daemon}

    setup_s, st = timed_setups(ctx, setup)
    daemon = st["daemon"]
    try:
        results = drive(daemon.addr, st["streams"], ctx.seconds)
        rss = vm_hwm_mb(daemon.proc.pid)
    finally:
        code, log = daemon.stop()
    out = summarize(results, window(results), rss)
    out["setup_s"], out["setup_reps"] = setup_s, SETUP_REPS
    gates = {"serve drained with exit 0": code == 0,
             "drain persisted the updates": "persisted segmented index" in log}

    # The restored index against a fresh build of the net collection.
    # Connections own disjoint ids, so their acked updates concatenate.
    acked = os.path.join(st["dir"], "acked.txt")
    with open(acked, "w") as f:
        for conn in results:
            f.writelines(r[0] + "\n" for r in conn
                         if not is_lookup(r[0]) and succeeded(r[0], r[1]))
    try:
        run_checked([ctx.tracer, "restore", "--store", st["store"], *tracer_flags(flags),
                     "--updates", acked], ctx.root, os.path.join(st["dir"], "restore.log"))
        gates["restored index equals a fresh build"] = True
    except BenchError:
        gates["restored index equals a fresh build"] = False
    out["gates"] = gates
    return out
