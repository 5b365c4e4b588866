//! In-process layer tours for the repository benchmark.
//!
//! Each subcommand drives one group of layers through their public
//! functions — the same calls the `er` binaries make — and records a span
//! around every call: name, id, parent id, request id, start and end in
//! nanoseconds since process start. `--trace 0` runs the identical work
//! with the recorder off (no clock reads), so the wall-time difference of
//! the two runs is the tracing overhead. Spans are kept in memory and
//! written as JSON lines to `--spans` when the tour ends; counters go to
//! `--counts` as one JSON object.
//!
//! ```text
//! perfbench-trace info    --profile D5 --scale 1 --seed 7 [--texts f]
//! perfbench-trace serve   --store d --profile D5 --scale 1 --seed 7 --method epsilon|knn
//!                         [--k 5] --shards 4 --requests f [--responses f] [--mixed f]
//! perfbench-trace restore --store d --profile D5 --scale 1 --seed 7 --method knn --k 5
//!                         --shards 4 --updates f
//! perfbench-trace stream  --rows N --seed 7 --shards 4 --cache-budget 4M --store-dir d
//! perfbench-trace grid    --datasets D2,D5 --scale 0.05 --seed 7 --grid quick --reps 1
//!                         --dim 32 --store-dir d
//! ```
//!
//! Every tour takes `--trace 0|1`, `--spans f` and `--counts f`.

use er::core::artifacts::{ArtifactCache, ArtifactKey, DiskTier, TierLoad};
use er::core::guard::{Limits, RunOutcome};
use er::core::optimize::{GridResolution, Optimizer};
use er::core::parallel::Threads;
use er::core::schema::{text_view, SchemaMode, TextView};
use er::core::shard::{shard_repr, ShardPlan};
use er::core::Prepared;
use er::datagen::StreamGen;
use er::dense::EmbeddingConfig;
use er::sparse::segmented::segment_repr;
use er::sparse::{
    EpsilonJoin, KnnJoin, RepresentationModel, ScanCountScratch, ShardedIndex, SimilarityMeasure,
    SparseSegment,
};
use er::store::ArtifactStore;
use er::text::Cleaner;
use er_bench::harness::{run_all_methods_with, Context};
use er_bench::jsonl::Json;
use er_bench::Settings;
use er_serve::{protocol, Engine, Request, ServeMethod, UpdateOp};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
struct Span {
    name: &'static str,
    id: u64,
    parent: u64,
    req: i64,
    start_ns: u64,
    end_ns: u64,
}

/// The in-memory span recorder. Off, it reads no clock and records
/// nothing; ids are then all 0.
struct Tracer {
    on: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

fn tracer() -> &'static Tracer {
    TRACER.get().expect("tracer initialised in main")
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A fresh span id (0 when tracing is off).
    fn id(&self) -> u64 {
        if self.on {
            self.next.fetch_add(1, Ordering::Relaxed) + 1
        } else {
            0
        }
    }

    /// Runs `f` inside a span; `f` receives the span's id to parent its
    /// children.
    fn span<T>(&self, name: &'static str, parent: u64, req: i64, f: impl FnOnce(u64) -> T) -> T {
        if !self.on {
            return f(0);
        }
        let id = self.id();
        let start_ns = self.now();
        let out = f(id);
        let end_ns = self.now();
        self.record(name, id, parent, req, start_ns, end_ns);
        out
    }

    /// Records a span whose bounds were measured elsewhere.
    fn record(
        &self,
        name: &'static str,
        id: u64,
        parent: u64,
        req: i64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.on {
            self.spans.lock().unwrap().push(Span {
                name,
                id,
                parent,
                req,
                start_ns,
                end_ns,
            });
        }
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for s in self.spans.lock().unwrap().iter() {
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.id, s.parent, s.req, s.start_ns, s.end_ns
            ));
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Named counters of one tour, written as a JSON object.
#[derive(Default)]
struct Counts(BTreeMap<String, f64>);

impl Counts {
    fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), value);
    }

    fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_owned()).or_insert(0.0) += value;
    }

    fn add_cache(&mut self, stats: &er::core::artifacts::CacheStats) {
        self.add("er-core.artifacts.store_hits", stats.store_hits as f64);
        self.add("er-core.artifacts.misses", stats.misses as f64);
        self.add("er-core.artifacts.evictions", stats.evictions as f64);
        self.add("er-core.artifacts.unmaps", stats.unmaps as f64);
        self.add("er-core.artifacts.resident_bytes", stats.bytes as f64);
    }

    fn encode(&self) -> String {
        Json::Obj(
            self.0
                .iter()
                .map(|(k, &v)| (k.clone(), Json::Num(v)))
                .collect(),
        )
        .encode()
    }
}

/// `--name value` flags.
struct Args(HashMap<String, String>);

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            map.insert(name.to_owned(), value.clone());
        }
        Ok(Args(map))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    fn req(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing --{name}"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.req(name)?;
        v.parse()
            .map_err(|_| format!("--{name} {v:?} is not a number"))
    }

    /// The flags as `--name value` strings, for the repository's own
    /// settings parser; `skip` names this tool's own flags.
    fn forward(&self, skip: &[&str]) -> Vec<String> {
        let mut out = Vec::new();
        let mut names: Vec<&String> = self.0.keys().collect();
        names.sort();
        for name in names {
            if !skip.contains(&name.as_str()) {
                out.push(format!("--{name}"));
                out.push(self.0[name].clone());
            }
        }
        out
    }
}

const OWN_FLAGS: &[&str] = &["trace", "spans", "counts"];

/// The dataset view a serving daemon regenerates from its flags.
fn serve_view(a: &Args) -> Result<TextView, String> {
    let id = a.req("profile")?;
    let profile =
        er::datagen::profiles::profile(id).ok_or_else(|| format!("unknown profile {id:?}"))?;
    let ds = er::datagen::generate(profile, a.num("scale")?, a.num("seed")?);
    Ok(text_view(&ds, &SchemaMode::Agnostic))
}

/// The serving method of `er serve --method epsilon|knn --clean --model T1G`.
fn serve_method(a: &Args) -> Result<ServeMethod, String> {
    let model = RepresentationModel::parse("T1G").expect("T1G is a model");
    match a.req("method")? {
        "epsilon" => Ok(ServeMethod::Epsilon(EpsilonJoin {
            cleaning: true,
            model,
            measure: SimilarityMeasure::Cosine,
            threshold: 0.4,
        })),
        "knn" => Ok(ServeMethod::Knn(KnnJoin {
            cleaning: true,
            model,
            measure: SimilarityMeasure::Cosine,
            k: a.num("k")?,
            reversed: false,
        })),
        other => Err(format!("--method {other:?}")),
    }
}

fn read_lines(path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(text.lines().map(str::to_owned).collect())
}

/// `info`: dataset sizes, and optionally the indexed side's texts.
fn info(a: &Args) -> Result<(), String> {
    let view = serve_view(a)?;
    if let Some(path) = a.get("texts") {
        let mut out = String::new();
        for t in view.e1.iter() {
            out.push_str(&t.replace(['\n', '\r'], " "));
            out.push('\n');
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{{\"e1\":{},\"e2\":{}}}", view.e1.len(), view.e2.len());
    Ok(())
}

/// Answers one request line the way the daemon does, inside spans.
fn replay_one(engine: &Engine, line: &str, counts: &mut Counts) -> Result<String, String> {
    let tr = tracer();
    let req = Json::parse(line)
        .ok()
        .and_then(|v| v.get("id").and_then(Json::as_f64))
        .map_or(-1, |id| id as i64);
    tr.span("er-serve.request", 0, req, |parent| {
        let parsed = tr.span("er-serve.protocol.parse", parent, req, |_| {
            Request::parse(line)
        })?;
        match parsed {
            Request::Query { id, row, .. } => {
                let outcome = tr.span("er-serve.engine.lookup", parent, req, |_| {
                    engine.lookup_batch(&[(row, Limits::catching())])
                });
                match outcome.into_iter().next() {
                    Some(RunOutcome::Ok(candidates)) => {
                        counts.add("lookups", 1.0);
                        counts.add("candidates", candidates.len() as f64);
                        Ok(tr.span("er-serve.protocol.encode", parent, req, |_| {
                            protocol::ok_line(&id, row, &candidates, 0)
                        }))
                    }
                    _ => Err(format!("lookup of row {row} failed")),
                }
            }
            Request::Upsert { id, row, text } => {
                let op = UpdateOp::Upsert { id: row, text };
                match tr.span("er-serve.engine.apply", parent, req, |_| engine.apply(op)) {
                    RunOutcome::Ok(true) => Ok(protocol::ack_line(&id, "upsert", row)),
                    _ => Err(format!("upsert of row {row} failed")),
                }
            }
            Request::Delete { id, row } => {
                let op = UpdateOp::Delete { id: row };
                match tr.span("er-serve.engine.apply", parent, req, |_| engine.apply(op)) {
                    RunOutcome::Ok(true) => Ok(protocol::ack_line(&id, "delete", row)),
                    _ => Err(format!("delete of row {row} failed")),
                }
            }
            Request::Compact { id } => {
                match tr.span("er-serve.engine.compact", parent, req, |_| engine.compact()) {
                    RunOutcome::Ok(c) => Ok(protocol::compact_line(
                        &id,
                        c.compacted,
                        c.segments,
                        c.delta_rows,
                    )),
                    _ => Err("compact failed".to_owned()),
                }
            }
            other => Err(format!("unexpected request {other:?}")),
        }
    })
}

/// `serve`: opens the engine over the store and replays the request
/// file, writing the daemon's expected response lines (`"us":0`). The
/// optional `--mixed` file is replayed afterwards on the same engine.
/// Nothing is persisted: the store is opened read-only.
fn serve(a: &Args, counts: &mut Counts) -> Result<(), String> {
    let view = serve_view(a)?;
    let method = serve_method(a)?;
    let store = PathBuf::from(a.req("store")?);
    let shards: u32 = a.num("shards")?;
    let engine = tracer().span("er-serve.engine.open", 0, -1, |_| {
        Engine::open(&store, &view, method, shards)
    })?;
    let mut expected = String::new();
    for line in read_lines(a.req("requests")?)? {
        expected.push_str(&replay_one(&engine, &line, counts)?);
        expected.push('\n');
    }
    if let Some(path) = a.get("responses") {
        std::fs::write(path, expected).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = a.get("mixed") {
        for line in read_lines(path)? {
            replay_one(&engine, &line, counts)?;
        }
    }
    Ok(())
}

/// `restore`: the restored index must answer every query row exactly as
/// a fresh build of the net collection (the indexed side with the acked
/// updates applied in order) does. Exits non-zero on any difference.
fn restore(a: &Args) -> Result<(), String> {
    let view = serve_view(a)?;
    let method = serve_method(a)?;
    let store = PathBuf::from(a.req("store")?);
    let shards: u32 = a.num("shards")?;
    let engine = Engine::open(&store, &view, method, shards)?;
    if !engine.restored() {
        return Err("the store holds no persisted shard family to restore".to_owned());
    }
    let mut net: BTreeMap<u32, String> = view
        .e1
        .iter()
        .enumerate()
        .map(|(i, t)| (i as u32, t.clone()))
        .collect();
    for line in read_lines(a.req("updates")?)? {
        match Request::parse(&line)? {
            Request::Upsert { row, text, .. } => {
                net.insert(row, text);
            }
            Request::Delete { row, .. } => {
                net.remove(&row);
            }
            _ => {}
        }
    }
    let model = RepresentationModel::parse("T1G").expect("T1G is a model");
    let cleaner = Cleaner::on();
    let query_raw: Vec<Vec<u64>> = view
        .e2
        .iter()
        .map(|t| model.token_set(t, &cleaner))
        .collect();
    let rows = net
        .iter()
        .map(|(&id, t)| (id, model.token_set(t, &cleaner)));
    let fresh = ShardedIndex::build(method.repr_key(), shards, rows, query_raw);
    let expected: Vec<Vec<u32>> = match &method {
        ServeMethod::Epsilon(f) => fresh.epsilon_batch(f, Threads::get()),
        ServeMethod::Knn(f) => fresh
            .knn_batch(f, Threads::get())
            .into_iter()
            .map(|scored| {
                let mut ids: Vec<u32> = scored.into_iter().map(|(id, _)| id).collect();
                ids.sort_unstable();
                ids
            })
            .collect(),
    };
    let mut mismatches = 0usize;
    for (row, want) in expected.iter().enumerate() {
        match engine.lookup(row, Limits::catching()) {
            RunOutcome::Ok(got) if &got == want => {}
            _ => mismatches += 1,
        }
    }
    println!(
        "{{\"rows\":{},\"mismatches\":{mismatches},\"live_rows\":{},\"net_rows\":{}}}",
        expected.len(),
        engine.index_stats().live_rows,
        net.len()
    );
    if mismatches > 0 || engine.index_stats().live_rows != net.len() {
        return Err(format!(
            "restored index differs from a fresh build on {mismatches} row(s)"
        ));
    }
    Ok(())
}

/// `stream`: the out-of-core shard sweep's layers, one call per span —
/// the streaming generator, per-shard segment builds, then the warm path
/// over the cold pass's store: one cache lookup (a store hit) per shard
/// and one ε-join query per query row per shard.
fn stream(a: &Args, counts: &mut Counts) -> Result<(), String> {
    let tr = tracer();
    let settings = Settings::try_parse(a.forward(OWN_FLAGS))?;
    let spec = er_bench::shard::stream_spec(&settings);
    let gen = StreamGen::new(spec);
    let plan = ShardPlan::new(settings.shards.unwrap_or(1));
    let tokens = tr.span("er-datagen.stream.generate", 0, -1, |_| {
        gen.rows().map(|row| row.tokens.len() as u64).sum::<u64>()
    });
    counts.set("stream.rows", spec.rows as f64);
    counts.set("stream.tokens", tokens as f64);
    let query_raw = gen.query_rows();
    for s in 0..plan.n() {
        let len = tr.span("er-sparse.segment.build", 0, s as i64, |_| {
            let rows: Vec<(u32, Vec<u64>)> = gen
                .shard_rows(&plan, s)
                .map(|row| (row.id, row.tokens))
                .collect();
            SparseSegment::build(0, rows, &query_raw).len()
        });
        counts.add("segment.rows", len as f64);
    }

    let dir = settings.store_dir.as_deref().ok_or("missing --store-dir")?;
    let store = er_bench::open_store_read_only(Path::new(dir)).map_err(|e| e.to_string())?;
    let cache = ArtifactCache::new();
    cache.set_budget(settings.cache_budget);
    cache.set_store(Some(std::sync::Arc::new(store)));
    let join = EpsilonJoin {
        cleaning: false,
        model: RepresentationModel::parse("T1G").expect("T1G is a model"),
        measure: SimilarityMeasure::Cosine,
        threshold: settings.threshold.unwrap_or(0.4),
    };
    let (mut scratch, mut hits, mut dense) = (ScanCountScratch::default(), Vec::new(), Vec::new());
    for s in 0..plan.n() {
        let repr = segment_repr(&shard_repr(er_bench::shard::BASE_REPR, s, plan.n()), 0);
        let key = ArtifactKey::new(gen.fingerprint(), repr);
        tr.span("er-bench.shard.pass", 0, s as i64, |pass| {
            let prepared = match tr.span("er-store.load", pass, s as i64, |_| cache.lookup(&key)) {
                Some(Ok(prepared)) => prepared,
                _ => return Err(format!("shard {s} is not in the store {dir}")),
            };
            let segment: &SparseSegment = prepared.downcast();
            for j in 0..query_raw.len() {
                tr.span("er-sparse.epsilon.query", pass, j as i64, |_| {
                    dense.clear();
                    join.query_row_into(&segment.art, j, &mut scratch, &mut hits, &mut dense);
                });
                counts.add("epsilon.candidates", dense.len() as f64);
            }
            counts.add("epsilon.queries", query_raw.len() as f64);
            Ok(())
        })?;
    }
    counts.add_cache(&cache.stats());
    Ok(())
}

/// The store read path of the grid tour: every store hit inside the
/// methods' cache lookups becomes an `er-store.load` span, parented to
/// the method running at the time.
struct TracedTier {
    inner: ArtifactStore,
    method: &'static AtomicU64,
}

impl DiskTier for TracedTier {
    fn load(&self, key: &ArtifactKey) -> TierLoad {
        let tr = tracer();
        if !tr.on {
            return self.inner.load(key);
        }
        let start_ns = tr.now();
        let out = self.inner.load(key);
        if matches!(out, TierLoad::Hit { .. }) {
            let parent = self.method.load(Ordering::Relaxed);
            tr.record("er-store.load", tr.id(), parent, -1, start_ns, tr.now());
        }
        out
    }

    fn store(&self, key: &ArtifactKey, prepared: &Prepared) -> Result<bool, String> {
        self.inner.store(key, prepared)
    }
}

/// Which layer crate a Table VII method's grid belongs to.
fn family(method: &str) -> &'static str {
    match method {
        "e-Join" | "kNN-Join" | "DkNN" => "er-sparse.grid",
        "MH-LSH" | "CP-LSH" | "HP-LSH" | "FAISS" | "SCANN" => "er-dense.grid",
        "DeepBlocker" | "DDB" => "er-neural.grid",
        _ => "er-blocking.grid",
    }
}

/// The configurations of a grid grouped into ordered sweeps.
fn flat<C>(groups: Vec<Vec<C>>) -> usize {
    groups.iter().map(Vec::len).sum()
}

/// The number of configurations in a method's grid at `res`.
fn grid_size(method: &str, res: GridResolution, emb: EmbeddingConfig, seed: u64) -> usize {
    use er::blocking::workflow::WorkflowKind;
    use er::dense::grid as dense;
    let ks = dense::k_sweep(res).len();
    match method {
        "SBW" => WorkflowKind::Sbw.grid(res).len(),
        "QBW" => WorkflowKind::Qbw.grid(res).len(),
        "EQBW" => WorkflowKind::Eqbw.grid(res).len(),
        "SABW" => WorkflowKind::Sabw.grid(res).len(),
        "ESABW" => WorkflowKind::Esabw.grid(res).len(),
        "e-Join" => flat(er::sparse::grid::epsilon_grid(res)),
        "kNN-Join" => flat(er::sparse::grid::knn_grid(res)),
        "MH-LSH" => dense::minhash_grid(res, seed).len(),
        "HP-LSH" => flat(dense::hyperplane_grid(res, emb, seed)),
        "CP-LSH" => flat(dense::crosspolytope_grid(res, emb, seed)),
        "FAISS" => dense::flat_combos(res, emb).len() * ks,
        "SCANN" => dense::scann_combos(res, emb, seed).len() * ks,
        "DeepBlocker" => dense::deepblocker_combos(res, emb, seed).len() * ks,
        _ => 1,
    }
}

/// `grid`: the Table VII sweep's columns over the cold pass's store, one
/// span per method from the `run_all_methods_with` callback.
fn grid(a: &Args, counts: &mut Counts) -> Result<(), String> {
    static METHOD: AtomicU64 = AtomicU64::new(0);
    let tr = tracer();
    let settings = Settings::try_parse(a.forward(OWN_FLAGS))?;
    let dir = settings.store_dir.clone().ok_or("missing --store-dir")?;
    let embedding = EmbeddingConfig {
        dim: settings.dim,
        ..Default::default()
    };
    for (c, spec) in er_bench::sweep::column_specs(&settings).iter().enumerate() {
        let ds = er::datagen::generate(spec.profile, settings.scale, settings.seed);
        let view = text_view(&ds, &spec.mode);
        let store = er_bench::open_store_read_only(Path::new(&dir)).map_err(|e| e.to_string())?;
        let cache = ArtifactCache::new();
        cache.set_budget(settings.cache_budget);
        cache.set_store(Some(std::sync::Arc::new(TracedTier {
            inner: store,
            method: &METHOD,
        })));
        let ctx = Context {
            optimizer: Optimizer::new(settings.target_pc).with_limits(settings.limits()),
            resolution: settings.resolution,
            embedding,
            seed: settings.seed,
            reps: settings.reps,
            label: spec.label.clone(),
            ..Context::new(&view, &ds.groundtruth, &cache)
        };
        tr.span("er-bench.column", 0, c as i64, |column| {
            METHOD.store(tr.id(), Ordering::Relaxed);
            run_all_methods_with(&ctx, |o, elapsed| {
                let end_ns = tr.now();
                let start_ns = end_ns.saturating_sub(elapsed.as_nanos() as u64);
                let id = METHOD.load(Ordering::Relaxed);
                tr.record(family(&o.method), id, column, c as i64, start_ns, end_ns);
                METHOD.store(tr.id(), Ordering::Relaxed);
                counts.add("er-core.optimize.configs_evaluated", o.evaluated as f64);
                counts.add(
                    "er-core.optimize.grid_size",
                    grid_size(&o.method, settings.resolution, embedding, settings.seed) as f64,
                );
                counts.add("grid.points", 1.0);
                if o.error.is_some() {
                    counts.add("grid.failed", 1.0);
                }
            });
        });
        counts.add_cache(&cache.stats());
    }
    Ok(())
}

fn run(cmd: &str, a: &Args) -> Result<(), String> {
    if cmd == "info" {
        return info(a);
    }
    if cmd == "restore" {
        return restore(a);
    }
    let on = match a.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?} (expected 0 or 1)")),
    };
    TRACER
        .set(Tracer {
            on,
            origin: Instant::now(),
            next: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
        .map_err(|_| "tracer set twice")?;
    let mut counts = Counts::default();
    let start = Instant::now();
    match cmd {
        "serve" => serve(a, &mut counts)?,
        "stream" => stream(a, &mut counts)?,
        "grid" => grid(a, &mut counts)?,
        other => return Err(format!("unknown subcommand {other:?}")),
    }
    counts.set("tour.wall_s", start.elapsed().as_secs_f64());
    counts.set("tour.spans", tracer().spans.lock().unwrap().len() as f64);
    if let Some(path) = a.get("spans") {
        tracer().write(Path::new(path))?;
    }
    if let Some(path) = a.get("counts") {
        std::fs::write(path, counts.encode() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: perfbench-trace info|serve|restore|stream|grid --flag value ...");
        std::process::exit(2);
    };
    let result = Args::parse(rest).and_then(|a| run(cmd, &a));
    if let Err(e) = result {
        eprintln!("perfbench-trace {cmd}: {e}");
        std::process::exit(1);
    }
}
