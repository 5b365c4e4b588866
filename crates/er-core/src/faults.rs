//! Deterministic, seed-driven fault injection for robustness testing.
//!
//! The fault-tolerance layer ([`crate::guard`], the guarded sweeps in
//! [`crate::optimize`], the harness checkpointing) is only trustworthy if
//! it can be proven end to end: this module makes chosen sweep sites
//! panic, stall past their deadline, emit corrupt candidate data, or
//! simulate a process death, under a plan that is a pure function of
//! `(spec, site)` — the same sites fail on every run at every thread
//! count.
//!
//! A plan is parsed from a spec string (CLI `--inject-faults`, or the
//! `ER_FAULTS` environment variable):
//!
//! ```text
//! spec   := entry (';' entry)*
//! entry  := kind '@' site [':' opt (',' opt)*]
//! kind   := panic | stall | corrupt | kill
//! site   := exact site key, or a prefix ending in '*'
//! opt    := p=<0..1>       fire probability (default 1; hashed from site+seed)
//!         | seed=<u64>     selection seed (default 0)
//!         | ms=<u64>       stall duration in milliseconds (default 1000)
//! ```
//!
//! Examples: `panic@Da1/kNN-Join`, `stall@eval/*:ms=5000`,
//! `panic@*:p=0.2,seed=7`, `kill@Da1/FAISS`.
//!
//! Sites are hierarchical strings chosen by the instrumented layer: the
//! benchmark sweep fires `<column>/<method>` per grid point and
//! `eval/<method>` per filter execution.
//!
//! Injection is process-global and **zero-cost when disabled**: every hook
//! starts with a single relaxed atomic load that is false unless a plan
//! has been installed.

use crate::guard::{self, KillSwitch};
use crate::hash::{hash_str_seeded, mix64};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, RwLock};
use std::time::Duration;

/// What an armed fault does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with an `injected fault` message (absorbed by guards).
    Panic,
    /// Busy-wait in checkpointed slices for the given duration, tripping
    /// any active deadline; without a deadline the site just runs late.
    Stall(Duration),
    /// Mark the site's output for corruption; the instrumented layer calls
    /// [`corrupt_pairs`] to apply it.
    Corrupt,
    /// Unwind with [`KillSwitch`], which guards re-throw: simulates the
    /// process dying mid-sweep (for checkpoint/resume tests).
    Kill,
}

/// One parsed spec entry.
#[derive(Debug, Clone, PartialEq)]
struct FaultSpec {
    kind: FaultKind,
    /// Exact site, or prefix match when `wildcard`.
    site: String,
    wildcard: bool,
    /// Fire probability in [0, 1]; selection hashes `(seed, site)`.
    prob: f64,
    seed: u64,
}

impl FaultSpec {
    fn matches(&self, site: &str) -> bool {
        let hit = if self.wildcard {
            site.starts_with(&self.site)
        } else {
            site == self.site
        };
        if !hit {
            return false;
        }
        if self.prob >= 1.0 {
            return true;
        }
        // Deterministic selection: a pure function of (seed, site). The
        // mix64 finalizer fixes FNV's weak high bits before the value is
        // read as a fraction.
        let h = mix64(hash_str_seeded(site, self.seed));
        (h as f64 / u64::MAX as f64) < self.prob
    }
}

/// A full fault-injection plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// Number of parsed spec entries.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True if the plan has no entries.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Parses a spec string (see the module docs for the grammar).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut specs = Vec::new();
        for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
            let entry = entry.trim();
            let (kind_str, rest) = entry
                .split_once('@')
                .ok_or_else(|| format!("fault entry {entry:?}: expected kind@site"))?;
            let (site_str, opts) = match rest.split_once(':') {
                Some((s, o)) => (s, Some(o)),
                None => (rest, None),
            };
            let mut prob = 1.0f64;
            let mut seed = 0u64;
            let mut ms = 1000u64;
            for opt in opts.iter().flat_map(|o| o.split(',')) {
                let (k, v) = opt
                    .split_once('=')
                    .ok_or_else(|| format!("fault option {opt:?}: expected key=value"))?;
                match k.trim() {
                    "p" => {
                        prob = v
                            .parse()
                            .map_err(|_| format!("fault option p={v:?}: not a number"))?;
                        if !(0.0..=1.0).contains(&prob) {
                            return Err(format!("fault option p={v}: must be in [0, 1]"));
                        }
                    }
                    "seed" => {
                        seed = v
                            .parse()
                            .map_err(|_| format!("fault option seed={v:?}: not an integer"))?;
                    }
                    "ms" => {
                        ms = v
                            .parse()
                            .map_err(|_| format!("fault option ms={v:?}: not an integer"))?;
                    }
                    other => return Err(format!("unknown fault option {other:?}")),
                }
            }
            let kind = match kind_str.trim() {
                "panic" => FaultKind::Panic,
                "stall" => FaultKind::Stall(Duration::from_millis(ms)),
                "corrupt" => FaultKind::Corrupt,
                "kill" => FaultKind::Kill,
                other => {
                    return Err(format!(
                        "unknown fault kind {other:?} (expected panic|stall|corrupt|kill)"
                    ))
                }
            };
            let site = site_str.trim();
            let (site, wildcard) = match site.strip_suffix('*') {
                Some(prefix) => (prefix.to_owned(), true),
                None => (site.to_owned(), false),
            };
            specs.push(FaultSpec {
                kind,
                site,
                wildcard,
                prob,
                seed,
            });
        }
        if specs.is_empty() {
            return Err("empty fault spec".to_owned());
        }
        Ok(FaultPlan { specs })
    }

    /// The first armed fault kind matching `site`, if any.
    fn lookup(&self, site: &str) -> Option<FaultKind> {
        self.specs.iter().find(|s| s.matches(site)).map(|s| s.kind)
    }
}

/// Fast-path switch: false unless a plan is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);

fn plan_slot() -> &'static RwLock<Option<FaultPlan>> {
    static PLAN: OnceLock<RwLock<Option<FaultPlan>>> = OnceLock::new();
    PLAN.get_or_init(|| RwLock::new(None))
}

/// Installs (or, with `None`, clears) the process-wide fault plan.
pub fn configure(plan: Option<FaultPlan>) {
    let enabled = plan.is_some();
    *plan_slot().write().expect("fault plan lock") = plan;
    ENABLED.store(enabled, Ordering::Release);
}

/// Installs a plan from the `ER_FAULTS` environment variable, if set.
/// Returns an error only for a present-but-malformed spec.
pub fn configure_from_env() -> Result<(), String> {
    match std::env::var("ER_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => {
            configure(Some(FaultPlan::parse(&spec)?));
            Ok(())
        }
        _ => Ok(()),
    }
}

/// True if a fault plan is installed (one relaxed load).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Acquire)
}

fn lookup(site: &str) -> Option<FaultKind> {
    if !enabled() {
        return None;
    }
    plan_slot()
        .read()
        .expect("fault plan lock")
        .as_ref()
        .and_then(|p| p.lookup(site))
}

/// Fires the fault armed at `site`, if any: panics, stalls (in
/// checkpointed slices so an active deadline trips), or unwinds with
/// [`KillSwitch`]. `Corrupt` faults do nothing here — the instrumented
/// layer applies them via [`corrupt_pairs`]. A no-op when disabled.
#[inline]
pub fn fire(site: &str) {
    if !enabled() {
        return;
    }
    match lookup(site) {
        None | Some(FaultKind::Corrupt) => {}
        Some(FaultKind::Panic) => panic!("injected fault: panic at {site}"),
        Some(FaultKind::Kill) => {
            std::panic::panic_any(KillSwitch(format!("injected fault: kill at {site}")))
        }
        Some(FaultKind::Stall(total)) => {
            let slice = Duration::from_millis(1);
            let mut slept = Duration::ZERO;
            while slept < total {
                std::thread::sleep(slice);
                slept += slice;
                // Trips the enclosing guard's deadline, if one is armed.
                guard::checkpoint();
            }
        }
    }
}

/// True if a `corrupt` fault is armed at `site`.
#[inline]
pub fn wants_corrupt(site: &str) -> bool {
    matches!(lookup(site), Some(FaultKind::Corrupt))
}

/// Applies a `corrupt` fault to a candidate set: deterministically
/// replaces the contents with junk pairs derived from the site, so
/// downstream metrics see structurally-valid but wrong data.
pub fn corrupt_pairs(site: &str, candidates: &mut crate::candidates::CandidateSet) {
    if !wants_corrupt(site) {
        return;
    }
    let h = hash_str_seeded(site, 0);
    *candidates = crate::candidates::CandidateSet::new();
    for i in 0..8u64 {
        let v = h.wrapping_mul(i * 2 + 1);
        candidates.insert(crate::candidates::Pair::new(
            (v >> 32) as u32 % 1024,
            v as u32 % 1024,
        ));
    }
}

/// Runs `f` with `plan` installed, restoring the previous plan after —
/// and serializes callers on an internal lock so concurrently-running
/// tests cannot clobber each other's plans.
pub fn with_plan<T>(plan: FaultPlan, f: impl FnOnce() -> T) -> T {
    exclusive(|| {
        configure(Some(plan));
        // Clear the plan even if `f` unwinds (kill faults do).
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                configure(None);
            }
        }
        let _reset = Reset;
        f()
    })
}

/// Runs `f` on the lock [`with_plan`] holds, so code that must run
/// fault-free (e.g. a test sharing its process with fault tests) never
/// overlaps an installed plan.
pub fn exclusive<T>(f: impl FnOnce() -> T) -> T {
    static SCOPE: Mutex<()> = Mutex::new(());
    let _scope = SCOPE.lock().unwrap_or_else(|e| e.into_inner());
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::CandidateSet;
    use crate::guard::{run_guarded, FailReason, Limits, RunOutcome};

    #[test]
    fn parse_grammar() {
        let plan = FaultPlan::parse("panic@Da1/kNN-Join;stall@eval/*:ms=5;corrupt@x/y;kill@z")
            .expect("parse");
        assert_eq!(plan.lookup("Da1/kNN-Join"), Some(FaultKind::Panic));
        assert_eq!(
            plan.lookup("eval/FAISS"),
            Some(FaultKind::Stall(Duration::from_millis(5)))
        );
        assert_eq!(plan.lookup("x/y"), Some(FaultKind::Corrupt));
        assert_eq!(plan.lookup("z"), Some(FaultKind::Kill));
        assert_eq!(plan.lookup("Da1/FAISS"), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("panic").is_err(), "missing @site");
        assert!(FaultPlan::parse("explode@x").is_err(), "unknown kind");
        assert!(FaultPlan::parse("panic@x:p=2").is_err(), "p out of range");
        assert!(FaultPlan::parse("panic@x:mystery=1").is_err());
        assert!(FaultPlan::parse("stall@x:ms=abc").is_err());
    }

    #[test]
    fn probabilistic_selection_is_deterministic() {
        let plan = FaultPlan::parse("panic@*:p=0.5,seed=7").expect("parse");
        let picks: Vec<bool> = (0..64)
            .map(|i| plan.lookup(&format!("site/{i}")).is_some())
            .collect();
        // Same plan again: identical picks.
        let plan2 = FaultPlan::parse("panic@*:p=0.5,seed=7").expect("parse");
        let picks2: Vec<bool> = (0..64)
            .map(|i| plan2.lookup(&format!("site/{i}")).is_some())
            .collect();
        assert_eq!(picks, picks2);
        // Roughly half fire; definitely not all-or-none.
        let n = picks.iter().filter(|&&b| b).count();
        assert!((8..=56).contains(&n), "{n} of 64 fired");
        // A different seed picks a different subset.
        let plan3 = FaultPlan::parse("panic@*:p=0.5,seed=8").expect("parse");
        let picks3: Vec<bool> = (0..64)
            .map(|i| plan3.lookup(&format!("site/{i}")).is_some())
            .collect();
        assert_ne!(picks, picks3);
    }

    #[test]
    fn fire_is_noop_when_disabled() {
        // Hold the plan lock so no concurrently-running test has a plan
        // installed while this one expects none.
        exclusive(|| {
            assert!(!enabled());
            fire("anything"); // must not panic
            assert!(!wants_corrupt("anything"));
        });
    }

    #[test]
    fn injected_panic_is_absorbed_by_guard() {
        let plan = FaultPlan::parse("panic@boom").expect("parse");
        with_plan(plan, || {
            let out = run_guarded(Limits::catching(), || {
                fire("safe");
                fire("boom");
                0u32
            });
            match out {
                RunOutcome::Failed {
                    reason: FailReason::Panicked(msg),
                    ..
                } => assert!(msg.contains("injected fault"), "{msg}"),
                other => panic!("unexpected {other:?}"),
            }
        });
        assert!(!exclusive(enabled), "plan cleared after with_plan");
    }

    #[test]
    fn injected_stall_trips_deadline() {
        let plan = FaultPlan::parse("stall@slow:ms=10000").expect("parse");
        with_plan(plan, || {
            let limits = Limits::none().with_timeout(Duration::from_millis(5));
            let out = run_guarded(limits, || {
                fire("slow");
                0u32
            });
            match out {
                RunOutcome::Failed {
                    reason: FailReason::TimedOut { .. },
                    elapsed,
                } => assert!(elapsed < Duration::from_secs(5), "stall was cut short"),
                other => panic!("unexpected {other:?}"),
            }
        });
    }

    #[test]
    fn injected_kill_escapes_guards() {
        let plan = FaultPlan::parse("kill@die").expect("parse");
        let caught = std::panic::catch_unwind(|| {
            with_plan(plan, || {
                let _ = run_guarded(Limits::catching(), || {
                    fire("die");
                    0u32
                });
            })
        });
        assert!(caught.expect_err("kill escapes").is::<KillSwitch>());
        assert!(!exclusive(enabled), "plan cleared even on unwind");
    }

    #[test]
    fn corrupt_replaces_candidates_deterministically() {
        let plan = FaultPlan::parse("corrupt@bad").expect("parse");
        with_plan(plan, || {
            let mut a = CandidateSet::new();
            a.insert(crate::candidates::Pair::new(1, 2));
            corrupt_pairs("bad", &mut a);
            assert!(!a.contains(crate::candidates::Pair::new(1, 2)));
            assert!(!a.is_empty());
            let mut b = CandidateSet::new();
            corrupt_pairs("bad", &mut b);
            assert_eq!(a.to_sorted_vec(), b.to_sorted_vec());
            let mut c = CandidateSet::new();
            c.insert(crate::candidates::Pair::new(3, 4));
            corrupt_pairs("good", &mut c);
            assert!(
                c.contains(crate::candidates::Pair::new(3, 4)),
                "unmatched site untouched"
            );
        });
    }
}
