//! The shared artifact store: memoized expensive products of the
//! evaluation pipeline.
//!
//! A handful of artifacts feed many experiments — the §5.2 policy
//! [`sweep`] backs Figs. 4 and 5, the Fig. 6
//! scenario traces back four tables, and every experiment leans on the
//! trained `C(p, a)` models inside the [`Env`]. The store memoizes each
//! of them once per process, so a pipeline run never recomputes a
//! shared input, and the [runner](crate::runner) can materialize them
//! in dependency order before the experiments that consume them.
//!
//! Trained models additionally support an **opt-in on-disk cache**
//! (`JOCKEY_ARTIFACTS=<dir>`): [`Env::build_cached`] keys each job's
//! trained parts by a content hash of the scale's training
//! configuration, the training seed, and the job's graph + training
//! profile, and round-trips them through the
//! [`CpaModel::to_kv`]/[`CpaModel::from_kv`] text format (bit-identical
//! by proof test in `jockey-core`). A warm cache skips the expensive
//! `C(p, a)` retraining entirely; a corrupted or mismatched entry falls
//! back to recomputation.

use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use jockey_core::cpa::{CpaModel, TrainConfig};
use jockey_jobgraph::graph::JobGraph;
use jockey_jobgraph::profile::JobProfile;
use jockey_simrt::table::KvStore;

use crate::env::{Env, Scale};
use crate::figures::fig6::Scenario;
use crate::figures::sweep;
use crate::slo::SloOutcome;

/// Identifies one memoized shared product of the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArtifactId {
    /// The §5.2 policy sweep outcomes (backs Figs. 4 and 5).
    Sweep,
    /// The Fig. 6 adaptive-run scenario traces.
    Fig6Scenarios,
    /// The topology-scenario sweep (per-scenario SLO outcomes with
    /// scenario-retrained models).
    ScenarioSweep,
}

impl ArtifactId {
    /// Every artifact, in canonical (materialization) order.
    pub const ALL: [ArtifactId; 3] = [
        ArtifactId::Sweep,
        ArtifactId::Fig6Scenarios,
        ArtifactId::ScenarioSweep,
    ];

    /// Stable name used in logs and `--list` output.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactId::Sweep => "sweep",
            ArtifactId::Fig6Scenarios => "fig6-scenarios",
            ArtifactId::ScenarioSweep => "scenario-sweep",
        }
    }

    /// Artifacts this artifact must be materialized after. Both
    /// current artifacts derive directly from the environment; the
    /// seam exists so the runner's topological ordering stays correct
    /// when derived artifacts appear.
    pub fn needs(self) -> &'static [ArtifactId] {
        &[]
    }
}

/// Memoizes shared experiment inputs for one [`Env`].
///
/// All getters are `get_or_init`-style: the first caller computes, and
/// concurrent callers block until the value is ready. The
/// [runner](crate::runner) avoids even that wait by materializing
/// needed artifacts as their own scheduled tasks before dependent
/// experiments start.
#[derive(Default)]
pub struct ArtifactStore {
    disk: Option<PathBuf>,
    sweep: OnceLock<Arc<Vec<SloOutcome>>>,
    fig6: OnceLock<Arc<Vec<Scenario>>>,
    scenario_sweep: OnceLock<Arc<Vec<crate::figures::scenarios::ScenarioOutcomes>>>,
}

impl ArtifactStore {
    /// An in-memory store with no disk cache.
    pub fn new() -> Self {
        ArtifactStore::default()
    }

    /// A store whose trained-model cache lives under `dir`.
    pub fn with_disk(dir: PathBuf) -> Self {
        ArtifactStore {
            disk: Some(dir),
            ..ArtifactStore::default()
        }
    }

    /// Reads `JOCKEY_ARTIFACTS`: set → on-disk cache under that
    /// directory, unset → in-memory only.
    pub fn from_env() -> Self {
        match std::env::var_os("JOCKEY_ARTIFACTS") {
            Some(dir) => ArtifactStore::with_disk(PathBuf::from(dir)),
            None => ArtifactStore::new(),
        }
    }

    /// The on-disk cache directory, if enabled.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk.as_deref()
    }

    /// Computes (or returns the memoized) §5.2 policy sweep.
    pub fn sweep(&self, env: &Env) -> Arc<Vec<SloOutcome>> {
        self.sweep
            .get_or_init(|| {
                eprintln!("[jockey] running §5.2 policy sweep...");
                Arc::new(sweep::run(env))
            })
            .clone()
    }

    /// Computes (or returns the memoized) Fig. 6 scenarios.
    pub fn fig6_scenarios(&self, env: &Env) -> Arc<Vec<Scenario>> {
        self.fig6
            .get_or_init(|| Arc::new(crate::figures::fig6::run(env)))
            .clone()
    }

    /// Computes (or returns the memoized) topology-scenario sweep.
    pub fn scenario_sweep(
        &self,
        env: &Env,
    ) -> Arc<Vec<crate::figures::scenarios::ScenarioOutcomes>> {
        self.scenario_sweep
            .get_or_init(|| {
                eprintln!("[jockey] running topology-scenario sweep...");
                Arc::new(crate::figures::scenarios::sweep(env))
            })
            .clone()
    }

    /// Materializes `id` now (used by the runner to schedule artifact
    /// production as explicit DAG nodes).
    pub fn materialize(&self, id: ArtifactId, env: &Env) {
        match id {
            ArtifactId::Sweep => {
                self.sweep(env);
            }
            ArtifactId::Fig6Scenarios => {
                self.fig6_scenarios(env);
            }
            ArtifactId::ScenarioSweep => {
                self.scenario_sweep(env);
            }
        }
    }
}

/// FNV-1a over `bytes` — the workspace's standing content-hash
/// (identical to the `train_digest` example's), used for artifact
/// cache keys and emitted-output digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The expensive trained parts of one job's
/// [`JockeySetup`](jockey_core::policy::JockeySetup), as cached on
/// disk: everything else (graph, profile, indicator, budget) is
/// rebuilt cheaply from the generated job.
pub struct TrainedParts {
    /// The trained `C(p, a)` table.
    pub cpa: CpaModel,
    /// Unconstrained-run relative stage windows (`minstage-inf`).
    pub rel_inf: Vec<(f64, f64)>,
}

/// On-disk format version for cached trained models. Bump whenever the
/// serialized model's *semantics* change — e.g. the sketch-backed cell
/// storage introduced alongside online updates — so caches written by
/// an older binary can only miss, never be misread as current. The
/// version is folded into [`train_cache_key`] (old keys stop resolving)
/// *and* stamped into each entry (a same-key file written by a
/// different format is rejected on load).
pub const MODEL_FORMAT_VERSION: u32 = 2;

/// Content-hash cache key for one job's training artifacts: covers the
/// model format version, the scale, the full training configuration,
/// the training seed, and the job's identity (name, plan graph,
/// training profile). Any drift in job generation or training setup
/// changes the key, so a stale cache can only miss, never poison.
pub fn train_cache_key(
    scale: Scale,
    cfg: &TrainConfig,
    train_seed: u64,
    job_name: &str,
    graph: &JobGraph,
    profile: &JobProfile,
) -> u64 {
    let mut canon = String::new();
    canon.push_str(&format!("format={MODEL_FORMAT_VERSION}\n"));
    canon.push_str(&format!("scale={scale:?}\n"));
    canon.push_str(&format!("allocations={:?}\n", cfg.allocations));
    canon.push_str(&format!("sketch={:?}\n", cfg.sketch_capacity));
    canon.push_str(&format!("runs={}\n", cfg.runs_per_allocation));
    canon.push_str(&format!("sample_ms={}\n", cfg.sample_period.as_millis()));
    canon.push_str(&format!("bins={}\n", cfg.progress_bins));
    canon.push_str(&format!("percentile={}\n", cfg.percentile));
    canon.push_str(&format!("horizon_ms={}\n", cfg.max_sim_time.as_millis()));
    // Only topology-trained models add a line, so keys for the flat
    // default stay byte-identical to caches written before topologies
    // existed. Speculation-trained `C(p, a, s)` surfaces likewise get
    // their own keyspace without disturbing plain `C(p, a)` caches.
    if let Some(topo) = &cfg.topology {
        canon.push_str(&format!("topology={topo:?}\n"));
    }
    if let Some(sp) = &cfg.speculation {
        canon.push_str(&format!("speculation={sp:?}\n"));
    }
    canon.push_str(&format!("seed={train_seed:016x}\n"));
    canon.push_str(&format!("job={job_name}\n"));
    // The graph and profile are folded in via their canonical text
    // renderings (Graphviz and key=value respectively).
    canon.push_str(&format!(
        "graph={:016x}\n",
        fnv1a(jockey_jobgraph::dot::to_dot(graph).as_bytes())
    ));
    canon.push_str(&format!(
        "profile={:016x}\n",
        fnv1a(profile.to_kv().to_text().as_bytes())
    ));
    fnv1a(canon.as_bytes())
}

/// Cache file path for a key.
fn cache_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("cpa-{key:016x}.kv"))
}

/// Loads cached trained parts for `key`, or `None` if the entry is
/// missing, keyed differently, or corrupted in any way (the caller
/// falls back to retraining).
pub fn load_trained(dir: &Path, key: u64) -> Option<TrainedParts> {
    let kv = KvStore::read(&cache_path(dir, key)).ok()?;
    if kv.get("key")? != format!("{key:016x}") {
        return None;
    }
    if kv.get("format")? != MODEL_FORMAT_VERSION.to_string() {
        return None;
    }
    let starts = kv.get_f64_list("rel_inf.start")?;
    let ends = kv.get_f64_list("rel_inf.end")?;
    if starts.len() != ends.len() {
        return None;
    }
    let cpa = CpaModel::from_kv(&kv).ok()?;
    Some(TrainedParts {
        cpa,
        rel_inf: starts.into_iter().zip(ends).collect(),
    })
}

/// Writes trained parts to the cache (best-effort: a failed write is
/// reported on stderr and otherwise ignored — the cache is an
/// optimization, never a correctness dependency).
pub fn store_trained(dir: &Path, key: u64, parts: &TrainedParts) {
    let mut kv = parts.cpa.to_kv();
    kv.set("key", &format!("{key:016x}"));
    kv.set("format", &MODEL_FORMAT_VERSION.to_string());
    let (starts, ends): (Vec<f64>, Vec<f64>) = parts.rel_inf.iter().copied().unzip();
    kv.set_f64_list("rel_inf.start", &starts);
    kv.set_f64_list("rel_inf.end", &ends);
    let path = cache_path(dir, key);
    if let Err(e) = kv.write(&path) {
        eprintln!(
            "[jockey] warning: cannot write artifact cache {}: {e}",
            path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn artifact_ids_have_unique_names() {
        let names: Vec<&str> = ArtifactId::ALL.iter().map(|a| a.name()).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len());
    }

    #[test]
    fn store_memoizes_sweep() {
        let env = Env::build(Scale::Smoke, 3);
        let store = ArtifactStore::new();
        let a = store.sweep(&env);
        let b = store.sweep(&env);
        // Same allocation: the second call returned the memoized Arc.
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 3 * 2 * 4);
    }

    #[test]
    fn missing_cache_dir_is_a_miss() {
        assert!(load_trained(Path::new("/nonexistent-jockey-cache"), 7).is_none());
    }
}
