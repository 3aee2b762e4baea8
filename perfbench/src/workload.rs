//! The benchmark's workloads and the two ways of running them.
//!
//! * The **untraced** run is what a user of a figure binary waits for: a
//!   fresh [`MatrixCache`], inputs built on the worker pool, every cell
//!   simulated through [`try_run_matrix_with`], the figures rendered with
//!   [`hytlb_sim::report`], and the result checked.
//! * The **traced** run simulates the same cells by calling each layer's
//!   public functions itself, one pool phase per layer, and charges every
//!   call to a [`Ledger`] span. Its per-layer busy times plus the workers'
//!   idle time account for the phases' wall time.

use crate::check::{cell_digests, check_cache, check_suites, fnv1a, Golden, Verdict};
use crate::ledger::{pool, Ledger, Stopwatch};
use hytlb_core::{AnchorConfig, AnchorScheme};
use hytlb_mem::{AddressSpaceMap, PageIndex, Scenario};
use hytlb_schemes::TranslationScheme;
use hytlb_sim::experiment::{mapping_for, trace_for, SuiteResult, WorkloadRow};
use hytlb_sim::matrix::{try_run_matrix_with, worker_count, CacheStats};
use hytlb_sim::report::{
    cpi_table, distance_table, l2_breakdown_table, relative_miss_table, render_table, suite_bars,
    try_to_json,
};
use hytlb_sim::{Machine, MatrixCache, PaperConfig, RunStats, SchemeKind, SimError};
use hytlb_trace::WorkloadKind;
use hytlb_tracefile::TraceStore;
use hytlb_types::VirtAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// The seed the golden digests were recorded at (the simulator's default).
pub const DEFAULT_SEED: u64 = 42;

/// Column of the paper's `Dynamic` scheme in [`SchemeKind::paper_set`].
const DYNAMIC: usize = 5;

/// Accesses per `access_batch` call when driving the anchor scheme
/// directly (the engine's chunk size).
const CORE_CHUNK: u64 = 4096;

/// One benchmark workload: a slice of the evaluation matrix at a fixed
/// input scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figures 7–9 exactly as the figure binaries run them at `--quick`
    /// scale: 6 scenarios × 14 workloads × (6 paper schemes + the 5-point
    /// static-distance sweep).
    FiguresQuick,
    /// Paper-scale footprints (8 GB for gups/graph500) with short traces:
    /// mapping generation and scheme construction dominate.
    PaperFootprint,
    /// Five large-footprint workloads under `low` and `demand`, 1 M
    /// accesses each, replayed from a freshly recorded trace corpus: the
    /// page-walk path, the trace-file layer and the anchor OS's epochs.
    WalkBound,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::FiguresQuick, Workload::PaperFootprint, Workload::WalkBound];

    /// The name used on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::FiguresQuick => "figures-quick",
            Workload::PaperFootprint => "paper-footprint",
            Workload::WalkBound => "walk-bound",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The golden digests of every cell at [`DEFAULT_SEED`].
    #[must_use]
    pub fn golden_text(self) -> &'static str {
        match self {
            Workload::FiguresQuick => include_str!("../golden/figures-quick.txt"),
            Workload::PaperFootprint => include_str!("../golden/paper-footprint.txt"),
            Workload::WalkBound => include_str!("../golden/walk-bound.txt"),
        }
    }

    /// The matrix this workload runs with `seed` on `threads` workers.
    #[must_use]
    pub fn matrix(self, seed: u64, threads: usize) -> Matrix {
        let base = PaperConfig { seed, threads: Some(threads), ..PaperConfig::default() };
        let mut kinds = SchemeKind::paper_set().to_vec();
        let (config, scenarios, workloads, sweep) = match self {
            Workload::FiguresQuick => {
                let sweep = hytlb_bench::figure_static_sweep();
                kinds.extend(sweep.iter().map(|&d| SchemeKind::AnchorStatic(d)));
                let config = PaperConfig { accesses: 200_000, footprint_shift: 4, ..base };
                (config, Scenario::all().to_vec(), WorkloadKind::all().to_vec(), sweep.len())
            }
            Workload::PaperFootprint => {
                let config = PaperConfig { accesses: 20_000, footprint_shift: 0, ..base };
                (config, Scenario::all().to_vec(), WorkloadKind::all().to_vec(), 0)
            }
            Workload::WalkBound => {
                let config = PaperConfig { accesses: 1_000_000, footprint_shift: 2, ..base };
                let workloads = vec![
                    WorkloadKind::Gups,
                    WorkloadKind::Graph500,
                    WorkloadKind::Mcf,
                    WorkloadKind::Mummer,
                    WorkloadKind::Tigr,
                ];
                (config, vec![Scenario::LowContiguity, Scenario::DemandPaging], workloads, 0)
            }
        };
        Matrix { workload: self, config, scenarios, workloads, kinds, sweep }
    }
}

/// A concrete matrix: scenarios × workloads × scheme kinds under one
/// configuration.
#[derive(Debug, Clone)]
pub struct Matrix {
    /// The workload this matrix belongs to.
    pub workload: Workload,
    /// Input scale, seed and worker count.
    pub config: PaperConfig,
    /// Mapping scenarios.
    pub scenarios: Vec<Scenario>,
    /// Benchmark programs.
    pub workloads: Vec<WorkloadKind>,
    /// Scheme of every cell column: the paper set, then any sweep points.
    pub kinds: Vec<SchemeKind>,
    /// Trailing sweep columns folded into a `Static Ideal` column.
    pub sweep: usize,
}

/// One untraced run of a matrix.
#[derive(Debug)]
pub struct Untraced {
    /// Fresh cache until every cell's inputs are ready.
    pub setup_s: f64,
    /// Fresh cache until the last suite is rendered and checked.
    pub wall_s: f64,
    /// The correctness check.
    pub verdict: Verdict,
    /// The input cache's counters at the end.
    pub cache: CacheStats,
    /// The simulated results, when every cell succeeded.
    pub suites: Option<Vec<SuiteResult>>,
}

/// One traced run of a matrix.
#[derive(Debug)]
pub struct Traced {
    /// Wall time of the phases that do the untraced run's work.
    pub wall_s: f64,
    /// Wall time of every phase, including the anchor-OS re-drive.
    pub phase_wall_s: f64,
    /// Per-layer spans and counts.
    pub ledger: Ledger,
    /// The correctness check.
    pub verdict: Verdict,
    /// The simulated results, when every cell succeeded.
    pub suites: Option<Vec<SuiteResult>>,
}

/// A directory removed (with its contents) when dropped.
pub struct TempDir(pub PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fresh_dir(parent: &Path, name: &str) -> Result<TempDir, String> {
    let dir = TempDir(parent.join(name));
    let _ = std::fs::remove_dir_all(&dir.0);
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("{}: {e}", dir.0.display()))?;
    Ok(dir)
}

/// A failed run: every cell counts as attempted and failed.
fn all_failed(cells: usize, problem: String) -> Verdict {
    Verdict { attempted: cells as u64, failed: cells as u64, problems: vec![problem] }
}

/// Scheme bucket used in per-scheme metric names.
#[must_use]
pub fn scheme_slug(kind: SchemeKind) -> &'static str {
    match kind {
        SchemeKind::Baseline => "base",
        SchemeKind::Thp => "thp",
        SchemeKind::Thp1G => "thp1g",
        SchemeKind::Cluster => "cluster",
        SchemeKind::Cluster2Mb => "cluster-2mb",
        SchemeKind::Colt => "colt",
        SchemeKind::Rmm => "rmm",
        SchemeKind::AnchorDynamic => "dynamic",
        SchemeKind::AnchorStatic(_) => "static-sweep",
        SchemeKind::AnchorMultiRegion(_) => "multi-region",
    }
}

impl Matrix {
    /// Worker threads, as the simulator's matrix pool resolves them.
    #[must_use]
    pub fn threads(&self) -> usize {
        worker_count(&self.config)
    }

    /// Cells per run.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.scenarios.len() * self.workloads.len() * self.kinds.len()
    }

    /// Simulated accesses per run.
    #[must_use]
    pub fn simulated_accesses(&self) -> u64 {
        self.cells() as u64 * self.config.accesses
    }

    fn uses_corpus(&self) -> bool {
        self.workload == Workload::WalkBound
    }

    /// The exact input-cache counters a run must end with: every mapping
    /// and resolved trace built once, and every trace either generated
    /// once or (with a corpus) loaded once.
    #[must_use]
    pub fn expected_cache(&self) -> CacheStats {
        let keys = self.scenarios.len() * self.workloads.len();
        let traces = self.workloads.len();
        let corpus = self.uses_corpus();
        CacheStats {
            mapping_builds: keys,
            trace_builds: if corpus { 0 } else { traces },
            trace_loads: if corpus { traces } else { 0 },
            resolved_builds: keys,
        }
    }

    /// The golden record, when this matrix runs at the seed it was
    /// recorded at.
    pub fn golden(&self) -> Result<Option<Golden>, String> {
        if self.config.seed != DEFAULT_SEED {
            return Ok(None);
        }
        Golden::parse(self.workload.golden_text()).map(Some)
    }

    /// Header line of this matrix's golden file.
    #[must_use]
    pub fn golden_header(&self) -> String {
        format!(
            "perfbench golden digests: workload {}, seed {}, config fingerprint {:016x}, {} cells",
            self.workload.name(),
            self.config.seed,
            self.config.fingerprint(),
            self.cells()
        )
    }

    fn keys(&self) -> Vec<(usize, usize)> {
        (0..self.scenarios.len())
            .flat_map(|s| (0..self.workloads.len()).map(move |w| (s, w)))
            .collect()
    }

    /// Folds the sweep columns into one `Static Ideal` column (fewest
    /// walks, first minimum wins), as the figure binaries do.
    #[must_use]
    pub fn figure_suites(&self, suites: &[SuiteResult]) -> Vec<SuiteResult> {
        let paper = self.kinds.len() - self.sweep;
        let mut out = suites.to_vec();
        if self.sweep == 0 {
            return out;
        }
        for suite in &mut out {
            suite.schemes.truncate(paper);
            suite.schemes.push("Static Ideal".to_owned());
            for row in &mut suite.rows {
                let best = row.runs.split_off(paper).into_iter().min_by_key(RunStats::tlb_misses);
                row.runs.extend(best);
            }
        }
        out
    }

    /// Renders every figure and table the matrix feeds: per-scenario
    /// relative misses, CPI stacks, L2 breakdowns of `Dynamic`, the
    /// Figure 9 means, the Table 6 distances, and the JSON archive.
    pub fn render(&self, suites: &[SuiteResult]) -> Result<String, SimError> {
        let figures = self.figure_suites(suites);
        let mut text = String::new();
        for suite in &figures {
            text.push_str(&relative_miss_table(suite));
            text.push_str(&cpi_table(suite));
            text.push_str(&l2_breakdown_table(suite, DYNAMIC));
            text.push_str(&suite_bars(suite));
        }
        let cols = figures.first().map(|s| s.schemes.clone()).unwrap_or_default();
        let rows: Vec<(String, Vec<String>)> = figures
            .iter()
            .map(|s| {
                let means = s.mean_relative_misses().iter().map(|m| format!("{m:.1}")).collect();
                (s.scenario.label().to_owned(), means)
            })
            .collect();
        text.push_str(&render_table("mean rel. misses %", &cols, &rows));
        let refs: Vec<&SuiteResult> = figures.iter().collect();
        text.push_str(&distance_table(&refs, DYNAMIC)?);
        text.push_str(&try_to_json(&figures)?);
        Ok(text)
    }

    /// Renders and checks a complete result against the invariants and,
    /// at the default seed, the golden record, charging the two steps to
    /// `report.render_s` and `bench.check_s`.
    pub fn check(
        &self,
        suites: &[SuiteResult],
        golden: Option<&Golden>,
        l: &mut Ledger,
    ) -> Verdict {
        match l.span("report.render_s", || self.render(suites)) {
            Ok(text) => l.span("bench.check_s", || {
                check_suites(suites, self.config.accesses, golden, fnv1a(text.as_bytes()))
            }),
            Err(e) => all_failed(self.cells(), format!("rendering failed: {e}")),
        }
    }

    /// The golden file for a complete result.
    pub fn golden_file(&self, suites: &[SuiteResult]) -> Result<String, SimError> {
        let render = fnv1a(self.render(suites)?.as_bytes());
        Ok(Golden::to_text(&self.golden_header(), &cell_digests(suites), render))
    }

    /// Builds the input cache: a fresh one, or — for `walk-bound` — one
    /// replaying a corpus freshly recorded into `corpus_dir`.
    fn fresh_cache(&self, corpus_dir: Option<&Path>) -> Result<MatrixCache, String> {
        let Some(dir) = corpus_dir else { return Ok(MatrixCache::new()) };
        let mut store = TraceStore::open_or_create(dir).map_err(|e| e.to_string())?;
        MatrixCache::new()
            .spill_traces(&mut store, &self.workloads, &self.config)
            .map_err(|e| e.to_string())?;
        Ok(MatrixCache::with_corpus(Arc::new(store)))
    }

    /// One untraced run. `scratch` holds the temporary trace corpus.
    pub fn run_untraced(&self, scratch: &Path, golden: Option<&Golden>) -> Untraced {
        let corpus = if self.uses_corpus() {
            match fresh_dir(scratch, "corpus") {
                Ok(dir) => Some(dir),
                Err(e) => return self.failed_untraced(e),
            }
        } else {
            None
        };
        let clock = Stopwatch::start();
        let cache = match self.fresh_cache(corpus.as_ref().map(|d| d.0.as_path())) {
            Ok(cache) => cache,
            Err(e) => return self.failed_untraced(format!("corpus: {e}")),
        };
        // Build every cell's inputs on the pool. Failures are memoized by
        // the cache and resurface as named cell errors below.
        let keys = self.keys();
        pool(self.threads(), &keys, |&(s, w), _| {
            let _ = cache.try_resolved_trace(self.workloads[w], self.scenarios[s], &self.config);
        });
        let setup_s = clock.seconds();
        let result = try_run_matrix_with(
            &cache,
            &self.scenarios,
            &self.workloads,
            &self.kinds,
            &self.config,
        );
        let mut verdict = match &result {
            Ok(suites) => self.check(suites, golden, &mut Ledger::default()),
            Err(e) => all_failed(self.cells(), e.to_string()),
        };
        verdict.problems.extend(check_cache(cache.stats(), self.expected_cache()));
        let wall_s = clock.seconds();
        drop(corpus);
        Untraced { setup_s, wall_s, verdict, cache: cache.stats(), suites: result.ok() }
    }

    fn failed_untraced(&self, problem: String) -> Untraced {
        Untraced {
            setup_s: 0.0,
            wall_s: 0.0,
            verdict: all_failed(self.cells(), problem),
            cache: CacheStats::default(),
            suites: None,
        }
    }

    /// One traced run. `scratch` holds the temporary trace corpus.
    pub fn run_traced(&self, scratch: &Path, golden: Option<&Golden>) -> Traced {
        let config = &self.config;
        let threads = self.threads();
        let mut ledger = Ledger::default();
        let mut wall_s = 0.0;
        let mut phase = |(wall, l): (f64, Ledger)| {
            wall_s += wall;
            ledger.merge(l);
        };
        let windex: Vec<usize> = (0..self.workloads.len()).collect();
        let traces: Vec<OnceLock<Result<Vec<u64>, String>>> =
            windex.iter().map(|_| OnceLock::new()).collect();

        // Traces: generated, or recorded into a fresh corpus and decoded
        // back from it.
        let corpus = if self.uses_corpus() { Some(fresh_dir(scratch, "corpus")) } else { None };
        match &corpus {
            None => phase(pool(threads, &windex, |&w, l| {
                let trace = l.span("trace.generate_s", || trace_for(self.workloads[w], config));
                l.count("trace.generated_accesses", trace.len() as f64);
                let _ = traces[w].set(Ok(trace));
            })),
            Some(Err(e)) => {
                for slot in &traces {
                    let _ = slot.set(Err(e.clone()));
                }
            }
            Some(Ok(dir)) => {
                let store = OnceLock::new();
                phase(pool(threads, &[()], |_, l| {
                    let _ = store.set(self.record_corpus(&dir.0, l));
                }));
                let store = store.into_inner().expect("record phase ran");
                phase(pool(threads, &windex, |&w, l| {
                    let workload = self.workloads[w];
                    let loaded = l.span("tracefile.decode_s", || match &store {
                        Ok(store) => store
                            .load_prefix(
                                workload.label(),
                                config.footprint_for(workload),
                                config.seed,
                                config.accesses,
                            )
                            .map_err(|e| e.to_string())
                            .and_then(|t| t.ok_or_else(|| "trace missing from corpus".to_owned())),
                        Err(e) => Err(e.clone()),
                    });
                    if let Ok(t) = &loaded {
                        l.count("tracefile.decoded_accesses", t.len() as f64);
                    }
                    let _ = traces[w].set(loaded);
                }));
            }
        }

        // Mappings, page indexes and resolved traces, one job per
        // (scenario, workload).
        let keys = self.keys();
        let inputs: Vec<OnceLock<CellInputs>> = keys.iter().map(|_| OnceLock::new()).collect();
        phase(pool(threads, &keys, |&(s, w), l| {
            let (scenario, workload) = (self.scenarios[s], self.workloads[w]);
            let map = l.span("mem.mapping_s", || mapping_for(workload, scenario, config));
            l.count("mem.mappings", 1.0);
            l.count("mem.mapped_pages", map.mapped_pages() as f64);
            l.count("mem.chunks", map.chunk_count() as f64);
            let index = Arc::new(l.span("mem.page_index_s", || map.page_index()));
            let resolved = match traces[w].get().expect("trace phase ran") {
                Ok(trace) => Ok(Arc::new(l.span("mem.resolve_s", || index.resolve(trace)))),
                Err(e) => Err(e.clone()),
            };
            let _ = inputs[s * self.workloads.len() + w].set(CellInputs { map, index, resolved });
        }));

        // Cells: scheme construction plus the batched hot loop.
        let cells: Vec<usize> = (0..self.cells()).collect();
        let runs: Vec<OnceLock<Result<RunStats, String>>> =
            cells.iter().map(|_| OnceLock::new()).collect();
        phase(pool(threads, &cells, |&cell, l| {
            let (key, k) = (cell / self.kinds.len(), cell % self.kinds.len());
            let input = inputs[key].get().expect("input phase ran");
            let slug = scheme_slug(self.kinds[k]);
            let clock = Stopwatch::start();
            let run = input.resolved.clone().and_then(|resolved| {
                let t = Stopwatch::start();
                let mut machine =
                    Machine::for_scheme_indexed(self.kinds[k], &input.map, &input.index, config);
                l.charge(&format!("sim.machine_build_s.{slug}"), t.seconds());
                let t = Stopwatch::start();
                let run = machine.try_run_resolved(&resolved).map_err(|e| e.to_string());
                l.charge(&format!("sim.hot_loop_s.{slug}"), t.seconds());
                run
            });
            l.cell_s.push(clock.seconds());
            let _ = runs[cell].set(run);
        }));

        // Assemble, render and check.
        let runs: Vec<Result<RunStats, String>> =
            runs.into_iter().map(|r| r.into_inner().expect("cell phase ran")).collect();
        let checked = OnceLock::new();
        phase(pool(threads, &[()], |_, l| {
            let _ = checked.set(self.check_traced(&runs, golden, l));
        }));
        let (mut verdict, suites) = checked.into_inner().expect("report phase ran");

        // The anchor OS, driven directly, wherever a cell reaches an epoch.
        let mut phase_wall_s = wall_s;
        if config.accesses >= config.epoch_accesses() {
            let dynamic: Vec<usize> = (0..keys.len()).collect();
            let problems = std::sync::Mutex::new(Vec::new());
            let (wall, l) = pool(threads, &dynamic, |&key, l| {
                let cell = key * self.kinds.len() + DYNAMIC;
                let engine = runs[cell].as_ref().ok();
                let input = inputs[key].get().expect("input phase ran");
                if let Some(p) = self.drive_anchor(input, engine, l) {
                    let (s, w) = keys[key];
                    problems.lock().expect("problem list poisoned").push(format!(
                        "{}/{}/Dynamic: {p}",
                        self.scenarios[s].label(),
                        self.workloads[w].label()
                    ));
                }
            });
            phase_wall_s += wall;
            ledger.merge(l);
            verdict.problems.extend(problems.into_inner().expect("problem list poisoned"));
        }
        drop(corpus);
        Traced { wall_s, phase_wall_s, ledger, verdict, suites }
    }

    /// Records every trace into a fresh store: generation feeds the
    /// recorder, and the two are charged to their own layers.
    fn record_corpus(&self, dir: &Path, l: &mut Ledger) -> Result<TraceStore, String> {
        let mut store = TraceStore::open_or_create(dir).map_err(|e| e.to_string())?;
        for &workload in &self.workloads {
            let trace = l.span("trace.generate_s", || trace_for(workload, &self.config));
            l.count("trace.generated_accesses", trace.len() as f64);
            let summary = l.span("tracefile.record_s", || {
                store.record(
                    workload.label(),
                    self.config.footprint_for(workload),
                    self.config.seed,
                    trace.iter().copied(),
                )
            });
            l.count("tracefile.bytes_written", summary.map_err(|e| e.to_string())?.bytes as f64);
        }
        Ok(store)
    }

    /// Assembles the traced cells into suites, then renders and checks
    /// them like an untraced run.
    fn check_traced(
        &self,
        runs: &[Result<RunStats, String>],
        golden: Option<&Golden>,
        l: &mut Ledger,
    ) -> (Verdict, Option<Vec<SuiteResult>>) {
        let failures: Vec<String> = runs.iter().filter_map(|r| r.as_ref().err().cloned()).collect();
        if !failures.is_empty() {
            let verdict = Verdict {
                attempted: runs.len() as u64,
                failed: failures.len() as u64,
                problems: failures,
            };
            return (verdict, None);
        }
        let mut runs = runs.iter().flatten().cloned();
        let suites: Vec<SuiteResult> = self
            .scenarios
            .iter()
            .map(|&scenario| SuiteResult {
                scenario,
                schemes: self.kinds.iter().map(|k| k.label()).collect(),
                rows: self
                    .workloads
                    .iter()
                    .map(|&workload| WorkloadRow {
                        workload,
                        runs: runs.by_ref().take(self.kinds.len()).collect(),
                    })
                    .collect(),
            })
            .collect();
        (self.check(&suites, golden, l), Some(suites))
    }

    /// Drives the `Dynamic` scheme of one cell through
    /// `AnchorScheme::access_batch` / `on_epoch`, cutting chunks at the
    /// engine's epoch boundaries, and checks that it ends with the engine
    /// cell's statistics.
    fn drive_anchor(
        &self,
        input: &CellInputs,
        engine: Option<&RunStats>,
        l: &mut Ledger,
    ) -> Option<String> {
        let (Ok(resolved), Some(engine)) = (&input.resolved, engine) else {
            return Some("no engine result to compare with".to_owned());
        };
        let config = AnchorConfig { latency: self.config.latency, ..AnchorConfig::dynamic() };
        let mut scheme =
            l.span("core.build_s", || AnchorScheme::new(Arc::clone(&input.map), config));
        let epoch = self.config.epoch_accesses();
        let (mut pos, mut since_epoch, mut epochs) = (0usize, 0u64, 0u64);
        while pos < resolved.len() {
            let take = CORE_CHUNK.min((resolved.len() - pos) as u64).min(epoch - since_epoch);
            let end = pos + usize::try_from(take).expect("chunk fits in memory");
            let batch: &[VirtAddr] = &resolved[pos..end];
            if let Err(f) = l.span("core.access_s", || scheme.access_batch(batch)) {
                return Some(format!("fault at {:?}", f.vaddr));
            }
            pos = end;
            since_epoch += take;
            if since_epoch == epoch {
                l.span("core.epoch_s", || scheme.on_epoch());
                since_epoch = 0;
                epochs += 1;
            }
        }
        l.count("core.epochs", scheme.os().epochs() as f64);
        l.count("core.distance_changes", scheme.os().distance_changes() as f64);
        l.count("core.shootdowns", scheme.shootdowns() as f64);
        if scheme.os().epochs() != epochs {
            return Some(format!("OS counted {} epochs, driver {epochs}", scheme.os().epochs()));
        }
        let same =
            *scheme.stats() == engine.stats && Some(scheme.distance()) == engine.anchor_distance;
        (!same).then(|| "direct anchor-scheme drive disagrees with the engine cell".to_owned())
    }
}

/// A cell's shared inputs in the traced run.
struct CellInputs {
    map: Arc<AddressSpaceMap>,
    index: Arc<PageIndex>,
    resolved: Result<Arc<Vec<VirtAddr>>, String>,
}
