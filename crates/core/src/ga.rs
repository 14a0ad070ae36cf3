//! Genetic-algorithm placement (§III-C of the paper).
//!
//! Individuals are complete placements `I = (DBC_1, …, DBC_q)`; fitness is
//! the shift cost of the placement. The paper's configuration:
//!
//! * µ + λ evolution with µ = λ = 100;
//! * tournament selection of size 4;
//! * a 2-fold crossover that swaps the DBC membership of a contiguous range
//!   of variables (in first-appearance order) between two parents while
//!   preserving intra-DBC orders of untouched variables;
//! * three mutations, chosen with weights 10 : 10 : 3 — move a variable to
//!   another DBC (appended at the tail), transpose two variables within one
//!   DBC, randomly permute every DBC;
//! * 200 generations for the main evaluation, 2000 for the optimality-gap
//!   study;
//! * the initial population is seeded with heuristic placements ("our
//!   heuristic result as initial population") plus random individuals.

use crate::cost::CostModel;
use crate::error::PlacementError;
use crate::eval::{DirtyMask, EvalJob, FitnessEngine};
use crate::inter::{check_fit, Dma, InterHeuristic};
use crate::placement::Placement;
use crate::search::{Budget, RaceControl, SearchOutcome, StopCause};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rtm_trace::{AccessSequence, VarId};

/// Configuration of the genetic algorithm.
///
/// [`GaConfig::paper`] reproduces §III-C; [`GaConfig::quick`] is a reduced
/// budget for tests and smoke runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaConfig {
    /// Population size µ.
    pub mu: usize,
    /// Offspring per generation λ.
    pub lambda: usize,
    /// Tournament size for parent and survivor selection.
    pub tournament: usize,
    /// Number of generations.
    pub generations: usize,
    /// Probability that an offspring is produced by crossover (otherwise it
    /// is a mutated copy of one parent). The paper does not give this rate;
    /// 0.9 is the customary choice and is documented in `DESIGN.md`.
    pub crossover_rate: f64,
    /// Probability that an offspring is additionally mutated.
    pub mutation_rate: f64,
    /// RNG seed (the GA is fully deterministic given the seed).
    pub seed: u64,
    /// Seed the initial population with the DMA and AFD heuristic results.
    pub seed_with_heuristics: bool,
}

impl GaConfig {
    /// The paper's configuration: µ = λ = 100, tournament 4, 200
    /// generations.
    pub fn paper() -> Self {
        Self {
            mu: 100,
            lambda: 100,
            tournament: 4,
            generations: 200,
            crossover_rate: 0.9,
            mutation_rate: 0.4,
            seed: 0xDA7E_2020,
            seed_with_heuristics: true,
        }
    }

    /// A small budget for unit tests and `--quick` experiment runs.
    pub fn quick() -> Self {
        Self {
            mu: 24,
            lambda: 24,
            generations: 40,
            ..Self::paper()
        }
    }

    /// Returns the config with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the config with a different generation count (the paper uses
    /// 2000 for its optimality-gap study).
    pub fn with_generations(mut self, generations: usize) -> Self {
        self.generations = generations;
        self
    }

    /// Upper bound on fitness evaluations: `(µ + λ·generations)`.
    ///
    /// The paper sizes its random-walk budget (60 000) as "the upper bound
    /// on the number of individuals that could be evaluated by GA".
    pub fn max_evaluations(&self) -> usize {
        self.mu + self.lambda * self.generations
    }
}

impl Default for GaConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Result of a GA run: the best placement found, its cost, and the
/// per-generation best-fitness history (for convergence plots).
#[derive(Debug, Clone)]
pub struct GaOutcome {
    /// Best placement found over the whole run.
    pub best: Placement,
    /// Its shift cost.
    pub best_cost: u64,
    /// Best fitness after each generation (length = `generations + 1`,
    /// entry 0 is the initial population's best).
    pub history: Vec<u64>,
    /// Total fitness evaluations performed.
    pub evaluations: usize,
    /// Evaluations performed when the best placement was first reached.
    pub evals_at_best: usize,
    /// Wall time from run start to the first sighting of the best.
    pub time_to_best: std::time::Duration,
    /// Total wall time of the run.
    pub elapsed: std::time::Duration,
    /// Why the run stopped (fixed-generation runs report
    /// [`StopCause::Finished`]).
    pub stop: StopCause,
}

/// A GA run as the anytime solvers report theirs (the `history` is
/// dropped): how a portfolio GA lane and a standalone GA solve report.
impl From<GaOutcome> for SearchOutcome {
    fn from(out: GaOutcome) -> Self {
        Self {
            placement: out.best,
            cost: out.best_cost,
            evals: out.evaluations as u64,
            evals_at_best: out.evals_at_best as u64,
            time_to_best: out.time_to_best,
            elapsed: out.elapsed,
            stop: out.stop,
        }
    }
}

/// One individual: per-DBC ordered variable lists plus cached per-DBC and
/// total fitness (the per-DBC costs are what makes offspring evaluation
/// incremental — unchanged DBCs inherit them).
#[derive(Debug, Clone)]
struct Individual {
    dbcs: Vec<Vec<VarId>>,
    dbc_costs: Vec<u64>,
    cost: u64,
}

impl Individual {
    fn from_job(job: EvalJob) -> Self {
        let cost = job.total();
        Self {
            dbcs: job.lists,
            dbc_costs: job.dbc_costs,
            cost,
        }
    }
}

/// The genetic-algorithm solver.
#[derive(Debug, Clone)]
pub struct GeneticPlacer {
    config: GaConfig,
    cost: CostModel,
    subarrays: usize,
}

impl GeneticPlacer {
    /// Creates a solver with the given configuration and the default
    /// single-port cost model.
    pub fn new(config: GaConfig) -> Self {
        Self {
            config,
            cost: CostModel::single_port(),
            subarrays: 1,
        }
    }

    /// Overrides the cost model (e.g. multi-port).
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Declares the hierarchical geometry: the run's DBCs are grouped into
    /// `subarrays` equal subarrays, and the mutation mix gains a fourth,
    /// *subarray-migrate* operator (move a variable into a DBC of a
    /// different subarray; weights 10 : 10 : 3 : 6) that keeps
    /// inter-subarray redistribution alive near full capacity, where the
    /// uniform move mutation mostly lands on full DBCs.
    ///
    /// With `subarrays <= 1` (or a DBC count not divisible by it) the run
    /// is **bit-identical** to the flat GA: the extra operator and its RNG
    /// draws only exist for a real hierarchy.
    pub fn with_subarrays(mut self, subarrays: usize) -> Self {
        self.subarrays = subarrays.max(1);
        self
    }

    /// Runs the GA on `seq` for `dbcs` DBCs of `capacity` locations.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] if the variables cannot fit the geometry.
    pub fn run(
        &self,
        seq: &AccessSequence,
        dbcs: usize,
        capacity: usize,
    ) -> Result<GaOutcome, PlacementError> {
        self.run_seeded(seq, dbcs, capacity, &[])
    }

    /// Like [`run`](Self::run), but additionally seeds the initial
    /// population with the given placements (the paper seeds the GA with
    /// "our heuristic result"; the evaluation harness passes all four
    /// composite heuristic solutions).
    ///
    /// Invalid seeds (wrong DBC count or overflowing a DBC) are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] if the variables cannot fit the geometry.
    pub fn run_seeded(
        &self,
        seq: &AccessSequence,
        dbcs: usize,
        capacity: usize,
        seeds: &[Placement],
    ) -> Result<GaOutcome, PlacementError> {
        let engine = FitnessEngine::new(seq, self.cost);
        self.run_with_engine(&engine, dbcs, capacity, seeds)
    }

    /// Like [`run_seeded`](Self::run_seeded), but evaluating through a
    /// caller-owned [`FitnessEngine`] (whose trace and cost model are used) —
    /// lets the caller pick the evaluation mode and read
    /// [`FitnessEngine::stats`] afterwards.
    ///
    /// The outcome is bit-identical for every engine mode: evaluation never
    /// touches the RNG, per-DBC costs are pure functions of list content,
    /// and batch results are written to per-offspring slots in generation
    /// order.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] if the variables cannot fit the geometry.
    pub fn run_with_engine(
        &self,
        engine: &FitnessEngine<'_>,
        dbcs: usize,
        capacity: usize,
        seeds: &[Placement],
    ) -> Result<GaOutcome, PlacementError> {
        let vars = engine.accessed_vars(); // first-appearance order, as §III-C indexes V
        check_fit(vars.len(), dbcs, capacity)?;
        // DBCs per subarray for the hierarchical mutation mix; a flat run
        // (one subarray, or an indivisible DBC count) is encoded as
        // `q == dbcs` and takes exactly the historical RNG path.
        let q = if self.subarrays > 1 && dbcs.is_multiple_of(self.subarrays) {
            dbcs / self.subarrays
        } else {
            dbcs
        };
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let mut evaluations = 0usize;
        let start = std::time::Instant::now();

        // ---- Initial population -------------------------------------------
        // Candidates are generated first (RNG order unchanged from the
        // sequential implementation), then costed as one batch.
        let mut initial = self.initial_jobs(engine, dbcs, capacity, vars, seeds, &mut rng);
        evaluations += initial.len();
        engine.evaluate_batch(&mut initial);
        let mut population: Vec<Individual> =
            initial.into_iter().map(Individual::from_job).collect();

        let Some(seed_best) = population.iter().min_by_key(|i| i.cost) else {
            return Err(PlacementError::SearchConfig("empty GA population".into()));
        };
        let mut best = seed_best.clone();
        let mut evals_at_best = evaluations;
        let mut time_to_best = start.elapsed();
        let mut history = Vec::with_capacity(self.config.generations + 1);
        history.push(best.cost);
        let mut spares: Vec<(Vec<Vec<VarId>>, Vec<u64>)> = Vec::new();
        let mut tables = <[ChildTables; 2]>::default();

        // ---- Generations ---------------------------------------------------
        for _ in 0..self.config.generations {
            // Generate the whole λ-batch first (all RNG draws, in the exact
            // order of the sequential implementation), then evaluate it,
            // recomputing only the DBCs the operators actually touched.
            let mut jobs = self.offspring_batch(
                &population,
                vars,
                capacity,
                q,
                self.config.lambda,
                &mut rng,
                &mut spares,
                &mut tables,
            );
            evaluations += jobs.len();
            engine.evaluate_batch(&mut jobs);

            // µ+λ survivor selection: best of the union (elitist truncation;
            // the paper's tournament selection is used for parents). The
            // truncated tail's buffers feed the next λ-batch via `spares`.
            population.extend(jobs.into_iter().map(Individual::from_job));
            population.sort_by_key(|i| i.cost);
            for retired in population.drain(self.config.mu.min(population.len())..) {
                spares.push((retired.dbcs, retired.dbc_costs));
            }

            if population[0].cost < best.cost {
                best = population[0].clone();
                evals_at_best = evaluations;
                time_to_best = start.elapsed();
            }
            history.push(best.cost);
        }

        Ok(GaOutcome {
            best: Placement::from_dbc_lists(best.dbcs),
            best_cost: best.cost,
            history,
            evaluations,
            evals_at_best,
            time_to_best,
            elapsed: start.elapsed(),
            stop: StopCause::Finished,
        })
    }

    /// Budget-driven *anytime* run: evolves until the [`Budget`] is
    /// exhausted (or the race asks this lane to stop), instead of a fixed
    /// generation count. The configured `generations` field is ignored;
    /// the initial population and every λ-batch are clamped to the budget's
    /// remaining evaluations, so a `Budget::evals(n)` run never performs
    /// more than `max(n, 1)` fitness evaluations.
    ///
    /// When racing, improvements are published to the shared incumbent
    /// after every generation; the trajectory never *reads* the incumbent
    /// (see the determinism contract in [`crate::search`]).
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] if the variables cannot fit the geometry.
    pub fn run_budgeted(
        &self,
        engine: &FitnessEngine<'_>,
        dbcs: usize,
        capacity: usize,
        seeds: &[Placement],
        budget: Budget,
        race: Option<(&RaceControl, usize)>,
    ) -> Result<GaOutcome, PlacementError> {
        let vars = engine.accessed_vars();
        check_fit(vars.len(), dbcs, capacity)?;
        let q = if self.subarrays > 1 && dbcs.is_multiple_of(self.subarrays) {
            dbcs / self.subarrays
        } else {
            dbcs
        };
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let mut meter = crate::search::meter_for(budget, race);

        // Initial population exactly as in the fixed-generation run, then
        // clamped to the eval budget (the RNG draws of discarded random
        // individuals still happen, keeping the stream deterministic).
        let mut initial = self.initial_jobs(engine, dbcs, capacity, vars, seeds, &mut rng);
        let cap = meter.remaining_evals().min(initial.len() as u64).max(1) as usize;
        initial.truncate(cap);
        engine.evaluate_batch(&mut initial);
        meter.charge(initial.len() as u64);
        let mut population: Vec<Individual> =
            initial.into_iter().map(Individual::from_job).collect();

        let Some(seed_best) = population.iter().min_by_key(|i| i.cost) else {
            return Err(PlacementError::SearchConfig("empty GA population".into()));
        };
        let mut best = seed_best.clone();
        meter.note_cost(best.cost);
        crate::search::race_publish(race, best.cost, &best.dbcs, meter.evals());
        let mut history = vec![best.cost];

        let mut spares: Vec<(Vec<Vec<VarId>>, Vec<u64>)> = Vec::new();
        let mut tables = <[ChildTables; 2]>::default();
        while best.cost > 0 && !meter.exhausted() && !crate::search::race_stopped(race) {
            let lambda = (self.config.lambda as u64)
                .min(meter.remaining_evals())
                .max(1) as usize;
            let mut jobs = self.offspring_batch(
                &population,
                vars,
                capacity,
                q,
                lambda,
                &mut rng,
                &mut spares,
                &mut tables,
            );
            engine.evaluate_batch(&mut jobs);
            meter.charge(jobs.len() as u64);

            population.extend(jobs.into_iter().map(Individual::from_job));
            population.sort_by_key(|i| i.cost);
            for retired in population.drain(self.config.mu.min(population.len())..) {
                spares.push((retired.dbcs, retired.dbc_costs));
            }

            if population[0].cost < best.cost {
                best = population[0].clone();
                meter.note_cost(best.cost);
                crate::search::race_publish(race, best.cost, &best.dbcs, meter.evals());
            }
            history.push(best.cost);
        }

        Ok(GaOutcome {
            best: Placement::from_dbc_lists(best.dbcs),
            best_cost: best.cost,
            history,
            evaluations: meter.evals() as usize,
            evals_at_best: meter.evals_at_best() as usize,
            time_to_best: meter.time_to_best(),
            elapsed: meter.elapsed(),
            stop: meter.stop_cause(),
        })
    }

    /// The initial µ-population shared by both run loops: valid external
    /// seeds, then the DMA/AFD heuristic distributions, then random
    /// assignments up to µ — all RNG draws in the historical order.
    ///
    /// The DMA/AFD heuristics need the materialized sequence; a streaming
    /// engine ([`FitnessEngine::seq`] is `None`) skips them and relies on
    /// external seeds plus random individuals.
    fn initial_jobs(
        &self,
        engine: &FitnessEngine<'_>,
        dbcs: usize,
        capacity: usize,
        vars: &[VarId],
        seeds: &[Placement],
        rng: &mut ChaCha8Rng,
    ) -> Vec<EvalJob> {
        let mut initial: Vec<EvalJob> = Vec::with_capacity(self.config.mu);
        for seed_placement in seeds {
            let lists = seed_placement.dbc_lists().to_vec();
            let valid = lists.len() == dbcs
                && lists.iter().all(|l| l.len() <= capacity)
                && engine.seed_is_valid(seed_placement, capacity);
            if valid && initial.len() < self.config.mu {
                initial.push(EvalJob::fresh(lists));
            }
        }
        if self.config.seed_with_heuristics {
            if let Some(seq) = engine.seq() {
                for dist in [
                    Dma.distribute(seq, dbcs, capacity),
                    crate::inter::Afd.distribute(seq, dbcs, capacity),
                ]
                .into_iter()
                .flatten()
                {
                    initial.push(EvalJob::fresh(dist));
                }
            }
        }
        let mut shuffled = Vec::new();
        while initial.len() < self.config.mu {
            let mut lists = Vec::new();
            random_assignment_into(vars, dbcs, capacity, rng, &mut lists, &mut shuffled);
            initial.push(EvalJob::fresh(lists));
        }
        initial
    }

    /// One λ-batch of offspring shared by both run loops: tournament
    /// parents, crossover + optional mutation or mutated clone — all RNG
    /// draws in the historical order.
    ///
    /// `spares` recycles the list/cost buffers of individuals retired by
    /// the previous generation's µ+λ truncation (exactly λ per steady-state
    /// generation, matching the λ jobs built here), so offspring
    /// construction stops allocating after warm-up. `tables` is the
    /// crossover's var→DBC lookup scratch.
    #[allow(clippy::too_many_arguments)]
    fn offspring_batch(
        &self,
        population: &[Individual],
        vars: &[VarId],
        capacity: usize,
        q: usize,
        lambda: usize,
        rng: &mut ChaCha8Rng,
        spares: &mut Vec<(Vec<Vec<VarId>>, Vec<u64>)>,
        tables: &mut [ChildTables; 2],
    ) -> Vec<EvalJob> {
        let mut jobs: Vec<EvalJob> = Vec::with_capacity(lambda);
        while jobs.len() < lambda {
            let a = tournament(population, self.config.tournament, rng);
            if rng.gen_bool(self.config.crossover_rate) {
                let b = tournament(population, self.config.tournament, rng);
                let (mut j1, mut j2) = crossover(
                    &population[a],
                    &population[b],
                    vars,
                    capacity,
                    rng,
                    spares,
                    tables,
                );
                if rng.gen_bool(self.config.mutation_rate) {
                    mutate(&mut j1.lists, capacity, q, rng, &mut j1.dirty);
                }
                if rng.gen_bool(self.config.mutation_rate) {
                    mutate(&mut j2.lists, capacity, q, rng, &mut j2.dirty);
                }
                jobs.push(j1);
                if jobs.len() < lambda {
                    jobs.push(j2);
                } else {
                    spares.push((j2.lists, j2.dbc_costs));
                }
            } else {
                let mut j = derive_job(&population[a], spares);
                mutate(&mut j.lists, capacity, q, rng, &mut j.dirty);
                jobs.push(j);
            }
        }
        jobs
    }
}

/// Clones `parent` into a derived [`EvalJob`], reusing a retired
/// individual's buffers when one is available (`Vec::clone_from` keeps the
/// outer and inner allocations).
fn derive_job(parent: &Individual, spares: &mut Vec<(Vec<Vec<VarId>>, Vec<u64>)>) -> EvalJob {
    match spares.pop() {
        Some((mut lists, mut costs)) => {
            lists.clone_from(&parent.dbcs);
            costs.clone_from(&parent.dbc_costs);
            EvalJob::derived(lists, costs)
        }
        None => EvalJob::derived(parent.dbcs.clone(), parent.dbc_costs.clone()),
    }
}

/// Fills `table` with the var-index → DBC map of `lists` (entries for
/// variables not present stay `u32::MAX`).
fn dbc_table(lists: &[Vec<VarId>], table: &mut Vec<u32>) {
    let len = lists
        .iter()
        .flatten()
        .map(|v| v.index() + 1)
        .max()
        .unwrap_or(0);
    table.clear();
    table.resize(len, u32::MAX);
    for (d, l) in lists.iter().enumerate() {
        for &v in l {
            table[v.index()] = d as u32;
        }
    }
}

/// Tournament selection: index of the best of `k` random individuals.
fn tournament(pop: &[Individual], k: usize, rng: &mut impl Rng) -> usize {
    let mut best = rng.gen_range(0..pop.len());
    for _ in 1..k {
        let c = rng.gen_range(0..pop.len());
        if pop[c].cost < pop[best].cost {
            best = c;
        }
    }
    best
}

/// Uniformly random valid assignment: shuffle variables, deal round-robin,
/// then shuffle each DBC.
pub(crate) fn random_assignment(
    vars: &[VarId],
    dbcs: usize,
    capacity: usize,
    rng: &mut impl Rng,
) -> Vec<Vec<VarId>> {
    let mut out = Vec::new();
    let mut shuffled = Vec::new();
    random_assignment_into(vars, dbcs, capacity, rng, &mut out, &mut shuffled);
    out
}

/// Allocation-reusing form of [`random_assignment`]: fills `out` (per-DBC
/// lists) and uses `shuffled` as deal-order scratch, reusing both buffers'
/// capacity across calls. The RNG draw sequence is identical to
/// [`random_assignment`] — callers sampling in a loop (the random walk)
/// stay bit-compatible with the allocating form.
///
/// The deal gives DBC `d` the shuffled positions `d, d + q, d + 2q, …`
/// (`q = dbcs`), each list reserved to `⌈V/q⌉` at once. The variables must
/// fit (`V ≤ q · capacity`, which every caller's `check_fit` ensures): then
/// DBC `k mod q` holds `⌊k/q⌋ < capacity` entries before the `k`-th
/// variable is dealt, so no DBC is ever full when its turn comes and a
/// capacity-skipping round-robin would deal exactly the same lists.
pub(crate) fn random_assignment_into(
    vars: &[VarId],
    dbcs: usize,
    capacity: usize,
    rng: &mut impl Rng,
    out: &mut Vec<Vec<VarId>>,
    shuffled: &mut Vec<VarId>,
) {
    debug_assert!(
        vars.len() <= dbcs.saturating_mul(capacity),
        "{} variables cannot fit {dbcs} DBCs of capacity {capacity}",
        vars.len()
    );
    shuffled.clear();
    shuffled.extend_from_slice(vars);
    shuffled.shuffle(rng);
    out.truncate(dbcs);
    out.resize_with(dbcs, Vec::new);
    let per_dbc = vars.len().div_ceil(dbcs.max(1));
    // Dealing draws nothing, so dealing and shuffling DBC by DBC keeps the
    // draw order of dealing everything first.
    for (d, l) in out.iter_mut().enumerate() {
        l.clear();
        l.reserve(per_dbc);
        l.extend(shuffled.iter().skip(d).step_by(dbcs));
        l.shuffle(rng);
    }
}

/// One crossover child's bookkeeping, reused across a run: its var→DBC
/// table and the running length of each DBC (stale entries excluded).
#[derive(Debug, Default)]
struct ChildTables {
    dbc_of: Vec<u32>,
    len: Vec<usize>,
}

impl ChildTables {
    /// Resets both tables to `child`'s lists.
    fn fill(&mut self, child: &EvalJob) {
        dbc_table(&child.lists, &mut self.dbc_of);
        self.len.clear();
        self.len.extend(child.lists.iter().map(Vec::len));
    }

    /// Moves `v` from DBC `from` to the tail of DBC `to` if `to` has room,
    /// marking both dirty. The stale entry in `from` stays in its list until
    /// [`drop_stale`](Self::drop_stale).
    fn relocate(&mut self, child: &mut EvalJob, v: VarId, from: usize, to: usize, capacity: usize) {
        if self.len[to] < capacity {
            self.len[from] -= 1;
            self.len[to] += 1;
            child.lists[to].push(v);
            self.dbc_of[v.index()] = to as u32;
            child.dirty.mark(from);
            child.dirty.mark(to);
        }
    }

    /// Removes every entry the table no longer places in its list — one
    /// `retain` per DBC that lost a variable.
    fn drop_stale(&self, child: &mut EvalJob) {
        for (d, list) in child.lists.iter_mut().enumerate() {
            if list.len() > self.len[d] {
                list.retain(|v| self.dbc_of[v.index()] as usize == d);
            }
        }
    }
}

/// The paper's 2-fold crossover: pick `v_f, v_l` (`f < l`) in
/// first-appearance order; for every variable in the enclosed range whose
/// DBC differs between the parents, swap the DBC memberships (the variable
/// is appended at the tail of its new DBC). Offspring remain valid
/// placements; moves that would overflow `capacity` are skipped.
///
/// The children start as clones of the parents (inheriting their per-DBC
/// costs) and every DBC an actual move touches is marked dirty.
///
/// Each child's var→DBC table and DBC lengths are built once up front
/// (O(|V|)) and kept current as moves land; a moved variable is appended
/// at once, and its stale entry is dropped by one `retain` per source DBC
/// at the end, so a child costs O(|V|) whatever the range.
fn crossover(
    a: &Individual,
    b: &Individual,
    vars: &[VarId],
    capacity: usize,
    rng: &mut impl Rng,
    spares: &mut Vec<(Vec<Vec<VarId>>, Vec<u64>)>,
    tables: &mut [ChildTables; 2],
) -> (EvalJob, EvalJob) {
    let n = vars.len();
    let mut j1 = derive_job(a, spares);
    let mut j2 = derive_job(b, spares);
    if n < 2 {
        return (j1, j2);
    }
    let f = rng.gen_range(0..n - 1);
    let l = rng.gen_range(f + 1..n);

    let [t1, t2] = tables;
    t1.fill(&j1);
    t2.fill(&j2);
    for &v in &vars[f..=l] {
        // Each variable is visited once, so its entries still hold the
        // parents' DBCs.
        let da = t1.dbc_of[v.index()] as usize;
        let db = t2.dbc_of[v.index()] as usize;
        if da != db {
            t1.relocate(&mut j1, v, da, db, capacity);
            t2.relocate(&mut j2, v, db, da, capacity);
        }
    }
    t1.drop_stale(&mut j1);
    t2.drop_stale(&mut j2);
    (j1, j2)
}

/// The paper's three mutations, weighted 10 : 10 : 3 — plus, on a real
/// hierarchy (`dbcs_per_subarray < dbcs.len()`), a fourth *subarray-migrate*
/// mutation at weight 6. DBCs whose content or order may have changed are
/// recorded in `dirty`.
///
/// A flat geometry (`dbcs_per_subarray >= dbcs.len()`) draws from the
/// historical `0..23` range, so single-subarray runs are bit-identical to
/// the pre-hierarchy GA.
fn mutate(
    dbcs: &mut [Vec<VarId>],
    capacity: usize,
    dbcs_per_subarray: usize,
    rng: &mut impl Rng,
    dirty: &mut DirtyMask,
) {
    let hierarchical = dbcs_per_subarray > 0 && dbcs_per_subarray < dbcs.len();
    // Weighted choice over (move, transpose, permute-all[, migrate]).
    let roll = if hierarchical {
        rng.gen_range(0..29u32)
    } else {
        rng.gen_range(0..23u32)
    };
    if roll < 10 {
        move_mutation(dbcs, capacity, rng, dirty);
    } else if roll < 20 {
        transpose_mutation(dbcs, rng, dirty);
    } else if roll < 23 {
        for (d, l) in dbcs.iter_mut().enumerate() {
            l.shuffle(rng);
            if l.len() >= 2 {
                dirty.mark(d); // shuffling 0 or 1 elements cannot change cost
            }
        }
    } else {
        subarray_migrate_mutation(dbcs, capacity, dbcs_per_subarray, rng, dirty);
    }
}

/// Move a random variable into a non-full DBC of a *different* subarray.
///
/// The uniform [`move_mutation`] picks its destination among all non-full
/// DBCs, so near full capacity — the regime multi-subarray instances live
/// in — its probability of crossing a subarray boundary collapses with the
/// free-slot distribution. This operator keeps the inter-subarray
/// assignment explorable there by construction.
fn subarray_migrate_mutation(
    dbcs: &mut [Vec<VarId>],
    capacity: usize,
    dbcs_per_subarray: usize,
    rng: &mut impl Rng,
    dirty: &mut DirtyMask,
) {
    let nonempty: Vec<usize> = (0..dbcs.len()).filter(|&d| !dbcs[d].is_empty()).collect();
    if nonempty.is_empty() {
        return;
    }
    let src = nonempty[rng.gen_range(0..nonempty.len())];
    let src_sub = src / dbcs_per_subarray;
    let candidates: Vec<usize> = (0..dbcs.len())
        .filter(|&d| d / dbcs_per_subarray != src_sub && dbcs[d].len() < capacity)
        .collect();
    if candidates.is_empty() {
        return;
    }
    let dst = candidates[rng.gen_range(0..candidates.len())];
    let i = rng.gen_range(0..dbcs[src].len());
    let v = dbcs[src].remove(i);
    dbcs[dst].push(v);
    dirty.mark(src);
    dirty.mark(dst);
}

/// Move a random variable to the tail of another DBC.
fn move_mutation(
    dbcs: &mut [Vec<VarId>],
    capacity: usize,
    rng: &mut impl Rng,
    dirty: &mut DirtyMask,
) {
    if dbcs.len() < 2 {
        return;
    }
    let nonempty: Vec<usize> = (0..dbcs.len()).filter(|&d| !dbcs[d].is_empty()).collect();
    if nonempty.is_empty() {
        return;
    }
    let src = nonempty[rng.gen_range(0..nonempty.len())];
    let candidates: Vec<usize> = (0..dbcs.len())
        .filter(|&d| d != src && dbcs[d].len() < capacity)
        .collect();
    if candidates.is_empty() {
        return;
    }
    let dst = candidates[rng.gen_range(0..candidates.len())];
    let i = rng.gen_range(0..dbcs[src].len());
    let v = dbcs[src].remove(i);
    dbcs[dst].push(v);
    dirty.mark(src);
    dirty.mark(dst);
}

/// Swap two variables within one DBC.
fn transpose_mutation(dbcs: &mut [Vec<VarId>], rng: &mut impl Rng, dirty: &mut DirtyMask) {
    let eligible: Vec<usize> = (0..dbcs.len()).filter(|&d| dbcs[d].len() >= 2).collect();
    if eligible.is_empty() {
        return;
    }
    let d = eligible[rng.gen_range(0..eligible.len())];
    let n = dbcs[d].len();
    let i = rng.gen_range(0..n);
    let mut j = rng.gen_range(0..n);
    if i == j {
        j = (j + 1) % n;
    }
    dbcs[d].swap(i, j);
    dirty.mark(d);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inter::InterHeuristic;

    const PAPER_SEQ: &str = "a b a b c a c a d d a i e f e f g e g h g i h i";

    fn assert_valid(dbcs: &[Vec<VarId>], seq: &AccessSequence, capacity: usize) {
        let p = Placement::from_dbc_lists(dbcs.to_vec());
        p.validate(seq, capacity).unwrap();
    }

    #[test]
    fn ga_finds_at_least_heuristic_quality() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let out = GeneticPlacer::new(GaConfig::quick())
            .run(&seq, 2, 512)
            .unwrap();
        // Seeded with DMA (cost <= 11), GA can only improve.
        assert!(out.best_cost <= 11, "GA cost {} > 11", out.best_cost);
        out.best.validate(&seq, 512).unwrap();
    }

    #[test]
    fn ga_beats_afd_on_paper_example() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let out = GeneticPlacer::new(GaConfig::quick())
            .run(&seq, 2, 512)
            .unwrap();
        assert!(out.best_cost < 39);
    }

    #[test]
    fn history_is_monotone_nonincreasing() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let out = GeneticPlacer::new(GaConfig::quick())
            .run(&seq, 4, 512)
            .unwrap();
        assert_eq!(out.history.len(), GaConfig::quick().generations + 1);
        for w in out.history.windows(2) {
            assert!(w[1] <= w[0]);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let a = GeneticPlacer::new(GaConfig::quick().with_seed(7))
            .run(&seq, 2, 512)
            .unwrap();
        let b = GeneticPlacer::new(GaConfig::quick().with_seed(7))
            .run(&seq, 2, 512)
            .unwrap();
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.best, b.best);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn evaluations_within_bound() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let cfg = GaConfig::quick();
        let out = GeneticPlacer::new(cfg).run(&seq, 2, 512).unwrap();
        // +1 slack per generation because crossover yields 2 children.
        assert!(out.evaluations <= cfg.max_evaluations() + cfg.generations + 2);
    }

    fn indiv(engine: &FitnessEngine<'_>, dbcs: Vec<Vec<VarId>>) -> Individual {
        let dbc_costs = engine.per_dbc_costs(&dbcs);
        let cost = dbc_costs.iter().sum();
        Individual {
            dbcs,
            dbc_costs,
            cost,
        }
    }

    #[test]
    fn crossover_preserves_validity() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let vars = seq.liveness().by_first_occurrence();
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
        let a = indiv(&engine, Dma.distribute(&seq, 3, 4).unwrap());
        let b = indiv(&engine, crate::inter::Afd.distribute(&seq, 3, 4).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut spares = Vec::new();
        let mut tables = <[ChildTables; 2]>::default();
        for _ in 0..50 {
            let (j1, j2) = crossover(&a, &b, &vars, 4, &mut rng, &mut spares, &mut tables);
            assert_valid(&j1.lists, &seq, 4);
            assert_valid(&j2.lists, &seq, 4);
        }
    }

    /// The crossover as it was: each moved variable removed from its old
    /// DBC by its own `retain`, capacity read off the lists.
    fn crossover_reference(
        a: &Individual,
        b: &Individual,
        vars: &[VarId],
        capacity: usize,
        rng: &mut impl Rng,
    ) -> (EvalJob, EvalJob) {
        let n = vars.len();
        let mut j1 = EvalJob::derived(a.dbcs.clone(), a.dbc_costs.clone());
        let mut j2 = EvalJob::derived(b.dbcs.clone(), b.dbc_costs.clone());
        if n < 2 {
            return (j1, j2);
        }
        let f = rng.gen_range(0..n - 1);
        let l = rng.gen_range(f + 1..n);
        let (mut t1, mut t2) = (Vec::new(), Vec::new());
        dbc_table(&j1.lists, &mut t1);
        dbc_table(&j2.lists, &mut t2);
        for &v in &vars[f..=l] {
            let (c1, c2) = (&mut j1.lists, &mut j2.lists);
            let da = t1[v.index()] as usize;
            let db = t2[v.index()] as usize;
            if da == db {
                continue;
            }
            if c1[db].len() < capacity {
                c1[da].retain(|&x| x != v);
                c1[db].push(v);
                t1[v.index()] = db as u32;
                j1.dirty.mark(da);
                j1.dirty.mark(db);
            }
            if c2[da].len() < capacity {
                c2[db].retain(|&x| x != v);
                c2[da].push(v);
                t2[v.index()] = da as u32;
                j2.dirty.mark(da);
                j2.dirty.mark(db);
            }
        }
        (j1, j2)
    }

    #[test]
    fn crossover_equals_the_retain_per_move_reference() {
        use rand::RngCore;
        // (variables, DBCs, capacity): roomy parents, exactly full ones
        // (no move can land) and nearly full ones (moves into a full DBC
        // wait for an earlier move out of it).
        let shapes = [
            (9, 2, 512),
            (9, 3, 3),
            (9, 4, 3),
            (60, 4, 15),
            (60, 4, 16),
            (200, 8, 25),
            (200, 8, 27),
            (300, 3, 512),
            (2, 2, 1),
            (1, 1, 1),
        ];
        for (nvars, dbcs, capacity) in shapes {
            let vars: Vec<VarId> = (0..nvars).map(VarId::from_index).collect();
            let mut rng = ChaCha8Rng::seed_from_u64((nvars * 31 + dbcs) as u64);
            let parents: Vec<Individual> = (0..6)
                .map(|_| {
                    let lists = random_assignment(&vars, dbcs, capacity, &mut rng);
                    Individual {
                        dbc_costs: vec![0; lists.len()],
                        dbcs: lists,
                        cost: 0,
                    }
                })
                .collect();
            let dirty = |j: &EvalJob| -> Vec<usize> {
                (0..dbcs).filter(|&d| j.dirty.is_dirty(d)).collect()
            };
            let mut spares = Vec::new();
            let mut tables = <[ChildTables; 2]>::default();
            let mut moved = 0usize;
            for round in 0..60u64 {
                let a = &parents[round as usize % 6];
                let b = &parents[(round as usize * 7 + 1) % 6];
                let mut r1 = ChaCha8Rng::seed_from_u64(round);
                let mut r2 = ChaCha8Rng::seed_from_u64(round);
                let got = crossover(a, b, &vars, capacity, &mut r1, &mut spares, &mut tables);
                let want = crossover_reference(a, b, &vars, capacity, &mut r2);
                for (g, w) in [(&got.0, &want.0), (&got.1, &want.1)] {
                    assert_eq!(g.lists, w.lists, "{nvars}/{dbcs}/{capacity} round {round}");
                    assert_eq!(
                        dirty(g),
                        dirty(w),
                        "{nvars}/{dbcs}/{capacity} round {round}"
                    );
                    moved += dirty(g).len();
                }
                assert_eq!(r1.next_u64(), r2.next_u64(), "RNG streams diverged");
                // Recycle the children's buffers, as a generation does.
                spares.push((got.0.lists, got.0.dbc_costs));
                spares.push((got.1.lists, got.1.dbc_costs));
            }
            let full = nvars == dbcs * capacity;
            assert_eq!(
                moved == 0,
                nvars < 2 || full,
                "{nvars}/{dbcs}/{capacity}: {moved} dirty DBCs"
            );
        }
    }

    #[test]
    fn operators_report_accurate_dirty_masks() {
        // Inherited (clean) per-DBC costs plus recomputed dirty ones must
        // always equal a from-scratch evaluation.
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let vars = seq.liveness().by_first_occurrence();
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
        let a = indiv(&engine, Dma.distribute(&seq, 3, 4).unwrap());
        let b = indiv(&engine, crate::inter::Afd.distribute(&seq, 3, 4).unwrap());
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut spares = Vec::new();
        let mut tables = <[ChildTables; 2]>::default();
        for _ in 0..100 {
            let (mut j1, mut j2) = crossover(&a, &b, &vars, 4, &mut rng, &mut spares, &mut tables);
            mutate(&mut j1.lists, 4, 3, &mut rng, &mut j1.dirty);
            mutate(&mut j2.lists, 4, 3, &mut rng, &mut j2.dirty);
            for mut job in [j1, j2] {
                let expect = engine.per_dbc_costs(&job.lists);
                engine.evaluate_batch(std::slice::from_mut(&mut job));
                assert_eq!(job.dbc_costs, expect);
            }
        }
    }

    #[test]
    fn mutations_preserve_validity() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut dbcs = Dma.distribute(&seq, 3, 4).unwrap();
        for _ in 0..200 {
            mutate(&mut dbcs, 4, 3, &mut rng, &mut DirtyMask::clean());
            assert_valid(&dbcs, &seq, 4);
        }
    }

    #[test]
    fn mutate_handles_degenerate_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        // Single DBC: move is a no-op, transpose still works.
        let v: Vec<VarId> = (0..3).map(VarId::from_index).collect();
        let mut single = vec![v.clone()];
        for _ in 0..50 {
            mutate(&mut single, 8, 1, &mut rng, &mut DirtyMask::clean());
            assert_eq!(single[0].len(), 3);
        }
        // Empty DBCs alongside a singleton.
        let mut sparse = vec![vec![VarId::from_index(0)], vec![], vec![]];
        for _ in 0..50 {
            mutate(&mut sparse, 1, 3, &mut rng, &mut DirtyMask::clean());
            let total: usize = sparse.iter().map(Vec::len).sum();
            assert_eq!(total, 1);
        }
    }

    #[test]
    fn single_subarray_runs_are_bit_identical_to_the_flat_ga() {
        // `with_subarrays(1)` — and any indivisible subarray count — must
        // take the historical RNG path exactly.
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let flat = GeneticPlacer::new(GaConfig::quick().with_seed(11))
            .run(&seq, 4, 512)
            .unwrap();
        for subarrays in [1usize, 3] {
            let hier = GeneticPlacer::new(GaConfig::quick().with_seed(11))
                .with_subarrays(subarrays)
                .run(&seq, 4, 512)
                .unwrap();
            assert_eq!(hier.best, flat.best, "{subarrays} subarray(s)");
            assert_eq!(hier.history, flat.history);
            assert_eq!(hier.evaluations, flat.evaluations);
        }
    }

    #[test]
    fn hierarchical_ga_produces_valid_placements() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        // 2 subarrays x 2 DBCs of 3 slots each (9 vars in 12 slots: tight).
        let out = GeneticPlacer::new(GaConfig::quick())
            .with_subarrays(2)
            .run(&seq, 4, 3)
            .unwrap();
        out.best.validate(&seq, 3).unwrap();
        // Seeded with DMA, the hierarchical GA can only improve on it.
        let dma = Dma.distribute(&seq, 4, 3).unwrap();
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
        assert!(out.best_cost <= engine.per_dbc_costs(&dma).iter().sum());
    }

    #[test]
    fn subarray_migrate_preserves_validity_and_reports_dirt() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let engine = FitnessEngine::new(&seq, CostModel::single_port());
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let mut dbcs = Dma.distribute(&seq, 4, 3).unwrap();
        for _ in 0..100 {
            let before = dbcs.clone();
            let costs = engine.per_dbc_costs(&dbcs);
            let mut dirty = DirtyMask::clean();
            subarray_migrate_mutation(&mut dbcs, 3, 2, &mut rng, &mut dirty);
            assert_valid(&dbcs, &seq, 3);
            // If a move happened it must have crossed a subarray boundary
            // and marked both endpoints.
            let changed: Vec<usize> = (0..4).filter(|&d| dbcs[d] != before[d]).collect();
            if let [src, dst] = changed[..] {
                assert_ne!(src / 2, dst / 2, "migration stayed in one subarray");
                assert!(dirty.is_dirty(src) && dirty.is_dirty(dst));
            } else {
                assert!(changed.is_empty());
            }
            // Dirty-mask accounting stays exact under the hierarchy.
            let mut job = EvalJob::derived(dbcs.clone(), costs);
            job.dirty = dirty;
            engine.evaluate_batch(std::slice::from_mut(&mut job));
            assert_eq!(job.dbc_costs, engine.per_dbc_costs(&dbcs));
        }
    }

    #[test]
    fn random_assignment_is_valid() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let vars = seq.liveness().by_first_occurrence();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..20 {
            let dbcs = random_assignment(&vars, 3, 3, &mut rng);
            assert_valid(&dbcs, &seq, 3);
        }
    }

    /// The deal as first written: round-robin with `% dbcs`, skipping full
    /// DBCs, after dealing everything shuffling each list — the reference
    /// the strided deal is held to.
    fn modulo_deal_reference(
        vars: &[VarId],
        dbcs: usize,
        capacity: usize,
        rng: &mut impl Rng,
        out: &mut Vec<Vec<VarId>>,
        shuffled: &mut Vec<VarId>,
    ) {
        shuffled.clear();
        shuffled.extend_from_slice(vars);
        shuffled.shuffle(rng);
        out.truncate(dbcs);
        for l in out.iter_mut() {
            l.clear();
        }
        out.resize_with(dbcs, Vec::new);
        let mut d = 0usize;
        for &v in shuffled.iter() {
            while out[d].len() >= capacity {
                d = (d + 1) % dbcs;
            }
            out[d].push(v);
            d = (d + 1) % dbcs;
        }
        for l in out.iter_mut() {
            l.shuffle(rng);
        }
    }

    #[test]
    fn strided_deal_equals_the_modulo_reference() {
        // Both sides keep their buffers across every call, so each call
        // starts from the last shape's lists (more or fewer DBCs, stale
        // entries).
        let (mut out, mut shuffled) = (Vec::new(), Vec::new());
        let (mut want, mut want_shuffled) = (Vec::new(), Vec::new());
        let mut shapes = 0;
        for q in [1usize, 2, 3, 4, 8] {
            for capacity in [1usize, 2, 5, 128] {
                let full = q * capacity;
                // Empty, one variable, fewer than q, every DBC full, and
                // two sizes in between.
                let sizes = [0, 1, q - 1, full, full / 2 + 1, 369.min(full)];
                for v in sizes {
                    let vars: Vec<VarId> = (0..v).map(|i| VarId::from_index(3 * i + 1)).collect();
                    for seed in 0..4 {
                        let mut rng = ChaCha8Rng::seed_from_u64(seed);
                        let mut reference = rng.clone();
                        random_assignment_into(
                            &vars,
                            q,
                            capacity,
                            &mut rng,
                            &mut out,
                            &mut shuffled,
                        );
                        modulo_deal_reference(
                            &vars,
                            q,
                            capacity,
                            &mut reference,
                            &mut want,
                            &mut want_shuffled,
                        );
                        let shape = format!("V={v} q={q} capacity={capacity} seed={seed}");
                        assert_eq!(out, want, "{shape}");
                        let next = rand::RngCore::next_u64;
                        assert_eq!(next(&mut rng), next(&mut reference), "{shape}");
                        shapes += 1;
                    }
                }
            }
        }
        assert_eq!(shapes, 5 * 4 * 6 * 4);
    }

    #[test]
    fn rejects_impossible_geometry() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        assert!(GeneticPlacer::new(GaConfig::quick())
            .run(&seq, 2, 2)
            .is_err());
    }

    #[test]
    fn more_generations_never_hurt() {
        let seq = AccessSequence::parse(PAPER_SEQ).unwrap();
        let short = GeneticPlacer::new(GaConfig::quick().with_generations(5).with_seed(9))
            .run(&seq, 2, 512)
            .unwrap();
        let long = GeneticPlacer::new(GaConfig::quick().with_generations(60).with_seed(9))
            .run(&seq, 2, 512)
            .unwrap();
        assert!(long.best_cost <= short.best_cost);
    }
}
