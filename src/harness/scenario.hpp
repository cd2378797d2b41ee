// Scenario batch runner: the harness layer of the protocol engine.
//
// A ScenarioSpec describes a sweep {solvers x instances x thread widths x
// seeds x fault levels x repeats}; run_scenario expands it over POOLED
// Networks — one Network per (instance, width, seed, fault level),
// constructed once and reset between runs via Network::reset_for_reuse —
// and returns one row per cell with
// the full MdsResult (per-phase stats included), a median wall-clock
// timing, and a cross-width/cross-repeat determinism verdict. The old
// hand-rolled exp* driver loops (instance x solver x width with ad-hoc
// reference checking) are this function now; exp12_scaling, exp4, exp6,
// arbods_cli, and examples/content_mirrors all drive it.
//
// write_scenario_json emits the rows in the exp12 JSON schema (one object
// per row) for plotting / CI artifact upload / the perf-regression gate.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fault/fault_spec.hpp"
#include "harness/corpus.hpp"
#include "harness/registry.hpp"
#include "obs/trace.hpp"

namespace arbods::harness {

/// One solver column of a scenario: a registry solver plus optional
/// parameter overrides and a display label.
struct ScenarioSolver {
  std::string name;                    // registry key
  /// nullopt = derive via params_for(info, instance) (alpha from the
  /// instance promise). threads is ignored either way — the sweep's
  /// thread_widths drive the Network config.
  std::optional<SolverParams> params;
  std::string label;                   // defaults to `name`
};

/// One fault level of a scenario sweep: a display label (the rows' JSON
/// `fault` field; empty = derive via fault::fault_label) plus the
/// FaultSpec installed into the cell's CongestConfig. The default level
/// is inert, so an unconfigured scenario stays a clean sweep.
struct ScenarioFault {
  std::string label;
  fault::FaultSpec spec{};
};

struct ScenarioSpec {
  std::vector<ScenarioSolver> solvers;
  std::vector<int> thread_widths = {1};
  /// Simulator seeds (one pass per seed); defaults to the CongestConfig
  /// default so an unconfigured scenario matches an unconfigured solver
  /// call bit-for-bit.
  std::vector<std::uint64_t> seeds = {CongestConfig{}.seed};
  /// Fault levels (one pass per level, like thread_widths): each level's
  /// spec overrides base_config.fault and labels its rows, so one sweep
  /// emits a robustness envelope per solver. The determinism audit keys
  /// its reference per (instance, solver, seed, fault level) — faulty
  /// runs promise bit-identical results across every width just like
  /// clean ones.
  std::vector<ScenarioFault> fault_levels = {{}};
  /// Catch a solver CheckError per cell (a heavy fault level can starve
  /// a solver into a violated invariant) and mark the row failed=true —
  /// with a default result and zero seconds — instead of aborting the
  /// whole sweep. Failed cells are excluded from the determinism audit.
  bool tolerate_failures = false;
  /// Timed runs per cell (the reported seconds is their median); > 1
  /// adds one untimed warm-up run first.
  int repeats = 1;
  /// Skip (solver, instance) pairs the solver cannot run on
  /// (forests_only) instead of throwing.
  bool skip_inapplicable = true;
  /// res.validate() every cell (small corpora only — it walks the graph).
  bool validate = false;
  /// Keep each row's O(n) packing certificate. Large sweeps that only
  /// consume the scalar fields (exp12's JSON) set this false so the
  /// returned rows do not accumulate one certificate vector per cell;
  /// determinism checking still compares full certificates per cell
  /// before the drop.
  bool keep_certificates = true;
  /// Write a Chrome trace-event JSON file here after the sweep (empty =
  /// tracing off). Enables base_config.trace for every cell; each cell
  /// contributes one labeled group covering its FINAL repeat (pooled
  /// Networks clear the recorder at every run() start), so the file
  /// shows one process-row block per cell with per-worker tracks.
  /// Tracing cannot change results — the determinism audit still runs.
  std::string trace_out;
  /// Base simulator config; seed and threads are overridden per cell.
  CongestConfig base_config{};
};

struct ScenarioRow {
  std::string instance;
  std::string family;
  NodeId n = 0;
  std::int64_t m = 0;
  std::string solver;      // the ScenarioSolver label
  int threads = 1;
  std::uint64_t seed = 0;
  /// The fault level's label ("none" for a clean cell).
  std::string fault = "none";
  int repeats = 1;
  double seconds = 0.0;    // median over the timed repeats
  /// The cell's output; result.stats (with its timing breakdown) is the
  /// median repeat's — see median_index.
  MdsResult result;
  bool identical = true;   // determinism verdict for this cell
  /// The solver threw a CheckError (only under tolerate_failures).
  bool failed = false;
  /// Flight-recorder context for diagnosable incidents: the last N
  /// per-round summaries of the run that failed (CheckError under
  /// tolerate_failures) or terminated via the round budget. Empty for
  /// healthy rows and whenever trace.flight_rounds resolves to 0 —
  /// run_scenario defaults it to 8 under tolerate_failures.
  std::vector<obs::FlightRecord> last_rounds;
};

/// Pools Networks keyed by (graph, config): every run that shares the
/// pool reuses one Network per key, constructed once and reset between
/// runs (a faulty config pools a Network running that fault plan). The
/// construction count is exposed so tests can check the reuse.
class NetworkPool {
 public:
  Network& acquire(const WeightedGraph& wg, const CongestConfig& config);
  void clear() { entries_.clear(); }
  std::size_t size() const { return entries_.size(); }
  std::size_t constructed() const { return constructed_; }

 private:
  struct Entry {
    const WeightedGraph* wg;
    CongestConfig config;
    std::unique_ptr<Network> net;
  };
  std::vector<Entry> entries_;
  std::size_t constructed_ = 0;
};

/// Runs the whole expansion. Networks are pooled per instance and
/// released when the sweep moves to the next instance, so a scaling
/// sweep never holds more than one instance's arenas.
std::vector<ScenarioRow> run_scenario(
    const ScenarioSpec& spec,
    std::span<const CorpusInstance* const> instances);
std::vector<ScenarioRow> run_scenario(
    const ScenarioSpec& spec, const std::vector<CorpusInstance>& instances);

/// True iff every row's determinism verdict holds.
bool all_identical(std::span<const ScenarioRow> rows);

/// True midpoint median of the samples (sorted in place): the average of
/// the two central elements for even sizes, 0.0 for an empty vector.
/// Exposed so the even-count bias fix is unit-testable — the old
/// samples[size / 2] reported the UPPER central element, biasing
/// --repeats 4 timings upward.
double median_of(std::vector<double>& samples);

/// Index of the median sample; for even sizes, the lower of the two that
/// median_of averages. A multi-repeat row takes its RunStats (the timing
/// breakdown) from this repeat.
std::size_t median_index(std::span<const double> samples);

/// The exp12 JSON row schema version emitted by write_scenario_json.
/// v2 added `schema_version` and a per-row shard count; v3 added the
/// per-boundary inter-shard byte volume. v4 added `seed`
/// (multi-seed sweeps used to emit indistinguishable rows), the fault
/// axis (`fault` label plus the dropped/duplicated/delayed/killed
/// counters), and `failed` (solver threw under tolerate_failures). v5
/// added `hit_round_limit` (the row's run terminated via the round
/// budget — under heavy faults that is data, not an error) and the
/// self-healing columns `repair_rounds`/`repaired_nodes`/
/// `post_repair_weight` (nonzero only for "<solver>+repair" rows). v6
/// added thread-placement metadata; compare_bench.py compares optional
/// counters only when both sides carry them, so artifacts of different
/// versions keep matching on their shared fields. v7 added the
/// wall-clock breakdown columns (informational only — compare_bench.py
/// prints them but never fails on timing drift), switched `seconds` and
/// the breakdown to explicit fixed 9-decimal formatting (sub-millisecond
/// rows used to collapse under 6-significant-digit stream defaults),
/// and added `last_rounds`, the flight-recorder context of failed /
/// round-limited rows (an empty array for healthy ones). v8 dropped the
/// in-process sharding and placement columns and the merge time along
/// with the sharding engine itself; every v8 row is what v7 reported
/// with a shard count of 1, so compare_bench.py matches such v7 rows
/// against v8 ones. v9 dropped `spilled` from the `last_rounds` entries
/// (point-to-point records no longer overflow into spill buffers); no
/// top-level column changed, so v8 rows match v9 ones as they stand.
inline constexpr int kScenarioJsonSchemaVersion = 9;

/// One JSON object per row, as a JSON array (the exp12 schema):
/// schema_version/instance/family/n/m/solver/threads/seed/fault/
/// seconds/repeats/rounds/messages/total_bits/set_size/weight/dropped/
/// duplicated/delayed/killed/hit_round_limit/repair_rounds/
/// repaired_nodes/post_repair_weight/compute_seconds/flip_seconds/
/// retransmit_seconds/identical/failed/last_rounds.
void write_scenario_json(std::ostream& os, std::span<const ScenarioRow> rows);

}  // namespace arbods::harness
