// perfbench_driver — the repo benchmark's measuring process.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --pins <pins.json> --out <dir> [--size full|tiny]
//                    [--emit-pins] [--perturb-pin]
//
// One process runs one workload (paper_grid, heavy_zipf, flow_congested,
// epoch_game) through the library's public entry points, repeating the
// workload's entry call until --seconds have passed, and checks every
// repetition's outputs: self-consistency laws, validity guards (the
// mechanism the workload exists to stress did work) and pinned values
// (perfbench/pins.json, keyed by size, workload and input seed).
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced repetitions (TraceRecorder spans on, for the harness and
// agents layers), then drives the workload's simulations from outside —
// timing demand draws, Simulation::apply and package_experiment — and
// replays the same requests through CompiledRouter::route_batch, a
// policy + Ledger pair and a FlowSimulator, checking that each replay
// reproduces the simulation bit for bit. It prints the per-layer metrics.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": <checks run>, "failed": <checks failed>,
//    "metrics": {"<name>": {"value": ..., "unit": "..."}, ...}}
// See perfbench/README.md for the metric map and method.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "accounting/ledger.hpp"
#include "accounting/pricing.hpp"
#include "agents/epoch.hpp"
#include "agents/series.hpp"
#include "common/json.hpp"
#include "common/mem.hpp"
#include "common/rng.hpp"
#include "common/telemetry/counters.hpp"
#include "common/telemetry/span.hpp"
#include "core/experiment.hpp"
#include "core/scenarios.hpp"
#include "core/simulation.hpp"
#include "harness/plan.hpp"
#include "harness/scenario.hpp"
#include "harness/sink.hpp"
#include "incentives/policy.hpp"
#include "net/flow_sim.hpp"
#include "overlay/compiled_router.hpp"

namespace {

using namespace fairswap;
using telemetry::Counter;
using telemetry::CounterBlock;

/// Input seeds with pinned outputs: --seed n runs input seed 1 + n % 16.
constexpr std::uint64_t kPinnedSeeds = 16;
/// Overlay builds before each repetition; setup_s is the median of all.
constexpr std::size_t kSetupRounds = 3;
/// Worker threads of the multi-threaded workloads.
constexpr std::size_t kThreads = 4;

// Tolerances of the pinned values (relative). Integer outputs and
// fingerprints are exact; fairness statistics allow re-association of
// their float sums; flow-completion times allow a re-rounding allocator
// (FCTs are whole ticks) but not a different allocation.
constexpr double kExact = 0.0;
constexpr double kStatTol = 1e-9;
constexpr double kFctTol = 0.01;

std::uint64_t now_ns() { return telemetry::wall_now_ns(); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Restarts the kernel's peak-RSS mark (VmHWM) at the current RSS, so
/// the next read covers one repetition. Best effort: where the control
/// file is unavailable the mark stays the process's lifetime peak.
void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

/// The peak-RSS mark in MB: VmHWM, or the lifetime peak without /proc.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
}

/// Tally of correctness checks; every failure is reported on stderr.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++run_;
    if (!ok) {
      ++failed_;
      std::cerr << "perfbench: check failed: " << what << "\n";
    }
  }
  [[nodiscard]] std::uint64_t run() const { return run_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t run_{0};
  std::uint64_t failed_{0};
};

/// Request conservation on a counter fold: every walk ends delivered,
/// refused, failed or truncated.
void check_conservation(const CounterBlock& c, const std::string& where,
                        Checks& checks) {
  checks.expect(c.value(Counter::kChunksDelivered) +
                        c.value(Counter::kServiceRefusals) +
                        c.value(Counter::kRoutesFailed) +
                        c.value(Counter::kRoutesTruncated) ==
                    c.value(Counter::kRouteWalks),
                where + ": delivered + refused + failed + truncated == "
                        "chunk requests");
}

// --- pinned values --------------------------------------------------------

/// One output value a repetition is checked against pins.json for.
struct Observation {
  std::string key;
  std::string text;
  double rel_tol{kExact};  ///< kExact compares the text
};

using Observations = std::vector<Observation>;

void observe(Observations& obs, std::string key, double value, double tol) {
  obs.push_back({std::move(key), num(value), tol});
}

void observe_text(Observations& obs, std::string key, std::string text) {
  obs.push_back({std::move(key), std::move(text), kExact});
}

/// The pinned values, by "<size>/<workload>/<input seed>".
class Pins {
 public:
  Pins(const std::string& path, bool perturb) {
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    JsonValue doc;
    std::string error;
    if (!in || !parse_json(text.str(), doc, &error) || !doc.is_object()) {
      throw std::runtime_error("cannot read pins file " + path + " " + error);
    }
    const auto pins = doc.object.find("pins");
    if (pins == doc.object.end()) return;
    for (const auto& [id, entry] : pins->second.object) {
      auto& values = values_[id];
      for (const auto& [key, value] : entry.object) values[key] = value.string;
      if (perturb && !values.empty()) {
        // The self-test's liveness probe: one pin moved well outside
        // every tolerance must turn into a failed check.
        std::string& first = values.begin()->second;
        char* end = nullptr;
        const double v = std::strtod(first.c_str(), &end);
        first = (end != nullptr && *end == '\0' && !first.empty())
                    ? num(v * 1.5 + 1.0)
                    : first + "0";
      }
    }
  }

  void compare(const std::string& id, const Observations& obs,
               Checks& checks) const {
    const auto entry = values_.find(id);
    checks.expect(entry != values_.end(), "pins exist for " + id);
    if (entry == values_.end()) return;
    for (const Observation& o : obs) {
      const auto it = entry->second.find(o.key);
      if (it == entry->second.end()) {
        checks.expect(false, id + ": pin " + o.key + " exists");
        continue;
      }
      bool ok = it->second == o.text;
      if (!ok && o.rel_tol > 0.0) {
        const double pinned = std::strtod(it->second.c_str(), nullptr);
        const double seen = std::strtod(o.text.c_str(), nullptr);
        ok = std::abs(seen - pinned) <= o.rel_tol * std::abs(pinned);
      }
      checks.expect(ok, id + ": " + o.key + " = " + o.text +
                            " matches pin " + it->second);
    }
  }

 private:
  std::map<std::string, std::map<std::string, std::string>> values_;
};

// --- metrics --------------------------------------------------------------

/// Metric values by name.
using Values = std::map<std::string, double>;

/// A metric's name and unit, as BENCHMARK.json lists them.
struct Metric {
  const char* name;
  const char* unit;
};

/// Printed by the untraced run (--trace 0).
constexpr Metric kEndToEnd[] = {
    {"wall_s", "s"}, {"setup_s", "s"}, {"chunks_per_s", "1/s"},
    {"peak_rss_mb", "MB"}};

/// Printed by the traced run (--trace 1).
constexpr Metric kPerLayer[] = {
    {"workload.next_ns_per_chunk", "ns"},
    {"workload.files", "count"},
    {"workload.chunk_requests", "count"},
    {"workload.upload_files", "count"},
    {"workload.burst_draws", "count"},
    {"overlay.build_ms", "ms"},
    {"overlay.router_bytes", "bytes"},
    {"overlay.route_ns_per_chunk", "ns"},
    {"overlay.hops_per_chunk", "hops/chunk"},
    {"accounting.ns_per_chunk", "ns"},
    {"accounting.debits", "count"},
    {"accounting.settlements", "count"},
    {"accounting.refused_payments", "count"},
    {"accounting.active_pairs", "count"},
    {"accounting.ledger_bytes", "bytes"},
    {"core.sim_init_ms", "ms"},
    {"core.apply_ns_per_chunk", "ns"},
    {"core.step_us_p50", "us"},
    {"core.step_us_p99", "us"},
    {"core.step_p99_rank", "count"},
    {"core.step_samples", "count"},
    {"core.package_ms", "ms"},
    {"net.us_per_flow", "us"},
    {"net.commit_ms", "ms"},
    {"net.advance_ms", "ms"},
    {"net.drain_ms", "ms"},
    {"net.flows", "count"},
    {"net.rate_recomputes", "count"},
    {"net.events_popped", "count"},
    {"net.active_flows_max", "count"},
    {"net.saturated_links", "count"},
    {"harness.run_cells_ms", "ms"},
    {"harness.fold_ms", "ms"},
    {"harness.sink_ms", "ms"},
    {"harness.pool_busy_share", "share"},
    {"agents.epochs", "count"},
    {"agents.play_ms", "ms"},
    {"agents.revise_ms", "ms"},
    {"agents.measure_ms", "ms"},
    {"agents.revisions", "count"},
    {"trace.overhead_share", "share"},
    {"check_failures", "share"}};

/// A MetricSink that forwards to another and adds the time spent in it.
class TimedSink final : public harness::MetricSink {
 public:
  TimedSink(harness::MetricSink& inner, std::uint64_t& ns)
      : inner_(&inner), ns_(&ns) {}
  void begin(const harness::PlanSummary& plan) override {
    const std::uint64_t t = now_ns();
    inner_->begin(plan);
    *ns_ += now_ns() - t;
  }
  void record(const harness::RunRecord& run) override {
    const std::uint64_t t = now_ns();
    inner_->record(run);
    *ns_ += now_ns() - t;
  }
  void end() override {
    const std::uint64_t t = now_ns();
    inner_->end();
    *ns_ += now_ns() - t;
  }

 private:
  harness::MetricSink* inner_;
  std::uint64_t* ns_;
};

/// Keeps the records a plan streams, for the checks.
class CaptureSink final : public harness::MetricSink {
 public:
  void record(const harness::RunRecord& run) override {
    records.push_back(run);
  }
  std::vector<harness::RunRecord> records;
};

/// Harness and agents layer times from one traced repetition's spans.
void span_metrics(const std::vector<telemetry::SpanRecord>& spans,
                  Values& layer) {
  std::map<std::string, std::uint64_t> sum;
  std::uint64_t shard_begin = UINT64_MAX, shard_end = 0;
  for (const auto& s : spans) {
    sum[s.name] += s.dur_ns;
    if (s.name == "run_shard") {
      shard_begin = std::min(shard_begin, s.start_ns);
      shard_end = std::max(shard_end, s.start_ns + s.dur_ns);
    }
  }
  // run_plan's parallel phase is the run_cells span; heavy_traffic's is
  // the window its run_shard spans cover.
  std::uint64_t cells_ns = sum["run_cells"];
  if (cells_ns == 0 && shard_end > shard_begin) {
    cells_ns = shard_end - shard_begin;
  }
  const double pool_ns = static_cast<double>(sum["pool_chunk"]);
  layer["harness.run_cells_ms"] = static_cast<double>(cells_ns) * 1e-6;
  layer["harness.fold_ms"] =
      static_cast<double>(sum["fold_and_stream"] + sum["fold_shards"]) * 1e-6;
  layer["harness.pool_busy_share"] =
      cells_ns > 0 && pool_ns > 0
          ? pool_ns / (static_cast<double>(kThreads) *
                       static_cast<double>(cells_ns))
          : 0.0;
  const std::uint64_t epoch = sum["epoch"], play = sum["play"];
  const std::uint64_t revise = sum["revise"];
  layer["agents.play_ms"] = static_cast<double>(play) * 1e-6;
  layer["agents.revise_ms"] = static_cast<double>(revise) * 1e-6;
  layer["agents.measure_ms"] =
      epoch > play + revise
          ? static_cast<double>(epoch - play - revise) * 1e-6
          : 0.0;
}

// --- outside drive + replays ------------------------------------------------

/// One simulation the traced run drives from outside: `segments` runs of
/// one Simulation (the first constructs it, the rest reset() it — the
/// epoch game's structure), each `files` long, or until `quota` chunk
/// requests when files is 0 (heavy_traffic's shards).
struct DriveSpec {
  core::ExperimentConfig config;
  std::vector<Rng> segments;
  std::size_t files{0};
  std::uint64_t quota{0};
  /// Strategic service refusal flags (epoch game); empty = none.
  std::vector<std::uint8_t> refuse;
};

/// What a drive leaves for the workload's drive-vs-run checks.
struct DriveResult {
  CounterBlock counters;                 ///< last segment's sim counters
  core::SimulationTotals first_segment;  ///< totals after segment 0
  core::FairnessReport fairness;         ///< last segment's package
};

/// Raw per-layer sums over every drive of a traced run.
struct DriveTotals {
  std::uint64_t chunks{0};
  std::uint64_t next_ns{0}, apply_ns{0}, init_ns{0}, package_ns{0};
  std::vector<double> step_us;
  std::uint64_t route_ns{0}, hops{0};
  std::uint64_t account_ns{0};
  std::size_t ledger_bytes{0}, active_pairs{0};
  std::uint64_t flow_commit_ns{0}, flow_advance_ns{0}, flow_drain_ns{0};
  std::uint64_t flows{0}, saturated_links{0};
  std::size_t active_flows_max{0};
  CounterBlock replay;  ///< counters of the replay ledgers / flow layers
};

bool same_report(const net::FlowReport& a, const net::FlowReport& b) {
  return a.started == b.started && a.completed == b.completed &&
         a.timed_out == b.timed_out && a.fct_p50 == b.fct_p50 &&
         a.fct_p90 == b.fct_p90 && a.fct_p99 == b.fct_p99 &&
         a.fct_mean == b.fct_mean && a.saturated_links == b.saturated_links &&
         a.max_link_utilization == b.max_link_utilization &&
         a.makespan == b.makespan;
}

DriveResult drive(const DriveSpec& spec, DriveTotals& dt, Checks& checks) {
  const overlay::Topology topo = core::build_topology(spec.config);
  const overlay::CompiledRouter& router = topo.compiled();
  const core::SimulationConfig& sc = spec.config.sim;
  DriveResult out;

  std::uint64_t t = now_ns();
  core::Simulation sim(topo, sc, spec.segments.front());
  dt.init_ns += now_ns() - t;

  // The replays: the same requests through the layers' public APIs.
  accounting::Ledger ledger(router, sc.swap);
  ledger.set_counters(&dt.replay);
  const auto policy = incentives::make_policy(sc.policy);
  const auto pricer = accounting::make_pricer(sc.pricer);
  std::vector<std::uint8_t> free_riders;
  std::vector<std::uint8_t> refuse;
  incentives::PolicyContext ctx;
  ctx.topo = &topo;
  ctx.swap = &ledger;
  ctx.pricer = pricer.get();
  ctx.free_rider = &free_riders;
  ctx.refuses_service = &refuse;
  std::optional<net::FlowSimulator> flow;
  if (sc.flow_level) {
    flow.emplace(router, topo.node_count(), sc.flow);
    flow->set_counters(&dt.replay);
  }
  std::vector<overlay::Route> routes;
  std::vector<overlay::NodeIndex> origins;
  std::vector<std::uint8_t> delivered;

  for (std::size_t seg = 0; seg < spec.segments.size(); ++seg) {
    if (seg > 0) {
      t = now_ns();
      sim.reset(spec.segments[seg]);
      dt.init_ns += now_ns() - t;
      ledger.reset();
      policy->reset();
      if (flow) flow->reset();
    }
    if (!spec.refuse.empty()) sim.set_behavior(spec.refuse, true);
    free_riders = sim.free_riders();
    refuse = spec.refuse;

    std::uint64_t reached = 0, failed = 0, truncated = 0, transmissions = 0;
    for (std::size_t f = 0;
         spec.files > 0 ? f < spec.files
                        : sim.totals().chunk_requests < spec.quota;
         ++f) {
      const std::uint64_t t0 = now_ns();
      const workload::DownloadRequest request = sim.demand_mut().next();
      const std::uint64_t t1 = now_ns();
      sim.apply(request);
      const std::uint64_t t2 = now_ns();
      dt.next_ns += t1 - t0;
      dt.apply_ns += t2 - t1;
      dt.step_us.push_back(static_cast<double>(t2 - t0) * 1e-3);
      dt.chunks += request.chunks.size();

      origins.assign(request.chunks.size(), request.originator);
      const std::uint64_t t3 = now_ns();
      router.route_batch(origins, request.chunks, routes, sc.max_route_hops);
      dt.route_ns += now_ns() - t3;

      // Policy + ledger replay, in Simulation::account's order.
      delivered.assign(routes.size(), 0);
      const std::uint64_t t4 = now_ns();
      for (std::size_t i = 0; i < routes.size(); ++i) {
        const overlay::Route& route = routes[i];
        if (!route.reached_storer) continue;
        if (route.hops() == 0) continue;
        const std::size_t refusal =
            ctx.first_refusing_server(route, request.is_upload);
        if (refusal != 0) {
          transmissions += request.is_upload ? refusal - 1
                                             : route.path.size() - 1 - refusal;
          continue;
        }
        if (!policy->admit(ctx, route)) continue;
        transmissions += route.hops();
        delivered[i] = 1;
        policy->on_delivery(ctx, route);
      }
      policy->on_step_end(ctx);
      if (sc.amortize_each_step) {
        ledger.amortize_tick();
      } else {
        ledger.advance_tick();
      }
      dt.account_ns += now_ns() - t4;

      for (const overlay::Route& route : routes) {
        dt.hops += route.hops();
        if (route.reached_storer) {
          ++reached;
        } else if (route.truncated) {
          ++truncated;
        } else {
          ++failed;
        }
      }

      if (flow) {
        const std::uint64_t t5 = now_ns();
        flow->advance_to(sc.flow.interarrival * f);
        const std::uint64_t t6 = now_ns();
        for (std::size_t i = 0; i < routes.size(); ++i) {
          if (delivered[i] != 0) flow->start_chunk(routes[i], request.is_upload);
        }
        flow->commit();
        dt.flow_advance_ns += t6 - t5;
        dt.flow_commit_ns += now_ns() - t6;
        dt.active_flows_max = std::max(dt.active_flows_max,
                                       flow->active_flows());
      }
    }

    const std::string where = spec.config.label + " segment " +
                              std::to_string(seg);
    const core::SimulationTotals& totals = sim.totals();
    checks.expect(reached == totals.delivered + totals.refused,
                  where + ": route_batch replay reaches delivered + refused");
    checks.expect(failed == totals.failed_routes,
                  where + ": route_batch replay fails failed_routes");
    checks.expect(truncated == totals.truncated_routes,
                  where + ": route_batch replay truncates truncated_routes");
    checks.expect(transmissions == totals.total_transmissions,
                  where + ": replayed hops == total_transmissions");
    checks.expect(ledger.income() == sim.swap().income() &&
                      ledger.spent() == sim.swap().spent(),
                  where + ": policy + ledger replay reproduces incomes");
    checks.expect(ledger.settlements().size() ==
                      sim.swap().settlements().size(),
                  where + ": policy + ledger replay reproduces settlements");
    if (flow) {
      sim.finish_flows();
      t = now_ns();
      flow->drain();
      dt.flow_drain_ns += now_ns() - t;
      const net::FlowReport report = flow->report();
      checks.expect(same_report(report, sim.flow_simulator()->report()),
                    where + ": FlowSimulator replay reproduces FlowReport");
      dt.flows += report.started;
      dt.saturated_links += report.saturated_links;
    }
    t = now_ns();
    const core::ExperimentResult result =
        core::package_experiment(spec.config, sim, 0.0);
    dt.package_ns += now_ns() - t;

    dt.ledger_bytes = std::max(dt.ledger_bytes, sim.swap().memory_bytes());
    dt.active_pairs = std::max(dt.active_pairs, sim.swap().active_pairs());
    if (seg == 0) out.first_segment = totals;
    out.counters = sim.telem();
    out.fairness = result.fairness;
  }
  return out;
}

/// Folds the drive sums into per-layer metrics.
void drive_metrics(const DriveTotals& dt, Values& layer) {
  const auto per = [](std::uint64_t ns, std::uint64_t n) {
    return n > 0 ? static_cast<double>(ns) / static_cast<double>(n) : 0.0;
  };
  layer["workload.next_ns_per_chunk"] = per(dt.next_ns, dt.chunks);
  layer["overlay.route_ns_per_chunk"] = per(dt.route_ns, dt.chunks);
  layer["overlay.hops_per_chunk"] = per(dt.hops, dt.chunks);
  layer["accounting.ns_per_chunk"] = per(dt.account_ns, dt.chunks);
  layer["accounting.active_pairs"] = static_cast<double>(dt.active_pairs);
  layer["accounting.ledger_bytes"] = static_cast<double>(dt.ledger_bytes);
  layer["core.sim_init_ms"] = static_cast<double>(dt.init_ns) * 1e-6;
  layer["core.apply_ns_per_chunk"] = per(dt.apply_ns, dt.chunks);
  layer["core.package_ms"] = static_cast<double>(dt.package_ns) * 1e-6;
  // Step tail: the highest percentile up to p99 with at least ten
  // samples beyond it, reported with its rank and the sample count.
  std::vector<double> steps = dt.step_us;
  std::sort(steps.begin(), steps.end());
  const std::size_t n = steps.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(n)));
  // With ten samples or fewer no percentile qualifies: report the max.
  rank = n > 10 ? std::max<std::size_t>(1, std::min(rank, n - 10)) : n;
  layer["core.step_us_p50"] = median(steps);
  layer["core.step_us_p99"] = n > 0 ? steps[rank - 1] : 0.0;
  layer["core.step_p99_rank"] = n > 0 ? static_cast<double>(rank) : 0.0;
  layer["core.step_samples"] = static_cast<double>(n);
  const std::uint64_t flow_ns =
      dt.flow_commit_ns + dt.flow_advance_ns + dt.flow_drain_ns;
  layer["net.us_per_flow"] = per(flow_ns, dt.flows) * 1e-3;
  layer["net.commit_ms"] = static_cast<double>(dt.flow_commit_ns) * 1e-6;
  layer["net.advance_ms"] = static_cast<double>(dt.flow_advance_ns) * 1e-6;
  layer["net.drain_ms"] = static_cast<double>(dt.flow_drain_ns) * 1e-6;
  layer["net.flows"] = static_cast<double>(dt.flows);
  layer["net.rate_recomputes"] =
      static_cast<double>(dt.replay.value(Counter::kFlowRateRecomputes));
  layer["net.events_popped"] =
      static_cast<double>(dt.replay.value(Counter::kFlowEventsPopped));
  layer["net.active_flows_max"] = static_cast<double>(dt.active_flows_max);
  layer["net.saturated_links"] = static_cast<double>(dt.saturated_links);
}

// --- workloads --------------------------------------------------------------

/// One timed repetition's outputs.
struct RunOutput {
  double wall_s{0.0};
  /// Whole-workload sim-plane counters of this repetition.
  CounterBlock counters;
  std::uint64_t files{0};
  std::uint64_t upload_files{0};
  std::uint64_t sink_ns{0};
  /// Epochs played (epoch game only).
  std::uint64_t epochs{0};
  Observations pins;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Configs of the overlays the workload builds (its set-up).
  [[nodiscard]] virtual std::vector<core::ExperimentConfig> overlays()
      const = 0;
  /// The timed entry call, then the checks on its outputs.
  virtual RunOutput run(Checks& checks) = 0;
  /// The simulations the traced run drives from outside.
  [[nodiscard]] virtual std::vector<DriveSpec> drives() const = 0;
  /// Checks that the outside drives are the program the timed run ran.
  virtual void check_drives(const std::vector<DriveResult>& drives,
                            const RunOutput& run, Checks& checks) const = 0;
};

// paper_grid: the paper's 2x2 grid through run_plan with JSON + CSV sinks.
class PaperGrid final : public Workload {
 public:
  PaperGrid(std::uint64_t seed, bool tiny, std::string out)
      : seed_(seed), files_(tiny ? 100 : 5'000), out_(std::move(out)) {}

  [[nodiscard]] std::vector<core::ExperimentConfig> overlays() const override {
    return {core::paper_config(4, 1.0, files_, seed_),
            core::paper_config(20, 1.0, files_, seed_)};
  }

  RunOutput run(Checks& checks) override {
    harness::ExperimentPlan plan;
    plan.title = "paper_grid";
    plan.base = core::paper_config(4, 1.0, files_, seed_);
    plan.base.label.clear();
    plan.axes = {{"k", {"4", "20"}}, {"originators", {"0.2", "1.0"}}};
    plan.threads = kThreads;
    const std::string json_path = out_ + "/RUN_paper_grid.json";
    RunOutput out;
    CaptureSink capture;
    std::string error;
    bool ok = false;
    const std::uint64_t t0 = now_ns();
    {
      std::ofstream json_file(json_path);
      std::ofstream csv_file(out_ + "/paper_grid.csv");
      harness::JsonSink json(json_file);
      harness::CsvSink csv(csv_file);
      TimedSink timed_json(json, out.sink_ns);
      TimedSink timed_csv(csv, out.sink_ns);
      harness::MetricSink* const sinks[] = {&timed_json, &timed_csv,
                                            &capture};
      ok = harness::run_plan(plan, sinks, error);
    }
    out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;

    checks.expect(ok, "run_plan succeeds " + error);
    checks.expect(capture.records.size() == 4, "paper_grid streams 4 runs");
    std::ifstream in(json_path);
    std::stringstream text;
    text << in.rdbuf();
    JsonValue doc;
    const bool parsed = parse_json(text.str(), doc);
    const auto runs = parsed ? doc.object.find("runs") : doc.object.end();
    checks.expect(parsed && runs != doc.object.end() &&
                      runs->second.array.size() == 4,
                  "RUN_paper_grid.json parses with 4 runs");
    for (std::size_t i = 0; i < capture.records.size(); ++i) {
      const harness::RunRecord& r = capture.records[i];
      const std::string cell = "cell" + std::to_string(i);
      check_conservation(r.counters, cell, checks);
      checks.expect(r.metrics.delivered.mean() ==
                        static_cast<double>(
                            r.counters.value(Counter::kChunksDelivered)),
                    cell + ": delivered metric == chunks_delivered counter");
      checks.expect(r.counters.value(Counter::kRouteBatches) > 0,
                    cell + ": guard route_batches > 0 (batched path ran)");
      observe(out.pins, cell + ".gini_f1", r.metrics.gini_f1.mean(), kStatTol);
      observe(out.pins, cell + ".gini_f2", r.metrics.gini_f2.mean(), kStatTol);
      observe(out.pins, cell + ".gini_f1_income",
              r.metrics.gini_f1_income.mean(), kStatTol);
      observe(out.pins, cell + ".avg_forwarded",
              r.metrics.avg_forwarded.mean(), kStatTol);
      // Gini coefficients are scale-free: pin the money itself too.
      observe(out.pins, cell + ".total_income",
              r.metrics.total_income.mean(), kStatTol);
      observe(out.pins, cell + ".outstanding_debt",
              r.metrics.outstanding_debt.mean(), kStatTol);
      observe_text(out.pins, cell + ".counters_fp",
                   hex64(r.counters.fingerprint()));
      out.counters.merge(r.counters);
    }
    out.files = 4 * files_;
    records_ = std::move(capture.records);
    return out;
  }

  [[nodiscard]] std::vector<DriveSpec> drives() const override {
    std::vector<DriveSpec> specs;
    for (const std::size_t k : {4, 20}) {
      for (const double share : {0.2, 1.0}) {
        DriveSpec spec;
        spec.config = core::paper_config(k, share, files_, seed_);
        spec.segments = {Rng(seed_).split(1)};
        spec.files = files_;
        specs.push_back(std::move(spec));
      }
    }
    return specs;
  }

  void check_drives(const std::vector<DriveResult>& drives,
                    const RunOutput& /*run*/, Checks& checks) const override {
    for (std::size_t i = 0; i < drives.size() && i < records_.size(); ++i) {
      const std::string cell = "cell" + std::to_string(i);
      checks.expect(drives[i].counters == records_[i].counters,
                    cell + ": outside drive reproduces run_plan counters");
      checks.expect(drives[i].fairness.gini_f2 ==
                        records_[i].metrics.gini_f2.mean(),
                    cell + ": outside drive reproduces run_plan Gini F2");
    }
  }

 private:
  std::uint64_t seed_;
  std::size_t files_;
  std::string out_;
  std::vector<harness::RunRecord> records_;
};

// heavy_zipf: the heavy_traffic scenario at 10M requests, 8 shards.
class HeavyZipf final : public Workload {
 public:
  HeavyZipf(std::uint64_t seed, bool tiny, std::string out)
      : seed_(seed),
        requests_(tiny ? 200'000 : 10'000'000),
        shards_(tiny ? 2 : 8),
        // Tiny shards hold ~180 files: open the flash crowd early enough
        // that the burst guard still sees it fire.
        burst_start_(tiny ? 20 : 1'000),
        burst_files_(tiny ? 100 : 5'000),
        out_(std::move(out)) {}

  [[nodiscard]] std::vector<core::ExperimentConfig> overlays() const override {
    return {config()};
  }

  RunOutput run(Checks& checks) override {
    std::vector<std::string> args = {
        "perfbench",
        "requests=" + std::to_string(requests_),
        "shards=" + std::to_string(shards_),
        "threads=" + std::to_string(kThreads),
        "seed=" + std::to_string(seed_),
        "burst_start=" + std::to_string(burst_start_),
        "burst_files=" + std::to_string(burst_files_),
        "out=" + out_};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    std::ostringstream log;
    RunOutput out;
    const std::uint64_t t0 = now_ns();
    const int rc = harness::run_scenario(
        "heavy_traffic", static_cast<int>(argv.size()), argv.data(), log);
    out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;

    checks.expect(rc == 0, "heavy_traffic exits 0");
    std::ifstream in(out_ + "/RUN_heavy_traffic.json");
    std::stringstream text;
    text << in.rdbuf();
    JsonValue doc;
    checks.expect(parse_json(text.str(), doc) && doc.is_object(),
                  "RUN_heavy_traffic.json parses");
    const auto field = [&](const std::string& section,
                           const std::string& key) -> const JsonValue* {
      const std::map<std::string, JsonValue>* obj = &doc.object;
      if (!section.empty()) {
        const auto s = doc.object.find(section);
        if (s == doc.object.end()) return nullptr;
        obj = &s->second.object;
      }
      const auto it = obj->find(key);
      return it == obj->end() ? nullptr : &it->second;
    };
    const auto flag = [&](const char* key) {
      const JsonValue* v = field("", key);
      return v != nullptr && v->boolean;
    };
    const auto count = [&](const std::string& section, const char* key) {
      const JsonValue* v = field(section, key);
      return v != nullptr ? static_cast<std::uint64_t>(v->number) : 0;
    };
    const auto text_of = [&](const std::string& section, const char* key) {
      const JsonValue* v = field(section, key);
      return v != nullptr ? v->string : std::string("missing");
    };
    checks.expect(field("oracle", "within_bound") != nullptr &&
                      field("oracle", "within_bound")->boolean,
                  "heavy_traffic: sketch within the oracle's bound");
    checks.expect(flag("replay_identical"),
                  "heavy_traffic: reset replay identical");
    checks.expect(flag("merge_order_invariant"),
                  "heavy_traffic: merge order invariant");
    checks.expect(flag("request_conservation"),
                  "heavy_traffic: request conservation");
    for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
      const auto c = static_cast<Counter>(i);
      out.counters.bump(c, count("counters",
                                 std::string(telemetry::counter_name(c))
                                     .c_str()));
    }
    check_conservation(out.counters, "heavy_traffic counters", checks);
    checks.expect(count("", "requests") ==
                      out.counters.value(Counter::kRouteWalks),
                  "heavy_traffic: requests == route_walks counter");
    out.files = count("", "files");
    out.upload_files = count("", "upload_files");
    checks.expect(out.counters.value(Counter::kBurstDraws) > 0,
                  "heavy_zipf: guard burst_draws > 0 (flash crowd fired)");
    checks.expect(out.upload_files > 0,
                  "heavy_zipf: guard upload_files > 0 (upload mix ran)");
    observe_text(out.pins, "hops_fp", text_of("hops", "fingerprint"));
    observe_text(out.pins, "counters_fp", text_of("counters", "fingerprint"));
    observe_text(out.pins, "files", std::to_string(out.files));
    return out;
  }

  /// Shard 0 of the scenario, driven from outside.
  [[nodiscard]] std::vector<DriveSpec> drives() const override {
    DriveSpec spec;
    spec.config = config();
    spec.config.sim.stream_sample_cap = 100'000;  // shard 0's oracle sample
    spec.segments = {Rng(seed_).split(1).split(0)};
    spec.quota = requests_ / shards_ + (requests_ % shards_ > 0 ? 1 : 0);
    return {spec};
  }

  void check_drives(const std::vector<DriveResult>& drives,
                    const RunOutput& run, Checks& checks) const override {
    // Shard 0 is one of `shards_` near-equal shares of the run's work.
    for (const DriveResult& d : drives) {
      checks.expect(d.counters.value(Counter::kRouteWalks) * shards_ >=
                            run.counters.value(Counter::kRouteWalks) * 9 / 10 &&
                        d.counters.value(Counter::kBurstDraws) > 0,
                    "heavy_zipf: outside shard-0 drive carries its share "
                    "of the run, flash crowd included");
    }
  }

 private:
  /// The scenario's composed-demand cell.
  [[nodiscard]] core::ExperimentConfig config() const {
    core::ExperimentConfig cfg = core::paper_config(4, 1.0, 0, seed_);
    cfg.label = "heavy_traffic";
    cfg.sim.demand.kind = workload::DemandConfig::Kind::kZipf;
    cfg.sim.demand.zipf_s = 0.9;
    cfg.sim.demand.burst_start = burst_start_;
    cfg.sim.demand.burst_files = burst_files_;
    cfg.sim.demand.burst_share = 0.5;
    cfg.sim.workload.upload_share = 0.1;
    cfg.sim.stream_metrics = true;
    return cfg;
  }

  std::uint64_t seed_;
  std::uint64_t requests_;
  std::uint64_t shards_;
  std::uint64_t burst_start_;
  std::uint64_t burst_files_;
  std::string out_;
};

/// Every accounting output the flow layer must leave untouched (the
/// flow_fct scenario's comparison).
bool same_accounting(const core::ExperimentResult& a,
                     const core::ExperimentResult& b) {
  const core::SimulationTotals& ta = a.totals;
  const core::SimulationTotals& tb = b.totals;
  return ta.files == tb.files && ta.chunk_requests == tb.chunk_requests &&
         ta.delivered == tb.delivered && ta.refused == tb.refused &&
         ta.failed_routes == tb.failed_routes &&
         ta.truncated_routes == tb.truncated_routes &&
         ta.local_hits == tb.local_hits &&
         ta.total_transmissions == tb.total_transmissions &&
         a.served_per_node == b.served_per_node &&
         a.income_per_node == b.income_per_node &&
         a.settlement_count == b.settlement_count &&
         a.outstanding_debt == b.outstanding_debt;
}

// flow_congested: one paper-grid cell with saturating flow-level links.
class FlowCongested final : public Workload {
 public:
  FlowCongested(std::uint64_t seed, bool tiny)
      : seed_(seed), files_(tiny ? 10 : 40) {}

  [[nodiscard]] std::vector<core::ExperimentConfig> overlays() const override {
    return {config(true)};
  }

  RunOutput run(Checks& checks) override {
    const core::ExperimentConfig cfg = config(true);
    RunOutput out;
    const std::uint64_t t0 = now_ns();
    const overlay::Topology topo = core::build_topology(cfg);
    core::Simulation sim(topo, cfg.sim, Rng(cfg.seed).split(1));
    for (std::size_t f = 0; f < files_; ++f) {
      sim.apply(sim.demand_mut().next());
    }
    sim.finish_flows();
    const core::ExperimentResult flow_result =
        core::package_experiment(cfg, sim, 0.0);
    out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;

    // The counter-based run of the same cell must account identically.
    const core::ExperimentConfig counter_cfg = config(false);
    core::Simulation counter_sim(topo, counter_cfg.sim,
                                 Rng(counter_cfg.seed).split(1));
    for (std::size_t f = 0; f < files_; ++f) {
      counter_sim.apply(counter_sim.demand_mut().next());
    }
    const core::ExperimentResult counter_result =
        core::package_experiment(counter_cfg, counter_sim, 0.0);

    const core::SimulationTotals& t = flow_result.totals;
    checks.expect(same_accounting(flow_result, counter_result),
                  "flow_congested: accounting identical to counter mode");
    checks.expect(t.flows_started == t.flows_completed + t.flows_timed_out,
                  "flow_congested: flows_started == completed + timed_out");
    checks.expect(t.flows_started == t.delivered - t.local_hits,
                  "flow_congested: one flow per delivered multi-hop chunk");
    checks.expect(t.saturated_links > 0,
                  "flow_congested: guard saturated_links > 0");
    check_conservation(sim.telem(), "flow_congested", checks);
    observe(out.pins, "fct_p50", t.fct_p50, kFctTol);
    observe(out.pins, "fct_p99", t.fct_p99, kFctTol);
    observe(out.pins, "fct_mean", t.fct_mean, kFctTol);
    observe(out.pins, "gini_f2", flow_result.fairness.gini_f2, kStatTol);
    observe(out.pins, "total_income", flow_result.total_income, kStatTol);
    observe_text(out.pins, "counter_mode_fp",
                 hex64(counter_sim.telem().fingerprint()));
    out.counters = sim.telem();
    out.files = t.files;
    out.upload_files = t.upload_files;
    return out;
  }

  [[nodiscard]] std::vector<DriveSpec> drives() const override {
    DriveSpec spec;
    spec.config = config(true);
    spec.segments = {Rng(seed_).split(1)};
    spec.files = files_;
    return {spec};
  }

  void check_drives(const std::vector<DriveResult>& drives,
                    const RunOutput& run, Checks& checks) const override {
    for (const DriveResult& d : drives) {
      checks.expect(d.counters == run.counters,
                    "flow_congested: outside drive reproduces the counters");
    }
  }

 private:
  [[nodiscard]] core::ExperimentConfig config(bool flow_level) const {
    core::ExperimentConfig cfg = core::paper_config(4, 1.0, files_, seed_);
    cfg.sim.flow_level = flow_level;
    cfg.sim.flow.link_capacity = 0.01;
    cfg.sim.flow.interarrival = 200;
    return cfg;
  }

  std::uint64_t seed_;
  std::size_t files_;
};

// epoch_game: the equilibrium scenario's epoch game through EpochDriver.
class EpochGame final : public Workload {
 public:
  EpochGame(std::uint64_t seed, bool tiny, std::string out)
      : seed_(seed), tiny_(tiny), out_(std::move(out)) {}

  [[nodiscard]] std::vector<core::ExperimentConfig> overlays() const override {
    return {config()};
  }

  RunOutput run(Checks& checks) override {
    const core::ExperimentConfig cfg = config();
    RunOutput out;
    const std::uint64_t t0 = now_ns();
    const overlay::Topology topo = core::build_topology(cfg);
    agents::EpochDriver driver(topo, cfg);
    const agents::EpochSeries series = driver.run();
    {
      std::ofstream file(out_ + "/agents_equilibrium.json");
      agents::write_agents_json(file, "equilibrium", {&series, 1});
    }
    out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;

    out.counters = driver.telem();
    check_conservation(out.counters, "epoch_game", checks);
    std::uint64_t requests = 0;
    for (const agents::EpochPoint& p : series.points) {
      requests += p.chunk_requests;
    }
    checks.expect(!series.points.empty() &&
                      requests == out.counters.value(Counter::kRouteWalks),
                  "epoch_game: epoch chunk requests == route_walks counter");
    checks.expect(out.counters.value(Counter::kAgentRevisions) > 0,
                  "epoch_game: guard revisions > 0");
    observe(out.pins, "final_prevalence", series.final_prevalence, kExact);
    observe_text(out.pins, "converged_epoch",
                 series.converged ? std::to_string(series.converged_epoch)
                                  : std::string("-1"));
    observe_text(out.pins, "counters_fp",
                 hex64(out.counters.fingerprint()));
    epochs_ = series.points.size();
    out.epochs = epochs_;
    first_epoch_ = series.points.empty() ? agents::EpochPoint{}
                                         : series.points.front();
    out.files = epochs_ * cfg.agents.files_per_epoch;
    return out;
  }

  /// The played epochs with the initial strategy assignment, each from
  /// the rng EpochDriver gives that epoch.
  [[nodiscard]] std::vector<DriveSpec> drives() const override {
    DriveSpec spec;
    spec.config = config();
    for (std::size_t e = 0; e < epochs_; ++e) {
      spec.segments.push_back(Rng(seed_).split(1).split(e));
    }
    spec.files = spec.config.agents.files_per_epoch;
    spec.refuse = core::Simulation::sample_free_riders(
        spec.config.topology.node_count,
        spec.config.agents.initial_free_riders, Rng(seed_).split(2));
    return {spec};
  }

  void check_drives(const std::vector<DriveResult>& drives,
                    const RunOutput& /*run*/, Checks& checks) const override {
    for (const DriveResult& d : drives) {
      const core::SimulationTotals& t = d.first_segment;
      checks.expect(t.delivered == first_epoch_.delivered &&
                        t.refused == first_epoch_.refused &&
                        t.chunk_requests == first_epoch_.chunk_requests,
                    "epoch_game: outside drive reproduces epoch 0");
    }
  }

 private:
  /// The equilibrium scenario's defaults.
  [[nodiscard]] core::ExperimentConfig config() const {
    core::ExperimentConfig cfg = core::paper_config(4, 1.0, 0, seed_);
    cfg.label = "equilibrium";
    cfg.agents.epochs = tiny_ ? 6 : 40;
    cfg.agents.files_per_epoch = tiny_ ? 50 : 200;
    cfg.agents.dynamics = "imitate";
    cfg.agents.revision_rate = 0.25;
    cfg.agents.bandwidth_cost = 100.0;
    cfg.agents.initial_free_riders = 0.3;
    return cfg;
  }

  std::uint64_t seed_;
  bool tiny_;
  std::string out_;
  std::size_t epochs_{0};
  agents::EpochPoint first_epoch_{};
};

// --- driver -------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{10.0};
  bool trace{false};
  bool tiny{false};
  std::string pins{"perfbench/pins.json"};
  std::string out{".bench_build/out"};
  bool emit_pins{false};
  bool perturb_pin{false};
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--size") {
      const std::string s = value();
      if (s != "full" && s != "tiny") {
        throw std::invalid_argument("--size is full or tiny");
      }
      o.tiny = s == "tiny";
    } else if (a == "--pins") {
      o.pins = value();
    } else if (a == "--out") {
      o.out = value();
    } else if (a == "--emit-pins") {
      o.emit_pins = true;
    } else if (a == "--perturb-pin") {
      o.perturb_pin = true;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  return o;
}

std::unique_ptr<Workload> make_workload(const Options& o,
                                        std::uint64_t input_seed) {
  if (o.workload == "paper_grid") {
    return std::make_unique<PaperGrid>(input_seed, o.tiny, o.out);
  }
  if (o.workload == "heavy_zipf") {
    return std::make_unique<HeavyZipf>(input_seed, o.tiny, o.out);
  }
  if (o.workload == "flow_congested") {
    return std::make_unique<FlowCongested>(input_seed, o.tiny);
  }
  if (o.workload == "epoch_game") {
    return std::make_unique<EpochGame>(input_seed, o.tiny, o.out);
  }
  throw std::invalid_argument("unknown workload " + o.workload);
}

/// Prints the result line: every metric of `table`, with its unit.
template <std::size_t N>
void print_result(const Checks& checks, const Metric (&table)[N],
                  const Values& values) {
  std::ostringstream line;
  line << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << checks.run()
       << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < N; ++i) {
    line << (i ? ", " : "") << "\"" << table[i].name
         << "\": {\"value\": " << num(values.at(table[i].name))
         << ", \"unit\": \"" << table[i].unit << "\"}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
}

int run(const Options& o) {
  // Repetition r runs input seed 1 + (seed + r) % 16: a run samples the
  // workload over consecutive pinned inputs, so its medians do not hang
  // on one input's size.
  const auto input_seed = [&](std::size_t rep) {
    return 1 + (o.seed + rep) % kPinnedSeeds;
  };
  const auto pin_id = [&](std::size_t rep) {
    return std::string(o.tiny ? "tiny" : "full") + "/" + o.workload + "/" +
           std::to_string(input_seed(rep));
  };
  std::filesystem::create_directories(o.out);
  Checks checks;

  if (o.emit_pins) {
    const RunOutput r = make_workload(o, input_seed(0))->run(checks);
    std::cout << "{\"id\": \"" << pin_id(0) << "\", \"pins\": {";
    for (std::size_t i = 0; i < r.pins.size(); ++i) {
      std::cout << (i ? ", " : "") << "\"" << r.pins[i].key << "\": \""
                << r.pins[i].text << "\"";
    }
    std::cout << "}, \"failed\": " << checks.failed() << "}" << std::endl;
    return checks.failed() == 0 ? 0 : 1;
  }

  const Pins pins(o.pins, o.perturb_pin);
  const std::uint64_t start = now_ns();
  const auto elapsed_s = [&] {
    return static_cast<double>(now_ns() - start) * 1e-9;
  };

  // Set-up: build the workload's overlays (router compile included).
  // The builds are spread over the run, a few before each repetition, so
  // setup_s samples the same stretch of host load as the repetitions.
  std::vector<double> setup_s;
  std::size_t router_bytes = 0;
  const auto set_up = [&](std::size_t rep) {
    const auto w = make_workload(o, input_seed(rep));
    for (std::size_t round = 0; round < kSetupRounds; ++round) {
      std::size_t bytes = 0;
      const std::uint64_t t0 = now_ns();
      for (const core::ExperimentConfig& cfg : w->overlays()) {
        const overlay::Topology topo = core::build_topology(cfg);
        bytes += topo.compiled().memory_bytes();
      }
      setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      if (rep == 0) router_bytes = bytes;
    }
  };

  // Repetitions. The traced run pairs each untraced repetition with a
  // traced one on the same input, for the spans and the trace overhead.
  std::vector<double> wall, chunks_per_s, peak_mb, traced_wall;
  double chunks = 0.0;
  std::vector<Values> traced_layers;
  std::unique_ptr<Workload> first;  // repetition 0, driven from outside
  RunOutput first_out;
  auto& recorder = telemetry::TraceRecorder::instance();
  // An untraced run covers every pinned input at least once, so its
  // totals are taken over the same inputs in every run.
  const double budget = o.trace ? o.seconds / 2 : o.seconds;
  const std::size_t min_reps = o.trace ? 2 : kPinnedSeeds;
  for (std::size_t rep = 0; wall.size() < min_reps || elapsed_s() < budget;
       ++rep) {
    set_up(rep);
    auto w = make_workload(o, input_seed(rep));
    reset_peak_rss();
    RunOutput out = w->run(checks);
    peak_mb.push_back(peak_rss_mb());
    pins.compare(pin_id(rep), out.pins, checks);
    wall.push_back(out.wall_s);
    const auto walks =
        static_cast<double>(out.counters.value(Counter::kRouteWalks));
    chunks += walks;
    chunks_per_s.push_back(walks / out.wall_s);
    if (o.trace) {
      recorder.enable();
      const RunOutput traced = w->run(checks);
      const auto spans = recorder.snapshot();
      recorder.disable();
      recorder.clear();
      pins.compare(pin_id(rep), traced.pins, checks);
      traced_wall.push_back(traced.wall_s);
      Values layer;
      span_metrics(spans, layer);
      layer["harness.sink_ms"] = static_cast<double>(traced.sink_ns) * 1e-6;
      traced_layers.push_back(std::move(layer));
    }
    if (rep == 0) {
      first = std::move(w);
      first_out = std::move(out);
    }
  }

  Values values;
  if (!o.trace) {
    // Means, not medians: the inputs differ in size, and a run's median
    // lands on whichever input's repetitions sit in the middle, while
    // every run covers the same inputs.
    const double total_wall = std::accumulate(wall.begin(), wall.end(), 0.0);
    values["wall_s"] = total_wall / static_cast<double>(wall.size());
    values["setup_s"] = median(setup_s);
    values["chunks_per_s"] = chunks / total_wall;
    values["peak_rss_mb"] = median(peak_mb);
    std::cout << o.workload << " seed " << o.seed << ": " << wall.size()
              << " repetitions from input seed " << input_seed(0)
              << ", wall_s";
    for (const double w : wall) std::cout << " " << w;
    std::cout << ", chunks_per_s";
    for (const double c : chunks_per_s) std::cout << " " << c;
    std::cout << "\n";
    print_result(checks, kEndToEnd, values);
    return 0;
  }

  // Traced run: the outside drives and replays.
  DriveTotals dt;
  std::vector<DriveResult> drives;
  for (const DriveSpec& spec : first->drives()) {
    drives.push_back(drive(spec, dt, checks));
  }
  first->check_drives(drives, first_out, checks);

  drive_metrics(dt, values);
  for (const auto& [key, unused] : traced_layers.front()) {
    std::vector<double> per_rep;
    for (const Values& l : traced_layers) per_rep.push_back(l.at(key));
    values[key] = median(per_rep);
  }
  const CounterBlock& c = first_out.counters;
  const auto count = [&](Counter k) { return static_cast<double>(c.value(k)); };
  values["workload.files"] = static_cast<double>(first_out.files);
  values["workload.chunk_requests"] = count(Counter::kRouteWalks);
  values["workload.upload_files"] =
      static_cast<double>(first_out.upload_files);
  values["workload.burst_draws"] = count(Counter::kBurstDraws);
  values["overlay.build_ms"] = median(setup_s) * 1e3;
  values["overlay.router_bytes"] = static_cast<double>(router_bytes);
  values["accounting.debits"] = count(Counter::kDebits);
  values["accounting.settlements"] = count(Counter::kSettlements);
  values["accounting.refused_payments"] = count(Counter::kRefusedPayments);
  values["agents.epochs"] = static_cast<double>(first_out.epochs);
  values["agents.revisions"] = count(Counter::kAgentRevisions);
  const double untraced = median(wall);
  values["trace.overhead_share"] = (median(traced_wall) - untraced) / untraced;
  values["check_failures"] = static_cast<double>(checks.failed()) /
                             static_cast<double>(checks.run());
  std::cout << o.workload << " seed " << o.seed << ": " << wall.size()
            << " untraced + " << traced_wall.size()
            << " traced repetitions, " << drives.size()
            << " outside drives from input seed " << input_seed(0) << "\n";
  print_result(checks, kPerLayer, values);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
