// perfbench harness: the pieces every workload shares — the closed-loop
// timer, the in-memory span recorder, percentile summaries, the per-layer
// metric table and the report every run prints.
#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point start,
                                       Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// What the command line asked for.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string trace_dir;
};

/// One recorded span: a call into a layer's public function, made from the
/// benchmark's own code. `parent` indexes the enclosing span of the same
/// recorder (kNoParent at op level); `op` groups the spans of one op.
struct Span {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  std::string name;
  std::uint64_t op = 0;
  std::uint32_t parent = kNoParent;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Span recorder for one thread. Disabled, a scope costs one branch and no
/// clock read. Spans stay in memory until the run ends; their times count
/// from the host calibration's epoch.
class Tracer {
 public:
  Tracer(bool enabled, std::uint32_t thread_id);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  void begin_op(std::uint64_t op) noexcept { op_ = op; }

  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::uint32_t index_ = 0;
  };

  /// Opens a span that closes when the returned scope is destroyed.
  [[nodiscard]] Scope span(std::string_view name) { return Scope(this, name); }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::uint32_t thread_id() const noexcept { return thread_id_; }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::uint32_t thread_id_;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// Total and self time (span time minus the time its child spans cover)
/// per span name, over every recorder, at the reference speed.
struct SpanSummary {
  std::uint64_t calls = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
[[nodiscard]] std::map<std::string, SpanSummary> summarize(
    const std::vector<const Tracer*>& tracers);

/// Writes every span as Chrome trace-event JSON ("X" events, one track per
/// recorder thread); opens in Perfetto or chrome://tracing.
bool write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers);

/// Nearest-rank percentile of `values` (need not be sorted); 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double p);

[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set size of this process, in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Order-dependent combination of canonical document hashes: the input
/// fingerprint a workload prints so two runs can show they measured the
/// same documents.
[[nodiscard]] std::uint64_t combine_hash(std::uint64_t fingerprint,
                                         std::uint64_t hash);

/// Derives independent 64-bit streams from the run seed (splitmix64).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

/// What one closed loop produced. Raw wall-clock times, and the same times
/// at the reference speed (calibration.h), which the metrics report.
struct LoopResult {
  std::vector<double> op_ms;
  std::vector<double> op_ref_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double work = 0.0;
  double events = 0.0;
  double wall_s = 0.0;
  /// Reference-speed time the ops kept the system busy (calibration
  /// bursts and client pauses excluded); the rates divide by it.
  double busy_ref_s = 0.0;
};

/// The reference-speed duration of an interval that began at `begin` and
/// lasted `ms` of wall time.
[[nodiscard]] double reference_ms(Clock::time_point begin, double ms);

/// One op: runs op number `index`, returns whether its answer checked out,
/// and adds its work units (`work`) and basic events quantified (`events`).
using OpFn = std::function<bool(std::uint64_t index, double& work,
                                double& events)>;

/// Runs `op` back to back for `seconds` (at least `min_ops` ops), timing
/// each op, with a calibration burst between ops about every 25 ms per
/// kernel. A thrown exception counts as a failed op.
[[nodiscard]] LoopResult closed_loop(double seconds, std::uint64_t min_ops,
                                     std::uint64_t first_index,
                                     const OpFn& op);

/// Everything one run reports: end-to-end metrics from the untraced loop,
/// per-layer metrics from the traced one, and the facts that explain them.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Ordered (name, value, unit) rows.
  struct Row {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Row> metrics;
  /// Human-readable lines printed before the JSON line.
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// Set-up time: the median of several set-ups, raw and at reference speed.
struct SetupTime {
  double wall_s = 0.0;
  double ref_s = 0.0;
};

/// Fills the end-to-end rows shared by every workload from a loop result.
/// `work_unit` names what work_per_s counts on this workload.
void end_to_end_metrics(Report& report, const LoopResult& loop,
                        const SetupTime& setup, const std::string& work_unit);

/// The per-layer metric names and units, as BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_metric_units();

/// The unit the per-layer table declares for `name`.
[[nodiscard]] const std::string& layer_unit(const std::string& name);

/// Fills a per-layer row with the unit the metric table declares.
void set_layer(Report& report, const std::string& name, double value);

/// Copies span means into per-layer rows: <span>_ms / <span>_us.
void layer_metrics_from_spans(Report& report,
                              const std::map<std::string, SpanSummary>& spans);

/// Adds the per-layer self-time table to the report's notes.
void note_self_times(Report& report,
                     const std::map<std::string, SpanSummary>& spans,
                     std::uint64_t ops);

/// The traced-run tail shared by every workload: overhead, per-layer
/// metrics and self times from the ops' spans, and the trace file (which
/// also holds the probes' spans).
void finish_traced_run(Report& report, const RunOptions& options,
                       const std::vector<double>& untraced_ms,
                       const std::vector<double>& traced_ms,
                       const std::vector<const Tracer*>& op_tracers,
                       const Tracer& probe_tracer);

/// Runs `setup` `repeats` times, each between calibration bursts, and
/// returns the median time; the last repetition's state is what the run
/// uses.
[[nodiscard]] SetupTime timed_setup(int repeats,
                                    const std::function<void()>& setup);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H
