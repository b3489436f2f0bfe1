#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "calibration.h"
#include "safeopt/support/json.h"

namespace perfbench {

// ------------------------------------------------------------------ tracing

Tracer::Tracer(bool enabled, std::uint32_t thread_id)
    : enabled_(enabled),
      epoch_(host_calibration().epoch()),
      thread_id_(thread_id) {}

Tracer::Scope::Scope(Tracer* tracer, std::string_view name)
    : tracer_(tracer->enabled_ ? tracer : nullptr) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = std::string(name);
  span.op = tracer_->op_;
  span.parent = tracer_->open_.empty() ? Span::kNoParent
                                       : tracer_->open_.back();
  index_ = static_cast<std::uint32_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
  tracer_->spans_[index_].start_us =
      std::chrono::duration<double, std::micro>(Clock::now() -
                                                tracer_->epoch_)
          .count();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() -
                                                tracer_->epoch_)
          .count();
  tracer_->open_.pop_back();
}

std::map<std::string, SpanSummary> summarize(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, SpanSummary> out;
  for (const Tracer* tracer : tracers) {
    const std::vector<Span>& spans = tracer->spans();
    std::vector<double> child_us(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent != Span::kNoParent) {
        child_us[span.parent] += span.end_us - span.start_us;
      }
    }
    const Calibration& calibration = host_calibration();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double factor = calibration.factor_at(
          calibration.epoch() +
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double, std::micro>(spans[i].start_us)));
      const double duration = factor * (spans[i].end_us - spans[i].start_us);
      child_us[i] *= factor;
      SpanSummary& summary = out[spans[i].name];
      summary.calls += 1;
      summary.total_ms += duration / 1000.0;
      summary.self_ms += (duration - child_us[i]) / 1000.0;
    }
  }
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const Tracer*>& tracers) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  bool first = true;
  char line[512];
  for (const Tracer* tracer : tracers) {
    for (const Span& span : tracer->spans()) {
      std::snprintf(line, sizeof(line),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu}}",
                    first ? "" : ",\n", span.name.c_str(), tracer->thread_id(),
                    span.start_us, span.end_us - span.start_us,
                    static_cast<unsigned long long>(span.op));
      out << line;
      first = false;
    }
  }
  out << "\n]}\n";
  return out.good();
}

// ------------------------------------------------------------- statistics

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least p of the sample at or
  // below it.
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

std::uint64_t combine_hash(std::uint64_t fingerprint, std::uint64_t hash) {
  // FNV-1a over the eight bytes of `hash`, continuing from `fingerprint`.
  for (int byte = 0; byte < 8; ++byte) {
    fingerprint ^= (hash >> (8 * byte)) & 0xffu;
    fingerprint *= 0x100000001b3ULL;
  }
  return fingerprint;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ------------------------------------------------------------ closed loop

double reference_ms(Clock::time_point begin, double ms) {
  return ms * host_calibration().factor_at(
                  begin + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(
                                  ms / 2.0)));
}

LoopResult closed_loop(double seconds, std::uint64_t min_ops,
                       std::uint64_t first_index, const OpFn& op) {
  Calibration& calibration = host_calibration();
  // About 4% of the run goes to calibration.
  const double burst_period_ms =
      25.0 * static_cast<double>(calibration.profile().size());
  calibration.burst();
  std::vector<Clock::time_point> op_begin;
  LoopResult result;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::uint64_t index = first_index;
  while (Clock::now() < stop || result.attempted < min_ops) {
    double work = 0.0;
    double events = 0.0;
    bool ok = false;
    const Clock::time_point begin = Clock::now();
    try {
      ok = op(index, work, events);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "perfbench: op %llu threw: %s\n",
                   static_cast<unsigned long long>(index), error.what());
      ok = false;
    }
    const Clock::time_point end = Clock::now();
    if (!ok) {
      std::fprintf(stderr, "perfbench: op %llu failed its check\n",
                   static_cast<unsigned long long>(index));
    }
    op_begin.push_back(begin);
    result.op_ms.push_back(ms_between(begin, end));
    result.attempted += 1;
    if (!ok) result.failed += 1;
    result.work += work;
    result.events += events;
    ++index;
    calibration.maybe_burst(burst_period_ms);
  }
  result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  calibration.burst();
  for (std::size_t i = 0; i < result.op_ms.size(); ++i) {
    result.op_ref_ms.push_back(reference_ms(op_begin[i], result.op_ms[i]));
    result.busy_ref_s += result.op_ref_ms.back() / 1000.0;
  }
  return result;
}

SetupTime timed_setup(int repeats, const std::function<void()>& setup) {
  constexpr int kBursts = 3;
  Calibration& calibration = host_calibration();
  std::vector<double> wall;
  std::vector<double> reference;
  for (int i = 0; i < repeats; ++i) {
    const std::size_t first = calibration.bursts();
    for (int b = 0; b < kBursts; ++b) calibration.burst();
    const Clock::time_point start = Clock::now();
    setup();
    const double seconds = ms_between(start, Clock::now()) / 1000.0;
    for (int b = 0; b < kBursts; ++b) calibration.burst();
    wall.push_back(seconds);
    reference.push_back(seconds * calibration.factor_since(first));
  }
  return {median(wall), median(reference)};
}

// ---------------------------------------------------------------- report

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Row& row : metrics) {
    if (row.name == name) {
      row.value = value;
      row.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

bool Report::has(const std::string& name) const {
  return std::any_of(metrics.begin(), metrics.end(),
                     [&](const Row& row) { return row.name == name; });
}

void end_to_end_metrics(Report& report, const LoopResult& loop,
                        const SetupTime& setup, const std::string& work_unit) {
  report.set("op_ms_p50", percentile(loop.op_ref_ms, 0.50), "ms");
  report.set("op_ms_p90", percentile(loop.op_ref_ms, 0.90), "ms");
  report.set("op_ms_p99", percentile(loop.op_ref_ms, 0.99), "ms");
  report.set("ops_per_s",
             static_cast<double>(loop.attempted) / loop.busy_ref_s, "1/s");
  report.set("work_per_s", loop.work / loop.busy_ref_s, "1/s");
  report.set("peak_rss_mb", peak_rss_mb(), "MiB");
  report.set("setup_s", setup.ref_s, "s");
  char line[320];
  std::snprintf(line, sizeof(line),
                "work_per_s counts %s; events_per_s = %.6g 1/s (basic events "
                "quantified per second); %zu op samples, %zu beyond p90, %zu "
                "beyond p99",
                work_unit.c_str(), loop.events / loop.busy_ref_s,
                loop.op_ms.size(), loop.op_ms.size() / 10,
                loop.op_ms.size() / 100);
  report.note(line);
  const Calibration& calibration = host_calibration();
  std::snprintf(line, sizeof(line),
                "wall clock, before calibration: op p50 %.4f ms, p90 %.4f "
                "ms, p99 %.4f ms, %.4f ops/s over %.3f s, set-up %.4f s; "
                "%zu bursts, mean host factor %.4f",
                percentile(loop.op_ms, 0.50), percentile(loop.op_ms, 0.90),
                percentile(loop.op_ms, 0.99),
                static_cast<double>(loop.attempted) / loop.wall_s,
                loop.wall_s, setup.wall_s, calibration.bursts(),
                calibration.mean_factor());
  report.note(line);
}

const std::vector<std::pair<std::string, std::string>>&
per_layer_metric_units() {
  // BENCHMARK.json is the one list of per-layer metrics and their units.
  static const std::vector<std::pair<std::string, std::string>> kUnits = [] {
    const std::string path =
        std::string(PERFBENCH_SOURCE_ROOT) + "/BENCHMARK.json";
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    const safeopt::JsonValue root = safeopt::JsonValue::parse(text.str());
    const safeopt::JsonValue* metrics = root.find("per_layer");
    if (metrics == nullptr) {
      throw std::runtime_error(path + " has no \"per_layer\" list");
    }
    std::vector<std::pair<std::string, std::string>> units;
    for (const safeopt::JsonValue& metric : metrics->items()) {
      units.emplace_back(metric.find("name")->as_string(),
                         metric.find("unit")->as_string());
    }
    return units;
  }();
  return kUnits;
}

const std::string& layer_unit(const std::string& name) {
  for (const auto& [metric, unit] : per_layer_metric_units()) {
    if (metric == name) return unit;
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

void set_layer(Report& report, const std::string& name, double value) {
  report.set(name, value, layer_unit(name));
}

void layer_metrics_from_spans(
    Report& report, const std::map<std::string, SpanSummary>& spans) {
  for (const auto& [metric, unit] : per_layer_metric_units()) {
    double scale = 0.0;
    std::string span_name;
    if (unit == "ms" && metric.size() > 3 &&
        metric.compare(metric.size() - 3, 3, "_ms") == 0) {
      span_name = metric.substr(0, metric.size() - 3);
      scale = 1.0;
    } else if (unit == "us" && metric.size() > 3 &&
               metric.compare(metric.size() - 3, 3, "_us") == 0) {
      span_name = metric.substr(0, metric.size() - 3);
      scale = 1000.0;
    } else {
      continue;
    }
    const auto found = spans.find(span_name);
    if (found == spans.end() || found->second.calls == 0) continue;
    report.set(metric,
               scale * found->second.total_ms /
                   static_cast<double>(found->second.calls),
               unit);
  }
}

void note_self_times(Report& report,
                     const std::map<std::string, SpanSummary>& spans,
                     std::uint64_t ops) {
  std::map<std::string, double> layer_self_ms;
  for (const auto& [name, summary] : spans) {
    const std::string layer = name.substr(0, name.find('.'));
    layer_self_ms[layer] += summary.self_ms;
  }
  report.note("per-layer self time over the traced ops (span time minus "
              "child spans):");
  char line[256];
  for (const auto& [layer, self_ms] : layer_self_ms) {
    std::snprintf(line, sizeof(line),
                  "  %-8s self %10.3f ms total  %9.4f ms/op",
                  layer.c_str(), self_ms,
                  ops == 0 ? 0.0 : self_ms / static_cast<double>(ops));
    report.note(line);
  }
  for (const auto& [name, summary] : spans) {
    std::snprintf(line, sizeof(line),
                  "  span %-24s %8llu calls  total %10.3f ms  self %10.3f ms",
                  name.c_str(), static_cast<unsigned long long>(summary.calls),
                  summary.total_ms, summary.self_ms);
    report.note(line);
  }
}

void finish_traced_run(Report& report, const RunOptions& options,
                       const std::vector<double>& untraced_ms,
                       const std::vector<double>& traced_ms,
                       const std::vector<const Tracer*>& op_tracers,
                       const Tracer& probe_tracer) {
  const auto mean = [](const std::vector<double>& values) {
    double sum = 0.0;
    for (const double v : values) sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
  };
  const double plain = mean(untraced_ms);
  const double with_spans = mean(traced_ms);
  // Both lists hold reference-speed times.
  set_layer(report, "trace.overhead_pct",
            plain > 0.0 ? 100.0 * (with_spans - plain) / plain : 0.0);
  char line[256];
  std::snprintf(line, sizeof(line),
                "tracing overhead: mean op %.4f ms untraced (%zu ops) vs "
                "%.4f ms traced (%zu ops), alternate cycles",
                plain, untraced_ms.size(), with_spans, traced_ms.size());
  report.note(line);

  const std::map<std::string, SpanSummary> spans = summarize(op_tracers);
  layer_metrics_from_spans(report, spans);
  note_self_times(report, spans, traced_ms.size());
  if (!options.trace_dir.empty()) {
    const std::string path = options.trace_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".trace.json";
    std::vector<const Tracer*> tracers = op_tracers;
    tracers.push_back(&probe_tracer);
    if (write_chrome_trace(path, tracers)) {
      report.note("spans written to " + path);
    } else {
      report.note("could not write spans to " + path);
    }
  }
}

}  // namespace perfbench
