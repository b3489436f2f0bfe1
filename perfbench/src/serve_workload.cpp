// serve_mixed: an in-process `safeopt serve` on loopback, driven by two
// closed-loop clients. Most requests re-send a small working set of
// shipped models (cache hits); one in five sends a never-seen document
// (a cache miss that parses, compiles, inserts and evicts).
#include <array>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "calibration.h"
#include "http_client.h"
#include "inputs.h"
#include "probes.h"
#include "safeopt/serve/analysis_graph.h"
#include "safeopt/serve/server.h"
#include "safeopt/support/mutex.h"
#include "safeopt/support/strings.h"
#include "workloads.h"

namespace perfbench {

namespace serve = safeopt::serve;

namespace {

constexpr std::size_t kClients = 2;
constexpr std::size_t kWorkers = 2;
/// Holds the working set (about 0.4 MiB of artifacts by the cache's own
/// estimates) plus a few corpus misses (about 0.16 MiB each), so misses
/// evict older misses while the hot working set stays resident.
constexpr std::size_t kCacheBytes = std::size_t{4} << 20;
/// Distinct 1k-event corpus trees the corpus misses are edits of; enough
/// that the miss latency does not rest on a few trees' structure.
constexpr std::size_t kCorpusBases = 48;

/// One client cycle of 50 requests: 37 cached quantify reads, one cached
/// optimize, 2 perturbed shipped models and 10 perturbed 1k-event corpus
/// trees, both never seen before. The median request is a hit; the corpus
/// misses are the slowest fifth, so p90 sits in their middle and p99 inside
/// them.
enum class Kind : char { kHit, kOptimize, kShippedMiss, kCorpusMiss };
constexpr std::array<Kind, 50> kCycle = [] {
  std::array<Kind, 50> cycle{};
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    cycle[i] = i % 5 == 2 ? Kind::kCorpusMiss : Kind::kHit;
  }
  cycle[10] = Kind::kShippedMiss;
  cycle[35] = Kind::kShippedMiss;
  cycle[24] = Kind::kOptimize;
  return cycle;
}();

struct Request {
  Kind kind = Kind::kHit;
  std::string target;
  std::string model;
  /// The document: owned here for misses, in the working set for hits.
  std::string owned_text;
  const std::string* shared_text = nullptr;
  std::size_t events = 0;
  /// The expected body, for requests whose answer set-up rendered.
  const std::string* expected = nullptr;

  [[nodiscard]] const std::string& text() const {
    return shared_text != nullptr ? *shared_text : owned_text;
  }
};

/// One request as sent and answered. The document is not kept — it is a
/// pure function of (client, k) — and the body only as a hash, so memory
/// does not grow with the number of requests a run sends.
struct Exchange {
  std::size_t client = 0;
  std::uint64_t k = 0;
  Kind kind = Kind::kHit;
  std::size_t events = 0;
  int status = 0;
  std::uint64_t body_hash = 0;
  Clock::time_point begin;
  double ms = 0.0;
};

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Stops every client for a calibration burst once per period. The clients
/// are closed loops, so with all of them stopped no request is in flight
/// and the burst times the host, not the server's own load.
class CalibrationPause {
 public:
  CalibrationPause(std::size_t clients, double period_ms)
      : active_(clients), period_ms_(period_ms) {}

  /// Called by each client between two requests.
  void between_requests() {
    safeopt::MutexLock lock(mutex_);
    if (!pausing_) {
      if (ms_between(last_release_, Clock::now()) < period_ms_) return;
      pausing_ = true;
      pause_begin_ = Clock::now();
    }
    ++arrived_;
    if (arrived_ == active_) {
      release_locked();
      return;
    }
    const std::uint64_t generation = generation_;
    while (generation_ == generation) lock.wait(released_);
  }

  /// Called by a client that has sent its last request.
  void leave() {
    safeopt::MutexLock lock(mutex_);
    --active_;
    if (pausing_ && arrived_ == active_) release_locked();
  }

  /// The pauses, for subtracting from the busy time.
  [[nodiscard]] std::vector<std::pair<Clock::time_point, Clock::time_point>>
  pauses() {
    safeopt::MutexLock lock(mutex_);
    return pauses_;
  }

 private:
  void release_locked() SAFEOPT_REQUIRES(mutex_) {
    host_calibration().burst();
    host_calibration().burst();
    last_release_ = Clock::now();
    pauses_.emplace_back(pause_begin_, last_release_);
    pausing_ = false;
    arrived_ = 0;
    ++generation_;
    released_.notify_all();
  }

  safeopt::Mutex mutex_;
  std::condition_variable released_;
  std::size_t active_ SAFEOPT_GUARDED_BY(mutex_);
  std::size_t arrived_ SAFEOPT_GUARDED_BY(mutex_) = 0;
  bool pausing_ SAFEOPT_GUARDED_BY(mutex_) = false;
  std::uint64_t generation_ SAFEOPT_GUARDED_BY(mutex_) = 0;
  Clock::time_point pause_begin_ SAFEOPT_GUARDED_BY(mutex_);
  Clock::time_point last_release_ SAFEOPT_GUARDED_BY(mutex_) = Clock::now();
  std::vector<std::pair<Clock::time_point, Clock::time_point>> pauses_
      SAFEOPT_GUARDED_BY(mutex_);
  const double period_ms_;
};

struct ServeInputs {
  std::vector<Document> working_set;   // quantify hits
  std::vector<Document> optimize_set;  // optimize hits
  std::vector<std::string> quantify_expected;
  std::vector<std::string> optimize_expected;
  std::vector<Document> shipped_bases;
  std::vector<Document> corpus_bases;
};

}  // namespace

Report run_serve_mixed(const RunOptions& options) {
  host_calibration().set_profile({Kernel::kMemory, Kernel::kSyscall});
  ServeInputs inputs;
  std::unique_ptr<serve::Server> server;
  const std::uint64_t seed = options.seed;

  const auto build = [&] {
    if (server) server->stop();
    server.reset();
    inputs = ServeInputs{};
    std::uint64_t stream = 0;
    constexpr std::array<const char*, 4> kModels = {
        "elbtunnel", "cooling_system", "railroad_crossing", "pressure_vessel"};
    for (const char* model : kModels) {
      const std::string text = shipped_model(model);
      Document base;
      base.name = model;
      base.text = text;
      describe(base);
      inputs.shipped_bases.push_back(base);
      for (int variant = 0; variant < 2; ++variant) {
        Document doc;
        doc.name = safeopt::concat(model, "-", std::to_string(variant));
        doc.text = scale_first_hazard_cost(
            text, unit_interval(derive_seed(seed, stream++), 0.5, 2.0));
        describe(doc);
        inputs.working_set.push_back(doc);
      }
      if (std::string(model) != "pressure_vessel") {
        inputs.optimize_set.push_back(inputs.working_set.back());
      }
    }
    for (std::size_t i = 0; i < kCorpusBases; ++i) {
      Document doc = corpus_document(50, 20, 25, derive_seed(seed, 100 + i),
                                     "engine bdd preprocess = true;");
      describe(doc);
      inputs.corpus_bases.push_back(std::move(doc));
    }
    serve::AnalysisGraph offline(std::size_t{64} << 20);
    for (const Document& doc : inputs.working_set) {
      serve::AnalysisOptions analysis;
      analysis.model = doc.name;
      inputs.quantify_expected.push_back(
          offline.quantify(doc.text, analysis, nullptr));
    }
    for (const Document& doc : inputs.optimize_set) {
      serve::AnalysisOptions analysis;
      analysis.model = doc.name;
      inputs.optimize_expected.push_back(
          offline.optimize(doc.text, analysis, nullptr));
    }
    serve::ServerOptions server_options;
    server_options.threads = kWorkers;
    server_options.cache_bytes = kCacheBytes;
    server = std::make_unique<serve::Server>(server_options);
    server->start();
    // Warm-up: every working-set answer is computed and cached before the
    // clock starts.
    for (std::size_t i = 0; i < inputs.working_set.size(); ++i) {
      const Document& doc = inputs.working_set[i];
      (void)http_post(server->port(), "/v1/quantify",
                      request_body(doc.text, doc.name));
    }
    for (const Document& doc : inputs.optimize_set) {
      (void)http_post(server->port(), "/v1/optimize",
                      request_body(doc.text, doc.name));
    }
  };
  const SetupTime setup = timed_setup(kSetupRepeats, build);

  // Client `client`'s request number `k`: a pure function of the seed.
  const auto make_request = [&](std::size_t client, std::uint64_t k) {
    Request request;
    request.kind = kCycle[k % kCycle.size()];
    const std::uint64_t draw =
        derive_seed(seed, 1000 + client * (1ull << 40) + k);
    switch (request.kind) {
      case Kind::kHit: {
        const std::size_t i = draw % inputs.working_set.size();
        request.target = "/v1/quantify";
        request.model = inputs.working_set[i].name;
        request.shared_text = &inputs.working_set[i].text;
        request.events = inputs.working_set[i].events;
        request.expected = &inputs.quantify_expected[i];
        break;
      }
      case Kind::kOptimize: {
        const std::size_t i = draw % inputs.optimize_set.size();
        request.target = "/v1/optimize";
        request.model = inputs.optimize_set[i].name;
        request.shared_text = &inputs.optimize_set[i].text;
        request.events = inputs.optimize_set[i].events;
        request.expected = &inputs.optimize_expected[i];
        break;
      }
      case Kind::kShippedMiss: {
        // Not the pressure vessel: its mc_adaptive miss is slower than a
        // corpus miss and would put p99 on a class of its own.
        const Document& base = inputs.shipped_bases[draw % 3];
        request.target = "/v1/quantify";
        request.model = base.name;
        request.owned_text = scale_first_hazard_cost(
            base.text, unit_interval(derive_seed(draw, 1), 0.5, 2.0));
        request.events = base.events;
        break;
      }
      case Kind::kCorpusMiss: {
        const Document& base =
            inputs.corpus_bases[draw % inputs.corpus_bases.size()];
        request.target = "/v1/quantify";
        request.model = base.name;
        request.owned_text = set_first_probability(
            base.text, unit_interval(derive_seed(draw, 1), 0.001, 0.05));
        request.events = base.events;
        break;
      }
    }
    return request;
  };

  std::vector<std::unique_ptr<Tracer>> tracers;
  for (std::size_t c = 0; c < kClients; ++c) {
    tracers.push_back(
        std::make_unique<Tracer>(false, static_cast<std::uint32_t>(c)));
  }

  // Both clients run back to back for the run's time and at least 1000
  // requests between them. Traced runs record spans on every other cycle
  // of each client's requests.
  const serve::CacheStats cache_before = server->cache_stats();
  const serve::ServerStats server_before = server->stats();
  constexpr std::uint64_t kMinRequests = 1000;
  std::array<std::vector<Exchange>, kClients> logs;
  std::array<std::vector<bool>, kClients> traced;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.seconds));
  CalibrationPause pause(kClients, 500.0);
  host_calibration().burst();
  // A client that throws outside its request stops early and fails the run.
  std::array<bool, kClients> stopped_early{};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Tracer& tracer = *tracers[c];
      try {
        for (std::uint64_t k = 0;
             Clock::now() < stop || logs[c].size() < kMinRequests / kClients;
             ++k) {
          pause.between_requests();
          const Request request = make_request(c, k);
          const std::string body = request_body(request.text(), request.model);
          Exchange exchange;
          exchange.client = c;
          exchange.k = k;
          exchange.kind = request.kind;
          exchange.events = request.events;
          tracer.set_enabled(traced_cycle(options, k, kCycle.size()));
          tracer.begin_op(c * (1ull << 40) + k);
          const Clock::time_point begin = Clock::now();
          exchange.begin = begin;
          try {
            const Tracer::Scope span = tracer.span("serve.request");
            HttpReply reply =
                http_post(server->port(), request.target, body);
            exchange.status = reply.status;
            exchange.body_hash = fnv1a(reply.body);
          } catch (const std::exception& error) {
            std::fprintf(stderr, "perfbench: request failed: %s\n",
                         error.what());
          }
          exchange.ms = ms_between(begin, Clock::now());
          traced[c].push_back(tracer.enabled());
          logs[c].push_back(std::move(exchange));
        }
      } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: client %zu stopped: %s\n", c,
                     error.what());
        stopped_early[c] = true;
      }
      tracer.set_enabled(false);
      pause.leave();
    });
  }
  for (std::thread& client : clients) client.join();
  const Clock::time_point end = Clock::now();
  host_calibration().burst();
  Phases phases;
  phases.all.wall_s = std::chrono::duration<double>(end - start).count();
  phases.all.busy_ref_s = host_calibration().reference_seconds(start, end);
  for (const auto& [from, to] : pause.pauses()) {
    phases.all.busy_ref_s -= host_calibration().reference_seconds(from, to);
  }
  std::vector<Exchange> log;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t k = 0; k < logs[c].size(); ++k) {
      Exchange& exchange = logs[c][k];
      const double ref_ms = reference_ms(exchange.begin, exchange.ms);
      phases.all.op_ms.push_back(exchange.ms);
      phases.all.op_ref_ms.push_back(ref_ms);
      (traced[c][k] ? phases.traced_ms : phases.untraced_ms).push_back(ref_ms);
      phases.all.attempted += 1;
      phases.all.work += static_cast<double>(exchange.events);
      phases.all.events += static_cast<double>(exchange.events);
      log.push_back(std::move(exchange));
    }
  }
  const serve::CacheStats cache_after = server->cache_stats();
  const serve::ServerStats server_after = server->stats();
  server->stop();

  // Every answer is checked against an offline AnalysisGraph render of the
  // same document; replaying the log through one graph with the server's
  // budget also times the pass graph without HTTP.
  serve::AnalysisGraph offline(kCacheBytes);
  std::uint64_t wrong = 0;
  std::vector<double> graph_us;
  std::vector<double> offline_hit_us;
  std::vector<double> hit_ms;
  for (const Exchange& exchange : log) {
    const Request request = make_request(exchange.client, exchange.k);
    serve::AnalysisOptions analysis;
    analysis.model = request.model;
    std::string expected;
    const Clock::time_point begin = Clock::now();
    if (request.target == "/v1/optimize") {
      expected = offline.optimize(request.text(), analysis, nullptr);
    } else {
      expected = offline.quantify(request.text(), analysis, nullptr);
    }
    const double us = 1000.0 * ms_between(begin, Clock::now());
    graph_us.push_back(us);
    if (exchange.kind == Kind::kHit) {
      offline_hit_us.push_back(us);
      hit_ms.push_back(reference_ms(exchange.begin, exchange.ms));
    }
    const bool ok = exchange.status == 200 &&
                    exchange.body_hash == fnv1a(expected) &&
                    (request.expected == nullptr ||
                     *request.expected == expected);
    if (!ok) ++wrong;
  }
  Report report;
  {
    std::vector<Document> docs = inputs.working_set;
    docs.insert(docs.end(), inputs.corpus_bases.begin(),
                inputs.corpus_bases.end());
    char line[200];
    std::snprintf(line, sizeof(line),
                  "input fingerprint %016llx over %zu working-set and corpus "
                  "base documents (misses are seeded edits of the bases)",
                  static_cast<unsigned long long>(fingerprint(docs)),
                  docs.size());
    report.note(line);
    std::snprintf(line, sizeof(line),
                  "server: %zu workers, %zu closed-loop clients, cache budget "
                  "%zu bytes, %zu in use after warm-up",
                  kWorkers, kClients, kCacheBytes, cache_before.bytes_in_use);
    report.note(line);
  }
  record_phases(report, options, phases, setup,
                "basic events in the documents answered (events_per_s)");
  // A wrong body or a non-200 status is a failed request.
  report.failed = wrong;
  report.correct = report.correct && wrong == 0;
  for (const bool early : stopped_early) {
    if (early) report.correct = false;
  }

  const auto pass_hits = [](const serve::CacheStats& stats) {
    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;
    for (const char* pass : {"quantify", "optimize"}) {
      const auto found = stats.passes.find(pass);
      if (found == stats.passes.end()) continue;
      hits += found->second.hits;
      lookups += found->second.hits + found->second.misses;
    }
    return std::pair<double, double>(static_cast<double>(hits),
                                     static_cast<double>(lookups));
  };
  const auto [hits_after, lookups_after] = pass_hits(cache_after);
  const auto [hits_before, lookups_before] = pass_hits(cache_before);
  char line[200];
  std::snprintf(line, sizeof(line),
                "cache: %.0f of %.0f request lookups hit, %llu evictions, %llu "
                "single-flight waits; server shed %llu",
                hits_after - hits_before, lookups_after - lookups_before,
                static_cast<unsigned long long>(cache_after.evictions -
                                                cache_before.evictions),
                static_cast<unsigned long long>(
                    cache_after.single_flight_waits -
                    cache_before.single_flight_waits),
                static_cast<unsigned long long>(server_after.shed -
                                                server_before.shed));
  report.note(line);

  if (options.trace) {
    set_layer(report, "serve.hit_ratio",
              (hits_after - hits_before) / (lookups_after - lookups_before));
    set_layer(report, "serve.evictions",
              static_cast<double>(cache_after.evictions -
                                  cache_before.evictions));
    set_layer(report, "serve.single_flight_waits",
              static_cast<double>(cache_after.single_flight_waits -
                                  cache_before.single_flight_waits));
    set_layer(report, "serve.shed",
              static_cast<double>(server_after.shed - server_before.shed));
    double graph_total = 0.0;
    for (const double us : graph_us) graph_total += us;
    set_layer(report, "serve.graph_us",
              graph_total / static_cast<double>(graph_us.size()));
    set_layer(report, "serve.http_overhead_us",
              1000.0 * median(hit_ms) - median(offline_hit_us));

    Tracer probe_tracer(true, kClients);
    LayerProbe probe(probe_tracer);
    probe.tree_layers(inputs.corpus_bases.front().text);
    for (const Document& doc : inputs.shipped_bases) {
      probe.tree_layers(doc.text);
    }
    probe.sampling(inputs.corpus_bases.front().text, 64);
    probe.adaptive(inputs.corpus_bases.front().text);
    probe.study(inputs.shipped_bases.front().text);
    std::vector<const Tracer*> op_tracers;
    for (const auto& tracer : tracers) op_tracers.push_back(tracer.get());
    finish_traced_run(report, options, phases.untraced_ms, phases.traced_ms,
                      op_tracers, probe_tracer);
    probe.fill(report);
    for (const std::string& failure : probe.failures()) {
      report.note("probe check failed: " + failure);
      report.correct = false;
    }
  }
  return report;
}

}  // namespace perfbench
