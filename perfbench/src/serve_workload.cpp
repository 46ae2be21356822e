// serve_cold: the cold flow through the rdcsynd daemon core. An in-process
// serve::Server on a unix socket (2 executor threads) takes requests from
// three closed-loop clients, every request marked no_cache, round-robin
// over the seven fast Table-1 circuits. Its traced run also measures the
// exec layer: the same circuits through the supervised batch engine.
#include <algorithm>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "bench.hpp"
#include "benchdata/suite.hpp"
#include "common/rng.hpp"
#include "flow/batch_supervisor.hpp"
#include "pla/pla_io.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace perfbench {

using namespace rdc;

namespace {

constexpr std::size_t kCircuits = std::size(kFastCircuits);
constexpr int kClients = 3;

/// The in-process reference of one request: the same parse + pipeline +
/// report encoding the daemon's executor runs.
struct Reference {
  obs::JsonValue metrics;
  /// The report's "metrics" member as text. It is the last member, and
  /// replies are written by the same FlowReport::to_json, so a reply with
  /// equal results ends in exactly this text.
  std::string metrics_text;
  std::string problem;  ///< check_mapped verdict
  double execute_ms = 0.0;
};

std::string_view metrics_text(std::string_view report_json) {
  const std::size_t at = report_json.find("\"metrics\"");
  return at == std::string_view::npos ? std::string_view()
                                      : report_json.substr(at);
}

Reference reference_of(const std::string& pla,
                       const flow::Pipeline& pipeline) {
  Reference ref;
  std::vector<double> times;
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t t0 = now_ns();
    flow::Design design(parse_pla_string(pla, "job"));
    const exec::Status status = pipeline.run(design);
    const std::string report = design.report.to_json();
    times.push_back(ms_between(t0, now_ns()));
    if (!status.ok()) {
      ref.problem = "in-process reference failed: " + status.to_string();
      return ref;
    }
    if (rep == 0) {
      ref.problem = check_mapped(design);
      ref.metrics = result_metrics(design);
      ref.metrics_text = std::string(metrics_text(report));
    }
  }
  ref.execute_ms = median(times);
  return ref;
}

std::string check_reply(const serve::SubmitResult& r, const Reference& ref,
                        const std::string& name) {
  if (!ref.problem.empty()) return name + ": " + ref.problem;
  if (!r.status.ok()) return name + ": " + r.status.to_string();
  if (r.cache_hit) return name + ": no_cache request answered from the cache";
  if (metrics_text(r.report_json) != ref.metrics_text)
    return name + ": reply result fields differ from the in-process run";
  return {};
}

/// One request, checked as soon as its reply arrived (outside its
/// latency). Only this much is kept per request, so the benchmark's own
/// memory stays flat and peak_rss_mb measures the daemon and its clients.
struct Sample {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t index = 0;  ///< request number within its phase
  std::uint32_t reply_bytes = 0;
  std::uint8_t circuit = 0;  ///< index into kFastCircuits
  std::uint8_t attempts = 0;
  bool ok = false;
};

struct Phase {
  std::vector<Sample> samples;        ///< in request order
  std::vector<std::string> problems;  ///< one per failed sample
  double wall_ms = 0.0;
};

/// Closed loop: each of the clients submits its next request only after
/// the previous reply arrived. Requests go round-robin over the circuits,
/// in a fresh seeded order every round, so which circuits meet in the
/// queue averages out over a run instead of being fixed by the seed.
/// Runs until `seconds` have passed and at least `min_requests` were
/// sent, always stopping at a whole round, so every run sees the same
/// request mix.
Phase run_clients(const serve::ClientOptions& client,
                  const std::vector<serve::JobRequest>& requests,
                  const std::vector<Reference>& refs, Rng& rng,
                  double seconds, std::size_t min_requests) {
  Phase phase;
  std::mutex mutex;
  std::uint32_t next = 0;
  bool stopped = false;
  std::vector<std::uint8_t> order(kCircuits);
  std::iota(order.begin(), order.end(), std::uint8_t{0});
  const std::uint64_t start = now_ns();
  const auto deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<Phase> per_client(kClients);
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (;;) {
          Sample sample;
          {
            std::lock_guard<std::mutex> lock(mutex);
            if (!stopped && next % kCircuits == 0 && next >= min_requests &&
                now_ns() >= deadline)
              stopped = true;
            if (stopped) return;
            if (next % kCircuits == 0)
              std::shuffle(order.begin(), order.end(), rng);
            sample.index = next++;
            sample.circuit = order[sample.index % kCircuits];
          }
          serve::ClientOptions options = client;
          options.retry_key = sample.index;
          sample.start_ns = now_ns();
          const serve::SubmitResult result =
              serve::submit_job(options, requests[sample.circuit]);
          sample.end_ns = now_ns();
          sample.reply_bytes =
              static_cast<std::uint32_t>(result.report_json.size());
          sample.attempts = static_cast<std::uint8_t>(result.attempts);
          std::string problem = check_reply(result, refs[sample.circuit],
                                            kFastCircuits[sample.circuit]);
          sample.ok = problem.empty();
          if (!sample.ok) per_client[c].problems.push_back(std::move(problem));
          per_client[c].samples.push_back(sample);
        }
      });
    }
  }
  phase.wall_ms = ms_between(start, now_ns());
  for (Phase& client_phase : per_client) {
    phase.samples.insert(phase.samples.end(), client_phase.samples.begin(),
                         client_phase.samples.end());
    for (std::string& problem : client_phase.problems)
      phase.problems.push_back(std::move(problem));
  }
  std::ranges::sort(phase.samples, {}, &Sample::index);
  return phase;
}

/// Appends a phase's samples, renumbered to follow the ones already there.
void append(Phase& into, Phase phase) {
  const auto base = static_cast<std::uint32_t>(into.samples.size());
  for (Sample& sample : phase.samples) {
    sample.index += base;
    into.samples.push_back(sample);
  }
  for (std::string& problem : phase.problems)
    into.problems.push_back(std::move(problem));
  into.wall_ms += phase.wall_ms;
}

/// Counts every sample of `phase` as an item of `out`.
void record_items(const Phase& phase, Outcome& out) {
  std::size_t problem = 0;
  for (const Sample& sample : phase.samples)
    out.item(sample.ok ? std::string() : phase.problems.at(problem++));
}

/// The exec layer, measured beside the daemon: the same circuits as jobs
/// of run_pipeline_batch_supervised (the rdc_batch engine, journal on),
/// one call per round of the circuits. One forked worker at a time, so
/// the wall time per job minus the in-process run is the engine's own
/// cost (fork, pipe, journal fsync, reaping). Each report row must carry
/// the in-process run's result metrics.
void measure_exec_layer(const std::vector<IncompleteSpec>& specs,
                        const std::vector<Reference>& refs,
                        const flow::Pipeline& pipeline, const Config& config,
                        Outcome& out) {
  constexpr int kCalls = 20;
  std::vector<double> job_ms;
  for (const IncompleteSpec& spec : specs) {
    std::vector<double> times;
    for (int rep = 0; rep < 3; ++rep) {
      flow::Design design(spec);
      const std::uint64_t t0 = now_ns();
      (void)pipeline.run(design);
      times.push_back(ms_between(t0, now_ns()));
    }
    job_ms.push_back(median(times));
  }
  flow::SupervisedBatchOptions options;
  options.max_parallel = 1;
  options.retry.max_attempts = 3;
  options.journal_path = (config.work_dir / "batch.journal").string();
  obs::reset_counters();
  obs::set_counters_enabled(true);
  double call_ms = 0.0;
  double records = 0.0;
  double bytes = 0.0;
  for (int call = 0; call < kCalls; ++call) {
    const std::uint64_t t0 = now_ns();
    const exec::Result<flow::SupervisedBatchResult> result =
        flow::run_pipeline_batch_supervised(kFlowPipeline, specs, options);
    call_ms += ms_between(t0, now_ns());
    const CountersPaused paused;
    std::ifstream journal(options.journal_path, std::ios::binary);
    for (std::string line; std::getline(journal, line);) {
      records += 1.0;
      bytes += static_cast<double>(line.size() + 1);
    }
    journal.close();
    std::filesystem::remove(options.journal_path);
    std::optional<obs::JsonValue> doc;
    if (result.ok()) doc = obs::parse_json(result->report.to_json());
    const obs::JsonValue* rows = doc ? doc->find("rows") : nullptr;
    for (std::size_t j = 0; j < specs.size(); ++j) {
      const obs::JsonValue* row =
          rows != nullptr && j < rows->array.size() ? &rows->array[j] : nullptr;
      const obs::JsonValue* status = row ? row->find("status") : nullptr;
      std::string problem = refs[j].problem;
      if (problem.empty() &&
          (status == nullptr || !status->is_string() ||
           status->string != "OK" || !json_contains(*row, refs[j].metrics)))
        problem = std::string(kFastCircuits[j]) +
                  ": batch row is not OK or differs from the in-process run";
      out.item(problem);
    }
  }
  obs::set_counters_enabled(false);
  double job_mean = 0.0;
  for (const double ms : job_ms) job_mean += ms / job_ms.size();
  out.layers["exec.job_ms"] = job_mean;
  out.layers["exec.job_overhead_ms"] =
      call_ms / (kCalls * specs.size()) - job_mean;
  out.layers["exec.journal_records"] = records / kCalls;
  out.layers["exec.journal_bytes"] = bytes / kCalls;
  out.layers["exec.retries"] =
      static_cast<double>(obs::counter_total(obs::Counter::kSupervisorRetries)) /
      kCalls;
  out.layers["exec.crashes"] =
      static_cast<double>(obs::counter_total(obs::Counter::kSupervisorCrashes)) /
      kCalls;
}

}  // namespace

Outcome run_serve_cold(const Config& config, const SamplingRule& rule) {
  Outcome out;
  std::vector<std::string> plas;
  std::unique_ptr<serve::Server> server;
  serve::ClientOptions client;
  std::vector<double> suite_ms;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (server) server->drain(0);
    server.reset();
    const std::uint64_t t0 = now_ns();
    plas.clear();
    for (const char* name : kFastCircuits) {
      std::ostringstream pla;
      write_pla(make_benchmark(name), pla);
      plas.push_back(pla.str());
    }
    const std::uint64_t t1 = now_ns();
    std::filesystem::create_directories(config.work_dir);
    serve::ServerOptions options;
    options.socket_path = (config.work_dir / "rdcsynd.sock").string();
    options.executor_threads = 2;
    server = std::make_unique<serve::Server>(options);
    if (const exec::Status s = server->start(); !s.ok())
      throw std::runtime_error("server start: " + s.to_string());
    client.socket_path = options.socket_path;
    if (const exec::Status s = serve::ping_server(client, 5000); !s.ok())
      throw std::runtime_error("server ping: " + s.to_string());
    out.setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
    suite_ms.push_back(ms_between(t0, t1));
  }
  out.layers["setup.suite_ms"] = median(suite_ms);
  client.retry.max_attempts = 3;
  client.retry.base_backoff_ms = 10;

  std::vector<serve::JobRequest> requests;
  std::uint64_t pla_bytes = 0;
  for (const std::string& pla : plas) {
    serve::JobRequest request;
    request.spec_pla = pla;
    request.pipeline = kFlowPipeline;
    request.no_cache = true;
    requests.push_back(std::move(request));
    pla_bytes += pla.size();
  }
  Rng rng(config.seed);
  // The in-process references every reply is checked against, computed
  // outside set-up and timing.
  const flow::Pipeline pipeline = must_parse(kFlowPipeline);
  std::vector<Reference> refs;
  for (const std::string& pla : plas)
    refs.push_back(reference_of(pla, pipeline));

  // Warm-up, excluded from every metric.
  (void)run_clients(client, requests, refs, rng, kWarmupSeconds,
                    kClients * kCircuits);
  const serve::ServeStats before = server->stats();

  // A traced run alternates two untraced phases with traced phases of the
  // same request count (library counters on), so the halves give the
  // tracing overhead without an order bias.
  Phase timed;
  Phase traced;
  if (!config.trace) {
    timed = run_clients(client, requests, refs, rng, config.seconds,
                        rule.min_samples);
  } else {
    obs::reset_counters();
    for (int pair = 0; pair < 2; ++pair) {
      Phase untraced =
          run_clients(client, requests, refs, rng, config.seconds / 4, 0);
      const std::size_t count = untraced.samples.size();
      append(timed, std::move(untraced));
      obs::set_counters_enabled(true);
      append(traced, run_clients(client, requests, refs, rng, 0.0, count));
      obs::set_counters_enabled(false);
    }
  }
  const serve::ServeStats after = server->stats();
  server->drain(0);
  server.reset();

  record_items(timed, out);
  record_items(traced, out);
  out.timed_s = timed.wall_ms / 1e3;
  for (const Sample& sample : timed.samples)
    out.latency_ms.push_back(ms_between(sample.start_ns, sample.end_ns));
  // Quality of what the clients received: each circuit's first reply,
  // whose result fields equal its reference's when it passed the check.
  std::vector<std::optional<obs::JsonValue>> first(kCircuits);
  std::vector<bool> seen(kCircuits, false);
  for (const Sample& sample : timed.samples) {
    if (seen[sample.circuit]) continue;
    seen[sample.circuit] = true;
    if (sample.ok) first[sample.circuit] = refs[sample.circuit].metrics;
  }
  out.quality = quality_of(first);
  if (!config.trace) return out;

  // Per-layer: the daemon's request latency against the in-process
  // execution of the same circuit, then the in-process execution split
  // by layer over three traced rounds of the seven circuits.
  const double untraced_per_request = timed.wall_ms / timed.samples.size();
  const double traced_per_request = traced.wall_ms / traced.samples.size();
  out.layers["obs.tracing_overhead_pct"] =
      (traced_per_request / untraced_per_request - 1.0) * 100.0;
  std::vector<double> submit_ms;
  std::vector<double> execute_ms;
  std::vector<double> overhead_ms;
  double reply_bytes = 0.0;
  std::uint64_t retries = 0;
  for (const Sample& sample : traced.samples) {
    const double ms = ms_between(sample.start_ns, sample.end_ns);
    submit_ms.push_back(ms);
    execute_ms.push_back(refs[sample.circuit].execute_ms);
    overhead_ms.push_back(ms - refs[sample.circuit].execute_ms);
    reply_bytes += static_cast<double>(sample.reply_bytes);
    retries += sample.attempts > 1 ? sample.attempts - 1u : 0u;
  }
  const double traced_rounds =
      static_cast<double>(traced.samples.size()) / kCircuits;
  out.layers["serve.submit_ms"] = median(submit_ms);
  out.layers["serve.execute_ms"] = median(execute_ms);
  out.layers["serve.overhead_ms"] = median(overhead_ms);
  out.layers["serve.reply_bytes"] = reply_bytes / traced_rounds;
  out.layers["serve.retries"] = static_cast<double>(retries);
  out.layers["serve.shed"] = static_cast<double>(after.shed - before.shed);
  out.layers["pla.bytes"] = static_cast<double>(pla_bytes);

  constexpr int kLayerRounds = 3;
  Tracer tracer;
  const std::vector<flow::Pipeline> passes = split_passes(pipeline);
  obs::reset_counters();
  obs::set_counters_enabled(true);
  std::uint64_t item = traced.samples.size();
  LayerCounts counts;
  for (int round = 0; round < kLayerRounds; ++round) {
    for (const std::string& pla : plas) {
      SpanScope request(&tracer, "request", item);
      std::optional<flow::Design> design;
      {
        SpanScope parse(&tracer, "pla.parse", item, request.id());
        design.emplace(parse_pla_string(pla, "job"));
      }
      (void)run_traced(passes, *design, tracer, item, request.id());
      {
        SpanScope json(&tracer, "obs.report_json", item, request.id());
        (void)design->report.to_json();
      }
      counts.add_flow(*design);
      ++item;
    }
  }
  obs::set_counters_enabled(false);
  counts.report(kLayerRounds, out);
  add_layer_times(tracer, kLayerRounds, out);
  for (const Sample& sample : traced.samples)
    tracer.add("serve.request", sample.index, Tracer::kNoParent,
               sample.start_ns, sample.end_ns);
  std::vector<IncompleteSpec> specs;
  for (const std::string& pla : plas) specs.push_back(parse_pla_string(pla, "job"));
  measure_exec_layer(specs, refs, pipeline, config, out);
  tracer.write(config.trace_file);
  return out;
}

}  // namespace perfbench
