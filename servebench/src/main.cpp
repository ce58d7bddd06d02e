// servebench — the repository's end-to-end serving benchmark.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Builds one workload's serving stack in this process, drives it over TCP
// loopback with seeded, pre-encoded frames (an open-loop phase at a frozen
// rate, then a closed-loop phase), checks every answer, and prints the
// metrics, the last line being one JSON object.  --trace 0 reports the
// end-to-end metrics; --trace 1 wraps the layers in timing probes and
// reports the per-layer metrics instead, writing its spans under --out.
// servebench/README.md documents the workloads and every metric.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "fhg/obs/registry.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace {

using namespace servebench;

constexpr double kOpenShare = 0.5;      ///< share of --seconds in the open-loop phase
constexpr int kSetups = 5;              ///< set-ups per untraced run; setup_s is their median
/// Generator honesty: a run is invalid when the sender's lag at the read
/// median or 90th percentile passes this share of the read latency it
/// reports there.  Latency counts from due time, so the lag is part of it;
/// below this share the figures are mostly the program's.  On the 4-CPU
/// host where the benchmark was defined the share stayed under 0.1, even
/// while other work on the host stretched read_p90_us 30-fold.
constexpr double kMaxLagShare = 0.3;
/// A lag under this is the sender's own wake-up cost (about 7 us at the
/// median on a quiet host), never a stall, so a faster program cannot make
/// an honest run invalid.
constexpr double kLagFloorUs = 25.0;
constexpr std::size_t kSpanFileLimit = 100'000;  ///< spans written to the span file

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::filesystem::path out = ".bench_build/servebench-out";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "servebench: " << why << "\n"
            << "usage: servebench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]\n"
            << "workloads:";
  for (const WorkloadDef& def : all_workloads()) {
    std::cerr << ' ' << def.name;
  }
  std::cerr << '\n';
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (flag == "--out") {
        options.out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (find_workload(options.workload) == nullptr) {
    usage("unknown workload '" + options.workload + "'");
  }
  if (!(options.seconds > 0)) {
    usage("--seconds must be positive");
  }
  return options;
}

/// A memory field of /proc/self/status ("VmRSS", "VmHWM"), in MB.
double status_mb(std::string_view field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.size() > field.size() && line.compare(0, field.size(), field) == 0 &&
        line[field.size()] == ':') {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;
    }
  }
  return 0.0;
}

/// Resets VmHWM to the current VmRSS; false where the kernel does not let it.
bool reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return clear_refs.good();
}

/// The registries and counters the traced run reads deltas of.
struct Counters {
  std::vector<fhg::obs::MetricSample> socket;
  std::vector<fhg::obs::MetricSample> engines;  ///< every backend's engine registry, concatenated
  std::vector<fhg::obs::MetricSample> router;
  fhg::service::ShardMetrics service;           ///< every backend's service, summed
};

Counters read_counters(const Stack& stack) {
  Counters counters;
  counters.socket = fhg::obs::Registry::global().snapshot();
  for (std::size_t b = 0; b < stack.num_backends(); ++b) {
    auto samples = stack.engine(b).metrics().snapshot();
    counters.engines.insert(counters.engines.end(), samples.begin(), samples.end());
    counters.service.merge(stack.service(b).metrics().totals());
  }
  if (stack.router() != nullptr) {
    counters.router = stack.router()->metrics().snapshot();
  }
  return counters;
}

/// Sum of counter `name` over every sample carrying that name.
double total(const std::vector<fhg::obs::MetricSample>& samples, std::string_view name) {
  double sum = 0;
  for (const auto& sample : samples) {
    if (sample.name == name) {
      sum += static_cast<double>(sample.value);
    }
  }
  return sum;
}

double delta(const std::vector<fhg::obs::MetricSample>& before,
             const std::vector<fhg::obs::MetricSample>& after, std::string_view name) {
  return total(after, name) - total(before, name);
}

/// Histogram `name` summed over every sample carrying it, after minus before.
fhg::obs::Histogram histogram_sum_delta(const std::vector<fhg::obs::MetricSample>& before,
                                        const std::vector<fhg::obs::MetricSample>& after,
                                        std::string_view name) {
  fhg::obs::Histogram out;
  for (const auto& sample : after) {
    if (sample.name == name) {
      out.merge(sample.histogram);
    }
  }
  for (const auto& sample : before) {
    if (sample.name == name) {
      for (std::size_t b = 0; b < fhg::obs::Histogram::kBuckets; ++b) {
        out.buckets[b] -= sample.histogram.buckets[b];
      }
    }
  }
  return out;
}

double us_percentile(std::vector<std::int64_t> samples, double q) {
  return samples.empty() ? 0.0 : ns_to_us(percentile_of(samples, q));
}

/// Closed-loop capacity: the requests completed per second in the phase's
/// 100 ms slices, averaged over the slices ranked between the median and
/// the 90th percentile.  Interference from other work on the host only ever
/// slows a slice, so this upper band estimates what the program completes
/// when it has the CPUs, and holds while the host is busy for up to half of
/// the phase; the top tenth is left out as bursts.  A stall of the program
/// itself shows in the open-loop latencies instead.
double slice_rate(const PhaseResult& phase) {
  std::vector<double> rates;
  for (const std::uint64_t count : phase.slices) {
    rates.push_back(static_cast<double>(count) * 1e9 / static_cast<double>(kSliceNs));
  }
  if (rates.size() < 10) {
    return ratio(static_cast<double>(phase.completed), phase.seconds);
  }
  std::sort(rates.begin(), rates.end());
  const std::size_t lo = rates.size() / 2;
  const std::size_t hi = rates.size() - rates.size() / 10;
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    sum += rates[i];
  }
  return sum / static_cast<double>(hi - lo);
}

/// Quantile `q` of the closed-loop phase's slice rates, in req/s.
double slice_quartile(const PhaseResult& phase, double q) {
  std::vector<std::uint64_t> counts = phase.slices;
  return counts.empty() ? 0.0
                        : static_cast<double>(percentile_of(counts, q)) * 1e9 /
                              static_cast<double>(kSliceNs);
}

/// Per-layer latencies, self time and the span file, from the spans the
/// open-loop phase recorded.
void analyse_spans(const SpanLog& log, const PhaseResult& open, const std::filesystem::path& file,
                   Metrics& metrics) {
  std::vector<Span> spans;
  for (const Span& span : log.spans()) {
    if (span.start_ns >= open.start_ns && span.end_ns <= open.end_ns) {
      spans.push_back(span);
    }
  }
  std::unordered_map<std::uint64_t, std::size_t> root;  // trace id -> loadgen span
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].layer == "loadgen") {
      root.emplace(spans[i].trace_id, i);
    }
  }
  std::vector<std::vector<Span>> children(spans.size());
  std::vector<long> parent(spans.size(), -1);
  std::vector<std::int64_t> service_read, service_write, router, wal;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const std::int64_t duration = span.end_ns - span.start_ns;
    if (span.layer == "service") {
      (is_write_kind(span.kind) ? service_write : service_read).push_back(duration);
    } else if (span.layer == "router") {
      router.push_back(duration);
    } else if (span.layer == "wal") {
      wal.push_back(duration);
    }
    if (span.layer != "loadgen" && span.trace_id != 0) {
      if (const auto found = root.find(span.trace_id); found != root.end()) {
        parent[i] = static_cast<long>(found->second);
        children[found->second].push_back(span);
      }
    }
  }
  std::vector<std::int64_t> client_self;
  for (const auto& [trace_id, index] : root) {
    client_self.push_back(self_time_ns(spans[index], children[index]));
  }
  const double service_read_p50 = us_percentile(service_read, 0.50);
  const double router_p50 = us_percentile(router, 0.50);
  metrics.push_back({"service.read_us_p50", service_read_p50, "us"});
  metrics.push_back({"service.read_us_p99", us_percentile(service_read, 0.99), "us"});
  metrics.push_back({"service.write_us_p50", us_percentile(service_write, 0.50), "us"});
  metrics.push_back({"service.write_us_p99", us_percentile(service_write, 0.99), "us"});
  metrics.push_back({"cluster.router_us_p50", router_p50, "us"});
  metrics.push_back({"cluster.router_us_p99", us_percentile(router, 0.99), "us"});
  // The router mints its own trace ids towards the backends, so the hop is
  // a difference of medians rather than a per-request self time.
  metrics.push_back(
      {"cluster.hop_us_p50", router.empty() ? 0.0 : router_p50 - service_read_p50, "us"});
  metrics.push_back({"wal.append_us_p50", us_percentile(wal, 0.50), "us"});
  metrics.push_back({"wal.append_us_p99", us_percentile(wal, 0.99), "us"});
  metrics.push_back({"trace.client_self_us_p50", us_percentile(client_self, 0.50), "us"});
  metrics.push_back({"trace.spans", static_cast<double>(spans.size()), "count"});
  metrics.push_back({"trace.spans_dropped", static_cast<double>(log.dropped()), "count"});

  std::ofstream out(file);
  out << "layer\tstart_ns\tend_ns\tparent\ttrace_id\tkind\n";
  for (std::size_t i = 0; i < std::min(spans.size(), kSpanFileLimit); ++i) {
    const Span& span = spans[i];
    out << span.layer << '\t' << span.start_ns << '\t' << span.end_ns << '\t' << parent[i]
        << '\t' << span.trace_id << '\t' << fhg::api::request_kind_name(span.kind) << '\n';
  }
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    return "1e300";  // a missed request's latency
  }
  std::ostringstream out;
  out << std::setprecision(12) << value;
  return out.str();
}

int run(const Options& options) {
  const WorkloadDef& def = *find_workload(options.workload);
  const fhg::workload::ScenarioSpec spec = fleet_spec(def, options.seed);
  const double open_seconds = kOpenShare * options.seconds;
  const double closed_seconds = options.seconds - open_seconds;
  const auto open_count = static_cast<std::size_t>(std::llround(def.open_rate_rps * open_seconds));
  const std::size_t length = std::max(
      def.stream_per_conn, def.warmup_per_conn + (open_count + kConnections - 1) / kConnections);
  std::filesystem::create_directories(options.out);

  // Inputs: a pure function of (workload, seed); not part of set-up.
  const Blobs blobs = def.kind == Kind::kMigrate ? fleet_blobs(spec) : Blobs{};
  const FrameSet frames = make_frames(def, options.seed, length, options.trace, blobs);
  std::unique_ptr<SpanLog> spans;
  if (options.trace) {
    spans = std::make_unique<SpanLog>(4 * open_count + 262'144);
  }
  // The inputs are the benchmark's own memory: peak_rss_mb counts from here.
  const bool peak_reset = reset_peak_rss();
  const double rss_baseline_mb = status_mb("VmRSS");

  // Set-up: fleet build, servers listening, connections warmed.  Repeated
  // so setup_s is a median; the last stack is the one measured.
  std::vector<double> setup_seconds;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<LoadGen> load;
  PhaseResult warm;
  for (int i = 0; i < (options.trace ? 1 : kSetups); ++i) {
    load.reset();
    stack.reset();
    const std::int64_t t0 = now_ns();
    stack = std::make_unique<Stack>(def, spec, spans.get(), options.out / "scratch");
    std::vector<std::uint16_t> ports;
    for (std::size_t t = 0; t < stack->num_targets(); ++t) {
      ports.push_back(stack->port(t));
    }
    load = std::make_unique<LoadGen>(frames, ports, spans.get());
    warm = load->warm_up(def.warmup_per_conn, def.window);
    setup_seconds.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // Timed phases.
  const Counters before = read_counters(*stack);
  stack->set_recording(options.trace);
  PhaseResult open = load->open_loop(def.open_rate_rps, open_count, options.trace);
  PhaseResult closed;
  PhaseResult closed_traced;
  if (options.trace) {
    // Half untraced, half traced, so the tracing overhead is measured
    // inside one run.
    stack->set_recording(false);
    closed = load->closed_loop(closed_seconds / 2, def.window, false);
    stack->set_recording(true);
    closed_traced = load->closed_loop(closed_seconds / 2, def.window, true);
    stack->set_recording(false);
  } else {
    closed = load->closed_loop(closed_seconds, def.window, false);
  }
  const double rss_mb = status_mb("VmHWM") - rss_baseline_mb;
  const Counters after = read_counters(*stack);

  const std::uint64_t attempted = open.sent + closed.sent + closed_traced.sent;
  const std::uint64_t failed = open.failed + closed.failed + closed_traced.failed;
  const double throughput = slice_rate(closed);
  const double lag_p50_us = us_percentile(open.lag_ns, 0.50);
  const double lag_p90_us = us_percentile(open.lag_ns, 0.90);
  const double lag_p99_us = us_percentile(open.lag_ns, 0.99);

  // Untimed: output checks, the traced run's isolated rows, the gap audit.
  std::vector<std::string> problems;
  if (warm.failed + failed != 0) {
    problems.push_back(std::to_string(warm.failed + failed) + " requests failed");
  }
  if (load->repeat_mismatches() != 0) {
    problems.push_back(std::to_string(load->repeat_mismatches()) +
                       " repeated frames answered differently from their first time");
  }
  if (load->protocol_errors() != 0 || load->broken()) {
    problems.push_back("load generator: " + std::to_string(load->protocol_errors()) +
                       " protocol errors" + (load->broken() ? ", connection lost" : ""));
  }
  const double read_p50_us = us_percentile(open.read_ns, 0.50);
  const double read_p90_us = us_percentile(open.read_ns, 0.90);
  const auto lag_bound = [](double latency_us) {
    return std::max(kLagFloorUs, kMaxLagShare * latency_us);
  };
  if (lag_p50_us > lag_bound(read_p50_us) || lag_p90_us > lag_bound(read_p90_us)) {
    problems.push_back("generator lag p50/p90 " + json_number(lag_p50_us) + "/" +
                       json_number(lag_p90_us) + " us passes " + json_number(kMaxLagShare) +
                       " of read latency p50/p90 " + json_number(read_p50_us) + "/" +
                       json_number(read_p90_us) + " us: the run is invalid");
  }
  const RunState state{def, spec, *stack, frames, *load, blobs};
  check_outputs(state, problems);
  Metrics layers;
  if (options.trace) {
    waterfall_rows(state, layers, problems);
  }
  const AuditResult audit = audit_fleet(spec, stack->engine(0));
  if (audit.bound_violations != 0) {
    problems.push_back(std::to_string(audit.bound_violations) + " gap-bound violations");
  }

  Metrics metrics;
  if (!options.trace) {
    metrics = {
        {"throughput_rps", throughput, "1/s"},
        {"read_p50_us", read_p50_us, "us"},
        {"read_p90_us", read_p90_us, "us"},
        {"success_rate", ratio(static_cast<double>(attempted - failed),
                               static_cast<double>(attempted)), "ratio"},
        {"setup_s", median(setup_seconds), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    const auto& b = before;
    const auto& a = after;
    const double frames_delta = delta(b.socket, a.socket, "fhg_socket_frames_total");
    const double served = static_cast<double>(a.service.queries + a.service.next_gatherings -
                                              b.service.queries - b.service.next_gatherings);
    const fhg::obs::Histogram mutation_us =
        histogram_sum_delta(b.engines, a.engines, "fhg_engine_mutation_us");
    const double traced_rps = slice_rate(closed_traced);
    metrics = std::move(layers);
    analyse_spans(*spans, open,
                  options.out / ("spans-" + std::string(def.name) + "-" +
                                 std::to_string(options.seed) + ".tsv"),
                  metrics);
    const std::vector<Metric> counted = {
        {"api.request_bytes", ratio(static_cast<double>(open.request_bytes),
                                    static_cast<double>(open.sent)), "bytes"},
        {"api.response_bytes", ratio(static_cast<double>(open.response_bytes),
                                     static_cast<double>(open.sent)), "bytes"},
        {"api.socket_frame_us_p50",
         static_cast<double>(
             histogram_sum_delta(b.socket, a.socket, "fhg_socket_frame_us").quantile(0.5)),
         "us"},
        {"api.epoll_wakes_per_frame",
         ratio(delta(b.socket, a.socket, "fhg_socket_epoll_wakes_total"), frames_delta), "ratio"},
        {"cluster.retries", delta(b.router, a.router, "fhg_cluster_retries_total"), "count"},
        {"cluster.failovers", delta(b.router, a.router, "fhg_cluster_failovers_total"), "count"},
        {"service.requests_per_batch",
         ratio(served, static_cast<double>(a.service.batches - b.service.batches)), "ratio"},
        {"service.queue_high_water", static_cast<double>(a.service.queue_high_water), "count"},
        {"service.rejected",
         static_cast<double>(a.service.rejected_full + a.service.rejected_stopped -
                             b.service.rejected_full - b.service.rejected_stopped),
         "count"},
        {"engine.probes_per_batch",
         ratio(delta(b.engines, a.engines, "fhg_engine_batch_probes_total"),
               delta(b.engines, a.engines, "fhg_engine_batches_total")),
         "ratio"},
        {"engine.mutation_us_p50", static_cast<double>(mutation_us.quantile(0.50)), "us"},
        {"engine.mutation_us_p99", static_cast<double>(mutation_us.quantile(0.99)), "us"},
        {"engine.recolors_per_batch",
         ratio(delta(b.engines, a.engines, "fhg_engine_recolors_total"),
               delta(b.engines, a.engines, "fhg_engine_mutation_batches_total")),
         "ratio"},
        {"wal.bytes_per_append",
         ratio(delta(b.engines, a.engines, "fhg_wal_append_bytes_total"),
               delta(b.engines, a.engines, "fhg_wal_appends_total")),
         "bytes"},
        {"core.worst_gap", static_cast<double>(audit.worst_gap), "holidays"},
        {"core.bound_violations", static_cast<double>(audit.bound_violations), "count"},
        {"loadgen.lag_p90_us", lag_p90_us, "us"},
        {"loadgen.lag_p99_us", lag_p99_us, "us"},
        {"loadgen.sent", static_cast<double>(attempted), "count"},
        {"loadgen.completed", static_cast<double>(attempted - failed), "count"},
        {"loadgen.read_samples", static_cast<double>(open.read_ns.size()), "count"},
        {"loadgen.write_samples", static_cast<double>(open.write_ns.size()), "count"},
        {"loadgen.read_p99_us", us_percentile(open.read_ns, 0.99), "us"},
        {"loadgen.write_p50_us", us_percentile(open.write_ns, 0.50), "us"},
        {"loadgen.write_p99_us", us_percentile(open.write_ns, 0.99), "us"},
        {"trace.throughput_rps", traced_rps, "1/s"},
        {"trace.overhead_pct", throughput > 0 ? 100.0 * (1.0 - traced_rps / throughput) : 0.0,
         "%"},
    };
    metrics.insert(metrics.end(), counted.begin(), counted.end());
  }

  // Human-readable lines first; the last line is the JSON result.
  std::cout << "servebench: workload=" << def.name << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << options.trace << '\n'
            << "  open loop: " << open.sent << " requests at " << def.open_rate_rps
            << " req/s, " << open.read_ns.size() << " read and " << open.write_ns.size()
            << " write latency samples, generator lag p50/p90/p99 " << lag_p50_us << '/'
            << lag_p90_us << '/' << lag_p99_us << " us\n"
            << "  closed loop: " << closed.sent + closed_traced.sent << " requests, window "
            << def.window << " x " << kConnections << " connections"
            << (closed.exhausted || closed_traced.exhausted ? ", ended early: stream ran out" : "")
            << "\n  closed-loop 100 ms slices (req/s): q1 " << slice_quartile(closed, 0.25)
            << ", median " << slice_quartile(closed, 0.5) << ", q3 "
            << slice_quartile(closed, 0.75) << '\n'
            << "  peak RSS " << rss_mb << " MB over a " << rss_baseline_mb << " MB input baseline"
            << (peak_reset ? "" : " (VmHWM could not be reset: the peak may predate set-up)")
            << '\n'
            << "  attempted " << attempted << ", failed " << failed << ", set-ups (s):";
  for (const double s : setup_seconds) {
    std::cout << ' ' << s;
  }
  std::cout << '\n';
  for (const Metric& metric : metrics) {
    std::cout << "  " << metric.name << " = " << json_number(metric.value) << ' ' << metric.unit
              << '\n';
  }
  for (const std::string& problem : problems) {
    std::cout << "  CHECK FAILED: " << problem << '\n';
    std::cerr << "servebench: " << problem << '\n';
  }
  std::cout << "{\"correct\": " << (problems.empty() ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i == 0 ? "" : ", ") << '"' << metrics[i].name << "\": {\"value\": "
              << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  load.reset();
  stack.reset();
  return problems.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::cerr << "servebench: " << e.what() << '\n';
    return 1;
  }
}
