// perfbench: runs one workload for a fixed wall-clock time and prints its
// end-to-end metrics (untraced run) or per-layer metrics (traced run). The
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Usually started through perfbench/run.py, which builds this binary first.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
  std::string git_rev = "unknown";
};

using WorkloadFn = PassResult (*)(const PassOptions&, SpanTracer*);

/// Measured seconds per throughput window; the reported throughput is the
/// median of the windows' rates, so a burst of interference from other
/// processes on the host moves a few windows rather than the result.
constexpr double kWindowS = 0.1;

/// A second engine traced over the same job in a workload's traced run.
/// chains_single's traced run also drives the chains on ThreadedEngine and
/// reports its threaded.* metrics beside the single-threaded baseline.
/// chains_threaded is not a BENCHMARK.json workload: on a shared 4-vCPU
/// host its wall-clock figures spread too widely across runs to gate on
/// (README.md, "Noise and bounds"); it can still be run by name.
WorkloadFn TracedCompanion(const std::string& workload) {
  return workload == "chains_single" ? RunChainsThreaded : nullptr;
}

const std::map<std::string, WorkloadFn>& Workloads() {
  static const std::map<std::string, WorkloadFn> kWorkloads = {
      {"chains_single", RunChainsSingle},
      {"chains_threaded", RunChainsThreaded},
      {"federation_ha", RunFederationHa},
      {"cp_history", RunCpHistory},
  };
  return kWorkloads;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] [--git-rev <rev>]\n"
               "workloads:",
               why);
  for (const auto& [name, fn] : Workloads()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || a->seconds <= 0) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      a->trace = value == "1";
    } else if (flag == "--out-dir") {
      a->out_dir = value;
    } else if (flag == "--git-rev") {
      a->git_rev = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

std::string JsonEscape(const std::string& in) {
  std::string out;
  for (char c : in) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Each of `wall` (measured around the matching `at_ns`) scaled to the
/// reference host speed.
std::vector<double> ScaleAll(const HostSpeed& speed,
                             const std::vector<int64_t>& at_ns,
                             const std::vector<double>& wall) {
  std::vector<double> out;
  for (size_t i = 0; i < wall.size(); ++i) {
    out.push_back(speed.Scale(at_ns[i], wall[i]));
  }
  return out;
}

/// One metric of the final line: {"value": v, "unit": u}.
struct Out {
  double value;
  std::string unit;
};

std::string MetricsJson(const std::map<std::string, Out>& metrics) {
  std::string s = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) s += ", ";
    first = false;
    s += "\"" + JsonEscape(name) + "\": {\"value\": " + Num(m.value) +
         ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  return s + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  auto it = Workloads().find(args.workload);
  if (it == Workloads().end()) return Usage("unknown workload");
  const WorkloadFn run = it->second;

  PassOptions popts;
  popts.seed = args.seed;
  std::map<std::string, Out> metrics;
  std::ostringstream detail;  // provenance and sample counts (JSON fields)
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  std::map<std::string, double> diagnostics;
  auto account = [&](const PassResult& p, const std::string& prefix) {
    attempted += p.attempted;
    failed += p.failed;
    for (const std::string& e : p.errors) {
      correct = false;
      std::fprintf(stderr, "perfbench: %s: check failed: %s\n",
                   args.workload.c_str(), e.c_str());
    }
    for (const std::string& w : p.warnings) {
      std::fprintf(stderr, "perfbench: %s: warning: %s\n",
                   args.workload.c_str(), w.c_str());
    }
    for (const auto& [name, v] : p.diagnostics) diagnostics[prefix + name] = v;
  };

  if (!args.trace) {
    popts.seconds = args.seconds;
    SpanTracer off(false);
    PassResult p = run(popts, &off);
    account(p, "");
    // Gated times are wall times scaled to the reference host speed, each
    // by the host speed sampled around it (calib.h).
    const std::vector<double> latency =
        ScaleAll(p.speed, p.latency_at_ns, p.latency_ms);
    const std::vector<double> setup =
        ScaleAll(p.speed, p.setup_at_ns, p.setup_s);
    auto tail = Percentile(latency, kTailPct);
    if (!tail) {
      std::fprintf(stderr,
                   "perfbench: %zu latency samples are too few for p%g with "
                   "ten beyond it\n",
                   latency.size(), kTailPct);
      return 3;
    }
    const std::vector<double> rates = WindowRates(p.work, kWindowS);
    metrics["latency_p90_ms"] = {*tail, "ms"};
    metrics["setup_s"] = {Median(setup), "s"};
    metrics["peak_rss_mb"] = {p.peak_rss_mb, "MiB"};
    detail << "\"latency\": \"" << JsonEscape(p.latency_kind)
           << "\", \"latency_samples\": " << latency.size();
    // Percentiles that are reported but not gated, where the samples support
    // them: p50 of a fixed-size round, slice or query cycle tracks
    // throughput_tps, and p95 and p99 spread too widely (README.md).
    for (double pct : {50.0, 95.0, 99.0}) {
      if (auto v = Percentile(latency, pct)) {
        detail << ", \"latency_p" << static_cast<int>(pct)
               << "_ms\": " << Num(*v);
      }
    }
    // The same figures unscaled, and the host speed that scaled them.
    if (auto v = Percentile(p.latency_ms, kTailPct)) {
      detail << ", \"wall_latency_p90_ms\": " << Num(*v);
    }
    detail << ", \"wall_setup_s\": " << Num(Median(p.setup_s))
           << ", \"calibration_samples\": " << p.speed.samples()
           << ", \"calibration_kernel_us\": "
           << Num(p.speed.MedianKernelNs() / 1e3)
           << ", \"reference_kernel_us\": " << Num(kReferenceKernelNs / 1e3);
    // Reported but not gated: across runs it moves with the share of time
    // the host's other tenants slow this vCPU (README.md). The quartiles of
    // the windows show how much it moved within the run.
    const Quartiles tps = ComputeQuartiles(rates);
    detail << ", \"throughput_tps\": " << Num(tps.median)
           << ", \"throughput_q1_tps\": " << Num(tps.q1)
           << ", \"throughput_q3_tps\": " << Num(tps.q3)
           << ", \"measured_s\": " << Num(p.measured_s)
           << ", \"throughput_windows\": " << rates.size()
           << ", \"throughput_total_tps\": " << Num(p.throughput_tps)
           << ", \"setup_samples\": " << p.setup_s.size();
  } else {
    // One pass whose units alternate between traced and untraced every
    // kWindowS; their throughput ratio is the cost of tracing. A traced run
    // reports no percentiles or setup_s.
    const WorkloadFn companion = TracedCompanion(args.workload);
    popts.seconds = args.seconds / (companion != nullptr ? 2 : 1);
    popts.need_tail_samples = false;
    popts.setup_reps = 1;
    popts.setup_every_s = 1e9;
    SpanTracer tracer(false);
    tracer.AlternateEvery(kWindowS);
    PassResult traced = run(popts, &tracer);
    account(traced, "");
    if (companion != nullptr) {
      SpanTracer companion_tracer(true);
      PassResult extra = companion(popts, &companion_tracer);
      account(extra, "threaded.");
      for (const auto& [name, v] : extra.layer) {
        if (name.rfind("threaded.", 0) == 0) traced.layer[name] = v;
      }
    }
    for (const auto& [name, unit] : LayerMetricUnits()) {
      auto found = traced.layer.find(name);
      metrics[name] = {found == traced.layer.end() ? 0.0 : found->second, unit};
    }
    const double untraced_tps = Median(WindowRates(traced.work, kWindowS));
    const double traced_tps =
        Median(WindowRates(traced.traced_work, kWindowS));
    metrics["obs.trace_overhead_pct"].value =
        traced_tps > 0 ? (untraced_tps / traced_tps - 1.0) * 100.0 : 0.0;
    detail << "\"spans\": " << tracer.spans_recorded()
           << ", \"spans_kept\": " << tracer.records().size()
           << ", \"untraced_tps\": " << Num(untraced_tps)
           << ", \"traced_tps\": " << Num(traced_tps);
    if (!args.out_dir.empty()) {
      const std::string path = args.out_dir + "/spans-" + args.workload +
                               "-s" + std::to_string(args.seed) + ".csv";
      if (!tracer.WriteCsv(path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      }
    }
  }

  std::ostringstream prov;
  prov << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
       << ", \"seconds\": " << Num(args.seconds)
       << ", \"trace\": " << (args.trace ? 1 : 0)
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": \"" << JsonEscape(PerfbenchCompiler())
       << "\", \"build_type\": \"" << JsonEscape(PerfbenchBuildType())
       << "\", \"git_rev\": \"" << JsonEscape(args.git_rev) << "\", "
       << detail.str();
  for (const auto& [name, v] : diagnostics) {
    prov << ", \"" << JsonEscape(name) << "\": " << Num(v);
  }
  prov << "}";
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + MetricsJson(metrics) + "}";

  for (const auto& [name, m] : metrics) {
    std::printf("%-34s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("provenance %s\n", prov.str().c_str());
  if (!args.out_dir.empty()) {
    const std::string path = args.out_dir + "/result-" + args.workload + "-s" +
                             std::to_string(args.seed) + "-t" +
                             (args.trace ? "1" : "0") + ".json";
    std::ofstream out(path);
    out << "{\"provenance\": " << prov.str() << ", \"result\": " << result
        << "}\n";
  }
  std::printf("%s\n", result.c_str());
  return 0;
}
