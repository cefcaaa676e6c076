// simcheck: deterministic simulation model checker for the distributed
// stream processor. Generates seeded random scenarios (query topology,
// workload trace, fault schedule), runs each one over the simulated
// Aurora* federation with standing invariants attached, diffs the outputs
// against a single-node oracle engine, and on failure shrinks the scenario
// to a minimal replayable spec file.
//
//   simcheck --runs 200                 # scan seeds 1..200
//   simcheck --seed 7 --runs 1          # one specific seed
//   simcheck --disable-dedup --runs 100 # prove it catches real bugs
//   simcheck --replay fail.spec         # re-run a (shrunk) spec file
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "check/runner.h"
#include "check/scenario.h"
#include "check/shrinker.h"
#include "check/threaded_check.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: simcheck [--seed N] [--runs N] [--shrink 0|1]\n"
               "                [--replay <spec-file>] [--disable-dedup]\n"
               "                [--digest] [--out <dir>] [--threaded N]\n"
               "  --threaded N  run each scenario on the N-worker threaded\n"
               "                engine and diff against the oracle instead\n"
               "                of the simulated federation\n");
}

int Replay(const std::string& path, bool disable_dedup) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "simcheck: cannot read '%s'\n", path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << in.rdbuf();
  auto spec = aurora::ScenarioSpec::Parse(text.str());
  if (!spec.ok()) {
    std::fprintf(stderr, "simcheck: %s\n", spec.status().ToString().c_str());
    return 2;
  }
  if (disable_dedup) spec->dedup = false;
  aurora::RunReport report = aurora::RunScenario(*spec);
  std::fputs(report.Summary().c_str(), stdout);
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  int runs = 200;
  bool shrink = true;
  bool disable_dedup = false;
  bool digest = false;
  int threaded = 0;
  std::string replay_path;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--runs") {
      runs = std::atoi(next());
    } else if (arg == "--shrink") {
      shrink = std::atoi(next()) != 0;
    } else if (arg == "--replay") {
      replay_path = next();
    } else if (arg == "--disable-dedup") {
      disable_dedup = true;
    } else if (arg == "--digest") {
      digest = true;
    } else if (arg == "--out") {
      out_dir = next();
    } else if (arg == "--threaded") {
      threaded = std::atoi(next());
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "simcheck: unknown argument '%s'\n", arg.c_str());
      Usage();
      return 2;
    }
  }

  if (!replay_path.empty()) return Replay(replay_path, disable_dedup);

  if (threaded > 0) {
    // Threaded-runtime gate: no network, no faults — the scenario supplies
    // the query topology and trace, the diff checks the worker runtime.
    for (int r = 0; r < runs; ++r) {
      uint64_t s = seed + static_cast<uint64_t>(r);
      aurora::ScenarioSpec spec = aurora::GenerateScenario(s);
      aurora::ThreadedCheckReport report =
          aurora::RunThreadedScenario(spec, threaded);
      // stdout carries only what the determinism contract fixes, so the
      // digest is byte-identical across worker counts and runs; the
      // scheduling counters go to stderr.
      if (digest) {
        std::fprintf(stdout, "seed %llu\n",
                     static_cast<unsigned long long>(s));
        std::fputs(report.Summary().c_str(), stdout);
        std::fprintf(stderr, "seed %llu %s",
                     static_cast<unsigned long long>(s),
                     report.SchedulingStats().c_str());
      }
      if (!report.ok()) {
        std::fprintf(stdout, "simcheck: seed %llu FAILED (threaded)\n",
                     static_cast<unsigned long long>(s));
        std::fputs(report.Summary().c_str(), stdout);
        std::fputs(report.SchedulingStats().c_str(), stderr);
        return 1;
      }
    }
    std::fprintf(stdout, "simcheck: %d threaded runs clean (seeds %llu..%llu)\n",
                 runs, static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(
                     seed + static_cast<uint64_t>(runs) - 1));
    std::fprintf(stderr, "simcheck: %d workers\n", threaded);
    return 0;
  }

  aurora::RunOptions ropts;
  for (int r = 0; r < runs; ++r) {
    uint64_t s = seed + static_cast<uint64_t>(r);
    aurora::ScenarioSpec spec = aurora::GenerateScenario(s);
    if (disable_dedup) spec.dedup = false;
    aurora::RunReport report = aurora::RunScenario(spec, ropts);
    if (digest) {
      // Per-seed output rows+hashes on stdout: two invocations of the same
      // seed range must emit byte-identical digests regardless of tracing
      // or flight-recorder settings (the CI obs-smoke step diffs them).
      std::fprintf(stdout, "seed %llu\n", static_cast<unsigned long long>(s));
      std::fputs(report.Summary().c_str(), stdout);
    }
    if (report.ok()) {
      if ((r + 1) % 50 == 0) {
        std::fprintf(stderr, "simcheck: %d/%d runs clean\n", r + 1, runs);
      }
      continue;
    }
    std::fprintf(stdout, "simcheck: seed %llu FAILED\n",
                 static_cast<unsigned long long>(s));
    std::fputs(report.Summary().c_str(), stdout);

    aurora::ScenarioSpec min_spec = spec;
    if (shrink) {
      const std::string kind = report.violations.front().invariant;
      std::fprintf(stderr, "simcheck: shrinking on '%s'...\n", kind.c_str());
      min_spec = aurora::ShrinkScenario(
          spec, [&kind, disable_dedup, &ropts](const aurora::ScenarioSpec& cand) {
            aurora::ScenarioSpec c = cand;
            if (disable_dedup) c.dedup = false;
            aurora::RunReport rr = aurora::RunScenario(c, ropts);
            for (const aurora::Violation& v : rr.violations) {
              if (v.invariant == kind) return true;
            }
            return false;
          });
      if (disable_dedup) min_spec.dedup = false;
    }
    std::string path = out_dir + "/simcheck_fail_" + std::to_string(s) +
                       ".spec";
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    std::ofstream out(path);
    out << min_spec.ToSpec();
    out.close();
    if (out) {
      std::fprintf(stdout, "simcheck: minimized spec written to %s\n",
                   path.c_str());
    } else {
      std::fprintf(stderr, "simcheck: failed to write %s\n", path.c_str());
    }
    std::fprintf(stdout, "simcheck: minimized to %zu fault events, %d "
                         "tuples, %zu chain(s)\n",
                 min_spec.faults.size(), min_spec.trace_n,
                 min_spec.chains.size());
    return 1;
  }
  std::fprintf(stdout, "simcheck: %d runs clean (seeds %llu..%llu)\n", runs,
               static_cast<unsigned long long>(seed),
               static_cast<unsigned long long>(seed +
                                               static_cast<uint64_t>(runs) -
                                               1));
  return 0;
}
