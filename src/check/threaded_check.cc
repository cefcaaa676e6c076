#include "check/threaded_check.h"

#include <cstdio>
#include <map>
#include <sstream>

#include "distributed/deployment.h"
#include "engine/aurora_engine.h"
#include "engine/threaded_engine.h"
#include "obs/metrics.h"

namespace aurora {

namespace {

std::string CanonicalRow(const Tuple& t) {
  std::string row;
  for (size_t i = 0; i < t.num_values(); ++i) {
    if (i > 0) row += "|";
    row += t.value(i).ToString();
  }
  return row;
}

/// FNV-1a over all rows, as runner.cc's RunReport digest — makes the
/// `output` lines content-sensitive, not just count-sensitive.
uint64_t HashRows(const std::vector<std::string>& rows) {
  uint64_t h = 1469598103934665603ull;
  for (const std::string& row : rows) {
    for (char c : row) {
      h ^= static_cast<uint8_t>(c);
      h *= 1099511628211ull;
    }
    h ^= '\n';
    h *= 1099511628211ull;
  }
  return h;
}

/// DeployQueryLocal for the threaded runtime: same progressive wiring (an
/// arc out of a box can only be connected once the box's output schema is
/// known), targeting a ThreadedEngine.
Status DeployQueryThreaded(ThreadedEngine* engine, const GlobalQuery& query) {
  for (const auto& in : query.inputs()) {
    AURORA_RETURN_NOT_OK(engine->AddInput(in.name, in.schema).status());
  }
  std::map<std::string, BoxId> boxes;
  for (const auto& box : query.boxes()) {
    AURORA_ASSIGN_OR_RETURN(BoxId id, engine->AddBox(box.spec));
    boxes[box.name] = id;
  }
  for (const auto& out : query.outputs()) {
    AURORA_RETURN_NOT_OK(engine->AddOutput(out).status());
  }
  std::vector<bool> wired(query.arcs().size(), false);
  size_t remaining = query.arcs().size();
  while (remaining > 0) {
    size_t progressed = 0;
    for (size_t i = 0; i < query.arcs().size(); ++i) {
      if (wired[i]) continue;
      const auto& arc = query.arcs()[i];
      Endpoint src_ep;
      if (arc.from_kind == GlobalQuery::ArcDef::FromKind::kInput) {
        AURORA_ASSIGN_OR_RETURN(PortId port, engine->FindInput(arc.from));
        src_ep = Endpoint::InputPort(port);
      } else {
        BoxId box = boxes.at(arc.from);
        if (!engine->IsBoxInitialized(box)) continue;
        src_ep = Endpoint::BoxPort(box, arc.from_index);
      }
      Endpoint dst_ep;
      if (arc.to_kind == GlobalQuery::ArcDef::ToKind::kOutput) {
        AURORA_ASSIGN_OR_RETURN(PortId port, engine->FindOutput(arc.to));
        dst_ep = Endpoint::OutputPort(port);
      } else {
        dst_ep = Endpoint::BoxPort(boxes.at(arc.to), arc.to_index);
      }
      AURORA_RETURN_NOT_OK(engine->Connect(src_ep, dst_ep).status());
      wired[i] = true;
      ++progressed;
      --remaining;
    }
    AURORA_RETURN_NOT_OK(engine->InitializeBoxes(/*require_all=*/false));
    if (progressed == 0 && remaining > 0) {
      return Status::FailedPrecondition(
          "threaded deployment stuck: query has a cycle or a box input "
          "depends on an unconnected source");
    }
  }
  return engine->InitializeBoxes();
}

}  // namespace

std::string ThreadedCheckReport::Summary() const {
  std::ostringstream os;
  os << "injected=" << injected << "\n";
  for (const auto& [name, rows] : outputs) {
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(HashRows(rows)));
    os << "output " << name << " rows=" << rows.size() << " hash=" << hex
       << "\n";
  }
  os << "violations=" << violations.size() << "\n";
  for (const std::string& v : violations) {
    os << "violation " << v << "\n";
  }
  return os.str();
}

std::string ThreadedCheckReport::SchedulingStats() const {
  std::ostringstream os;
  os << "workers=" << workers << " activations=" << activations
     << " steals=" << steals << " ring_full=" << ring_full_events << "\n";
  return os.str();
}

ThreadedCheckReport RunThreadedScenario(const ScenarioSpec& spec,
                                        int workers, int train_size) {
  ThreadedCheckReport report;
  report.workers = workers;
  if (Status st = spec.Validate(); !st.ok()) {
    report.violations.push_back("spec: " + st.ToString());
    return report;
  }
  MetricsRegistry::Global().Reset();

  auto query = spec.BuildQuery();
  if (!query.ok()) {
    report.violations.push_back("deploy: " + query.status().ToString());
    return report;
  }

  ThreadedEngineOptions topts;
  topts.workers = workers;
  topts.train_size = train_size > 0   ? train_size
                     : spec.train > 0 ? spec.train * 16
                                      : 64;
  ThreadedEngine engine(topts);
  if (Status st = DeployQueryThreaded(&engine, *query); !st.ok()) {
    report.violations.push_back("deploy: " + st.ToString());
    return report;
  }
  for (const std::string& name : query->outputs()) {
    auto port = engine.FindOutput(name);
    if (!port.ok()) {
      report.violations.push_back("deploy: " + port.status().ToString());
      return report;
    }
    std::string out_name = name;
    // Called with the output's mutex held; rows land in emission order.
    engine.SetOutputCallback(*port, [&report, out_name](const Tuple& t,
                                                        SimTime) {
      report.outputs[out_name].push_back(CanonicalRow(t));
    });
    report.outputs[name];
    report.oracle_outputs[name];
  }

  if (Status st = engine.Start(); !st.ok()) {
    report.violations.push_back("start: " + st.ToString());
    return report;
  }
  std::vector<Tuple> trace = spec.GenerateTrace();
  for (const Tuple& t : trace) {
    Status push = engine.PushInputByName("src", t, t.timestamp());
    if (!push.ok()) {
      report.violations.push_back("push: " + push.ToString());
      (void)engine.Stop();
      return report;
    }
    ++report.injected;
  }
  engine.WaitQuiescent();
  report.activations = engine.activations();
  report.steals = engine.steals();
  report.ring_full_events = engine.ring_full_events();
  if (Status st = engine.Stop(); !st.ok()) {
    report.violations.push_back("operator: " + st.ToString());
    return report;
  }

  // Single-threaded oracle over the identical trace.
  AuroraEngine oracle;
  if (Status st = DeployQueryLocal(&oracle, *query); !st.ok()) {
    report.violations.push_back("oracle deploy: " + st.ToString());
    return report;
  }
  for (const std::string& name : query->outputs()) {
    auto port = oracle.FindOutput(name);
    if (!port.ok()) {
      report.violations.push_back("oracle deploy: " +
                                  port.status().ToString());
      return report;
    }
    std::string out_name = name;
    oracle.SetOutputCallback(*port, [&report, out_name](const Tuple& t,
                                                        SimTime) {
      report.oracle_outputs[out_name].push_back(CanonicalRow(t));
    });
  }
  SimTime now{};
  for (const Tuple& t : trace) {
    now = t.timestamp();
    if (Status push = oracle.PushInputByName("src", t, now); !push.ok()) {
      report.violations.push_back("oracle push: " + push.ToString());
      return report;
    }
  }
  if (Status run = oracle.RunUntilQuiescent(now); !run.ok()) {
    report.violations.push_back("oracle run: " + run.ToString());
    return report;
  }

  // Exact diff: scenario chains are linear, so the determinism contract
  // promises byte-identical row sequences per output.
  for (const auto& [name, oracle_rows] : report.oracle_outputs) {
    const std::vector<std::string>& got = report.outputs[name];
    if (got == oracle_rows) continue;
    size_t at = 0;
    while (at < got.size() && at < oracle_rows.size() &&
           got[at] == oracle_rows[at]) {
      ++at;
    }
    std::ostringstream detail;
    detail << "output '" << name << "': threaded " << got.size()
           << " rows vs oracle " << oracle_rows.size()
           << ", first divergence at row " << at;
    if (at < got.size()) detail << " (got '" << got[at] << "')";
    if (at < oracle_rows.size()) {
      detail << " (oracle '" << oracle_rows[at] << "')";
    }
    report.violations.push_back("oracle_diff: " + detail.str());
  }
  return report;
}

}  // namespace aurora
