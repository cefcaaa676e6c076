#include "trace.h"

#include <fstream>

namespace perfbench {

int SpanTracer::Site(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.push_back(name);
  totals_.emplace_back();
  return static_cast<int>(names_.size() - 1);
}

void SpanTracer::End() {
  if (!enabled_ || open_.empty()) return;
  const int64_t end = NowNs();
  const Open span = open_.back();
  open_.pop_back();
  const int64_t dur = end - span.start_ns;
  Totals& t = totals_[static_cast<size_t>(span.site)];
  t.count++;
  t.total_ns += dur;
  t.self_ns += dur - span.child_ns;
  int64_t parent = -1;
  if (!open_.empty()) {
    open_.back().child_ns += dur;
    parent = static_cast<int64_t>(open_.back().seq);
  }
  if (records_.size() < keep_) {
    records_.push_back(
        Record{span.seq, parent, span.id, span.site, span.start_ns, end});
  }
}

SpanTracer::Totals SpanTracer::Get(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return totals_[i];
  }
  return Totals{};
}

bool SpanTracer::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "seq,parent,id,name,start_ns,end_ns\n";
  int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  for (const Record& r : records_) {
    if (r.start_ns < origin) origin = r.start_ns;
  }
  for (const Record& r : records_) {
    out << r.seq << ',' << r.parent << ',' << r.id << ','
        << names_[static_cast<size_t>(r.site)] << ',' << (r.start_ns - origin)
        << ',' << (r.end_ns - origin) << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
