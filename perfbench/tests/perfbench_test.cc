// Tests for the benchmark's own code: its statistics, its output checks, and
// short healthy runs of the workloads passing those checks.
#include <gtest/gtest.h>

#include <numeric>

#include "calib.h"
#include "stats.h"
#include "trace.h"
#include "tuple/tuple.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> Range(int lo, int hi) {
  std::vector<double> v(static_cast<size_t>(hi - lo + 1));
  std::iota(v.begin(), v.end(), static_cast<double>(lo));
  return v;
}

TEST(Stats, MedianOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

// Expected values are Python's statistics.quantiles(values, n=4).
TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  Quartiles q = ComputeQuartiles(Range(1, 10));
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);

  q = ComputeQuartiles({1, 2});
  EXPECT_DOUBLE_EQ(q.q1, 0.75);
  EXPECT_DOUBLE_EQ(q.median, 1.5);
  EXPECT_DOUBLE_EQ(q.q3, 2.25);

  q = ComputeQuartiles({5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 7.5});
  EXPECT_DOUBLE_EQ(q.q1, 2.0);
  EXPECT_DOUBLE_EQ(q.median, 4.0);
  EXPECT_DOUBLE_EQ(q.q3, 7.5);

  q = ComputeQuartiles({4, 4, 4, 4});
  EXPECT_DOUBLE_EQ(q.q1, 4.0);
  EXPECT_DOUBLE_EQ(q.q3, 4.0);
}

TEST(Stats, PercentileRefusesFewerThanTenSamplesBeyond) {
  EXPECT_EQ(MinSamplesFor(99), 1000u);
  EXPECT_EQ(MinSamplesFor(90), 100u);
  EXPECT_EQ(MinSamplesFor(50), 20u);

  EXPECT_FALSE(Percentile(Range(1, 999), 99).has_value());
  EXPECT_FALSE(Percentile(Range(1, 99), 90).has_value());
  EXPECT_FALSE(Percentile(Range(1, 19), 50).has_value());
  EXPECT_FALSE(Percentile({}, 50).has_value());
  EXPECT_FALSE(Percentile(Range(1, 100), 100).has_value());

  // Nearest rank, with exactly ten samples above the answer.
  std::optional<double> p99 = Percentile(Range(1, 1000), 99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_DOUBLE_EQ(*p99, 990.0);
  std::optional<double> p90 = Percentile(Range(1, 100), 90);
  ASSERT_TRUE(p90.has_value());
  EXPECT_DOUBLE_EQ(*p90, 90.0);
  std::optional<double> p50 = Percentile(Range(1, 20), 50);
  ASSERT_TRUE(p50.has_value());
  EXPECT_DOUBLE_EQ(*p50, 10.0);
}

TEST(Stats, WindowRatesCloseOnMeasuredTime) {
  // (tuples, seconds) per round; windows close at >= 1 s.
  std::vector<std::pair<double, double>> work = {
      {100, 0.5}, {100, 0.5}, {300, 1.0}, {50, 0.25}, {50, 0.25}, {10, 0.5}};
  std::vector<double> rates = WindowRates(work, 1.0);
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_DOUBLE_EQ(rates[0], 200.0);
  EXPECT_DOUBLE_EQ(rates[1], 300.0);
  EXPECT_DOUBLE_EQ(rates[2], 110.0);  // the short 0.5 s tail folded in
  EXPECT_DOUBLE_EQ(Median(rates), 200.0);

  rates = WindowRates({{40, 0.5}}, 1.0);  // shorter than one window
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_DOUBLE_EQ(rates[0], 80.0);
  EXPECT_TRUE(WindowRates({}, 1.0).empty());
}

TEST(Calibration, ScalesByTheMedianOfTheNearestSamples) {
  HostSpeed speed;
  EXPECT_DOUBLE_EQ(speed.Scale(5, 2.0), 2.0);  // nothing sampled: unscaled
  // The host runs the kernel at the reference speed until t=100, then at
  // half speed; one outlier sample sits among the slow ones.
  for (int64_t t = 0; t < 100; t += 5) speed.Record(t, kReferenceKernelNs);
  for (int64_t t = 100; t < 200; t += 5) {
    speed.Record(t, t == 150 ? 40 * kReferenceKernelNs
                             : 2 * kReferenceKernelNs);
  }
  EXPECT_DOUBLE_EQ(speed.Scale(20, 3.0), 3.0);
  EXPECT_DOUBLE_EQ(speed.Scale(150, 3.0), 1.5);
  EXPECT_DOUBLE_EQ(speed.Scale(-50, 3.0), 3.0);  // before the first sample
  EXPECT_DOUBLE_EQ(speed.Scale(500, 3.0), 1.5);  // after the last
  // Nine nearest to t=101: 80..120, five of them slow.
  EXPECT_DOUBLE_EQ(speed.Scale(101, 3.0), 1.5);
  EXPECT_EQ(speed.samples(), 40u);
}

TEST(Calibration, KernelIsDeterministic) {
  EXPECT_EQ(CalibrationKernel(), CalibrationKernel());
  HostSpeed speed;
  speed.Sample();
  speed.MaybeSample();  // within kEveryNs of the first: skipped
  EXPECT_EQ(speed.samples(), 1u);
  EXPECT_GT(speed.MedianKernelNs(), 0.0);
}

TEST(Trace, SelfTimeExcludesChildSpans) {
  SpanTracer tracer(true);
  const int outer = tracer.Site("outer");
  const int inner = tracer.Site("inner");
  {
    Span a(&tracer, outer, 7);
    Span b(&tracer, inner, 7);
  }
  const auto o = tracer.Get("outer");
  const auto i = tracer.Get("inner");
  EXPECT_EQ(o.count, 1u);
  EXPECT_EQ(i.count, 1u);
  EXPECT_EQ(o.self_ns, o.total_ns - i.total_ns);
  ASSERT_EQ(tracer.records().size(), 2u);
  EXPECT_EQ(tracer.records()[0].parent,
            static_cast<int64_t>(tracer.records()[1].seq));
  EXPECT_EQ(tracer.records()[0].id, 7u);
}

TEST(Trace, AlternatingTracerFlipsAtUnitStarts) {
  SpanTracer tracer(false);
  const int site = tracer.Site("unit");
  tracer.StartUnit();  // no alternation configured: stays off
  EXPECT_FALSE(tracer.enabled());
  tracer.AlternateEvery(1e-9);  // every unit start is past the period
  std::vector<bool> states;
  for (int i = 0; i < 4; ++i) {
    tracer.StartUnit();
    states.push_back(tracer.enabled());
    Span s(&tracer, site, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(states, std::vector<bool>({true, false, true, false}));
  EXPECT_EQ(tracer.Get("unit").count, 2u);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  SpanTracer tracer(false);
  const int site = tracer.Site("x");
  { Span s(&tracer, site, 1); }
  EXPECT_EQ(tracer.Get("x").count, 0u);
  EXPECT_TRUE(tracer.records().empty());
}

TEST(Checks, ChainModelFollowsTumbleEveryN) {
  // B<3 is filtered; sixteen A=1 tuples with B=3 close one window (sum 48);
  // other keys keep their own windows open.
  ChainModel model;
  std::vector<ChainRow> rows;
  model.Push(1, 2, &rows);
  for (int i = 0; i < 15; ++i) model.Push(1, 3, &rows);
  model.Push(2, 9, &rows);
  EXPECT_TRUE(rows.empty());
  model.Push(1, 3, &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], ChainRow(1, 48));
}

// Inputs that close three windows: keys 1, 2, 3, sixteen tuples each.
void ExpectThreeWindows(ChainChecker* checker, std::vector<ChainRow>* rows) {
  std::vector<int64_t> a, b;
  ChainModel model;
  for (int64_t key = 1; key <= 3; ++key) {
    for (int i = 0; i < 16; ++i) {
      a.push_back(key);
      b.push_back(3 + key);
      model.Push(key, 3 + key, rows);
    }
  }
  checker->ExpectInputs(a.data(), b.data(), a.size());
}

TEST(Checks, ChainCheckerAcceptsExactAndLateRows) {
  ChainChecker checker(2);
  std::vector<ChainRow> model_rows;
  ExpectThreeWindows(&checker, &model_rows);
  ASSERT_EQ(model_rows.size(), 3u);
  // Chain 1 is one row short when the round ends; the row comes later.
  std::vector<std::vector<ChainRow>> rows = {
      model_rows, {model_rows[0], model_rows[1]}};
  checker.TakeRows(&rows);
  EXPECT_EQ(checker.late_rounds(), 1u);
  rows[1].push_back(model_rows[2]);
  checker.TakeRows(&rows);
  checker.Finish();
  EXPECT_TRUE(checker.errors().empty());
}

TEST(Checks, CorruptedChainOutputFailsTheCheck) {
  ChainChecker checker(3);
  std::vector<ChainRow> model_rows;
  ExpectThreeWindows(&checker, &model_rows);
  std::vector<std::vector<ChainRow>> rows(3, model_rows);
  rows[1][2].second += 1;  // one wrong aggregate
  rows[2].pop_back();      // one row never delivered
  checker.TakeRows(&rows);
  checker.Finish();
  ASSERT_EQ(checker.errors().size(), 2u);
  EXPECT_NE(checker.errors()[0].find("out1: row 2 differs"), std::string::npos);
  EXPECT_NE(checker.errors()[1].find("out2: 1 of the model's rows never"),
            std::string::npos);
}

TEST(Checks, ExtraChainRowFailsTheCheck) {
  ChainChecker checker(1);
  std::vector<ChainRow> model_rows;
  ExpectThreeWindows(&checker, &model_rows);
  std::vector<std::vector<ChainRow>> rows = {model_rows};
  rows[0].push_back(model_rows[0]);  // a duplicate
  checker.TakeRows(&rows);
  ASSERT_EQ(checker.errors().size(), 1u);
  EXPECT_NE(checker.errors()[0].find("beyond"), std::string::npos);
}

TEST(Checks, CorruptedReplayFailsTheCheck) {
  auto schema = aurora::Schema::Make(
      {aurora::Field{"k", aurora::ValueType::kInt64},
       aurora::Field{"s", aurora::ValueType::kString}});
  std::vector<aurora::Tuple> model;
  for (int i = 0; i < 4; ++i) {
    model.push_back(aurora::MakeTuple(schema, {aurora::Value(int64_t{i}),
                                               aurora::Value("x")}));
  }
  EXPECT_EQ(CheckReplay(model, model), "");

  std::vector<aurora::Tuple> corrupted = model;
  corrupted[2] = aurora::MakeTuple(schema, {aurora::Value(int64_t{2}),
                                            aurora::Value("y")});
  EXPECT_NE(CheckReplay(corrupted, model), "");
  std::vector<aurora::Tuple> short_replay(model.begin(), model.end() - 1);
  EXPECT_NE(CheckReplay(short_replay, model), "");
  std::vector<aurora::Tuple> reordered = {model[1], model[0], model[2],
                                          model[3]};
  EXPECT_NE(CheckReplay(reordered, model), "");
}

TEST(Checks, RowDigestSeesOneChangedValueAndOrder) {
  auto schema =
      aurora::Schema::Make({aurora::Field{"k", aurora::ValueType::kInt64}});
  auto t1 = aurora::MakeTuple(schema, {aurora::Value(int64_t{1})});
  auto t2 = aurora::MakeTuple(schema, {aurora::Value(int64_t{2})});
  RowDigest a, b, c;
  a.Add(t1);
  a.Add(t2);
  b.Add(t2);
  b.Add(t1);
  c.Add(t1);
  c.Add(aurora::MakeTuple(schema, {aurora::Value(int64_t{3})}));
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == c);
  RowDigest a2;
  a2.Add(t1);
  a2.Add(t2);
  EXPECT_TRUE(a == a2);
}

// Short healthy runs: every workload's own output check passes and nothing
// is refused.
void ExpectHealthy(PassResult (*run)(const PassOptions&, SpanTracer*)) {
  PassOptions opts;
  opts.seed = 3;
  opts.seconds = 0.3;
  opts.setup_reps = 2;
  opts.need_tail_samples = false;
  SpanTracer tracer(true);
  PassResult r = run(opts, &tracer);
  EXPECT_GT(r.attempted, 0u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_TRUE(r.errors.empty()) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_GT(r.throughput_tps, 0.0);
  EXPECT_FALSE(r.latency_ms.empty());
  EXPECT_EQ(r.latency_at_ns.size(), r.latency_ms.size());
  EXPECT_EQ(r.setup_at_ns.size(), r.setup_s.size());
  EXPECT_GT(r.speed.samples(), 0u);
  EXPECT_FALSE(r.layer.empty());
}

TEST(Workloads, ChainsSingleIsCorrect) { ExpectHealthy(RunChainsSingle); }
TEST(Workloads, ChainsThreadedIsCorrect) { ExpectHealthy(RunChainsThreaded); }
TEST(Workloads, FederationHaIsCorrect) { ExpectHealthy(RunFederationHa); }
TEST(Workloads, CpHistoryIsCorrect) { ExpectHealthy(RunCpHistory); }

}  // namespace
}  // namespace perfbench
