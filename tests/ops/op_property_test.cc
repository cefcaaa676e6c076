// Randomized property sweeps over operator invariants, parameterized by
// seed and workload shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>

#include "check/shrink_list.h"
#include "common/rng.h"
#include "ops/aggregate.h"
#include "ops/wsort_op.h"
#include "tests/test_util.h"

namespace aurora {
namespace {

using testing_util::CollectingEmitter;
using testing_util::GetInt;
using testing_util::MakeTestRng;
using testing_util::RunUnaryOp;
using testing_util::SchemaAB;

struct SeedCase {
  uint64_t seed;
  int n;
};

class WSortPropertyTest : public ::testing::TestWithParam<SeedCase> {};

// Invariant: whatever arrives, the emitted sequence (including drain) is
// non-decreasing in the sort key, and emitted + dropped == received.
TEST_P(WSortPropertyTest, OutputSortedAndAccounted) {
  const auto& c = GetParam();
  Rng rng = MakeTestRng(c.seed);
  auto spec = WSortSpec({"A"}, /*timeout_us=*/5'000);
  ASSERT_OK_AND_ASSIGN(OperatorPtr op, CreateOperator(spec));
  ASSERT_OK(op->Init({SchemaAB()}));
  auto* wsort = static_cast<WSortOp*>(op.get());
  CollectingEmitter emitter;
  SimTime now;
  for (int i = 0; i < c.n; ++i) {
    Tuple t = MakeTuple(SchemaAB(),
                        {Value(rng.UniformInt(0, 50)), Value(i)});
    now += SimDuration::Millis(static_cast<int64_t>(rng.Uniform(4)));
    t.set_timestamp(now);
    ASSERT_OK(op->Process(0, t, now, &emitter));
    op->OnTick(now, &emitter);
  }
  op->Drain(&emitter);
  std::vector<Tuple> out = emitter.OnOutput(0);
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LE(GetInt(out[i - 1], "A"), GetInt(out[i], "A")) << "at " << i;
  }
  EXPECT_EQ(out.size() + wsort->dropped(), static_cast<size_t>(c.n));
}

INSTANTIATE_TEST_SUITE_P(Sweep, WSortPropertyTest,
                         ::testing::Values(SeedCase{1, 50}, SeedCase{2, 200},
                                           SeedCase{3, 500}, SeedCase{4, 31},
                                           SeedCase{5, 1000}));

class TumblePropertyTest : public ::testing::TestWithParam<SeedCase> {};

// Invariant: with agg=cnt, the sum of all window counts (after drain)
// equals the number of input tuples, and each window's count equals its
// run length.
TEST_P(TumblePropertyTest, CountsPartitionTheInput) {
  const auto& c = GetParam();
  Rng rng = MakeTestRng(c.seed);
  SchemaPtr schema = SchemaAB();
  std::vector<Tuple> stream;
  int64_t group = 0;
  std::vector<int64_t> run_lengths;
  while (static_cast<int>(stream.size()) < c.n) {
    int64_t run = rng.UniformInt(1, 6);
    run = std::min<int64_t>(run, c.n - static_cast<int64_t>(stream.size()));
    run_lengths.push_back(run);
    for (int64_t j = 0; j < run; ++j) {
      stream.push_back(MakeTuple(schema, {Value(group), Value(j)}));
    }
    ++group;
  }
  ASSERT_OK_AND_ASSIGN(
      std::vector<Tuple> out,
      RunUnaryOp(TumbleSpec("cnt", "B", {"A"}), schema, stream, true));
  ASSERT_EQ(out.size(), run_lengths.size());
  int64_t total = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(GetInt(out[i], "Result"), run_lengths[i]) << "window " << i;
    total += GetInt(out[i], "Result");
  }
  EXPECT_EQ(total, c.n);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TumblePropertyTest,
                         ::testing::Values(SeedCase{10, 40}, SeedCase{11, 123},
                                           SeedCase{12, 400},
                                           SeedCase{13, 999}));

class JoinPropertyTest : public ::testing::TestWithParam<SeedCase> {};

// Invariant: the join result is independent of which side a pair's tuples
// arrive on first (symmetric hash join).
TEST_P(JoinPropertyTest, SymmetricInArrivalOrder) {
  const auto& c = GetParam();
  SchemaPtr left = SchemaAB();
  SchemaPtr right = Schema::Make(
      {Field{"K", ValueType::kInt64}, Field{"V", ValueType::kInt64}});
  // A batch of left/right tuples with random keys, all within the window.
  Rng rng = MakeTestRng(c.seed);
  std::vector<Tuple> lefts, rights;
  for (int i = 0; i < c.n; ++i) {
    Tuple l = MakeTuple(left, {Value(rng.UniformInt(0, 9)), Value(i)});
    l.set_timestamp(SimTime::Millis(1));
    lefts.push_back(std::move(l));
    Tuple r = MakeTuple(right, {Value(rng.UniformInt(0, 9)), Value(i)});
    r.set_timestamp(SimTime::Millis(1));
    rights.push_back(std::move(r));
  }
  auto run = [&](bool left_first) {
    auto op = std::move(CreateOperator(JoinSpec("A", "K", 1'000'000))).ValueUnsafe();
    AURORA_CHECK(op->Init({left, right}).ok());
    CollectingEmitter emitter;
    if (left_first) {
      for (const auto& l : lefts) {
        (void)op->Process(0, l, SimTime::Millis(1), &emitter);
      }
      for (const auto& r : rights) {
        (void)op->Process(1, r, SimTime::Millis(1), &emitter);
      }
    } else {
      for (const auto& r : rights) {
        (void)op->Process(1, r, SimTime::Millis(1), &emitter);
      }
      for (const auto& l : lefts) {
        (void)op->Process(0, l, SimTime::Millis(1), &emitter);
      }
    }
    // Canonicalize: multiset of (left B, right V) pairs.
    std::multiset<std::pair<int64_t, int64_t>> pairs;
    for (const auto& t : emitter.OnOutput(0)) {
      pairs.insert({t.Get("B").AsInt(), t.Get("V").AsInt()});
    }
    return pairs;
  };
  EXPECT_EQ(run(true), run(false));
}

INSTANTIATE_TEST_SUITE_P(Sweep, JoinPropertyTest,
                         ::testing::Values(SeedCase{20, 20}, SeedCase{21, 60},
                                           SeedCase{22, 150}));

// ---- Brute-force reference checks (seeded, shrinking on failure) ---------
//
// Each suite feeds seeded random input to an operator and compares against
// an independent from-scratch reference model. On mismatch the failing
// input list is minimized with ShrinkList (the simcheck minimizer) so the
// assertion message carries a small reproducer instead of hundreds of rows.

std::string DescribeRows(const std::vector<std::pair<int64_t, int64_t>>& rows) {
  std::ostringstream os;
  for (const auto& [a, b] : rows) os << "(" << a << "," << b << ") ";
  return os.str();
}

class AggregatePropertyTest : public ::testing::TestWithParam<SeedCase> {};

// Invariant: every registered aggregate matches a direct fold over the
// same values.
TEST_P(AggregatePropertyTest, MatchesDirectFold) {
  const auto& c = GetParam();
  for (const std::string name : {"cnt", "sum", "avg", "min", "max"}) {
    Rng rng = MakeTestRng(c.seed);
    ASSERT_OK_AND_ASSIGN(auto agg, MakeAggregate(name));
    agg->Reset();
    std::vector<int64_t> values;
    for (int i = 0; i < c.n; ++i) {
      int64_t v = rng.UniformInt(-500, 500);
      values.push_back(v);
      agg->Update(Value(v));
    }
    int64_t sum = 0, mn = values[0], mx = values[0];
    for (int64_t v : values) {
      sum += v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    EXPECT_EQ(agg->count(), static_cast<uint64_t>(c.n)) << name;
    Value got = agg->Final();
    if (name == "cnt") {
      EXPECT_EQ(got.AsInt(), c.n);
    } else if (name == "sum") {
      EXPECT_EQ(got.AsInt(), sum) << name;
    } else if (name == "avg") {
      EXPECT_DOUBLE_EQ(got.AsNumeric(),
                       static_cast<double>(sum) / c.n);
    } else if (name == "min") {
      EXPECT_EQ(got.AsInt(), mn);
    } else {
      EXPECT_EQ(got.AsInt(), mx);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AggregatePropertyTest,
                         ::testing::Values(SeedCase{30, 1}, SeedCase{31, 17},
                                           SeedCase{32, 256},
                                           SeedCase{33, 777}));

using Row = std::pair<int64_t, int64_t>;  // (A, B)

std::vector<Tuple> RowsToTuples(const std::vector<Row>& rows) {
  SchemaPtr schema = SchemaAB();
  std::vector<Tuple> tuples;
  for (const auto& [a, b] : rows) {
    tuples.push_back(MakeTuple(schema, {Value(a), Value(b)}));
  }
  return tuples;
}

class TumbleEveryNPropertyTest : public ::testing::TestWithParam<SeedCase> {};

// Invariant: tumble in every_n mode equals the reference "per-key sums of
// consecutive chunks of n values" (drain flushing the final partials).
TEST_P(TumbleEveryNPropertyTest, MatchesChunkedReference) {
  const auto& c = GetParam();
  Rng rng = MakeTestRng(c.seed);
  const int64_t n = rng.UniformInt(2, 5);
  std::vector<Row> rows;
  for (int i = 0; i < c.n; ++i) {
    rows.push_back({rng.UniformInt(0, 5), rng.UniformInt(0, 99)});
  }
  auto spec = TumbleSpec("sum", "B", {"A"});
  spec.SetParam("emit", Value("every_n"));
  spec.SetParam("n", Value(n));

  // Mismatch detector, reused by the shrinker: per-key emitted sums vs
  // per-key chunked reference sums.
  auto mismatch = [&](const std::vector<Row>& input) {
    auto out = RunUnaryOp(spec, SchemaAB(), RowsToTuples(input), true);
    if (!out.ok()) return true;
    std::map<int64_t, std::vector<int64_t>> got, want;
    for (const Tuple& t : *out) {
      got[GetInt(t, "A")].push_back(GetInt(t, "Result"));
    }
    std::map<int64_t, std::vector<int64_t>> per_key;
    for (const auto& [a, b] : input) per_key[a].push_back(b);
    for (const auto& [a, values] : per_key) {
      for (size_t at = 0; at < values.size(); at += static_cast<size_t>(n)) {
        size_t end = std::min(values.size(), at + static_cast<size_t>(n));
        int64_t sum = 0;
        for (size_t j = at; j < end; ++j) sum += values[j];
        want[a].push_back(sum);
      }
    }
    return got != want;
  };

  if (mismatch(rows)) {
    std::vector<Row> minimal = ShrinkList<Row>(rows, mismatch);
    FAIL() << "tumble every_n (n=" << n
           << ") diverges from chunked reference; minimal failing input: "
           << DescribeRows(minimal);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TumbleEveryNPropertyTest,
                         ::testing::Values(SeedCase{40, 30}, SeedCase{41, 100},
                                           SeedCase{42, 333},
                                           SeedCase{43, 998}));

struct WindowCase {
  uint64_t seed;
  int n;
  int64_t window;
  int64_t advance;
};

class WindowAggPropertyTest : public ::testing::TestWithParam<WindowCase> {};

// Invariant: xsection(sum) with groupby equals the reference "sum of the
// last `window` values at every position p >= window-1 where
// (p - window + 1) % advance == 0", independently per key.
TEST_P(WindowAggPropertyTest, XSectionMatchesSlidingReference) {
  const auto& c = GetParam();
  Rng rng = MakeTestRng(c.seed);
  std::vector<Row> rows;
  for (int i = 0; i < c.n; ++i) {
    rows.push_back({rng.UniformInt(0, 3), rng.UniformInt(0, 50)});
  }
  auto spec = XSectionSpec("sum", "B", c.window, c.advance, {"A"});

  auto mismatch = [&](const std::vector<Row>& input) {
    auto out = RunUnaryOp(spec, SchemaAB(), RowsToTuples(input));
    if (!out.ok()) return true;
    std::map<int64_t, std::vector<int64_t>> got, want;
    for (const Tuple& t : *out) {
      got[GetInt(t, "A")].push_back(GetInt(t, "Result"));
    }
    std::map<int64_t, std::vector<int64_t>> per_key;
    for (const auto& [a, b] : input) per_key[a].push_back(b);
    for (const auto& [a, values] : per_key) {
      for (size_t p = static_cast<size_t>(c.window) - 1; p < values.size();
           ++p) {
        size_t lo = p - static_cast<size_t>(c.window) + 1;
        if (lo % static_cast<size_t>(c.advance) != 0) continue;
        int64_t sum = 0;
        for (size_t j = lo; j <= p; ++j) sum += values[j];
        want[a].push_back(sum);
      }
    }
    return got != want;
  };

  if (mismatch(rows)) {
    std::vector<Row> minimal = ShrinkList<Row>(rows, mismatch);
    FAIL() << "xsection(window=" << c.window << ", advance=" << c.advance
           << ") diverges from sliding reference; minimal failing input: "
           << DescribeRows(minimal);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WindowAggPropertyTest,
    ::testing::Values(WindowCase{50, 60, 3, 1}, WindowCase{51, 120, 4, 4},
                      WindowCase{52, 250, 5, 2}, WindowCase{53, 500, 2, 1},
                      WindowCase{54, 77, 6, 3}));

class WSortBufferPropertyTest : public ::testing::TestWithParam<SeedCase> {};

// Invariant: wsort with a buffer cap (timeout 0, so no timer involvement)
// equals an independent sorted-buffer + watermark model: when the buffer
// exceeds its cap the smallest element is emitted and becomes the
// watermark; arrivals below the watermark are dropped; drain emits the
// remainder in ascending order.
TEST_P(WSortBufferPropertyTest, MatchesSortedBufferReference) {
  const auto& c = GetParam();
  Rng rng = MakeTestRng(c.seed);
  const int64_t max_buffer = rng.UniformInt(3, 12);
  // Unique sort keys in random order: ties between equal keys would make
  // the reference's pick ambiguous without modeling the op's internals.
  std::vector<Row> rows;
  for (int i = 0; i < c.n; ++i) {
    rows.push_back({rng.UniformInt(0, 1000) * 1000 + i, i});
  }
  auto spec = WSortSpec({"A"}, /*timeout_us=*/0, max_buffer);

  auto mismatch = [&](const std::vector<Row>& input) {
    auto out = RunUnaryOp(spec, SchemaAB(), RowsToTuples(input), true);
    if (!out.ok()) return true;
    std::vector<int64_t> got;
    for (const Tuple& t : *out) got.push_back(GetInt(t, "A"));
    std::vector<int64_t> want;
    std::vector<int64_t> buffer;
    int64_t watermark = -1;
    for (const auto& [a, b] : input) {
      if (a < watermark) continue;  // late: reference model drops it
      buffer.insert(std::upper_bound(buffer.begin(), buffer.end(), a), a);
      while (static_cast<int64_t>(buffer.size()) > max_buffer) {
        watermark = buffer.front();
        want.push_back(buffer.front());
        buffer.erase(buffer.begin());
      }
    }
    want.insert(want.end(), buffer.begin(), buffer.end());
    return got != want;
  };

  if (mismatch(rows)) {
    std::vector<Row> minimal = ShrinkList<Row>(rows, mismatch);
    FAIL() << "wsort(max_buffer=" << max_buffer
           << ") diverges from sorted-buffer reference; minimal failing "
              "input: "
           << DescribeRows(minimal);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, WSortBufferPropertyTest,
                         ::testing::Values(SeedCase{60, 25}, SeedCase{61, 80},
                                           SeedCase{62, 300},
                                           SeedCase{63, 1000}));

// ---- Chunking equivalence against pinned goldens (BatchOracle) -----------
//
// Contract under test: how a stream is cut into trains does not change what
// ProcessBatch does — same tuples in the same order on the same outputs,
// same seq/trace stamping, same operator counters, and the same first
// error. Every case runs at train sizes 1, 2, 7 and 64 (the degenerate
// size, small primes that leave odd tails, and the bench's wide setting)
// and each run must match the case's golden. On a mismatch at size k the
// input is minimized with ShrinkList on "size k disagrees with size 1".
//
// How the goldens were captured: at commit 02a44f3, the last one whose
// operators still had a per-tuple ProcessImpl beside ProcessBatchImpl, this
// file's cases ran that scalar path (per-tuple Process, with the engines'
// per-tuple trace stamping modelled by a wrapping emitter) and printed, per
// case, the FNV-1a hash of CanonicalEmissions, tuples_in, tuples_out and
// the first error. Those printed values are the table below, unedited.

/// One canonical line per emission: output index, seq, trace id, values.
std::string CanonicalEmissions(const CollectingEmitter& emitter) {
  std::ostringstream os;
  for (const auto& [output, t] : emitter.emissions()) {
    os << output << " seq=" << t.seq() << " trace=" << t.trace_id()
       << " ts=" << t.timestamp().micros() << " [";
    for (size_t i = 0; i < t.num_values(); ++i) {
      if (i > 0) os << "|";
      os << t.value(i).ToString();
    }
    os << "]\n";
  }
  return os.str();
}

struct OracleRun {
  std::string emissions;
  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  std::string first_error;  // empty when every Process/ProcessBatch was OK
};

/// What a golden pins of one run.
struct Golden {
  uint64_t emissions_fnv;  // FNV-1a 64 of CanonicalEmissions
  uint64_t tuples_in;
  uint64_t tuples_out;
  std::string first_error;
  bool operator==(const Golden&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Golden& g) {
  return os << "{emissions 0x" << std::hex << g.emissions_fnv << std::dec
            << ", in " << g.tuples_in << ", out " << g.tuples_out
            << ", first error '" << g.first_error << "'}";
}

Golden Summarize(const OracleRun& run) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : run.emissions) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return Golden{h, run.tuples_in, run.tuples_out, run.first_error};
}

/// Goldens keyed "<case>/<sweep param>" (or "<case>" for unswept cases).
const Golden& GoldenFor(const std::string& key) {
  static const std::map<std::string, Golden> kGoldens = {
      {"Union", {0xfe3563e5d7a67a45, 74, 74, ""}},
      {"Join", {0xff8c42b3cc86be61, 58, 81, ""}},
      {"JoinProbeBatchMemo", {0x56d69ee7a3ee6fe5, 101, 244, ""}},
      {"FilterStringCompare/==", {0x19794bc93190eaab, 113, 25, ""}},
      {"FilterStringCompare/!=", {0x1e95c44403802cad, 113, 88, ""}},
      {"FilterStringCompare/<", {0xc1e20a622490ac63, 113, 49, ""}},
      {"FilterStringCompare/<=", {0xfdebd19e291e9b31, 113, 74, ""}},
      {"FilterStringCompare/>", {0xa9b0708c3bc5d7ef, 113, 39, ""}},
      {"FilterStringCompare/>=", {0x4bfebfd223e93045, 113, 64, ""}},
      {"MapIdentityStringProjection", {0x0f2b52733a2470cb, 77, 77, ""}},
      {"FilterOneWay/tiny", {0xcbf29ce484222325, 1, 0, ""}},
      {"FilterOneWay/odd", {0x9e46d05cfe379695, 13, 6, ""}},
      {"FilterOneWay/mid", {0x05959a0fa7ec2165, 129, 67, ""}},
      {"FilterOneWay/big", {0xd6702050ac858290, 500, 243, ""}},
      {"FilterTwoWay/tiny", {0xfbc95a73f7a5b014, 1, 1, ""}},
      {"FilterTwoWay/odd", {0x8fbc98573d097e94, 13, 13, ""}},
      {"FilterTwoWay/mid", {0x8f832529eedd38be, 129, 129, ""}},
      {"FilterTwoWay/big", {0xc017c2b67bbcc515, 500, 500, ""}},
      {"FilterBooleanTree/tiny", {0xcbf29ce484222325, 1, 0, ""}},
      {"FilterBooleanTree/odd", {0x082b3f0add42ba18, 13, 7, ""}},
      {"FilterBooleanTree/mid", {0xbe5a0fda62516725, 129, 56, ""}},
      {"FilterBooleanTree/big", {0x0c7075990d3a4871, 500, 208, ""}},
      {"FilterDoubleConstantAgainstIntColumn/tiny",
       {0xcbf29ce484222325, 1, 0, ""}},
      {"FilterDoubleConstantAgainstIntColumn/odd",
       {0xda2fb5a64d964245, 13, 5, ""}},
      {"FilterDoubleConstantAgainstIntColumn/mid",
       {0xcb466494f5d7ec82, 129, 61, ""}},
      {"FilterDoubleConstantAgainstIntColumn/big",
       {0x6c1c801d3972a5e0, 500, 254, ""}},
      {"MapInt64FastPath/tiny", {0xdb8a6c8965f4b78a, 1, 1, ""}},
      {"MapInt64FastPath/odd", {0x81ff0b1aba3ce44d, 13, 13, ""}},
      {"MapInt64FastPath/mid", {0x28994d09305c960b, 129, 129, ""}},
      {"MapInt64FastPath/big", {0x283feff5b52450bb, 500, 500, ""}},
      {"MapDivFallbackWithErrors/tiny", {0x1e867b60d2757261, 1, 1, ""}},
      {"MapDivFallbackWithErrors/odd",
       {0xbc6a4108a16f27c6, 13, 11, "InvalidArgument: division by zero"}},
      {"MapDivFallbackWithErrors/mid",
       {0x4cefa02ef5fd2ace, 129, 103, "InvalidArgument: division by zero"}},
      {"MapDivFallbackWithErrors/big",
       {0xa810804fef6b2bf8, 500, 362, "InvalidArgument: division by zero"}},
      {"TumbleRunBased/tiny", {0xabf763fc0e4c9e49, 1, 0, ""}},
      {"TumbleRunBased/odd", {0x606454b1afc7cc95, 13, 8, ""}},
      {"TumbleRunBased/mid", {0x573d1cb9b6c092e9, 129, 109, ""}},
      {"TumbleRunBased/big", {0x69285ae344dc01f1, 500, 406, ""}},
      {"TumbleEveryN/tiny", {0x3c30fbf237e6d93e, 1, 0, ""}},
      {"TumbleEveryN/odd", {0xd79b659a3765933f, 13, 4, ""}},
      {"TumbleEveryN/mid", {0x57993926882ef4de, 129, 42, ""}},
      {"TumbleEveryN/big", {0x4a065ba4e11ad8ea, 500, 166, ""}},
      {"WindowAggXSection/tiny", {0xcbf29ce484222325, 1, 0, ""}},
      {"WindowAggXSection/odd", {0xafb2eda4a08819c2, 13, 2, ""}},
      {"WindowAggXSection/mid", {0x89fc6b19cb094434, 129, 59, ""}},
      {"WindowAggXSection/big", {0x8002605cf408b984, 500, 245, ""}},
      {"WindowAggSlide/tiny", {0xcbf29ce484222325, 1, 0, ""}},
      {"WindowAggSlide/odd", {0xfd54733505664efc, 13, 2, ""}},
      {"WindowAggSlide/mid", {0xfcd6ca67ab5d8bd2, 129, 113, ""}},
      {"WindowAggSlide/big", {0xf5d168dbea645fc4, 500, 484, ""}},
      {"WSort/tiny", {0xc9e23a4252daeafa, 1, 0, ""}},
      {"WSort/odd", {0xe5f43d53d80f2f46, 13, 5, ""}},
      {"WSort/mid", {0xe98506155a960aac, 129, 17, ""}},
      {"WSort/big", {0x1d7640a5866ccd8b, 500, 30, ""}},
      {"WSortUnbounded/tiny", {0xd48bae248f6d938b, 1, 0, ""}},
      {"WSortUnbounded/odd", {0x98fd55c4ee0cf401, 13, 0, ""}},
      {"WSortUnbounded/mid", {0x1703d6650510adbd, 129, 0, ""}},
      {"WSortUnbounded/big", {0xa8166302a442a308, 500, 0, ""}},
      {"Resample/tiny", {0xcbf29ce484222325, 1, 0, ""}},
      {"Resample/odd", {0xab986fe1fcc6d936, 13, 6, ""}},
      {"Resample/mid", {0xcba55758f96b4479, 129, 64, ""}},
      {"Resample/big", {0xaee622e89d7a3de9, 500, 250, ""}},
  };
  auto it = kGoldens.find(key);
  AURORA_CHECK(it != kGoldens.end()) << "no golden for " << key;
  return it->second;
}

/// Runs the stream chunked into TupleBatches of `batch_size` (the final
/// chunk is the odd tail whenever the sizes do not divide). A failing tuple
/// emits nothing, the first error is recorded and later tuples still run,
/// as both schedulers do with deferred_error_.
OracleRun RunBatched(const OperatorSpec& spec, const SchemaPtr& schema,
                     const std::vector<Tuple>& tuples, int batch_size,
                     bool drain) {
  OracleRun run;
  auto op = std::move(CreateOperator(spec)).ValueUnsafe();
  AURORA_CHECK(op->Init({schema}).ok());
  CollectingEmitter emitter;
  TupleBatch batch;
  batch.Reserve(static_cast<size_t>(batch_size));
  for (size_t at = 0; at < tuples.size();
       at += static_cast<size_t>(batch_size)) {
    batch.Clear();
    size_t end = std::min(tuples.size(), at + static_cast<size_t>(batch_size));
    for (size_t i = at; i < end; ++i) {
      batch.Push(tuples[i], tuples[i].timestamp());
    }
    Status st = op->ProcessBatch(0, batch, &emitter);
    if (!st.ok() && run.first_error.empty()) run.first_error = st.ToString();
  }
  if (drain) op->Drain(&emitter);
  run.emissions = CanonicalEmissions(emitter);
  run.tuples_in = op->tuples_in();
  run.tuples_out = op->tuples_out();
  return run;
}

constexpr int kTrainSizes[] = {1, 2, 7, 64};

std::string DescribeTuples(const std::vector<Tuple>& tuples) {
  std::ostringstream os;
  for (const Tuple& t : tuples) {
    os << "(";
    for (size_t i = 0; i < t.num_values(); ++i) {
      os << (i > 0 ? "," : "") << t.value(i).ToString();
    }
    os << ") ";
  }
  return os.str();
}

/// "" when the stream matches the golden for `key` at every train size; a
/// failure report otherwise, with a minimized input when size 1 matched.
std::string CheckChunkings(const std::string& key, const OperatorSpec& spec,
                           const SchemaPtr& schema,
                           const std::vector<Tuple>& tuples, bool drain) {
  const Golden& want = GoldenFor(key);
  for (int size : kTrainSizes) {
    Golden got = Summarize(RunBatched(spec, schema, tuples, size, drain));
    if (got == want) continue;
    std::ostringstream os;
    os << spec.ToString() << " at train size " << size
       << " diverges from golden " << key << ": got " << got << ", want "
       << want;
    if (size == 1) return os.str();
    // Size 1 matched the golden, so the full input already shows size
    // `size` disagreeing with size 1: shrink on that.
    auto disagrees = [&](const std::vector<Tuple>& input) {
      return Summarize(RunBatched(spec, schema, input, size, drain)) !=
             Summarize(RunBatched(spec, schema, input, 1, drain));
    };
    std::vector<Tuple> minimal = ShrinkList<Tuple>(tuples, disagrees);
    os << "\nminimal input where size " << size
       << " disagrees with size 1: " << DescribeTuples(minimal)
       << "\n-- size 1:\n"
       << RunBatched(spec, schema, minimal, 1, drain).emissions << "-- size "
       << size << ":\n"
       << RunBatched(spec, schema, minimal, size, drain).emissions;
    return os.str();
  }
  return "";
}

/// Filter checked against the per-tuple primitive that survives in src,
/// independently of the goldens: Predicate::Eval routes each tuple (output
/// 0 on a match, output 1 on a miss when two_way) and the tuple is emitted
/// unchanged.
void CheckFilterAgainstEval(const OperatorSpec& spec, const SchemaPtr& schema,
                            const std::vector<Tuple>& tuples) {
  ASSERT_OK(spec.predicate->Bind(schema));
  const bool two_way = spec.GetBool("two_way", false);
  CollectingEmitter want;
  for (const Tuple& t : tuples) {
    if (spec.predicate->Eval(t)) {
      want.Emit(0, t);
    } else if (two_way) {
      want.Emit(1, t);
    }
  }
  for (int size : kTrainSizes) {
    EXPECT_EQ(RunBatched(spec, schema, tuples, size, false).emissions,
              CanonicalEmissions(want))
        << spec.ToString() << " at train size " << size;
  }
}

/// Seeded random (A, B) stream with seq numbers 1..n, millisecond
/// timestamps, and a trace id on every third tuple (exercises the
/// BatchEmitter's trace stamping of untraced emissions).
std::vector<Tuple> BatchStream(uint64_t seed, int n, int64_t a_range,
                               int64_t b_lo, int64_t b_hi) {
  Rng rng = MakeTestRng(seed);
  SchemaPtr schema = SchemaAB();
  std::vector<Tuple> tuples;
  for (int i = 0; i < n; ++i) {
    Tuple t = MakeTuple(schema, {Value(rng.UniformInt(0, a_range)),
                                 Value(rng.UniformInt(b_lo, b_hi))});
    t.set_seq(static_cast<SeqNo>(i + 1));
    t.set_timestamp(SimTime::Millis(i + 1));
    if (i % 3 == 0) t.set_trace_id(static_cast<uint64_t>(1000 + i));
    tuples.push_back(std::move(t));
  }
  return tuples;
}

struct BatchOpCase {
  const char* name;
  uint64_t seed;
  int n;
};

/// Every unary operator kind under one sweep.
class BatchOracleTest : public ::testing::TestWithParam<BatchOpCase> {
 protected:
  void CheckAllBatchSizes(const char* test, const OperatorSpec& spec,
                          const SchemaPtr& schema,
                          const std::vector<Tuple>& tuples, bool drain) {
    std::string failure =
        CheckChunkings(std::string(test) + "/" + GetParam().name, spec,
                       schema, tuples, drain);
    if (!failure.empty()) FAIL() << failure;
  }
};

TEST_P(BatchOracleTest, FilterOneWay) {
  const auto& c = GetParam();
  OperatorSpec spec =
      FilterSpec(Predicate::Compare("A", CompareOp::kLt, Value(int64_t{25})));
  std::vector<Tuple> tuples = BatchStream(c.seed, c.n, 50, -100, 100);
  CheckAllBatchSizes("FilterOneWay", spec, SchemaAB(), tuples, false);
  CheckFilterAgainstEval(spec, SchemaAB(), tuples);
}

TEST_P(BatchOracleTest, FilterTwoWay) {
  const auto& c = GetParam();
  OperatorSpec spec =
      FilterSpec(Predicate::Compare("A", CompareOp::kGe, Value(int64_t{25})),
                 /*two_way=*/true);
  std::vector<Tuple> tuples = BatchStream(c.seed + 1, c.n, 50, -100, 100);
  CheckAllBatchSizes("FilterTwoWay", spec, SchemaAB(), tuples, false);
  CheckFilterAgainstEval(spec, SchemaAB(), tuples);
}

TEST_P(BatchOracleTest, FilterBooleanTree) {
  const auto& c = GetParam();
  // And/Or/Not over compares: exercises the vectorized combine loops.
  Predicate p = Predicate::Or(
      Predicate::And(
          Predicate::Compare("A", CompareOp::kGt, Value(int64_t{10})),
          Predicate::Compare("B", CompareOp::kLe, Value(int64_t{0}))),
      Predicate::Not(
          Predicate::Compare("A", CompareOp::kNe, Value(int64_t{7}))));
  OperatorSpec spec = FilterSpec(std::move(p));
  std::vector<Tuple> tuples = BatchStream(c.seed + 2, c.n, 50, -100, 100);
  CheckAllBatchSizes("FilterBooleanTree", spec, SchemaAB(), tuples, false);
  CheckFilterAgainstEval(spec, SchemaAB(), tuples);
}

TEST_P(BatchOracleTest, FilterDoubleConstantAgainstIntColumn) {
  const auto& c = GetParam();
  // Mixed-numeric compare goes through the AsNumeric column path.
  OperatorSpec spec =
      FilterSpec(Predicate::Compare("A", CompareOp::kGt, Value(24.5)));
  std::vector<Tuple> tuples = BatchStream(c.seed + 3, c.n, 50, -100, 100);
  CheckAllBatchSizes("FilterDoubleConstantAgainstIntColumn", spec, SchemaAB(),
                     tuples, false);
  CheckFilterAgainstEval(spec, SchemaAB(), tuples);
}

TEST_P(BatchOracleTest, MapInt64FastPath) {
  const auto& c = GetParam();
  // add/sub/mul over int64 fields and constants: the vectorized Expr tree.
  std::vector<std::pair<std::string, Expr>> proj;
  proj.emplace_back("S",
                    Expr::Arith(ArithOp::kAdd, Expr::FieldRef("A"),
                                Expr::Arith(ArithOp::kMul, Expr::FieldRef("B"),
                                            Expr::Constant(Value(int64_t{3})))));
  proj.emplace_back("D", Expr::Arith(ArithOp::kSub, Expr::FieldRef("B"),
                                     Expr::FieldRef("A")));
  CheckAllBatchSizes("MapInt64FastPath", MapSpec(std::move(proj)), SchemaAB(),
                     BatchStream(c.seed + 4, c.n, 50, -100, 100), false);
}

TEST_P(BatchOracleTest, MapDivFallbackWithErrors) {
  const auto& c = GetParam();
  // kDiv forces the per-tuple fallback, and B ranges over 0 so some tuples
  // divide by zero: every chunking must skip exactly those tuples and
  // surface the same first error.
  std::vector<std::pair<std::string, Expr>> proj;
  proj.emplace_back("Q", Expr::Arith(ArithOp::kDiv, Expr::FieldRef("A"),
                                     Expr::FieldRef("B")));
  CheckAllBatchSizes("MapDivFallbackWithErrors", MapSpec(std::move(proj)),
                     SchemaAB(), BatchStream(c.seed + 5, c.n, 50, 0, 3),
                     false);
}

TEST_P(BatchOracleTest, TumbleRunBased) {
  const auto& c = GetParam();
  CheckAllBatchSizes("TumbleRunBased", TumbleSpec("sum", "B", {"A"}),
                     SchemaAB(), BatchStream(c.seed + 6, c.n, 4, 0, 99), true);
}

TEST_P(BatchOracleTest, TumbleEveryN) {
  const auto& c = GetParam();
  auto spec = TumbleSpec("cnt", "B", {"A"});
  spec.SetParam("emit", Value("every_n"));
  spec.SetParam("n", Value(int64_t{3}));
  // Small key range: consecutive same-key tuples exercise the group memo.
  CheckAllBatchSizes("TumbleEveryN", spec, SchemaAB(),
                     BatchStream(c.seed + 7, c.n, 2, 0, 99), true);
}

TEST_P(BatchOracleTest, WindowAggXSection) {
  const auto& c = GetParam();
  CheckAllBatchSizes("WindowAggXSection", XSectionSpec("max", "B", 4, 2, {"A"}),
                     SchemaAB(), BatchStream(c.seed + 8, c.n, 3, 0, 50), false);
}

TEST_P(BatchOracleTest, WindowAggSlide) {
  const auto& c = GetParam();
  CheckAllBatchSizes("WindowAggSlide", SlideSpec("avg", "B", 5, {"A"}),
                     SchemaAB(), BatchStream(c.seed + 9, c.n, 3, 0, 50), false);
}

TEST_P(BatchOracleTest, WSort) {
  const auto& c = GetParam();
  // max_buffer > 0: trimming emits mid-batch and moves the watermark.
  CheckAllBatchSizes("WSort",
                     WSortSpec({"A"}, /*timeout_us=*/0, /*max_buffer=*/6),
                     SchemaAB(), BatchStream(c.seed + 10, c.n, 1000, 0, 9),
                     true);
}

TEST_P(BatchOracleTest, WSortUnbounded) {
  const auto& c = GetParam();
  // max_buffer=0: nothing is emitted mid-batch, so WSort's bulk-insert
  // fast path (one stable sort + hinted tree merge per batch) engages.
  CheckAllBatchSizes("WSortUnbounded",
                     WSortSpec({"A"}, /*timeout_us=*/0, /*max_buffer=*/0),
                     SchemaAB(), BatchStream(c.seed + 12, c.n, 1000, 0, 9),
                     true);
}

TEST_P(BatchOracleTest, Resample) {
  const auto& c = GetParam();
  CheckAllBatchSizes("Resample", ResampleSpec("B", /*interval_us=*/2000),
                     SchemaAB(), BatchStream(c.seed + 11, c.n, 50, 0, 100),
                     true);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BatchOracleTest,
                         ::testing::Values(BatchOpCase{"tiny", 70, 1},
                                           BatchOpCase{"odd", 71, 13},
                                           BatchOpCase{"mid", 72, 129},
                                           BatchOpCase{"big", 73, 500}));

// Multi-input boxes: per-tuple Process (one-tuple trains, what the
// schedulers hand a multi-input box) and one whole train per input must
// both match the golden.
OracleRun Finish(const Operator& op, const CollectingEmitter& emitter) {
  OracleRun run;
  run.emissions = CanonicalEmissions(emitter);
  run.tuples_in = op.tuples_in();
  run.tuples_out = op.tuples_out();
  return run;
}

TEST(BatchOracleMultiInputTest, UnionMatchesGolden) {
  SchemaPtr schema = SchemaAB();
  std::vector<Tuple> a = BatchStream(80, 37, 50, 0, 9);
  std::vector<Tuple> b = BatchStream(81, 37, 50, 0, 9);
  auto run = [&](bool whole) {
    auto op = std::move(CreateOperator(UnionSpec(2))).ValueUnsafe();
    AURORA_CHECK(op->Init({schema, schema}).ok());
    CollectingEmitter emitter;
    if (whole) {
      TupleBatch ba, bb;
      for (const Tuple& t : a) ba.Push(t, t.timestamp());
      for (const Tuple& t : b) bb.Push(t, t.timestamp());
      EXPECT_OK(op->ProcessBatch(0, ba, &emitter));
      EXPECT_OK(op->ProcessBatch(1, bb, &emitter));
    } else {
      for (const Tuple& t : a) {
        EXPECT_OK(op->Process(0, t, t.timestamp(), &emitter));
      }
      for (const Tuple& t : b) {
        EXPECT_OK(op->Process(1, t, t.timestamp(), &emitter));
      }
    }
    return Summarize(Finish(*op, emitter));
  };
  EXPECT_EQ(run(false), GoldenFor("Union"));
  EXPECT_EQ(run(true), GoldenFor("Union"));
}

TEST(BatchOracleMultiInputTest, JoinMatchesGolden) {
  SchemaPtr left = SchemaAB();
  SchemaPtr right = Schema::Make(
      {Field{"K", ValueType::kInt64}, Field{"V", ValueType::kInt64}});
  std::vector<Tuple> lefts = BatchStream(82, 29, 9, 0, 99);
  std::vector<Tuple> rights;
  {
    Rng rng = MakeTestRng(83);
    for (int i = 0; i < 29; ++i) {
      Tuple t = MakeTuple(right, {Value(rng.UniformInt(0, 9)), Value(i)});
      t.set_timestamp(SimTime::Millis(1));
      rights.push_back(std::move(t));
    }
  }
  for (Tuple& t : lefts) t.set_timestamp(SimTime::Millis(1));
  auto run = [&](bool whole) {
    auto op =
        std::move(CreateOperator(JoinSpec("A", "K", 1'000'000))).ValueUnsafe();
    AURORA_CHECK(op->Init({left, right}).ok());
    CollectingEmitter emitter;
    if (whole) {
      TupleBatch bl, br;
      for (const Tuple& t : lefts) bl.Push(t, t.timestamp());
      for (const Tuple& t : rights) br.Push(t, t.timestamp());
      EXPECT_OK(op->ProcessBatch(0, bl, &emitter));
      EXPECT_OK(op->ProcessBatch(1, br, &emitter));
    } else {
      for (const Tuple& t : lefts) {
        EXPECT_OK(op->Process(0, t, t.timestamp(), &emitter));
      }
      for (const Tuple& t : rights) {
        EXPECT_OK(op->Process(1, t, t.timestamp(), &emitter));
      }
    }
    return Summarize(Finish(*op, emitter));
  };
  EXPECT_EQ(run(false), GoldenFor("Join"));
  EXPECT_EQ(run(true), GoldenFor("Join"));
}

// Probe-side batching with the (key, timestamp) match memo: runs of
// identical probes, advancing timestamps (expiry between runs), and a
// post-probe one-tuple push that checks the probe buffer came out identical.
TEST(BatchOracleMultiInputTest, JoinProbeBatchMemoMatchesGolden) {
  SchemaPtr left = SchemaAB();
  SchemaPtr right = Schema::Make(
      {Field{"K", ValueType::kInt64}, Field{"V", ValueType::kInt64}});
  Rng rng = MakeTestRng(84);
  std::vector<Tuple> rights;
  for (int i = 0; i < 40; ++i) {
    Tuple t = MakeTuple(right, {Value(rng.UniformInt(0, 5)), Value(i)});
    t.set_timestamp(SimTime::Millis(rng.UniformInt(1, 30)));
    rights.push_back(std::move(t));
  }
  std::vector<Tuple> lefts;
  SimTime ts = SimTime::Millis(5);
  int64_t run_key = 0;
  for (int i = 0; i < 60; ++i) {
    if (i % 4 == 0) {
      ts += SimDuration::Millis(rng.UniformInt(0, 3));
      run_key = rng.UniformInt(0, 5);
    }
    Tuple t = MakeTuple(left, {Value(run_key), Value(i)});
    t.set_timestamp(ts);
    t.set_seq(static_cast<SeqNo>(100 + i));
    lefts.push_back(std::move(t));
  }
  Tuple post = MakeTuple(right, {Value(run_key), Value(int64_t{999})});
  post.set_timestamp(ts);
  auto run = [&](bool whole) {
    auto op =
        std::move(CreateOperator(JoinSpec("A", "K", 10'000))).ValueUnsafe();
    AURORA_CHECK(op->Init({left, right}).ok());
    CollectingEmitter emitter;
    for (const Tuple& r : rights) {
      EXPECT_OK(op->Process(1, r, r.timestamp(), &emitter));
    }
    if (whole) {
      TupleBatch batch;
      for (const Tuple& l : lefts) batch.Push(l, l.timestamp());
      EXPECT_OK(op->ProcessBatch(0, batch, &emitter));
    } else {
      for (const Tuple& l : lefts) {
        EXPECT_OK(op->Process(0, l, l.timestamp(), &emitter));
      }
    }
    // A late right tuple joins against whatever the probe side buffered:
    // catches any divergence in the probe buffer or its expiry.
    EXPECT_OK(op->Process(1, post, post.timestamp(), &emitter));
    return Summarize(Finish(*op, emitter));
  };
  EXPECT_EQ(run(false), GoldenFor("JoinProbeBatchMemo"));
  EXPECT_EQ(run(true), GoldenFor("JoinProbeBatchMemo"));
}

// ---- String-schema vectorization (TupleBatch::StrColumn) -----------------

SchemaPtr SchemaSB() {
  return Schema::Make(
      {Field{"S", ValueType::kString}, Field{"B", ValueType::kInt64}});
}

/// Seeded stream over (S:string, B:int64) with the same seq/trace stamping
/// as BatchStream; words repeat (and include "") so string compares exercise
/// every ordering against the constant.
std::vector<Tuple> StringStream(uint64_t seed, int n) {
  static const char* kWords[] = {"alpha", "bravo", "charlie",
                                 "delta", "echo",  ""};
  Rng rng = MakeTestRng(seed);
  SchemaPtr schema = SchemaSB();
  std::vector<Tuple> tuples;
  for (int i = 0; i < n; ++i) {
    Tuple t = MakeTuple(schema, {Value(kWords[rng.UniformInt(0, 5)]),
                                 Value(rng.UniformInt(-100, 100))});
    t.set_seq(static_cast<SeqNo>(i + 1));
    t.set_timestamp(SimTime::Millis(i + 1));
    if (i % 3 == 0) t.set_trace_id(static_cast<uint64_t>(2000 + i));
    tuples.push_back(std::move(t));
  }
  return tuples;
}

TEST(BatchOracleStringTest, StrColumnExposesPooledViews) {
  std::vector<Tuple> tuples = StringStream(97, 9);
  TupleBatch batch;
  for (const Tuple& t : tuples) batch.Push(t, t.timestamp());
  const std::string_view* col = batch.StrColumn(0);
  ASSERT_NE(col, nullptr);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(col[i], std::string_view(tuples[i].value(0).AsString())) << i;
  }
  // The int field is not a string column.
  EXPECT_EQ(batch.StrColumn(1), nullptr);
}

TEST(BatchOracleStringTest, FilterStringCompareMatchesGolden) {
  // String column vs string constant: the vectorized compare path, every
  // operator, every train size.
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    OperatorSpec spec =
        FilterSpec(Predicate::Compare("S", op, Value("charlie")));
    std::vector<Tuple> tuples = StringStream(95, 113);
    EXPECT_EQ(CheckChunkings(std::string("FilterStringCompare/") +
                                 CompareOpName(op),
                             spec, SchemaSB(), tuples, false),
              "");
    CheckFilterAgainstEval(spec, SchemaSB(), tuples);
  }
}

TEST(BatchOracleStringTest, MapIdentityStringProjectionMatchesGolden) {
  // A bare string field ref plus an int arithmetic column: identity
  // projections copy values straight out of the tuple, so a string column
  // does not force Map onto per-tuple Eval.
  std::vector<std::pair<std::string, Expr>> proj;
  proj.emplace_back("S2", Expr::FieldRef("S"));
  proj.emplace_back("B2", Expr::Arith(ArithOp::kAdd, Expr::FieldRef("B"),
                                      Expr::Constant(Value(int64_t{7}))));
  EXPECT_EQ(CheckChunkings("MapIdentityStringProjection",
                           MapSpec(std::move(proj)), SchemaSB(),
                           StringStream(96, 77), false),
            "");
}

// ---- BatchEmitter chunked-emission stamping (regression) -----------------
//
// Seq/trace stamping must happen at Emit time, not at flush time: a chunk
// boundary falling between two emissions must never change which input
// tuple's metadata an emission inherits.

class ChunkRecordingEmitter : public Emitter {
 public:
  void Emit(int output, Tuple t) override {
    chunk_sizes.push_back(1);
    tuples.emplace_back(output, std::move(t));
  }
  void EmitChunk(int output, Tuple* ts, size_t n) override {
    chunk_sizes.push_back(n);
    for (size_t i = 0; i < n; ++i) {
      tuples.emplace_back(output, std::move(ts[i]));
    }
  }
  std::vector<size_t> chunk_sizes;
  std::vector<std::pair<int, Tuple>> tuples;
};

TEST(BatchEmitterTest, SeqStampingPinnedAcrossChunkBoundary) {
  SchemaPtr schema = SchemaAB();
  ChunkRecordingEmitter inner;
  uint64_t counter = 0;
  Operator::BatchEmitter be(&inner, &counter);
  be.EnableBuffering(2);  // force a flush after every 2 staged emissions
  for (int i = 0; i < 5; ++i) {
    Tuple in = MakeTuple(schema, {Value(int64_t{i}), Value(int64_t{0})});
    in.set_seq(static_cast<SeqNo>(10 + i));
    in.set_trace_id(static_cast<uint64_t>(500 + i));
    be.SetCurrent(in);
    be.Emit(0, MakeTuple(schema, {Value(int64_t{i}), Value(int64_t{1})}));
  }
  be.Flush();
  ASSERT_EQ(inner.tuples.size(), 5u);
  EXPECT_EQ(counter, 5u);
  for (int i = 0; i < 5; ++i) {
    // Every emission carries the seq/trace of the input tuple current at
    // its own Emit call, even though flushes happened at 2, 4, and the
    // tail — chunk boundaries must not smear stamping across emissions.
    EXPECT_EQ(inner.tuples[i].second.seq(), static_cast<SeqNo>(10 + i)) << i;
    EXPECT_EQ(inner.tuples[i].second.trace_id(),
              static_cast<uint64_t>(500 + i))
        << i;
  }
  // Delivery really was chunked, not unrolled per tuple.
  EXPECT_EQ(inner.chunk_sizes, (std::vector<size_t>{2, 2, 1}));
}

TEST(BatchEmitterTest, FlushSplitsChunksPerOutputRun) {
  SchemaPtr schema = SchemaAB();
  ChunkRecordingEmitter inner;
  uint64_t counter = 0;
  Operator::BatchEmitter be(&inner, &counter);
  be.EnableBuffering(8);
  const int outputs[] = {0, 0, 1, 1, 0};
  for (int i = 0; i < 5; ++i) {
    Tuple in = MakeTuple(schema, {Value(int64_t{i}), Value(int64_t{0})});
    in.set_seq(static_cast<SeqNo>(i + 1));
    be.SetCurrent(in);
    be.Emit(outputs[i],
            MakeTuple(schema, {Value(int64_t{i}), Value(int64_t{1})}));
  }
  be.Flush();
  // One chunk per consecutive same-output run, original order preserved.
  EXPECT_EQ(inner.chunk_sizes, (std::vector<size_t>{2, 2, 1}));
  ASSERT_EQ(inner.tuples.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(inner.tuples[i].first, outputs[i]) << i;
    EXPECT_EQ(GetInt(inner.tuples[i].second, "A"), i);
    EXPECT_EQ(inner.tuples[i].second.seq(), static_cast<SeqNo>(i + 1)) << i;
  }
}

// Degenerate shapes the schedulers can produce: an empty batch (queue
// drained by a race in the threaded engine) must be a no-op.
TEST(BatchOracleEdgeTest, EmptyBatchIsANoOp) {
  auto op = std::move(CreateOperator(TumbleSpec("sum", "B", {"A"})))
                .ValueUnsafe();
  ASSERT_OK(op->Init({SchemaAB()}));
  CollectingEmitter emitter;
  TupleBatch batch;
  ASSERT_OK(op->ProcessBatch(0, batch, &emitter));
  EXPECT_TRUE(emitter.emissions().empty());
  EXPECT_EQ(op->tuples_in(), 0u);
  EXPECT_EQ(op->tuples_out(), 0u);
}

// Process is a one-tuple train: on traced tuples (seq and trace id set) it
// emits exactly what a one-tuple ProcessBatch does, trace stamping of new
// tuples included, for a stateless box (Map) and a stateful one (Tumble).
TEST(BatchOracleEdgeTest, ProcessOnTracedTupleEqualsOneTupleBatch) {
  auto tumble = TumbleSpec("cnt", "B", {"A"});
  tumble.SetParam("emit", Value("every_n"));
  tumble.SetParam("n", Value(int64_t{2}));
  std::vector<std::pair<std::string, Expr>> proj;
  proj.emplace_back("S", Expr::Arith(ArithOp::kAdd, Expr::FieldRef("A"),
                                     Expr::FieldRef("B")));
  std::vector<Tuple> tuples = BatchStream(90, 9, 1, 0, 9);
  for (Tuple& t : tuples) t.set_trace_id(7000 + t.seq());
  for (const OperatorSpec& spec : {MapSpec(std::move(proj)), tumble}) {
    auto by_process = std::move(CreateOperator(spec)).ValueUnsafe();
    auto by_batch = std::move(CreateOperator(spec)).ValueUnsafe();
    ASSERT_OK(by_process->Init({SchemaAB()}));
    ASSERT_OK(by_batch->Init({SchemaAB()}));
    CollectingEmitter process_out, batch_out;
    for (const Tuple& t : tuples) {
      ASSERT_OK(by_process->Process(0, t, t.timestamp(), &process_out));
      TupleBatch one;
      one.Push(t, t.timestamp());
      ASSERT_OK(by_batch->ProcessBatch(0, one, &batch_out));
    }
    ASSERT_FALSE(process_out.emissions().empty()) << spec.ToString();
    EXPECT_EQ(CanonicalEmissions(process_out), CanonicalEmissions(batch_out))
        << spec.ToString();
    for (const auto& [output, t] : process_out.emissions()) {
      EXPECT_NE(t.trace_id(), 0u) << spec.ToString();
    }
    EXPECT_EQ(by_process->tuples_out(), by_batch->tuples_out());
  }
}

TEST(BatchOracleEdgeTest, BadInputIndexRejectedWithoutSideEffects) {
  auto op = std::move(CreateOperator(FilterSpec(Predicate::True())))
                .ValueUnsafe();
  ASSERT_OK(op->Init({SchemaAB()}));
  CollectingEmitter emitter;
  TupleBatch batch;
  batch.Push(BatchStream(91, 1, 50, 0, 9)[0], SimTime::Millis(1));
  EXPECT_FALSE(op->ProcessBatch(1, batch, &emitter).ok());
  EXPECT_TRUE(emitter.emissions().empty());
  EXPECT_EQ(op->tuples_in(), 0u);
}

// A batch whose tuples span two schemas must not take any columnar fast
// path (uniform_schema() is false); the per-tuple fallback keeps the
// filter correct for the rows that do carry the bound field.
TEST(BatchOracleEdgeTest, MixedSchemaBatchFallsBackPerTuple) {
  SchemaPtr ab = SchemaAB();
  std::vector<Tuple> tuples = BatchStream(92, 16, 50, 0, 9);
  TupleBatch batch;
  for (const Tuple& t : tuples) batch.Push(t, t.timestamp());
  EXPECT_TRUE(batch.uniform_schema());
  // Same fields, distinct Schema instance: pointer-uniformity breaks.
  SchemaPtr ab2 = Schema::Make({Field{"A", ValueType::kInt64},
                                Field{"B", ValueType::kInt64}});
  Tuple odd = MakeTuple(ab2, {Value(int64_t{1}), Value(int64_t{2})});
  odd.set_timestamp(SimTime::Millis(99));
  batch.Push(odd, odd.timestamp());
  EXPECT_FALSE(batch.uniform_schema());
  EXPECT_EQ(batch.I64Column(0), nullptr);

  auto op = std::move(CreateOperator(FilterSpec(Predicate::Compare(
                          "A", CompareOp::kLt, Value(int64_t{25})))))
                .ValueUnsafe();
  ASSERT_OK(op->Init({ab}));
  CollectingEmitter emitter;
  ASSERT_OK(op->ProcessBatch(0, batch, &emitter));
  size_t want = 0;
  for (const Tuple& t : tuples) {
    if (t.value(0).AsInt() < 25) ++want;
  }
  if (odd.value(0).AsInt() < 25) ++want;
  EXPECT_EQ(emitter.emissions().size(), want);
}

// The minimizer itself: a failing predicate defined by containing a magic
// value must shrink to exactly that one element.
TEST(ShrinkListTest, MinimizesToSingleCulprit) {
  std::vector<int> items;
  for (int i = 0; i < 100; ++i) items.push_back(i);
  auto contains_culprit = [](const std::vector<int>& xs) {
    return std::find(xs.begin(), xs.end(), 73) != xs.end();
  };
  std::vector<int> minimal = ShrinkList<int>(items, contains_culprit);
  ASSERT_EQ(minimal.size(), 1u);
  EXPECT_EQ(minimal[0], 73);
}

TEST(ShrinkListTest, KeepsInterdependentPair) {
  // When failure needs two elements jointly, both must survive.
  std::vector<int> items = {5, 1, 9, 2, 7, 3, 8, 4};
  auto needs_both = [](const std::vector<int>& xs) {
    bool a = std::find(xs.begin(), xs.end(), 9) != xs.end();
    bool b = std::find(xs.begin(), xs.end(), 4) != xs.end();
    return a && b;
  };
  std::vector<int> minimal = ShrinkList<int>(items, needs_both);
  EXPECT_EQ(minimal, (std::vector<int>{9, 4}));
}

}  // namespace
}  // namespace aurora
