// Tracer + event serialization: round-trips, seq ordering, disabled-sink
// laziness, concurrent emission (TSan coverage for the sink mutexes).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace chc::obs {
namespace {

TraceEvent sample_round_event() {
  TraceEvent e;
  e.kind = EventKind::kRound;
  e.t = 12.5;
  e.p = 3;
  e.round = 7;
  e.senders = {0, 1, 3, 4};
  e.verts = {geo::Vec{0.25, -1.0}, geo::Vec{0.5, 0.125}};
  return e;
}

TEST(TraceEvent, RoundTripsEveryKind) {
  std::vector<TraceEvent> events;
  {
    TraceEvent e;
    e.kind = EventKind::kSend;
    e.t = 0.75;
    e.p = 1;
    e.peer = 2;
    e.tag = 400;
    events.push_back(e);
  }
  {
    TraceEvent e;
    e.kind = EventKind::kNetDup;
    e.t = 1.5;
    e.p = 0;
    e.peer = 4;
    e.tag = 900;
    e.aux = 2;
    events.push_back(e);
  }
  {
    TraceEvent e;
    e.kind = EventKind::kCrash;
    e.t = 3.25;
    e.p = 2;
    events.push_back(e);
  }
  {
    TraceEvent e;
    e.kind = EventKind::kRound0;
    e.t = 9.0;
    e.p = 0;
    e.view = {{0, geo::Vec{0.1, 0.2}}, {1, geo::Vec{-0.3, 0.4}}};
    e.verts = {geo::Vec{0.0, 0.0}};
    events.push_back(e);
  }
  events.push_back(sample_round_event());

  for (const TraceEvent& e : events) {
    const std::string line = to_jsonl(e);
    TraceEvent back;
    std::string error;
    ASSERT_TRUE(parse_event(line, back, &error)) << line << ": " << error;
    EXPECT_EQ(back.kind, e.kind);
    EXPECT_EQ(back.t, e.t);
    EXPECT_EQ(back.p, e.p);
    EXPECT_EQ(back.peer, e.peer);
    EXPECT_EQ(back.tag, e.tag);
    EXPECT_EQ(back.round, e.round);
    EXPECT_EQ(back.aux, e.aux);
    EXPECT_EQ(back.senders, e.senders);
    ASSERT_EQ(back.verts.size(), e.verts.size());
    for (std::size_t i = 0; i < e.verts.size(); ++i) {
      EXPECT_TRUE(back.verts[i] == e.verts[i]);
    }
    ASSERT_EQ(back.view.size(), e.view.size());
    for (std::size_t i = 0; i < e.view.size(); ++i) {
      EXPECT_EQ(back.view[i].first, e.view[i].first);
      EXPECT_TRUE(back.view[i].second == e.view[i].second);
    }
    // Determinism: serializing the parse is byte-identical.
    TraceEvent again = back;
    EXPECT_EQ(to_jsonl(again), line);
  }
}

TEST(TraceHeader, RoundTrips) {
  TraceHeader h;
  h.env = "sim";
  h.n = 5;
  h.f = 1;
  h.d = 2;
  h.eps = 0.15;
  h.input_magnitude = 1.25;
  h.round0_naive = true;
  h.correct_inputs_model = true;
  h.t_end = 18;
  h.pattern = 2;
  h.crash_style = 1;
  h.delay = 3;
  h.seed = 0xDEADBEEFCAFEF00Dull;  // beyond 2^53: must survive as u64
  h.drop = 0.25;
  h.reliable = true;
  h.rto_max = 50.0;
  h.max_retries = 7;
  h.overrides = {{.from = 0, .to = 1, .drop = 0.5, .dup = 0.0, .reorder = 0.1}};
  HeaderPolicyPhase cut;
  cut.at = 3.0;
  cut.drop = 0.25;
  cut.overrides = {{.from = 2, .to = 3, .drop = 1.0}};
  h.phases = {HeaderPolicyPhase{}, cut};
  h.faulty = {4};
  h.inputs = {{0.1, 0.2}, {0.3, 0.4}, {-0.5, 0.0}, {1.0, -1.0}, {9.0, 9.0}};

  const std::string line = to_jsonl(h);
  // The shim's RTO schedule and the links' reorder-delay range are
  // constants (net/policy.hpp), not header fields.
  for (const char* key : {"\"rto\"", "\"backoff\"", "\"jitter\"",
                          "\"reorder_delay_min\"", "\"reorder_delay_max\"",
                          "\"rmin\"", "\"rmax\""}) {
    EXPECT_EQ(line.find(key), std::string::npos) << key;
  }
  TraceHeader back;
  std::string error;
  ASSERT_TRUE(parse_header(line, back, &error)) << error;
  EXPECT_EQ(back.env, h.env);
  EXPECT_EQ(back.n, h.n);
  EXPECT_EQ(back.f, h.f);
  EXPECT_EQ(back.d, h.d);
  EXPECT_EQ(back.eps, h.eps);
  EXPECT_EQ(back.input_magnitude, h.input_magnitude);
  EXPECT_EQ(back.round0_naive, h.round0_naive);
  EXPECT_EQ(back.correct_inputs_model, h.correct_inputs_model);
  EXPECT_EQ(back.t_end, h.t_end);
  EXPECT_EQ(back.pattern, h.pattern);
  EXPECT_EQ(back.crash_style, h.crash_style);
  EXPECT_EQ(back.delay, h.delay);
  EXPECT_EQ(back.seed, h.seed);
  EXPECT_EQ(back.drop, h.drop);
  EXPECT_EQ(back.reliable, h.reliable);
  EXPECT_EQ(back.rto_max, h.rto_max);
  EXPECT_EQ(back.max_retries, h.max_retries);
  ASSERT_EQ(back.overrides.size(), 1u);
  EXPECT_EQ(back.overrides[0].reorder, 0.1);
  ASSERT_EQ(back.phases.size(), 2u);
  EXPECT_EQ(back.phases[1].at, 3.0);
  ASSERT_EQ(back.phases[1].overrides.size(), 1u);
  EXPECT_EQ(back.phases[1].overrides[0].drop, 1.0);
  EXPECT_EQ(back.faulty, h.faulty);
  EXPECT_EQ(back.inputs, h.inputs);
  EXPECT_EQ(to_jsonl(back), line);
}

TEST(TraceHeader, OlderHeaderWithNetworkConstantsStillParses) {
  // Headers written while the RTO schedule and the reorder-delay range were
  // fields carry them at top level and in every override and phase. The
  // reader ignores those keys, and the writer emits the header without
  // them.
  const std::string old_line =
      R"({"kind":"header","version":1,"env":"sim","n":3,"f":0,"d":1,)"
      R"("eps":0.1,"input_magnitude":1,"rel_tol":1e-09,)"
      R"("round0_naive":false,"correct_inputs_model":false,"t_end":9,)"
      R"("pattern":0,"crash_style":0,"delay":0,"seed":7,"drop":0.1,)"
      R"("dup":0,"reorder":0.2,"reorder_delay_min":0.5,)"
      R"("reorder_delay_max":3,"reliable":true,"rto":3,"backoff":2,)"
      R"("rto_max":20,"jitter":0.25,"max_retries":15,)"
      R"("max_events":50000000,"overrides":[{"from":0,"to":1,"drop":0.5,)"
      R"("dup":0,"reorder":0,"rmin":0.5,"rmax":3}],"phases":[{"at":0,)"
      R"("drop":0,"dup":0,"reorder":0,"rmin":0.5,"rmax":3},{"at":4,)"
      R"("drop":0,"dup":0,"reorder":0,"rmin":0.5,"rmax":3,"overrides":)"
      R"([{"from":1,"to":2,"drop":1,"dup":0,"reorder":0,"rmin":0.5,)"
      R"("rmax":3}]}],"faulty":[],"inputs":[[0.5],[-0.25],[1]]})";
  TraceHeader h;
  std::string error;
  ASSERT_TRUE(parse_header(old_line, h, &error)) << error;
  EXPECT_EQ(h.n, 3u);
  EXPECT_EQ(h.reorder, 0.2);
  EXPECT_TRUE(h.reliable);
  EXPECT_EQ(h.rto_max, 20.0);
  ASSERT_EQ(h.overrides.size(), 1u);
  EXPECT_EQ(h.overrides[0].drop, 0.5);
  ASSERT_EQ(h.phases.size(), 2u);
  ASSERT_EQ(h.phases[1].overrides.size(), 1u);
  EXPECT_EQ(h.phases[1].overrides[0].drop, 1.0);
  EXPECT_EQ(to_jsonl(h),
            R"({"kind":"header","version":1,"env":"sim","n":3,"f":0,"d":1,)"
            R"("eps":0.1,"input_magnitude":1,"rel_tol":1e-09,)"
            R"("round0_naive":false,"correct_inputs_model":false,)"
            R"("t_end":9,"pattern":0,"crash_style":0,"delay":0,"seed":7,)"
            R"("drop":0.1,"dup":0,"reorder":0.2,"reliable":true,)"
            R"("rto_max":20,"max_retries":15,"max_events":50000000,)"
            R"("overrides":[{"from":0,"to":1,"drop":0.5,"dup":0,)"
            R"("reorder":0}],"phases":[{"at":0,"drop":0,"dup":0,)"
            R"("reorder":0},{"at":4,"drop":0,"dup":0,"reorder":0,)"
            R"("overrides":[{"from":1,"to":2,"drop":1,"dup":0,)"
            R"("reorder":0}]}],"faulty":[],"inputs":[[0.5],[-0.25],[1]]})");
}

TEST(TraceFooter, RoundTrips) {
  TraceFooter f;
  f.quiescent = true;
  f.decided = 4;
  TraceFooter back;
  std::string error;
  ASSERT_TRUE(parse_footer(to_jsonl(f), back, &error)) << error;
  EXPECT_EQ(back.quiescent, f.quiescent);
  EXPECT_EQ(back.decided, f.decided);
}

TEST(Tracer, StampsStrictlyIncreasingSeq) {
  MemorySink sink;
  Tracer tracer(&sink);
  ASSERT_TRUE(tracer.enabled());
  for (int i = 0; i < 10; ++i) tracer.emit(sample_round_event());
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 10u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].seq, events[i - 1].seq);
  }
}

TEST(Tracer, DisabledSinkNeverBuildsTheEvent) {
  Tracer tracer;  // no sink
  ASSERT_FALSE(tracer.enabled());
  // emit_with must not invoke the builder at all — the disabled path is one
  // pointer test, with no event construction or allocation behind it.
  int built = 0;
  tracer.emit_with([&] {
    ++built;
    return sample_round_event();
  });
  EXPECT_EQ(built, 0);

  MemorySink sink;
  Tracer on(&sink);
  on.emit_with([&] {
    ++built;
    return sample_round_event();
  });
  EXPECT_EQ(built, 1);
  EXPECT_EQ(sink.events().size(), 1u);
}

TEST(Tracer, ConcurrentEmissionKeepsSeqsUnique) {
  MemorySink sink;
  Tracer tracer(&sink);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kPerThread; ++i) {
        TraceEvent e;
        e.kind = EventKind::kSend;
        e.p = static_cast<Pid>(t);
        e.peer = 0;
        e.tag = i;
        tracer.emit(e);
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto events = sink.events();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::set<std::uint64_t> seqs;
  for (const auto& e : events) seqs.insert(e.seq);
  EXPECT_EQ(seqs.size(), events.size()) << "seq stamps must be unique";
}

TEST(JsonlFileSink, WritesParseableLines) {
  const std::string path = ::testing::TempDir() + "chc_tracer_test.jsonl";
  {
    JsonlFileSink sink(path);
    Tracer tracer(&sink);
    tracer.line("{\"kind\":\"header\"}");
    tracer.emit(sample_round_event());
    sink.flush();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "{\"kind\":\"header\"}");
  ASSERT_TRUE(std::getline(in, line));
  TraceEvent e;
  EXPECT_TRUE(parse_event(line, e, nullptr));
  EXPECT_EQ(e.kind, EventKind::kRound);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace chc::obs
