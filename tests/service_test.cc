#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/failpoints.h"
#include "base/metrics.h"
#include "base/report.h"
#include "era/emptiness.h"
#include "projection/lr_bounded.h"
#include "service/compiled_spec.h"
#include "service/request.h"
#include "service/service.h"
#include "test_util.h"

namespace rav::service {
namespace {

// A tiny well-formed spec (the ping-pong fixture, inline so the test
// needs no data path).
const char kPingPong[] = R"(automaton {
  registers 1
  state ping initial final
  state pong
  transition ping -> pong { x1 = y1 }
  transition pong -> ping { }
  constraint eq 1 1 "ping pong ping"
})";

// Ping-pong plus structure the analyzer provably strips: an unreachable
// state with a transition out of it.
const char kPingPongWithDeadState[] = R"(automaton {
  registers 1
  state ping initial final
  state pong
  state limbo
  transition ping -> pong { x1 = y1 }
  transition pong -> ping { }
  transition limbo -> ping { }
  constraint eq 1 1 "ping pong ping"
})";

std::string RequestLine(const std::string& body) {
  return "{" + body + "}";
}

// The text form of bench_common.h's MakeShiftRingSearchEra(k, n, false):
// ring edges shift registers, each state also skips two ahead with
// x1 = y1. NONEMPTY (the all-equal valuation satisfies every guard).
std::string ShiftRingText(int k, int n) {
  std::string shift;
  for (int i = 1; i < k; ++i) {
    shift += " x" + std::to_string(i) + " = y" + std::to_string(i + 1);
  }
  std::string spec = "automaton {\n  registers " + std::to_string(k) + "\n";
  for (int s = 0; s < n; ++s) {
    spec += "  state s" + std::to_string(s) +
            (s == 0 ? " initial final\n" : "\n");
  }
  for (int step : {1, 2}) {
    for (int s = 0; s < n; ++s) {
      spec += "  transition s" + std::to_string(s) + " -> s" +
              std::to_string((s + step) % n) + " {" + shift +
              (step == 2 ? " x1 = y1" : "") + " }\n";
    }
  }
  return spec + "}\n";
}

// Every committed spec (tests/data, examples/data): (file name, text),
// sorted by path.
std::vector<std::pair<std::string, std::string>> CommittedSpecs() {
  std::vector<std::filesystem::path> paths;
  for (const char* dir : {"tests/data", "examples/data"}) {
    for (const auto& entry : std::filesystem::directory_iterator(
             std::filesystem::path(RAV_SOURCE_DIR) / dir)) {
      if (entry.path().extension() == ".rav") paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::pair<std::string, std::string>> specs;
  for (const auto& path : paths) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    specs.emplace_back(path.filename().string(), text.str());
  }
  return specs;
}

// --- content hash ---

TEST(SpecContentHashTest, StableAndContentSensitive) {
  const std::string h1 = SpecContentHash(kPingPong);
  EXPECT_EQ(h1.size(), 16u);
  EXPECT_EQ(h1, SpecContentHash(kPingPong));
  EXPECT_NE(h1, SpecContentHash(kPingPongWithDeadState));
  EXPECT_EQ(h1.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(SpecContentHashTest, GoldenValuesPinTheOffsetBasis) {
  // The basis (1469598103934665603) is not standard FNV-1a's, and clients
  // cache hashes computed with it: a changed value would make every
  // spec_hash request a cache miss. The empty text hashes to the basis.
  EXPECT_EQ(SpecContentHash(""), "14650fb0739d0383");
  EXPECT_EQ(
      SpecContentHash("automaton { registers 1 state q initial final }\n"),
      "3e2cace4726e35fc");
}

// --- CompiledSpec ---

TEST(CompiledSpecTest, CompilesCleanSpecOnce) {
  auto spec = CompiledSpec::Compile(kPingPong);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ((*spec)->hash(), SpecContentHash(kPingPong));
  EXPECT_TRUE((*spec)->diagnostics().empty());
  // The emptiness subject is completed — CheckEraEmptiness's premise.
  EXPECT_TRUE((*spec)->emptiness_subject().automaton().IsComplete());
  EXPECT_GT((*spec)->emptiness_alphabet().size(), 0);
  EXPECT_GE((*spec)->compile_ms(), 0.0);
}

TEST(CompiledSpecTest, ParseErrorIsFatal) {
  auto spec = CompiledSpec::Compile("automaton { this is not a spec");
  EXPECT_FALSE(spec.ok());
}

TEST(CompiledSpecTest, StripsDeadStructureAtCompileTime) {
  auto spec = CompiledSpec::Compile(kPingPongWithDeadState);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_GE((*spec)->states_stripped(), 1);
  EXPECT_FALSE((*spec)->diagnostics().empty());  // RAV001 at least
  // The analysis subject lost the limbo state; the parsed era kept it.
  EXPECT_LT((*spec)->analysis_subject().automaton().num_states(),
            (*spec)->era().automaton().num_states());
}

TEST(CompiledSpecTest, SControlIsBuiltOnFirstUseAndOnlyOnce) {
  auto compiled = CompiledSpec::Compile(ShiftRingText(3, 8));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const CompiledSpec& spec = **compiled;
  // Eight threads race the first use: one builds, all get the same NBA.
  constexpr int kThreads = 8;
  std::array<bool, kThreads> built{};
  std::array<const Nba*, kThreads> nba{};
  std::atomic<int> waiting{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      nba[t] = &spec.emptiness_scontrol(&built[t]);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(std::count(built.begin(), built.end(), true), 1);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(nba[t], nba[0]);
  const Nba fresh = BuildSControlNba(spec.emptiness_subject().automaton(),
                                     spec.emptiness_alphabet());
  EXPECT_EQ(nba[0]->num_states(), fresh.num_states());
  EXPECT_EQ(nba[0]->num_transitions(), fresh.num_transitions());
  // The analysis subject has its own NBA, built on its own first use.
  bool analysis_built = false;
  const Nba& analysis = spec.analysis_scontrol(&analysis_built);
  EXPECT_TRUE(analysis_built);
  EXPECT_NE(&analysis, nba[0]);
  EXPECT_EQ(&spec.analysis_scontrol(&analysis_built), &analysis);
  EXPECT_FALSE(analysis_built);
}

// --- SpecCache ---

TEST(SpecCacheTest, HitsAfterMissAndFindsByHash) {
  SpecCache cache(4);
  bool hit = true;
  auto first = cache.GetOrCompile(kPingPong, &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit);
  auto second = cache.GetOrCompile(kPingPong, &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(first->get(), second->get());  // same artifact, not a copy
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.FindByHash((*first)->hash()).get(), first->get());
  EXPECT_EQ(cache.FindByHash("0000000000000000"), nullptr);
}

TEST(SpecCacheTest, EvictsLeastRecentlyUsed) {
  SpecCache cache(1);
  auto first = cache.GetOrCompile(kPingPong);
  ASSERT_TRUE(first.ok());
  auto second = cache.GetOrCompile(kPingPongWithDeadState);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.FindByHash((*first)->hash()), nullptr);  // evicted
  // The handed-out shared_ptr outlives the eviction.
  EXPECT_EQ((*first)->hash(), SpecContentHash(kPingPong));
}

// --- request parsing ---

// Fields the request table of docs/serving.md does not list are ignored,
// whatever their value: the retired "search_mode" among them.
TEST(ParseRequestTest, ParsesFullRequest) {
  auto request = ParseRequest(RequestLine(
      R"("id": "r1", "op": "verify", "spec": "automaton {}",
         "ltl": "G p0", "propositions": ["x1=y1"],
         "timeout": "250ms", "memory_limit": "64k", "threads": 2,
         "search_mode": "shared", "not_a_field": [1, {"x": null}])"));
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->id, "r1");
  EXPECT_EQ(request->op, Op::kVerify);
  EXPECT_EQ(request->ltl, "G p0");
  ASSERT_EQ(request->propositions.size(), 1u);
  EXPECT_EQ(request->timeout_ms, 250);
  EXPECT_EQ(request->memory_bytes, 64 * 1024);
  EXPECT_EQ(request->threads, 2);
}

TEST(ParseRequestTest, RejectionsNameTheField) {
  auto bad = [](const std::string& body) {
    Result<QueryRequest> r = ParseRequest(body);
    EXPECT_FALSE(r.ok()) << body;
    return r.ok() ? std::string() : r.status().ToString();
  };
  EXPECT_NE(bad("not json at all").find("not valid JSON"), std::string::npos);
  EXPECT_NE(bad(RequestLine(R"("op": "empty", "spec": "x")"))
                .find("id"), std::string::npos);
  EXPECT_NE(bad(RequestLine(R"("id": "r", "op": "solve", "spec": "x")"))
                .find("unknown op"), std::string::npos);
  EXPECT_NE(bad(RequestLine(R"("id": "r", "op": "empty")"))
                .find("needs a spec"), std::string::npos);
  EXPECT_NE(
      bad(RequestLine(
              R"("id": "r", "op": "empty", "spec": "x", "spec_hash": "y")"))
          .find("not both"),
      std::string::npos);
  EXPECT_NE(bad(RequestLine(R"("id": "r", "op": "verify", "spec": "x",
                               "ltl": "G p0")"))
                .find("propositions"), std::string::npos);
  EXPECT_NE(bad(RequestLine(R"("id": "r", "op": "cancel")"))
                .find("target"), std::string::npos);
  // The limit grammars are the CLI's: rejections name the valid suffixes.
  EXPECT_NE(bad(RequestLine(
                    R"("id": "r", "op": "empty", "spec": "x", "timeout": "10")"))
                .find("ms, s, m"), std::string::npos);
  EXPECT_NE(bad(RequestLine(R"("id": "r", "op": "empty", "spec": "x",
                               "memory_limit": "64q")"))
                .find("k, m, g"), std::string::npos);
  EXPECT_NE(bad(RequestLine(R"("id": "r", "op": "empty", "spec": "x",
                               "threads": -1)"))
                .find("threads"), std::string::npos);
}

// The wire `threads` is range-checked while it is still a double: a cast
// of 1e10 or of 1e999 (which parses to +inf) to int is undefined, and any
// value above kMaxRequestThreads would let one request line ask for that
// many search threads. Only the parser runs here; no search starts.
TEST(ParseRequestTest, ThreadsIsBoundedBeforeTheCast) {
  auto parse = [](const std::string& threads) {
    return ParseRequest(RequestLine(
        R"("id": "r", "op": "empty", "spec": "x", "threads": )" + threads));
  };
  for (const std::string& bad :
       {std::string("1e10"), std::string("1e999"), std::string("-1e999"),
        std::string("2.5"), std::string("-1"), std::string("\"4\""),
        std::to_string(kMaxRequestThreads + 1)}) {
    Result<QueryRequest> request = parse(bad);
    ASSERT_FALSE(request.ok()) << bad;
    EXPECT_NE(request.status().ToString().find("threads"), std::string::npos)
        << bad;
  }
  for (int good : {0, 1, kMaxRequestThreads}) {
    Result<QueryRequest> request = parse(std::to_string(good));
    ASSERT_TRUE(request.ok()) << good << ": " << request.status().ToString();
    EXPECT_EQ(request->threads, good);
  }
}

TEST(ParseRequestTest, FailpointRejectsTheRequest) {
  failpoints::Arm("service/parse_request", 1);
  Result<QueryRequest> request =
      ParseRequest(RequestLine(R"("id": "r", "op": "stats")"));
  ASSERT_FALSE(request.ok());
  EXPECT_NE(request.status().ToString().find("service/parse_request"),
            std::string::npos);
  // Disarmed after firing: the next parse succeeds.
  EXPECT_TRUE(ParseRequest(RequestLine(R"("id": "r", "op": "stats")")).ok());
  failpoints::DisarmAll();
}

// --- service ops ---

QueryRequest SpecRequest(const std::string& id, Op op,
                         const std::string& spec) {
  QueryRequest request;
  request.id = id;
  request.op = op;
  request.spec_text = spec;
  return request;
}

TEST(ServiceTest, EmptyOpFindsPingPongWitness) {
  Service service;
  QueryResponse response =
      service.Handle(SpecRequest("r1", Op::kEmpty, kPingPong));
  EXPECT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.verdict, "NONEMPTY");
  EXPECT_EQ(response.exit_equivalent, 3);
  EXPECT_NE(response.details.Find("witness"), nullptr);
  EXPECT_FALSE(response.cache_hit);
  // Every response embeds a schema-valid run report.
  EXPECT_TRUE(ValidateReportJson(response.report).ok());
  const Json* experiment = response.report.Find("experiment");
  ASSERT_NE(experiment, nullptr);
  EXPECT_EQ(experiment->string_value(), "serve/empty");
}

TEST(ServiceTest, SpecHashReusesTheCompiledSpec) {
  Service service;
  QueryResponse first =
      service.Handle(SpecRequest("r1", Op::kInfo, kPingPong));
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_FALSE(first.spec_hash.empty());
  QueryRequest by_hash;
  by_hash.id = "r2";
  by_hash.op = Op::kEmpty;
  by_hash.spec_hash = first.spec_hash;
  QueryResponse second = service.Handle(by_hash);
  EXPECT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.verdict, "NONEMPTY");
}

TEST(ServiceTest, UnknownSpecHashIsANamedError) {
  Service service;
  QueryRequest request;
  request.id = "r1";
  request.op = Op::kEmpty;
  request.spec_hash = "feedfacefeedface";
  QueryResponse response = service.Handle(request);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("feedfacefeedface"), std::string::npos);
  EXPECT_EQ(response.exit_equivalent, 1);
}

TEST(ServiceTest, VerifyOpHoldsForTautology) {
  Service service;
  QueryRequest request = SpecRequest("r1", Op::kVerify, kPingPong);
  request.ltl = "true";
  request.propositions = {"x1=y1"};
  QueryResponse response = service.Handle(request);
  EXPECT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.verdict.rfind("HOLDS", 0), 0u) << response.verdict;
  EXPECT_EQ(response.exit_equivalent, 0);
}

TEST(ServiceTest, VerifyOpRejectsBadProposition) {
  Service service;
  QueryRequest request = SpecRequest("r1", Op::kVerify, kPingPong);
  request.ltl = "G p0";
  request.propositions = {"x9=y9"};  // out of range for 1 register
  QueryResponse response = service.Handle(request);
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("register out of range"), std::string::npos);
}

TEST(ServiceTest, LintOpAnswersFromTheCompile) {
  Service service;
  QueryResponse clean =
      service.Handle(SpecRequest("r1", Op::kLint, kPingPong));
  EXPECT_TRUE(clean.ok) << clean.error;
  EXPECT_EQ(clean.verdict, "clean");
  EXPECT_EQ(clean.exit_equivalent, 0);
  QueryResponse warned =
      service.Handle(SpecRequest("r2", Op::kLint, kPingPongWithDeadState));
  EXPECT_TRUE(warned.ok) << warned.error;
  EXPECT_EQ(warned.verdict, "lint warnings");
  EXPECT_EQ(warned.exit_equivalent, 1);
  ASSERT_NE(warned.details.Find("diagnostics"), nullptr);
}

TEST(ServiceTest, InfoOpReportsCompileAccounting) {
  Service service;
  QueryResponse response =
      service.Handle(SpecRequest("r1", Op::kInfo, kPingPongWithDeadState));
  EXPECT_TRUE(response.ok) << response.error;
  ASSERT_NE(response.details.Find("states"), nullptr);
  EXPECT_EQ(response.details.Find("states")->number_value(), 3);
  ASSERT_NE(response.details.Find("states_stripped"), nullptr);
  EXPECT_GE(response.details.Find("states_stripped")->number_value(), 1);
}

TEST(ServiceTest, StatsCountRequestsAndCacheTraffic) {
  Service service;
  service.Handle(SpecRequest("r1", Op::kInfo, kPingPong));
  service.Handle(SpecRequest("r2", Op::kInfo, kPingPong));
  QueryRequest stats;
  stats.id = "r3";
  stats.op = Op::kStats;
  QueryResponse response = service.Handle(stats);
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.details.Find("requests")->number_value(), 2);
  EXPECT_EQ(response.details.Find("cache_hits")->number_value(), 1);
  EXPECT_EQ(response.details.Find("cache_misses")->number_value(), 1);
}

double StatOf(Service& service, const char* key) {
  QueryRequest stats;
  stats.id = "stats";
  stats.op = Op::kStats;
  const QueryResponse response = service.Handle(stats);
  const Json* value = response.details.Find(key);
  return value == nullptr ? -1 : value->number_value();
}

QueryRequest HashRequest(const std::string& id, Op op,
                         const std::string& hash) {
  QueryRequest request;
  request.id = id;
  request.op = op;
  request.spec_hash = hash;
  return request;
}

uint64_t MetricValue(const std::string& name) {
  for (const metrics::MetricSnapshot& m : metrics::Snapshot()) {
    if (m.name == name) return m.value;
  }
  return 0;
}

// `service/cache_hits` counts hits by text and by hash alike, so it
// agrees with the `stats` op; `service/scontrol_builds` likewise.
TEST(ServiceTest, CacheHitAndBuildMetricsAgreeWithStats) {
  Service service;
  const uint64_t hits_before = MetricValue("service/cache_hits");
  const uint64_t builds_before = MetricValue("service/scontrol_builds");
  const QueryResponse first =
      service.Handle(SpecRequest("m1", Op::kEmpty, kPingPong));
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_TRUE(service.Handle(HashRequest("m2", Op::kEmpty, first.spec_hash))
                  .cache_hit);
  EXPECT_TRUE(service.Handle(SpecRequest("m3", Op::kLrBound, kPingPong))
                  .cache_hit);
  EXPECT_TRUE(
      service.Handle(HashRequest("m4", Op::kLrBound, first.spec_hash))
          .cache_hit);
  EXPECT_EQ(StatOf(service, "cache_hits"), 3);
  EXPECT_EQ(MetricValue("service/cache_hits") - hits_before, 3u);
  // One NBA per subject: emptiness, then analysis.
  EXPECT_EQ(StatOf(service, "scontrol_builds"), 2);
  EXPECT_EQ(MetricValue("service/scontrol_builds") - builds_before, 2u);
}

TEST(ServiceTest, ResponseJsonLineIsOneParseableLine) {
  Service service;
  QueryResponse response =
      service.Handle(SpecRequest("r1", Op::kEmpty, kPingPong));
  const std::string line = response.ToJsonLine();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  auto parsed = Json::Parse(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("id")->string_value(), "r1");
  EXPECT_TRUE(parsed->Find("ok")->bool_value());
}

// --- governor isolation (the acceptance criterion) ---

// An expired per-request deadline must trip exactly that request: it
// reports exit-equivalent 4 with a truncated verdict, while requests
// running CONCURRENTLY against the same service (and partly the same
// compiled spec) finish with their normal verdicts and no trip.
TEST(ServiceIsolationTest, OneTrippedRequestLeavesConcurrentOnesUntouched) {
  Service service;
  const std::string big = testing::PumpOnlyEmptySpecText();
  // Warm the cache so every thread races on queries, not compiles.
  ASSERT_TRUE(service.Handle(SpecRequest("warm", Op::kInfo, big)).ok);

  QueryRequest tripped = SpecRequest("tripped", Op::kEmpty, big);
  tripped.timeout_ms = 0;  // already expired: trips at the first poll
  QueryRequest free_big = SpecRequest("free-big", Op::kLrBound, big);
  QueryRequest free_small = SpecRequest("free-small", Op::kEmpty, kPingPong);

  QueryResponse tripped_response, free_big_response, free_small_response;
  std::thread t1([&] { tripped_response = service.Handle(tripped); });
  std::thread t2([&] { free_big_response = service.Handle(free_big); });
  std::thread t3([&] { free_small_response = service.Handle(free_small); });
  t1.join();
  t2.join();
  t3.join();

  // The governed request tripped...
  EXPECT_TRUE(tripped_response.ok) << tripped_response.error;
  EXPECT_EQ(tripped_response.exit_equivalent, 4);
  EXPECT_NE(tripped_response.verdict.find("truncated"), std::string::npos);
  EXPECT_EQ(tripped_response.details.Find("stop_reason")->string_value(),
            "deadline");

  // ...and neither concurrent request saw any of it.
  EXPECT_TRUE(free_big_response.ok) << free_big_response.error;
  EXPECT_EQ(free_big_response.verdict, "no growth detected");
  EXPECT_NE(free_big_response.details.Find("stop_reason")->string_value(),
            "deadline");
  EXPECT_TRUE(free_small_response.ok) << free_small_response.error;
  EXPECT_EQ(free_small_response.verdict, "NONEMPTY");
  EXPECT_EQ(free_small_response.exit_equivalent, 3);

  // Per-request reports stayed per-request too.
  EXPECT_TRUE(ValidateReportJson(tripped_response.report).ok());
  EXPECT_TRUE(ValidateReportJson(free_small_response.report).ok());
  EXPECT_EQ(tripped_response.report.Find("verdict")->string_value(),
            tripped_response.verdict);
  EXPECT_EQ(free_small_response.report.Find("verdict")->string_value(),
            "NONEMPTY");
}

TEST(ServiceCancelTest, CancelReachesAnInFlightRequest) {
  Service service;
  const std::string big = testing::PumpOnlyEmptySpecText();
  ASSERT_TRUE(service.Handle(SpecRequest("warm", Op::kInfo, big)).ok);

  EXPECT_FALSE(service.Cancel("never-started"));

  QueryResponse response;
  std::thread runner(
      [&] { response = service.Handle(SpecRequest("slow", Op::kEmpty, big)); });
  // The guard registers the governor before the search starts, so this
  // spin observes the request and cancels it before (or during) its
  // first batch of candidates — deterministically exit-5.
  while (!service.Cancel("slow")) {
    std::this_thread::yield();
  }
  runner.join();
  EXPECT_TRUE(response.ok) << response.error;
  EXPECT_EQ(response.exit_equivalent, 5);
  EXPECT_EQ(response.details.Find("stop_reason")->string_value(), "cancelled");
}

TEST(ServiceCancelTest, CancelOpReportsWhetherTargetWasInFlight) {
  Service service;
  QueryRequest cancel;
  cancel.id = "c1";
  cancel.op = Op::kCancel;
  cancel.target = "ghost";
  QueryResponse response = service.Handle(cancel);
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.verdict, "not in flight");
  EXPECT_FALSE(response.details.Find("cancelled")->bool_value());
}

TEST(ServiceTest, DuplicateInFlightIdIsRejected) {
  Service service;
  const std::string big = testing::PumpOnlyEmptySpecText();
  ASSERT_TRUE(service.Handle(SpecRequest("warm", Op::kInfo, big)).ok);

  QueryResponse slow_response;
  std::thread runner([&] {
    slow_response = service.Handle(SpecRequest("dup", Op::kEmpty, big));
  });
  // Wait until "dup" is registered (Cancel finds it), then collide. The
  // cancel also makes the slow request finish promptly afterwards.
  while (!service.Cancel("dup")) {
    std::this_thread::yield();
  }
  QueryResponse collision =
      service.Handle(SpecRequest("dup", Op::kInfo, kPingPong));
  runner.join();
  if (!collision.ok) {
    EXPECT_NE(collision.error.find("already in flight"), std::string::npos);
  }
  // (If the cancelled request drained before the collision arrived, the
  // second "dup" legitimately succeeds — both outcomes are correct; the
  // hard requirement is no crash and no cross-talk.)
  EXPECT_TRUE(slow_response.ok) << slow_response.error;
  EXPECT_EQ(slow_response.exit_equivalent, 5);
}

// --- the uniform rejection surface (docs/serving.md) ---

TEST(ServiceUniformErrorsTest, MakeRejectionCarriesTheStructuredFields) {
  QueryResponse shed = MakeRejection({.id = "r9",
                                      .op = "empty",
                                      .error_kind = "overloaded",
                                      .resource = "queue",
                                      .message = "queue full",
                                      .exit_equivalent = 4,
                                      .retry_after_ms = 25});
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.verdict, "error");
  auto parsed = Json::Parse(shed.ToJsonLine());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("id")->string_value(), "r9");
  EXPECT_EQ(parsed->Find("error_kind")->string_value(), "overloaded");
  EXPECT_EQ(parsed->Find("resource")->string_value(), "queue");
  EXPECT_EQ(parsed->Find("retry_after_ms")->number_value(), 25);
  EXPECT_EQ(parsed->Find("exit_equivalent")->number_value(), 4);

  // Fields that do not apply stay off the wire entirely.
  QueryResponse plain = MakeRejection(
      {.error_kind = "parse_error", .message = "bad json"});
  auto plain_json = Json::Parse(plain.ToJsonLine());
  ASSERT_TRUE(plain_json.ok());
  EXPECT_EQ(plain_json->Find("resource"), nullptr);
  EXPECT_EQ(plain_json->Find("retry_after_ms"), nullptr);
}

TEST(ServiceUniformErrorsTest, GovernorTripIsStampedWithResourceAndHint) {
  ServiceOptions options;
  options.retry_after_ms_hint = 11;
  Service service(options);
  QueryRequest tripped =
      SpecRequest("r1", Op::kEmpty, testing::PumpOnlyEmptySpecText());
  tripped.timeout_ms = 0;  // already expired: trips at the first poll
  QueryResponse response = service.Handle(tripped);
  EXPECT_EQ(response.exit_equivalent, 4);
  EXPECT_EQ(response.error_kind, "governor_trip");
  EXPECT_EQ(response.resource, "deadline");
  EXPECT_EQ(response.retry_after_ms, 11);
  // The stamp reaches the embedded run report too.
  EXPECT_EQ(response.report.Find("params")->Find("error_kind")->string_value(),
            "governor_trip");
  EXPECT_EQ(response.report.Find("params")->Find("resource")->string_value(),
            "deadline");
  EXPECT_EQ(
      response.report.Find("params")->Find("retry_after_ms")->number_value(),
      11);
}

TEST(ServiceUniformErrorsTest, MemoryTripNamesTheMemoryResource) {
  Service service;
  QueryRequest tripped =
      SpecRequest("r1", Op::kEmpty, testing::PumpOnlyEmptySpecText());
  tripped.memory_bytes = 0;  // already exhausted
  QueryResponse response = service.Handle(tripped);
  EXPECT_EQ(response.exit_equivalent, 4);
  EXPECT_EQ(response.error_kind, "governor_trip");
  EXPECT_EQ(response.resource, "memory");
}

TEST(ServiceUniformErrorsTest, BadRequestsAndDuplicatesAreClassified) {
  Service service;
  QueryRequest unknown_hash;
  unknown_hash.id = "r1";
  unknown_hash.op = Op::kEmpty;
  unknown_hash.spec_hash = "feedfacefeedface";
  QueryResponse bad = service.Handle(unknown_hash);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error_kind, "bad_request");
  EXPECT_TRUE(bad.resource.empty());
  EXPECT_EQ(bad.retry_after_ms, -1);  // nothing to back off from

  // A deterministic duplicate: hold "dup" in flight, collide, and only
  // then cancel it.
  const std::string big = testing::PumpOnlyEmptySpecText();
  ASSERT_TRUE(service.Handle(SpecRequest("warm", Op::kInfo, big)).ok);
  QueryResponse slow_response;
  std::thread runner([&] {
    slow_response = service.Handle(SpecRequest("dup", Op::kEmpty, big));
  });
  QueryRequest stats;
  stats.id = "s";
  stats.op = Op::kStats;
  while (service.Handle(stats).details.Find("in_flight")->number_value() < 1) {
    std::this_thread::yield();
  }
  QueryResponse collision =
      service.Handle(SpecRequest("dup", Op::kInfo, kPingPong));
  EXPECT_FALSE(collision.ok);
  EXPECT_EQ(collision.error_kind, "duplicate_id");
  EXPECT_EQ(collision.exit_equivalent, 1);
  ASSERT_TRUE(service.Cancel("dup"));
  runner.join();
  EXPECT_TRUE(slow_response.ok) << slow_response.error;
}

// --- cached SControl NBAs ---

// SearchStats::ToString without its wall-clock field.
std::string WithoutWallTime(std::string line) {
  const size_t at = line.find(" wall_ms=");
  if (at == std::string::npos) return line;
  const size_t end = line.find(' ', at + 1);
  line.erase(at, end == std::string::npos ? std::string::npos : end - at);
  return line;
}

void ExpectSameStats(const SearchStats& got, const SearchStats& want) {
  EXPECT_EQ(got.stop_reason, want.stop_reason);
  EXPECT_EQ(got.lassos_enumerated, want.lassos_enumerated);
  EXPECT_EQ(got.lassos_checked, want.lassos_checked);
  EXPECT_EQ(got.closures_built, want.closures_built);
  EXPECT_EQ(got.closures_extended, want.closures_extended);
  EXPECT_EQ(got.inconsistent_closures, want.inconsistent_closures);
  EXPECT_EQ(got.enumeration_steps, want.enumeration_steps);
  EXPECT_EQ(got.workers, want.workers);
  EXPECT_EQ(got.guard_evals, want.guard_evals);
  EXPECT_EQ(got.guard_batches, want.guard_batches);
  EXPECT_EQ(got.guard_table_bytes, want.guard_table_bytes);
}

std::string Detail(const QueryResponse& response, const char* key) {
  const Json* value = response.details.Find(key);
  return value == nullptr ? "<absent>" : value->Dump(0);
}

// Answering from the cached NBA changes nothing: for every committed
// spec, two `empty` and two `lrbound` answers from one cached spec — by
// text, then by hash, and through the NBA-taking forms — equal a one-shot
// CheckEraEmptiness / EstimateLrBound on the same subject.
TEST(CachedSControlTest, AnswersEqualOneShotProceduresOnEveryCommittedSpec) {
  const auto specs = CommittedSpecs();
  ASSERT_GE(specs.size(), 7u);
  for (const auto& [name, text] : specs) {
    SCOPED_TRACE(name);
    auto compiled = CompiledSpec::Compile(text);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    const CompiledSpec& spec = **compiled;
    // Service::Execute's options: the strip happened at compile time.
    EraEmptinessOptions empty_options;
    empty_options.analyze_and_strip = false;
    LrBoundOptions lr_options;
    lr_options.analyze_and_strip = false;
    const auto empty = CheckEraEmptiness(
        spec.emptiness_subject(), spec.emptiness_alphabet(), empty_options);
    ASSERT_TRUE(empty.ok()) << empty.status().ToString();
    const auto lr = EstimateLrBound(spec.analysis_subject(),
                                    spec.analysis_alphabet(), lr_options);

    Service service;
    std::string hash;
    for (int round = 0; round < 2; ++round) {
      SCOPED_TRACE(round == 0 ? "first answer" : "second answer");
      const auto cached_empty = CheckEraEmptiness(
          spec.emptiness_subject(), spec.emptiness_alphabet(),
          spec.emptiness_scontrol(), empty_options);
      ASSERT_TRUE(cached_empty.ok());
      EXPECT_EQ(cached_empty->nonempty, empty->nonempty);
      EXPECT_EQ(cached_empty->control_word.ToString(),
                empty->control_word.ToString());
      EXPECT_EQ(cached_empty->lassos_tried, empty->lassos_tried);
      EXPECT_EQ(cached_empty->search_truncated, empty->search_truncated);
      ExpectSameStats(cached_empty->stats, empty->stats);

      const auto cached_lr =
          EstimateLrBound(spec.analysis_subject(), spec.analysis_alphabet(),
                          spec.analysis_scontrol(), lr_options);
      ASSERT_EQ(cached_lr.ok(), lr.ok());
      if (lr.ok()) {
        EXPECT_EQ(cached_lr->max_cover, lr->max_cover);
        EXPECT_EQ(cached_lr->growth_detected, lr->growth_detected);
        EXPECT_EQ(cached_lr->lassos_examined, lr->lassos_examined);
        EXPECT_EQ(cached_lr->search_truncated, lr->search_truncated);
        ExpectSameStats(cached_lr->stats, lr->stats);
      } else {
        EXPECT_EQ(cached_lr.status().ToString(), lr.status().ToString());
      }

      // Through the wire seam: by text first (a compile), then by hash.
      const QueryResponse e =
          round == 0 ? service.Handle(SpecRequest("e", Op::kEmpty, text))
                     : service.Handle(HashRequest("e", Op::kEmpty, hash));
      ASSERT_TRUE(e.ok) << e.error;
      hash = e.spec_hash;
      EXPECT_EQ(e.verdict.rfind("NONEMPTY", 0) == 0, empty->nonempty);
      EXPECT_EQ(Detail(e, "witness"),
                empty->nonempty
                    ? Json::String(empty->control_word.ToString()).Dump(0)
                    : "<absent>");
      EXPECT_EQ(Detail(e, "stop_reason"),
                Json::String(SearchStopReasonName(empty->stats.stop_reason))
                    .Dump(0));
      const Json* search = e.details.Find("search");
      ASSERT_NE(search, nullptr);
      EXPECT_EQ(WithoutWallTime(search->string_value()),
                WithoutWallTime(empty->stats.ToString()));

      const QueryResponse l = service.Handle(HashRequest("l", Op::kLrBound,
                                                         hash));
      ASSERT_EQ(l.ok, lr.ok());
      if (lr.ok()) {
        EXPECT_EQ(Detail(l, "max_cover"),
                  Json::Number(lr->max_cover).Dump(0));
        EXPECT_EQ(Detail(l, "growth_detected"),
                  Json::Bool(lr->growth_detected).Dump(0));
        EXPECT_EQ(Detail(l, "lassos_examined"),
                  Json::Number(static_cast<uint64_t>(lr->lassos_examined))
                      .Dump(0));
        EXPECT_EQ(Detail(l, "stop_reason"),
                  Json::String(SearchStopReasonName(lr->stats.stop_reason))
                      .Dump(0));
      } else {
        EXPECT_EQ(l.error, lr.status().ToString());
      }
    }
    // Four queries, one NBA per subject.
    EXPECT_EQ(StatOf(service, "scontrol_builds"), 2);
  }
}

// Eight requests race the first `empty` on a freshly compiled spec: all
// get the same answer, and the NBA is built once.
TEST(CachedSControlTest, RacingFirstQueriesShareOneBuild) {
  Service service;
  // `info` compiles the spec without building any NBA.
  const QueryResponse info =
      service.Handle(SpecRequest("compile", Op::kInfo, ShiftRingText(3, 8)));
  ASSERT_TRUE(info.ok) << info.error;
  EXPECT_EQ(StatOf(service, "scontrol_builds"), 0);
  constexpr int kThreads = 8;
  std::vector<QueryResponse> responses(kThreads);
  std::atomic<int> waiting{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const QueryRequest request =
          HashRequest("race" + std::to_string(t), Op::kEmpty, info.spec_hash);
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      responses[t] = service.Handle(request);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const QueryResponse& r : responses) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.verdict, "NONEMPTY");
    EXPECT_EQ(Detail(r, "witness"), Detail(responses[0], "witness"));
    EXPECT_EQ(Detail(r, "stop_reason"), Detail(responses[0], "stop_reason"));
    EXPECT_EQ(WithoutWallTime(r.details.Find("search")->string_value()),
              WithoutWallTime(
                  responses[0].details.Find("search")->string_value()));
  }
  EXPECT_EQ(StatOf(service, "scontrol_builds"), 1);
}

}  // namespace
}  // namespace rav::service
