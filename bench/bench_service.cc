// E21 — Decision-service compile amortization.
// Claim: the service layer's point — compile a spec once into an
// immutable CompiledSpec (parse → lint/strip → completion → control
// alphabet) and answer every subsequent query against the shared
// artifact — buys at least 5× query throughput over recompiling per
// request, and the gap widens with the amount of strippable structure
// the compile front-loads. Both paths go through the real wire seam
// (service::ParseRequest + Service::Handle), so the measured gap is
// what a rav_serve / `rav_cli batch` client actually sees.
// Counters: dead_units, fresh_ms_per_query, cached_ms_per_query,
// amortization_ratio, compile_ms. BM_ParseDeadStructure times the parse
// alone (counters: dead_units, states, constraints), the step that
// compiles one constraint DFA per unit. BM_CachedRingQuery times one
// cached `empty` query on the k=3, n=8 shift ring (counters: registers,
// ring_states).

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>

#include "base/logging.h"
#include "bench_common.h"
#include "io/text_format.h"
#include "service/compiled_spec.h"
#include "service/request.h"
#include "service/service.h"

RAV_BENCH_EXPERIMENT(
    "E21",
    "compiling a spec once and answering queries from the shared "
    "CompiledSpec yields >= 5x query throughput over "
    "compile-per-request at identical verdicts")

namespace rav {
namespace {

// The ping-pong live core plus `dead` units of strippable structure:
// each unit adds a reachable dead-end sink, an unreachable orphan
// feeder, and a vacuous constraint anchored at the orphan. Queries only
// ever touch the 2-state core; the compile pays for all of it (parse,
// analysis over every state, one constraint DFA per unit), which is
// exactly the work the CompiledSpec cache amortizes away.
std::string SpecWithDeadStructure(int dead) {
  std::string text =
      "automaton {\n"
      "  registers 1\n"
      "  state ping initial final\n"
      "  state pong\n"
      "  transition ping -> pong { x1 = y1 }\n"
      "  transition pong -> ping { }\n";
  for (int d = 0; d < dead; ++d) {
    const std::string sink = "sink" + std::to_string(d);
    const std::string orphan = "orphan" + std::to_string(d);
    text += "  state " + sink + "\n";
    text += "  state " + orphan + "\n";
    text += "  transition ping -> " + sink + " { x1 = y1 }\n";
    text += "  transition " + orphan + " -> ping { }\n";
    text += "  constraint eq 1 1 \"" + orphan + " ping\"\n";
  }
  text += "  constraint eq 1 1 \"ping pong ping\"\n";
  text += "}\n";
  return text;
}

std::string Escaped(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

// One emptiness request carrying the full spec text (the compile-or-hit
// path) — the line a cold client sends.
std::string RequestWithText(const std::string& spec) {
  return std::string("{\"id\":\"q\",\"op\":\"empty\",\"spec\":\"") +
         Escaped(spec) + "\"}";
}

// The same query by content hash (the amortized path) — the line a warm
// client sends after the service reported the hash once.
std::string RequestWithHash(const std::string& hash) {
  return std::string("{\"id\":\"q\",\"op\":\"empty\",\"spec_hash\":\"") +
         hash + "\"}";
}

service::QueryResponse Answer(service::Service& service,
                              const std::string& line) {
  auto request = service::ParseRequest(line);
  RAV_CHECK(request.ok());
  service::QueryResponse response = service.Handle(*request);
  RAV_CHECK(response.ok);
  RAV_CHECK(response.verdict == "NONEMPTY");
  return response;
}

// Compile-per-request: a fresh Service each iteration, so the text
// request never finds a cached CompiledSpec and the full pipeline runs
// inline with the query.
void BM_FreshCompilePerQuery(benchmark::State& state) {
  const int dead = static_cast<int>(state.range(0));
  const std::string line = RequestWithText(SpecWithDeadStructure(dead));
  double compile_ms = 0;
  for (auto _ : state) {
    service::Service service{service::ServiceOptions{}};
    service::QueryResponse response = Answer(service, line);
    benchmark::DoNotOptimize(response);
  }
  auto spec = service::CompiledSpec::Compile(SpecWithDeadStructure(dead));
  RAV_CHECK(spec.ok());
  compile_ms = (*spec)->compile_ms();
  state.counters["dead_units"] = dead;
  state.counters["compile_ms"] = compile_ms;
}

// Amortized: one Service compiled the spec once; every iteration is a
// hash-addressed query against the shared immutable CompiledSpec.
void BM_CachedSpecQuery(benchmark::State& state) {
  const int dead = static_cast<int>(state.range(0));
  service::Service service{service::ServiceOptions{}};
  service::QueryResponse first =
      Answer(service, RequestWithText(SpecWithDeadStructure(dead)));
  const std::string line = RequestWithHash(first.spec_hash);
  for (auto _ : state) {
    service::QueryResponse response = Answer(service, line);
    benchmark::DoNotOptimize(response);
  }
  state.counters["dead_units"] = dead;
}

// The E21 gate: times both paths back to back over the same request
// stream and RAV_CHECKs the >= 5x claim, so a regression that erodes
// the amortization fails the bench run (and CI) rather than just
// shifting a number.
void BM_AmortizationRatio(benchmark::State& state) {
  const int dead = static_cast<int>(state.range(0));
  const std::string spec = SpecWithDeadStructure(dead);
  const std::string text_line = RequestWithText(spec);
  constexpr int kQueries = 20;
  double fresh_ms = 0;
  double cached_ms = 0;
  for (auto _ : state) {
    using Clock = std::chrono::steady_clock;
    auto t0 = Clock::now();
    for (int i = 0; i < kQueries; ++i) {
      service::Service service{service::ServiceOptions{}};
      Answer(service, text_line);
    }
    auto t1 = Clock::now();
    service::Service warm{service::ServiceOptions{}};
    const std::string hash_line =
        RequestWithHash(Answer(warm, text_line).spec_hash);
    auto t2 = Clock::now();
    for (int i = 0; i < kQueries; ++i) Answer(warm, hash_line);
    auto t3 = Clock::now();
    fresh_ms = std::chrono::duration<double, std::milli>(t1 - t0).count() /
               kQueries;
    cached_ms = std::chrono::duration<double, std::milli>(t3 - t2).count() /
                kQueries;
  }
  const double ratio = cached_ms > 0 ? fresh_ms / cached_ms : 1e9;
  state.counters["dead_units"] = dead;
  state.counters["fresh_ms_per_query"] = fresh_ms;
  state.counters["cached_ms_per_query"] = cached_ms;
  state.counters["amortization_ratio"] = ratio;
  // The claim under measurement. Sized conservatively: with 64 dead
  // units the observed ratio is far above 5, so tripping this means the
  // cache stopped amortizing, not that the machine was slow.
  RAV_CHECK(ratio >= 5.0);
}

// The query the per-spec SControl cache serves: `empty` by hash on the
// k=3, n=8 shift ring, through ParseRequest + Handle against a cached
// spec. The NBA is built by the warm-up query, not inside the loop.
void BM_CachedRingQuery(benchmark::State& state) {
  const std::string spec = ToTextFormat(
      bench::MakeShiftRingSearchEra(3, 8, /*contradictory=*/false));
  service::Service service{service::ServiceOptions{}};
  const std::string line =
      RequestWithHash(Answer(service, RequestWithText(spec)).spec_hash);
  for (auto _ : state) {
    service::QueryResponse response = Answer(service, line);
    benchmark::DoNotOptimize(response);
  }
  state.counters["registers"] = 3;
  state.counters["ring_states"] = 8;
}

// Parse only: ParseExtendedAutomaton over the spec of 2u+2 states, which
// compiles each of its u+1 constraint regexes to a DFA over all states.
void BM_ParseDeadStructure(benchmark::State& state) {
  const int dead = static_cast<int>(state.range(0));
  const std::string spec = SpecWithDeadStructure(dead);
  int states = 0;
  int constraints = 0;
  for (auto _ : state) {
    Result<ExtendedAutomaton> era = ParseExtendedAutomaton(spec);
    RAV_CHECK(era.ok());
    states = era->automaton().num_states();
    constraints = static_cast<int>(era->constraints().size());
    benchmark::DoNotOptimize(era);
  }
  state.counters["dead_units"] = dead;
  state.counters["states"] = states;
  state.counters["constraints"] = constraints;
}

BENCHMARK(BM_ParseDeadStructure)->RangeMultiplier(2)->Range(8, 128)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FreshCompilePerQuery)->Arg(0)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CachedSpecQuery)->Arg(0)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AmortizationRatio)->Arg(64)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CachedRingQuery)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rav
