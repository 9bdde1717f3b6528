// Deterministic fuzz smoke for the io/text_format parser and the
// decision service's wire parsers — the ctest-wired half of the fuzz
// frontier (the libFuzzer target tests/fuzz_text_format.cc enforces the
// text-format invariants under coverage guidance; it needs Clang, so CI
// on GCC relies on this runner).
//
// Strategy: start from seed inputs, then drive a fixed-seed PRNG through
// several mutation families — byte flips, truncations, splices of two
// seeds, token-level insertions of grammar keywords, and pure garbage —
// for at least 10k inputs per parser (override with
// RAV_FUZZ_SMOKE_INPUTS).
//
// Spec texts (seeds: the committed specs in tests/data/) must satisfy:
//
//   1. ParseExtendedAutomaton never crashes, hangs, or throws;
//   2. accepted inputs round-trip stably: print → parse → print is a
//      fixed point (so the text format is a faithful serialization);
//   3. every constraint of an accepted input, re-parsed from its text,
//      compiles (Regex::ToDfa, over symbol classes) to exactly the DFA
//      of the oracle ToNfa(n).Determinize().Minimize().
//
// Request lines (seeds: valid lines of every op; extra family: nesting
// bombs far past Json::kMaxParseDepth) must satisfy:
//
//   1. Json::Parse and service::ParseRequest never crash or hang;
//   2. an accepted JSON document re-dumps to a fixed point;
//   3. a line ParseRequest accepts is a JSON object;
//   4. a rejected line's parse_error response is one line of valid JSON
//      that echoes the line's string "id", when it has one.
//
// Request streams (mutated request lines joined with '\n', with empty and
// over-long lines mixed in and the final newline sometimes dropped), read
// by testing::ReadBoundedLine (the framing oracle of the serving
// transport's tests) at a random max_bytes in [1, 512], must match a
// split of the stream on '\n':
//
//   1. every kOk line equals its piece and is at most max_bytes long;
//   2. every longer piece reads as exactly one kTooLarge, and the next
//      read resumes at the following line;
//   3. the stream ends with kEof.
//
// See docs/robustness.md for the frontier's scope and how to run the
// coverage-guided variant.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "base/report.h"
#include "io/text_format.h"
#include "service/request.h"
#include "service/service.h"
#include "test_util.h"

namespace rav {
namespace {

std::vector<std::string> LoadSeeds() {
  std::vector<std::string> seeds;
  const std::filesystem::path dir =
      std::filesystem::path(RAV_SOURCE_DIR) / "tests" / "data";
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".rav") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());  // deterministic order
  for (const auto& path : paths) {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    seeds.push_back(buffer.str());
  }
  // A couple of synthetic seeds widen the grammar coverage beyond the
  // committed specs (schema relations, multi-literal guards).
  seeds.push_back(
      "automaton {\n"
      "  registers 2\n"
      "  schema { relation E/2 relation U/1 constant c }\n"
      "  state q1 initial final\n"
      "  state q2\n"
      "  transition q1 -> q2 { x1 = x2  x2 = y2  E(x2, x1)  !U(y1) }\n"
      "  transition q2 -> q2 { x2 = y2  x1 != c }\n"
      "  constraint eq 1 1 \"q1 q2* q1\"\n"
      "  constraint neq 1 2 \"q1 q1\"\n"
      "}\n");
  seeds.push_back("automaton { registers 1 state q initial final }\n");
  // Constraint regexes across the whole regex syntax ('.', _eps, '?', '+',
  // nested '|'), one naming every state and one naming none, so the
  // symbol classes of Regex::ToDfa see their edge cases.
  seeds.push_back(
      "automaton {\n"
      "  registers 2\n"
      "  state p initial final\n"
      "  state q\n"
      "  state r\n"
      "  transition p -> q { x1 = y1 }\n"
      "  transition q -> q { }\n"
      "  transition q -> r { x2 = y2 }\n"
      "  transition r -> p { }\n"
      "  constraint eq 1 1 \"p (q | (r | _eps))+ p?\"\n"
      "  constraint neq 1 2 \". .* r\"\n"
      "  constraint eq 2 2 \"(p | q | r) r? (p | (q | r))+\"\n"
      "  constraint neq 2 1 \". . .?\"\n"
      "}\n");
  return seeds;
}

// Grammar tokens spliced into inputs so mutations stay near the
// interesting part of the input space instead of being rejected by the
// tokenizer immediately.
const std::vector<std::string> kTokens = {
    "automaton", "registers",  "schema",   "relation", "constant",
    "state",     "initial",    "final",    "transition", "->",
    "constraint", "eq",        "neq",      "{",        "}",
    "(",         ")",          "\"",       "=",        "!=",
    "x1",        "y1",         "x999",     "y0",       "E/2",
    "-1",        "999999999999999999999", "\n",       "#",
};

// What a FuzzDriver mutates: seed inputs, and the tokens its insertion
// family splices into them.
struct Corpus {
  std::vector<std::string> seeds;
  std::vector<std::string> tokens;
};

class FuzzDriver {
 public:
  FuzzDriver(Corpus corpus, unsigned rng_seed)
      : seeds_(std::move(corpus.seeds)),
        tokens_(std::move(corpus.tokens)),
        rng_(rng_seed) {}

  std::string Next() {
    switch (rng_() % 6) {
      case 0:
        return FlipBytes(Pick());
      case 1:
        return Truncate(Pick());
      case 2:
        return Splice(Pick(), Pick());
      case 3:
        return InsertTokens(Pick());
      case 4:
        return Garbage();
      default:
        return Pick();  // unmutated seeds keep the accepted path hot
    }
  }

 private:
  const std::string& Pick() { return seeds_[rng_() % seeds_.size()]; }

  std::string FlipBytes(std::string s) {
    if (s.empty()) return s;
    const int flips = 1 + static_cast<int>(rng_() % 8);
    for (int i = 0; i < flips; ++i) {
      s[rng_() % s.size()] = static_cast<char>(rng_() % 256);
    }
    return s;
  }

  std::string Truncate(const std::string& s) {
    if (s.empty()) return s;
    return s.substr(0, rng_() % s.size());
  }

  std::string Splice(const std::string& a, const std::string& b) {
    if (a.empty() || b.empty()) return a + b;
    return a.substr(0, rng_() % a.size()) + b.substr(rng_() % b.size());
  }

  std::string InsertTokens(std::string s) {
    const int inserts = 1 + static_cast<int>(rng_() % 4);
    for (int i = 0; i < inserts; ++i) {
      const std::string& token = tokens_[rng_() % tokens_.size()];
      const size_t at = s.empty() ? 0 : rng_() % s.size();
      s.insert(at, " " + token + " ");
    }
    return s;
  }

  std::string Garbage() {
    std::string s(rng_() % 256, '\0');
    for (char& c : s) c = static_cast<char>(rng_() % 256);
    return s;
  }

  std::vector<std::string> seeds_;
  std::vector<std::string> tokens_;
  std::mt19937 rng_;
};

int NumInputs() {
  int num_inputs = 12000;
  if (const char* env = std::getenv("RAV_FUZZ_SMOKE_INPUTS")) {
    num_inputs = std::max(1, std::atoi(env));
  }
  return num_inputs;
}

// Valid request lines of every op, each field shape represented once.
std::vector<std::string> LoadRequestSeeds() {
  const Json spec =
      Json::String("automaton { registers 1 state q initial final }\n");
  auto line = [](std::vector<std::pair<std::string, Json>> fields) {
    Json object = Json::Object();
    for (auto& [key, value] : fields) object.Set(key, std::move(value));
    return object.Dump();
  };
  Json propositions = Json::Array();
  propositions.Append(Json::String("x1 = y1"));
  return {
      line({{"id", Json::String("e1")},
            {"op", Json::String("empty")},
            {"spec", spec},
            {"timeout", Json::String("250ms")},
            {"memory_limit", Json::String("64k")},
            {"threads", Json::Number(2)}}),
      line({{"id", Json::String("v1")},
            {"op", Json::String("verify")},
            {"spec", spec},
            {"ltl", Json::String("G p0")},
            {"propositions", propositions}}),
      line({{"id", Json::String("l1")},
            {"op", Json::String("lrbound")},
            {"spec", spec}}),
      line({{"id", Json::String("n1")},
            {"op", Json::String("lint")},
            {"spec", spec}}),
      line({{"id", Json::String("i1")},
            {"op", Json::String("info")},
            {"spec_hash", Json::String("0123456789abcdef")}}),
      line({{"id", Json::String("c1")},
            {"op", Json::String("cancel")},
            {"target", Json::String("e1")}}),
      line({{"id", Json::String("s1")}, {"op", Json::String("stats")}}),
  };
}

// JSON structure and escapes: insertions that keep mutations inside the
// tokenizer's interesting paths.
const std::vector<std::string> kJsonTokens = {
    "{",   "}",      "[",     "]",    ":",      ",",    "\"",   "\\",
    "\\u00", "\\ud800", "null", "true", "false", "-",    "1e999", "0.5",
    "\"id\":", "\"op\":", "\"spec\":", "\"threads\":", "\"timeout\":",
};

// Request lines: the byte-level families over the request seeds, plus
// nesting bombs — a run of '[' or '{"a":' of up to 2^17 levels, then the
// rest of a seed — the shape that overflowed the recursive parser's stack
// before the depth cap.
class RequestLineDriver {
 public:
  RequestLineDriver()
      : seeds_(LoadRequestSeeds()),
        base_(Corpus{seeds_, kJsonTokens}, 43),
        rng_(44) {}

  std::string Next() {
    if (rng_() % 8 != 0) return base_.Next();
    const size_t depth = size_t{1} << (rng_() % 18);
    const std::string open = rng_() % 2 == 0 ? "[" : "{\"a\":";
    std::string bomb;
    bomb.reserve(depth * open.size());
    for (size_t i = 0; i < depth; ++i) bomb += open;
    return bomb + seeds_[rng_() % seeds_.size()];
  }

 private:
  std::vector<std::string> seeds_;
  FuzzDriver base_;
  std::mt19937 rng_;
};

TEST(FuzzSmoke, ParseNeverCrashesAndRoundTripsStably) {
  const int num_inputs = NumInputs();
  FuzzDriver driver(Corpus{LoadSeeds(), kTokens}, 42);
  int accepted = 0;
  for (int i = 0; i < num_inputs; ++i) {
    const std::string input = driver.Next();
    Result<ExtendedAutomaton> era = ParseExtendedAutomaton(input);
    if (!era.ok()) continue;  // invariant 1 is "no crash", already held
    ++accepted;
    const std::string printed = ToTextFormat(*era);
    Result<ExtendedAutomaton> again = ParseExtendedAutomaton(printed);
    ASSERT_TRUE(again.ok())
        << "accepted input failed to reparse after printing\n--- input\n"
        << input << "\n--- printed\n"
        << printed << "\n--- status\n"
        << again.status().ToString();
    ASSERT_EQ(ToTextFormat(*again), printed)
        << "print → parse → print is not a fixed point for\n"
        << input;
    ASSERT_TRUE(testing::ConstraintDfasMatchOracle(*era)) << input;
  }
  // The seed pass-through arm guarantees a healthy accepted fraction; if
  // this drops to ~0 the mutator (or the parser) broke and the round-trip
  // invariant is no longer being exercised.
  EXPECT_GT(accepted, num_inputs / 20)
      << "almost no generated inputs parsed — fuzz corpus degenerated";
}

TEST(FuzzSmoke, RequestLinesNeverCrashTheWireParsers) {
  const int num_inputs = NumInputs();
  RequestLineDriver driver;
  int json_accepted = 0;
  int requests_accepted = 0;
  for (int i = 0; i < num_inputs; ++i) {
    const std::string line = driver.Next();
    Result<Json> parsed = Json::Parse(line);
    if (parsed.ok()) {
      ++json_accepted;
      const std::string dumped = parsed->Dump();
      Result<Json> again = Json::Parse(dumped);
      ASSERT_TRUE(again.ok()) << "accepted document failed to reparse\n"
                              << line;
      ASSERT_EQ(again->Dump(), dumped)
          << "dump → parse → dump is not a fixed point for\n" << line;
    }
    Result<service::QueryRequest> request = service::ParseRequest(line);
    if (request.ok()) {
      ++requests_accepted;
      ASSERT_TRUE(parsed.ok() && parsed->is_object())
          << "ParseRequest accepted a non-object line\n" << line;
      continue;
    }
    const std::string response =
        service::MakeParseError(line, request.status()).ToJsonLine();
    ASSERT_EQ(response.find('\n'), std::string::npos) << line;
    Result<Json> answer = Json::Parse(response);
    ASSERT_TRUE(answer.ok()) << "parse_error response is not JSON\n"
                             << response;
    EXPECT_EQ(answer->Find("error_kind")->string_value(), "parse_error");
    const Json* id = parsed.ok() && parsed->is_object()
                         ? parsed->Find("id")
                         : nullptr;
    const std::string want = id != nullptr && id->is_string()
                                 ? id->string_value()
                                 : std::string();
    EXPECT_EQ(answer->Find("id")->string_value(), want) << line;
  }
  // Unmutated seeds pass through the byte-level driver, so both parsers'
  // accepting paths stay exercised.
  EXPECT_GT(requests_accepted, num_inputs / 40);
  EXPECT_GT(json_accepted, requests_accepted);
}

// One stream for ReadBoundedLine: one to eight lines, each a mutated
// request line (which may itself hold newlines), an empty line, or a line
// of random non-newline bytes longer than `max_bytes`.
std::string BoundedLineStream(FuzzDriver& driver, std::mt19937& rng,
                              size_t max_bytes) {
  std::string stream;
  const int lines = 1 + static_cast<int>(rng() % 8);
  for (int i = 0; i < lines; ++i) {
    switch (rng() % 6) {
      case 0:
        break;  // an empty line
      case 1:
        for (size_t n = max_bytes + 1 + rng() % 256; n > 0; --n) {
          const char c = static_cast<char>(rng() % 256);
          stream += c == '\n' ? ' ' : c;
        }
        break;
      default:
        stream += driver.Next();
    }
    stream += '\n';
  }
  if (rng() % 3 == 0) stream.pop_back();  // drop the final newline
  return stream;
}

// The reference reader: the stream's lines, split on '\n'. A final
// newline ends the last line rather than starting an empty one.
std::vector<std::string> SplitLines(const std::string& stream) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < stream.size()) {
    const size_t end = stream.find('\n', start);
    if (end == std::string::npos) {
      lines.push_back(stream.substr(start));
      break;
    }
    lines.push_back(stream.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

TEST(FuzzSmoke, BoundedLineReaderMatchesASplitOnNewlines) {
  const int num_streams = NumInputs();
  FuzzDriver driver(Corpus{LoadRequestSeeds(), kJsonTokens}, 45);
  std::mt19937 rng(46);
  size_t ok_lines = 0;
  size_t too_large_lines = 0;
  for (int i = 0; i < num_streams; ++i) {
    const size_t max_bytes = 1 + rng() % 512;
    const std::string stream = BoundedLineStream(driver, rng, max_bytes);
    std::istringstream in(stream);
    std::string line;
    for (const std::string& piece : SplitLines(stream)) {
      const testing::ReadLineStatus status =
          testing::ReadBoundedLine(in, &line, max_bytes);
      if (piece.size() <= max_bytes) {
        ++ok_lines;
        ASSERT_EQ(status, testing::ReadLineStatus::kOk)
            << "max_bytes " << max_bytes << ", stream\n" << stream;
        ASSERT_EQ(line, piece) << "max_bytes " << max_bytes;
      } else {
        ++too_large_lines;
        ASSERT_EQ(status, testing::ReadLineStatus::kTooLarge)
            << "max_bytes " << max_bytes << ", stream\n" << stream;
        ASSERT_TRUE(line.empty()) << "the discarded prefix leaked back";
      }
    }
    ASSERT_EQ(testing::ReadBoundedLine(in, &line, max_bytes),
              testing::ReadLineStatus::kEof)
        << "max_bytes " << max_bytes << ", stream\n" << stream;
  }
  // Both outcomes stay exercised.
  EXPECT_GT(ok_lines, static_cast<size_t>(num_streams));
  EXPECT_GT(too_large_lines, static_cast<size_t>(num_streams) / 10);
}

// The parser's own fault-injection site must not leak into ordinary runs:
// with no RAV_FAILPOINTS armed, a seed spec parses fine.
TEST(FuzzSmoke, SeedsParseClean) {
  for (const std::string& seed : LoadSeeds()) {
    EXPECT_TRUE(ParseExtendedAutomaton(seed).ok());
  }
}

}  // namespace
}  // namespace rav
