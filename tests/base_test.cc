#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/bitset.h"
#include "base/interner.h"
#include "base/numbers.h"
#include "base/status.h"
#include "base/union_find.h"
#include "base/value.h"

namespace rav {
namespace {

// --- Status / Result ---

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad regex");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad regex");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad regex");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> Doubled(Result<int> in) {
  RAV_ASSIGN_OR_RETURN(int v, in);
  return 2 * v;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_FALSE(Doubled(Status::Internal("x")).ok());
}

// --- UnionFind ---

TEST(UnionFindTest, SingletonsInitially) {
  UnionFind uf(5);
  EXPECT_EQ(uf.NumClasses(), 5u);
  EXPECT_FALSE(uf.Same(0, 1));
}

TEST(UnionFindTest, UnionMerges) {
  UnionFind uf(6);
  uf.Union(0, 1);
  uf.Union(1, 2);
  EXPECT_TRUE(uf.Same(0, 2));
  EXPECT_FALSE(uf.Same(0, 3));
  EXPECT_EQ(uf.NumClasses(), 4u);
}

TEST(UnionFindTest, AddGrows) {
  UnionFind uf(2);
  int id = uf.Add();
  EXPECT_EQ(id, 2);
  uf.Union(0, id);
  EXPECT_TRUE(uf.Same(0, 2));
}

TEST(UnionFindTest, RepresentativesAreCanonical) {
  UnionFind uf(4);
  uf.Union(2, 3);
  std::vector<int> reps = uf.Representatives();
  EXPECT_EQ(reps.size(), 3u);
}

// --- Bitset ---

TEST(BitsetTest, SetTestClear) {
  Bitset b(130);
  EXPECT_TRUE(b.None());
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(64));
  EXPECT_EQ(b.Count(), 3u);
  b.Clear(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 2u);
}

TEST(BitsetTest, SetAlgebra) {
  Bitset a(70), b(70);
  a.Set(3);
  a.Set(68);
  b.Set(68);
  EXPECT_TRUE(a.Intersects(b));
  Bitset c = a;
  c &= b;
  EXPECT_EQ(c.Count(), 1u);
  c |= a;
  EXPECT_EQ(c.Count(), 2u);
  EXPECT_TRUE(c == a);
}

TEST(BitsetTest, ForEachAscending) {
  Bitset b(100);
  b.Set(5);
  b.Set(77);
  std::vector<size_t> seen;
  b.ForEach([&](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<size_t>{5, 77}));
}

TEST(BitsetTest, HashDiffersOnContent) {
  Bitset a(64), b(64);
  b.Set(1);
  Bitset::Hasher h;
  EXPECT_NE(h(a), h(b));
}

// --- Interner ---

TEST(InternerTest, InternsAndLooksUp) {
  Interner<std::string> interner;
  int a = interner.Intern("alpha");
  int b = interner.Intern("beta");
  EXPECT_EQ(interner.Intern("alpha"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.Lookup("gamma"), -1);
  EXPECT_EQ(interner.Get(b), "beta");
  EXPECT_EQ(interner.size(), 2u);
}

// --- FreshValueSource ---

TEST(FreshValueSourceTest, AvoidsObservedValues) {
  FreshValueSource fresh;
  fresh.Observe(0);
  fresh.Observe(1);
  fresh.Observe(5);
  DataValue v = fresh.Fresh();
  EXPECT_NE(v, 0);
  EXPECT_NE(v, 1);
  EXPECT_NE(v, 5);
  DataValue w = fresh.Fresh();
  EXPECT_NE(v, w);
}

// --- Unit-suffix grammars (base/numbers.h) ---
//
// Edge-case regressions for the documented CLI help: --timeout requires
// a unit suffix (ms/s/m), --memory-limit takes an optional one (k/m/g),
// both case-insensitive, and every rejection names the valid suffixes.

// Expects `result` to be an InvalidArgument whose message contains every
// needle — in particular the "valid suffixes" enumeration, so a user who
// typo'd a unit is told what the units are.
void ExpectRejects(const Result<long long>& result,
                   const std::vector<std::string>& needles) {
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  for (const std::string& needle : needles) {
    EXPECT_NE(result.status().message().find(needle), std::string::npos)
        << "message: " << result.status().message()
        << "\nmissing: " << needle;
  }
}

TEST(DurationGrammarTest, AcceptsEveryDocumentedSuffix) {
  EXPECT_EQ(*ParseDurationMs("250ms"), 250);
  EXPECT_EQ(*ParseDurationMs("10s"), 10000);
  EXPECT_EQ(*ParseDurationMs("2m"), 120000);
  EXPECT_EQ(*ParseDurationMs("0ms"), 0);
  EXPECT_EQ(*ParseDurationMs("+5s"), 5000);
}

TEST(DurationGrammarTest, SuffixesAreCaseInsensitive) {
  // The byte-size grammar always took 64K; durations rejected 10S. The
  // two grammars now agree: unit suffixes are case-insensitive in both.
  EXPECT_EQ(*ParseDurationMs("250MS"), 250);
  EXPECT_EQ(*ParseDurationMs("250Ms"), 250);
  EXPECT_EQ(*ParseDurationMs("250mS"), 250);
  EXPECT_EQ(*ParseDurationMs("10S"), 10000);
  EXPECT_EQ(*ParseDurationMs("2M"), 120000);
}

TEST(DurationGrammarTest, BareNumberIsRejectedNamingTheSuffixes) {
  // --timeout documents a required unit; the error must say which ones.
  ExpectRejects(ParseDurationMs("10"),
                {"missing unit suffix", "ms, s, m"});
  ExpectRejects(ParseDurationMs("0"), {"missing unit suffix"});
}

TEST(DurationGrammarTest, SuffixOnlyStringsAreRejectedAsMissingNumber) {
  // "ms" used to fall through the suffix chain as <"m">+"s" and produce
  // a generic integer error; it is a missing magnitude, not a bad one.
  ExpectRejects(ParseDurationMs("ms"), {"missing a number", "'ms'"});
  ExpectRejects(ParseDurationMs("s"), {"missing a number", "'s'"});
  ExpectRejects(ParseDurationMs("m"), {"missing a number", "'m'"});
  ExpectRejects(ParseDurationMs("MS"), {"missing a number"});
}

TEST(DurationGrammarTest, UnknownSuffixesAreRejectedByName) {
  ExpectRejects(ParseDurationMs("10h"), {"unknown unit suffix 'h'"});
  ExpectRejects(ParseDurationMs("10sec"), {"unknown unit suffix 'sec'"});
  ExpectRejects(ParseDurationMs("10us"), {"unknown unit suffix 'us'"});
  ExpectRejects(ParseDurationMs(""), {"missing unit suffix"});
}

TEST(DurationGrammarTest, BadMagnitudesAreRejected) {
  ExpectRejects(ParseDurationMs("-5s"), {"non-negative"});
  ExpectRejects(ParseDurationMs("1 0ms"), {"not a decimal integer"});
  ExpectRejects(ParseDurationMs("0x10ms"), {"not a decimal integer"});
  EXPECT_FALSE(ParseDurationMs("999999999999999999m").ok());  // overflow
}

TEST(ByteSizeGrammarTest, AcceptsDocumentedForms) {
  EXPECT_EQ(*ParseByteSize("1048576"), 1048576);
  EXPECT_EQ(*ParseByteSize("0"), 0);
  EXPECT_EQ(*ParseByteSize("64k"), 64 * 1024);
  EXPECT_EQ(*ParseByteSize("512m"), 512LL * 1024 * 1024);
  EXPECT_EQ(*ParseByteSize("2g"), 2LL * 1024 * 1024 * 1024);
  EXPECT_EQ(*ParseByteSize("64K"), 64 * 1024);
  EXPECT_EQ(*ParseByteSize("512M"), 512LL * 1024 * 1024);
  EXPECT_EQ(*ParseByteSize("2G"), 2LL * 1024 * 1024 * 1024);
}

TEST(ByteSizeGrammarTest, SuffixOnlyStringsAreRejectedAsMissingNumber) {
  ExpectRejects(ParseByteSize("k"), {"missing a number", "'k'"});
  ExpectRejects(ParseByteSize("g"), {"missing a number"});
  ExpectRejects(ParseByteSize(""), {"expected a number"});
}

TEST(ByteSizeGrammarTest, UnknownSuffixesAreRejectedByName) {
  // "64kb" is an unknown *suffix* "kb", not the integer junk "64k"+"b":
  // the whole trailing alphabetic run is the unit.
  ExpectRejects(ParseByteSize("64kb"), {"unknown unit suffix 'kb'"});
  ExpectRejects(ParseByteSize("10t"), {"unknown unit suffix 't'", "k, m, g"});
  ExpectRejects(ParseByteSize("x"), {"unknown unit suffix 'x'"});
}

TEST(ByteSizeGrammarTest, BadMagnitudesAreRejected) {
  ExpectRejects(ParseByteSize("-1"), {"non-negative"});
  ExpectRejects(ParseByteSize("-1k"), {"non-negative"});
  ExpectRejects(ParseByteSize("1 0"), {"not a decimal integer"});
  EXPECT_FALSE(ParseByteSize("999999999999999999g").ok());  // overflow
}

}  // namespace
}  // namespace rav
