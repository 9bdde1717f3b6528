#ifndef RAV_BASE_NUMBERS_H_
#define RAV_BASE_NUMBERS_H_

#include <string>

#include "base/status.h"

namespace rav {

// Strict decimal integer parsing for user-supplied input (CLI arguments,
// text formats). Unlike std::stoi/std::atoi, these never throw and never
// silently return 0: the whole string must be a decimal integer (an
// optional sign, then digits), and the value must fit the target type —
// anything else is an InvalidArgument carrying the offending text.
Result<long long> ParseInt64(const std::string& text);
Result<int> ParseInt32(const std::string& text);

// A non-negative wall-clock duration with a required unit suffix, as the
// CLI's --timeout takes it: "250ms", "10s", "2m" (suffixes ms/s/m,
// case-insensitive). Returns milliseconds. Rejects negatives, bare
// numbers with no unit, suffix-only strings ("ms"), unknown suffixes,
// and values that overflow when scaled — always with an error naming
// the valid suffixes.
Result<long long> ParseDurationMs(const std::string& text);

// A non-negative byte count with an optional binary-unit suffix, as the
// CLI's --memory-limit takes it: "1048576", "64k", "512m", "2g"
// (multipliers 1024, 1024², 1024³; case-insensitive). Rejects negatives,
// suffix-only strings ("k"), unknown suffixes ("64kb"), and values that
// overflow when scaled — always with an error naming the valid suffixes.
Result<long long> ParseByteSize(const std::string& text);

// `prefix` followed by the decimal digits of `n`: NumberedName("x", 3) is
// "x3". Generated names use it rather than "x" + std::to_string(3), on
// which GCC 12 at -O3 reports a false -Werror=restrict.
std::string NumberedName(const char* prefix, long long n);

}  // namespace rav

#endif  // RAV_BASE_NUMBERS_H_
