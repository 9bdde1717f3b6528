#ifndef RAV_BASE_REPORT_H_
#define RAV_BASE_REPORT_H_

// Machine-readable run reports: a minimal JSON document model (writer and
// parser — no third-party dependency), the stable report schema every
// bench binary and rav_cli emit under `--report <file>`, and its
// validator (shared with tools/report_merge).
//
// Report schema (docs/observability.md):
//
//   {
//     "schema_version": 1,
//     "experiment": "E6",                     // experiment / command id
//     "claim": "...",                         // the claim being measured
//     "params": { ... },                      // invocation parameters
//     "metrics": {
//       "process": { "era/search/...": N, ... },  // metrics::Snapshot()
//       "benchmarks": [ ... ]                 // bench rows, when present
//     },
//     "spans": [ {"path": ..., "count": ..., "total_ms": ...,
//                 "min_ms": ..., "max_ms": ...}, ... ],
//     "verdict": "ok",                        // outcome string
//     "wall_ms": 123.4                        // end-to-end wall time
//   }

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/status.h"

namespace rav {

// A tiny JSON DOM. Objects preserve insertion order, so documents render
// deterministically (the golden-schema test depends on it).
class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}
  static Json Null() { return Json(); }
  static Json Bool(bool b);
  static Json Number(double value);
  static Json Number(int64_t value);
  static Json Number(uint64_t value);
  static Json Number(int value) { return Number(static_cast<int64_t>(value)); }
  static Json String(std::string_view s);
  static Json Array();
  static Json Object();

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }

  // Arrays.
  void Append(Json value);
  size_t size() const { return array_.size(); }
  const Json& at(size_t i) const { return array_[i]; }
  const std::vector<Json>& items() const { return array_; }

  // Objects. Set replaces an existing key in place (keeping its position).
  void Set(std::string_view key, Json value);
  const Json* Find(std::string_view key) const;  // nullptr if absent
  const std::vector<std::pair<std::string, Json>>& members() const {
    return object_;
  }

  // Serializes the document. indent = 0 renders compactly; indent > 0
  // pretty-prints with that many spaces per level. Numbers with integral
  // values print without a decimal point.
  std::string Dump(int indent = 0) const;

  // Strict parser for the subset this writer produces (standard JSON
  // without comments; duplicate keys keep the last value). Arrays and
  // objects nested deeper than kMaxParseDepth are a parse error: the
  // parser recurses once per level, and its input can come off a socket.
  static Result<Json> Parse(std::string_view text);
  static constexpr int kMaxParseDepth = 256;

 private:
  void DumpTo(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

// One run's report; rendered with ReportToJson below.
struct RunReport {
  std::string experiment;
  std::string claim;
  Json params = Json::Object();
  Json metrics = Json::Object();
  Json spans = Json::Array();
  std::string verdict;
  double wall_ms = 0;
};

// The required top-level keys, in canonical order.
extern const char* const kReportRequiredKeys[7];

// Renders the report with the stable schema above (schema_version first,
// then the required keys in canonical order).
Json ReportToJson(const RunReport& report);

// Checks that `json` is an object carrying every required key with the
// right type. The error message lists everything that is wrong.
Status ValidateReportJson(const Json& json);

// Writes `report` as pretty-printed JSON to `path`.
Status WriteReportFile(const std::string& path, const RunReport& report);

// Bridges from the observability layer: the current process-wide metrics
// as an object (name -> value, histograms as sub-objects), and the
// aggregated trace spans as the report's "spans" array. Both compile to
// empty documents under RAV_NO_METRICS.
Json CaptureProcessMetrics();
Json CaptureSpans();

}  // namespace rav

#endif  // RAV_BASE_REPORT_H_
