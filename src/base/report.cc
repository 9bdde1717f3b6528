#include "base/report.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "base/metrics.h"
#include "base/trace.h"

namespace rav {

// ---------------------------------------------------------------------------
// Json: construction

Json Json::Bool(bool b) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = b;
  return j;
}

Json Json::Number(double value) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.number_ = value;
  return j;
}

Json Json::Number(int64_t value) { return Number(static_cast<double>(value)); }

Json Json::Number(uint64_t value) { return Number(static_cast<double>(value)); }

Json Json::String(std::string_view s) {
  Json j;
  j.kind_ = Kind::kString;
  j.string_ = std::string(s);
  return j;
}

Json Json::Array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

void Json::Append(Json value) { array_.push_back(std::move(value)); }

void Json::Set(std::string_view key, Json value) {
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::string(key), std::move(value));
}

const Json* Json::Find(std::string_view key) const {
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Json: serialization

namespace {

void EscapeInto(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void NumberInto(std::string& out, double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    out += buf;
    return;
  }
  if (!std::isfinite(v)) {  // JSON has no inf/nan; emit null
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void Newline(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::DumpTo(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      NumberInto(out, number_);
      return;
    case Kind::kString:
      EscapeInto(out, string_);
      return;
    case Kind::kArray: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        Newline(out, indent, depth + 1);
        array_[i].DumpTo(out, indent, depth + 1);
      }
      Newline(out, indent, depth);
      out += ']';
      return;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        Newline(out, indent, depth + 1);
        EscapeInto(out, object_[i].first);
        out += indent > 0 ? ": " : ":";
        object_[i].second.DumpTo(out, indent, depth + 1);
      }
      Newline(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Json: parsing

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> Parse() {
    RAV_ASSIGN_OR_RETURN(Json value, ParseValue());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after the document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<Json> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == Json::kMaxParseDepth) {
        return Error("nesting deeper than " +
                     std::to_string(Json::kMaxParseDepth) + " levels");
      }
      ++depth_;
      Result<Json> nested = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return nested;
    }
    if (c == '"') {
      RAV_ASSIGN_OR_RETURN(std::string s, ParseString());
      return Json::String(s);
    }
    if (ConsumeWord("true")) return Json::Bool(true);
    if (ConsumeWord("false")) return Json::Bool(false);
    if (ConsumeWord("null")) return Json::Null();
    return ParseNumber();
  }

  Result<Json> ParseObject() {
    ++pos_;  // '{'
    Json obj = Json::Object();
    if (Consume('}')) return obj;
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected an object key");
      }
      RAV_ASSIGN_OR_RETURN(std::string key, ParseString());
      if (!Consume(':')) return Error("expected ':' after key");
      RAV_ASSIGN_OR_RETURN(Json value, ParseValue());
      obj.Set(key, std::move(value));
      if (Consume(',')) continue;
      if (Consume('}')) return obj;
      return Error("expected ',' or '}' in object");
    }
  }

  Result<Json> ParseArray() {
    ++pos_;  // '['
    Json arr = Json::Array();
    if (Consume(']')) return arr;
    for (;;) {
      RAV_ASSIGN_OR_RETURN(Json value, ParseValue());
      arr.Append(std::move(value));
      if (Consume(',')) continue;
      if (Consume(']')) return arr;
      return Error("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // opening quote
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape");
            }
          }
          // The writer only escapes control characters; decode the BMP
          // code point as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  Result<Json> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Error("bad number");
    return Json::Number(value);
  }

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;  // open arrays/objects around the current value
};

}  // namespace

Result<Json> Json::Parse(std::string_view text) {
  return Parser(text).Parse();
}

// ---------------------------------------------------------------------------
// Report schema

const char* const kReportRequiredKeys[7] = {
    "experiment", "claim", "params", "metrics", "spans", "verdict", "wall_ms",
};

Json ReportToJson(const RunReport& report) {
  Json out = Json::Object();
  out.Set("schema_version", Json::Number(int64_t{1}));
  out.Set("experiment", Json::String(report.experiment));
  out.Set("claim", Json::String(report.claim));
  out.Set("params", report.params);
  out.Set("metrics", report.metrics);
  out.Set("spans", report.spans);
  out.Set("verdict", Json::String(report.verdict));
  out.Set("wall_ms", Json::Number(report.wall_ms));
  return out;
}

Status ValidateReportJson(const Json& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("report is not a JSON object");
  }
  std::string problems;
  auto complain = [&](const std::string& what) {
    if (!problems.empty()) problems += "; ";
    problems += what;
  };
  for (const char* key : kReportRequiredKeys) {
    const Json* value = json.Find(key);
    if (value == nullptr) {
      complain(std::string("missing key '") + key + "'");
      continue;
    }
    std::string_view k(key);
    if ((k == "experiment" || k == "claim" || k == "verdict") &&
        !value->is_string()) {
      complain(std::string("key '") + key + "' must be a string");
    } else if ((k == "params" || k == "metrics") && !value->is_object()) {
      complain(std::string("key '") + key + "' must be an object");
    } else if (k == "spans" && !value->is_array()) {
      complain("key 'spans' must be an array");
    } else if (k == "wall_ms" && !value->is_number()) {
      complain("key 'wall_ms' must be a number");
    }
  }
  if (!problems.empty()) return Status::InvalidArgument(problems);
  return Status::OK();
}

Status WriteReportFile(const std::string& path, const RunReport& report) {
  Json json = ReportToJson(report);
  Status valid = ValidateReportJson(json);
  if (!valid.ok()) return valid;  // a malformed report must never be written
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot write report to " + path);
  out << json.Dump(2) << "\n";
  // Flush before checking: a report smaller than the stream buffer would
  // otherwise be written only by the destructor, whose failure (full
  // disk, /dev/full) is silent — the caller would report success with
  // the file missing or truncated.
  out.flush();
  if (!out.good()) return Status::Internal("short write to " + path);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Bridges from base/metrics and base/trace

Json CaptureProcessMetrics() {
  Json out = Json::Object();
  for (const metrics::MetricSnapshot& m : metrics::Snapshot()) {
    switch (m.kind) {
      case metrics::MetricKind::kCounter:
        out.Set(m.name, Json::Number(m.value));
        break;
      case metrics::MetricKind::kGauge:
        out.Set(m.name, Json::Number(static_cast<int64_t>(m.value)));
        break;
      case metrics::MetricKind::kHistogram: {
        Json h = Json::Object();
        h.Set("count", Json::Number(m.histogram.count));
        h.Set("sum", Json::Number(m.histogram.sum));
        h.Set("min", Json::Number(m.histogram.min));
        h.Set("max", Json::Number(m.histogram.max));
        Json buckets = Json::Array();
        // Trailing empty buckets are elided; bucket b covers
        // [2^(b-1), 2^b) with bucket 0 = {0}.
        int last = metrics::kHistogramBuckets - 1;
        while (last >= 0 && m.histogram.buckets[last] == 0) --last;
        for (int b = 0; b <= last; ++b) {
          buckets.Append(Json::Number(m.histogram.buckets[b]));
        }
        h.Set("buckets", std::move(buckets));
        out.Set(m.name, std::move(h));
        break;
      }
    }
  }
  return out;
}

Json CaptureSpans() {
  Json out = Json::Array();
  for (const trace::SpanSnapshot& s : trace::Snapshot()) {
    Json span = Json::Object();
    span.Set("path", Json::String(s.path));
    span.Set("count", Json::Number(s.count));
    span.Set("total_ms", Json::Number(static_cast<double>(s.total_ns) / 1e6));
    span.Set("min_ms", Json::Number(static_cast<double>(s.min_ns) / 1e6));
    span.Set("max_ms", Json::Number(static_cast<double>(s.max_ns) / 1e6));
    out.Append(std::move(span));
  }
  return out;
}

}  // namespace rav
