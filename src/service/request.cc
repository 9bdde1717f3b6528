#include "service/request.h"

#include <cmath>
#include <string>

#include "base/failpoints.h"
#include "base/numbers.h"
#include "base/report.h"

namespace rav::service {

const char* OpName(Op op) {
  switch (op) {
    case Op::kEmpty:
      return "empty";
    case Op::kVerify:
      return "verify";
    case Op::kLrBound:
      return "lrbound";
    case Op::kLint:
      return "lint";
    case Op::kInfo:
      return "info";
    case Op::kCancel:
      return "cancel";
    case Op::kStats:
      return "stats";
  }
  return "?";
}

namespace {

Result<Op> ParseOp(const std::string& name) {
  if (name == "empty") return Op::kEmpty;
  if (name == "verify") return Op::kVerify;
  if (name == "lrbound") return Op::kLrBound;
  if (name == "lint") return Op::kLint;
  if (name == "info") return Op::kInfo;
  if (name == "cancel") return Op::kCancel;
  if (name == "stats") return Op::kStats;
  return Status::InvalidArgument(
      "op: unknown op '" + name +
      "' — valid ops: empty, verify, lrbound, lint, info, cancel, stats");
}

Result<std::string> RequiredString(const Json& object, const char* key) {
  const Json* value = object.Find(key);
  if (value == nullptr) {
    return Status::InvalidArgument(std::string(key) + ": missing");
  }
  if (!value->is_string()) {
    return Status::InvalidArgument(std::string(key) + ": must be a string");
  }
  return value->string_value();
}

Result<std::string> OptionalString(const Json& object, const char* key) {
  const Json* value = object.Find(key);
  if (value == nullptr) return std::string();
  if (!value->is_string()) {
    return Status::InvalidArgument(std::string(key) + ": must be a string");
  }
  return value->string_value();
}

}  // namespace

Result<QueryRequest> ParseRequest(const std::string& line) {
  if (RAV_FAILPOINT("service/parse_request")) {
    return Status::InvalidArgument(
        "failpoint service/parse_request fired — request rejected");
  }

  Result<Json> parsed = Json::Parse(line);
  if (!parsed.ok()) {
    return Status::InvalidArgument("request is not valid JSON: " +
                                   parsed.status().message());
  }
  if (!parsed->is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  const Json& object = *parsed;

  QueryRequest request;
  RAV_ASSIGN_OR_RETURN(request.id, RequiredString(object, "id"));
  if (request.id.empty()) {
    return Status::InvalidArgument("id: must be non-empty");
  }
  RAV_ASSIGN_OR_RETURN(std::string op_name, RequiredString(object, "op"));
  RAV_ASSIGN_OR_RETURN(request.op, ParseOp(op_name));

  RAV_ASSIGN_OR_RETURN(request.spec_text, OptionalString(object, "spec"));
  RAV_ASSIGN_OR_RETURN(request.spec_hash, OptionalString(object, "spec_hash"));

  const bool needs_spec = request.op != Op::kCancel && request.op != Op::kStats;
  if (needs_spec) {
    if (request.spec_text.empty() && request.spec_hash.empty()) {
      return Status::InvalidArgument(
          std::string("op '") + OpName(request.op) +
          "' needs a spec: provide \"spec\" (full text) or \"spec_hash\" "
          "(content hash of a spec this service already compiled)");
    }
    if (!request.spec_text.empty() && !request.spec_hash.empty()) {
      return Status::InvalidArgument(
          "provide \"spec\" or \"spec_hash\", not both");
    }
  }

  if (request.op == Op::kVerify) {
    RAV_ASSIGN_OR_RETURN(request.ltl, RequiredString(object, "ltl"));
    const Json* propositions = object.Find("propositions");
    if (propositions == nullptr || !propositions->is_array() ||
        propositions->size() == 0) {
      return Status::InvalidArgument(
          "propositions: op 'verify' needs a non-empty array of "
          "proposition strings (e.g. [\"x1=y1\"])");
    }
    for (size_t i = 0; i < propositions->size(); ++i) {
      if (!propositions->at(i).is_string()) {
        return Status::InvalidArgument("propositions: entries must be strings");
      }
      request.propositions.push_back(propositions->at(i).string_value());
    }
  }

  if (request.op == Op::kCancel) {
    RAV_ASSIGN_OR_RETURN(request.target, RequiredString(object, "target"));
    if (request.target.empty()) {
      return Status::InvalidArgument("target: must be non-empty");
    }
  }

  RAV_ASSIGN_OR_RETURN(std::string timeout, OptionalString(object, "timeout"));
  if (!timeout.empty()) {
    Result<long long> ms = ParseDurationMs(timeout);
    if (!ms.ok()) {
      return Status::InvalidArgument("timeout: " + ms.status().message());
    }
    request.timeout_ms = *ms;
  }
  RAV_ASSIGN_OR_RETURN(std::string memory,
                       OptionalString(object, "memory_limit"));
  if (!memory.empty()) {
    Result<long long> bytes = ParseByteSize(memory);
    if (!bytes.ok()) {
      return Status::InvalidArgument("memory_limit: " +
                                     bytes.status().message());
    }
    request.memory_bytes = *bytes;
  }

  if (const Json* threads = object.Find("threads"); threads != nullptr) {
    // Range-check the double before converting it: casting a value
    // outside int's range (1e10, or the +inf that 1e999 parses to) is
    // undefined behaviour. The negated test also rejects NaN.
    const double value = threads->is_number() ? threads->number_value() : -1;
    if (!(value >= 0 && value <= kMaxRequestThreads) ||
        value != std::floor(value)) {
      std::string message = "threads: must be an integer in [0, ";
      message += std::to_string(kMaxRequestThreads);
      message += "]";
      return Status::InvalidArgument(message);
    }
    request.threads = static_cast<int>(value);
  }

  return request;
}

}  // namespace rav::service
