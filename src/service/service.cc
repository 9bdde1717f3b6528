#include "service/service.h"

#include <chrono>
#include <utility>
#include <vector>

#include "analysis/diagnostic.h"
#include "base/metrics.h"
#include "era/emptiness.h"
#include "era/ltlfo.h"
#include "io/proposition.h"
#include "projection/lr_bounded.h"

namespace rav::service {

namespace {

constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitPropertyFalse = 3;
constexpr int kExitResourceExhausted = 4;
constexpr int kExitCancelled = 5;

// Same mapping as rav_cli's ExitForStop: a governor stop gets its
// dedicated code, the legacy enumeration bounds keep exit 0.
int ExitForStop(SearchStopReason reason) {
  switch (reason) {
    case SearchStopReason::kDeadline:
    case SearchStopReason::kMemoryBudget:
      return kExitResourceExhausted;
    case SearchStopReason::kCancelled:
      return kExitCancelled;
    default:
      return kExitOk;
  }
}

// Exit equivalent of a failed Status under `governor`: a
// ResourceExhausted raised by a tripped governor distinguishes
// cancellation from budget exhaustion via the trip kind.
int ExitForStatus(const Status& status, const ExecutionGovernor& governor) {
  if (status.code() == StatusCode::kResourceExhausted) {
    return governor.trip() == GovernorTrip::kCancelled
               ? kExitCancelled
               : kExitResourceExhausted;
  }
  return kExitError;
}

}  // namespace

Json QueryResponse::ToJson() const {
  Json out = Json::Object();
  out.Set("id", Json::String(id));
  out.Set("op", Json::String(op));
  out.Set("ok", Json::Bool(ok));
  if (!ok) out.Set("error", Json::String(error));
  if (!error_kind.empty()) out.Set("error_kind", Json::String(error_kind));
  if (!resource.empty()) out.Set("resource", Json::String(resource));
  if (retry_after_ms >= 0) {
    out.Set("retry_after_ms",
            Json::Number(static_cast<int64_t>(retry_after_ms)));
  }
  out.Set("verdict", Json::String(verdict));
  out.Set("exit_equivalent", Json::Number(exit_equivalent));
  if (!spec_hash.empty()) {
    out.Set("spec_hash", Json::String(spec_hash));
    out.Set("cache_hit", Json::Bool(cache_hit));
  }
  out.Set("details", details);
  out.Set("report", report);
  out.Set("wall_ms", Json::Number(wall_ms));
  return out;
}

std::string QueryResponse::ToJsonLine() const { return ToJson().Dump(0); }

QueryResponse MakeRejection(Rejection rejection) {
  QueryResponse response;
  response.id = std::move(rejection.id);
  response.op = std::move(rejection.op);
  response.ok = false;
  response.error = std::move(rejection.message);
  response.error_kind = std::move(rejection.error_kind);
  response.resource = std::move(rejection.resource);
  response.verdict = "error";
  response.exit_equivalent = rejection.exit_equivalent;
  response.retry_after_ms = rejection.retry_after_ms;
  return response;
}

QueryResponse MakeParseError(const std::string& line, const Status& status) {
  std::string id;
  if (Result<Json> parsed = Json::Parse(line);
      parsed.ok() && parsed->is_object()) {
    if (const Json* found = parsed->Find("id");
        found != nullptr && found->is_string()) {
      id = found->string_value();
    }
  }
  return MakeRejection({.id = std::move(id),
                        .error_kind = "parse_error",
                        .message = status.ToString(),
                        .exit_equivalent = 1});
}

// Registers the request's governor for the lifetime of its execution so
// `cancel` ops and the shutdown path can reach it.
class Service::InFlightGuard {
 public:
  InFlightGuard(Service* service, const std::string& id,
                std::shared_ptr<ExecutionGovernor> governor)
      : service_(service), id_(id) {
    std::lock_guard<std::mutex> lock(service_->mu_);
    registered_ = service_->in_flight_.emplace(id, std::move(governor)).second;
  }
  ~InFlightGuard() {
    if (!registered_) return;
    std::lock_guard<std::mutex> lock(service_->mu_);
    service_->in_flight_.erase(id_);
  }
  // False when another request with the same id is still running.
  bool registered() const { return registered_; }

 private:
  Service* service_;
  std::string id_;
  bool registered_ = false;
};

Service::Service(ServiceOptions options)
    : options_(options), cache_(options.cache_capacity) {}

bool Service::Cancel(const std::string& request_id) {
  std::shared_ptr<ExecutionGovernor> governor;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = in_flight_.find(request_id);
    if (it == in_flight_.end()) return false;
    governor = it->second;
  }
  governor->RequestCancel();
  return true;
}

size_t Service::CancelAll() {
  std::vector<std::shared_ptr<ExecutionGovernor>> governors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    governors.reserve(in_flight_.size());
    for (auto& [id, governor] : in_flight_) governors.push_back(governor);
  }
  for (auto& governor : governors) governor->RequestCancel();
  return governors.size();
}

Json Service::StatsJson() const {
  Json out = Json::Object();
  std::lock_guard<std::mutex> lock(mu_);
  out.Set("requests", Json::Number(requests_));
  out.Set("failures", Json::Number(failures_));
  out.Set("governor_trips", Json::Number(governor_trips_));
  out.Set("in_flight", Json::Number(static_cast<uint64_t>(in_flight_.size())));
  out.Set("cached_specs", Json::Number(static_cast<uint64_t>(cache_.size())));
  out.Set("cache_hits", Json::Number(cache_.hits()));
  out.Set("cache_misses", Json::Number(cache_.misses()));
  out.Set("scontrol_builds", Json::Number(scontrol_builds_.load()));
  return out;
}

QueryResponse Service::Handle(const QueryRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  QueryResponse response = Execute(request);
  response.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();

  // Uniform governor-trip surface (docs/serving.md): every response that
  // maps to exit 4/5 names the kind, the tripped resource, and the same
  // retry_after_ms hint overload shedding uses. The resource is derived
  // from the stop reason (truncated searches) or the governor's own trip
  // name inside the error text (construction-shaped failures) — both are
  // strings this repo emits, so the match is exact, not heuristic.
  if (response.exit_equivalent == kExitResourceExhausted ||
      response.exit_equivalent == kExitCancelled) {
    if (response.error_kind.empty()) response.error_kind = "governor_trip";
    if (response.resource.empty()) {
      const Json* stop = response.details.Find("stop_reason");
      const std::string& source = (stop != nullptr && stop->is_string())
                                      ? stop->string_value()
                                      : response.error;
      if (source.find("deadline") != std::string::npos) {
        response.resource = "deadline";
      } else if (source.find("memory") != std::string::npos) {
        response.resource = "memory";
      } else {
        response.resource = "cancel";
      }
    }
    if (response.retry_after_ms < 0) {
      response.retry_after_ms = options_.retry_after_ms_hint;
    }
  }

  // The per-request run report: the same 7-key schema rav_cli --report
  // writes, embedded in the response so batches are observable without
  // a shared file. Spans stay empty — the trace store aggregates
  // process-wide, which would misattribute concurrent requests' work.
  RunReport report;
  report.experiment = std::string("serve/") + response.op;
  report.claim = "decision service request (docs/serving.md)";
  report.params.Set("id", Json::String(response.id));
  report.params.Set("op", Json::String(response.op));
  if (!response.spec_hash.empty()) {
    report.params.Set("spec_hash", Json::String(response.spec_hash));
    report.params.Set("cache_hit", Json::Bool(response.cache_hit));
  }
  report.params.Set("timeout_ms",
                    Json::Number(static_cast<int64_t>(request.timeout_ms)));
  report.params.Set("memory_bytes",
                    Json::Number(static_cast<int64_t>(request.memory_bytes)));
  report.params.Set("threads", Json::Number(request.threads));
  report.params.Set("exit_equivalent", Json::Number(response.exit_equivalent));
  if (!response.error_kind.empty()) {
    report.params.Set("error_kind", Json::String(response.error_kind));
    report.params.Set("resource", Json::String(response.resource));
  }
  if (response.retry_after_ms >= 0) {
    report.params.Set(
        "retry_after_ms",
        Json::Number(static_cast<int64_t>(response.retry_after_ms)));
  }
  report.verdict = response.ok
                       ? (response.verdict.empty() ? "ok" : response.verdict)
                       : ("error: " + response.error);
  report.wall_ms = response.wall_ms;
  response.report = ReportToJson(report);

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++requests_;
    if (!response.ok) ++failures_;
    if (response.exit_equivalent == kExitResourceExhausted ||
        response.exit_equivalent == kExitCancelled) {
      ++governor_trips_;
    }
  }
  RAV_METRIC_COUNT("service/requests", 1);
  return response;
}

QueryResponse Service::Execute(const QueryRequest& request) {
  QueryResponse response;
  response.id = request.id;
  response.op = OpName(request.op);

  auto fail = [&](const Status& status, int exit_equivalent) {
    response.ok = false;
    response.error = status.ToString();
    response.verdict = "error";
    response.exit_equivalent = exit_equivalent;
    // Plain request failures class as bad_request; governor-tripped
    // failures (exit 4/5) are stamped uniformly by Handle.
    if (exit_equivalent == kExitError && response.error_kind.empty()) {
      response.error_kind = "bad_request";
    }
    return response;
  };

  // Control ops need no spec and no governor.
  if (request.op == Op::kStats) {
    response.ok = true;
    response.verdict = "ok";
    response.details = StatsJson();
    return response;
  }
  if (request.op == Op::kCancel) {
    const bool cancelled = Cancel(request.target);
    response.ok = true;
    response.verdict = cancelled ? "cancel requested" : "not in flight";
    response.details.Set("target", Json::String(request.target));
    response.details.Set("cancelled", Json::Bool(cancelled));
    return response;
  }

  // Resolve the compiled spec: by text (compiling on a cache miss) or by
  // the hash of an earlier compile.
  std::shared_ptr<const CompiledSpec> spec;
  if (!request.spec_text.empty()) {
    Result<std::shared_ptr<const CompiledSpec>> compiled =
        cache_.GetOrCompile(request.spec_text, &response.cache_hit);
    if (!compiled.ok()) return fail(compiled.status(), kExitError);
    spec = *compiled;
  } else {
    spec = cache_.FindByHash(request.spec_hash);
    if (spec == nullptr) {
      return fail(Status::NotFound(
                      "spec_hash '" + request.spec_hash +
                      "' is not in this service's cache — send the spec "
                      "text once and reuse the hash it reports"),
                  kExitError);
    }
    response.cache_hit = true;
  }
  response.spec_hash = spec->hash();

  // The request's own governor: trips here are invisible to every other
  // request.
  auto governor = std::make_shared<ExecutionGovernor>();
  if (request.timeout_ms >= 0) {
    governor->set_deadline_after(std::chrono::milliseconds(request.timeout_ms));
  }
  if (request.memory_bytes >= 0) {
    governor->set_memory_budget(static_cast<size_t>(request.memory_bytes));
  }
  InFlightGuard guard(this, request.id, governor);
  if (!guard.registered()) {
    response.error_kind = "duplicate_id";
    return fail(Status::InvalidArgument(
                    "id '" + request.id +
                    "' is already in flight — request ids must be unique "
                    "among concurrently running requests"),
                kExitError);
  }

  switch (request.op) {
    case Op::kEmpty: {
      EraEmptinessOptions options;
      options.num_workers = request.threads;
      options.analyze_and_strip = false;  // compiled away in CompiledSpec
      options.governor = governor.get();
      bool built = false;
      const Nba& scontrol = spec->emptiness_scontrol(&built);
      scontrol_builds_ += built ? 1 : 0;
      auto result = CheckEraEmptiness(spec->emptiness_subject(),
                                      spec->emptiness_alphabet(), scontrol,
                                      options);
      if (!result.ok()) {
        return fail(result.status(), ExitForStatus(result.status(), *governor));
      }
      response.ok = true;
      if (result->nonempty) {
        response.verdict = "NONEMPTY";
        response.exit_equivalent = kExitPropertyFalse;
        response.details.Set("witness",
                             Json::String(result->control_word.ToString()));
      } else if (result->search_truncated) {
        response.verdict = "EMPTY (search truncated, not definitive)";
        response.exit_equivalent = ExitForStop(result->stats.stop_reason);
      } else {
        response.verdict = "EMPTY";
      }
      response.details.Set(
          "stop_reason",
          Json::String(SearchStopReasonName(result->stats.stop_reason)));
      response.details.Set("search", Json::String(result->stats.ToString()));
      return response;
    }

    case Op::kVerify: {
      Result<LtlFoProperty> property =
          ParseLtlFoProperty(request.ltl, request.propositions,
                             spec->analysis_subject().automaton());
      if (!property.ok()) return fail(property.status(), kExitError);
      VerificationOptions options;
      options.analyze_and_strip = false;
      options.emptiness.num_workers = request.threads;
      options.emptiness.governor = governor.get();
      auto result =
          VerifyLtlFo(spec->analysis_subject(), *property, options);
      if (!result.ok()) {
        return fail(result.status(), ExitForStatus(result.status(), *governor));
      }
      response.ok = true;
      if (result->holds) {
        if (result->search_truncated) {
          response.verdict = "HOLDS (search truncated, not definitive)";
          response.exit_equivalent =
              ExitForStop(result->search_stats.stop_reason);
        } else {
          response.verdict = "HOLDS";
        }
      } else {
        response.verdict = "FAILS";
        response.exit_equivalent = kExitPropertyFalse;
        response.details.Set(
            "counterexample",
            Json::String(result->counterexample->ToString()));
      }
      response.details.Set(
          "stop_reason",
          Json::String(SearchStopReasonName(result->search_stats.stop_reason)));
      return response;
    }

    case Op::kLrBound: {
      LrBoundOptions options;
      options.num_workers = request.threads;
      options.analyze_and_strip = false;
      options.governor = governor.get();
      bool built = false;
      const Nba& scontrol = spec->analysis_scontrol(&built);
      scontrol_builds_ += built ? 1 : 0;
      auto result = EstimateLrBound(spec->analysis_subject(),
                                    spec->analysis_alphabet(), scontrol,
                                    options);
      if (!result.ok()) {
        return fail(result.status(), ExitForStatus(result.status(), *governor));
      }
      response.ok = true;
      response.verdict = result->growth_detected
                             ? "growth detected (not LR-bounded)"
                             : "no growth detected";
      response.exit_equivalent = result->growth_detected
                                     ? kExitPropertyFalse
                                     : ExitForStop(result->stats.stop_reason);
      response.details.Set("max_cover", Json::Number(result->max_cover));
      response.details.Set("growth_detected",
                           Json::Bool(result->growth_detected));
      response.details.Set(
          "lassos_examined",
          Json::Number(static_cast<uint64_t>(result->lassos_examined)));
      response.details.Set(
          "stop_reason",
          Json::String(SearchStopReasonName(result->stats.stop_reason)));
      return response;
    }

    case Op::kLint: {
      // Answered from the compile-time analysis — no automaton work.
      response.ok = true;
      response.details.Set(
          "diagnostics",
          analysis::DiagnosticsToJson(spec->diagnostics(), "<spec>"));
      switch (spec->worst_severity()) {
        case analysis::Severity::kError:
          response.verdict = "lint errors";
          response.exit_equivalent = 2;
          break;
        case analysis::Severity::kWarning:
          response.verdict = "lint warnings";
          response.exit_equivalent = 1;
          break;
        case analysis::Severity::kNote:
          response.verdict = spec->diagnostics().empty() ? "clean"
                                                         : "lint notes";
          break;
      }
      return response;
    }

    case Op::kInfo: {
      const RegisterAutomaton& a = spec->era().automaton();
      // The compiled guard tables live for this response's lifetime as far
      // as the request is concerned — charge them like any other artifact.
      ScopedMemoryCharge table_charge(governor.get(),
                                      spec->guard_table_bytes());
      if (Status charged = governor->CheckStatus("info"); !charged.ok()) {
        return fail(charged, ExitForStatus(charged, *governor));
      }
      response.ok = true;
      response.verdict = "ok";
      response.details.Set("registers", Json::Number(a.num_registers()));
      response.details.Set("states", Json::Number(a.num_states()));
      response.details.Set("transitions", Json::Number(a.num_transitions()));
      response.details.Set(
          "constraints",
          Json::Number(static_cast<uint64_t>(spec->era().constraints().size())));
      response.details.Set("complete", Json::Bool(a.IsComplete()));
      response.details.Set("distinct_guards",
                           Json::Number(spec->distinct_guards()));
      response.details.Set(
          "guard_table_bytes",
          Json::Number(static_cast<uint64_t>(spec->guard_table_bytes())));
      response.details.Set("compile_ms", Json::Number(spec->compile_ms()));
      response.details.Set("states_stripped",
                           Json::Number(spec->states_stripped()));
      response.details.Set("transitions_stripped",
                           Json::Number(spec->transitions_stripped()));
      response.details.Set("constraints_stripped",
                           Json::Number(spec->constraints_stripped()));
      return response;
    }

    case Op::kCancel:
    case Op::kStats:
      break;  // handled above
  }
  return fail(Status::Internal("unhandled op"), kExitError);
}

}  // namespace rav::service
