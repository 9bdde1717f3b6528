// rav_cli — command-line front end for the rav library.
//
// Usage:
//   rav_cli info <file>                 print a summary of the automaton
//   rav_cli print <file>                round-trip through the text format
//   rav_cli dot <file>                  Graphviz rendering to stdout
//   rav_cli empty <file> [--threads N]
//                                       emptiness over finite databases;
//                                       N > 1 checks candidate lassos on a
//                                       worker pool (default N = 1, serial:
//                                       kDefaultSearchWorkers; same
//                                       verdict/witness; 0 = all hardware
//                                       threads; at most
//                                       kMaxRequestThreads = 64;
//                                       docs/search.md)
//   rav_cli project <file> <m>          projection onto registers 1..m
//   rav_cli lrbound <file>              LR-boundedness estimation
//   rav_cli simulate <file> <steps>     sample and print a run
//   rav_cli verify <file> <ltl> <fo>... verify an LTL-FO property; <ltl>
//                                       uses propositions p0, p1, ... and
//                                       each <fo> is "xi=yj", "xi!=xj",
//                                       etc. interpreting proposition pN.
//   rav_cli batch <file|-> [--threads N] [--cache N] [--max-line B]
//                                       answer a stream of JSON-lines
//                                       decision-service requests (the
//                                       rav_serve wire format; see
//                                       docs/serving.md) as they are read,
//                                       in one process, on N threads (0 =
//                                       all hardware threads; at most
//                                       kMaxRequestThreads = 64). Exit 0
//                                       if every request was answered ok, 1
//                                       otherwise.
//   rav_cli lint <file>... [--json|--sarif] [--werror]
//                                       static analysis (docs/linting.md):
//                                       prints RAV0xx diagnostics; exit
//                                       code 2 on errors, 1 on warnings,
//                                       0 when clean. --werror promotes
//                                       warnings to errors; --json emits
//                                       one machine-readable object per
//                                       file; --sarif emits one SARIF
//                                       2.1.0 log over all files.
//
// Automaton files use the text format of io/text_format.h.
//
// Every command also accepts (anywhere on the line):
//   --report <file>        write a JSON run report (schema of
//                          base/report.h — mergeable with the bench
//                          binaries' reports via tools/report_merge; see
//                          docs/observability.md)
//   --timeout <duration>   wall-clock deadline, e.g. 250ms, 10s, 2m
//   --memory-limit <bytes> accounted-memory budget, e.g. 1048576, 64k,
//                          512m, 2g
// The limits (and Ctrl-C) stop the decision procedures cooperatively at
// their safe points; partial results computed before the trip are still
// printed. See docs/robustness.md.
//
// Exit codes (docs/robustness.md):
//   0  success: property holds / language empty / lint clean (including
//      verdicts truncated by the legacy enumeration bounds)
//   1  runtime error (unloadable file, infeasible command) — and, for
//      `lint`, warnings
//   2  usage / bad arguments — and, for `lint`, errors
//   3  property false: NONEMPTY witness, FAILS counterexample, or
//      LR-bound growth detected
//   4  stopped by the governor: --timeout or --memory-limit tripped
//   5  cancelled (Ctrl-C / SIGINT)

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>

#include "analysis/lint.h"
#include "base/governor.h"
#include "base/numbers.h"
#include "base/report.h"
#include "era/emptiness.h"
#include "era/ltlfo.h"
#include "io/proposition.h"
#include "io/text_format.h"
#include "projection/lr_bounded.h"
#include "projection/project_era.h"
#include "ra/simulate.h"
#include "ra/transform.h"
#include "service/request.h"
#include "service/service.h"
#include "service/transport.h"

namespace rav {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitPropertyFalse = 3;
constexpr int kExitResourceExhausted = 4;
constexpr int kExitCancelled = 5;

// The process-wide governor: every command runs under it. Unlimited
// unless --timeout / --memory-limit arm it; SIGINT always cancels it.
ExecutionGovernor g_governor;

extern "C" void HandleSigint(int) {
  // First Ctrl-C: cooperative cancel (async-signal-safe — one relaxed
  // atomic store). Second Ctrl-C: default disposition, i.e. kill.
  g_governor.RequestCancel();
  std::signal(SIGINT, SIG_DFL);
}

// Commands overwrite this with their domain verdict ("NONEMPTY",
// "HOLDS", ...) for the `--report` JSON; it defaults from the exit code.
std::string g_verdict;

int Fail(const std::string& message, int exit_code = kExitError) {
  std::fprintf(stderr, "rav_cli: %s\n", message.c_str());
  return exit_code;
}

// A bad invocation: an unknown command, flag or argument, or a missing,
// malformed or out-of-range one. Exits with the documented usage code.
int UsageError(const std::string& message) {
  return Fail(message, kExitUsage);
}

// Failure exit for a Status: governor trips (surfaced as
// ResourceExhausted by the library) get their dedicated exit codes so
// scripts can tell "out of budget" from "broken input".
int FailStatus(const Status& status) {
  std::fprintf(stderr, "rav_cli: %s\n", status.ToString().c_str());
  if (status.code() == StatusCode::kResourceExhausted) {
    return g_governor.trip() == GovernorTrip::kCancelled
               ? kExitCancelled
               : kExitResourceExhausted;
  }
  return kExitError;
}

// Exit code of a run whose search stopped on a governor trip; kExitOk
// for every non-governor stop (witness handling happens first, and the
// legacy enumeration bounds keep their exit-0 truncated verdicts).
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

// Checked numeric argument: `what` names the argument in the error. Never
// throws and never silently yields 0 (unlike std::stoi / std::atoi).
Result<int> ParseIntArg(const std::string& what, const std::string& text) {
  Result<int> value = ParseInt32(text);
  if (!value.ok()) {
    return Status::InvalidArgument(what + ": " + value.status().message() +
                                   " — expected a decimal integer");
  }
  return value;
}

Result<ExtendedAutomaton> Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseExtendedAutomaton(buffer.str());
}

// `rav_cli lint`: every file is parsed and linted; a file that fails to
// load contributes the pseudo-diagnostic RAV000 (error). Exit code is the
// maximum severity seen (2 = error, 1 = warning, 0 = clean/notes);
// --werror promotes every warning to an error before both rendering and
// the exit code.
enum class LintOutput { kText, kJson, kSarif };

int CmdLint(const std::vector<std::string>& files, LintOutput output,
            bool werror) {
  using analysis::Diagnostic;
  using analysis::Severity;
  Severity worst = Severity::kNote;
  int errors = 0;
  int warnings = 0;
  int notes = 0;
  bool any = false;
  Json json_files = Json::Array();
  std::vector<std::pair<std::string, std::vector<Diagnostic>>> sarif_files;
  for (const std::string& path : files) {
    std::vector<Diagnostic> diagnostics;
    auto era = Load(path);
    if (!era.ok()) {
      diagnostics.push_back(Diagnostic{"RAV000", Severity::kError,
                                       era.status().ToString(),
                                       SourceLocation{}});
    } else {
      diagnostics = analysis::Lint(*era, &g_governor);
    }
    for (Diagnostic& d : diagnostics) {
      if (werror && d.severity == Severity::kWarning) {
        d.severity = Severity::kError;
      }
      if (d.severity > worst) worst = d.severity;
      switch (d.severity) {
        case Severity::kError:
          ++errors;
          break;
        case Severity::kWarning:
          ++warnings;
          break;
        case Severity::kNote:
          ++notes;
          break;
      }
      any = true;
      if (output == LintOutput::kText) {
        std::printf("%s\n", FormatDiagnostic(d, path).c_str());
      }
    }
    if (output == LintOutput::kJson) {
      json_files.Append(analysis::DiagnosticsToJson(diagnostics, path));
    } else if (output == LintOutput::kSarif) {
      sarif_files.emplace_back(path, std::move(diagnostics));
    }
  }
  if (output == LintOutput::kJson) {
    std::printf("%s\n", json_files.Dump(2).c_str());
  } else if (output == LintOutput::kSarif) {
    std::printf("%s\n", analysis::DiagnosticsToSarif(sarif_files).Dump(2).c_str());
  } else if (any) {
    std::printf("lint: %zu file(s), %d error(s), %d warning(s), %d note(s)\n",
                files.size(), errors, warnings, notes);
  }
  const GovernorTrip trip = g_governor.trip();
  if (trip != GovernorTrip::kNone) {
    std::fprintf(stderr,
                 "rav_cli: lint stopped by governor (%s) — diagnostics "
                 "above are partial\n",
                 GovernorTripName(trip));
    g_verdict = std::string("lint stopped (") + GovernorTripName(trip) + ")";
    return trip == GovernorTrip::kCancelled ? kExitCancelled
                                            : kExitResourceExhausted;
  }
  g_verdict = !any                         ? "clean"
              : worst == Severity::kError  ? "lint errors"
              : worst == Severity::kWarning ? "lint warnings"
                                            : "lint notes";
  if (worst == Severity::kError) return 2;
  if (worst == Severity::kWarning) return 1;
  return 0;
}

int CmdInfo(const ExtendedAutomaton& era) {
  const RegisterAutomaton& a = era.automaton();
  // Build the control alphabet the decision procedures would run with, so
  // the compiled-guard stats are the ones a query pays for (and the table
  // bytes are governor-charged like every other artifact).
  ControlAlphabet alphabet(a);
  ScopedMemoryCharge table_charge(&g_governor, alphabet.guard_table_bytes());
  std::printf("registers:       %d\n", a.num_registers());
  std::printf("schema:          %s\n", a.schema().ToString().c_str());
  std::printf("states:          %d\n", a.num_states());
  std::printf("transitions:     %d\n", a.num_transitions());
  std::printf("constraints:     %zu\n", era.constraints().size());
  std::printf("complete:        %s\n", a.IsComplete() ? "yes" : "no");
  std::printf("state-driven:    %s\n", a.IsStateDriven() ? "yes" : "no");
  std::printf("distinct guards: %d\n", alphabet.num_distinct_guards());
  std::printf("guard tables:    %zu bytes\n", alphabet.guard_table_bytes());
  return 0;
}

int CmdEmpty(const ExtendedAutomaton& era,
             const EraEmptinessOptions& options) {
  RegisterAutomaton completed = era.automaton();
  if (!completed.IsComplete()) {
    auto result = Completed(completed);
    if (!result.ok()) return Fail(result.status().ToString());
    completed = std::move(result).value();
  }
  ExtendedAutomaton subject(std::move(completed));
  for (const GlobalConstraint& c : era.constraints()) {
    Status s = subject.AddConstraintDfa(RegisterPair{c.i, c.j}, c.is_equality,
                                        c.dfa, c.description);
    if (!s.ok()) return Fail(s.ToString());
  }
  ControlAlphabet alphabet(subject.automaton());
  auto result = CheckEraEmptiness(subject, alphabet, options);
  if (!result.ok()) return FailStatus(result.status());
  int exit_code = kExitOk;
  if (result->nonempty) {
    g_verdict = "NONEMPTY";
    std::printf("NONEMPTY — witness control lasso: %s\n",
                result->control_word.ToString().c_str());
    exit_code = kExitPropertyFalse;
  } else if (result->search_truncated) {
    g_verdict = "EMPTY (search truncated, not definitive)";
    std::printf("EMPTY within search bound (stopped: %s) — not definitive\n",
                SearchStopReasonName(result->stats.stop_reason));
    exit_code = ExitForStop(result->stats.stop_reason);
  } else {
    g_verdict = "EMPTY";
    std::printf("EMPTY (search space exhausted)\n");
  }
  std::printf("search: %s\n", result->stats.ToString().c_str());
  return exit_code;
}

int CmdProject(const ExtendedAutomaton& era, int m) {
  auto projected = ProjectExtendedAutomaton(era, m);
  if (!projected.ok()) return FailStatus(projected.status());
  std::printf("%s", ToTextFormat(*projected).c_str());
  return 0;
}

int CmdLrBound(const ExtendedAutomaton& era) {
  ControlAlphabet alphabet(era.automaton());
  LrBoundOptions options;
  options.governor = &g_governor;
  auto bound = EstimateLrBound(era, alphabet, options);
  if (!bound.ok()) return FailStatus(bound.status());
  g_verdict = bound->growth_detected ? "growth detected (not LR-bounded)"
                                     : "no growth detected";
  std::printf("max vertex cover (sampled): %d\n", bound->max_cover);
  std::printf("growth detected:            %s\n",
              bound->growth_detected ? "yes (evidence of NOT LR-bounded)"
                                     : "no");
  std::printf("lassos examined:            %zu\n", bound->lassos_examined);
  std::printf("sampling stopped:           %s%s\n",
              SearchStopReasonName(bound->stats.stop_reason),
              bound->search_truncated ? " (verdict covers sampled lassos only)"
                                      : "");
  if (bound->growth_detected) return kExitPropertyFalse;
  return ExitForStop(bound->stats.stop_reason);
}

int CmdSimulate(const ExtendedAutomaton& era, int steps) {
  Database db{era.automaton().schema()};
  std::random_device rd;
  std::mt19937 rng(rd());
  auto run = SampleRun(era.automaton(), db, static_cast<size_t>(steps), rng);
  if (!run.has_value()) {
    return Fail("sampler found no run of that length (over the empty "
                "database)");
  }
  std::printf("%s\n", run->ToString(era.automaton()).c_str());
  return 0;
}

int CmdVerify(const ExtendedAutomaton& era, const std::string& ltl_text,
              const std::vector<std::string>& proposition_texts) {
  // The proposition and LTL syntax is shared with the decision service's
  // `verify` op (io/proposition.h, docs/serving.md).
  auto parsed = ParseLtlFoProperty(ltl_text, proposition_texts,
                                   era.automaton());
  if (!parsed.ok()) return Fail(parsed.status().ToString());
  LtlFoProperty property = std::move(parsed).value();

  VerificationOptions options;
  options.emptiness.governor = &g_governor;
  auto result = VerifyLtlFo(era, property, options);
  if (!result.ok()) return FailStatus(result.status());
  if (result->holds) {
    if (result->search_truncated) {
      g_verdict = "HOLDS (search truncated, not definitive)";
      std::printf(
          "HOLDS within search bound (stopped: %s) — not definitive\n",
          SearchStopReasonName(result->search_stats.stop_reason));
      return ExitForStop(result->search_stats.stop_reason);
    }
    g_verdict = "HOLDS";
    std::printf("HOLDS\n");
    return kExitOk;
  }
  g_verdict = "FAILS";
  std::printf("FAILS — counterexample control lasso: %s\n",
              result->counterexample->ToString().c_str());
  return kExitPropertyFalse;
}

// `rav_cli batch <file|-> [--threads N] [--cache N] [--max-line B]`:
// answers JSON-lines decision-service requests (schema of
// service/request.h — the wire format tools/rav_serve speaks) from a
// file or stdin as one stream of the transport rav_serve serves stdin
// with: requests are answered as they are read, on N worker threads
// (`cancel` and `stats` inline), one response line per request in
// completion order. Exit 0 when every request was answered ok, 1 when
// any failed or stdout closed, 5 on Ctrl-C/SIGTERM. Each request still
// runs under its OWN governor; the process-wide --timeout/--memory-limit
// flags are not inherited by batch requests (set per-request
// "timeout"/"memory_limit" fields instead).
int CmdBatch(const std::string& path, int threads, size_t cache_capacity,
             size_t max_line_bytes) {
  int in_fd = STDIN_FILENO;
  if (path != "-") {
    in_fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (in_fd < 0) return Fail("batch: cannot open '" + path + "'");
  }
  service::ServiceOptions options;
  options.cache_capacity = cache_capacity;
  service::Service service(options);
  service::TransportOptions transport;
  transport.threads = std::max(threads, 1);
  transport.max_line_bytes = max_line_bytes;
  service::ShutdownArbiter::InstallSignalHandlers();
  // A Ctrl-C that landed before the arbiter took SIGINT over cancelled
  // g_governor instead: drain at once.
  if (g_governor.cancel_requested()) {
    service::ShutdownArbiter::Process().RequestDrain();
  }
  service::SocketTransport server(&service,
                                  &service::ShutdownArbiter::Process(),
                                  transport);
  server.AddStream(in_fd, STDOUT_FILENO);
  const int code = server.Serve();
  if (in_fd != STDIN_FILENO) ::close(in_fd);
  if (code == kExitCancelled) {
    // The drain signal went to the transport, not to g_governor: record
    // it there too, so --report names the trip.
    g_governor.ForceTrip(GovernorTrip::kCancelled);
    g_verdict = "batch cancelled";
    return code;
  }
  if (code != kExitOk) {
    g_verdict = "batch stream failed";
    return Fail("batch: reading the input or writing stdout failed; "
                "in-flight requests cancelled",
                code);
  }
  const service::SocketTransport::ResponseCounts counts =
      server.response_counts();
  g_verdict = counts.failed == 0
                  ? "batch ok"
                  : NumberedName("batch with ", counts.failed) +
                        " failed request(s)";
  std::fprintf(stderr, "rav_cli: batch: %zu request(s), %zu failed\n",
               counts.total, counts.failed);
  return counts.failed == 0 ? kExitOk : kExitError;
}

int RunCommand(const std::vector<std::string>& args) {
  const int argc = static_cast<int>(args.size());
  std::vector<const char*> ptrs;
  for (const std::string& a : args) ptrs.push_back(a.c_str());
  const char* const* argv = ptrs.data();
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: rav_cli "
                 "<info|print|dot|empty|project|lrbound|simulate|verify|lint"
                 "|batch> <file> [args...] [--report <json>]\n");
    return kExitUsage;
  }
  std::string command = argv[1];

  if (command == "batch") {
    int threads = 1;
    size_t cache_capacity = 64;
    size_t max_line_bytes = service::kDefaultMaxRequestLineBytes;
    std::string batch_path;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--threads" && i + 1 < argc) {
        auto threads_arg = ParseIntArg("--threads", argv[++i]);
        if (!threads_arg.ok()) {
          return UsageError(threads_arg.status().message());
        }
        if (*threads_arg < 0) {
          return UsageError("batch --threads must be >= 0");
        }
        if (*threads_arg > service::kMaxRequestThreads) {
          return UsageError(NumberedName("batch --threads must be <= ",
                                         service::kMaxRequestThreads) +
                            " (kMaxRequestThreads)");
        }
        threads = *threads_arg == 0
                      ? static_cast<int>(std::thread::hardware_concurrency())
                      : *threads_arg;
      } else if (arg == "--cache" && i + 1 < argc) {
        auto cache_arg = ParseIntArg("--cache", argv[++i]);
        if (!cache_arg.ok()) return UsageError(cache_arg.status().message());
        if (*cache_arg < 1) return UsageError("batch --cache must be >= 1");
        cache_capacity = static_cast<size_t>(*cache_arg);
      } else if (arg == "--max-line" && i + 1 < argc) {
        auto line_arg = ParseByteSize(argv[++i]);
        if (!line_arg.ok()) return UsageError(line_arg.status().message());
        if (*line_arg < 1) {
          return UsageError("batch --max-line must be >= 1");
        }
        max_line_bytes = static_cast<size_t>(*line_arg);
      } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
        return UsageError(
            "batch: unknown flag '" + arg +
            "' (supported: --threads N, --cache N, --max-line B)");
      } else if (batch_path.empty()) {
        batch_path = arg;
      } else {
        return UsageError("batch: takes one <file> (or '-' for stdin)");
      }
    }
    if (batch_path.empty()) return UsageError("batch needs <file> (or '-')");
    return CmdBatch(batch_path, threads, cache_capacity, max_line_bytes);
  }

  if (command == "lint") {
    LintOutput output = LintOutput::kText;
    bool werror = false;
    std::vector<std::string> files;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json") {
        output = LintOutput::kJson;
      } else if (arg == "--sarif") {
        output = LintOutput::kSarif;
      } else if (arg == "--werror") {
        werror = true;
      } else if (!arg.empty() && arg[0] == '-') {
        return UsageError("lint: unknown flag '" + arg +
                          "' (supported: --json, --sarif, --werror)");
      } else {
        files.push_back(arg);
      }
    }
    if (files.empty()) return UsageError("lint needs at least one <file>");
    return CmdLint(files, output, werror);
  }

  // Arguments are validated before any file I/O, so a malformed
  // invocation fails fast with a usage message and exit 2.
  int project_m = 0;
  int simulate_steps = 0;
  EraEmptinessOptions empty_options;
  empty_options.governor = &g_governor;
  if (command == "project") {
    if (argc < 4) return UsageError("project needs <m>");
    auto m = ParseIntArg("project <m>", argv[3]);
    if (!m.ok()) return UsageError(m.status().message());
    project_m = *m;
  } else if (command == "simulate") {
    if (argc < 4) return UsageError("simulate needs <steps>");
    auto steps = ParseIntArg("simulate <steps>", argv[3]);
    if (!steps.ok()) return UsageError(steps.status().message());
    if (*steps < 0) return UsageError("simulate <steps> must be >= 0");
    simulate_steps = *steps;
  } else if (command == "empty") {
    for (int i = 3; i < argc; ++i) {
      if (std::string(argv[i]) == "--threads" && i + 1 < argc) {
        auto threads = ParseIntArg("--threads", argv[i + 1]);
        if (!threads.ok()) return UsageError(threads.status().message());
        if (*threads < 0) {
          return UsageError("empty --threads must be >= 0");
        }
        if (*threads > service::kMaxRequestThreads) {
          return UsageError(NumberedName("empty --threads must be <= ",
                                         service::kMaxRequestThreads) +
                            " (kMaxRequestThreads)");
        }
        empty_options.num_workers = *threads;
        ++i;
      } else {
        return UsageError("empty: unknown argument '" +
                          std::string(argv[i]) +
                          "' (supported: --threads N)");
      }
    }
  } else if (command == "verify") {
    if (argc < 5) {
      return UsageError("verify needs <ltl> and at least one <fo>");
    }
  } else if (command != "info" && command != "print" && command != "dot" &&
             command != "lrbound") {
    return UsageError("unknown command '" + command + "'");
  }
  // The other commands take a fixed number of arguments.
  const int fixed_argc = command == "project" || command == "simulate" ? 4 : 3;
  if (command != "empty" && command != "verify" && argc > fixed_argc) {
    return UsageError(command + ": unexpected argument '" +
                      std::string(argv[fixed_argc]) + "'");
  }

  auto era = Load(argv[2]);
  if (!era.ok()) {
    return Fail("cannot load '" + std::string(argv[2]) + "': " +
                era.status().ToString() +
                "\n  usage: rav_cli " + command +
                " <file> — <file> must be an automaton spec in the "
                "io/text_format syntax (try `rav_cli lint " +
                std::string(argv[2]) + "` for details)");
  }

  if (command == "info") return CmdInfo(*era);
  if (command == "print") {
    std::printf("%s", ToTextFormat(*era).c_str());
    return 0;
  }
  if (command == "dot") {
    std::printf("%s", ToGraphviz(era->automaton()).c_str());
    return 0;
  }
  if (command == "empty") return CmdEmpty(*era, empty_options);
  if (command == "project") return CmdProject(*era, project_m);
  if (command == "lrbound") return CmdLrBound(*era);
  if (command == "simulate") return CmdSimulate(*era, simulate_steps);
  std::vector<std::string> props;  // verify
  for (int i = 4; i < argc; ++i) props.emplace_back(argv[i]);
  return CmdVerify(*era, argv[3], props);
}

int Main(int argc, char** argv) {
  // Strip the global flags (--report, --timeout, --memory-limit) before
  // command parsing so they work uniformly across commands and positions.
  std::string report_path;
  std::string timeout_text;
  std::string memory_text;
  std::vector<std::string> args;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
      continue;
    }
    if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(9);
      continue;
    }
    if (arg == "--timeout" && i + 1 < argc) {
      timeout_text = argv[++i];
      continue;
    }
    if (arg.rfind("--timeout=", 0) == 0) {
      timeout_text = arg.substr(10);
      continue;
    }
    if (arg == "--memory-limit" && i + 1 < argc) {
      memory_text = argv[++i];
      continue;
    }
    if (arg.rfind("--memory-limit=", 0) == 0) {
      memory_text = arg.substr(15);
      continue;
    }
    args.push_back(std::move(arg));
  }

  if (!timeout_text.empty()) {
    Result<long long> ms = ParseDurationMs(timeout_text);
    if (!ms.ok()) {
      std::fprintf(stderr, "rav_cli: --timeout: %s\n",
                   ms.status().message().c_str());
      return kExitUsage;
    }
    g_governor.set_deadline_after(std::chrono::milliseconds(*ms));
  }
  if (!memory_text.empty()) {
    Result<long long> bytes = ParseByteSize(memory_text);
    if (!bytes.ok()) {
      std::fprintf(stderr, "rav_cli: --memory-limit: %s\n",
                   bytes.status().message().c_str());
      return kExitUsage;
    }
    g_governor.set_memory_budget(static_cast<size_t>(*bytes));
  }
  std::signal(SIGINT, HandleSigint);

  const auto start = std::chrono::steady_clock::now();
  int exit_code = RunCommand(args);
  if (report_path.empty()) return exit_code;

  RunReport report;
  report.experiment = "cli/" + (args.size() > 1 ? args[1] : std::string("?"));
  report.claim = "rav_cli invocation (docs/observability.md)";
  report.params.Set("command",
                    Json::String(args.size() > 1 ? args[1] : ""));
  report.params.Set("file", Json::String(args.size() > 2 ? args[2] : ""));
  Json extra = Json::Array();
  for (size_t i = 3; i < args.size(); ++i) {
    extra.Append(Json::String(args[i]));
  }
  report.params.Set("args", std::move(extra));
  report.params.Set("exit_code", Json::Number(exit_code));
  report.params.Set("governor_trip",
                    Json::String(GovernorTripName(g_governor.trip())));
  Json metrics = Json::Object();
  metrics.Set("process", CaptureProcessMetrics());
  report.metrics = std::move(metrics);
  report.spans = CaptureSpans();
  report.verdict =
      !g_verdict.empty() ? g_verdict : (exit_code == 0 ? "ok" : "error");
  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  Status written = WriteReportFile(report_path, report);
  if (!written.ok()) {
    // A requested report that cannot be written is a hard failure: exit
    // nonzero and name the path, so a pipeline never sees a verdict with
    // exit 0 while the report file is silently missing. A domain exit
    // code (3/4/5) is preserved — it is already nonzero and more
    // specific than the generic error.
    std::fprintf(stderr,
                 "rav_cli: --report: cannot write report file '%s': %s\n",
                 report_path.c_str(), written.ToString().c_str());
    return exit_code != kExitOk ? exit_code : kExitError;
  }
  return exit_code;
}

}  // namespace
}  // namespace rav

int main(int argc, char** argv) { return rav::Main(argc, argv); }
