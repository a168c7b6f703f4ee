#include "async/explore.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "async/protocols.h"
#include "async/scheduler.h"
#include "parallel/experiment_pool.h"
#include "parallel/seed.h"

namespace ba::async {
namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Resolved, validated form of an ExploreTask, shared read-only across
/// workers (the factory builds a fresh replica per process per run).
struct TaskContext {
  ExploreTask task;
  AsyncProtocolFactory factory;
  std::vector<Value> proposal_values;
  AsyncAdversary adversary;
};

TaskContext resolve(const ExploreTask& task) {
  const AsyncProtocolInfo* info = find_async_protocol(task.protocol);
  if (info == nullptr) {
    throw std::invalid_argument("explore: unknown async protocol '" +
                                task.protocol + "' (" + async_protocol_list() +
                                ")");
  }
  if (!task.params.valid()) {
    throw std::invalid_argument("explore: invalid SystemParams");
  }
  if (task.proposals.size() != task.params.n) {
    throw std::invalid_argument("explore: need exactly n proposal bits");
  }
  if (task.faulty.size() > task.params.t) {
    throw std::invalid_argument("explore: |faulty| exceeds t");
  }
  if (!scheduler_strategy_known(task.completion_strategy)) {
    throw std::invalid_argument("explore: unknown completion strategy '" +
                                task.completion_strategy + "' (" +
                                scheduler_strategy_list() + ")");
  }
  TaskContext ctx{task, info->make(task.coin_seed), {}, {}};
  ctx.proposal_values.reserve(task.params.n);
  for (const int b : task.proposals) {
    ctx.proposal_values.push_back(Value::bit(b));
  }
  ctx.adversary.faulty = task.faulty;
  return ctx;
}

/// Runs one schedule: scripted `choices` first, then the task's completion
/// strategy to quiescence (or to `stop_after` deliveries for probes).
AsyncRunResult run_schedule(const TaskContext& ctx,
                            std::vector<std::uint32_t> choices,
                            std::optional<std::uint64_t> stop_after,
                            bool capture_pending) {
  ScriptedScheduler scheduler(
      std::move(choices),
      make_scheduler(ctx.task.completion_strategy, ctx.task.completion_seed,
                     ctx.task.params.n));
  AsyncRunOptions options;
  options.max_deliveries = ctx.task.max_deliveries;
  options.stop_after = stop_after;
  options.record_trace = false;
  options.capture_pending = capture_pending;
  return run_async(ctx.task.params, ctx.factory, ctx.proposal_values,
                   ctx.adversary, scheduler, options);
}

std::optional<SafetyViolation> check(const TaskContext& ctx,
                                     const AsyncRunResult& result) {
  return binary_consensus_safety(ctx.task.params, ctx.task.proposals,
                                 ctx.task.faulty, result.run.decisions);
}

/// Order-sensitive fingerprint of one complete schedule: the full delivery
/// order, every decision, and the run counters.
std::uint64_t schedule_digest(const AsyncRunResult& result) {
  std::uint64_t d = mix64(result.schedule.size());
  for (const std::uint32_t c : result.schedule) d = mix64(d ^ c);
  for (const std::optional<Value>& dec : result.run.decisions) {
    const std::uint64_t code =
        dec ? (dec->try_bit() ? static_cast<std::uint64_t>(*dec->try_bit())
                              : 3u)
            : 2u;
    d = mix64(d ^ code);
  }
  d = mix64(d ^ result.deliveries);
  return mix64(d ^ (result.run.quiesced ? 1u : 0u));
}

bool all_correct_decided(const TaskContext& ctx,
                         const std::vector<std::optional<Value>>& decisions) {
  for (ProcessId p = 0; p < ctx.task.params.n; ++p) {
    if (!ctx.adversary.is_faulty(p) && !decisions[p]) return false;
  }
  return true;
}

/// Per-partition accumulator (one top-level branch in exhaustive mode, one
/// sample index in sampling mode). Merged strictly in partition order.
struct PartitionResult {
  std::uint64_t schedules{0};
  std::uint64_t deliveries{0};
  std::uint64_t quiesced{0};
  std::uint64_t all_decided{0};
  std::uint64_t violations{0};
  std::vector<std::uint64_t> digests;  // per-schedule, enumeration order
  bool has_violation{false};
  std::vector<std::uint32_t> violating_choices;
  SafetyViolation violation{};
};

void record_leaf(const TaskContext& ctx, const AsyncRunResult& result,
                 const std::vector<std::uint32_t>& choices,
                 PartitionResult& out) {
  out.schedules++;
  out.deliveries += result.deliveries;
  if (result.run.quiesced) out.quiesced++;
  if (all_correct_decided(ctx, result.run.decisions)) out.all_decided++;
  out.digests.push_back(schedule_digest(result));
  if (const auto violation = check(ctx, result)) {
    out.violations++;
    out.has_violation = true;
    out.violating_choices = choices;
    out.violation = *violation;
  }
}

/// Distinct-delivery candidates at one node: pending indices, first
/// occurrence per (sender, receiver, payload). Delivering either of two
/// identical in-flight messages yields indistinguishable continuations.
std::vector<std::uint32_t> branch_candidates(
    const std::vector<PendingMessage>& pending) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    bool duplicate = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (pending[j].sender == pending[i].sender &&
          pending[j].receiver == pending[i].receiver &&
          pending[j].payload == pending[i].payload) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) out.push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

/// Depth-first enumeration under one fixed prefix. Stops the partition at
/// its first violation (deterministic: enumeration order is fixed), so the
/// explored-schedule set is identical for every jobs value.
void dfs(const TaskContext& ctx, std::uint32_t depth,
         std::vector<std::uint32_t>& prefix, PartitionResult& out) {
  if (out.has_violation) return;
  if (prefix.size() < depth) {
    AsyncRunResult probe =
        run_schedule(ctx, prefix, prefix.size(), /*capture_pending=*/true);
    if (!probe.pending.empty()) {
      for (const std::uint32_t c : branch_candidates(probe.pending)) {
        prefix.push_back(c);
        dfs(ctx, depth, prefix, out);
        prefix.pop_back();
        if (out.has_violation) return;
      }
      return;
    }
    // The prefix already drives the run to quiescence — it is a complete
    // schedule of its own.
  }
  const AsyncRunResult result =
      run_schedule(ctx, prefix, std::nullopt, /*capture_pending=*/false);
  record_leaf(ctx, result, prefix, out);
}

/// Shortest violating prefix, then greedy single-choice removal. Every
/// candidate is re-run from scratch; the certificate must stay violating
/// under its own completion strategy by construction.
std::vector<std::uint32_t> minimize(const TaskContext& ctx,
                                    std::vector<std::uint32_t> choices) {
  const auto violates = [&](const std::vector<std::uint32_t>& c) {
    return check(ctx, run_schedule(ctx, c, std::nullopt, false)).has_value();
  };
  for (std::size_t len = 0; len < choices.size(); ++len) {
    if (violates({choices.begin(),
                  choices.begin() + static_cast<std::ptrdiff_t>(len)})) {
      choices.resize(len);
      break;
    }
  }
  if (choices.size() <= 64) {
    std::size_t i = 0;
    while (i < choices.size()) {
      std::vector<std::uint32_t> without = choices;
      without.erase(without.begin() + static_cast<std::ptrdiff_t>(i));
      if (violates(without)) {
        choices = std::move(without);
      } else {
        ++i;
      }
    }
  }
  return choices;
}

ScheduleCertificate make_certificate(const TaskContext& ctx,
                                     std::vector<std::uint32_t> choices) {
  choices = minimize(ctx, std::move(choices));
  const AsyncRunResult result =
      run_schedule(ctx, choices, std::nullopt, false);
  const auto violation = check(ctx, result);
  ScheduleCertificate cert;
  cert.protocol = ctx.task.protocol;
  cert.params = ctx.task.params;
  cert.proposals = ctx.task.proposals;
  cert.faulty = ctx.task.faulty;
  cert.coin_seed = ctx.task.coin_seed;
  cert.completion_strategy = ctx.task.completion_strategy;
  cert.completion_seed = ctx.task.completion_seed;
  cert.max_deliveries = ctx.task.max_deliveries;
  cert.choices = std::move(choices);
  // `violation` is non-null by minimize's invariant; guard anyway so a
  // logic error surfaces as a readable certificate, not a crash.
  cert.property = violation ? violation->property : "unknown";
  cert.detail = violation ? violation->detail : "minimization lost violation";
  return cert;
}

ExploreReport merge(const TaskContext& ctx,
                    const std::vector<PartitionResult>& parts) {
  ExploreReport report;
  std::uint64_t digest = 0x9e3779b97f4a7c15ull;
  const PartitionResult* first_violating = nullptr;
  for (const PartitionResult& part : parts) {
    report.schedules += part.schedules;
    report.deliveries += part.deliveries;
    report.quiesced += part.quiesced;
    report.all_decided += part.all_decided;
    report.violations += part.violations;
    for (const std::uint64_t d : part.digests) digest = mix64(digest ^ d);
    if (first_violating == nullptr && part.has_violation) {
      first_violating = &part;
    }
  }
  report.digest = digest;
  if (first_violating != nullptr) {
    report.certificate =
        make_certificate(ctx, first_violating->violating_choices);
  }
  return report;
}

}  // namespace

std::optional<SafetyViolation> binary_consensus_safety(
    const SystemParams& params, const std::vector<int>& proposals,
    const ProcessSet& faulty,
    const std::vector<std::optional<Value>>& decisions) {
  ProcessId first_decider = kNoProcess;
  for (ProcessId p = 0; p < params.n; ++p) {
    if (faulty.contains(p) || !decisions[p]) continue;
    const std::optional<int> bit = decisions[p]->try_bit();
    if (!bit) {
      return SafetyViolation{
          "integrity", "process " + std::to_string(p) +
                           " decided the non-bit value " +
                           decisions[p]->to_string()};
    }
    if (first_decider == kNoProcess) {
      first_decider = p;
    } else if (*decisions[first_decider]->try_bit() != *bit) {
      return SafetyViolation{
          "agreement",
          "process " + std::to_string(first_decider) + " decided " +
              std::to_string(*decisions[first_decider]->try_bit()) +
              " but process " + std::to_string(p) + " decided " +
              std::to_string(*bit)};
    }
    bool proposed = false;
    for (ProcessId q = 0; q < params.n; ++q) {
      if (!faulty.contains(q) && proposals[q] == *bit) {
        proposed = true;
        break;
      }
    }
    if (!proposed) {
      return SafetyViolation{
          "validity", "process " + std::to_string(p) + " decided " +
                          std::to_string(*bit) +
                          ", which no correct process proposed"};
    }
  }
  return std::nullopt;
}

ExploreReport explore(const ExploreTask& task, const ExploreOptions& options) {
  const TaskContext ctx = resolve(task);
  std::vector<PartitionResult> parts;
  // At most one worker per partition: a huge jobs value starts no idle
  // threads.
  const auto map_partitions =
      [&](std::size_t count,
          const std::function<PartitionResult(std::size_t)>& fn) {
        parallel::ExperimentPool pool(static_cast<unsigned>(
            std::clamp<std::size_t>(count, 1,
                                    parallel::resolve_jobs(options.jobs))));
        return pool.map<PartitionResult>(count, fn);
      };

  if (options.exhaustive) {
    // Partition at the root's first-choice branches; each branch explores
    // sequentially, so the merged result is independent of the jobs knob.
    AsyncRunResult root = run_schedule(ctx, {}, std::uint64_t{0},
                                       /*capture_pending=*/true);
    const std::vector<std::uint32_t> branches =
        options.depth == 0 ? std::vector<std::uint32_t>{}
                           : branch_candidates(root.pending);
    if (branches.empty()) {
      PartitionResult only;
      std::vector<std::uint32_t> prefix;
      dfs(ctx, options.depth, prefix, only);
      parts.push_back(std::move(only));
    } else {
      parts = map_partitions(branches.size(), [&](std::size_t i) {
        PartitionResult part;
        std::vector<std::uint32_t> prefix{branches[i]};
        dfs(ctx, options.depth, prefix, part);
        return part;
      });
    }
  } else {
    parts = map_partitions(
        static_cast<std::size_t>(options.samples), [&](std::size_t i) {
          const std::uint64_t index = options.start_index + i;
          const std::uint64_t seed =
              parallel::derive_task_seed(options.seed, index);
          auto scheduler = make_scheduler("random", seed, task.params.n);
          AsyncRunOptions run_options;
          run_options.max_deliveries = task.max_deliveries;
          run_options.record_trace = false;
          AsyncRunResult result =
              run_async(ctx.task.params, ctx.factory, ctx.proposal_values,
                        ctx.adversary, *scheduler, run_options);
          PartitionResult part;
          record_leaf(ctx, result, result.schedule, part);
          return part;
        });
  }

  ExploreReport report = merge(ctx, parts);
  report.next_index = options.exhaustive
                          ? 0
                          : options.start_index + options.samples;
  return report;
}

AsyncRunResult replay_certificate(const ScheduleCertificate& cert,
                                  const AsyncRunOptions& options) {
  ExploreTask task;
  task.protocol = cert.protocol;
  task.params = cert.params;
  task.proposals = cert.proposals;
  task.faulty = cert.faulty;
  task.coin_seed = cert.coin_seed;
  task.completion_strategy = cert.completion_strategy;
  task.completion_seed = cert.completion_seed;
  task.max_deliveries = cert.max_deliveries;
  const TaskContext ctx = resolve(task);
  ScriptedScheduler scheduler(
      cert.choices, make_scheduler(cert.completion_strategy,
                                   cert.completion_seed, cert.params.n));
  return run_async(ctx.task.params, ctx.factory, ctx.proposal_values,
                   ctx.adversary, scheduler, options);
}

std::string ScheduleCertificate::encode() const {
  std::ostringstream os;
  os << "ba-async-cert v1\n";
  os << "protocol " << protocol << "\n";
  os << "n " << params.n << "\n";
  os << "t " << params.t << "\n";
  os << "proposals";
  for (const int b : proposals) os << ' ' << b;
  os << "\nfaulty";
  for (const ProcessId p : faulty) os << ' ' << p;
  os << "\ncoin-seed " << coin_seed << "\n";
  os << "completion " << completion_strategy << ' ' << completion_seed << "\n";
  os << "max-deliveries " << max_deliveries << "\n";
  os << "choices";
  for (const std::uint32_t c : choices) os << ' ' << c;
  os << "\nproperty " << property << "\n";
  os << "detail " << detail << "\n";
  return os.str();
}

namespace {

[[noreturn]] void cert_error(std::size_t line, const std::string& what) {
  throw std::invalid_argument("certificate line " + std::to_string(line) +
                              ": " + what);
}

/// Reads one line, checks its leading keyword, and returns the remainder
/// stream.
std::istringstream cert_line(std::istream& in, std::size_t line,
                             const std::string& keyword) {
  std::string text;
  if (!std::getline(in, text)) cert_error(line, "missing '" + keyword + "'");
  std::istringstream fields(text);
  std::string head;
  fields >> head;
  if (head != keyword) {
    cert_error(line, "expected '" + keyword + "', got '" + head + "'");
  }
  return fields;
}

}  // namespace

ScheduleCertificate ScheduleCertificate::decode(const std::string& text) {
  std::istringstream in(text);
  std::string header;
  if (!std::getline(in, header) || header != "ba-async-cert v1") {
    cert_error(1, "bad header (want 'ba-async-cert v1')");
  }
  ScheduleCertificate cert;
  std::size_t line = 2;
  {
    auto f = cert_line(in, line++, "protocol");
    if (!(f >> cert.protocol)) cert_error(line - 1, "missing protocol name");
  }
  {
    auto f = cert_line(in, line++, "n");
    if (!(f >> cert.params.n)) cert_error(line - 1, "missing n");
  }
  {
    auto f = cert_line(in, line++, "t");
    if (!(f >> cert.params.t)) cert_error(line - 1, "missing t");
  }
  {
    auto f = cert_line(in, line++, "proposals");
    int b = 0;
    while (f >> b) cert.proposals.push_back(b);
  }
  {
    auto f = cert_line(in, line++, "faulty");
    ProcessId p = 0;
    while (f >> p) cert.faulty.insert(p);
  }
  {
    auto f = cert_line(in, line++, "coin-seed");
    if (!(f >> cert.coin_seed)) cert_error(line - 1, "missing coin seed");
  }
  {
    auto f = cert_line(in, line++, "completion");
    if (!(f >> cert.completion_strategy >> cert.completion_seed)) {
      cert_error(line - 1, "want 'completion <strategy> <seed>'");
    }
  }
  {
    auto f = cert_line(in, line++, "max-deliveries");
    if (!(f >> cert.max_deliveries)) {
      cert_error(line - 1, "missing max-deliveries");
    }
  }
  {
    auto f = cert_line(in, line++, "choices");
    std::uint32_t c = 0;
    while (f >> c) cert.choices.push_back(c);
  }
  {
    auto f = cert_line(in, line++, "property");
    if (!(f >> cert.property)) cert_error(line - 1, "missing property");
  }
  {
    std::string text_line;
    if (!std::getline(in, text_line) ||
        text_line.rfind("detail ", 0) != 0) {
      cert_error(line, "expected 'detail <text>'");
    }
    cert.detail = text_line.substr(7);
  }
  return cert;
}

}  // namespace ba::async
