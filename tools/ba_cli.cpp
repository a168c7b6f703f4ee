// ba_cli — command-line front end for the library.
//
//   ba_cli bound <t>
//       print the Lemma 1 threshold t^2/32
//   ba_cli attack <protocol> [n] [t] [--save FILE]
//       run the Theorem 2 engine against a weak-consensus protocol;
//       optionally save the violation certificate to FILE
//   ba_cli verify <FILE> <protocol> [n] [t]
//       load a certificate and re-verify it by full state-machine replay
//   ba_cli solvability <property> <n> <t>
//       Theorem 4 verdict for a canned validity property
//   ba_cli run <protocol> <n> <t> <bit...> [--backend SPEC]
//              [--save-trace FILE]
//       run a protocol on explicit proposals and print decisions;
//       optionally save the execution trace for later auditing (lint_trace)
//   ba_cli sweep [--jobs N] [--grid n:t,n:t,...] [--json FILE]
//                [--backend SPEC]
//       run the Theorem 2 attack sweep (standard candidate set) over a grid,
//       fanned across N pool workers (0 = hardware concurrency, default 1);
//       optionally write the machine-readable BENCH_sweep.json report
//   ba_cli bounds [--protocol P] [--n N --t T] [--json]
//       print the statically derived communication bounds (closed forms in
//       n/t/f; concrete budgets when --n/--t given) and cross-check every
//       correctness-claiming protocol against the paper's t^2/32 threshold
//       — exits 1 when a CommSpec dips below a lower bound it is subject to
//   ba_cli sim <protocol> <n> <t> <bit...> [--model sync|jitter|gst]
//              [--seed S] [--gst R] [--lag K] [--round-ticks T]
//              [--backend SPEC] [--save-trace FILE]
//       run a protocol through the discrete-event simulator (src/sim/)
//       and print decisions plus per-link network metrics; saved traces
//       carry schema-v2 provenance (backend, model, seed)
//   ba_cli explore --protocol P --n N --t T [--proposals b,b,...]
//              [--faulty p,p,...] [--exhaustive] [--depth D] [--samples S]
//              [--seed S] [--start-index I] [--coin-seed C] [--strategy X]
//              [--strategy-seed S] [--jobs J] [--save FILE]
//              [--save-trace FILE]
//       bounded schedule exploration of an asynchronous protocol
//       (src/async/): exhaustive prefix enumeration or seeded sampling;
//       prints the campaign report, lints a representative async trace
//       against the protocol's static budget, and on a safety violation
//       emits a minimized replayable certificate (exit 1)
//   ba_cli explore --replay FILE [--save-trace FILE]
//       re-execute a failing-schedule certificate and confirm the recorded
//       violation reproduces (exit 0 when it does)
//
// Every execution dispatches through the engine::Registry: SPEC is
// `lockstep`, `sim[:model[,seed]]`, or `async[:strategy[,seed]]` (e.g.
// `sim:jitter,42`, `async:rr-starve,7`); `run` defaults to lockstep, `sim`
// to the sim backend refined by its model flags. The async backend refuses
// synchronous protocols — its surface is `explore` and the async API.
//
// protocols: see tool_protocols.h
// properties: weak | strong | sender | ic | any-proposed | constant

#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/ba.h"
#include "tool_protocols.h"

namespace {

using namespace ba;
using tools::make_protocol;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  ba_cli bound <t>\n"
               "  ba_cli attack <protocol> [n] [t] [--save FILE]\n"
               "  ba_cli dr-attack <direct|relay-ring|dolev-strong> [n] [t]\n"
               "  ba_cli verify <FILE> <protocol> [n] [t]\n"
               "  ba_cli solvability <property> <n> <t>\n"
               "  ba_cli run <protocol> <n> <t> <bit...> [--backend SPEC] "
               "[--fault SPEC]\n"
               "         [--fault-seed S] [--save-trace FILE]\n"
               "  ba_cli sweep [--jobs N] [--grid n:t,...] [--json FILE] "
               "[--out FILE] [--backend SPEC]\n"
               "         [--fault-axis [KIND]] [--fault-seed S]\n"
               "  ba_cli serve <campaign.json> --state DIR [--workers N] "
               "[--respawns N]\n"
               "         [--serial FILE] [--bench FILE] [--die-after K] "
               "[--stale-ms M] [--quiet]\n"
               "  ba_cli serve-worker --state DIR --shard N [--die-after K]\n"
               "  ba_cli bounds [--protocol P] [--n N --t T] [--json]\n"
               "  ba_cli sim <protocol> <n> <t> <bit...> [--model "
               "sync|jitter|gst]\n"
               "         [--seed S] [--gst R] [--lag K] [--round-ticks T] "
               "[--backend SPEC]\n"
               "         [--fault SPEC] [--fault-seed S] [--save-trace FILE]\n"
               "  ba_cli explore --protocol P --n N --t T "
               "[--proposals b,b,...] [--faulty p,p,...]\n"
               "         [--fault SPEC]\n"
               "         [--exhaustive] [--depth D] [--samples S] [--seed S] "
               "[--start-index I]\n"
               "         [--coin-seed C] [--strategy X] [--strategy-seed S] "
               "[--jobs J]\n"
               "         [--save FILE] [--save-trace FILE]\n"
               "  ba_cli explore --replay FILE [--save-trace FILE]\n"
               "backend SPEC: lockstep | sim[:model[,seed]] | "
               "async[:strategy[,seed]]\n"
               "fault SPEC (docs/FAULTS.md): %s\n"
               "protocols: %s\n"
               "async protocols: %s\n"
               "async strategies: %s\n"
               "properties: weak strong sender ic any-proposed constant\n",
               faults::fault_plan_names(), tools::protocol_names(),
               async::async_protocol_list(), async::scheduler_strategy_list());
  return 2;
}

std::optional<validity::ValidityProperty> make_property(
    const std::string& name, std::uint32_t n, std::uint32_t t) {
  if (name == "weak") return validity::weak_validity(n, t);
  if (name == "strong") return validity::strong_validity(n, t);
  if (name == "sender") return validity::sender_validity(n, t, 0);
  if (name == "ic") return validity::ic_validity(n, t);
  if (name == "any-proposed") return validity::any_proposed_validity(n, t);
  if (name == "constant") return validity::constant_validity(n, t);
  return std::nullopt;
}

bool write_file(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::optional<Bytes> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  Bytes bytes((std::istreambuf_iterator<char>(in)),
              std::istreambuf_iterator<char>());
  return bytes;
}

/// Parses a worker-count value (`--jobs`, `--workers`) as a whole unsigned
/// decimal; 0 keeps its "hardware concurrency" meaning. Rejects "-1",
/// "abc", "4x" and out-of-range values with a message naming `flag`, so a
/// typo can never turn into billions of threads or worker processes.
std::optional<unsigned> parse_worker_count(const char* flag,
                                           const char* text) {
  unsigned value = 0;
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end) {
    std::fprintf(stderr, "%s: want a non-negative integer, got '%s'\n", flag,
                 text);
    return std::nullopt;
  }
  return value;
}

int cmd_bound(int argc, char** argv) {
  if (argc < 1) return usage();
  const auto t = static_cast<std::uint32_t>(std::atoi(argv[0]));
  std::printf("t = %u  =>  t^2/32 = %llu messages\n", t,
              static_cast<unsigned long long>(lowerbound::lemma1_bound(t)));
  return 0;
}

int cmd_attack(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string name = argv[0];
  std::uint32_t n = 12, t = 8;
  std::string save;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--save") == 0 && i + 1 < argc) {
      save = argv[++i];
    } else if (n == 12) {
      n = static_cast<std::uint32_t>(std::atoi(argv[i]));
    } else {
      t = static_cast<std::uint32_t>(std::atoi(argv[i]));
    }
  }
  if (n != 12 && t == 8) t = n - 1;
  auto protocol = make_protocol(name, n);
  if (!protocol) return usage();

  auto report = lowerbound::attack_weak_consensus(SystemParams{n, t},
                                                  *protocol);
  std::printf("%s", report.narrative.c_str());
  std::printf("max message complexity observed: %llu (bound t^2/32 = %llu)\n",
              static_cast<unsigned long long>(report.max_message_complexity),
              static_cast<unsigned long long>(report.bound));
  if (!report.violation_found) {
    std::printf("no violation constructed: protocol survives the attack\n");
    return 0;
  }
  auto check = lowerbound::verify_certificate(*report.certificate, *protocol);
  std::printf("violation: %s (replay verification: %s)\n",
              to_string(report.certificate->kind).c_str(),
              check.ok ? "OK" : check.error.c_str());
  if (!save.empty()) {
    if (write_file(save, lowerbound::encode_certificate(
                             *report.certificate))) {
      std::printf("certificate saved to %s\n", save.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", save.c_str());
      return 1;
    }
  }
  return 0;
}

int cmd_verify(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string file = argv[0];
  const std::string name = argv[1];
  auto bytes = read_file(file);
  if (!bytes) {
    std::fprintf(stderr, "cannot read %s\n", file.c_str());
    return 1;
  }
  auto cert = lowerbound::decode_certificate(*bytes);
  if (!cert) {
    std::fprintf(stderr, "not a valid certificate file\n");
    return 1;
  }
  const std::uint32_t n = argc > 2
                              ? static_cast<std::uint32_t>(std::atoi(argv[2]))
                              : cert->execution.params.n;
  auto protocol = make_protocol(name, n);
  if (!protocol) return usage();
  auto check = lowerbound::verify_certificate(*cert, *protocol);
  std::printf("certificate: %s violation on n=%u t=%u execution (%u rounds)\n",
              to_string(cert->kind).c_str(), cert->execution.params.n,
              cert->execution.params.t, cert->execution.rounds);
  std::printf("narrative: %s\n", cert->narrative.c_str());
  std::printf("verification: %s\n", check.ok ? "OK" : check.error.c_str());
  return check.ok ? 0 : 1;
}

int cmd_dr_attack(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string name = argv[0];
  const auto n = argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1]))
                          : 12u;
  const auto t = argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2]))
                          : n / 2;
  ProtocolFactory protocol;
  if (name == "direct") {
    protocol = protocols::bb_candidate_direct(0);
  } else if (name == "relay-ring") {
    protocol = protocols::bb_candidate_relay_ring(0, 2);
  } else if (name == "dolev-strong") {
    auto auth = std::make_shared<crypto::Authenticator>(0xd12, n);
    protocol = protocols::dolev_strong_broadcast(auth, 0);
  } else {
    std::fprintf(stderr,
                 "dr-attack protocols: direct relay-ring dolev-strong\n");
    return 2;
  }
  auto report = lowerbound::attack_broadcast(
      SystemParams{n, t}, protocol, 0, Value::bit(0), Value::bit(1));
  std::printf("%s", report.narrative.c_str());
  if (report.violation_found) {
    auto check = lowerbound::verify_certificate(*report.certificate,
                                                protocol);
    std::printf("violation: %s (replay verification: %s)\n",
                to_string(report.certificate->kind).c_str(),
                check.ok ? "OK" : check.error.c_str());
  } else {
    std::printf("protocol survives the cut attack (min in-neighbourhood "
                "%zu > t = %u, or victim stayed consistent)\n",
                report.min_in_neighbourhood, t);
  }
  return 0;
}

int cmd_solvability(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string name = argv[0];
  const auto n = static_cast<std::uint32_t>(std::atoi(argv[1]));
  const auto t = static_cast<std::uint32_t>(std::atoi(argv[2]));
  auto prop = make_property(name, n, t);
  if (!prop || n == 0 || t >= n) return usage();
  auto verdict = validity::solvability(*prop, n, t);
  std::printf("%s at n=%u, t=%u: %s\n", prop->name.c_str(), n, t,
              verdict.summary().c_str());
  if (verdict.cc_witness) {
    std::printf("CC fails at configuration %s\n",
                verdict.cc_witness->to_value().to_string().c_str());
  }
  return 0;
}

/// Parses a --backend spec, reporting errors (malformed syntax, unknown
/// names, bad sim config) on stderr. The spec is returned alongside the
/// handle so callers can stamp trace provenance with it.
std::optional<std::pair<engine::BackendSpec, engine::BackendHandle>>
resolve_backend(const std::string& spec_string) {
  auto spec = engine::parse_backend_spec(spec_string);
  if (!spec) {
    std::fprintf(stderr, "--backend: malformed spec '%s' "
                         "(want name[:model[,seed]])\n",
                 spec_string.c_str());
    return std::nullopt;
  }
  try {
    return std::make_pair(*spec, engine::Registry::global().make(*spec));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "--backend: %s\n", e.what());
    return std::nullopt;
  }
}

/// The schema-v2 trace provenance vector for a backend:
/// [name, model, seed, round_ticks].
Value backend_provenance(const engine::BackendSpec& spec) {
  return Value::vec({Value{spec.name}, Value{spec.sim.model},
                     Value{static_cast<std::int64_t>(spec.sim.seed)},
                     Value{static_cast<std::int64_t>(spec.sim.round_ticks)}});
}

int cmd_run(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string name = argv[0];
  const auto n = static_cast<std::uint32_t>(std::atoi(argv[1]));
  const auto t = static_cast<std::uint32_t>(std::atoi(argv[2]));
  std::string save_trace;
  std::string backend_spec = "lockstep";
  std::string fault_plan = "fault-free";
  std::uint64_t fault_seed = 1;
  std::vector<Value> proposals;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--save-trace") == 0 && i + 1 < argc) {
      save_trace = argv[++i];
    } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
      backend_spec = argv[++i];
    } else if (std::strcmp(argv[i], "--fault") == 0 && i + 1 < argc) {
      fault_plan = argv[++i];
    } else if (std::strcmp(argv[i], "--fault-seed") == 0 && i + 1 < argc) {
      fault_seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else {
      proposals.push_back(Value::bit(std::atoi(argv[i])));
    }
  }
  if (proposals.size() != n) {
    std::fprintf(stderr, "need exactly n proposal bits\n");
    return 2;
  }
  auto protocol = make_protocol(name, n);
  if (!protocol) return usage();
  auto backend = resolve_backend(backend_spec);
  if (!backend) return 2;
  const SystemParams params{n, t};
  faults::FaultSpec fault_spec;
  Adversary adversary = Adversary::none();
  try {
    fault_spec = faults::checked_fault_spec(fault_plan, params);
    adversary = faults::compile_adversary(fault_spec, params, fault_seed);
  } catch (const std::exception& e) {
    // The pinned fault-grammar errors, verbatim: every surface (run, sim,
    // sweep, serve) reports the same string for the same bad plan.
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  RunOptions opts;
  opts.lint_trace = true;
  // Gate the run with the statically derived message budget when the
  // protocol declares a CommSpec (the linter flags budget violations),
  // evaluated at the fault plan's declared actual-fault count.
  if (const statics::CommSpec* spec = protocols::find_comm_spec(name)) {
    opts.message_budget =
        statics::budget_at(statics::analyze(*spec), params,
                           fault_spec.declared_faults(params))
            .messages;
  }
  RunResult res;
  try {
    res = backend->second->run(params, *protocol, proposals, adversary, opts);
  } catch (const std::exception& e) {
    // E.g. the async backend refuses synchronous protocols by contract.
    std::fprintf(stderr, "run: %s\n", e.what());
    return 2;
  }
  for (ProcessId p = 0; p < n; ++p) {
    std::printf("p%u: proposes %s decides %s (round %u)\n", p,
                proposals[p].to_string().c_str(),
                res.decisions[p] ? res.decisions[p]->to_string().c_str()
                                 : "<none>",
                res.trace.procs[p].decision_round);
  }
  std::printf("messages (correct senders): %llu, payload bytes: %llu\n",
              static_cast<unsigned long long>(res.messages_sent_by_correct),
              static_cast<unsigned long long>(
                  res.trace.payload_bytes_sent_by_correct()));
  if (res.lint) std::printf("trace lint: %s\n", res.lint->summary().c_str());
  if (!save_trace.empty()) {
    // Lockstep traces keep the schema-v1 format (no provenance) for
    // compatibility with pre-engine consumers; other backends stamp v2
    // provenance so audits can tell execution substrates apart.
    const Bytes encoded =
        backend->first.name == "lockstep"
            ? encode_trace(res.trace)
            : encode_trace_with_provenance(res.trace,
                                           backend_provenance(backend->first));
    if (write_file(save_trace, encoded)) {
      std::printf("trace saved to %s\n", save_trace.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", save_trace.c_str());
      return 1;
    }
  }
  return res.lint_clean() ? 0 : 1;
}

int cmd_sim(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string name = argv[0];
  const auto n = static_cast<std::uint32_t>(std::atoi(argv[1]));
  const auto t = static_cast<std::uint32_t>(std::atoi(argv[2]));

  std::string backend_spec = "sim";
  std::string save_trace;
  std::string fault_plan = "fault-free";
  std::uint64_t fault_seed = 1;
  std::optional<std::string> model;
  std::optional<std::uint64_t> seed;
  std::optional<std::uint32_t> gst;
  std::optional<std::uint32_t> lag;
  std::optional<std::uint64_t> round_ticks;
  std::vector<Value> proposals;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--model") == 0 && i + 1 < argc) {
      model = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--gst") == 0 && i + 1 < argc) {
      gst = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--lag") == 0 && i + 1 < argc) {
      lag = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--round-ticks") == 0 && i + 1 < argc) {
      round_ticks = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
      backend_spec = argv[++i];
    } else if (std::strcmp(argv[i], "--fault") == 0 && i + 1 < argc) {
      fault_plan = argv[++i];
    } else if (std::strcmp(argv[i], "--fault-seed") == 0 && i + 1 < argc) {
      fault_seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--save-trace") == 0 && i + 1 < argc) {
      save_trace = argv[++i];
    } else {
      proposals.push_back(Value::bit(std::atoi(argv[i])));
    }
  }
  if (proposals.size() != n) {
    std::fprintf(stderr, "need exactly n proposal bits\n");
    return 2;
  }
  auto protocol = make_protocol(name, n);
  if (!protocol) return usage();

  // Individual model flags refine whatever --backend selected (the default
  // is the sim backend with its stock config).
  auto parsed = engine::parse_backend_spec(backend_spec);
  if (!parsed) {
    std::fprintf(stderr, "--backend: malformed spec '%s' "
                         "(want name[:model[,seed]])\n",
                 backend_spec.c_str());
    return 2;
  }
  engine::BackendSpec spec = *parsed;
  if (model) spec.sim.model = *model;
  if (seed) spec.sim.seed = *seed;
  if (gst) spec.sim.gst_round = *gst;
  if (lag) spec.sim.lag = *lag;
  if (round_ticks) spec.sim.round_ticks = *round_ticks;

  engine::BackendHandle backend;
  try {
    backend = engine::Registry::global().make(spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sim: %s\n", e.what());
    return 2;
  }

  const SystemParams params{n, t};
  faults::FaultSpec fault_spec;
  Adversary adversary = Adversary::none();
  try {
    fault_spec = faults::checked_fault_spec(fault_plan, params);
    adversary = faults::compile_adversary(fault_spec, params, fault_seed);
  } catch (const std::exception& e) {
    // Pinned fault-grammar errors, verbatim (same string on every surface).
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  RunOptions opts;
  opts.lint_trace = true;
  if (const statics::CommSpec* spec = protocols::find_comm_spec(name)) {
    opts.message_budget =
        statics::budget_at(statics::analyze(*spec), params,
                           fault_spec.declared_faults(params))
            .messages;
  }
  RunResult res;
  try {
    res = backend->run(params, *protocol, proposals, adversary, opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sim: %s\n", e.what());
    return 1;
  }
  for (ProcessId p = 0; p < n; ++p) {
    std::printf("p%u: proposes %s decides %s (round %u)\n", p,
                proposals[p].to_string().c_str(),
                res.decisions[p] ? res.decisions[p]->to_string().c_str()
                                 : "<none>",
                res.trace.procs[p].decision_round);
  }
  std::printf("backend %s (model %s): %u rounds, %llu messages from correct "
              "senders\n",
              backend->name(), spec.sim.model.c_str(), res.rounds_executed,
              static_cast<unsigned long long>(res.messages_sent_by_correct));
  if (res.net) std::printf("%s\n", res.net->summary().c_str());
  if (res.lint) {
    std::printf("trace lint: %s\n", res.lint->summary().c_str());
  }
  if (!save_trace.empty()) {
    if (write_file(save_trace,
                   encode_trace_with_provenance(
                       res.trace, backend_provenance(spec)))) {
      std::printf("trace saved to %s (schema v2)\n", save_trace.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", save_trace.c_str());
      return 1;
    }
  }
  return res.lint_clean() ? 0 : 1;
}

int cmd_bounds(int argc, char** argv) {
  std::string protocol;
  std::optional<std::uint32_t> n, t;
  bool json = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--protocol") == 0 && i + 1 < argc) {
      protocol = argv[++i];
    } else if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      n = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--t") == 0 && i + 1 < argc) {
      t = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      return usage();
    }
  }
  std::optional<SystemParams> at;
  if (n || t) {
    if (!n || !t || !SystemParams{*n, *t}.valid()) {
      std::fprintf(stderr, "bounds: --n and --t must be given together "
                           "with t < n\n");
      return 2;
    }
    at = SystemParams{*n, *t};
  }

  std::vector<statics::StaticBounds> bounds;
  if (protocol.empty()) {
    for (const statics::CommSpec& spec : protocols::all_comm_specs()) {
      bounds.push_back(statics::analyze(spec));
    }
  } else {
    const statics::CommSpec* spec = protocols::find_comm_spec(protocol);
    if (!spec) {
      std::fprintf(stderr, "bounds: unknown protocol '%s'\n",
                   protocol.c_str());
      return 2;
    }
    bounds.push_back(statics::analyze(*spec));
  }

  if (json) {
    statics::write_bounds_json(std::cout, bounds, at);
  } else {
    statics::write_bounds_markdown(std::cout, bounds, at);
  }

  // The lower-bound gate: a correctness-claiming spec below t^2/32 is a
  // spec bug (the paper says no correct protocol can be there).
  const auto grid = at ? std::vector<SystemParams>{*at}
                       : statics::standard_cross_check_grid();
  const auto findings = statics::cross_check(bounds, grid);
  if (!json) {
    if (findings.empty()) {
      std::printf("\nlower-bound cross-check: all specs clear t^2/32\n");
    } else {
      for (const auto& finding : findings) {
        std::fprintf(stderr, "cross-check FAIL: %s\n",
                     finding.to_string().c_str());
      }
    }
  }
  return findings.empty() ? 0 : 1;
}

std::optional<std::vector<SystemParams>> parse_grid(const std::string& spec) {
  std::vector<SystemParams> grid;
  std::stringstream ss(spec);
  std::string point;
  while (std::getline(ss, point, ',')) {
    const auto colon = point.find(':');
    if (colon == std::string::npos) return std::nullopt;
    const auto n =
        static_cast<std::uint32_t>(std::atoi(point.substr(0, colon).c_str()));
    const auto t =
        static_cast<std::uint32_t>(std::atoi(point.substr(colon + 1).c_str()));
    if (!SystemParams{n, t}.valid()) return std::nullopt;
    grid.push_back({n, t});
  }
  if (grid.empty()) return std::nullopt;
  return grid;
}

int cmd_sweep(int argc, char** argv) {
  lowerbound::SweepOptions options;
  std::vector<SystemParams> grid = lowerbound::standard_sweep_grid();
  std::string json_path;
  std::string out_path;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      const auto jobs = parse_worker_count("sweep --jobs", argv[++i]);
      if (!jobs) return 2;
      options.jobs = *jobs;
    } else if (std::strcmp(argv[i], "--grid") == 0 && i + 1 < argc) {
      auto parsed = parse_grid(argv[++i]);
      if (!parsed) {
        std::fprintf(stderr, "bad --grid (want n:t[,n:t...] with t < n)\n");
        return 2;
      }
      grid = std::move(*parsed);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
      auto backend = resolve_backend(argv[++i]);
      if (!backend) return 2;
      options.attack.backend = backend->second;
    } else if (std::strcmp(argv[i], "--fault-axis") == 0) {
      // Optional value: a bare kind name ("isolate") or a full template
      // spec ("crash:0@3%head", count ignored); defaults to isolate.
      std::string axis = "isolate";
      if (i + 1 < argc && argv[i + 1][0] != '-') axis = argv[++i];
      faults::FaultSpec axis_spec;
      if (const auto kind = faults::find_fault_kind(axis)) {
        axis_spec.kind = *kind;
      } else {
        try {
          axis_spec = faults::parse_fault_spec(axis);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "%s\n", e.what());
          return 2;
        }
      }
      options.fault_axis = axis_spec;
    } else if (std::strcmp(argv[i], "--fault-seed") == 0 && i + 1 < argc) {
      options.fault_seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else {
      return usage();
    }
  }

  // Streaming NDJSON output: rows are emitted the moment their point
  // completes, reordered to index order, so the file is byte-identical
  // across --jobs values (the service's OrderedNdjsonWriter reorder
  // buffer; on_row calls are serialized by the sweep).
  std::unique_ptr<service::NdjsonFileWriter> out_file;
  std::unique_ptr<service::OrderedNdjsonWriter> out_ordered;
  if (!out_path.empty()) {
    out_file = std::make_unique<service::NdjsonFileWriter>(out_path);
    out_ordered = std::make_unique<service::OrderedNdjsonWriter>(
        [&](std::string_view line) { out_file->write_line(line); });
    options.on_row = [&](std::size_t index, const lowerbound::SweepRow& row) {
      out_ordered->put(index, lowerbound::encode_sweep_row_ndjson(row));
    };
  }

  lowerbound::SweepResult result;
  try {
    result = lowerbound::run_attack_sweep(lowerbound::standard_sweep_entries(),
                                          grid, options);
  } catch (const std::exception& e) {
    // E.g. a non-sweepable --fault-axis kind.
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  if (out_ordered && !out_ordered->drained()) {
    std::fprintf(stderr, "internal error: %s not fully drained\n",
                 out_path.c_str());
    return 1;
  }
  if (out_file) {
    std::printf("streamed %llu NDJSON rows to %s\n",
                static_cast<unsigned long long>(out_file->lines_written()),
                out_path.c_str());
  }
  lowerbound::write_markdown(std::cout, result);
  std::printf("\n%zu points, jobs=%u, %.3fs wall (%.1f points/sec)\n",
              result.rows.size(), result.jobs_used,
              static_cast<double>(result.wall_micros) / 1e6,
              result.wall_micros == 0
                  ? 0.0
                  : static_cast<double>(result.rows.size()) * 1e6 /
                        static_cast<double>(result.wall_micros));
  std::printf("Theorem 2 consistency: %s\n",
              result.theorem2_consistent() ? "HOLDS" : "VIOLATED");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    lowerbound::write_bench_json(out, result);
    std::printf("report written to %s\n", json_path.c_str());
  }
  return result.theorem2_consistent() ? 0 : 1;
}

int cmd_serve(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string campaign_file = argv[0];
  service::ServeOptions options;
  std::string serial_out;
  std::string bench_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--state") == 0 && i + 1 < argc) {
      options.state_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      const auto workers = parse_worker_count("serve --workers", argv[++i]);
      if (!workers) return 2;
      options.workers = *workers;
    } else if (std::strcmp(argv[i], "--respawns") == 0 && i + 1 < argc) {
      options.respawn_budget =
          static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--die-after") == 0 && i + 1 < argc) {
      options.die_after = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--stale-ms") == 0 && i + 1 < argc) {
      options.heartbeat_stale_ms =
          static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--serial") == 0 && i + 1 < argc) {
      serial_out = argv[++i];
    } else if (std::strcmp(argv[i], "--bench") == 0 && i + 1 < argc) {
      bench_out = argv[++i];
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      options.quiet = true;
    } else {
      return usage();
    }
  }
  std::ifstream in(campaign_file);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", campaign_file.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  try {
    const service::CampaignSpec spec =
        service::CampaignSpec::from_json(buf.str());
    service::ServeSummary summary;
    if (!serial_out.empty()) {
      // Single-shot reference run: no state dir, no workers, no cache.
      summary = service::run_campaign_serial(spec, serial_out);
    } else {
      if (options.state_dir.empty()) {
        std::fprintf(stderr, "serve: --state DIR is required\n");
        return 2;
      }
      summary = service::serve_campaign(spec, options);
    }
    std::printf(
        "campaign '%s': %llu tasks (%llu cached, %llu run, %llu rejected), "
        "%u workers, %u respawns, %.3fs -> %s\n",
        spec.name.c_str(),
        static_cast<unsigned long long>(summary.tasks_total),
        static_cast<unsigned long long>(summary.tasks_cached),
        static_cast<unsigned long long>(summary.tasks_run),
        static_cast<unsigned long long>(summary.rows_rejected),
        summary.workers_used, summary.respawns,
        static_cast<double>(summary.wall_micros) / 1e6,
        summary.results_file.c_str());
    if (!bench_out.empty()) {
      std::ofstream bench(bench_out);
      bench << service::bench_service_json(spec, summary);
      if (!bench) {
        std::fprintf(stderr, "failed to write %s\n", bench_out.c_str());
        return 1;
      }
      std::printf("bench report written to %s\n", bench_out.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

int cmd_serve_worker(int argc, char** argv) {
  service::WorkerOptions options;
  bool have_state = false, have_shard = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--state") == 0 && i + 1 < argc) {
      options.state_dir = argv[++i];
      have_state = true;
    } else if (std::strcmp(argv[i], "--shard") == 0 && i + 1 < argc) {
      options.shard = static_cast<std::uint32_t>(std::atoi(argv[++i]));
      have_shard = true;
    } else if (std::strcmp(argv[i], "--die-after") == 0 && i + 1 < argc) {
      options.die_after = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else {
      return usage();
    }
  }
  if (!have_state || !have_shard) return usage();
  return service::run_shard_worker(options);
}

std::optional<std::vector<int>> parse_bit_list(const std::string& spec) {
  std::vector<int> bits;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item != "0" && item != "1") return std::nullopt;
    bits.push_back(item == "1" ? 1 : 0);
  }
  if (bits.empty()) return std::nullopt;
  return bits;
}

std::optional<ProcessSet> parse_id_list(const std::string& spec) {
  ProcessSet ids;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty() ||
        item.find_first_not_of("0123456789") != std::string::npos) {
      return std::nullopt;
    }
    ids.insert(static_cast<ProcessId>(std::atoi(item.c_str())));
  }
  if (ids.empty()) return std::nullopt;
  return ids;
}

/// Schema-v2 provenance for async traces: [name, strategy, seed, 0] (the
/// fourth slot mirrors the sim backend's round_ticks and is meaningless for
/// delivery-at-a-time execution).
Value async_provenance(const std::string& strategy, std::uint64_t seed) {
  return Value::vec({Value{std::string{"async"}}, Value{strategy},
                     Value{static_cast<std::int64_t>(seed)},
                     Value{static_cast<std::int64_t>(0)}});
}

void print_async_decisions(const SystemParams& params,
                           const std::vector<int>& proposals,
                           const ProcessSet& faulty,
                           const async::AsyncRunResult& res) {
  for (ProcessId p = 0; p < params.n; ++p) {
    if (faulty.contains(p)) {
      std::printf("p%u: crashed\n", p);
      continue;
    }
    std::printf("p%u: proposes %d decides %s\n", p, proposals[p],
                res.run.decisions[p]
                    ? res.run.decisions[p]->to_string().c_str()
                    : "<none>");
  }
}

bool save_async_trace(const std::string& path,
                      const async::AsyncRunResult& res,
                      const std::string& strategy, std::uint64_t seed) {
  const Bytes encoded = encode_trace_with_provenance(
      res.run.trace, async_provenance(strategy, seed));
  if (write_file(path, encoded)) {
    std::printf("trace saved to %s (schema v2)\n", path.c_str());
    return true;
  }
  std::fprintf(stderr, "failed to write %s\n", path.c_str());
  return false;
}

int cmd_explore_replay(const std::string& path,
                       const std::string& save_trace) {
  auto bytes = read_file(path);
  if (!bytes) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 2;
  }
  async::ScheduleCertificate cert;
  try {
    cert = async::ScheduleCertificate::decode(
        std::string(bytes->begin(), bytes->end()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "explore: %s\n", e.what());
    return 2;
  }
  async::AsyncRunOptions opts;
  opts.max_deliveries = cert.max_deliveries;
  opts.record_trace = true;
  async::AsyncRunResult res;
  try {
    res = async::replay_certificate(cert, opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "explore: %s\n", e.what());
    return 2;
  }
  std::printf("certificate: %s violation of %s at n=%u t=%u "
              "(%zu scripted choices, %s completion)\n",
              cert.property.c_str(), cert.protocol.c_str(), cert.params.n,
              cert.params.t, cert.choices.size(),
              cert.completion_strategy.c_str());
  print_async_decisions(cert.params, cert.proposals, cert.faulty, res);
  auto violation = async::binary_consensus_safety(
      cert.params, cert.proposals, cert.faulty, res.run.decisions);
  const bool reproduced = violation && violation->property == cert.property;
  if (reproduced) {
    std::printf("replay: violation reproduced (%s: %s)\n",
                violation->property.c_str(), violation->detail.c_str());
  } else if (violation) {
    std::printf("replay: DIFFERENT violation (%s, certificate claims %s)\n",
                violation->property.c_str(), cert.property.c_str());
  } else {
    std::printf("replay: no violation -- certificate does not reproduce\n");
  }
  if (!save_trace.empty() &&
      !save_async_trace(save_trace, res, cert.completion_strategy,
                        cert.completion_seed)) {
    return 1;
  }
  return reproduced ? 0 : 1;
}

int cmd_explore(int argc, char** argv) {
  async::ExploreTask task;
  async::ExploreOptions options;
  std::string save_cert, save_trace, replay_path, fault_plan;
  std::optional<std::uint32_t> n, t;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--protocol") == 0 && i + 1 < argc) {
      task.protocol = argv[++i];
    } else if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      n = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--t") == 0 && i + 1 < argc) {
      t = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--proposals") == 0 && i + 1 < argc) {
      auto bits = parse_bit_list(argv[++i]);
      if (!bits) {
        std::fprintf(stderr, "explore: bad --proposals (want b,b,... with "
                             "b in {0,1})\n");
        return 2;
      }
      task.proposals = std::move(*bits);
    } else if (std::strcmp(argv[i], "--faulty") == 0 && i + 1 < argc) {
      auto ids = parse_id_list(argv[++i]);
      if (!ids) {
        std::fprintf(stderr, "explore: bad --faulty (want p,p,...)\n");
        return 2;
      }
      task.faulty = std::move(*ids);
    } else if (std::strcmp(argv[i], "--fault") == 0 && i + 1 < argc) {
      fault_plan = argv[++i];
    } else if (std::strcmp(argv[i], "--exhaustive") == 0) {
      options.exhaustive = true;
    } else if (std::strcmp(argv[i], "--depth") == 0 && i + 1 < argc) {
      options.depth = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--samples") == 0 && i + 1 < argc) {
      options.samples = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      options.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--start-index") == 0 && i + 1 < argc) {
      options.start_index = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--coin-seed") == 0 && i + 1 < argc) {
      task.coin_seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--strategy") == 0 && i + 1 < argc) {
      task.completion_strategy = argv[++i];
    } else if (std::strcmp(argv[i], "--strategy-seed") == 0 && i + 1 < argc) {
      task.completion_seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--max-deliveries") == 0 && i + 1 < argc) {
      task.max_deliveries = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      const auto jobs = parse_worker_count("explore --jobs", argv[++i]);
      if (!jobs) return 2;
      options.jobs = *jobs;
    } else if (std::strcmp(argv[i], "--save") == 0 && i + 1 < argc) {
      save_cert = argv[++i];
    } else if (std::strcmp(argv[i], "--save-trace") == 0 && i + 1 < argc) {
      save_trace = argv[++i];
    } else if (std::strcmp(argv[i], "--replay") == 0 && i + 1 < argc) {
      replay_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (!replay_path.empty()) return cmd_explore_replay(replay_path, save_trace);
  if (!n || !t) {
    std::fprintf(stderr, "explore: --n and --t are required\n");
    return 2;
  }
  task.params = SystemParams{*n, *t};
  if (!fault_plan.empty()) {
    // The async lowering of a fault plan: crash/mute become crash-from-start
    // (the set --faulty takes verbatim). Byzantine lowerings need replica
    // substitution, which the explorer's crash-only surface cannot host.
    async::AsyncAdversary adversary;
    try {
      adversary = faults::compile_async(
          faults::checked_fault_spec(fault_plan, task.params), task.params,
          options.seed);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    if (!adversary.byzantine.empty()) {
      std::fprintf(stderr,
                   "explore: fault plan '%s': explore drives crash-from-start "
                   "faults only\n",
                   fault_plan.c_str());
      return 2;
    }
    task.faulty = adversary.faulty;
  }
  if (task.proposals.empty()) {
    // Default instance: alternating proposals, the adversarially interesting
    // split (unanimous inputs decide regardless of schedule by validity).
    for (std::uint32_t p = 0; p < *n; ++p) {
      task.proposals.push_back(static_cast<int>(p % 2));
    }
  }

  async::ExploreReport report;
  try {
    report = async::explore(task, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "explore: %s\n", e.what());
    return 2;
  }
  std::printf("%s n=%u t=%u coin-seed %llu: explored %llu schedules (%s)\n",
              task.protocol.c_str(), *n, *t,
              static_cast<unsigned long long>(task.coin_seed),
              static_cast<unsigned long long>(report.schedules),
              options.exhaustive ? "exhaustive" : "sampling");
  std::printf("deliveries %llu, quiesced %llu, all-decided %llu, "
              "violations %llu\n",
              static_cast<unsigned long long>(report.deliveries),
              static_cast<unsigned long long>(report.quiesced),
              static_cast<unsigned long long>(report.all_decided),
              static_cast<unsigned long long>(report.violations));
  std::printf("digest %016llx\n",
              static_cast<unsigned long long>(report.digest));
  if (!options.exhaustive) {
    std::printf("next start-index: %llu\n",
                static_cast<unsigned long long>(report.next_index));
  }

  // One representative run (empty scripted prefix, completion strategy
  // throughout) carries the trace surface: lint it against the protocol's
  // statically derived message budget and optionally save it for lint_trace.
  async::ScheduleCertificate probe;
  probe.protocol = task.protocol;
  probe.params = task.params;
  probe.proposals = task.proposals;
  probe.faulty = task.faulty;
  probe.coin_seed = task.coin_seed;
  probe.completion_strategy = task.completion_strategy;
  probe.completion_seed = task.completion_seed;
  probe.max_deliveries = task.max_deliveries;
  async::AsyncRunOptions ropts;
  ropts.max_deliveries = task.max_deliveries;
  ropts.record_trace = true;
  ropts.lint_trace = true;
  if (const statics::CommSpec* spec =
          protocols::find_comm_spec(task.protocol)) {
    ropts.message_budget =
        statics::budget_at(statics::analyze(*spec), task.params).messages;
  }
  async::AsyncRunResult rep;
  try {
    rep = async::replay_certificate(probe, ropts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "explore: %s\n", e.what());
    return 2;
  }
  std::printf("representative run (%s completion): %llu deliveries, "
              "quiesced=%s\n",
              task.completion_strategy.c_str(),
              static_cast<unsigned long long>(rep.deliveries),
              rep.run.quiesced ? "yes" : "no");
  if (rep.run.lint) {
    std::printf("trace lint: %s\n", rep.run.lint->summary().c_str());
  }
  if (!save_trace.empty() &&
      !save_async_trace(save_trace, rep, task.completion_strategy,
                        task.completion_seed)) {
    return 1;
  }

  if (report.certificate) {
    const async::ScheduleCertificate& cert = *report.certificate;
    std::printf("violation (%s): %s\n", cert.property.c_str(),
                cert.detail.c_str());
    std::printf("minimized certificate: %zu scripted choices\n",
                cert.choices.size());
    if (!save_cert.empty()) {
      const std::string text = cert.encode();
      if (write_file(save_cert, Bytes(text.begin(), text.end()))) {
        std::printf("certificate saved to %s\n", save_cert.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n", save_cert.c_str());
      }
    }
    return 1;
  }
  std::printf("no safety violations across explored schedules\n");
  return rep.run.lint_clean() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "bound") return cmd_bound(argc - 2, argv + 2);
  if (cmd == "attack") return cmd_attack(argc - 2, argv + 2);
  if (cmd == "dr-attack") return cmd_dr_attack(argc - 2, argv + 2);
  if (cmd == "verify") return cmd_verify(argc - 2, argv + 2);
  if (cmd == "solvability") return cmd_solvability(argc - 2, argv + 2);
  if (cmd == "run") return cmd_run(argc - 2, argv + 2);
  if (cmd == "sweep") return cmd_sweep(argc - 2, argv + 2);
  if (cmd == "serve") return cmd_serve(argc - 2, argv + 2);
  if (cmd == "serve-worker") return cmd_serve_worker(argc - 2, argv + 2);
  if (cmd == "bounds") return cmd_bounds(argc - 2, argv + 2);
  if (cmd == "sim") return cmd_sim(argc - 2, argv + 2);
  if (cmd == "explore") return cmd_explore(argc - 2, argv + 2);
  return usage();
}
