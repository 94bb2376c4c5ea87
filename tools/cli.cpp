#include "tools/cli.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <iostream>
#include <limits>
#include <map>

#include "bench/driver.h"
#include "src/adversary/portfolio.h"
#include "src/adversary/registry.h"
#include "src/analysis/csv.h"
#include "src/bounds/theorem.h"
#include "src/dynamics/registry.h"
#include "src/engine/scenario.h"
#include "src/service/client.h"
#include "src/service/job.h"
#include "src/service/server.h"
#include "src/service/worker.h"
#include "src/support/options.h"
#include "src/support/table.h"

namespace dynbcast::cli {

namespace {

/// Uniform error surface: subcommands throw std::invalid_argument for
/// user errors (bad flags, unknown specs); this catches and reports.
template <typename F>
int guarded(F&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    std::cerr << "dynbcast: " << e.what() << '\n';
    return 2;
  }
}

int usage(std::ostream& os) {
  os << "usage: dynbcast <subcommand> [flags]\n\n"
        "subcommands:\n"
        "  sweep      Theorem 3.1 sweep (default rooted-tree dynamics: "
        "portfolio + beam\n"
        "             witnesses vs the paper's bracket; any other "
        "--dynamics runs the\n"
        "             model-zoo sweep over sizes x seed replicates)\n"
        "             [--sizes=4:128:2] [--seed=1] [--seeds=R] [--jobs=N]\n"
        "             [--csv=path] [--adversaries=SPECS] "
        "[--dynamics=SPEC] [--summary]\n"
        "             [--cap=ROUNDS] [--beam-maxn=32] [--beam-width=256]\n"
        "             [--backend=dense|sparse|auto] (graph-model dynamics "
        "only)\n"
        "  portfolio  general scenario runner over objective x dynamics x "
        "adversaries\n"
        "             [--objective=broadcast|gossip] [--dynamics=SPEC]\n"
        "             [--sizes=8:64:2] [--seed=1] [--seeds=R] [--jobs=N]\n"
        "             [--cap=ROUNDS] [--csv=path] [--adversaries=SPECS] "
        "[--summary]\n"
        "             [--backend=dense|sparse|auto]\n"
        "  duel       all listed adversaries fight one instance\n"
        "             [--n=32] [--seed=7] [--adversaries=SPECS] "
        "[--csv=path]\n"
        "  list       registered adversaries, the dynamics model zoo, and "
        "scenario vocabulary\n"
        "  serve      experiment service: checkpointed manifests, "
        "spec-keyed result\n"
        "             cache, optional worker-process sharding\n"
        "             --socket=PATH --state=DIR [--workers=N] [--jobs=J]\n"
        "             [--max-requests=K]\n"
        "  submit     run a sweep through a running server (sweep's flags "
        "except --jobs,\n"
        "             plus --socket=PATH; --csv output is byte-identical "
        "to sweep's)\n"
        "  work       execute a manifest's unfinished tasks "
        "(server workers run this)\n"
        "             --manifest=PATH [--cache=DIR] [--jobs=J] "
        "[--range=A:B]\n"
        "\n"
        "adversary SPECS are ';'-separated registry spec strings, e.g.\n"
        "  --adversaries=\"static-path;freeze-path:depth=3;beam:width=64\"\n"
        "dynamics SPEC is one DynamicsRegistry spec string, e.g.\n"
        "  --dynamics=edge-markovian:p=0.2,q=0.1   (see 'dynbcast list')\n";
  return 2;
}

/// --summary: per-(n, member) aggregate over seed replicates, in
/// first-appearance order (size-major, member order within each size).
/// Incomplete (capped) runs count into the stats — a stalled stochastic
/// model shows up as mean pinned at the cap, not as silence.
[[nodiscard]] TextTable summaryTable(const std::vector<SweepRow>& rows) {
  struct Acc {
    std::size_t n = 0;
    std::string member;
    std::size_t runs = 0;
    std::size_t completed = 0;
    std::size_t minRounds = 0;
    std::size_t maxRounds = 0;
    double sum = 0.0;
    double sumSq = 0.0;
  };
  std::vector<Acc> groups;
  std::map<std::pair<std::size_t, std::string>, std::size_t> index;
  for (const SweepRow& row : rows) {
    const auto key = std::make_pair(row.n, row.member);
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, groups.size()).first;
      groups.push_back({row.n, row.member, 0, 0, row.rounds, row.rounds,
                        0.0, 0.0});
    }
    Acc& acc = groups[it->second];
    acc.runs += 1;
    acc.completed += row.completed ? 1 : 0;
    acc.minRounds = std::min(acc.minRounds, row.rounds);
    acc.maxRounds = std::max(acc.maxRounds, row.rounds);
    const double r = static_cast<double>(row.rounds);
    acc.sum += r;
    acc.sumSq += r * r;
  }
  TextTable table({"n", "member", "runs", "completed", "min", "mean", "max",
                   "stddev"});
  for (const Acc& acc : groups) {
    const double mean = acc.sum / static_cast<double>(acc.runs);
    const double variance =
        acc.sumSq / static_cast<double>(acc.runs) - mean * mean;
    table.row()
        .add(static_cast<std::uint64_t>(acc.n))
        .add(acc.member)
        .add(static_cast<std::uint64_t>(acc.runs))
        .add(static_cast<std::uint64_t>(acc.completed))
        .add(static_cast<std::uint64_t>(acc.minRounds))
        .add(mean, 2)
        .add(static_cast<std::uint64_t>(acc.maxRounds))
        .add(std::sqrt(std::max(0.0, variance)), 2);
  }
  return table;
}

void emitSummary(const std::vector<SweepRow>& rows) {
  std::cout << "per-(n, member) summary over seed replicates:\n"
            << summaryTable(rows).render() << '\n';
}

/// The Theorem 3.1 bracket table: one row per size, best-of portfolio
/// and beam witness vs the paper's bounds.
[[nodiscard]] TextTable thm31Table(
    const std::vector<std::size_t>& sizes, std::size_t replicates,
    const std::vector<SweepInstance>& instances,
    const std::vector<std::size_t>& beamRounds, bool* anyViolation) {
  TextTable table({"n", "lower bound", "portfolio t*", "beam witness t*",
                   "best t*", "upper bound", "t*/n", "upper ok"});
  *anyViolation = false;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::size_t n = sizes[i];
    // Portfolio t* for this n: best over its --seeds replicates (the
    // instances are size-major, replicates contiguous).
    std::size_t portfolioBest = 0;
    for (std::size_t r = 0; r < replicates; ++r) {
      portfolioBest = std::max(
          portfolioBest, instances[i * replicates + r].portfolio.bestRounds);
    }
    const std::size_t beam = beamRounds[i];
    const std::size_t best = std::max(portfolioBest, beam);
    const TheoremCheck check = checkTheorem31(n, best);
    *anyViolation |= !check.withinUpper;
    table.row()
        .add(static_cast<std::uint64_t>(n))
        .add(check.lower)
        .add(static_cast<std::uint64_t>(portfolioBest))
        .add(beam == 0 ? std::string("-") : std::to_string(beam))
        .add(static_cast<std::uint64_t>(best))
        .add(check.upper)
        .add(check.ratio, 3)
        .add(check.withinUpper ? "yes" : "VIOLATION");
  }
  return table;
}

void emitPerAdversaryDetail(const std::vector<SweepInstance>& instances) {
  if (instances.empty()) return;
  // The detail rows come straight from the sweep — no second run.
  const SweepInstance& last = instances.back();
  std::cout << "per-adversary detail at the largest n:\n";
  TextTable per({"adversary", "t*", "t*/n", "completed"});
  for (const auto& e : last.portfolio.entries) {
    per.row()
        .add(e.name)
        .add(static_cast<std::uint64_t>(e.rounds))
        .add(static_cast<double>(e.rounds) / static_cast<double>(last.n), 3)
        .add(e.completed ? "yes" : "no");
  }
  std::cout << per.render() << '\n';
}

/// One table row per (n, seed, member) run: the model-zoo sweep's table
/// (member column "member") and `portfolio`'s ("adversary").
[[nodiscard]] TextTable rowsTable(const std::vector<SweepRow>& rows,
                                  const std::string& memberColumn) {
  TextTable table(
      {"n", "seed", memberColumn, "rounds", "rounds/n", "completed"});
  for (const SweepRow& row : rows) {
    table.row()
        .add(static_cast<std::uint64_t>(row.n))
        .add(static_cast<std::uint64_t>(row.seedIndex))
        .add(row.member)
        .add(static_cast<std::uint64_t>(row.rounds))
        .add(static_cast<double>(row.rounds) / static_cast<double>(row.n), 3)
        .add(row.completed ? "yes" : "no");
  }
  return table;
}

/// Prints the table; also writes it to --csv when the flag is present.
void emitTable(const Options& opts, const TextTable& table) {
  std::cout << table.render() << '\n';
  if (opts.has("csv")) {
    const std::string path = opts.getString("csv", "sweep.csv");
    writeCsv(path, table);
    std::cout << "wrote CSV to " << path << '\n';
  }
}

/// What sets one command's report apart from the other's: the banner's
/// parenthetical, a note under the banner, and lines after the tables.
struct ReportFrame {
  std::string provenance;
  std::string preamble;
  std::string footer;
};

/// The one report of a finished job, shared by `sweep` (in-process) and
/// `submit` (served), whose stdout and CSV must match byte for byte: the
/// Theorem 3.1 bracket report when the request has a beam pass, else the
/// model-zoo rows. Returns the exit code, 1 on an upper-bound violation.
int emitJobReport(const Options& opts, const ServiceRequest& request,
                  const ServiceJobResult& result, const ReportFrame& frame) {
  const ScenarioSpec& spec = request.scenario;
  const bool thm31 = requestWantsBeamWitnesses(request);
  const std::string title =
      thm31 ? std::string("THM31 — adversaries vs Theorem 3.1")
            : "SWEEP — dynamics=" +
                  DynamicsSpec::parse(spec.dynamics).toString() +
                  ", backend=" + backendChoiceName(spec.backend);
  std::cout << title << " (" << frame.provenance << ")\n\n" << frame.preamble;
  if (!thm31) {
    emitTable(opts, rowsTable(result.rows, "member"));
    if (opts.has("summary")) emitSummary(result.rows);
    std::cout << frame.footer;
    return 0;
  }
  bool anyViolation = false;
  emitTable(opts, thm31Table(spec.sizes, spec.seedsPerSize, result.instances,
                             result.beamRounds, &anyViolation));
  emitPerAdversaryDetail(result.instances);
  if (opts.has("summary")) emitSummary(result.rows);
  std::cout << frame.footer;
  if (anyViolation) {
    std::cout << "RESULT: UPPER BOUND VIOLATION DETECTED (bug!)\n";
    return 1;
  }
  std::cout << "RESULT: all runs within the theorem's upper bound.\n";
  return 0;
}

/// The scenario flags the scenario commands share (--objective,
/// --dynamics, --sizes, --seed, --seeds, --cap, --adversaries,
/// --backend), read into a spec. A command rejects the flags it does not
/// take before this runs, so those keep their defaults.
[[nodiscard]] ScenarioSpec scenarioFromFlags(const Options& opts,
                                             const std::string& defaultSizes) {
  ScenarioSpec scenario;
  scenario.objective = parseObjective(opts.getString("objective", "broadcast"));
  scenario.dynamics = opts.getString("dynamics", "rooted-tree");
  scenario.sizes = parseSizeList(opts.getString("sizes", defaultSizes));
  scenario.masterSeed = opts.getUInt("seed", 1);
  scenario.seedsPerSize = opts.getUInt("seeds", 1);
  scenario.roundCap = opts.getUInt("cap", 0);
  scenario.adversaries = splitSpecList(opts.getString("adversaries", ""));
  scenario.backend = parseBackendChoice(opts.getString("backend", "auto"));
  return scenario;
}

/// The request `sweep` runs and `submit` sends, validated before any
/// output: bad specs fail with the registry's or the beam's message.
[[nodiscard]] ServiceRequest requestFromFlags(const Options& opts) {
  ServiceRequest request;
  request.scenario = scenarioFromFlags(opts, "4:128:2");
  // Beam witness search is the strongest (offline) adversary; it costs
  // real time and its advantage concentrates at small-to-mid n, so it
  // runs only up to a size cap by default.
  request.beamMaxN = opts.getUInt("beam-maxn", 32);
  request.beamWidth = opts.getUInt("beam-width", 256);
  validateServiceRequest(request);
  return request;
}

}  // namespace

std::vector<std::string> splitSpecList(const std::string& text) {
  std::vector<std::string> specs;
  std::string current;
  for (const char c : text) {
    if (c == ';' || c == '\n') {
      if (!current.empty()) specs.push_back(current);
      current.clear();
      continue;
    }
    if ((c == ' ' || c == '\t') && current.empty()) continue;
    current += c;
  }
  if (!current.empty()) specs.push_back(current);
  for (std::string& spec : specs) {
    while (!spec.empty() && (spec.back() == ' ' || spec.back() == '\t')) {
      spec.pop_back();
    }
  }
  return specs;
}

int runSweepCommand(int argc, const char* const* argv) {
  return guarded([&] {
    BenchDriver driver(argc, argv, "4:128:2", 1);
    driver.options().requireKnown(
        {"sizes", "seed", "seeds", "jobs", "csv", "summary", "dynamics",
         "adversaries", "cap", "backend", "beam-maxn", "beam-width"});
    // The same job a server would run for `submit` with these flags: any
    // non-default dynamics is a model-zoo sweep, the default rooted-tree
    // dynamics adds one beam-witness task per size. Every task, rows and
    // beam tasks alike, is one pool task; map()'s seeds go unused, as
    // tasks derive theirs from (request, position).
    const ServiceRequest request = requestFromFlags(driver.options());
    const ServiceJob job(request);
    const std::vector<ServiceTaskResult> results =
        driver.engine().map<ServiceTaskResult>(
            job.plan().taskCount(), 0,
            [&job](std::size_t position, std::uint64_t) {
              return job.execute(position);
            });

    ReportFrame frame;
    frame.provenance = "seed=" + std::to_string(driver.seed()) +
                       ", jobs=" + std::to_string(driver.jobs());
    if (requestWantsBeamWitnesses(request)) {
      frame.preamble =
          "best t* = max(online portfolio, offline beam witness for n <= " +
          std::to_string(request.beamMaxN) + ")\n\n";
    }
    return emitJobReport(driver.options(), request, job.assemble(results),
                         frame);
  });
}

int runPortfolio(int argc, const char* const* argv) {
  return guarded([&] {
    BenchDriver driver(argc, argv, "8:64:2", 1);
    driver.options().requireKnown({"sizes", "seed", "seeds", "jobs", "csv",
                                   "summary", "objective", "dynamics",
                                   "adversaries", "cap", "backend"});
    const ScenarioSpec scenario = scenarioFromFlags(driver.options(), "8:64:2");
    validateScenario(scenario);  // before any output
    driver.printHeader(
        "SCENARIO — objective=" + objectiveName(scenario.objective) +
        ", dynamics=" + DynamicsSpec::parse(scenario.dynamics).toString() +
        ", backend=" + backendChoiceName(scenario.backend));
    const ScenarioResult result = runScenario(scenario, driver.engine());

    emitTable(driver.options(), rowsTable(result.rows, "adversary"));

    std::cout << "strongest adversary per instance (Definition 2.3's "
                 "max over the listed specs):\n";
    TextTable best({"n", "seed", "best adversary", "best rounds"});
    for (const SweepInstance& instance : result.instances) {
      best.row()
          .add(static_cast<std::uint64_t>(instance.n))
          .add(static_cast<std::uint64_t>(instance.seedIndex))
          .add(instance.portfolio.bestName.empty()
                   ? std::string("- (none completed)")
                   : instance.portfolio.bestName)
          .add(static_cast<std::uint64_t>(instance.portfolio.bestRounds));
    }
    std::cout << best.render() << '\n';
    if (driver.options().has("summary")) emitSummary(result.rows);
    return 0;
  });
}

int runDuel(int argc, const char* const* argv) {
  return guarded([&] {
    const Options opts(argc, argv);
    opts.requireKnown({"n", "seed", "adversaries", "csv"});
    const std::size_t n = opts.getUInt("n", 32);
    const std::uint64_t seed = opts.getUInt("seed", 7);
    std::vector<std::string> specs =
        splitSpecList(opts.getString("adversaries", ""));
    if (specs.empty()) specs = standardPortfolioSpecs();
    validateScenarioSize(n);  // before any output
    const std::vector<PortfolioMember> members =
        membersFromSpecs(specs, n, seed);

    std::cout << "adversary duel at n = " << n << " (seed " << seed
              << ")\n\n";
    const PortfolioResult result = runPortfolio(n, members);

    TextTable table({"adversary", "t*", "t*/n", "vs static path"});
    for (const auto& e : result.entries) {
      const double ratio =
          static_cast<double>(e.rounds) / static_cast<double>(n);
      const std::int64_t delta = static_cast<std::int64_t>(e.rounds) -
                                 static_cast<std::int64_t>(n - 1);
      table.row()
          .add(e.name)
          .add(static_cast<std::uint64_t>(e.rounds))
          .add(ratio, 3)
          .add((delta >= 0 ? "+" : "") + std::to_string(delta));
    }
    std::cout << table.render() << '\n';
    if (opts.has("csv")) {
      const std::string path = opts.getString("csv", "duel.csv");
      writeCsv(path, table);
      std::cout << "wrote CSV to " << path << '\n';
    }

    const TheoremCheck check = checkTheorem31(n, result.bestRounds);
    std::cout << "champion: " << result.bestName
              << " with t* = " << result.bestRounds << "\n"
              << "Theorem 3.1 bracket [" << check.lower << ", "
              << check.upper << "]; champion ratio " << check.ratio << "\n";
    return 0;
  });
}

int runList(int argc, const char* const* argv) {
  return guarded([&] {
    Options(argc, argv).requireKnown({});
    const auto printParams = [](const std::vector<SpecParamDoc>& params) {
      for (const SpecParamDoc& param : params) {
        std::cout << "      " << param.key << "=" << param.defaultValue
                  << "  " << param.description << '\n';
      }
    };
    const AdversaryRegistry& registry = AdversaryRegistry::instance();
    std::cout << "registered adversaries (spec grammar: "
                 "name[:key=value[,key=value]...]):\n\n";
    for (const std::string& name : registry.names()) {
      const AdversaryInfo& info = registry.info(name);
      std::cout << "  " << name << "\n      " << info.description << '\n';
      printParams(info.params);
    }

    const DynamicsRegistry& dynRegistry = DynamicsRegistry::instance();
    std::cout << "\ndynamics model zoo (--dynamics=SPEC, same grammar):\n\n";
    for (const std::string& name : dynRegistry.names()) {
      const DynamicsInfo& info = dynRegistry.info(name);
      std::cout << "  " << name << "  ["
                << (info.mode == DynamicsMode::kGraphModel
                        ? "graph model"
                        : "adversary-driven")
                << ", class=" << dynamicsClassName(info.graphClass)
                << (info.stochastic ? ", stochastic" : "")
                << (info.sparseCapable ? ", sparse-capable" : "")
                << "]\n      " << info.description << '\n';
      if (!info.literature.empty()) {
        std::cout << "      literature: " << info.literature << '\n';
      }
      printParams(info.params);
    }

    std::cout << "\nscenario vocabulary (sweep/portfolio subcommands):\n"
                 "  --objective=broadcast|gossip (gossip: adversary-driven "
                 "dynamics only)\n"
                 "  --dynamics=SPEC from the model zoo above\n"
                 "  --adversaries=SPECS (adversary-driven dynamics; graph "
                 "models take none)\n"
                 "  --backend=dense|sparse|auto (sparse: frontier "
                 "simulation for sparse-capable\n"
                 "    graph models above; auto switches past n=4096 — rows "
                 "are backend-invariant)\n"
                 "  --summary prints per-(n, member) stats over --seeds "
                 "replicates\n"
                 "\nservice mode (serve/submit/work subcommands):\n"
                 "  dynbcast serve --socket=PATH --state=DIR [--workers=N] "
                 "runs the experiment\n"
                 "    service: jobs are checkpointed to a run manifest and "
                 "results cached by\n"
                 "    canonical spec + seed + position, so interrupted jobs "
                 "resume and\n"
                 "    overlapping requests execute only their delta\n"
                 "  dynbcast submit --socket=PATH <sweep flags> runs a "
                 "sweep through the\n"
                 "    service; its --csv output is byte-identical to "
                 "`dynbcast sweep`'s\n"
                 "  dynbcast work --manifest=PATH executes a job's "
                 "unfinished tasks (the\n"
                 "    server shards jobs by spawning these)\n";
    return 0;
  });
}

namespace {

/// The running binary's own path, for the server to exec as worker
/// processes. Linux-specific by design — same trust boundary as the
/// unix socket the service listens on.
[[nodiscard]] std::string selfExecutablePath() {
  char buffer[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof buffer - 1);
  if (n <= 0) return "";
  buffer[n] = '\0';
  return std::string(buffer);
}

}  // namespace

int runServe(int argc, const char* const* argv) {
  return guarded([&] {
    const Options opts(argc, argv);
    opts.requireKnown({"socket", "state", "workers", "jobs", "max-requests",
                       "worker-max-tasks", "worker-binary"});
    ServerOptions server;
    server.socketPath = opts.getString("socket", "");
    server.stateDir = opts.getString("state", "");
    if (server.socketPath.empty() || server.stateDir.empty()) {
      throw std::invalid_argument(
          "serve: --socket=PATH and --state=DIR are required");
    }
    server.workers = opts.getUInt("workers", 0);
    server.jobsPerWorker = opts.getUInt("jobs", 1);
    server.maxRequests = opts.getUInt("max-requests", 0);
    // Fault injection for resume tests: first-wave workers stop after
    // this many tasks, exactly as if killed at a task boundary.
    server.workerMaxTasks = opts.getUInt("worker-max-tasks", 0);
    server.workerBinary = opts.getString("worker-binary", "");
    if (server.workers > 0 && server.workerBinary.empty()) {
      server.workerBinary = selfExecutablePath();
      if (server.workerBinary.empty()) {
        throw std::invalid_argument(
            "serve: cannot resolve the worker binary; pass "
            "--worker-binary=PATH");
      }
    }
    std::cout << "dynbcast serve: socket=" << server.socketPath
              << " state=" << server.stateDir
              << " workers=" << server.workers
              << " jobs=" << server.jobsPerWorker << std::endl;
    return runServer(server);
  });
}

int runSubmit(int argc, const char* const* argv) {
  return guarded([&] {
    const Options opts(argc, argv);
    opts.requireKnown({"socket", "sizes", "seed", "seeds", "csv", "summary",
                       "objective", "dynamics", "adversaries", "cap",
                       "backend", "beam-maxn", "beam-width"});
    const std::string socket = opts.getString("socket", "");
    if (socket.empty()) {
      throw std::invalid_argument("submit: --socket=PATH is required");
    }
    // Validated client-side: a bad spec fails with the registry's full
    // message instead of a round-trip to the server.
    const ServiceRequest request = requestFromFlags(opts);

    // PROGRESS goes to stderr so stdout stays table-shaped like sweep's.
    const SubmitOutcome outcome =
        submitRequest(socket, request, &std::cerr);

    ReportFrame frame;
    frame.provenance =
        "served; seed=" + std::to_string(request.scenario.masterSeed);
    frame.footer = "service: job=" + outcome.jobId +
                   " tasks=" + std::to_string(outcome.tasks) +
                   " resumed=" + std::to_string(outcome.resumed) +
                   " cache-hits=" + std::to_string(outcome.cacheHits) +
                   " executed=" + std::to_string(outcome.executed) + "\n";
    return emitJobReport(opts, request, outcome, frame);
  });
}

int runWork(int argc, const char* const* argv) {
  return guarded([&] {
    const Options opts(argc, argv);
    opts.requireKnown({"manifest", "cache", "jobs", "max-tasks", "range"});
    WorkerOptions work;
    work.manifestPath = opts.getString("manifest", "");
    if (work.manifestPath.empty()) {
      throw std::invalid_argument("work: --manifest=PATH is required");
    }
    work.cacheDir = opts.getString("cache", "");
    work.jobs = opts.getUInt("jobs", 1);
    work.maxTasks = opts.getUInt(
        "max-tasks", std::numeric_limits<std::size_t>::max());
    const std::string range = opts.getString("range", "");
    if (!range.empty()) {
      const std::size_t colon = range.find(':');
      if (colon == std::string::npos) {
        throw std::invalid_argument("work: --range expects BEGIN:END, got '" +
                                    range + "'");
      }
      work.rangeBegin = parseUnsigned(range.substr(0, colon), "work: --range");
      work.rangeEnd = parseUnsigned(range.substr(colon + 1), "work: --range");
    }
    const WorkerReport report = runManifestWorker(work);
    std::cout << "work: assigned=" << report.assigned
              << " already-done=" << report.alreadyDone
              << " cache-hits=" << report.cacheHits
              << " executed=" << report.executed
              << " remaining=" << report.remaining << '\n';
    return 0;
  });
}

int dispatch(int argc, const char* const* argv) {
  if (argc < 2) return usage(std::cerr);
  const std::string subcommand = argv[1];
  if (subcommand == "sweep") return runSweepCommand(argc - 1, argv + 1);
  if (subcommand == "portfolio") return runPortfolio(argc - 1, argv + 1);
  if (subcommand == "duel") return runDuel(argc - 1, argv + 1);
  if (subcommand == "list") return runList(argc - 1, argv + 1);
  if (subcommand == "serve") return runServe(argc - 1, argv + 1);
  if (subcommand == "submit") return runSubmit(argc - 1, argv + 1);
  if (subcommand == "work") return runWork(argc - 1, argv + 1);
  if (subcommand == "help" || subcommand == "--help" || subcommand == "-h") {
    usage(std::cout);
    return 0;
  }
  std::cerr << "dynbcast: "
            << unknownNameMessage("subcommand", subcommand,
                                  {"sweep", "portfolio", "duel", "list",
                                   "serve", "submit", "work"},
                                  "")
            << "\n\n";
  return usage(std::cerr);
}

}  // namespace dynbcast::cli
