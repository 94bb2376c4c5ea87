// The dynbcast CLI: one binary over the whole experiment surface.
//
// Subcommands (each also callable as a library function, so bench
// binaries can forward to them — bench_thm31_adversary_sweep is
// `cli::runSweepCommand` under its historical name):
//
//   sweep      Theorem 3.1 reproduction under the default rooted-tree
//              dynamics: portfolio sweep + beam witnesses vs the paper's
//              bracket (the committed golden CSVs are byte-identical
//              artifacts of this command). With any other
//              --dynamics=SPEC it sweeps that model-zoo entry instead
//              (stochastic-dynamics golden CSVs come from here too).
//   portfolio  the general scenario runner: any objective × dynamics ×
//              adversary spec list, unified per-run rows.
//   duel       every listed adversary fights one (n, seed) instance;
//              champion vs the theorem bracket.
//   list       registered adversary specs, the dynamics model zoo, and
//              the scenario vocabulary.
//   serve      the experiment service: accepts submit requests over a
//              unix socket, executes them on a checkpointed manifest
//              with a spec-keyed result cache, optionally sharded
//              across worker processes (src/service/).
//   submit     client for serve: sends one sweep-shaped request and
//              renders the streamed results exactly as `sweep` would —
//              the --csv artifact is byte-identical.
//   work       executes a manifest's unfinished tasks (what the
//              server's worker processes run; also usable standalone).
//
// Every subcommand that sweeps sizes speaks the shared bench/driver
// dialect (--sizes/--seed/--seeds/--jobs/--csv) and accepts --summary
// (per-(n, member) mean/min/max/stddev over the --seeds replicates);
// adversary lists are semicolon-separated registry spec strings, e.g.
//   --adversaries="static-path;freeze-path:depth=3;beam:width=64",
// and --dynamics takes one DynamicsRegistry spec string, e.g.
//   --dynamics=edge-markovian:p=0.2,q=0.1.
#pragma once

#include <string>
#include <vector>

namespace dynbcast::cli {

/// Splits an --adversaries flag value on ';' (and newlines), trimming
/// whitespace and dropping empties — "a;b;c" → {a, b, c}.
[[nodiscard]] std::vector<std::string> splitSpecList(const std::string& text);

/// Subcommand entry points. argv[0] is the program/subcommand name;
/// flags follow. Each returns a process exit code and reports
/// std::invalid_argument errors on stderr.
int runSweepCommand(int argc, const char* const* argv);
int runPortfolio(int argc, const char* const* argv);
int runDuel(int argc, const char* const* argv);
int runList(int argc, const char* const* argv);
int runServe(int argc, const char* const* argv);
int runSubmit(int argc, const char* const* argv);
int runWork(int argc, const char* const* argv);

/// Full-argv dispatcher used by the dynbcast binary: argv[1] selects the
/// subcommand; no/unknown subcommand prints usage.
int dispatch(int argc, const char* const* argv);

}  // namespace dynbcast::cli
