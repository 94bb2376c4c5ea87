// THM31: the headline reproduction — measured adversarial broadcast time
// vs Theorem 3.1's bracket ⌈(3n−1)/2⌉−2 ≤ t*(T_n) ≤ ⌈(1+√2)n−1⌉.
//
// The implementation is `dynbcast sweep` (tools/cli.cpp), kept under its
// historical bench name so existing scripts and the committed golden
// CSVs keep working: the portfolio sweep runs as a declarative
// ScenarioSpec through the registry, beam witnesses shard through the
// engine, and output stays byte-identical at every --jobs value.
//
// Usage: thm31_adversary_sweep [--sizes=4:512:2] [--seed=1] [--seeds=R]
//                              [--jobs=N] [--csv=path] [--beam-maxn=32]
//                              [--beam-width=256] [--adversaries=SPECS]
// This bench IS `dynbcast sweep` under its historical name (CMake links
// dynbcast_cli for exactly this forwarder), so the one bench->tools
// include edge is deliberate, not drift.
// dynbcast-lint: allow(layer-include) -- historical forwarder to the CLI
#include "tools/cli.h"

int main(int argc, char** argv) {
  return dynbcast::cli::runSweepCommand(argc, argv);
}
