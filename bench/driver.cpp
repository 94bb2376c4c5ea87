#include "bench/driver.h"

#include <iostream>

#include "src/analysis/csv.h"

namespace dynbcast {

namespace {

EngineConfig configFrom(const Options& opts) {
  EngineConfig config;
  config.jobs = opts.getUInt("jobs", 0);  // 0 = all hardware threads
  return config;
}

}  // namespace

BenchDriver::BenchDriver(int argc, const char* const* argv,
                         const std::string& defaultSizes,
                         std::uint64_t defaultSeed)
    : opts_(argc, argv),
      sizes_(parseSizeList(opts_.getString("sizes", defaultSizes))),
      seed_(opts_.getUInt("seed", defaultSeed)),
      seedsPerSize_(opts_.getUInt("seeds", 1)),
      engine_(configFrom(opts_)) {}

void BenchDriver::printHeader(const std::string& title) const {
  std::cout << title << " (seed=" << seed_ << ", jobs=" << jobs() << ")\n\n";
}

void BenchDriver::emit(const TextTable& table) const {
  std::cout << table.render() << '\n';
  if (opts_.has("csv")) {
    const std::string path = opts_.getString("csv", "bench.csv");
    writeCsv(path, table);
    std::cout << "wrote CSV to " << path << '\n';
  }
}

}  // namespace dynbcast
