// Minimal command-line option parsing for the dynbcast CLI, examples and
// bench binaries.
//
// Supports --key=value, --key value, and --flag forms; positional
// arguments are collected in order. Parsing itself accepts any option.
// The dynbcast subcommands and bench_exact_small_n then call
// requireKnown() with the flags they read, so a typo in an experiment
// script is an error there; the other bench binaries, examples and
// perfbench stay permissive. Unsigned values (getUInt, parseSizeList)
// must be all digits.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dynbcast {

class Options {
 public:
  /// Parses argv. Throws std::invalid_argument on malformed input.
  Options(int argc, const char* const* argv);

  /// Declares an option so it is accepted; returns its value if present.
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  [[nodiscard]] std::string getString(const std::string& key,
                                      const std::string& fallback) const;
  [[nodiscard]] std::int64_t getInt(const std::string& key,
                                    std::int64_t fallback) const;
  [[nodiscard]] std::uint64_t getUInt(const std::string& key,
                                      std::uint64_t fallback) const;
  [[nodiscard]] double getDouble(const std::string& key,
                                 double fallback) const;
  [[nodiscard]] bool getBool(const std::string& key, bool fallback) const;

  /// True when --key was present at all (with or without value).
  [[nodiscard]] bool has(const std::string& key) const;

  /// Throws std::invalid_argument naming the first option given that is
  /// not in `accepted` (names without the leading "--"), with the
  /// nearest accepted one as a suggestion.
  void requireKnown(const std::vector<std::string>& accepted) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] const std::string& programName() const noexcept {
    return program_;
  }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Parses "8,16,32" or "8:64:2" (lo:hi:multiplicative-step) into a list.
/// Every token must be all digits; a range needs lo >= 1 and step >= 2,
/// and stops before the next size would pass 2^64 - 1. Throws
/// std::invalid_argument otherwise.
[[nodiscard]] std::vector<std::size_t> parseSizeList(const std::string& spec);

}  // namespace dynbcast
