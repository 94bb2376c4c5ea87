// TextTable: aligned plain-text tables for bench/example output.
//
// Every bench binary regenerating a paper table/figure prints through this
// so the output format is uniform and greppable (also exportable as CSV or
// GitHub-flavoured markdown).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace dynbcast {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Starts a new row; subsequent add* calls fill it left to right.
  TextTable& row();

  TextTable& add(const std::string& cell);
  TextTable& add(const char* cell);
  TextTable& add(std::uint64_t v);
  TextTable& add(double v, int digits = 3);

  [[nodiscard]] std::size_t rowCount() const noexcept { return rows_.size(); }

  /// Aligned plain-text rendering.
  [[nodiscard]] std::string render() const;

  /// GitHub-flavoured markdown rendering.
  [[nodiscard]] std::string renderMarkdown() const;

  /// RFC-4180-ish CSV rendering.
  [[nodiscard]] std::string renderCsv() const;

  /// Convenience: render() to the stream.
  friend std::ostream& operator<<(std::ostream& os, const TextTable& t);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dynbcast
