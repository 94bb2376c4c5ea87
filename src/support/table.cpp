#include "src/support/table.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "src/support/assert.h"
#include "src/support/format.h"

namespace dynbcast {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  DYNBCAST_ASSERT(!headers_.empty());
}

TextTable& TextTable::row() {
  rows_.emplace_back();
  rows_.back().reserve(headers_.size());
  return *this;
}

TextTable& TextTable::add(const std::string& cell) {
  DYNBCAST_ASSERT_MSG(!rows_.empty(), "call row() before add()");
  DYNBCAST_ASSERT_MSG(rows_.back().size() < headers_.size(),
                      "row has more cells than headers");
  rows_.back().push_back(cell);
  return *this;
}

TextTable& TextTable::add(const char* cell) { return add(std::string(cell)); }
TextTable& TextTable::add(std::uint64_t v) { return add(fmtCount(v)); }
TextTable& TextTable::add(double v, int digits) {
  return add(fmtDouble(v, digits));
}

std::string TextTable::render() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    width[c] = headers_[c].size();
  }
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      width[c] = std::max(width[c], r[c].size());
    }
  }
  std::ostringstream os;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << (c ? "  " : "") << padRight(headers_[c], width[c]);
  }
  os << '\n';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << (c ? "  " : "") << std::string(width[c], '-');
  }
  os << '\n';
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      os << (c ? "  " : "") << padLeft(r[c], width[c]);
    }
    os << '\n';
  }
  return os.str();
}

std::string TextTable::renderMarkdown() const {
  std::ostringstream os;
  os << '|';
  for (const auto& h : headers_) os << ' ' << h << " |";
  os << "\n|";
  for (std::size_t c = 0; c < headers_.size(); ++c) os << "---|";
  os << '\n';
  for (const auto& r : rows_) {
    os << '|';
    for (const auto& cell : r) os << ' ' << cell << " |";
    os << '\n';
  }
  return os.str();
}

std::string TextTable::renderCsv() const {
  auto escape = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string out = "\"";
    for (const char ch : s) {
      if (ch == '"') out += "\"\"";
      else out.push_back(ch);
    }
    out.push_back('"');
    return out;
  };
  std::ostringstream os;
  std::vector<std::string> hs;
  hs.reserve(headers_.size());
  for (const auto& h : headers_) hs.push_back(escape(h));
  os << join(hs, ",") << '\n';
  for (const auto& r : rows_) {
    std::vector<std::string> cs;
    cs.reserve(r.size());
    for (const auto& cell : r) cs.push_back(escape(cell));
    os << join(cs, ",") << '\n';
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const TextTable& t) {
  return os << t.render();
}

}  // namespace dynbcast
