#include "common/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace falvolt::common {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::row(std::vector<std::string> cells) {
  if (cells.size() != header_.size()) {
    throw std::invalid_argument("TextTable::row: column count mismatch");
  }
  rows_.push_back(std::move(cells));
}

void TextTable::row_labeled(const std::string& label,
                            const std::vector<double>& cells, int decimals) {
  std::vector<std::string> s;
  s.reserve(cells.size() + 1);
  s.push_back(label);
  for (const double v : cells) s.push_back(format(v, decimals));
  row(std::move(s));
}

std::string TextTable::str() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      width[c] = std::max(width[c], r[c].size());
    }
  }
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& r) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      os << (c ? "  " : "");
      os << r[c];
      for (std::size_t p = r[c].size(); p < width[c]; ++p) os << ' ';
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) {
    total += width[c] + (c ? 2 : 0);
  }
  os << std::string(total, '-') << '\n';
  for (const auto& r : rows_) emit(r);
  return os.str();
}

std::string TextTable::format(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

}  // namespace falvolt::common
