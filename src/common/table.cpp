#include "common/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace ecotune {

namespace {
const std::string kSeparatorSentinel = "\x01";
}

TextTable::TextTable(std::string title) : title_(std::move(title)) {}

TextTable& TextTable::header(std::vector<std::string> cells) {
  header_ = std::move(cells);
  return *this;
}

TextTable& TextTable::row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
  return *this;
}

TextTable& TextTable::separator() {
  rows_.push_back({kSeparatorSentinel});
  return *this;
}

void TextTable::print(std::ostream& os) const {
  std::size_t ncols = header_.size();
  for (const auto& r : rows_) {
    if (!(r.size() == 1 && r[0] == kSeparatorSentinel))
      ncols = std::max(ncols, r.size());
  }
  std::vector<std::size_t> width(ncols, 0);
  auto widen = [&](const std::vector<std::string>& r) {
    for (std::size_t i = 0; i < r.size(); ++i)
      width[i] = std::max(width[i], r[i].size());
  };
  if (!header_.empty()) widen(header_);
  for (const auto& r : rows_) {
    if (!(r.size() == 1 && r[0] == kSeparatorSentinel)) widen(r);
  }

  auto rule = [&] {
    os << '+';
    for (std::size_t i = 0; i < ncols; ++i)
      os << std::string(width[i] + 2, '-') << '+';
    os << '\n';
  };
  auto emit = [&](const std::vector<std::string>& r) {
    os << '|';
    for (std::size_t i = 0; i < ncols; ++i) {
      const std::string cell = i < r.size() ? r[i] : std::string();
      os << ' ' << cell << std::string(width[i] - cell.size(), ' ') << " |";
    }
    os << '\n';
  };

  if (!title_.empty()) os << title_ << '\n';
  rule();
  if (!header_.empty()) {
    emit(header_);
    rule();
  }
  for (const auto& r : rows_) {
    if (r.size() == 1 && r[0] == kSeparatorSentinel) {
      rule();
    } else {
      emit(r);
    }
  }
  rule();
}

std::string TextTable::num(double v, int digits) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << v;
  return os.str();
}

std::string TextTable::pct(double v, int digits) {
  std::ostringstream os;
  os << std::showpos << std::fixed << std::setprecision(digits) << v << '%';
  return os.str();
}

}  // namespace ecotune
