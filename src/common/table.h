#pragma once
// Aligned plain-text table printing. Figure benches use this to emit the
// same rows/series the paper plots, in a form readable in a terminal log.

#include <string>
#include <vector>

namespace falvolt::common {

/// Collects rows of string cells and renders them with aligned columns.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void row(std::vector<std::string> cells);

  /// A leading label followed by numeric cells, each formatted with
  /// `decimals` digits.
  void row_labeled(const std::string& label, const std::vector<double>& cells,
                   int decimals = 2);

  /// Render to a string (header, separator, rows).
  std::string str() const;

  static std::string format(double v, int decimals);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace falvolt::common
