// lcurve.out writer/reader.
//
// DeePMD-kit training emits a whitespace-delimited learning-curve file; the
// paper's evaluation workflow reads "the last values of the rmse_e_val and
// rmse_f_val columns" from it as the two fitness objectives (section 2.2.4,
// step 4c).  The reader locates columns by header name, exactly like the
// original numpy-genfromtxt-based scripts.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

namespace dpho::dp {

/// One displayed training-progress record.
struct LcurveRow {
  std::size_t step = 0;  // optimizer updates the row's parameters reflect
  double rmse_e_val = 0.0;
  double rmse_e_trn = 0.0;
  double rmse_f_val = 0.0;
  double rmse_f_trn = 0.0;
  double lr = 0.0;
};

/// Accumulates rows and renders/writes the lcurve.out format.
class LcurveWriter {
 public:
  void add(const LcurveRow& row) { rows_.push_back(row); }
  const std::vector<LcurveRow>& rows() const { return rows_; }

  std::string render() const;
  void write(const std::filesystem::path& path) const;

 private:
  std::vector<LcurveRow> rows_;
};

/// Parses an lcurve.out document.
class LcurveReader {
 public:
  static std::vector<LcurveRow> parse(const std::string& text);
  static std::vector<LcurveRow> read(const std::filesystem::path& path);

  /// The validation losses from the final row: {rmse_e_val, rmse_f_val}.
  /// Throws ParseError if the file holds no data rows.
  static std::pair<double, double> final_validation_losses(
      const std::filesystem::path& path);
};

}  // namespace dpho::dp
