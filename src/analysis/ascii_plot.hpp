// Terminal scatter plots: the bench harness renders each paper figure as
// an ASCII chart plus the underlying CSV rows, so "regenerating a figure"
// produces something a human can eyeball against the paper.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace uvmsim {

class ScatterPlot {
 public:
  ScatterPlot(std::string x_label, std::string y_label, std::size_t width = 72,
              std::size_t height = 20);

  /// Add one point. `series` in [0, 9] selects the glyph, letting a plot
  /// overlay categories (e.g. eviction count or VABlock bucket).
  void add(double x, double y, unsigned series = 0);

  /// Render the grid with axis ranges in the margins. Empty plot renders
  /// a placeholder line.
  std::string render() const;

  std::size_t size() const noexcept { return points_.size(); }

 private:
  struct Point {
    double x, y;
    unsigned series;
  };
  std::string x_label_;
  std::string y_label_;
  std::size_t width_;
  std::size_t height_;
  std::vector<Point> points_;
};

}  // namespace uvmsim
