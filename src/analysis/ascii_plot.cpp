#include "analysis/ascii_plot.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace uvmsim {
namespace {

constexpr char kGlyphs[] = {'.', 'o', '+', 'x', '*', '#', '@', '%', '&', '$'};

std::string format_value(double v) {
  char buf[32];
  if (std::abs(v) >= 1e6 || (std::abs(v) < 1e-2 && v != 0.0)) {
    std::snprintf(buf, sizeof(buf), "%.2e", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", v);
  }
  return buf;
}

}  // namespace

ScatterPlot::ScatterPlot(std::string x_label, std::string y_label,
                         std::size_t width, std::size_t height)
    : x_label_(std::move(x_label)),
      y_label_(std::move(y_label)),
      width_(std::max<std::size_t>(width, 8)),
      height_(std::max<std::size_t>(height, 4)) {}

void ScatterPlot::add(double x, double y, unsigned series) {
  points_.push_back({x, y, std::min(series, 9u)});
}

std::string ScatterPlot::render() const {
  if (points_.empty()) {
    return "  (no data points)\n";
  }

  double xmin = std::numeric_limits<double>::infinity(), xmax = -xmin;
  double ymin = xmin, ymax = -xmin;
  for (const auto& p : points_) {
    xmin = std::min(xmin, p.x);
    xmax = std::max(xmax, p.x);
    ymin = std::min(ymin, p.y);
    ymax = std::max(ymax, p.y);
  }
  if (xmax == xmin) xmax = xmin + 1;
  if (ymax == ymin) ymax = ymin + 1;

  std::vector<std::string> grid(height_, std::string(width_, ' '));
  for (const auto& p : points_) {
    const auto col = static_cast<std::size_t>(
        (p.x - xmin) / (xmax - xmin) * static_cast<double>(width_ - 1));
    const auto row = static_cast<std::size_t>(
        (p.y - ymin) / (ymax - ymin) * static_cast<double>(height_ - 1));
    char& cell = grid[height_ - 1 - row][col];
    const char glyph = kGlyphs[p.series];
    // Higher-numbered series win collisions so overlays stay visible.
    if (cell == ' ' || glyph > cell) cell = glyph;
  }

  std::string out;
  out += "  " + y_label_ + "\n";
  for (std::size_t r = 0; r < height_; ++r) {
    out += "  |" + grid[r] + "\n";
  }
  out += "  +" + std::string(width_, '-') + "\n";
  out += "   x: " + x_label_ + "  [" + format_value(xmin) + " .. " +
         format_value(xmax) + "]\n";
  return out;
}

}  // namespace uvmsim
