#include "grid/grid_geometry.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace progxe {

namespace {
constexpr double kMinWidth = 1e-9;
}

GridGeometry::GridGeometry(std::vector<Interval> bounds, int cells_per_dim)
    : bounds_(std::move(bounds)), cells_per_dim_(cells_per_dim) {
  assert(cells_per_dim_ >= 1);
  top_ = static_cast<double>(cells_per_dim_ - 1);
  lo_.reserve(bounds_.size());
  inv_width_.reserve(bounds_.size());
  total_cells_ = 1;
  for (auto& b : bounds_) {
    if (b.width() < kMinWidth) {
      b = Interval(b.lo, b.lo + kMinWidth);
    }
    lo_.push_back(b.lo);
    inv_width_.push_back(static_cast<double>(cells_per_dim_) / b.width());
    total_cells_ *= cells_per_dim_;
  }
  stride_.resize(bounds_.size());
  CellIndex s = 1;
  for (size_t d = bounds_.size(); d-- > 0;) {
    stride_[d] = s;
    s *= cells_per_dim_;
  }
}

int AutoCellsPerDim(int k, double budget, int lo, int hi) {
  const double per_dim = std::pow(budget, 1.0 / static_cast<double>(k));
  return std::clamp(static_cast<int>(per_dim), lo, hi);
}

void GridGeometry::CoordsOfIndex(CellIndex index, CellCoord* coords) const {
  for (int i = dimensions() - 1; i >= 0; --i) {
    coords[i] = static_cast<CellCoord>(index % cells_per_dim_);
    index /= cells_per_dim_;
  }
}

double GridGeometry::CellLower(int dim, CellCoord c) const {
  const Interval& b = bounds_[static_cast<size_t>(dim)];
  return b.lo + b.width() * static_cast<double>(c) /
                    static_cast<double>(cells_per_dim_);
}

double GridGeometry::CellUpper(int dim, CellCoord c) const {
  return CellLower(dim, c + 1);
}

void GridGeometry::CoordRange(int dim, const Interval& iv, CellCoord* lo_out,
                              CellCoord* hi_out) const {
  *lo_out = CoordOf(dim, iv.lo);
  *hi_out = CoordOf(dim, iv.hi);
}

std::string GridGeometry::ToString() const {
  std::ostringstream os;
  os << "Grid(" << dimensions() << "d x " << cells_per_dim_ << " cells:";
  for (const auto& b : bounds_) os << " " << b.ToString();
  os << ")";
  return os.str();
}

}  // namespace progxe
