#include "progxe/prog_determine.h"

namespace progxe {

ProgDetermine::ProgDetermine(const OutputTable* table) : table_(table) {
  armed_.assign(static_cast<size_t>(table_->geometry().total_cells()), 0);
}

void ProgDetermine::OnRegionReleased(
    const OutputTable::CoverageRelease& release,
    std::vector<CellIndex>* flush_out) {
  flush_out->clear();
  for (CellIndex c : release.settled) {
    if (table_->populated(c) && !table_->marked(c) && !table_->emitted(c)) {
      armed_[static_cast<size_t>(c)] = 1;
      ++armed_count_;
    }
  }
  // `lowered` is ascending, so the flush list is too.
  for (CellIndex c : release.lowered) {
    if (table_->cover_lo(c) != 0 || !armed_[static_cast<size_t>(c)]) continue;
    armed_[static_cast<size_t>(c)] = 0;
    --armed_count_;
    if (!table_->marked(c) && !table_->emitted(c)) flush_out->push_back(c);
  }
}

std::vector<CellIndex> ProgDetermine::OnRegionReleased(
    const OutputTable::CoverageRelease& release) {
  std::vector<CellIndex> flush;
  OnRegionReleased(release, &flush);
  return flush;
}

}  // namespace progxe
