#include "outputspace/region.h"

#include <sstream>

namespace progxe {

std::string Region::ToString() const {
  std::ostringstream os;
  os << "R(" << a << "," << b << ")[";
  for (size_t i = 0; i < bounds.size(); ++i) {
    if (i > 0) os << " x ";
    os << bounds[i].ToString();
  }
  os << "]";
  if (pruned) os << " pruned";
  if (processed) os << " processed";
  if (discarded) os << " discarded";
  return os.str();
}

}  // namespace progxe
