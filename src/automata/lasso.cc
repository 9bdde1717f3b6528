#include "automata/lasso.h"

#include <sstream>

namespace rav {

LassoWord LassoWord::PumpCycle(size_t times) const {
  RAV_CHECK_GE(times, 1u);
  LassoWord out;
  out.prefix = prefix;
  out.cycle.reserve(cycle.size() * times);
  for (size_t i = 0; i < times; ++i) {
    out.cycle.insert(out.cycle.end(), cycle.begin(), cycle.end());
  }
  return out;
}

std::string LassoWord::ToString() const {
  std::ostringstream out;
  for (int s : prefix) out << s << " ";
  out << "(";
  for (size_t i = 0; i < cycle.size(); ++i) {
    if (i > 0) out << " ";
    out << cycle[i];
  }
  out << ")^ω";
  return out.str();
}

}  // namespace rav
