#include "src/ops5/value.hpp"

#include <cmath>
#include <ostream>

#include "src/common/strings.hpp"

namespace mpps::ops5 {

std::string_view to_string(Predicate p) {
  switch (p) {
    case Predicate::Eq: return "=";
    case Predicate::Ne: return "<>";
    case Predicate::Lt: return "<";
    case Predicate::Le: return "<=";
    case Predicate::Gt: return ">";
    case Predicate::Ge: return ">=";
  }
  return "?";
}

std::string Value::to_string() const {
  switch (kind_) {
    case Kind::Absent: return "<absent>";
    case Kind::Sym: return std::string(sym_.text());
    case Kind::Int: return std::to_string(int_);
    case Kind::Float: {
      // Print floats so they survive a parse round-trip.
      std::string s = format_fixed(float_, 6);
      while (s.size() > 1 && s.back() == '0') s.pop_back();
      if (!s.empty() && s.back() == '.') s.push_back('0');
      return s;
    }
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.to_string();
}

}  // namespace mpps::ops5
