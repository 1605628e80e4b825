// OPS5 attribute values: symbols, integers or floats.  Numbers compare
// across int/float as in OPS5 ("2" matches "2.0"); symbols compare by
// identity only.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "src/common/symbol.hpp"

namespace mpps::ops5 {

/// The six OPS5 predicate operators usable in attribute tests.
enum class Predicate : std::uint8_t { Eq, Ne, Lt, Le, Gt, Ge };

[[nodiscard]] std::string_view to_string(Predicate p);

/// A single OPS5 value.  Default-constructed value is "absent" and matches
/// nothing (an attribute not present in a wme).
class Value {
 public:
  enum class Kind : std::uint8_t { Absent, Sym, Int, Float };

  constexpr Value() = default;
  constexpr explicit Value(Symbol s) : kind_(Kind::Sym), sym_(s) {}
  constexpr explicit Value(long i) : kind_(Kind::Int), int_(i) {}
  constexpr explicit Value(double f) : kind_(Kind::Float), float_(f) {}

  static Value sym(std::string_view text) {
    return Value(Symbol::intern(text));
  }

  [[nodiscard]] constexpr Kind kind() const { return kind_; }
  [[nodiscard]] constexpr bool absent() const { return kind_ == Kind::Absent; }
  [[nodiscard]] constexpr bool numeric() const {
    return kind_ == Kind::Int || kind_ == Kind::Float;
  }
  /// The symbol; the empty symbol unless kind() is Sym.
  [[nodiscard]] constexpr Symbol as_symbol() const { return sym_; }
  /// The integer; 0 unless kind() is Int.
  [[nodiscard]] constexpr long as_int() const {
    return kind_ == Kind::Int ? int_ : 0;
  }
  /// The number as a double; 0.0 unless the value is numeric.
  [[nodiscard]] constexpr double as_double() const {
    return kind_ == Kind::Int     ? static_cast<double>(int_)
           : kind_ == Kind::Float ? float_
                                  : 0.0;
  }

  /// OPS5 equality: symbols by identity, numbers by numeric value
  /// (int 2 == float 2.0).  Absent equals nothing, including absent.
  [[nodiscard]] bool equals(const Value& o) const {
    if (kind_ == Kind::Int && o.kind_ == Kind::Int) return int_ == o.int_;
    if (kind_ == Kind::Sym || o.kind_ == Kind::Sym) {
      return kind_ == o.kind_ && sym_ == o.sym_;
    }
    return numeric() && o.numeric() && as_double() == o.as_double();
  }

  /// Applies an OPS5 predicate.  Ordering predicates (< <= > >=) are only
  /// satisfiable between two numbers; on anything else they fail.
  /// `Ne` is true whenever both are present and `equals` is false.
  [[nodiscard]] bool test(Predicate p, const Value& o) const {
    switch (p) {
      case Predicate::Eq: return equals(o);
      case Predicate::Ne: return !absent() && !o.absent() && !equals(o);
      default: break;
    }
    if (!numeric() || !o.numeric()) return false;
    if (kind_ == Kind::Int && o.kind_ == Kind::Int) {
      return compare(p, int_, o.int_);
    }
    return compare(p, as_double(), o.as_double());
  }

  /// Hash consistent with `equals` (ints and equal-valued floats collide).
  /// Inline: every join activation hashes its key with it.
  [[nodiscard]] std::size_t hash() const {
    switch (kind_) {
      case Kind::Absent: return 0x5151'5151u;
      case Kind::Sym: return std::hash<Symbol>{}(sym_);
      case Kind::Int:
        // Ints hash like the equal-valued double so equals() ⇒ equal
        // hashes.
        return std::hash<double>{}(static_cast<double>(int_));
      case Kind::Float: return std::hash<double>{}(float_);
    }
    return 0;
  }

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Value& a, const Value& b) { return a.equals(b); }

 private:
  /// An ordering predicate (< <= > >=) applied to two numbers.
  template <typename T>
  static bool compare(Predicate p, T a, T b) {
    switch (p) {
      case Predicate::Lt: return a < b;
      case Predicate::Le: return a <= b;
      case Predicate::Gt: return a > b;
      case Predicate::Ge: return a >= b;
      default: return false;
    }
  }

  Kind kind_ = Kind::Absent;
  Symbol sym_;
  union {  // kind_ says which member holds the value
    long int_ = 0;
    double float_;
  };
};

std::ostream& operator<<(std::ostream& os, const Value& v);

}  // namespace mpps::ops5

namespace std {
template <>
struct hash<mpps::ops5::Value> {
  size_t operator()(const mpps::ops5::Value& v) const noexcept {
    return v.hash();
  }
};
}  // namespace std
