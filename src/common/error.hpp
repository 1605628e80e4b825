// Error types.  Parsing and IO report problems via exceptions carrying a
// source location; everything else uses assertions on internal invariants.
#pragma once

#include <stdexcept>
#include <string>

namespace mpps {

/// Error raised while parsing OPS5 source text.  `line`/`column` are
/// 1-based positions in the input.
class ParseError : public std::runtime_error {
 public:
  ParseError(std::string message, int line, int column)
      : std::runtime_error("parse error at " + std::to_string(line) + ":" +
                           std::to_string(column) + ": " + message),
        line_(line),
        column_(column) {}

  [[nodiscard]] int line() const { return line_; }
  [[nodiscard]] int column() const { return column_; }

 private:
  int line_;
  int column_;
};

/// Error raised while reading a malformed trace file.
class TraceFormatError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Error raised by the interpreter for ill-formed RHS actions
/// (e.g. `remove 5` in a production with three condition elements).
class RuntimeError : public std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Invalid caller-supplied configuration: a bad CLI flag value, or an
/// options struct its consumer rejects through the struct's `validate()`.
/// The message names the struct (or flag) and the field.  Derives from
/// RuntimeError so call sites that only distinguish "configuration vs.
/// IO" keep working; the CLI maps it to exit code 2 (usage) instead of 1
/// (runtime failure).
class UsageError : public RuntimeError {
  using RuntimeError::RuntimeError;
};

/// `options` once `options.validate()` accepted it: lets a constructor
/// reject its options in the member-initialiser list, before any member
/// is built from them.
template <typename Options>
Options validated(Options options) {
  options.validate();
  return options;
}

}  // namespace mpps
