#ifndef MOAFLAT_MIL_PROGRAM_H_
#define MOAFLAT_MIL_PROGRAM_H_

#include <string>
#include <vector>

#include "common/value.h"

namespace moaflat::mil {

/// One argument of a MIL statement: a variable reference or a literal.
struct MilArg {
  enum class Kind { kVar, kLit };
  Kind kind = Kind::kVar;
  std::string var;
  Value lit;

  static MilArg Var(std::string name) {
    MilArg a;
    a.kind = Kind::kVar;
    a.var = std::move(name);
    return a;
  }
  static MilArg Lit(Value v) {
    MilArg a;
    a.kind = Kind::kLit;
    a.lit = std::move(v);
    return a;
  }

  /// The variable name, or the literal in the form ParseMil reads back as
  /// the same value (dates quoted, doubles with a decimal point).
  std::string ToString() const;
};

/// Shorthand constructors used throughout the rewriter and tests.
inline MilArg V(std::string name) { return MilArg::Var(std::move(name)); }
inline MilArg L(Value v) { return MilArg::Lit(std::move(v)); }

/// One MIL statement `var := op(args...)`. The operator vocabulary (Fig. 4)
/// is the table of mil/ops.h: `op` is any spelling ResolveOp accepts.
struct MilStmt {
  std::string var;
  std::string op;
  std::vector<MilArg> args;
  /// 1-based source line of the statement; every statement flattened out of
  /// one source line shares it, so analyzer diagnostics anchor to the text
  /// the user actually wrote. 0 = unknown (hand-built programs).
  int line = 0;

  /// Renders like the paper's Fig. 10, e.g.
  /// `orders := select(Order_clerk, "Clerk#000000088")`.
  std::string ToString() const;
};

/// A straight-line MIL program plus the names of its result BATs (the
/// operands of the result structure expression, Section 4.3).
struct MilProgram {
  std::vector<MilStmt> stmts;
  std::vector<std::string> results;

  std::string ToString() const;
};

/// Convenience builder that generates fresh temp names (t1, t2, ...).
class MilBuilder {
 public:
  /// Appends `name := op(args...)` with an explicit result name.
  const std::string& Let(std::string name, std::string op,
                         std::vector<MilArg> args);

  /// Appends a statement with a generated temp name; returns the name.
  const std::string& Temp(std::string op, std::vector<MilArg> args);

  MilProgram Finish(std::vector<std::string> results) {
    program_.results = std::move(results);
    return std::move(program_);
  }

  MilProgram& program() { return program_; }

 private:
  MilProgram program_;
  int next_temp_ = 0;
};

}  // namespace moaflat::mil

#endif  // MOAFLAT_MIL_PROGRAM_H_
