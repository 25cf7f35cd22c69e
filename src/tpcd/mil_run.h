#ifndef MOAFLAT_TPCD_MIL_RUN_H_
#define MOAFLAT_TPCD_MIL_RUN_H_

#include <string>
#include <vector>

#include "kernel/operators.h"
#include "mil/interpreter.h"
#include "moa/database.h"

namespace moaflat::tpcd {

/// Convenience wrapper for hand-flattened MIL queries: executes statements
/// eagerly against a copy of the database environment, auto-naming
/// temporaries, so query code reads top-to-bottom like the paper's Fig. 10
/// listing.
class MilRun {
 public:
  /// Statements run under `*ctx`, which must outlive the run.
  MilRun(const moa::Database& db, const kernel::ExecContext* ctx)
      : env_(db.env()), ctx_(ctx) {}

  /// Executes `op(args...)` into a fresh temp; returns the temp name.
  Result<std::string> Op(const std::string& op,
                         std::vector<mil::MilArg> args) {
    std::string var = "t" + std::to_string(++n_);
    mil::MilStmt stmt{var, op, std::move(args)};
    mil::MilInterpreter one(&env_, ctx_);
    MF_RETURN_NOT_OK(one.Exec(stmt));
    for (const auto& t : one.traces()) traces_.push_back(t);
    return var;
  }

  Result<bat::Bat> GetBat(const std::string& var) const {
    return env_.GetBat(var);
  }
  Result<Value> GetValue(const std::string& var) const {
    return env_.GetValue(var);
  }

  Result<size_t> CountOf(const std::string& var) const {
    MF_ASSIGN_OR_RETURN(bat::Bat b, env_.GetBat(var));
    return b.size();
  }

  /// Sum of the tail of `var` as a double.
  Result<double> SumTail(const std::string& var) const {
    MF_ASSIGN_OR_RETURN(bat::Bat b, env_.GetBat(var));
    MF_ASSIGN_OR_RETURN(
        Value v, kernel::ScalarAggregate(*ctx_, kernel::AggKind::kSum, b));
    return v.AsDbl();
  }

  mil::MilEnv& env() { return env_; }
  const std::vector<mil::StmtTrace>& traces() const { return traces_; }

 private:
  mil::MilEnv env_;
  const kernel::ExecContext* ctx_;
  std::vector<mil::StmtTrace> traces_;
  int n_ = 0;
};

}  // namespace moaflat::tpcd

#endif  // MOAFLAT_TPCD_MIL_RUN_H_
