#include "mil/program.h"

#include <charconv>
#include <sstream>

namespace moaflat::mil {
namespace {

/// Shortest fixed-notation text that reads back as `v`, with a decimal
/// point so the lexer takes it for a double (`1.0`, not the int `1`).
template <typename T>
std::string DecimalText(T v) {
  char buf[512];  // fixed notation of any finite double fits
  const auto res =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed);
  std::string s(buf, res.ptr);
  if (s.find('.') == std::string::npos) s += ".0";
  return s;
}

}  // namespace

std::string MilArg::ToString() const {
  if (kind == Kind::kVar) return var;
  switch (lit.type()) {
    case MonetType::kDate:
      // Bare, 1994-01-01 would lex as three numbers.
      return "\"" + lit.AsDate().ToString() + "\"";
    case MonetType::kDbl:
      return DecimalText(lit.AsDbl());
    case MonetType::kFlt:
      return DecimalText(lit.AsFlt());
    default:
      return lit.ToString();
  }
}

std::string MilStmt::ToString() const {
  std::ostringstream os;
  if (!var.empty()) os << var << " := ";
  // Multiplex and set-aggregate constructors print prefix, like the paper:
  // `[year](critems)`, `{sum}(losses)`.
  os << op << "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) os << ", ";
    os << args[i].ToString();
  }
  os << ")";
  return os.str();
}

std::string MilProgram::ToString() const {
  std::ostringstream os;
  for (const MilStmt& s : stmts) os << s.ToString() << "\n";
  if (!results.empty()) {
    os << "# results:";
    for (const std::string& r : results) os << " " << r;
    os << "\n";
  }
  return os.str();
}

const std::string& MilBuilder::Let(std::string name, std::string op,
                                   std::vector<MilArg> args) {
  // Programmatic statements render one per line (ToString), so the ordinal
  // doubles as the line anchor for analyzer diagnostics; the parser
  // overwrites it with the true source line.
  const int line = static_cast<int>(program_.stmts.size()) + 1;
  program_.stmts.push_back(
      MilStmt{std::move(name), std::move(op), std::move(args), line});
  return program_.stmts.back().var;
}

const std::string& MilBuilder::Temp(std::string op,
                                    std::vector<MilArg> args) {
  return Let("t" + std::to_string(++next_temp_), std::move(op),
             std::move(args));
}

}  // namespace moaflat::mil
