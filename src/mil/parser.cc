#include "mil/parser.h"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <vector>

#include "mil/ops.h"

namespace moaflat::mil {
namespace {

enum class Tok {
  kEnd,
  kIdent,     // names; also [f] and {agg} operator heads
  kInt,
  kFloat,
  kChar,
  kString,
  kBool,
  kLParen,
  kRParen,
  kComma,
  kAssign,    // :=
  kDot,
  kNewline,
};

struct Token {
  Tok kind = Tok::kEnd;
  std::string text;
  size_t pos = 0;
  int line = 1;  // 1-based source line, the anchor for diagnostics
};

class Lexer {
 public:
  explicit Lexer(const std::string& src) : src_(src) {}

  Result<std::vector<Token>> Lex() {
    std::vector<Token> out;
    while (i_ < src_.size()) {
      const char c = src_[i_];
      const size_t start = i_;
      if (c == '#') {
        while (i_ < src_.size() && src_[i_] != '\n') ++i_;
        continue;
      }
      if (c == '\n' || c == ';') {
        out.push_back({Tok::kNewline, "\n", start, line_});
        if (c == '\n') ++line_;
        ++i_;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i_;
        continue;
      }
      if (c == '[' || c == '{') {
        // Multiplex / set-aggregate operator head: scan to the matching
        // close bracket; the whole "[year]" / "{sum}" is one identifier.
        const char close = c == '[' ? ']' : '}';
        std::string op(1, c);
        ++i_;
        while (i_ < src_.size() && src_[i_] != close) op += src_[i_++];
        if (i_ >= src_.size()) {
          return Status::ParseError("unterminated operator bracket");
        }
        op += close;
        ++i_;
        out.push_back({Tok::kIdent, op, start, line_});
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        std::string id;
        while (i_ < src_.size() &&
               (std::isalnum(static_cast<unsigned char>(src_[i_])) ||
                src_[i_] == '_' || src_[i_] == '#' || src_[i_] == '.' ||
                src_[i_] == '<' || src_[i_] == '>' || src_[i_] == '=' ||
                src_[i_] == '!')) {
          // Identifiers may embed '.' for select.<= style operator names;
          // postfix '.' is disambiguated below: a '.' followed by an
          // operator spelling splits the identifier.
          id += src_[i_++];
        }
        // The arithmetic symbols are no identifier characters, but after
        // a dot they end an operator name: `calc.*`.
        if (id.back() == '.' && i_ < src_.size() &&
            std::strchr("+-*/", src_[i_]) != nullptr) {
          id += src_[i_++];
        }
        EmitIdentWithPostfix(id, start, &out);
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) || c == '-') {
        std::string num(1, c);
        ++i_;
        bool is_float = false;
        while (i_ < src_.size() &&
               (std::isdigit(static_cast<unsigned char>(src_[i_])) ||
                src_[i_] == '.')) {
          if (src_[i_] == '.') is_float = true;
          num += src_[i_++];
        }
        out.push_back({is_float ? Tok::kFloat : Tok::kInt, num, start, line_});
        continue;
      }
      switch (c) {
        case '\'': {
          if (i_ + 2 >= src_.size() || src_[i_ + 2] != '\'') {
            return Status::ParseError("bad char literal");
          }
          out.push_back({Tok::kChar, std::string(1, src_[i_ + 1]), start, line_});
          i_ += 3;
          continue;
        }
        case '"': {
          std::string s;
          ++i_;
          while (i_ < src_.size() && src_[i_] != '"') s += src_[i_++];
          if (i_ >= src_.size()) {
            return Status::ParseError("unterminated string");
          }
          ++i_;
          out.push_back({Tok::kString, s, start, line_});
          continue;
        }
        case '(':
          out.push_back({Tok::kLParen, "(", start, line_});
          ++i_;
          continue;
        case ')':
          out.push_back({Tok::kRParen, ")", start, line_});
          ++i_;
          continue;
        case ',':
          out.push_back({Tok::kComma, ",", start, line_});
          ++i_;
          continue;
        case '.':
          out.push_back({Tok::kDot, ".", start, line_});
          ++i_;
          continue;
        case ':':
          if (i_ + 1 < src_.size() && src_[i_ + 1] == '=') {
            out.push_back({Tok::kAssign, ":=", start, line_});
            i_ += 2;
            continue;
          }
          return Status::ParseError("expected ':='");
        default:
          return Status::ParseError(std::string("unexpected char '") + c +
                                    "' at " + std::to_string(i_));
      }
    }
    out.push_back({Tok::kEnd, "", src_.size(), line_});
    return out;
  }

 private:
  /// Splits `.postfix` chains off an identifier: `a.mirror` lexes as
  /// IDENT(a) DOT IDENT(mirror), `x.select.<=(5)` as IDENT(x) DOT
  /// IDENT(select.<=), but `select.<=` stays whole. The split is at the
  /// first dot whose suffix spells an operator.
  void EmitIdentWithPostfix(std::string_view id, size_t start,
                            std::vector<Token>* out) {
    for (size_t dot = id.find('.'); dot != std::string_view::npos;
         dot = id.find('.', dot + 1)) {
      const std::string_view suffix = id.substr(dot + 1);
      if (dot > 0 && ResolveOp(suffix).decl != nullptr) {
        EmitIdentWithPostfix(id.substr(0, dot), start, out);
        out->push_back({Tok::kDot, ".", start + dot, line_});
        out->push_back(
            {Tok::kIdent, std::string(suffix), start + dot + 1, line_});
        return;
      }
    }
    out->push_back({Tok::kIdent, std::string(id), start, line_});
  }

  const std::string& src_;
  size_t i_ = 0;
  int line_ = 1;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> toks) : toks_(std::move(toks)) {}

  Result<MilProgram> Parse() {
    while (Peek().kind != Tok::kEnd) {
      if (Peek().kind == Tok::kNewline) {
        Next();
        continue;
      }
      MF_RETURN_NOT_OK(ParseStatement());
    }
    return builder_.Finish({});
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    return toks_[std::min(pos_ + ahead, toks_.size() - 1)];
  }
  Token Next() { return toks_[std::min(pos_++, toks_.size() - 1)]; }

  Status ParseStatement() {
    // Every statement flattened out of this source line (nested calls,
    // postfix chains) anchors to the line of its first token.
    stmt_line_ = Peek().line;
    std::string var;
    if (Peek().kind == Tok::kIdent && Peek(1).kind == Tok::kAssign) {
      var = Next().text;
      Next();  // :=
    }
    const size_t bound_before = builder_.program().stmts.size();
    MF_ASSIGN_OR_RETURN(MilArg value, ParseExpr(var));
    if (value.kind != MilArg::Kind::kVar) {
      return Status::ParseError("a statement must produce a variable");
    }
    if (builder_.program().stmts.size() == bound_before) {
      // `r := x` would bind nothing: r stays undefined.
      return Status::ParseError("statement on line " +
                                std::to_string(stmt_line_) +
                                " calls no operator ('" + value.var + "')");
    }
    if (Peek().kind != Tok::kNewline && Peek().kind != Tok::kEnd) {
      return Status::ParseError("trailing tokens after statement near '" +
                                Peek().text + "'");
    }
    return Status::OK();
  }

  /// Parses an expression; calls become statements. If `bind_to` is
  /// non-empty the outermost call is bound to that name, otherwise to a
  /// fresh temp. Returns the MilArg referring to the value.
  Result<MilArg> ParseExpr(const std::string& bind_to) {
    MF_ASSIGN_OR_RETURN(MilArg primary, ParsePrimary(bind_to));
    // Postfix chain: x.mirror, x.semijoin(y), ...
    while (Peek().kind == Tok::kDot) {
      Next();
      if (Peek().kind != Tok::kIdent) {
        return Status::ParseError("expected operator after '.'");
      }
      const std::string op = Next().text;
      std::vector<MilArg> args{primary};
      if (Peek().kind == Tok::kLParen) {
        Next();
        while (Peek().kind != Tok::kRParen) {
          MF_ASSIGN_OR_RETURN(MilArg a, ParseExpr(""));
          args.push_back(std::move(a));
          if (Peek().kind == Tok::kComma) Next();
        }
        Next();  // ')'
      }
      const bool last = Peek().kind != Tok::kDot;
      const std::string name =
          last && !bind_to.empty() ? bind_to : FreshTemp();
      Bind(name, op, std::move(args));
      primary = V(name);
    }
    return primary;
  }

  Result<MilArg> ParsePrimary(const std::string& bind_to) {
    const Token t = Next();
    switch (t.kind) {
      case Tok::kIdent: {
        if (Peek().kind == Tok::kLParen) {
          // Call: op(args...).
          Next();
          std::vector<MilArg> args;
          while (Peek().kind != Tok::kRParen) {
            MF_ASSIGN_OR_RETURN(MilArg a, ParseExpr(""));
            args.push_back(std::move(a));
            if (Peek().kind == Tok::kComma) Next();
          }
          Next();  // ')'
          const bool last = Peek().kind != Tok::kDot;
          const std::string name =
              last && !bind_to.empty() ? bind_to : FreshTemp();
          Bind(name, t.text, std::move(args));
          return V(name);
        }
        if (t.text == "true") return L(Value::Bit(true));
        if (t.text == "false") return L(Value::Bit(false));
        return V(t.text);
      }
      case Tok::kInt:
        return L(Value::Int(std::atoi(t.text.c_str())));
      case Tok::kFloat:
        return L(Value::Dbl(std::atof(t.text.c_str())));
      case Tok::kChar:
        return L(Value::Chr(t.text[0]));
      case Tok::kString: {
        Date d;
        if (t.text.size() == 10 && Date::Parse(t.text, &d)) {
          return L(Value::MakeDate(d));
        }
        return L(Value::Str(t.text));
      }
      default:
        return Status::ParseError("unexpected token '" + t.text + "' at " +
                                  std::to_string(t.pos));
    }
  }

  std::string FreshTemp() { return "_t" + std::to_string(++temps_); }

  /// builder_.Let with the current statement's source line stamped on.
  void Bind(const std::string& name, std::string op,
            std::vector<MilArg> args) {
    builder_.Let(name, std::move(op), std::move(args));
    builder_.program().stmts.back().line = stmt_line_;
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
  int temps_ = 0;
  int stmt_line_ = 1;
  MilBuilder builder_;
};

}  // namespace

Result<MilProgram> ParseMil(const std::string& text) {
  Lexer lexer(text);
  MF_ASSIGN_OR_RETURN(std::vector<Token> toks, lexer.Lex());
  Parser parser(std::move(toks));
  return parser.Parse();
}

}  // namespace moaflat::mil
