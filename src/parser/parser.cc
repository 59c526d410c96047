#include "parser/parser.h"

#include <vector>

#include "base/strings.h"
#include "parser/lexer.h"

namespace ordlog {
namespace {

// Deepest nesting the parser accepts. A function-term argument list, a
// unary minus, a parenthesis and a binary arithmetic operator each add
// one level (a comparison's operators are counted cumulatively, since a
// chain like `1+1+...` builds a tree as deep as it is long). The bound
// keeps the parser's recursion, and every later recursive pass over the
// trees it builds, off the end of the stack: hostile input gets a Status.
constexpr int kMaxNesting = 512;

// Recursive-descent parser over the token stream. Methods return Status /
// StatusOr and never throw; the first error aborts the parse.
class ParserImpl {
 public:
  ParserImpl(std::vector<Token> tokens, TermPool& pool)
      : tokens_(std::move(tokens)), pool_(pool) {}

  // --- token plumbing -----------------------------------------------------

  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Check(TokenType type) const { return Peek().type == type; }
  bool Match(TokenType type) {
    if (!Check(type)) return false;
    Advance();
    return true;
  }

  Status ErrorAt(const Token& token, std::string_view message) const {
    return InvalidArgumentError(StrCat("parse error at ", token.line, ":",
                                       token.column, ": ", message));
  }

  Status Expect(TokenType type, std::string_view context) {
    if (Match(type)) return Status::Ok();
    return ErrorAt(Peek(), StrCat("expected ", TokenTypeToString(type), " ",
                                  context, ", found ",
                                  TokenTypeToString(Peek().type)));
  }

  // Enters one nesting level (see kMaxNesting). The caller restores
  // depth_ on success; an error abandons the whole parse.
  Status Nest() {
    if (++depth_ <= kMaxNesting) return Status::Ok();
    return ErrorAt(Peek(), StrCat("nesting deeper than ", kMaxNesting,
                                  " levels"));
  }

  bool IsKeyword(std::string_view keyword) const {
    return Check(TokenType::kIdentifier) && Peek().text == keyword;
  }

  // --- grammar ------------------------------------------------------------

  Status ParseInto(OrderedProgram& program) {
    while (!Check(TokenType::kEndOfInput)) {
      if (IsKeyword("component")) {
        ORDLOG_RETURN_IF_ERROR(ParseComponentDecl(program));
      } else if (IsKeyword("order")) {
        ORDLOG_RETURN_IF_ERROR(ParseOrderDecl(program));
      } else {
        ORDLOG_ASSIGN_OR_RETURN(Rule rule, ParseRuleItem());
        ORDLOG_ASSIGN_OR_RETURN(const ComponentId main,
                                EnsureComponent(program, "main"));
        ORDLOG_RETURN_IF_ERROR(program.AddRule(main, std::move(rule)));
      }
    }
    return Status::Ok();
  }

  StatusOr<ComponentId> EnsureComponent(OrderedProgram& program,
                                        std::string_view name) {
    auto found = program.FindComponent(name);
    if (found.ok()) return found.value();
    return program.AddComponent(std::string(name));
  }

  Status ParseComponentDecl(OrderedProgram& program) {
    Advance();  // "component"
    if (!Check(TokenType::kIdentifier)) {
      return ErrorAt(Peek(), "expected component name");
    }
    const std::string name = Advance().text;
    ORDLOG_ASSIGN_OR_RETURN(const ComponentId id,
                            EnsureComponent(program, name));
    ORDLOG_RETURN_IF_ERROR(
        Expect(TokenType::kLeftBrace, "after component name"));
    while (!Check(TokenType::kRightBrace)) {
      if (Check(TokenType::kEndOfInput)) {
        return ErrorAt(Peek(), StrCat("unterminated component '", name, "'"));
      }
      ORDLOG_ASSIGN_OR_RETURN(Rule rule, ParseRuleItem());
      ORDLOG_RETURN_IF_ERROR(program.AddRule(id, std::move(rule)));
    }
    Advance();  // '}'
    return Status::Ok();
  }

  Status ParseOrderDecl(OrderedProgram& program) {
    Advance();  // "order"
    if (!Check(TokenType::kIdentifier)) {
      return ErrorAt(Peek(), "expected component name after 'order'");
    }
    ORDLOG_ASSIGN_OR_RETURN(ComponentId previous,
                            EnsureComponent(program, Advance().text));
    if (!Check(TokenType::kLess)) {
      return ErrorAt(Peek(), "expected '<' in order declaration");
    }
    while (Match(TokenType::kLess)) {
      if (!Check(TokenType::kIdentifier)) {
        return ErrorAt(Peek(), "expected component name after '<'");
      }
      ORDLOG_ASSIGN_OR_RETURN(const ComponentId next,
                              EnsureComponent(program, Advance().text));
      ORDLOG_RETURN_IF_ERROR(program.AddOrder(previous, next));
      previous = next;
    }
    return Expect(TokenType::kPeriod, "at end of order declaration");
  }

  StatusOr<Rule> ParseRuleItem() {
    ORDLOG_ASSIGN_OR_RETURN(Rule rule, ParseRuleBody());
    ORDLOG_RETURN_IF_ERROR(Expect(TokenType::kPeriod, "at end of rule"));
    return rule;
  }

  // Parses a rule without the trailing period requirement handled by the
  // caller variants.
  StatusOr<Rule> ParseRuleBody() {
    Rule rule;
    ORDLOG_ASSIGN_OR_RETURN(rule.head, ParseLiteralElem());
    if (Match(TokenType::kImplies)) {
      while (true) {
        if (StartsLiteral()) {
          ORDLOG_ASSIGN_OR_RETURN(Literal literal, ParseLiteralElem());
          rule.body.push_back(std::move(literal));
        } else {
          ORDLOG_ASSIGN_OR_RETURN(Comparison comparison, ParseComparison());
          rule.constraints.push_back(std::move(comparison));
        }
        if (!Match(TokenType::kComma)) break;
      }
    }
    return rule;
  }

  static bool IsComparisonOp(TokenType type) {
    switch (type) {
      case TokenType::kLess:
      case TokenType::kLessEq:
      case TokenType::kGreater:
      case TokenType::kGreaterEq:
      case TokenType::kEquals:
      case TokenType::kNotEquals:
        return true;
      default:
        return false;
    }
  }

  // A body element is a literal when it starts with an identifier or with
  // '-' followed by an identifier; otherwise it is a comparison. A bare
  // identifier directly followed by a comparison operator (e.g.
  // `red != X`) is a term comparison, not a 0-ary atom.
  bool StartsLiteral() const {
    if (Check(TokenType::kIdentifier)) {
      return !IsComparisonOp(Peek(1).type);
    }
    return Check(TokenType::kMinus) &&
           Peek(1).type == TokenType::kIdentifier;
  }

  StatusOr<Literal> ParseLiteralElem() {
    bool positive = true;
    if (Match(TokenType::kMinus)) positive = false;
    if (!Check(TokenType::kIdentifier)) {
      return StatusOr<Literal>(
          ErrorAt(Peek(), "expected predicate name"));
    }
    const std::string predicate = Advance().text;
    Atom atom;
    atom.predicate = pool_.symbols().Intern(predicate);
    if (Match(TokenType::kLeftParen)) {
      while (true) {
        ORDLOG_ASSIGN_OR_RETURN(const TermId term, ParseTerm());
        atom.args.push_back(term);
        if (!Match(TokenType::kComma)) break;
      }
      ORDLOG_RETURN_IF_ERROR(
          Expect(TokenType::kRightParen, "after atom arguments"));
    }
    return Literal{std::move(atom), positive};
  }

  StatusOr<TermId> ParseTerm() {
    if (Check(TokenType::kVariable)) {
      return pool_.MakeVariable(Advance().text);
    }
    if (Check(TokenType::kInteger)) {
      return pool_.MakeInteger(Advance().int_value);
    }
    if (Check(TokenType::kMinus) && Peek(1).type == TokenType::kInteger) {
      Advance();
      return pool_.MakeInteger(-Advance().int_value);
    }
    if (Check(TokenType::kIdentifier)) {
      const std::string name = Advance().text;
      if (Match(TokenType::kLeftParen)) {
        ORDLOG_RETURN_IF_ERROR(Nest());
        std::vector<TermId> args;
        while (true) {
          ORDLOG_ASSIGN_OR_RETURN(const TermId term, ParseTerm());
          args.push_back(term);
          if (!Match(TokenType::kComma)) break;
        }
        ORDLOG_RETURN_IF_ERROR(
            Expect(TokenType::kRightParen, "after function arguments"));
        --depth_;
        return pool_.MakeFunction(name, std::move(args));
      }
      return pool_.MakeConstant(name);
    }
    return StatusOr<TermId>(ErrorAt(Peek(), "expected term"));
  }

  StatusOr<Comparison> ParseComparison() {
    const int depth = depth_;
    Comparison comparison;
    ORDLOG_ASSIGN_OR_RETURN(comparison.lhs, ParseArith());
    switch (Peek().type) {
      case TokenType::kLess:
        comparison.op = CompareOp::kLt;
        break;
      case TokenType::kLessEq:
        comparison.op = CompareOp::kLe;
        break;
      case TokenType::kGreater:
        comparison.op = CompareOp::kGt;
        break;
      case TokenType::kGreaterEq:
        comparison.op = CompareOp::kGe;
        break;
      case TokenType::kEquals:
        comparison.op = CompareOp::kEq;
        break;
      case TokenType::kNotEquals:
        comparison.op = CompareOp::kNe;
        break;
      default:
        return StatusOr<Comparison>(
            ErrorAt(Peek(), "expected comparison operator"));
    }
    Advance();
    ORDLOG_ASSIGN_OR_RETURN(comparison.rhs, ParseArith());
    depth_ = depth;
    return comparison;
  }

  StatusOr<ArithExpr> ParseArith() {
    ORDLOG_ASSIGN_OR_RETURN(ArithExpr lhs, ParseMul());
    while (Check(TokenType::kPlus) || Check(TokenType::kMinus)) {
      const bool add = Advance().type == TokenType::kPlus;
      ORDLOG_RETURN_IF_ERROR(Nest());
      ORDLOG_ASSIGN_OR_RETURN(ArithExpr rhs, ParseMul());
      lhs = add ? ArithExpr::Add(std::move(lhs), std::move(rhs))
                : ArithExpr::Subtract(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  StatusOr<ArithExpr> ParseMul() {
    ORDLOG_ASSIGN_OR_RETURN(ArithExpr lhs, ParseUnary());
    while (Match(TokenType::kStar)) {
      ORDLOG_RETURN_IF_ERROR(Nest());
      ORDLOG_ASSIGN_OR_RETURN(ArithExpr rhs, ParseUnary());
      lhs = ArithExpr::Multiply(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  StatusOr<ArithExpr> ParseUnary() {
    if (Match(TokenType::kMinus)) {
      ORDLOG_RETURN_IF_ERROR(Nest());
      ORDLOG_ASSIGN_OR_RETURN(ArithExpr operand, ParseUnary());
      return ArithExpr::Negate(std::move(operand));
    }
    if (Check(TokenType::kInteger)) {
      return ArithExpr::Constant(Advance().int_value);
    }
    if (Check(TokenType::kVariable)) {
      return ArithExpr::Variable(pool_.symbols().Intern(Advance().text));
    }
    if (Check(TokenType::kIdentifier)) {
      // A symbolic term operand (constant or function term); only
      // meaningful under `=` / `!=`.
      ORDLOG_ASSIGN_OR_RETURN(const TermId term, ParseTerm());
      return ArithExpr::Term(term);
    }
    if (Match(TokenType::kLeftParen)) {
      ORDLOG_RETURN_IF_ERROR(Nest());
      ORDLOG_ASSIGN_OR_RETURN(ArithExpr inner, ParseArith());
      ORDLOG_RETURN_IF_ERROR(
          Expect(TokenType::kRightParen, "after parenthesized expression"));
      return inner;
    }
    return StatusOr<ArithExpr>(
        ErrorAt(Peek(), "expected integer, variable or '('"));
  }

  Status ExpectEnd() {
    if (Check(TokenType::kEndOfInput)) return Status::Ok();
    return ErrorAt(Peek(), "unexpected trailing input");
  }

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;  // current nesting level (see Nest)
  TermPool& pool_;
};

}  // namespace

StatusOr<OrderedProgram> ParseProgram(std::string_view source) {
  return ParseProgram(source, std::make_shared<TermPool>());
}

StatusOr<OrderedProgram> ParseProgram(std::string_view source,
                                      std::shared_ptr<TermPool> pool) {
  ORDLOG_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  OrderedProgram program(pool);
  ParserImpl parser(std::move(tokens), *pool);
  ORDLOG_RETURN_IF_ERROR(parser.ParseInto(program));
  ORDLOG_RETURN_IF_ERROR(program.Finalize());
  return program;
}

StatusOr<Rule> ParseRule(std::string_view source, TermPool& pool) {
  ORDLOG_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  ParserImpl parser(std::move(tokens), pool);
  ORDLOG_ASSIGN_OR_RETURN(Rule rule, parser.ParseRuleBody());
  parser.Match(TokenType::kPeriod);  // trailing '.' optional here
  ORDLOG_RETURN_IF_ERROR(parser.ExpectEnd());
  return rule;
}

StatusOr<Literal> ParseLiteral(std::string_view source, TermPool& pool) {
  ORDLOG_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  ParserImpl parser(std::move(tokens), pool);
  ORDLOG_ASSIGN_OR_RETURN(Literal literal, parser.ParseLiteralElem());
  parser.Match(TokenType::kPeriod);
  ORDLOG_RETURN_IF_ERROR(parser.ExpectEnd());
  return literal;
}

}  // namespace ordlog
