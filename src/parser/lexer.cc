#include "parser/lexer.h"

#include <cctype>
#include <cstdint>
#include <optional>

#include "base/strings.h"

namespace ordlog {

const char* TokenTypeToString(TokenType type) {
  switch (type) {
    case TokenType::kIdentifier:
      return "identifier";
    case TokenType::kVariable:
      return "variable";
    case TokenType::kInteger:
      return "integer";
    case TokenType::kLeftParen:
      return "'('";
    case TokenType::kRightParen:
      return "')'";
    case TokenType::kLeftBrace:
      return "'{'";
    case TokenType::kRightBrace:
      return "'}'";
    case TokenType::kComma:
      return "','";
    case TokenType::kPeriod:
      return "'.'";
    case TokenType::kImplies:
      return "':-'";
    case TokenType::kLess:
      return "'<'";
    case TokenType::kLessEq:
      return "'<='";
    case TokenType::kGreater:
      return "'>'";
    case TokenType::kGreaterEq:
      return "'>='";
    case TokenType::kEquals:
      return "'='";
    case TokenType::kNotEquals:
      return "'!='";
    case TokenType::kPlus:
      return "'+'";
    case TokenType::kMinus:
      return "'-'";
    case TokenType::kStar:
      return "'*'";
    case TokenType::kEndOfInput:
      return "end of input";
  }
  return "?";
}

namespace {

bool IsIdentifierStart(char c) { return std::islower(static_cast<unsigned char>(c)); }
bool IsVariableStart(char c) {
  return std::isupper(static_cast<unsigned char>(c)) || c == '_';
}
bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

StatusOr<std::vector<Token>> Tokenize(std::string_view source) {
  std::vector<Token> tokens;
  int line = 1;
  int column = 1;
  size_t i = 0;

  auto advance = [&](size_t count) {
    for (size_t k = 0; k < count; ++k) {
      if (source[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
      ++i;
    }
  };
  auto make = [&](TokenType type) {
    Token token;
    token.type = type;
    token.line = line;
    token.column = column;
    return token;
  };

  while (i < source.size()) {
    const char c = source[i];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance(1);
      continue;
    }
    if (c == '%') {
      while (i < source.size() && source[i] != '\n') advance(1);
      continue;
    }
    if (IsIdentifierStart(c) || IsVariableStart(c)) {
      Token token = make(IsIdentifierStart(c) ? TokenType::kIdentifier
                                              : TokenType::kVariable);
      size_t end = i;
      while (end < source.size() && IsNameChar(source[end])) ++end;
      token.text = std::string(source.substr(i, end - i));
      advance(end - i);
      tokens.push_back(std::move(token));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      Token token = make(TokenType::kInteger);
      size_t end = i;
      while (end < source.size() &&
             std::isdigit(static_cast<unsigned char>(source[end]))) {
        ++end;
      }
      const std::string_view digits = source.substr(i, end - i);
      const std::optional<int64_t> value = ParseNumber<int64_t>(digits);
      if (!value.has_value()) {
        return InvalidArgumentError(StrCat("lex error at ", line, ":",
                                           column, ": integer ", digits,
                                           " exceeds ", INT64_MAX));
      }
      token.int_value = *value;
      advance(end - i);
      tokens.push_back(std::move(token));
      continue;
    }
    switch (c) {
      case '(':
        tokens.push_back(make(TokenType::kLeftParen));
        advance(1);
        continue;
      case ')':
        tokens.push_back(make(TokenType::kRightParen));
        advance(1);
        continue;
      case '{':
        tokens.push_back(make(TokenType::kLeftBrace));
        advance(1);
        continue;
      case '}':
        tokens.push_back(make(TokenType::kRightBrace));
        advance(1);
        continue;
      case ',':
        tokens.push_back(make(TokenType::kComma));
        advance(1);
        continue;
      case '.':
        tokens.push_back(make(TokenType::kPeriod));
        advance(1);
        continue;
      case '+':
        tokens.push_back(make(TokenType::kPlus));
        advance(1);
        continue;
      case '-':
        tokens.push_back(make(TokenType::kMinus));
        advance(1);
        continue;
      case '*':
        tokens.push_back(make(TokenType::kStar));
        advance(1);
        continue;
      case ':':
        if (i + 1 < source.size() && source[i + 1] == '-') {
          tokens.push_back(make(TokenType::kImplies));
          advance(2);
          continue;
        }
        return InvalidArgumentError(
            StrCat("lex error at ", line, ":", column, ": expected ':-'"));
      case '<':
        if (i + 1 < source.size() && source[i + 1] == '=') {
          tokens.push_back(make(TokenType::kLessEq));
          advance(2);
        } else {
          tokens.push_back(make(TokenType::kLess));
          advance(1);
        }
        continue;
      case '>':
        if (i + 1 < source.size() && source[i + 1] == '=') {
          tokens.push_back(make(TokenType::kGreaterEq));
          advance(2);
        } else {
          tokens.push_back(make(TokenType::kGreater));
          advance(1);
        }
        continue;
      case '=':
        tokens.push_back(make(TokenType::kEquals));
        advance(1);
        continue;
      case '!':
        if (i + 1 < source.size() && source[i + 1] == '=') {
          tokens.push_back(make(TokenType::kNotEquals));
          advance(2);
          continue;
        }
        return InvalidArgumentError(
            StrCat("lex error at ", line, ":", column, ": expected '!='"));
      default:
        return InvalidArgumentError(StrCat("lex error at ", line, ":", column,
                                           ": unexpected character '", c,
                                           "'"));
    }
  }
  tokens.push_back(Token{TokenType::kEndOfInput, "", 0, line, column});
  return tokens;
}

}  // namespace ordlog
