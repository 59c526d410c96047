#include "lang/builder.h"

#include <cctype>
#include <cstdint>
#include <optional>

#include "base/strings.h"

namespace ordlog {

namespace {

bool LooksLikeVariable(std::string_view token) {
  return !token.empty() &&
         (std::isupper(static_cast<unsigned char>(token[0])) ||
          token[0] == '_');
}

bool LooksLikeInteger(std::string_view token) {
  if (token.empty()) return false;
  size_t start = token[0] == '-' ? 1 : 0;
  if (start == token.size()) return false;
  for (size_t i = start; i < token.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(token[i]))) return false;
  }
  return true;
}

}  // namespace

ProgramBuilder::ProgramBuilder()
    : ProgramBuilder(std::make_shared<TermPool>()) {}

ProgramBuilder::ProgramBuilder(std::shared_ptr<TermPool> pool)
    : pool_(std::move(pool)) {}

void ProgramBuilder::RecordError(Status status) {
  if (first_error_.ok()) first_error_ = std::move(status);
}

TermId ProgramBuilder::ParseArg(std::string_view token) {
  if (LooksLikeVariable(token)) return pool_->MakeVariable(token);
  if (LooksLikeInteger(token)) {
    const std::optional<int64_t> value = ParseNumber<int64_t>(token);
    if (!value.has_value()) {
      RecordError(InvalidArgumentError(
          StrCat("integer ", token, " is out of the 64-bit range")));
    }
    return pool_->MakeInteger(value.value_or(0));
  }
  if (token.empty()) {
    RecordError(InvalidArgumentError("empty argument token"));
    return pool_->MakeConstant("_invalid");
  }
  return pool_->MakeConstant(token);
}

ComponentBuilder& ProgramBuilder::Component(std::string_view name) {
  for (ComponentBuilder& component : components_) {
    if (component.name() == name) return component;
  }
  components_.push_back(ComponentBuilder(this, std::string(name)));
  return components_.back();
}

ProgramBuilder& ProgramBuilder::Order(std::string_view lower,
                                      std::string_view higher) {
  Component(lower);   // ensure both exist
  Component(higher);
  order_edges_.emplace_back(std::string(lower), std::string(higher));
  return *this;
}

StatusOr<OrderedProgram> ProgramBuilder::Build() {
  ORDLOG_RETURN_IF_ERROR(first_error_);
  OrderedProgram program(pool_);
  for (ComponentBuilder& component : components_) {
    ORDLOG_ASSIGN_OR_RETURN(const ComponentId id,
                            program.AddComponent(component.name()));
    for (ordlog::Rule& rule : component.rules_) {
      ORDLOG_RETURN_IF_ERROR(program.AddRule(id, std::move(rule)));
    }
  }
  for (const auto& [lower, higher] : order_edges_) {
    ORDLOG_ASSIGN_OR_RETURN(const ComponentId low,
                            program.FindComponent(lower));
    ORDLOG_ASSIGN_OR_RETURN(const ComponentId high,
                            program.FindComponent(higher));
    ORDLOG_RETURN_IF_ERROR(program.AddOrder(low, high));
  }
  ORDLOG_RETURN_IF_ERROR(program.Finalize());
  return program;
}

Atom ComponentBuilder::MakeAtomFromTokens(std::string_view predicate,
                                          std::vector<std::string> args) {
  Atom atom;
  atom.predicate = owner_->pool_->symbols().Intern(predicate);
  atom.args.reserve(args.size());
  for (const std::string& token : args) {
    atom.args.push_back(owner_->ParseArg(token));
  }
  return atom;
}

ComponentBuilder& ComponentBuilder::StartRule(std::string_view predicate,
                                              std::vector<std::string> args,
                                              bool positive) {
  ordlog::Rule rule;
  rule.head = Literal{MakeAtomFromTokens(predicate, std::move(args)),
                      positive};
  rules_.push_back(std::move(rule));
  has_open_rule_ = true;
  return *this;
}

ComponentBuilder& ComponentBuilder::AddBody(std::string_view predicate,
                                            std::vector<std::string> args,
                                            bool positive) {
  if (!has_open_rule_) {
    owner_->RecordError(InvalidArgumentError(
        StrCat("If/IfNot(", predicate, ") before any rule head in "
               "component '", name_, "'")));
    return *this;
  }
  rules_.back().body.push_back(
      Literal{MakeAtomFromTokens(predicate, std::move(args)), positive});
  return *this;
}

ComponentBuilder& ComponentBuilder::Fact(std::string_view predicate,
                                         std::vector<std::string> args) {
  StartRule(predicate, std::move(args), /*positive=*/true);
  has_open_rule_ = false;  // facts take no body
  return *this;
}

ComponentBuilder& ComponentBuilder::NegFact(std::string_view predicate,
                                            std::vector<std::string> args) {
  StartRule(predicate, std::move(args), /*positive=*/false);
  has_open_rule_ = false;
  return *this;
}

ComponentBuilder& ComponentBuilder::Rule(std::string_view predicate,
                                         std::vector<std::string> args) {
  return StartRule(predicate, std::move(args), /*positive=*/true);
}

ComponentBuilder& ComponentBuilder::NegRule(std::string_view predicate,
                                            std::vector<std::string> args) {
  return StartRule(predicate, std::move(args), /*positive=*/false);
}

ComponentBuilder& ComponentBuilder::If(std::string_view predicate,
                                       std::vector<std::string> args) {
  return AddBody(predicate, std::move(args), /*positive=*/true);
}

ComponentBuilder& ComponentBuilder::IfNot(std::string_view predicate,
                                          std::vector<std::string> args) {
  return AddBody(predicate, std::move(args), /*positive=*/false);
}

ComponentBuilder& ComponentBuilder::Where(std::string_view lhs,
                                          CompareOp op,
                                          std::string_view rhs) {
  if (!has_open_rule_) {
    owner_->RecordError(InvalidArgumentError(
        StrCat("Where() before any rule head in component '", name_, "'")));
    return *this;
  }
  auto operand = [this](std::string_view token) {
    if (LooksLikeVariable(token)) {
      return ArithExpr::Variable(owner_->pool_->symbols().Intern(token));
    }
    if (LooksLikeInteger(token)) {
      const std::optional<int64_t> value = ParseNumber<int64_t>(token);
      if (!value.has_value()) {
        owner_->RecordError(InvalidArgumentError(
            StrCat("integer ", token, " is out of the 64-bit range")));
      }
      return ArithExpr::Constant(value.value_or(0));
    }
    return ArithExpr::Term(owner_->pool_->MakeConstant(token));
  };
  rules_.back().constraints.push_back(
      Comparison{op, operand(lhs), operand(rhs)});
  return *this;
}

}  // namespace ordlog
