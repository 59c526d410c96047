// Robustness: the parser must return clean errors (never crash or hang)
// on arbitrary garbage, token soup, and truncated inputs, and the ground
// pipeline must survive everything the parser accepts.

#include <random>
#include <string>
#include <string_view>

#include "ground/grounder.h"
#include "gtest/gtest.h"
#include "parser/parser.h"

namespace ordlog {
namespace {

TEST(RobustnessTest, RandomBytesNeverCrash) {
  std::mt19937 rng(42);
  std::uniform_int_distribution<int> byte(32, 126);
  std::uniform_int_distribution<int> length(0, 200);
  for (int trial = 0; trial < 500; ++trial) {
    std::string input;
    const int n = length(rng);
    for (int i = 0; i < n; ++i) {
      input.push_back(static_cast<char>(byte(rng)));
    }
    const auto program = ParseProgram(input);
    if (program.ok()) {
      // Whatever parsed must also ground (propositional or small).
      auto mutable_program = *program;
      GrounderOptions options;
      options.max_ground_rules = 10'000;
      (void)Grounder::Ground(mutable_program, options);
    }
  }
}

TEST(RobustnessTest, TokenSoupNeverCrashes) {
  const std::vector<std::string> tokens = {
      "component", "order",  "p",  "q(",  ")",  "{", "}", ",",  ".",
      ":-",        "-",      "<",  "<=",  "X",  "3", "+", "*",  "!=",
      "=",         "f(X)",   ">",  ">="};
  std::mt19937 rng(7);
  std::uniform_int_distribution<size_t> pick(0, tokens.size() - 1);
  std::uniform_int_distribution<int> length(1, 40);
  for (int trial = 0; trial < 500; ++trial) {
    std::string input;
    const int n = length(rng);
    for (int i = 0; i < n; ++i) {
      input += tokens[pick(rng)];
      input += " ";
    }
    (void)ParseProgram(input);
  }
}

TEST(RobustnessTest, TruncationsOfValidProgramNeverCrash) {
  const std::string program = R"(
component c2 {
  bird(penguin).
  fly(X) :- bird(X), X != rock, 1 < 2.
}
component c1 { -fly(X) :- ground_animal(X). }
order c1 < c2.
)";
  for (size_t cut = 0; cut <= program.size(); ++cut) {
    (void)ParseProgram(program.substr(0, cut));
  }
}

TEST(RobustnessTest, DeeplyNestedTermsParse) {
  std::string term = "a";
  for (int i = 0; i < 200; ++i) {
    term = "f(" + term + ")";
  }
  const auto rule = ParseProgram("p(" + term + ").");
  EXPECT_TRUE(rule.ok()) << rule.status();
}

TEST(RobustnessTest, DeeplyNestedArithmeticParses) {
  std::string expr = "1";
  for (int i = 0; i < 200; ++i) {
    expr = "(" + expr + " + 1)";
  }
  const auto program = ParseProgram("p :- " + expr + " > 0.");
  EXPECT_TRUE(program.ok()) << program.status();
}

// `count` copies of `unit`.
std::string Repeat(std::string_view unit, size_t count) {
  std::string out;
  out.reserve(unit.size() * count);
  for (size_t i = 0; i < count; ++i) out += unit;
  return out;
}

void ExpectNestingRejected(const Status& status) {
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  EXPECT_NE(status.message().find("nesting deeper than"), std::string::npos)
      << status;
  EXPECT_NE(status.message().find("parse error at 1:"), std::string::npos)
      << status;
}

// Hostile nesting, far past any stack: each input is a few hundred KB
// (under the server's default request body cap) and must come back as a
// positioned kInvalidArgument, not a stack overflow.
constexpr size_t kHostileDepth = 100'000;

TEST(RobustnessTest, HostileTermNestingIsAnError) {
  TermPool pool;
  const std::string term =
      Repeat("f(", kHostileDepth) + "a" + Repeat(")", kHostileDepth);
  ExpectNestingRejected(ParseLiteral("p(" + term + ")", pool).status());
  ExpectNestingRejected(ParseProgram("p(" + term + ").").status());
}

TEST(RobustnessTest, HostileUnaryMinusIsAnError) {
  TermPool pool;
  ExpectNestingRejected(
      ParseRule("p :- " + Repeat("-", kHostileDepth) + "1 > 0", pool)
          .status());
}

TEST(RobustnessTest, HostileParenthesesAreAnError) {
  TermPool pool;
  ExpectNestingRejected(
      ParseRule("p :- " + Repeat("(", kHostileDepth) + "1" +
                    Repeat(")", kHostileDepth) + " > 0",
                pool)
          .status());
}

TEST(RobustnessTest, HostileOperatorChainIsAnError) {
  // A flat chain parses iteratively but builds a left-deep tree as deep as
  // it is long, which every later pass over the expression recurses into.
  TermPool pool;
  ExpectNestingRejected(
      ParseRule("p :- 1" + Repeat(" + 1", kHostileDepth) + " > 0", pool)
          .status());
}

}  // namespace
}  // namespace ordlog
