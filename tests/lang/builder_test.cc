#include "lang/builder.h"

#include "core/v_operator.h"
#include "ground/grounder.h"
#include "gtest/gtest.h"
#include "lang/printer.h"
#include "support/test_util.h"

namespace ordlog {
namespace {

TEST(BuilderTest, BuildsFigure1Fluently) {
  ProgramBuilder builder;
  builder.Component("c2")
      .Fact("bird", {"penguin"})
      .Fact("bird", {"pigeon"})
      .Rule("fly", {"X"})
      .If("bird", {"X"})
      .NegRule("ground_animal", {"X"})
      .If("bird", {"X"});
  builder.Component("c1")
      .Fact("ground_animal", {"penguin"})
      .NegRule("fly", {"X"})
      .If("ground_animal", {"X"});
  builder.Order("c1", "c2");

  auto program = builder.Build();
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_EQ(ToString(*program),
            "component c2 {\n"
            "  bird(penguin).\n"
            "  bird(pigeon).\n"
            "  fly(X) :- bird(X).\n"
            "  -ground_animal(X) :- bird(X).\n"
            "}\n"
            "component c1 {\n"
            "  ground_animal(penguin).\n"
            "  -fly(X) :- ground_animal(X).\n"
            "}\n"
            "order c1 < c2.\n");

  // And the built program computes the paper's answer.
  auto ground = Grounder::Ground(*program);
  ASSERT_TRUE(ground.ok());
  const ComponentId c1 = program->FindComponent("c1").value();
  const Interpretation least = VOperator(*ground, c1).LeastFixpoint();
  const auto fly_penguin = ground->FindAtom(
      Atom{ground->pool().symbols().Find("fly").value(),
           {const_cast<TermPool&>(ground->pool()).MakeConstant("penguin")}});
  ASSERT_TRUE(fly_penguin.has_value());
  EXPECT_EQ(least.Truth(*fly_penguin), TruthValue::kFalse);
}

TEST(BuilderTest, TokenConventions) {
  ProgramBuilder builder;
  builder.Component("c").Rule("p", {"X", "penguin", "42", "-7", "_G"});
  auto program = builder.Build();
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_EQ(ToString(program->pool(), program->component(0).rules[0]),
            "p(X, penguin, 42, -7, _G).");
}

TEST(BuilderTest, OutOfRangeIntegersAreErrors) {
  ProgramBuilder args;
  args.Component("c").Rule("p", {"99999999999999999999"});
  const auto from_args = args.Build();
  ASSERT_FALSE(from_args.ok());
  EXPECT_EQ(from_args.status().code(), StatusCode::kInvalidArgument);

  ProgramBuilder constraints;
  constraints.Component("c").Rule("p", {"X"}).If("q", {"X"}).Where(
      "X", CompareOp::kLt, "-99999999999999999999");
  const auto from_constraints = constraints.Build();
  ASSERT_FALSE(from_constraints.ok());
  EXPECT_EQ(from_constraints.status().code(), StatusCode::kInvalidArgument);

  // The int64_t extremes themselves still build.
  ProgramBuilder extremes;
  extremes.Component("c").Rule(
      "p", {"9223372036854775807", "-9223372036854775808"});
  EXPECT_TRUE(extremes.Build().ok());
}

TEST(BuilderTest, WhereBuildsConstraints) {
  ProgramBuilder builder;
  builder.Component("c2").Rule("take_loan").If("inflation", {"X"}).Where(
      "X", CompareOp::kGt, "11");
  builder.Component("c").Rule("clash", {"X", "Y"}).If("color", {"X"}).If(
      "color", {"Y"}).Where("X", CompareOp::kNe, "Y");
  auto program = builder.Build();
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_EQ(ToString(program->pool(), program->component(0).rules[0]),
            "take_loan :- inflation(X), X > 11.");
  EXPECT_EQ(ToString(program->pool(), program->component(1).rules[0]),
            "clash(X, Y) :- color(X), color(Y), X != Y.");
}

TEST(BuilderTest, WhereAgainstSymbolicConstant) {
  ProgramBuilder builder;
  builder.Component("c")
      .Fact("color", {"red"})
      .Fact("color", {"mud"})
      .Rule("nice", {"X"})
      .If("color", {"X"})
      .Where("X", CompareOp::kNe, "mud");
  auto program = builder.Build();
  ASSERT_TRUE(program.ok()) << program.status();
  auto ground = Grounder::Ground(*program);
  ASSERT_TRUE(ground.ok()) << ground.status();
  const Interpretation least = VOperator(*ground, 0).LeastFixpoint();
  EXPECT_EQ(least.ToString(*ground), "{color(red), color(mud), nice(red)}");
}

TEST(BuilderTest, BodyBeforeHeadIsAnError) {
  ProgramBuilder builder;
  builder.Component("c").If("p");
  const auto program = builder.Build();
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.status().code(), StatusCode::kInvalidArgument);
}

TEST(BuilderTest, FactsTakeNoBody) {
  ProgramBuilder builder;
  builder.Component("c").Fact("p").If("q");
  EXPECT_FALSE(builder.Build().ok());
}

TEST(BuilderTest, OrderCycleSurfacesAtBuild) {
  ProgramBuilder builder;
  builder.Order("a", "b");
  builder.Order("b", "a");
  const auto program = builder.Build();
  ASSERT_FALSE(program.ok());
  EXPECT_NE(program.status().message().find("cycle"), std::string::npos);
}

TEST(BuilderTest, ComponentIsGetOrCreate) {
  ProgramBuilder builder;
  builder.Component("c").Fact("p");
  builder.Component("c").Fact("q");
  const auto program = builder.Build();
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->NumComponents(), 1u);
  EXPECT_EQ(program->component(0).rules.size(), 2u);
}

}  // namespace
}  // namespace ordlog
