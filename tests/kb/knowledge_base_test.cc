#include "kb/knowledge_base.h"

#include "gtest/gtest.h"
#include "support/paper_programs.h"

namespace ordlog {
namespace {

TEST(KnowledgeBaseTest, PenguinDefaultsAndExceptions) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.Load(testing::kFig1Penguin).ok());

  EXPECT_EQ(kb.Query("c1", "fly(penguin)").value(), TruthValue::kFalse);
  EXPECT_EQ(kb.Query("c1", "fly(pigeon)").value(), TruthValue::kTrue);
  EXPECT_EQ(kb.Query("c1", "ground_animal(penguin)").value(),
            TruthValue::kTrue);
  // The general module does not see the exception.
  EXPECT_EQ(kb.Query("c2", "fly(penguin)").value(), TruthValue::kTrue);
  EXPECT_EQ(kb.Query("c2", "ground_animal(penguin)").value(),
            TruthValue::kFalse);
}

TEST(KnowledgeBaseTest, IncrementalConstructionMatchesLoad) {
  // Mirrors Figure 1's structure: the general module closes the penguin
  // predicate by default (birds are not penguins unless stated), exactly
  // like the paper's `-ground_animal(X) :- bird(X)`. Without such a
  // closure the never-blocked exception instance would overrule flying
  // for every bird (Definition 2 only asks overrulers to be non-blocked).
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddModule("animals").ok());
  ASSERT_TRUE(kb.AddRuleText("animals", "bird(tweety).").ok());
  ASSERT_TRUE(kb.AddRuleText("animals", "fly(X) :- bird(X).").ok());
  ASSERT_TRUE(kb.AddRuleText("animals", "-penguin(X) :- bird(X).").ok());
  ASSERT_TRUE(kb.AddModule("antarctic").ok());
  ASSERT_TRUE(kb.AddIsa("antarctic", "animals").ok());
  ASSERT_TRUE(kb.AddRuleText("antarctic", "penguin(pingu).").ok());
  ASSERT_TRUE(kb.AddRuleText("antarctic", "bird(X) :- penguin(X).").ok());
  ASSERT_TRUE(kb.AddRuleText("antarctic", "-fly(X) :- penguin(X).").ok());

  EXPECT_EQ(kb.Query("antarctic", "fly(pingu)").value(), TruthValue::kFalse);
  EXPECT_EQ(kb.Query("antarctic", "fly(tweety)").value(), TruthValue::kTrue);
  EXPECT_EQ(kb.Query("animals", "fly(tweety)").value(), TruthValue::kTrue);
  // pingu is invisible from the parent module.
  EXPECT_EQ(kb.Query("animals", "fly(pingu)").value(),
            TruthValue::kUndefined);
}

TEST(KnowledgeBaseTest, MutationInvalidatesCachedAnswers) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddModule("m").ok());
  ASSERT_TRUE(kb.AddRuleText("m", "p :- q.").ok());
  EXPECT_EQ(kb.Query("m", "p").value(), TruthValue::kUndefined);
  ASSERT_TRUE(kb.AddRuleText("m", "q.").ok());
  EXPECT_EQ(kb.Query("m", "p").value(), TruthValue::kTrue);
}

TEST(KnowledgeBaseTest, UnknownModuleAndLiteralHandling) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddModule("m").ok());
  ASSERT_TRUE(kb.AddRuleText("m", "p.").ok());
  EXPECT_FALSE(kb.Query("missing", "p").ok());
  // Unknown atoms are undefined, not errors.
  EXPECT_EQ(kb.Query("m", "never_mentioned").value(),
            TruthValue::kUndefined);
  // Non-ground query literals are rejected.
  EXPECT_FALSE(kb.Query("m", "p(X)").ok());
}

TEST(KnowledgeBaseTest, DerivableFacts) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.Load(testing::kExample4P4Closed).ok());
  const auto facts = kb.DerivableFacts("c1");
  ASSERT_TRUE(facts.ok());
  EXPECT_EQ(*facts, (std::vector<std::string>{"-a", "-b"}));
}

TEST(KnowledgeBaseTest, QueryAllMatchesPatterns) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.Load(testing::kFig1Penguin).ok());
  const auto flyers = kb.QueryAll("c1", "fly(X)");
  ASSERT_TRUE(flyers.ok()) << flyers.status();
  EXPECT_EQ(*flyers, (std::vector<std::string>{"fly(pigeon)"}));
  const auto grounded = kb.QueryAll("c1", "-fly(X)");
  ASSERT_TRUE(grounded.ok());
  EXPECT_EQ(*grounded, (std::vector<std::string>{"-fly(penguin)"}));
  const auto birds = kb.QueryAll("c1", "bird(X)");
  ASSERT_TRUE(birds.ok());
  EXPECT_EQ(birds->size(), 2u);
  const auto none = kb.QueryAll("c1", "swims(X)");
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  // Ground patterns work too.
  const auto exact = kb.QueryAll("c1", "fly(pigeon)");
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->size(), 1u);
}

TEST(KnowledgeBaseTest, BraveAndCautiousOverStableModels) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.Load(testing::kExample5P5).ok());
  // Two stable models: {a, -b, c} and {-a, b, c}.
  EXPECT_EQ(kb.CountStableModels("c1").value(), 2u);
  EXPECT_TRUE(kb.BravelyHolds("c1", "a").value());
  EXPECT_TRUE(kb.BravelyHolds("c1", "b").value());
  EXPECT_FALSE(kb.CautiouslyHolds("c1", "a").value());
  EXPECT_TRUE(kb.CautiouslyHolds("c1", "c").value());
  EXPECT_FALSE(kb.BravelyHolds("c1", "-c").value());
}

TEST(KnowledgeBaseTest, VersioningViaIsa) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddModule("policy_v1").ok());
  ASSERT_TRUE(kb.AddRuleText("policy_v1", "limit(100).").ok());
  ASSERT_TRUE(kb.AddRuleText("policy_v1", "approve(X) :- request(X).").ok());
  // v1 closes `flagged` by default; v2's fact overrides it for r2.
  ASSERT_TRUE(
      kb.AddRuleText("policy_v1", "-flagged(X) :- request(X).").ok());
  ASSERT_TRUE(kb.AddModule("policy_v2").ok());
  ASSERT_TRUE(kb.AddVersion("policy_v2", "policy_v1").ok());
  ASSERT_TRUE(
      kb.AddRuleText("policy_v2", "-approve(X) :- flagged(X).").ok());
  ASSERT_TRUE(kb.AddRuleText("policy_v2", "request(r1).").ok());
  ASSERT_TRUE(kb.AddRuleText("policy_v2", "request(r2).").ok());
  ASSERT_TRUE(kb.AddRuleText("policy_v2", "flagged(r2).").ok());

  EXPECT_EQ(kb.Query("policy_v2", "approve(r1)").value(), TruthValue::kTrue);
  EXPECT_EQ(kb.Query("policy_v2", "approve(r2)").value(),
            TruthValue::kFalse);
  EXPECT_EQ(kb.Query("policy_v2", "limit(100)").value(), TruthValue::kTrue);
}

TEST(KnowledgeBaseTest, ExplainTrueLiteral) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.Load(testing::kFig1Penguin).ok());
  const auto explanation = kb.Explain("c1", "-fly(penguin)");
  ASSERT_TRUE(explanation.ok()) << explanation.status();
  EXPECT_NE(explanation->find("-fly(penguin) holds by rule"),
            std::string::npos)
      << *explanation;
  EXPECT_NE(explanation->find("ground_animal(penguin) holds: fact [c1]"),
            std::string::npos)
      << *explanation;
}

TEST(KnowledgeBaseTest, ExplainUndefinedLiteral) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.Load(testing::kFig2Mimmo).ok());
  const auto explanation = kb.Explain("c1", "rich(mimmo)");
  ASSERT_TRUE(explanation.ok()) << explanation.status();
  EXPECT_NE(explanation->find("rich(mimmo) is undefined"), std::string::npos)
      << *explanation;
  EXPECT_NE(explanation->find("defeated by conflicting rule"),
            std::string::npos)
      << *explanation;
}

TEST(KnowledgeBaseTest, ExplainComplementAndUnknown) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.Load(testing::kFig1Penguin).ok());
  const auto complement = kb.Explain("c1", "fly(penguin)");
  ASSERT_TRUE(complement.ok());
  EXPECT_NE(complement->find("the complement of fly(penguin) holds"),
            std::string::npos)
      << *complement;
  const auto unknown = kb.Explain("c1", "warp_drive(penguin)");
  ASSERT_TRUE(unknown.ok());
  EXPECT_NE(unknown->find("does not occur"), std::string::npos);
}

TEST(KnowledgeBaseTest, Introspection) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.Load(testing::kFig1Penguin).ok());
  EXPECT_EQ(kb.ListModules(), (std::vector<std::string>{"c2", "c1"}));
  const auto rules = kb.ModuleRules("c1");
  ASSERT_TRUE(rules.ok());
  EXPECT_EQ(*rules,
            (std::vector<std::string>{
                "ground_animal(penguin).",
                "-fly(X) :- ground_animal(X)."}));
  const auto parents = kb.Parents("c1");
  ASSERT_TRUE(parents.ok());
  EXPECT_EQ(*parents, (std::vector<std::string>{"c2"}));
  const auto roots = kb.Parents("c2");
  ASSERT_TRUE(roots.ok());
  EXPECT_TRUE(roots->empty());
  EXPECT_FALSE(kb.ModuleRules("nope").ok());
}

TEST(KnowledgeBaseTest, FunctionTermsWithDepthOption) {
  GrounderOptions options;
  options.herbrand.max_function_depth = 3;
  KnowledgeBase kb(options);
  ASSERT_TRUE(kb.AddModule("m").ok());
  ASSERT_TRUE(kb.AddRuleText("m", "nat(z).").ok());
  ASSERT_TRUE(kb.AddRuleText("m", "nat(s(X)) :- nat(X).").ok());
  EXPECT_EQ(kb.Query("m", "nat(s(s(z)))").value(), TruthValue::kTrue);
  // Beyond the bound: the atom does not exist, hence undefined.
  EXPECT_EQ(kb.Query("m", "nat(s(s(s(s(s(z))))))").value(),
            TruthValue::kUndefined);
}

TEST(KnowledgeBaseTest, DuplicateModuleRejected) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddModule("m").ok());
  EXPECT_FALSE(kb.AddModule("m").ok());
  EXPECT_TRUE(kb.HasModule("m"));
  EXPECT_FALSE(kb.HasModule("n"));
}

TEST(KnowledgeBaseTest, DeltaApplyNeverPatchesAHeldGroundProgram) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.Load("component m { p(a). q(X) :- p(X). }").ok());
  ASSERT_TRUE(kb.ground().ok());

  // A reader holds revision N's program across a delta batch: it keeps
  // N's instances, and the KB moves on to a patched copy.
  const std::shared_ptr<const GroundProgram> held = kb.shared_ground();
  ASSERT_NE(held, nullptr);
  const size_t held_rules = held->NumRules();
  const size_t held_atoms = held->NumAtoms();
  StatusOr<MutationReport> report = kb.Apply(Mutation().AddFact("m", "p(b)"));
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->incremental) << report->fallback_reason;
  EXPECT_EQ(held->NumRules(), held_rules);
  EXPECT_EQ(held->NumAtoms(), held_atoms);
  const StatusOr<const GroundProgram*> patched = kb.ground();
  ASSERT_TRUE(patched.ok());
  EXPECT_NE(*patched, held.get());
  EXPECT_GT((*patched)->NumRules(), held_rules);
  EXPECT_GT((*patched)->NumAtoms(), held_atoms);
  EXPECT_EQ(kb.Query("m", "q(b)").value(), TruthValue::kTrue);

  // With no outside holder, the next batch patches the program in place.
  const GroundProgram* sole = *patched;
  const size_t sole_rules = sole->NumRules();
  report = kb.Apply(Mutation().AddFact("m", "p(c)"));
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->incremental) << report->fallback_reason;
  EXPECT_EQ(kb.ground().value(), sole);
  EXPECT_GT(sole->NumRules(), sole_rules);
  EXPECT_EQ(kb.Query("m", "q(c)").value(), TruthValue::kTrue);
}

TEST(KnowledgeBaseTest, IsaCycleSurfacesAtQueryTime) {
  KnowledgeBase kb;
  ASSERT_TRUE(kb.AddModule("a").ok());
  ASSERT_TRUE(kb.AddModule("b").ok());
  ASSERT_TRUE(kb.AddRuleText("a", "p.").ok());
  ASSERT_TRUE(kb.AddIsa("a", "b").ok());
  ASSERT_TRUE(kb.AddIsa("b", "a").ok());
  const auto result = kb.Query("a", "p");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ordlog
