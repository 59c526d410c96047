// A catalog of malformed inputs: every entry must fail with
// kInvalidArgument and a diagnostic that carries a line:column position,
// never crash, and (where specified) mention the expected context.

#include <string>

#include "gtest/gtest.h"
#include "parser/parser.h"

namespace ordlog {
namespace {

struct ErrorCase {
  const char* name;
  const char* source;
  const char* expect_substring;  // nullptr = only check failure + position
  // Semantic (order-validation) errors have no token position.
  bool has_position = true;
};

class ErrorCatalogTest : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(ErrorCatalogTest, FailsWithPositionedDiagnostic) {
  const auto program = ParseProgram(GetParam().source);
  ASSERT_FALSE(program.ok()) << "unexpectedly parsed: "
                             << GetParam().source;
  EXPECT_EQ(program.status().code(), StatusCode::kInvalidArgument);
  const std::string& message = program.status().message();
  // Every syntax diagnostic carries "at LINE:COL".
  if (GetParam().has_position) {
    EXPECT_NE(message.find(" at "), std::string::npos) << message;
  }
  if (GetParam().expect_substring != nullptr) {
    EXPECT_NE(message.find(GetParam().expect_substring), std::string::npos)
        << message;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Catalog, ErrorCatalogTest,
    ::testing::Values(
        ErrorCase{"missing_period", "p", "expected '.'"},
        ErrorCase{"empty_body", "p :- .", "expected"},
        ErrorCase{"dangling_comma", "p :- q, .", nullptr},
        ErrorCase{"bare_implies", ":- q.", "expected predicate name"},
        ErrorCase{"unclosed_paren", "p(a.", nullptr},
        ErrorCase{"unclosed_component", "component c { p.", "unterminated"},
        ErrorCase{"component_no_name", "component { p. }", "name"},
        ErrorCase{"component_no_brace", "component c p.", nullptr},
        ErrorCase{"order_no_less", "component a {} order a.", "'<'"},
        ErrorCase{"order_trailing", "component a {} component b {} "
                                     "order a < b", nullptr},
        ErrorCase{"order_variable", "order A < b.", nullptr},
        ErrorCase{"double_negation", "--p.", nullptr},
        ErrorCase{"negative_head_no_atom", "- :- q.", nullptr},
        ErrorCase{"comparison_no_rhs", "p :- X > .", nullptr},
        ErrorCase{"comparison_chain", "p :- 1 < X < 3.", nullptr},
        ErrorCase{"stray_rbrace", "p. }", nullptr},
        ErrorCase{"bad_char", "p :- q & r.", nullptr},
        ErrorCase{"lone_colon", "p : q.", "':-'"},
        ErrorCase{"bang_alone", "p :- X ! 3.", "'!='"},
        ErrorCase{"variable_fact", "X.", nullptr},
        ErrorCase{"term_as_rule", "3.", nullptr},
        ErrorCase{"integer_overflow", "p(99999999999999999999).",
                  "exceeds 9223372036854775807"},
        ErrorCase{"cycle",
                  "component a {} component b {} order a < b. "
                  "order b < a.",
                  "cycle", /*has_position=*/false},
        ErrorCase{"self_order", "component a {} order a < a.",
                  "below itself", /*has_position=*/false}),
    [](const ::testing::TestParamInfo<ErrorCase>& param_info) {
      return param_info.param.name;
    });

TEST(ErrorCatalogTest, PositionsPointAtTheOffendingToken) {
  const auto program = ParseProgram("p.\nq :- r,, s.\n");
  ASSERT_FALSE(program.ok());
  EXPECT_NE(program.status().message().find("2:8"), std::string::npos)
      << program.status();
}

}  // namespace
}  // namespace ordlog
