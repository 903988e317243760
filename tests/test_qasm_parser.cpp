// Tests for the QasmLite parser.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>

#include "common/error.hpp"
#include "qasm/parser.hpp"

namespace qcgen::qasm {
namespace {

constexpr const char* kValidProgram = R"(
import qiskit;
import qiskit.circuit;

circuit main(q: 2, c: 2) {
  h q[0];
  cx q[0], q[1];
  rz(pi/4) q[1];
  barrier;
  measure q[0] -> c[0];
  measure q[1] -> c[1];
}
)";

TEST(Parser, AcceptsValidProgram) {
  const ParseResult r = parse(kValidProgram);
  ASSERT_TRUE(r.ok()) << format_error_trace(r.diagnostics);
  EXPECT_EQ(r.program->imports.size(), 2u);
  EXPECT_EQ(r.program->imports[1].path, "qiskit.circuit");
  ASSERT_EQ(r.program->circuits.size(), 1u);
  const CircuitDecl& c = r.program->circuits[0];
  EXPECT_EQ(c.name, "main");
  EXPECT_EQ(c.num_qubits, 2u);
  EXPECT_EQ(c.num_clbits, 2u);
  EXPECT_EQ(c.body.size(), 6u);
}

TEST(Parser, DottedImportPathsWithKeywords) {
  // "circuit" and "measure" are keywords but valid as path components.
  const ParseResult r =
      parse("import qiskit.circuit.measure; circuit m(q: 1) { h q[0]; }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.program->imports[0].path, "qiskit.circuit.measure");
}

TEST(Parser, GateParametersEvaluate) {
  const ParseResult r = parse(
      "import qiskit; circuit m(q: 1) { rz(pi/2) q[0]; ry(-pi) q[0]; "
      "u(2*pi, 0.5, 1 + 2 * 3) q[0]; }");
  ASSERT_TRUE(r.ok()) << format_error_trace(r.diagnostics);
  const auto& body = r.program->circuits[0].body;
  const auto& rz = std::get<GateStmt>(body[0]);
  EXPECT_NEAR(rz.params[0]->evaluate(), std::numbers::pi / 2, 1e-12);
  const auto& ry = std::get<GateStmt>(body[1]);
  EXPECT_NEAR(ry.params[0]->evaluate(), -std::numbers::pi, 1e-12);
  const auto& u = std::get<GateStmt>(body[2]);
  EXPECT_NEAR(u.params[0]->evaluate(), 2 * std::numbers::pi, 1e-12);
  EXPECT_NEAR(u.params[2]->evaluate(), 7.0, 1e-12);
}

TEST(Parser, ParenthesisedExpressions) {
  const ParseResult r =
      parse("import qiskit; circuit m(q: 1) { rz((1 + 2) * 3) q[0]; }");
  ASSERT_TRUE(r.ok());
  const auto& g = std::get<GateStmt>(r.program->circuits[0].body[0]);
  EXPECT_NEAR(g.params[0]->evaluate(), 9.0, 1e-12);
}

TEST(Parser, MeasureStatement) {
  const ParseResult r =
      parse("import qiskit; circuit m(q: 2, c: 2) { measure q[1] -> c[0]; }");
  ASSERT_TRUE(r.ok());
  const auto& m = std::get<MeasureStmt>(r.program->circuits[0].body[0]);
  EXPECT_EQ(m.qubit.index, 1u);
  EXPECT_EQ(m.clbit.index, 0u);
}

TEST(Parser, IfStatement) {
  const ParseResult r = parse(
      "import qiskit; circuit m(q: 2, c: 2) { measure q[0] -> c[0]; "
      "if (c[0] == 1) x q[1]; }");
  ASSERT_TRUE(r.ok());
  const auto& node =
      std::get<std::shared_ptr<IfStmt>>(r.program->circuits[0].body[1]);
  EXPECT_EQ(node->clbit.index, 0u);
  EXPECT_TRUE(node->value);
  EXPECT_EQ(std::get<GateStmt>(node->body).name, "x");
}

TEST(Parser, IfConditionMustBeBit) {
  const ParseResult r = parse(
      "import qiskit; circuit m(q: 1, c: 1) { if (c[0] == 2) x q[0]; }");
  EXPECT_FALSE(r.ok());
}

TEST(Parser, MeasureAllAndReset) {
  const ParseResult r = parse(
      "import qiskit; circuit m(q: 2, c: 2) { reset q[0]; measure_all; }");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(std::holds_alternative<ResetStmt>(r.program->circuits[0].body[0]));
  EXPECT_TRUE(
      std::holds_alternative<MeasureAllStmt>(r.program->circuits[0].body[1]));
}

TEST(Parser, MissingSemicolonIsError) {
  const ParseResult r = parse("import qiskit; circuit m(q: 1) { h q[0] }");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_errors(r.diagnostics));
}

TEST(Parser, MissingBraceIsError) {
  const ParseResult r = parse("import qiskit; circuit m(q: 1) { h q[0];");
  EXPECT_FALSE(r.ok());
}

TEST(Parser, StrayTopLevelTokensDoNotLoop) {
  // Regression: stray '}' at top level must terminate with diagnostics,
  // not accumulate errors forever.
  const ParseResult r = parse("} } } import qiskit;");
  EXPECT_FALSE(r.ok());
  EXPECT_LT(r.diagnostics.size(), 10u);
}

TEST(Parser, GarbageInput) {
  const ParseResult r = parse("@@@ %%% &&&");
  EXPECT_FALSE(r.ok());
}

TEST(Parser, MultipleCircuitsAndEntrySelection) {
  const ParseResult r = parse(
      "import qiskit;"
      "circuit helper(q: 1) { x q[0]; }"
      "circuit main(q: 2, c: 2) { h q[0]; measure_all; }");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.program->circuits.size(), 2u);
  EXPECT_EQ(r.program->entry()->name, "main");
}

TEST(Parser, EntryFallsBackToFirstCircuit) {
  const ParseResult r =
      parse("import qiskit; circuit bell(q: 2, c: 2) { h q[0]; }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.program->entry()->name, "bell");
}

TEST(Parser, EmptyProgramHasNoEntry) {
  Program empty;
  EXPECT_EQ(empty.entry(), nullptr);
}

TEST(Parser, RegisterNamesArePreserved) {
  const ParseResult r =
      parse("import qiskit; circuit m(qubits: 2, bits: 2) { h qubits[0]; }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.program->circuits[0].qreg_name, "qubits");
  EXPECT_EQ(r.program->circuits[0].creg_name, "bits");
}

TEST(Parser, DiagnosticsCarryLocation) {
  const ParseResult r = parse("import qiskit;\ncircuit m(q: 1) {\n  h q[; \n}");
  ASSERT_FALSE(r.ok());
  bool found_line3 = false;
  for (const auto& d : r.diagnostics) {
    if (d.line == 3) found_line3 = true;
  }
  EXPECT_TRUE(found_line3);
}

// The expect() contexts on the per-gate path, pinned as full text, line
// and column: the message is built only when the token is missing.
TEST(Parser, PerGateExpectDiagnosticsAreExact) {
  struct Case {
    const char* body;
    int line, column;
    const char* message;
  };
  const Case cases[] = {
      {"  h q;\n", 3, 6, "expected '[' after register name, found ';'"},
      {"  cx q[0], q[1;\n", 3, 15,
       "expected ']' after register index, found ';'"},
      {"  h q[0]\n  x q[1];\n", 4, 3,
       "expected ';' after gate statement, found identifier"},
  };
  for (const Case& c : cases) {
    const ParseResult r = parse(
        std::string("import qiskit;\ncircuit m(q: 2) {\n") + c.body + "}\n");
    ASSERT_FALSE(r.diagnostics.empty()) << c.body;
    const Diagnostic& d = r.diagnostics.front();
    EXPECT_EQ(d.message, c.message);
    EXPECT_EQ(d.line, c.line) << c.message;
    EXPECT_EQ(d.column, c.column) << c.message;
  }
}

TEST(Expr, EvaluateAllKinds) {
  const ExprPtr e = Expr::make_binary(
      Expr::Kind::kSub,
      Expr::make_binary(Expr::Kind::kMul, Expr::make_number(2.0),
                        Expr::make_pi()),
      Expr::make_unary(Expr::Kind::kNeg, Expr::make_number(1.0)));
  EXPECT_NEAR(e->evaluate(), 2 * std::numbers::pi + 1.0, 1e-12);
  const ExprPtr div = Expr::make_binary(Expr::Kind::kDiv, Expr::make_pi(),
                                        Expr::make_number(4.0));
  EXPECT_NEAR(div->evaluate(), std::numbers::pi / 4, 1e-12);
}

TEST(Expr, FactoryValidation) {
  EXPECT_THROW(Expr::make_unary(Expr::Kind::kAdd, Expr::make_pi()),
               qcgen::InvalidArgumentError);
  EXPECT_THROW(
      Expr::make_binary(Expr::Kind::kNeg, Expr::make_pi(), Expr::make_pi()),
      qcgen::InvalidArgumentError);
}

}  // namespace
}  // namespace qcgen::qasm
