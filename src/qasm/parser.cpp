#include "qasm/parser.hpp"

#include <cmath>
#include <numbers>
#include <string_view>

#include "common/error.hpp"

namespace qcgen::qasm {

// --- Expr helpers ---------------------------------------------------------

ExprPtr Expr::make_number(double v) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kNumber;
  e->number = v;
  return e;
}

ExprPtr Expr::make_pi() {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kPi;
  return e;
}

ExprPtr Expr::make_unary(Kind k, ExprPtr operand) {
  require(k == Kind::kNeg, "Expr::make_unary: not a unary kind");
  auto e = std::make_shared<Expr>();
  e->kind = k;
  e->lhs = std::move(operand);
  return e;
}

ExprPtr Expr::make_binary(Kind k, ExprPtr lhs, ExprPtr rhs) {
  require(k == Kind::kAdd || k == Kind::kSub || k == Kind::kMul ||
              k == Kind::kDiv,
          "Expr::make_binary: not a binary kind");
  auto e = std::make_shared<Expr>();
  e->kind = k;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

double Expr::evaluate() const {
  switch (kind) {
    case Kind::kNumber: return number;
    case Kind::kPi: return std::numbers::pi;
    case Kind::kNeg: return -lhs->evaluate();
    case Kind::kAdd: return lhs->evaluate() + rhs->evaluate();
    case Kind::kSub: return lhs->evaluate() - rhs->evaluate();
    case Kind::kMul: return lhs->evaluate() * rhs->evaluate();
    case Kind::kDiv: return lhs->evaluate() / rhs->evaluate();
  }
  return 0.0;
}

const CircuitDecl* Program::entry() const {
  for (const auto& c : circuits) {
    if (c.name == "main") return &c;
  }
  return circuits.empty() ? nullptr : &circuits.front();
}

int stmt_line(const Stmt& stmt) {
  return std::visit(
      [](const auto& s) -> int {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, std::shared_ptr<IfStmt>>) {
          return s ? s->line : 0;
        } else {
          return s.line;
        }
      },
      stmt);
}

// --- Parser ---------------------------------------------------------------

namespace {

class Parser {
 public:
  Parser(std::vector<Token> tokens, std::vector<Diagnostic> diags)
      : tokens_(std::move(tokens)), diags_(std::move(diags)) {}

  ParseResult run() {
    Program program;
    bool failed = has_errors(diags_);  // lexical errors already fatal
    while (!at(TokenKind::kEof)) {
      if (at(TokenKind::kKeywordImport)) {
        if (auto imp = parse_import()) {
          program.imports.push_back(*imp);
        } else {
          failed = true;
          synchronise();
        }
      } else if (at(TokenKind::kKeywordCircuit)) {
        if (auto circ = parse_circuit()) {
          program.circuits.push_back(std::move(*circ));
        } else {
          failed = true;
          synchronise();
        }
      } else {
        error("expected 'import' or 'circuit', found " +
              std::string(token_kind_name(peek().kind)));
        failed = true;
        advance();  // always make progress on stray top-level tokens
        synchronise();
      }
    }
    ParseResult result;
    result.diagnostics = std::move(diags_);
    if (!failed && !has_errors(result.diagnostics)) {
      result.program = std::move(program);
    }
    return result;
  }

 private:
  const Token& peek(std::size_t off = 0) const {
    const std::size_t i = std::min(pos_ + off, tokens_.size() - 1);
    return tokens_[i];
  }
  bool at(TokenKind kind) const { return peek().kind == kind; }
  const Token& advance() {
    const Token& t = tokens_[pos_];
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }
  bool match(TokenKind kind) {
    if (!at(kind)) return false;
    advance();
    return true;
  }
  /// `context` is a view so that a successful call, the common case on
  /// every gate, builds no string; the message is built on error only.
  bool expect(TokenKind kind, std::string_view context) {
    if (match(kind)) return true;
    error("expected " + std::string(token_kind_name(kind)) + " " +
          std::string(context) + ", found " +
          std::string(token_kind_name(peek().kind)));
    return false;
  }
  void error(const std::string& message) {
    Diagnostic diag;
    diag.severity = Severity::kError;
    diag.code = DiagCode::kParseError;
    diag.message = message;
    diag.line = peek().line;
    diag.column = peek().column;
    diags_.push_back(std::move(diag));
  }
  /// Skips to the next statement/declaration boundary after an error.
  void synchronise() {
    while (!at(TokenKind::kEof)) {
      if (match(TokenKind::kSemicolon)) return;
      if (at(TokenKind::kRBrace) || at(TokenKind::kKeywordCircuit) ||
          at(TokenKind::kKeywordImport)) {
        return;
      }
      advance();
    }
  }

  /// Keywords are valid words inside dotted import paths (e.g. the
  /// module "qiskit.circuit" contains the keyword "circuit").
  bool at_word() const {
    switch (peek().kind) {
      case TokenKind::kIdentifier:
      case TokenKind::kKeywordImport:
      case TokenKind::kKeywordCircuit:
      case TokenKind::kKeywordMeasure:
      case TokenKind::kKeywordMeasureAll:
      case TokenKind::kKeywordBarrier:
      case TokenKind::kKeywordReset:
      case TokenKind::kKeywordIf:
      case TokenKind::kKeywordPi:
        return true;
      default:
        return false;
    }
  }

  std::optional<Import> parse_import() {
    const Token& kw = advance();  // 'import'
    Import imp;
    imp.line = kw.line;
    if (!at_word()) {
      error("expected module path after 'import'");
      return std::nullopt;
    }
    imp.path = advance().text;
    while (match(TokenKind::kDot)) {
      if (!at_word()) {
        error("expected identifier after '.' in import path");
        return std::nullopt;
      }
      imp.path += "." + advance().text;
    }
    if (!expect(TokenKind::kSemicolon, "after import")) return std::nullopt;
    return imp;
  }

  std::optional<CircuitDecl> parse_circuit() {
    const Token& kw = advance();  // 'circuit'
    CircuitDecl decl;
    decl.line = kw.line;
    if (!at(TokenKind::kIdentifier)) {
      error("expected circuit name");
      return std::nullopt;
    }
    decl.name = advance().text;
    if (!expect(TokenKind::kLParen, "after circuit name")) return std::nullopt;
    // q: <n>, c: <m>   (c section optional)
    if (!at(TokenKind::kIdentifier)) {
      error("expected quantum register declaration (e.g. 'q: 3')");
      return std::nullopt;
    }
    decl.qreg_name = advance().text;
    if (!expect(TokenKind::kColon, "after register name")) return std::nullopt;
    if (!at(TokenKind::kNumber)) {
      error("expected qubit count");
      return std::nullopt;
    }
    decl.num_qubits = static_cast<std::size_t>(advance().number);
    if (match(TokenKind::kComma)) {
      if (!at(TokenKind::kIdentifier)) {
        error("expected classical register declaration (e.g. 'c: 3')");
        return std::nullopt;
      }
      decl.creg_name = advance().text;
      if (!expect(TokenKind::kColon, "after register name")) return std::nullopt;
      if (!at(TokenKind::kNumber)) {
        error("expected classical bit count");
        return std::nullopt;
      }
      decl.num_clbits = static_cast<std::size_t>(advance().number);
    }
    if (!expect(TokenKind::kRParen, "after register declarations")) {
      return std::nullopt;
    }
    if (!expect(TokenKind::kLBrace, "to open circuit body")) return std::nullopt;
    while (!at(TokenKind::kRBrace) && !at(TokenKind::kEof)) {
      auto stmt = parse_statement();
      if (!stmt) {
        synchronise();
        return std::nullopt;
      }
      decl.body.push_back(std::move(*stmt));
    }
    if (!expect(TokenKind::kRBrace, "to close circuit body")) {
      return std::nullopt;
    }
    return decl;
  }

  std::optional<Stmt> parse_statement() {
    if (at(TokenKind::kKeywordMeasure)) return parse_measure();
    if (at(TokenKind::kKeywordMeasureAll)) {
      const Token& kw = advance();
      if (!expect(TokenKind::kSemicolon, "after measure_all")) {
        return std::nullopt;
      }
      return Stmt{MeasureAllStmt{kw.line}};
    }
    if (at(TokenKind::kKeywordBarrier)) {
      const Token& kw = advance();
      if (!expect(TokenKind::kSemicolon, "after barrier")) return std::nullopt;
      return Stmt{BarrierStmt{kw.line}};
    }
    if (at(TokenKind::kKeywordReset)) {
      const Token& kw = advance();
      auto ref = parse_reg_ref();
      if (!ref) return std::nullopt;
      if (!expect(TokenKind::kSemicolon, "after reset")) return std::nullopt;
      return Stmt{ResetStmt{*ref, kw.line}};
    }
    if (at(TokenKind::kKeywordIf)) return parse_if();
    if (at(TokenKind::kIdentifier)) return parse_gate();
    error("expected a statement, found " +
          std::string(token_kind_name(peek().kind)));
    return std::nullopt;
  }

  std::optional<Stmt> parse_measure() {
    const Token& kw = advance();  // 'measure'
    auto q = parse_reg_ref();
    if (!q) return std::nullopt;
    if (!expect(TokenKind::kArrow, "between measure source and target")) {
      return std::nullopt;
    }
    auto c = parse_reg_ref();
    if (!c) return std::nullopt;
    if (!expect(TokenKind::kSemicolon, "after measure")) return std::nullopt;
    return Stmt{MeasureStmt{*q, *c, kw.line}};
  }

  std::optional<Stmt> parse_if() {
    const Token& kw = advance();  // 'if'
    if (!expect(TokenKind::kLParen, "after 'if'")) return std::nullopt;
    auto c = parse_reg_ref();
    if (!c) return std::nullopt;
    if (!expect(TokenKind::kEqualEqual, "in if condition")) return std::nullopt;
    if (!at(TokenKind::kNumber)) {
      error("expected 0 or 1 in if condition");
      return std::nullopt;
    }
    const double v = advance().number;
    if (v != 0.0 && v != 1.0) {
      error("if condition value must be 0 or 1");
      return std::nullopt;
    }
    if (!expect(TokenKind::kRParen, "after if condition")) return std::nullopt;
    auto body = parse_statement();
    if (!body) return std::nullopt;
    auto node = std::make_shared<IfStmt>();
    node->clbit = *c;
    node->value = v != 0.0;
    node->body = std::move(*body);
    node->line = kw.line;
    return Stmt{std::move(node)};
  }

  std::optional<Stmt> parse_gate() {
    const Token& name = advance();
    GateStmt stmt;
    stmt.name = name.text;
    stmt.line = name.line;
    if (match(TokenKind::kLParen)) {
      if (!at(TokenKind::kRParen)) {
        do {
          auto e = parse_expr();
          if (!e) return std::nullopt;
          stmt.params.push_back(std::move(e));
        } while (match(TokenKind::kComma));
      }
      if (!expect(TokenKind::kRParen, "after gate parameters")) {
        return std::nullopt;
      }
    }
    if (!at(TokenKind::kSemicolon)) {
      do {
        auto ref = parse_reg_ref();
        if (!ref) return std::nullopt;
        stmt.operands.push_back(*ref);
      } while (match(TokenKind::kComma));
    }
    if (!expect(TokenKind::kSemicolon, "after gate statement")) {
      return std::nullopt;
    }
    return Stmt{std::move(stmt)};
  }

  std::optional<RegRef> parse_reg_ref() {
    if (!at(TokenKind::kIdentifier)) {
      error("expected register reference (e.g. q[0])");
      return std::nullopt;
    }
    const Token& name = advance();
    RegRef ref;
    ref.reg = name.text;
    ref.line = name.line;
    if (!expect(TokenKind::kLBracket, "after register name")) {
      return std::nullopt;
    }
    if (!at(TokenKind::kNumber)) {
      error("expected register index");
      return std::nullopt;
    }
    ref.index = static_cast<std::size_t>(advance().number);
    if (!expect(TokenKind::kRBracket, "after register index")) {
      return std::nullopt;
    }
    return ref;
  }

  // expr := term (('+'|'-') term)*
  // term := factor (('*'|'/') factor)*
  // factor := NUMBER | 'pi' | '-' factor | '(' expr ')'
  ExprPtr parse_expr() {
    ExprPtr lhs = parse_term();
    if (!lhs) return nullptr;
    while (at(TokenKind::kPlus) || at(TokenKind::kMinus)) {
      const bool add = advance().kind == TokenKind::kPlus;
      ExprPtr rhs = parse_term();
      if (!rhs) return nullptr;
      lhs = Expr::make_binary(add ? Expr::Kind::kAdd : Expr::Kind::kSub,
                              std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  ExprPtr parse_term() {
    ExprPtr lhs = parse_factor();
    if (!lhs) return nullptr;
    while (at(TokenKind::kStar) || at(TokenKind::kSlash)) {
      const bool mul = advance().kind == TokenKind::kStar;
      ExprPtr rhs = parse_factor();
      if (!rhs) return nullptr;
      lhs = Expr::make_binary(mul ? Expr::Kind::kMul : Expr::Kind::kDiv,
                              std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  ExprPtr parse_factor() {
    if (at(TokenKind::kNumber)) return Expr::make_number(advance().number);
    if (at(TokenKind::kKeywordPi)) {
      advance();
      return Expr::make_pi();
    }
    if (match(TokenKind::kMinus)) {
      ExprPtr inner = parse_factor();
      if (!inner) return nullptr;
      return Expr::make_unary(Expr::Kind::kNeg, std::move(inner));
    }
    if (match(TokenKind::kLParen)) {
      ExprPtr inner = parse_expr();
      if (!inner) return nullptr;
      if (!expect(TokenKind::kRParen, "in parameter expression")) {
        return nullptr;
      }
      return inner;
    }
    error("expected a parameter expression");
    return nullptr;
  }

  std::vector<Token> tokens_;
  std::vector<Diagnostic> diags_;
  std::size_t pos_ = 0;
};

}  // namespace

ParseResult parse(std::string_view source) {
  LexResult lexed = lex(source);
  Parser parser(std::move(lexed.tokens), std::move(lexed.diagnostics));
  return parser.run();
}

}  // namespace qcgen::qasm
