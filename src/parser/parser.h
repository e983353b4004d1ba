// Recursive-descent parser for the purec C dialect: the C11 subset used by
// the paper's listings and evaluation applications, plus the `pure`
// extension on functions and pointer declarations.
//
// Placement rules for `pure` (paper §3.1, Listing 1):
//   pure int* func(pure int* p1, int p2);
//   ^~~~ marks the *function* pure        ^~~~ marks the *pointer* pure
// and in casts: `(pure int*)globalPtr`.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ast/decl.h"
#include "lexer/token.h"
#include "support/diagnostics.h"
#include "support/source_buffer.h"

namespace purec {

class Parser {
 public:
  Parser(std::vector<Token> tokens, DiagnosticEngine& diags);

  /// Parses a whole translation unit. Errors are reported to the
  /// DiagnosticEngine; the parser recovers at statement/declaration
  /// boundaries so one error does not hide the rest of the file.
  [[nodiscard]] TranslationUnit parse_translation_unit();

  /// Parses a single expression (used by tests and by the chain when
  /// re-materializing substituted calls).
  [[nodiscard]] ExprPtr parse_standalone_expression();

 private:
  // -- token plumbing -------------------------------------------------------
  [[nodiscard]] const Token& peek(std::size_t ahead = 0) const;
  [[nodiscard]] bool at(TokenKind kind) const { return peek().is(kind); }
  [[nodiscard]] bool at_end() const { return at(TokenKind::EndOfFile); }
  const Token& advance();
  bool accept(TokenKind kind);
  const Token& expect(TokenKind kind, std::string_view what);
  void error_here(std::string message);
  void synchronize_to_statement_boundary();

  // -- type machinery -------------------------------------------------------
  struct DeclSpecifiers {
    TypePtr base_type;
    bool is_typedef = false;
    bool is_static = false;
    bool is_extern = false;
    bool is_const = false;
    bool is_volatile = false;
    bool is_pure = false;  // leading `pure` — meaning depends on declarator
    SourceLocation loc;
  };
  /// True if the current token could begin a declaration.
  [[nodiscard]] bool at_declaration_start() const;
  /// True if the token sequence starting at `ahead` looks like a type name
  /// (for cast disambiguation).
  [[nodiscard]] bool looks_like_type(std::size_t ahead) const;
  [[nodiscard]] DeclSpecifiers parse_decl_specifiers();
  /// Parses `*`s and qualifiers, wrapping `base`.
  [[nodiscard]] TypePtr parse_pointer_suffix(TypePtr base, bool decl_pure);

  struct Declarator {
    std::string name;
    TypePtr type;              // fully-wrapped type
    bool is_function = false;
    std::vector<ParamDecl> params;
    bool is_variadic = false;
    SourceLocation loc;
  };
  [[nodiscard]] Declarator parse_declarator(TypePtr base, bool decl_pure);
  [[nodiscard]] TypePtr parse_type_name();  // for casts / sizeof

  // -- declarations ---------------------------------------------------------
  void parse_top_level(TranslationUnit& tu);
  [[nodiscard]] std::unique_ptr<StructDecl> parse_struct_definition(
      DeclSpecifiers& specs);
  [[nodiscard]] std::vector<ParamDecl> parse_parameter_list(bool& variadic);

  // -- statements -----------------------------------------------------------
  [[nodiscard]] StmtPtr parse_statement();
  [[nodiscard]] std::unique_ptr<CompoundStmt> parse_compound();
  [[nodiscard]] StmtPtr parse_declaration_statement();
  [[nodiscard]] StmtPtr parse_for();
  [[nodiscard]] StmtPtr parse_if();
  [[nodiscard]] StmtPtr parse_while();
  [[nodiscard]] StmtPtr parse_do_while();

  // -- expressions (precedence climbing) ------------------------------------
  [[nodiscard]] ExprPtr parse_expression();  // includes comma
  [[nodiscard]] ExprPtr parse_assignment();
  [[nodiscard]] ExprPtr parse_conditional();
  [[nodiscard]] ExprPtr parse_binary(int min_precedence);
  [[nodiscard]] ExprPtr parse_cast_expression();
  [[nodiscard]] ExprPtr parse_unary();
  [[nodiscard]] ExprPtr parse_postfix();
  [[nodiscard]] ExprPtr parse_primary();

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  DiagnosticEngine& diags_;
  std::set<std::string, std::less<>> typedef_names_;
};

/// End-to-end convenience: lex + parse.
[[nodiscard]] TranslationUnit parse(const SourceBuffer& buffer,
                                    DiagnosticEngine& diags);

}  // namespace purec
