// Type representation for the purec C dialect. Types are immutable and
// shared (value semantics via shared_ptr<const Type>), which keeps the AST
// cheap to copy-analyze and makes qualifier handling explicit: `pure` and
// `const` live on each pointer/array level, exactly how the paper's
// keyword attaches to pointer declarations.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace purec {

enum class TypeKind : std::uint8_t {
  Builtin,
  Pointer,
  Array,
  Struct,
  Named,  // typedef reference, resolved by sema
};

enum class BuiltinKind : std::uint8_t {
  Void,
  Bool,
  Char,
  SChar,
  UChar,
  Short,
  UShort,
  Int,
  UInt,
  Long,
  ULong,
  LongLong,
  ULongLong,
  Float,
  Double,
  LongDouble,
};

class Type;
using TypePtr = std::shared_ptr<const Type>;

/// One level of the C type tree plus its qualifiers.
class Type {
 public:
  TypeKind kind = TypeKind::Builtin;
  BuiltinKind builtin = BuiltinKind::Int;

  bool is_const = false;
  /// The paper's qualifier: single-assignment, never written through.
  bool is_pure = false;
  /// Every access happens as written: a nest that touches a volatile
  /// object is never reordered or parallelized.
  bool is_volatile = false;
  /// C99 `restrict` (pointer levels only): kept so the printed C carries
  /// the programmer's no-alias promise to the backend compiler.
  bool is_restrict = false;

  TypePtr pointee;                        // Pointer
  TypePtr element;                        // Array
  std::optional<std::int64_t> array_size; // Array ([] -> nullopt)
  std::string name;                       // Struct tag / typedef name

  // -- factories ----------------------------------------------------------
  [[nodiscard]] static TypePtr make_builtin(BuiltinKind kind,
                                            bool is_const = false,
                                            bool is_pure = false);
  [[nodiscard]] static TypePtr make_pointer(TypePtr pointee,
                                            bool is_const = false,
                                            bool is_pure = false);
  [[nodiscard]] static TypePtr make_array(TypePtr element,
                                          std::optional<std::int64_t> size);
  [[nodiscard]] static TypePtr make_struct(std::string tag);
  [[nodiscard]] static TypePtr make_named(std::string typedef_name);

  /// Same type with `is_pure` / `is_const` / `is_volatile` /
  /// `is_restrict` replaced on the top level.
  [[nodiscard]] TypePtr with_pure(bool pure) const;
  [[nodiscard]] TypePtr with_const(bool constant) const;
  [[nodiscard]] TypePtr with_volatile(bool is_volatile) const;
  [[nodiscard]] TypePtr with_restrict(bool is_restrict) const;

  // -- queries -------------------------------------------------------------
  [[nodiscard]] bool is_pointer() const noexcept {
    return kind == TypeKind::Pointer;
  }
  [[nodiscard]] bool is_array() const noexcept {
    return kind == TypeKind::Array;
  }
  [[nodiscard]] bool is_void() const noexcept {
    return kind == TypeKind::Builtin && builtin == BuiltinKind::Void;
  }
  [[nodiscard]] bool is_integer() const noexcept;
  [[nodiscard]] bool is_floating() const noexcept;
  [[nodiscard]] bool is_arithmetic() const noexcept {
    return is_integer() || is_floating();
  }
  /// True if this type or any pointee/element level carries `pure`.
  [[nodiscard]] bool any_level_pure() const noexcept;
  /// True if this type or any pointee/element level is volatile.
  [[nodiscard]] bool any_level_volatile() const noexcept;

  /// Structural equality including qualifiers.
  [[nodiscard]] bool equals(const Type& other) const noexcept;

  /// C-ish rendering, e.g. "pure float*" or "int[100]".
  [[nodiscard]] std::string to_string() const;
};

[[nodiscard]] std::string to_string(BuiltinKind kind);

}  // namespace purec
