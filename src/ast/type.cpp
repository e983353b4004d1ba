#include "ast/type.h"

namespace purec {

std::string to_string(BuiltinKind kind) {
  switch (kind) {
    case BuiltinKind::Void: return "void";
    case BuiltinKind::Bool: return "_Bool";
    case BuiltinKind::Char: return "char";
    case BuiltinKind::SChar: return "signed char";
    case BuiltinKind::UChar: return "unsigned char";
    case BuiltinKind::Short: return "short";
    case BuiltinKind::UShort: return "unsigned short";
    case BuiltinKind::Int: return "int";
    case BuiltinKind::UInt: return "unsigned int";
    case BuiltinKind::Long: return "long";
    case BuiltinKind::ULong: return "unsigned long";
    case BuiltinKind::LongLong: return "long long";
    case BuiltinKind::ULongLong: return "unsigned long long";
    case BuiltinKind::Float: return "float";
    case BuiltinKind::Double: return "double";
    case BuiltinKind::LongDouble: return "long double";
  }
  return "<?>";
}

TypePtr Type::make_builtin(BuiltinKind kind, bool is_const, bool is_pure) {
  auto t = std::make_shared<Type>();
  t->kind = TypeKind::Builtin;
  t->builtin = kind;
  t->is_const = is_const;
  t->is_pure = is_pure;
  return t;
}

TypePtr Type::make_pointer(TypePtr pointee, bool is_const, bool is_pure) {
  auto t = std::make_shared<Type>();
  t->kind = TypeKind::Pointer;
  t->pointee = std::move(pointee);
  t->is_const = is_const;
  t->is_pure = is_pure;
  return t;
}

TypePtr Type::make_array(TypePtr element, std::optional<std::int64_t> size) {
  auto t = std::make_shared<Type>();
  t->kind = TypeKind::Array;
  t->element = std::move(element);
  t->array_size = size;
  return t;
}

TypePtr Type::make_struct(std::string tag) {
  auto t = std::make_shared<Type>();
  t->kind = TypeKind::Struct;
  t->name = std::move(tag);
  return t;
}

TypePtr Type::make_named(std::string typedef_name) {
  auto t = std::make_shared<Type>();
  t->kind = TypeKind::Named;
  t->name = std::move(typedef_name);
  return t;
}

TypePtr Type::with_pure(bool pure) const {
  auto t = std::make_shared<Type>(*this);
  t->is_pure = pure;
  return t;
}

TypePtr Type::with_const(bool constant) const {
  auto t = std::make_shared<Type>(*this);
  t->is_const = constant;
  return t;
}

TypePtr Type::with_volatile(bool is_volatile) const {
  auto t = std::make_shared<Type>(*this);
  t->is_volatile = is_volatile;
  return t;
}

TypePtr Type::with_restrict(bool is_restrict) const {
  auto t = std::make_shared<Type>(*this);
  t->is_restrict = is_restrict;
  return t;
}

bool Type::is_integer() const noexcept {
  if (kind != TypeKind::Builtin) return false;
  switch (builtin) {
    case BuiltinKind::Bool:
    case BuiltinKind::Char:
    case BuiltinKind::SChar:
    case BuiltinKind::UChar:
    case BuiltinKind::Short:
    case BuiltinKind::UShort:
    case BuiltinKind::Int:
    case BuiltinKind::UInt:
    case BuiltinKind::Long:
    case BuiltinKind::ULong:
    case BuiltinKind::LongLong:
    case BuiltinKind::ULongLong:
      return true;
    default:
      return false;
  }
}

bool Type::is_floating() const noexcept {
  if (kind != TypeKind::Builtin) return false;
  return builtin == BuiltinKind::Float || builtin == BuiltinKind::Double ||
         builtin == BuiltinKind::LongDouble;
}

bool Type::any_level_pure() const noexcept {
  if (is_pure) return true;
  if (pointee != nullptr) return pointee->any_level_pure();
  if (element != nullptr) return element->any_level_pure();
  return false;
}

bool Type::any_level_volatile() const noexcept {
  if (is_volatile) return true;
  if (pointee != nullptr) return pointee->any_level_volatile();
  if (element != nullptr) return element->any_level_volatile();
  return false;
}

bool Type::equals(const Type& other) const noexcept {
  if (kind != other.kind || is_const != other.is_const ||
      is_pure != other.is_pure || is_volatile != other.is_volatile ||
      is_restrict != other.is_restrict) {
    return false;
  }
  switch (kind) {
    case TypeKind::Builtin:
      return builtin == other.builtin;
    case TypeKind::Pointer:
      return pointee->equals(*other.pointee);
    case TypeKind::Array:
      return array_size == other.array_size &&
             element->equals(*other.element);
    case TypeKind::Struct:
    case TypeKind::Named:
      return name == other.name;
  }
  return false;
}

std::string Type::to_string() const {
  std::string quals;
  if (is_pure) quals += "pure ";
  if (is_const) quals += "const ";
  if (is_volatile) quals += "volatile ";
  switch (kind) {
    case TypeKind::Builtin:
      return quals + purec::to_string(builtin);
    case TypeKind::Pointer: {
      std::string s = pointee->to_string() + "*";
      if (is_pure) s += " pure";
      if (is_const) s += " const";
      if (is_volatile) s += " volatile";
      if (is_restrict) s += " restrict";
      return s;
    }
    case TypeKind::Array: {
      std::string size = array_size ? std::to_string(*array_size) : "";
      return element->to_string() + "[" + size + "]";
    }
    case TypeKind::Struct:
      return quals + "struct " + name;
    case TypeKind::Named:
      return quals + name;
  }
  return "<?>";
}

}  // namespace purec
