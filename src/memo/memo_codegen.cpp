#include "memo/memo_codegen.h"

#include <cstdio>
#include <sstream>
#include <string_view>

namespace purec {

namespace {

[[nodiscard]] std::string scalar_type_name(const TypePtr& type) {
  return to_string(type->builtin);
}

enum class WordRepr { Float32, Float64, Integer };

[[nodiscard]] WordRepr word_repr(const TypePtr& type) {
  if (type->builtin == BuiltinKind::Float) return WordRepr::Float32;
  if (type->builtin == BuiltinKind::Double) return WordRepr::Float64;
  return WordRepr::Integer;
}

/// One `PUREC_MEMO_KEY_*` statement folding `expr` into the key and
/// appending its raw word to the thunk's key-word array (verify mode
/// compares those words on a hit).
[[nodiscard]] std::string key_line(const TypePtr& type,
                                   const std::string& expr) {
  switch (word_repr(type)) {
    case WordRepr::Float32:
      return "    PUREC_MEMO_KEY_F32(purec_key, purec_kw, purec_kn, " + expr +
             ");\n";
    case WordRepr::Float64:
      return "    PUREC_MEMO_KEY_F64(purec_key, purec_kw, purec_kn, " + expr +
             ");\n";
    case WordRepr::Integer:
      return "    PUREC_MEMO_KEY_INT(purec_key, purec_kw, purec_kn, " + expr +
             ");\n";
  }
  return {};
}

/// Expression converting the cached 64-bit word back to the result type.
[[nodiscard]] std::string unpack_expr(const TypePtr& type,
                                      const std::string& word) {
  switch (word_repr(type)) {
    case WordRepr::Float32:
      return "PUREC_MEMO_UNPACK_F32(" + word + ")";
    case WordRepr::Float64:
      return "PUREC_MEMO_UNPACK_F64(" + word + ")";
    case WordRepr::Integer:
      return '(' + scalar_type_name(type) + ")(" + word + ")";
  }
  return {};
}

/// Expression packing a result value into the cache's 64-bit word.
[[nodiscard]] std::string pack_expr(const TypePtr& type,
                                    const std::string& value) {
  switch (word_repr(type)) {
    case WordRepr::Float32:
      return "PUREC_MEMO_PACK_F32(" + value + ")";
    case WordRepr::Float64:
      return "PUREC_MEMO_PACK_F64(" + value + ")";
    case WordRepr::Integer:
      return "(purec_memo_word)(" + value + ")";
  }
  return {};
}

[[nodiscard]] std::string signature(const MemoFunctionInfo& info) {
  std::ostringstream out;
  out << "static " << scalar_type_name(info.return_type) << " "
      << memo_thunk_name(info.name) << "(";
  if (info.param_types.empty()) {
    out << "void";
  } else {
    for (std::size_t i = 0; i < info.param_types.size(); ++i) {
      if (i != 0) out << ", ";
      out << scalar_type_name(info.param_types[i]) << " purec_a" << i;
    }
  }
  out << ")";
  return std::move(out).str();
}

}  // namespace

const std::string& memo_runtime_prelude(bool stats) {
  static const std::string header =
#include "purec_memo.inc"
      ;
  static const std::string with_stats =
      "#define PUREC_MEMO_STATS 1\n" + header;
  // Without stats the counters' block is cut out of the text, so gcc
  // does not even read it.
  static const std::string without_stats = [] {
    constexpr std::string_view kEnd = "#endif /* PUREC_MEMO_STATS */\n";
    const std::size_t begin = header.find("#if PUREC_MEMO_STATS\n");
    const std::size_t end = header.find(kEnd, begin) + kEnd.size();
    return header.substr(0, begin).append(header, end);
  }();
  return stats ? with_stats : without_stats;
}

std::string memo_thunk_name(const std::string& function) {
  return "purec_memo_" + function;
}

std::uint64_t memo_function_id(const std::string& function) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : function) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::size_t memo_key_words(const MemoFunctionInfo& info) {
  return info.param_types.size() + info.global_snapshot.size();
}

std::string memo_thunk_prototype(const MemoFunctionInfo& info) {
  return signature(info) + ";\n";
}

std::string memo_thunk_definition(const MemoFunctionInfo& info,
                                  bool stats) {
  std::ostringstream out;
  char id[32];
  std::snprintf(id, sizeof(id), "0x%016llxULL",
                static_cast<unsigned long long>(
                    memo_function_id(info.name)));
  const std::size_t key_words = memo_key_words(info);
  const std::string entry = "purec_memo_stats_" + info.name;
  const std::string gate = "purec_memo_gate_" + info.name;
  // With stats, the thunk counts every call into its registered entry.
  const auto count = [&](const char* indent, const char* counter) {
    if (stats) {
      out << indent << "PUREC_MEMO_STAT_INC(" << entry << ", " << counter
          << ");\n";
    }
  };
  std::string call = info.name + "(";
  for (std::size_t i = 0; i < info.param_types.size(); ++i) {
    if (i != 0) call += ", ";
    call += "purec_a" + std::to_string(i);
  }
  call += ")";
  if (stats) {
    out << "static purec_memo_stats_entry " << entry << " = {.name = \""
        << info.name << "\"};\n";
    out << "__attribute__((constructor)) static void " << entry
        << "_register(void) {\n";
    out << "  purec_memo_stats_register(&" << entry << ");\n";
    out << "}\n";
  }
  out << "static __thread purec_memo_gate " << gate << ";\n";
  out << signature(info) << " {\n";
  out << "  purec_memo_word purec_key = " << id << ";\n";
  out << "  purec_memo_word purec_word;\n";
  out << "  purec_memo_word purec_kw["
      << (key_words == 0 ? std::size_t{1} : key_words) << "];\n";
  out << "  unsigned purec_kn = 0;\n";
  out << "  " << scalar_type_name(info.return_type) << " purec_result;\n";
  // The callee has one call site, shared by the bypass and miss paths;
  // a zero key (never a real fingerprint) marks a bypassed call.
  out << "  if (purec_memo_gate_skip(&" << gate << ")) {\n";
  count("    ", "bypassed");
  out << "    purec_key = 0;\n";
  out << "  } else {\n";
  for (std::size_t i = 0; i < info.param_types.size(); ++i) {
    out << key_line(info.param_types[i], "purec_a" + std::to_string(i));
  }
  for (const auto& [global, type] : info.global_snapshot) {
    out << key_line(type, global);
  }
  out << "    purec_key = purec_memo_mix(purec_key);\n";
  out << "    if (purec_key == 0) purec_key = 1;\n";
  out << "    if (purec_memo_lookup(purec_key, purec_kw, purec_kn, "
         "&purec_word)) {\n";
  count("      ", "hits");
  out << "      return " << unpack_expr(info.return_type, "purec_word")
      << ";\n";
  out << "    }\n";
  out << "    " << gate << ".misses++;\n";
  count("    ", "misses");
  out << "  }\n";
  out << "  purec_result = " << call << ";\n";
  out << "  if (purec_key != 0" << (stats ? " &&\n      " : ")\n    ")
      << "purec_memo_store(purec_key, purec_kw, purec_kn, "
      << pack_expr(info.return_type, "purec_result")
      << (stats ? "))\n" : ");\n");
  count("    ", "evictions");
  out << "  return purec_result;\n";
  out << "}\n";
  return std::move(out).str();
}

}  // namespace purec
