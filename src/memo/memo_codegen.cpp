#include "memo/memo_codegen.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string_view>
#include <vector>

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

/// Key values that take a whole 64-bit word.
[[nodiscard]] bool is_64_bit(const TypePtr& type) {
  switch (type->builtin) {
    case BuiltinKind::Long:
    case BuiltinKind::ULong:
    case BuiltinKind::LongLong:
    case BuiltinKind::ULongLong:
    case BuiltinKind::Double:
      return true;
    default:
      return false;
  }
}

/// The thunk's key tuple (arguments, then the global snapshot) as 64-bit
/// word expressions: a 64-bit value takes the next word, and a value of
/// 32 bits or fewer waits for the next such value to share a word with,
/// through PUREC_MEMO_PAIR (the last one may share it with 0).
[[nodiscard]] std::vector<std::string> key_words(
    const MemoFunctionInfo& info) {
  std::vector<std::string> words;
  std::string half;  // packed into the next word's low half
  const auto add = [&](const TypePtr& type, const std::string& expr) {
    if (is_64_bit(type)) {
      words.push_back(pack_expr(type, expr));
      return;
    }
    const std::string bits =
        word_repr(type) == WordRepr::Float32 ? pack_expr(type, expr) : expr;
    if (half.empty()) {
      half = bits;
      return;
    }
    words.push_back("PUREC_MEMO_PAIR(" + half + ", " + bits + ")");
    half.clear();
  };
  for (std::size_t i = 0; i < info.param_types.size(); ++i) {
    add(info.param_types[i], "purec_a" + std::to_string(i));
  }
  for (const auto& [global, type] : info.global_snapshot) add(type, global);
  if (!half.empty()) words.push_back("PUREC_MEMO_PAIR(" + half + ", 0)");
  return words;
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
  return key_words(info).size();
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
  const std::vector<std::string> words = key_words(info);
  const std::string kn = std::to_string(words.size());
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
      << std::max<std::size_t>(words.size(), 1) << "];\n";
  out << "  " << scalar_type_name(info.return_type) << " purec_result;\n";
  // The callee has one call site, shared by the bypass and miss paths;
  // a zero key marks a call that skips the table.
  out << "  if (purec_memo_gate_skip(&" << gate << ")) {\n";
  count("    ", "bypassed");
  out << "    purec_key = 0;\n";
  out << "  } else {\n";
  // One mix per word; a thunk without key words mixes its id once.
  for (std::size_t w = 0; w < words.size(); ++w) {
    out << "    purec_kw[" << w << "] = " << words[w] << ";\n";
    out << "    purec_key = purec_memo_mix(purec_key ^ purec_kw[" << w
        << "]);\n";
  }
  if (words.empty()) out << "    purec_key = purec_memo_mix(purec_key);\n";
  // A zero fingerprint is the empty tag: that tuple is never cached.
  out << "    if (purec_key != 0 &&\n"
         "        purec_memo_lookup(purec_key, purec_kw, "
      << kn << ", &purec_word)) {\n";
  count("      ", "hits");
  out << "      return " << unpack_expr(info.return_type, "purec_word")
      << ";\n";
  out << "    }\n";
  out << "    " << gate << ".misses++;\n";
  count("    ", "misses");
  out << "  }\n";
  out << "  purec_result = " << call << ";\n";
  out << "  if (purec_key != 0" << (stats ? " &&\n      " : ")\n    ")
      << "purec_memo_store(purec_key, purec_kw, " << kn << ", "
      << pack_expr(info.return_type, "purec_result")
      << (stats ? "))\n" : ");\n");
  count("    ", "evictions");
  out << "  return purec_result;\n";
  out << "}\n";
  return std::move(out).str();
}

}  // namespace purec
