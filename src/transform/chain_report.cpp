#include "transform/chain_report.h"

#include <cstdio>

namespace purec {

namespace {

[[nodiscard]] const char* mode_name(TransformMode mode) {
  return mode == TransformMode::PlutoSica ? "sica" : "pluto";
}

[[nodiscard]] json::Value location_value(std::uint32_t line,
                                         std::uint32_t column) {
  json::Value loc = json::Value::object();
  loc.set("line", static_cast<std::int64_t>(line));
  loc.set("column", static_cast<std::int64_t>(column));
  return loc;
}

[[nodiscard]] json::Value schedule_value(const ScheduleSpec& spec) {
  if (spec.empty()) return json::Value(nullptr);
  json::Value v = json::Value::object();
  v.set("kind", to_string(spec.kind));
  v.set("chunk", spec.chunk);
  return v;
}

[[nodiscard]] json::Value string_array(const std::vector<std::string>& xs) {
  json::Value arr = json::Value::array();
  for (const std::string& x : xs) arr.push(x);
  return arr;
}

/// The purity verdict label: a function the fixpoint or the verifier
/// refused is "rejected"; otherwise annotation wins; an unannotated
/// function the fixpoint proves pure is "inferred" when --infer-pure
/// applied it and "inferable" when the default chain left it opaque (the
/// paper's rule).
[[nodiscard]] const char* purity_status(const FunctionPurity& fn,
                                        bool inference_applied) {
  if (!fn.pure) return "rejected";
  if (fn.annotated) return "declared";
  return inference_applied ? "inferred" : "inferable";
}

}  // namespace

json::Value build_chain_report(const ChainArtifacts& artifacts,
                               const ChainOptions& options) {
  json::Value report = json::Value::object();
  report.set("tool", "purecc");
  // v3: scops[] entries carry region_id, the stable join key the runtime
  // stamps on trace events (purecc trace joins the two by it).
  // v4: memoization.functions[] entries carry cost_nodes, and options
  // echoes memoize_verify. scops[] entries since gained `delinearized`
  // and `collapse` (additive, still v4).
  // v5: the profile-scored memo gate is gone, so memoization.functions[]
  // entries lose `profile` and options loses the gate's flag. A rejected
  // run's report since gained `errors` (additive, still v5).
  // v6: scops[] entries carry `simd` and `simd_withheld`, and since
  // `tile_withheld` and `guards_folded` (additive, still v6).
  report.set("report_version", 6);
  report.set("ok", artifacts.ok);
  if (!artifacts.ok) {
    // A rejected input: the diagnostics that stopped the chain, in the
    // order `DiagnosticEngine::format` prints them.
    json::Value errors = json::Value::array();
    for (const Diagnostic& d : artifacts.diagnostics.diagnostics()) {
      json::Value entry = json::Value::object();
      entry.set("line", static_cast<std::int64_t>(d.location.line));
      entry.set("column", static_cast<std::int64_t>(d.location.column));
      entry.set("severity", std::string(to_string(d.severity)));
      entry.set("pass", d.pass);
      entry.set("message", d.message);
      errors.push(std::move(entry));
    }
    report.set("errors", std::move(errors));
  }

  json::Value opts = json::Value::object();
  opts.set("mode", mode_name(options.mode));
  opts.set("parallelize", options.parallelize);
  opts.set("tile", options.tile);
  opts.set("tile_size", options.tile_size);
  opts.set("schedule", schedule_value(options.schedule));
  opts.set("inline_pure", options.inline_pure_expressions);
  opts.set("infer_purity", options.infer_purity);
  opts.set("memoize", options.memoize);
  opts.set("memoize_all", options.memoize_all);
  opts.set("memoize_verify", options.memoize_verify);
  opts.set("fp_reductions", options.fp_reductions);
  opts.set("gcc_attributes", options.emit_gcc_attributes);
  opts.set("instrument", options.instrument);
  report.set("options", std::move(opts));

  json::Value purity = json::Value::array();
  for (const auto& [name, fn] : artifacts.purity_trail.functions) {
    json::Value entry = json::Value::object();
    entry.set("function", name);
    entry.set("location", location_value(fn.loc.line, fn.loc.column));
    entry.set("status", purity_status(fn, options.infer_purity));
    entry.set("pure", fn.pure);
    entry.set("annotated", fn.annotated);
    entry.set("inferred", fn.inferred);
    entry.set("reason",
              fn.reason.empty() ? json::Value(nullptr)
                                : json::Value(fn.reason));
    json::Value reads = json::Value::array();
    for (const std::string& g : fn.global_reads) reads.push(g);
    entry.set("global_reads", std::move(reads));
    purity.push(std::move(entry));
  }
  report.set("purity", std::move(purity));

  json::Value scops = json::Value::array();
  for (const ScopReport& r : artifacts.scops) {
    json::Value entry = json::Value::object();
    entry.set("function", r.function);
    entry.set("location", location_value(r.line, r.column));
    entry.set("contains_calls", r.contains_calls);
    entry.set("substituted_calls",
              static_cast<std::int64_t>(r.substituted_calls));
    entry.set("inferred_calls",
              static_cast<std::int64_t>(r.inferred_calls));
    entry.set("extracted", r.extracted);
    entry.set("region", r.region);
    entry.set("depth", static_cast<std::int64_t>(r.depth));
    entry.set("dependences", static_cast<std::int64_t>(r.dependences));
    entry.set("transformed", r.transformed);
    entry.set("parallelized", r.parallelized);
    entry.set("parallel_loops",
              static_cast<std::int64_t>(r.parallel_loops));
    entry.set("schedule_clause",
              r.schedule_clause.empty() ? json::Value(nullptr)
                                        : json::Value(r.schedule_clause));
    entry.set("tiled", r.tiled);
    entry.set("skewed", r.skewed);
    entry.set("fissioned", r.fissioned);
    entry.set("fission_groups",
              static_cast<std::int64_t>(r.fission_groups));
    entry.set("fission_parallel_groups",
              static_cast<std::int64_t>(r.fission_parallel_groups));
    entry.set("privatized", string_array(r.privatized));
    entry.set("fused_loops", static_cast<std::int64_t>(r.fused_loops));
    entry.set("delinearized", string_array(r.delinearized));
    entry.set("collapse", static_cast<std::int64_t>(r.collapse));
    entry.set("simd", r.simd);
    entry.set("simd_withheld", r.simd_withheld.empty()
                                   ? json::Value(nullptr)
                                   : json::Value(r.simd_withheld));
    entry.set("tile_withheld", r.tile_withheld.empty()
                                   ? json::Value(nullptr)
                                   : json::Value(r.tile_withheld));
    entry.set("guards_folded", static_cast<std::int64_t>(r.guards_folded));
    entry.set("region_id", r.region_id < 0 ? json::Value(nullptr)
                                           : json::Value(r.region_id));
    entry.set("reductions", string_array(r.reductions));
    entry.set("reduction_notes", string_array(r.reduction_notes));
    if (r.failure_reason.empty()) {
      entry.set("failure", json::Value(nullptr));
    } else {
      json::Value failure = json::Value::object();
      failure.set("reason", r.failure_reason);
      failure.set("location", location_value(r.failure_loc.line,
                                             r.failure_loc.column));
      entry.set("failure", std::move(failure));
    }
    scops.push(std::move(entry));
  }
  report.set("scops", std::move(scops));

  json::Value fusion = json::Value::array();
  for (const FusionDecision& d : artifacts.fusion_decisions) {
    json::Value entry = json::Value::object();
    entry.set("function", d.function);
    entry.set("first", location_value(d.first_line, d.first_column));
    entry.set("second", location_value(d.second_line, d.second_column));
    entry.set("fused", d.fused);
    entry.set("reason", d.reason.empty() ? json::Value(nullptr)
                                         : json::Value(d.reason));
    fusion.push(std::move(entry));
  }
  report.set("fusion_decisions", std::move(fusion));

  json::Value memo = json::Value::object();
  memo.set("enabled", options.memoize);
  memo.set("memoized_call_sites",
           static_cast<std::int64_t>(artifacts.memoized_calls));
  json::Value memo_fns = json::Value::array();
  for (const auto& [name, info] : artifacts.memoization.functions) {
    json::Value entry = json::Value::object();
    entry.set("function", name);
    entry.set("location", location_value(info.loc.line, info.loc.column));
    entry.set("memoizable", info.memoizable);
    entry.set("reason",
              info.reason.empty() ? json::Value(nullptr)
                                  : json::Value(info.reason));
    entry.set("params", static_cast<std::int64_t>(info.param_types.size()));
    json::Value snapshot = json::Value::array();
    for (const auto& [global, type] : info.global_snapshot) {
      (void)type;
      snapshot.push(global);
    }
    entry.set("global_snapshot", std::move(snapshot));
    // The node count the compile-time gate reads for a single-`return`
    // body.
    entry.set("cost_nodes", static_cast<std::int64_t>(info.cost_nodes));
    memo_fns.push(std::move(entry));
  }
  memo.set("functions", std::move(memo_fns));
  report.set("memoization", std::move(memo));

  json::Value inliner = json::Value::object();
  inliner.set("enabled", options.inline_pure_expressions);
  inliner.set("inlined_calls",
              static_cast<std::int64_t>(artifacts.inlined_calls));
  report.set("inliner", std::move(inliner));

  report.set("canonicalized_whiles",
             static_cast<std::int64_t>(artifacts.canonicalized_whiles));

  json::Value instr = json::Value::object();
  instr.set("enabled", options.instrument);
  instr.set("regions", string_array(artifacts.instrumented_regions));
  report.set("instrument", std::move(instr));

  return report;
}

std::string render_report_text(const json::Value& report) {
  std::string out;
  const json::Value* opts = report.find("options");
  const bool infer_purity =
      opts != nullptr && opts->find("infer_purity") != nullptr &&
      opts->find("infer_purity")->as_bool();
  const bool memoize = opts != nullptr &&
                       opts->find("memoize") != nullptr &&
                       opts->find("memoize")->as_bool();

  if (infer_purity) {
    // InferenceResult::summary(), rebuilt from the purity array.
    std::string inferred;
    std::string rejected;
    if (const auto* purity = report.find("purity")) {
      if (const auto* entries = purity->as_array()) {
        for (const json::Value& entry : *entries) {
          const std::string& name =
              entry.find("function") != nullptr
                  ? entry.find("function")->as_string()
                  : std::string();
          const bool is_inferred = entry.find("inferred") != nullptr &&
                                   entry.find("inferred")->as_bool();
          const bool is_pure = entry.find("pure") != nullptr &&
                               entry.find("pure")->as_bool();
          if (is_inferred) {
            if (!inferred.empty()) inferred += ", ";
            inferred += name;
          } else if (!is_pure) {
            if (!rejected.empty()) rejected += ", ";
            rejected += name + " (" +
                        (entry.find("reason") != nullptr
                             ? entry.find("reason")->as_string()
                             : std::string()) +
                        ")";
          }
        }
      }
    }
    out += "purecc: inferred pure: " + (inferred.empty() ? "-" : inferred);
    if (!rejected.empty()) out += "; rejected: " + rejected;
    out += "\n";
  }

  if (memoize) {
    // MemoizableResult::summary(), rebuilt from memoization.functions.
    std::string yes;
    std::string no;
    if (const auto* memo = report.find("memoization")) {
      if (const auto* fns = memo->find("functions")) {
        if (const auto* entries = fns->as_array()) {
          for (const json::Value& entry : *entries) {
            const std::string& name =
                entry.find("function") != nullptr
                    ? entry.find("function")->as_string()
                    : std::string();
            const bool ok = entry.find("memoizable") != nullptr &&
                            entry.find("memoizable")->as_bool();
            if (ok) {
              if (!yes.empty()) yes += ", ";
              yes += name;
            } else {
              if (!no.empty()) no += ", ";
              no += name + " (" +
                    (entry.find("reason") != nullptr
                         ? entry.find("reason")->as_string()
                         : std::string()) +
                    ")";
            }
          }
        }
      }
      out += "purecc: memoizable: " + (yes.empty() ? "-" : yes);
      if (!no.empty()) out += "; rejected: " + no;
      out += "\n";
      const auto* sites = memo->find("memoized_call_sites");
      out += "purecc: memoized " +
             std::to_string(sites != nullptr ? sites->as_int() : 0) +
             " call site(s)\n";
    }
  }

  if (const auto* scops = report.find("scops")) {
    if (const auto* entries = scops->as_array()) {
      for (const json::Value& entry : *entries) {
        const auto get_int = [&entry](const char* key) -> std::int64_t {
          const json::Value* v = entry.find(key);
          return v != nullptr ? v->as_int() : 0;
        };
        const auto get_bool = [&entry](const char* key) {
          const json::Value* v = entry.find(key);
          return v != nullptr && v->as_bool();
        };
        std::string inferred;
        if (infer_purity) {
          inferred =
              " inferred=" + std::to_string(get_int("inferred_calls"));
        }
        std::string reductions;
        if (const auto* reds = entry.find("reductions")) {
          if (const auto* items = reds->as_array()) {
            for (const json::Value& red : *items) {
              reductions += reductions.empty() ? " reduction=" : ",";
              reductions += red.as_string();
            }
          }
        }
        std::string scheduling;
        if (get_bool("fissioned")) {
          scheduling += " fission=" +
                        std::to_string(get_int("fission_groups")) + "g/" +
                        std::to_string(get_int("fission_parallel_groups")) +
                        "p";
        }
        if (get_int("fused_loops") > 0) {
          scheduling += " fused=" + std::to_string(get_int("fused_loops"));
        }
        const auto get_names = [&entry](const char* key) {
          std::string names;
          const json::Value* v = entry.find(key);
          if (const auto* items = v != nullptr ? v->as_array() : nullptr) {
            for (const json::Value& name : *items) {
              names += names.empty() ? "" : ",";
              names += name.as_string();
            }
          }
          return names;
        };
        if (const std::string names = get_names("privatized");
            !names.empty()) {
          scheduling += " private=" + names;
        }
        if (const std::string names = get_names("delinearized");
            !names.empty()) {
          scheduling += " delinearized=" + names;
        }
        if (get_int("collapse") > 0) {
          scheduling += " collapse=" + std::to_string(get_int("collapse"));
        }
        if (get_bool("simd")) scheduling += " simd";
        if (get_int("guards_folded") > 0) {
          scheduling +=
              " folded=" + std::to_string(get_int("guards_folded"));
        }
        std::string reason;
        if (const auto* failure = entry.find("failure")) {
          if (!failure->is_null() && failure->find("reason") != nullptr) {
            reason = " reason=" + failure->find("reason")->as_string();
          }
        }
        const json::Value* loc = entry.find("location");
        const std::int64_t line =
            loc != nullptr && loc->find("line") != nullptr
                ? loc->find("line")->as_int()
                : 0;
        char head[160];
        std::snprintf(head, sizeof(head),
                      ":%lld depth=%lld calls=%lld%s deps=%lld "
                      "transformed=%d parallel=%d tiled=%d region=%d",
                      static_cast<long long>(line),
                      static_cast<long long>(get_int("depth")),
                      static_cast<long long>(get_int("substituted_calls")),
                      inferred.c_str(),
                      static_cast<long long>(get_int("dependences")),
                      get_bool("transformed") ? 1 : 0,
                      get_bool("parallelized") ? 1 : 0,
                      get_bool("tiled") ? 1 : 0, get_bool("region") ? 1 : 0);
        out += "purecc: " +
               (entry.find("function") != nullptr
                    ? entry.find("function")->as_string()
                    : std::string()) +
               head + scheduling + reductions + reason + "\n";
        if (const auto* notes = entry.find("reduction_notes")) {
          if (const auto* items = notes->as_array()) {
            for (const json::Value& note : *items) {
              out += "purecc:   note: " + note.as_string() + "\n";
            }
          }
        }
        if (const auto* withheld = entry.find("simd_withheld");
            withheld != nullptr && !withheld->is_null()) {
          out += "purecc:   note: simd withheld: " + withheld->as_string() +
                 "\n";
        }
        if (const auto* withheld = entry.find("tile_withheld");
            withheld != nullptr && !withheld->is_null()) {
          out += "purecc:   note: tiling withheld: " +
                 withheld->as_string() + "\n";
        }
      }
    }
  }

  if (const auto* fusion = report.find("fusion_decisions")) {
    if (const auto* entries = fusion->as_array()) {
      for (const json::Value& entry : *entries) {
        const auto line_of = [&entry](const char* key) -> std::int64_t {
          const json::Value* loc = entry.find(key);
          return loc != nullptr && loc->find("line") != nullptr
                     ? loc->find("line")->as_int()
                     : 0;
        };
        out += "purecc: fusion " +
               (entry.find("function") != nullptr
                    ? entry.find("function")->as_string()
                    : std::string()) +
               ":" + std::to_string(line_of("first")) + "+" +
               std::to_string(line_of("second"));
        const bool fused = entry.find("fused") != nullptr &&
                           entry.find("fused")->as_bool();
        if (fused) {
          out += ": fused\n";
        } else {
          out += ": rejected (" +
                 (entry.find("reason") != nullptr &&
                          !entry.find("reason")->is_null()
                      ? entry.find("reason")->as_string()
                      : std::string()) +
                 ")\n";
        }
      }
    }
  }

  if (const auto* inliner = report.find("inliner")) {
    const auto* calls = inliner->find("inlined_calls");
    if (calls != nullptr && calls->as_int() > 0) {
      out += "purecc: inlined " + std::to_string(calls->as_int()) +
             " pure call(s)\n";
    }
  }
  return out;
}

}  // namespace purec
