#include "replay.h"

#include <type_traits>
#include <utility>

#include "emit/c_printer.h"
#include "lexer/lexer.h"
#include "memo/memoizable.h"
#include "parser/parser.h"
#include "polyhedral/codegen.h"
#include "polyhedral/dependence.h"
#include "polyhedral/model.h"
#include "polyhedral/schedule.h"
#include "preproc/include_stripper.h"
#include "preproc/mini_cpp.h"
#include "purity/inference.h"
#include "purity/purity_checker.h"
#include "sema/symbols.h"
#include "support/rational.h"
#include "support/source_buffer.h"
#include "transform/call_substitution.h"
#include "transform/loop_canon.h"

namespace purec::e2e {

namespace {

/// Runs `f` inside a span named `name` and returns what it returns.
template <class F>
decltype(auto) timed(SpanRecorder& spans, const char* name,
                     const std::string& program, F&& f,
                     bool in_chain = true) {
  const int span = spans.open(name, program, in_chain);
  try {
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      f();
      spans.close(span);
    } else {
      auto result = f();
      spans.close(span);
      return result;
    }
  } catch (...) {
    spans.close(span);
    throw;
  }
}

}  // namespace

int SpanRecorder::open(std::string name, const std::string& program,
                       bool in_chain) {
  Span span;
  span.name = std::move(name);
  span.program = program;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.in_chain = in_chain;
  span.start_us = std::chrono::duration<double, std::micro>(Clock::now() -
                                                            origin_)
                      .count();
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void SpanRecorder::close(int index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.dur_us = std::chrono::duration<double, std::micro>(Clock::now() -
                                                          origin_)
                    .count() -
                span.start_us;
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

json::Value SpanRecorder::chrome_trace() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_us[static_cast<std::size_t>(span.parent)] += span.dur_us;
    }
  }
  json::Value events = json::Value::array();
  json::Value meta = json::Value::object();
  meta.set("name", "process_name");
  meta.set("ph", "M");
  meta.set("pid", 1);
  json::Value meta_args = json::Value::object();
  meta_args.set("name", "e2e_bench compile replay");
  meta.set("args", std::move(meta_args));
  events.push(std::move(meta));
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    json::Value event = json::Value::object();
    event.set("name", span.name);
    event.set("cat", "replay");
    event.set("ph", "X");
    event.set("pid", 1);
    event.set("tid", 1);
    event.set("ts", span.start_us);
    event.set("dur", span.dur_us);
    json::Value args = json::Value::object();
    args.set("program", span.program);
    args.set("parent", span.parent);
    args.set("self_us", span.dur_us - child_us[i]);
    args.set("in_chain", span.in_chain);
    event.set("args", std::move(args));
    events.push(std::move(event));
  }
  return events;
}

std::optional<ChainOptions> chain_options_for(
    const std::vector<std::string>& flags, std::string* error) {
  ChainOptions options;
  for (const std::string& flag : flags) {
    if (flag == "--infer-pure") {
      options.infer_purity = true;
    } else if (flag == "--fp-reductions") {
      options.fp_reductions = true;
    } else if (flag == "--memoize") {
      options.memoize = true;
    } else if (flag == "--memoize=verify") {
      options.memoize = true;
      options.memoize_verify = true;
    } else {
      if (error != nullptr) *error = "replay does not model flag " + flag;
      return std::nullopt;
    }
  }
  return options;
}

ReplayResult replay_program(const std::string& program,
                            const std::string& source,
                            const ChainOptions& options,
                            SpanRecorder& spans) {
  ReplayResult result;

  // The real chain: its wall time and the counts it reports.
  const int chain_span = spans.open("transform.chain", program);
  const ChainArtifacts artifacts = run_pure_chain(source, options);
  spans.close(chain_span);
  result.chain_ms =
      spans.spans()[static_cast<std::size_t>(chain_span)].dur_us / 1000.0;
  if (!artifacts.ok) {
    result.error = "chain rejected the program: " +
                   artifacts.diagnostics.format();
    return result;
  }
  result.counts.inferred_pure = artifacts.inference.inferred_pure.size();
  result.counts.scop_candidates = artifacts.scops.size();
  for (const ScopReport& scop : artifacts.scops) {
    if (scop.extracted) ++result.counts.extracted;
    if (scop.fissioned) ++result.counts.fissioned;
    result.counts.dependences += scop.dependences;
    result.counts.parallel_loops += scop.parallel_loops;
  }
  result.counts.thunks = artifacts.memoization.memoizable.size();
  result.counts.emitted_bytes = artifacts.final_source.size();

  // The same compile, one public layer call at a time.
  const int root = spans.open("replay", program);
  DiagnosticEngine diags;
  const StrippedSource stripped = timed(spans, "preproc.strip", program, [&] {
    return strip_system_includes(source);
  });
  const std::string preprocessed =
      timed(spans, "preproc.cpp", program, [&] {
        MiniPreprocessor cpp(diags);
        for (const auto& [name, content] : options.virtual_includes) {
          cpp.add_include_file(name, content);
        }
        for (const auto& [name, value] : options.defines) {
          cpp.define(name, value);
        }
        return cpp.preprocess(stripped.text);
      });
  // Tokens and AST nodes view into the buffer; it outlives both.
  const SourceBuffer buffer =
      SourceBuffer::from_string(preprocessed, "<replay>");
  std::vector<Token> tokens = timed(spans, "lexer", program, [&] {
    return Lexer(buffer, diags).lex_all();
  });
  result.counts.tokens = tokens.size();
  TranslationUnit tu = timed(spans, "parser", program, [&] {
    return Parser(std::move(tokens), diags).parse_translation_unit();
  });
  result.counts.functions = tu.functions().size();
  if (diags.has_errors()) {
    spans.close(root);
    result.error = "replay parse failed: " + diags.format();
    return result;
  }
  timed(spans, "transform.canon", program,
        [&] { (void)canonicalize_while_loops(tu); });
  const SymbolTable symbols = timed(spans, "sema.symbols", program, [&] {
    return SymbolTable::build(tu, diags);
  });
  const InferenceResult inference =
      timed(spans, "purity.infer", program,
            [&] { return infer_purity(tu, symbols, options.purity); });
  PurityOptions purity_options = options.purity;
  if (options.infer_purity) {
    purity_options.assume_pure = inference.inferred_pure;
    purity_options.assumed_global_reads = inference.inferred_global_reads();
  }
  const PurityResult purity = timed(spans, "purity.check", program, [&] {
    return PurityChecker(tu, symbols, diags, purity_options).check();
  });
  timed(
      spans, "memo.classify", program,
      [&] {
        (void)classify_memoizable(tu, symbols, purity.pure_functions,
                                  purity_options, !options.memoize_all);
      },
      options.memoize);

  std::size_t placeholder_counter = 0;
  std::vector<std::vector<SubstitutedCall>> substituted;
  timed(spans, "transform.subst", program, [&] {
    for (const ScopCandidate& candidate : purity.scop_loops) {
      substituted.push_back(substitute_pure_calls(
          *const_cast<ForStmt*>(candidate.loop), purity.pure_functions,
          placeholder_counter));
    }
  });

  poly::CodegenOptions cg;
  cg.parallelize = options.parallelize;
  cg.tile = options.tile;
  cg.tile_size = options.tile_size;
  cg.simd = options.mode == TransformMode::PlutoSica;
  cg.schedule = options.schedule;
  for (const ScopCandidate& candidate : purity.scop_loops) {
    try {
      std::optional<poly::Scop> scop =
          timed(spans, "polyhedral.extract", program,
                [&] { return poly::extract_scop(*candidate.loop).scop; });
      if (!scop) continue;
      const std::vector<poly::Dependence> deps =
          timed(spans, "polyhedral.dependence", program,
                [&] { return poly::analyze_dependences(*scop); });
      if (scop->region_shaped) {
        timed(spans, "polyhedral.codegen", program, [&] {
          (void)poly::schedule_region(*scop, deps, cg, {});
        });
      } else {
        const poly::Transform transform =
            timed(spans, "polyhedral.schedule", program,
                  [&] { return poly::compute_schedule(*scop, deps); });
        timed(spans, "polyhedral.codegen", program, [&] {
          (void)poly::generate_code(*scop, transform, cg);
        });
      }
    } catch (const ArithmeticOverflow&) {
      // The chain leaves such nests untouched; so does the replay.
    }
  }
  timed(spans, "emit.print", program, [&] {
    return print_c(tu, PrintOptions{PureHandling::Lower, 2});
  });
  spans.close(root);

  double in_chain_ms = 0.0;
  const std::vector<Span>& all = spans.spans();
  for (std::size_t i = static_cast<std::size_t>(root) + 1; i < all.size();
       ++i) {
    if (all[i].parent != root) continue;
    const double ms = all[i].dur_us / 1000.0;
    result.layer_ms[all[i].name] += ms;
    if (all[i].in_chain) in_chain_ms += ms;
  }
  result.glue_ms = result.chain_ms - in_chain_ms;
  result.ok = true;
  return result;
}

}  // namespace purec::e2e
