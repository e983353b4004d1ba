// ChainReport coverage: the structured JSON decision trail behind
// --report=json and the text renderer layered on it.
//
//   1. Golden: the serialized report for three representative fixtures
//      (matmul — substitution + tiling; guarded_reduce — region SCoP with
//      a reduction inside an affine guard; satellite_memo — memoization
//      verdicts incl. a rejection) is byte-pinned under
//      tests/e2e/golden/. Regenerate with PUREC_UPDATE_GOLDEN=1.
//   2. Schema: for EVERY accepted e2e fixture the report must carry the
//      full decision trail — options echo, a purity verdict per function,
//      a scop entry per candidate loop with either an outcome or a
//      located failure reason, memoization and inliner sections.
//   3. Renderer: render_report_text over the same structure reproduces
//      the classic --report lines.
#include "transform/chain_report.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "e2e/e2e_fixtures.h"
#include "e2e/golden_store.h"
#include "transform/pure_chain.h"

namespace purec {
namespace {

using e2e::Fixture;

ChainOptions fixture_options(const Fixture& fixture) {
  ChainOptions options;
  options.infer_purity = fixture.infer;
  options.memoize = fixture.memoize;
  options.fp_reductions = fixture.fp_reductions;
  if (fixture.schedule != nullptr) {
    options.schedule = *ScheduleSpec::parse(fixture.schedule);
  }
  return options;
}

std::string fixture_source(const Fixture& fixture) {
  if (!fixture.chain_source_is_path) return fixture.chain_source;
  return golden::read_file(std::string(PUREC_REPO_DIR) + "/" +
                           fixture.chain_source);
}

const Fixture* find_fixture(const std::vector<Fixture>& all,
                            const std::string& name) {
  for (const Fixture& f : all) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

// -- Golden-pinned serialized reports ---------------------------------------

class ReportGoldenTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ReportGoldenTest, SerializedReportMatchesGolden) {
  const std::vector<Fixture> all = e2e::all_fixtures();
  const Fixture* fixture = find_fixture(all, GetParam());
  ASSERT_NE(fixture, nullptr) << GetParam() << " missing from e2e corpus";

  const ChainOptions options = fixture_options(*fixture);
  const ChainArtifacts artifacts =
      run_pure_chain(fixture_source(*fixture), options);
  ASSERT_TRUE(artifacts.ok) << artifacts.diagnostics.format();

  const std::string serialized =
      build_chain_report(artifacts, options).dump(2) + "\n";
  const std::string path =
      golden::repo_store().path(std::string(fixture->name) + "__report.json");
  if (golden::update_golden()) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << serialized;
    return;
  }
  const std::string pinned = golden::read_file(path);
  ASSERT_FALSE(pinned.empty())
      << "missing golden " << path
      << " — regenerate with PUREC_UPDATE_GOLDEN=1 ctest -R chain_report";
  EXPECT_EQ(serialized, pinned)
      << "report drifted from " << path
      << " — if intentional, regenerate with PUREC_UPDATE_GOLDEN=1";
}

INSTANTIATE_TEST_SUITE_P(PinnedFixtures, ReportGoldenTest,
                         ::testing::Values("matmul", "guarded_reduce",
                                           "satellite_memo"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

// -- Schema completeness over the whole corpus ------------------------------

void expect_location(const json::Value& node, const std::string& where) {
  const json::Value* loc = node.find("location");
  ASSERT_NE(loc, nullptr) << where;
  ASSERT_NE(loc->find("line"), nullptr) << where;
  ASSERT_NE(loc->find("column"), nullptr) << where;
  EXPECT_GT(loc->find("line")->as_int(), 0) << where;
}

TEST(ChainReportSchema, EveryAcceptedFixtureCarriesTheFullDecisionTrail) {
  for (const Fixture& fixture : e2e::all_fixtures()) {
    if (!fixture.expect_ok) continue;
    SCOPED_TRACE(fixture.name);
    const ChainOptions options = fixture_options(fixture);
    const ChainArtifacts artifacts =
        run_pure_chain(fixture_source(fixture), options);
    ASSERT_TRUE(artifacts.ok) << artifacts.diagnostics.format();

    const json::Value report = build_chain_report(artifacts, options);
    ASSERT_EQ(report.kind(), json::Value::Kind::Object);
    EXPECT_EQ(report.find("tool")->as_string(), "purecc");
    EXPECT_EQ(report.find("report_version")->as_int(), 6);
    EXPECT_TRUE(report.find("ok")->as_bool());

    // Options echo: every chain knob must be stated.
    const json::Value* opts = report.find("options");
    ASSERT_NE(opts, nullptr);
    for (const char* key :
         {"mode", "parallelize", "tile", "tile_size", "schedule",
          "inline_pure", "infer_purity", "memoize", "memoize_all",
          "fp_reductions", "gcc_attributes", "instrument"}) {
      EXPECT_NE(opts->find(key), nullptr) << key;
    }

    // One purity verdict per analyzed function, each located and either
    // accepted or carrying a rejection reason.
    const json::Value* purity = report.find("purity");
    ASSERT_NE(purity, nullptr);
    ASSERT_NE(purity->as_array(), nullptr);
    EXPECT_FALSE(purity->as_array()->empty());
    for (const json::Value& entry : *purity->as_array()) {
      const std::string fn = entry.find("function")->as_string();
      EXPECT_FALSE(fn.empty());
      expect_location(entry, "purity " + fn);
      ASSERT_NE(entry.find("status"), nullptr) << fn;
      ASSERT_NE(entry.find("reason"), nullptr) << fn;
      if (entry.find("status")->as_string() == "rejected") {
        EXPECT_FALSE(entry.find("reason")->as_string().empty()) << fn;
      }
    }

    // One scop entry per candidate nest: a transformed outcome, or a
    // located failure reason — never silence.
    const json::Value* scops = report.find("scops");
    ASSERT_NE(scops, nullptr);
    // May be empty: loop-free fixtures (listing2_valid) have no candidate
    // nests, and that absence is itself the honest report.
    ASSERT_NE(scops->as_array(), nullptr);
    for (const json::Value& scop : *scops->as_array()) {
      const std::string where =
          scop.find("function")->as_string() + ":" +
          std::to_string(scop.find("location")->find("line")->as_int());
      expect_location(scop, where);
      ASSERT_NE(scop.find("transformed"), nullptr) << where;
      ASSERT_NE(scop.find("failure"), nullptr) << where;
      // Scheduling decisions are always stated, even when trivially
      // zero/false — consumers should not have to probe for keys.
      ASSERT_NE(scop.find("fissioned"), nullptr) << where;
      ASSERT_NE(scop.find("fission_groups"), nullptr) << where;
      ASSERT_NE(scop.find("fission_parallel_groups"), nullptr) << where;
      ASSERT_NE(scop.find("fused_loops"), nullptr) << where;
      // v3: the region id join key is always stated (null when the scop
      // was not instrumented).
      ASSERT_NE(scop.find("region_id"), nullptr) << where;
      const json::Value* privatized = scop.find("privatized");
      ASSERT_NE(privatized, nullptr) << where;
      ASSERT_NE(privatized->as_array(), nullptr) << where;
      // Delinearized bases and the collapse depth are always stated too.
      const json::Value* delinearized = scop.find("delinearized");
      ASSERT_NE(delinearized, nullptr) << where;
      ASSERT_NE(delinearized->as_array(), nullptr) << where;
      ASSERT_NE(scop.find("collapse"), nullptr) << where;
      // v6: the simd verdict is always stated; a withheld reason only
      // on a nest that carries none. Every parallelized nest either
      // vectorizes or says why not; only the default mode withholds the
      // hint from a loop that qualifies (a callee or a stride).
      ASSERT_NE(scop.find("simd"), nullptr) << where;
      const json::Value* withheld = scop.find("simd_withheld");
      ASSERT_NE(withheld, nullptr) << where;
      if (scop.find("parallelized")->as_bool()) {
        EXPECT_TRUE(scop.find("simd")->as_bool() || !withheld->is_null())
            << where;
      }
      if (!withheld->is_null()) {
        EXPECT_FALSE(scop.find("simd")->as_bool()) << where;
        const std::string why = withheld->as_string();
        const bool qualifies = why.rfind("callee '", 0) == 0 ||
                               why.rfind("loop '", 0) == 0;
        EXPECT_TRUE(qualifies || why.rfind("innermost loop", 0) == 0 ||
                    why.rfind("--instrument ", 0) == 0)
            << where << ": " << why;
        if (qualifies) {
          EXPECT_EQ(options.mode, TransformMode::Pluto) << where;
        }
      }
      // A withheld tiling reason comes only with an untiled nest.
      const json::Value* untiled = scop.find("tile_withheld");
      ASSERT_NE(untiled, nullptr) << where;
      if (!untiled->is_null()) {
        EXPECT_FALSE(scop.find("tiled")->as_bool()) << where;
        EXPECT_FALSE(untiled->as_string().empty()) << where;
      }
      if (scop.find("fissioned")->as_bool()) {
        EXPECT_GE(scop.find("fission_groups")->as_int(), 2) << where;
      }
      // Guards folded into loop bounds: always stated, and only on a
      // transformed region nest.
      const json::Value* folded = scop.find("guards_folded");
      ASSERT_NE(folded, nullptr) << where;
      EXPECT_GE(folded->as_int(), 0) << where;
      if (folded->as_int() > 0) {
        EXPECT_TRUE(scop.find("transformed")->as_bool()) << where;
        EXPECT_TRUE(scop.find("region")->as_bool()) << where;
      }
      if (!scop.find("transformed")->as_bool()) {
        const json::Value* failure = scop.find("failure");
        ASSERT_FALSE(failure->is_null())
            << where << " untransformed without a failure record";
        EXPECT_FALSE(failure->find("reason")->as_string().empty()) << where;
        expect_location(*failure, where + " failure");
      } else {
        EXPECT_TRUE(scop.find("failure")->is_null()) << where;
      }
    }

    // Fusion decisions: always an array; every entry names the two
    // loops it weighed and a rejected one says why.
    const json::Value* fusions = report.find("fusion_decisions");
    ASSERT_NE(fusions, nullptr);
    ASSERT_NE(fusions->as_array(), nullptr);
    for (const json::Value& decision : *fusions->as_array()) {
      const std::string fn = decision.find("function")->as_string();
      EXPECT_FALSE(fn.empty());
      for (const char* side : {"first", "second"}) {
        const json::Value* loc = decision.find(side);
        ASSERT_NE(loc, nullptr) << fn;
        EXPECT_GT(loc->find("line")->as_int(), 0) << fn;
      }
      ASSERT_NE(decision.find("fused"), nullptr) << fn;
      const json::Value* reason = decision.find("reason");
      ASSERT_NE(reason, nullptr) << fn;
      if (decision.find("fused")->as_bool()) {
        EXPECT_TRUE(reason->is_null()) << fn;
      } else {
        EXPECT_FALSE(reason->as_string().empty()) << fn;
      }
    }

    // Memoization and inliner sections always present; memo verdicts are
    // located and rejected ones carry a reason.
    const json::Value* memo = report.find("memoization");
    ASSERT_NE(memo, nullptr);
    EXPECT_EQ(memo->find("enabled")->as_bool(), options.memoize);
    for (const json::Value& fn : *memo->find("functions")->as_array()) {
      const std::string name = fn.find("function")->as_string();
      expect_location(fn, "memo " + name);
      if (!fn.find("memoizable")->as_bool()) {
        EXPECT_FALSE(fn.find("reason")->as_string().empty()) << name;
      }
    }
    ASSERT_NE(report.find("inliner"), nullptr);
    ASSERT_NE(report.find("canonicalized_whiles"), nullptr);
    const json::Value* instrument = report.find("instrument");
    ASSERT_NE(instrument, nullptr);
    EXPECT_FALSE(instrument->find("enabled")->as_bool());
  }
}

TEST(ChainReportSchema, InstrumentedRunListsItsRegions) {
  const std::vector<Fixture> all = e2e::all_fixtures();
  const Fixture* fixture = find_fixture(all, "matmul");
  ASSERT_NE(fixture, nullptr);
  ChainOptions options = fixture_options(*fixture);
  options.instrument = true;
  const ChainArtifacts artifacts =
      run_pure_chain(fixture_source(*fixture), options);
  ASSERT_TRUE(artifacts.ok) << artifacts.diagnostics.format();
  const json::Value report = build_chain_report(artifacts, options);
  const json::Value* instrument = report.find("instrument");
  ASSERT_NE(instrument, nullptr);
  EXPECT_TRUE(instrument->find("enabled")->as_bool());
  const auto* regions = instrument->find("regions")->as_array();
  ASSERT_NE(regions, nullptr);
  EXPECT_FALSE(regions->empty());
  for (const json::Value& region : *regions) {
    // Region labels are "function:line" — the same names the emitted
    // counters and trace events carry.
    EXPECT_NE(region.as_string().find(':'), std::string::npos)
        << region.as_string();
  }
}

TEST(ChainReportSchema, CheckerRejectionIsThePurityVerdict) {
  // Listing 2's `func2` is annotated pure but breaks two rules: its
  // verdict must agree with the errors, not with the annotation.
  const std::vector<Fixture> all = e2e::all_fixtures();
  const Fixture* fixture = find_fixture(all, "asset_listing2_rules");
  ASSERT_NE(fixture, nullptr);
  const ChainOptions options = fixture_options(*fixture);
  const ChainArtifacts artifacts =
      run_pure_chain(fixture_source(*fixture), options);
  ASSERT_FALSE(artifacts.ok);
  const json::Value report = build_chain_report(artifacts, options);
  const auto* errors = report.find("errors")->as_array();
  ASSERT_NE(errors, nullptr);
  ASSERT_EQ(errors->size(), 2u);
  const auto* purity = report.find("purity")->as_array();
  ASSERT_NE(purity, nullptr);
  ASSERT_EQ(purity->size(), 1u);
  const json::Value& func2 = purity->front();
  EXPECT_EQ(func2.find("function")->as_string(), "func2");
  EXPECT_EQ(func2.find("status")->as_string(), "rejected");
  EXPECT_FALSE(func2.find("pure")->as_bool());
  EXPECT_TRUE(func2.find("annotated")->as_bool());
  EXPECT_EQ(func2.find("reason")->as_string(),
            errors->front().find("message")->as_string());
}

/// The report entry for the nest in `function`, or nullptr.
const json::Value* scop_entry(const json::Value& report,
                              const std::string& function) {
  for (const json::Value& scop : *report.find("scops")->as_array()) {
    if (scop.find("function")->as_string() == function) return &scop;
  }
  return nullptr;
}

TEST(ChainReportSchema, DelinearizationAndCollapseAreStated) {
  const std::vector<Fixture> all = e2e::all_fixtures();
  const auto report_of = [&all](const char* name) {
    const Fixture* fixture = find_fixture(all, name);
    EXPECT_NE(fixture, nullptr) << name;
    const ChainOptions options = fixture_options(*fixture);
    const ChainArtifacts artifacts =
        run_pure_chain(fixture_source(*fixture), options);
    EXPECT_TRUE(artifacts.ok) << artifacts.diagnostics.format();
    return build_chain_report(artifacts, options);
  };

  // Split, tiled, and collapsed: the band-major fill.
  const json::Value fill = report_of("flat_fill");
  const json::Value* split = scop_entry(fill, "fill");
  ASSERT_NE(split, nullptr);
  EXPECT_TRUE(split->find("parallelized")->as_bool());
  ASSERT_EQ(split->find("delinearized")->as_array()->size(), 1u);
  EXPECT_EQ(split->find("delinearized")->as_array()->at(0).as_string(), "A");
  EXPECT_EQ(split->find("collapse")->as_int(), 2);
  const std::string text = render_report_text(fill);
  EXPECT_NE(text.find("delinearized=A collapse=2"), std::string::npos)
      << text;

  // Overlapping rows: flat, serial, and the reason names the bound.
  const json::Value overlap = report_of("flat_overlap");
  const json::Value* flat = scop_entry(overlap, "stamp");
  ASSERT_NE(flat, nullptr);
  EXPECT_FALSE(flat->find("transformed")->as_bool());
  EXPECT_TRUE(flat->find("delinearized")->as_array()->empty());
  EXPECT_EQ(flat->find("collapse")->as_int(), 0);
  const json::Value* failure = flat->find("failure");
  EXPECT_EQ(failure->find("reason")->as_string(),
            "non-affine subscript on array A: cannot prove 0 <= j < n");
  EXPECT_GT(failure->find("location")->find("line")->as_int(),
            flat->find("location")->find("line")->as_int());
}

// -- Text renderer over the same structure ----------------------------------

TEST(ChainReportText, RendersClassicReportLinesFromTheJson) {
  const char* source =
      "float* v;\n"
      "float twice(float x) {\n"
      "  return x + x;\n"
      "}\n"
      "void fill(int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    v[i] = twice((float)i);\n"
      "  }\n"
      "}\n";
  ChainOptions options;
  options.infer_purity = true;
  const ChainArtifacts artifacts = run_pure_chain(source, options);
  ASSERT_TRUE(artifacts.ok) << artifacts.diagnostics.format();
  const std::string text =
      render_report_text(build_chain_report(artifacts, options));
  EXPECT_NE(text.find("inferred pure: twice"), std::string::npos) << text;
  EXPECT_NE(text.find("inferred=1"), std::string::npos) << text;
  EXPECT_NE(text.find("transformed=1 parallel=1"), std::string::npos)
      << text;
}

}  // namespace
}  // namespace purec
