// Tests for the deterministic fault-injection framework
// (common/failpoint.hpp): scenario grammar + canonical round-trip,
// per-site seeded triggering, guards, and the determinism contract chaos
// runs rely on. Binding an injector to a thread (RequestContext) is
// covered by tests/test_run_unit.cpp.

#include "common/failpoint.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/request_context.hpp"

namespace qcgen::failpoint {
namespace {

std::shared_ptr<const Scenario> make_scenario(const std::string& spec) {
  return std::make_shared<const Scenario>(Scenario::parse(spec));
}

TEST(ScenarioParse, SingleClauseDefaults) {
  const Scenario s = Scenario::parse("llm.generate=error");
  ASSERT_EQ(s.sites.size(), 1u);
  EXPECT_EQ(s.sites[0].site, "llm.generate");
  EXPECT_EQ(s.sites[0].action, Action::kError);
  EXPECT_EQ(s.sites[0].probability, 1.0);
  EXPECT_EQ(s.sites[0].every_n, 0u);
  EXPECT_EQ(s.sites[0].min_pass, 0);
}

TEST(ScenarioParse, FullGrammar) {
  const Scenario s = Scenario::parse(
      " llm.generate = error(0.25) ; qec.decode=error(1.0)@pass>1 ;"
      " analyzer.parse=corrupt(0.5)@every=3 ; retrieval.query=delay(2.5)@p=0.1 ");
  ASSERT_EQ(s.sites.size(), 4u);
  // Sites come back sorted by name.
  EXPECT_EQ(s.sites[0].site, "analyzer.parse");
  EXPECT_EQ(s.sites[0].action, Action::kCorrupt);
  EXPECT_EQ(s.sites[0].every_n, 3u);
  EXPECT_EQ(s.sites[1].site, "llm.generate");
  EXPECT_EQ(s.sites[1].probability, 0.25);
  EXPECT_EQ(s.sites[2].site, "qec.decode");
  EXPECT_EQ(s.sites[2].min_pass, 1);
  EXPECT_EQ(s.sites[3].site, "retrieval.query");
  EXPECT_EQ(s.sites[3].action, Action::kDelay);
  EXPECT_EQ(s.sites[3].delay_units, 2.5);
  EXPECT_EQ(s.sites[3].probability, 0.1);
}

TEST(ScenarioParse, EmptyAndWhitespaceSpecsAreEmpty) {
  EXPECT_TRUE(Scenario::parse("").empty());
  EXPECT_TRUE(Scenario::parse("   ").empty());
  EXPECT_TRUE(Scenario::parse("\t \n").empty());
}

TEST(ScenarioParse, SingleTrailingSemicolonIsTolerated) {
  const Scenario bare = Scenario::parse("llm.generate=error(0.5)");
  EXPECT_EQ(Scenario::parse("llm.generate=error(0.5);"), bare);
  EXPECT_EQ(Scenario::parse("llm.generate=error(0.5); "), bare);
  EXPECT_EQ(Scenario::parse("a=error;b=delay(1.0);"),
            Scenario::parse("a=error;b=delay(1.0)"));
  // Canonical form never emits the trailing ';', so tolerating it keeps
  // parse(canonical(parse(x))) == parse(x) without widening canonical().
  EXPECT_EQ(Scenario::parse("a=error;").canonical(), "a=error(1)");
}

TEST(ScenarioParse, RejectsEmptyClauses) {
  const std::vector<std::string> bad = {
      ";",            // separator with no clauses
      " ;; ; ",       // separator-only
      ";a=error",     // leading empty clause
      "a=error;;",    // doubled trailing separator
      "a=error;;b=error",   // interior empty clause
      "a=error; ;b=error",  // interior whitespace clause
  };
  for (const std::string& spec : bad) {
    EXPECT_THROW((void)Scenario::parse(spec), InvalidArgumentError)
        << "accepted: " << spec;
    std::string error;
    EXPECT_FALSE(Scenario::try_parse(spec, &error).has_value());
    EXPECT_NE(error.find("empty clause"), std::string::npos) << error;
  }
}

TEST(ScenarioParse, RejectsMalformedSpecs) {
  const std::vector<std::string> bad = {
      "llm.generate",                     // missing '='
      "=error",                           // empty site
      "LLM.Generate=error",               // uppercase site
      "llm generate=error",               // space in site
      "llm.generate=explode",             // unknown action
      "llm.generate=error(1.5)",          // probability > 1
      "llm.generate=error(-0.1)",         // negative probability
      "llm.generate=error(nan)",          // non-finite
      "llm.generate=error(0.5",           // unclosed paren
      "llm.generate=error(abc)",          // non-numeric
      "llm.generate=delay(-1)",           // negative delay
      "llm.generate=error@every=0",       // every must be >= 1
      "llm.generate=error@every=-2",      // negative every
      "llm.generate=error@pass>9999999",  // pass bound too large
      "llm.generate=error@p=2",           // guard probability > 1
      "llm.generate=error@wat=1",         // unknown guard
      "a=error;a=error",                  // duplicate site
  };
  for (const std::string& spec : bad) {
    EXPECT_THROW((void)Scenario::parse(spec), InvalidArgumentError)
        << "accepted: " << spec;
    std::string error;
    EXPECT_FALSE(Scenario::try_parse(spec, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
}

TEST(ScenarioParse, CanonicalFormRoundTrips) {
  const std::vector<std::string> specs = {
      "llm.generate=error(0.02);qec.decode=error(1.0)@pass>1",
      "a=corrupt(0.5)@every=7;b=delay(2.5)@p=0.125",
      "x_y-z.0=error",
  };
  for (const std::string& spec : specs) {
    const Scenario once = Scenario::parse(spec);
    const Scenario twice = Scenario::parse(once.canonical());
    EXPECT_EQ(once, twice) << spec;
    EXPECT_EQ(once.canonical(), twice.canonical()) << spec;
  }
}

TEST(ScenarioFind, LooksUpBySite) {
  const Scenario s = Scenario::parse("a=error;b=delay(1.0)");
  ASSERT_NE(s.find("a"), nullptr);
  EXPECT_EQ(s.find("a")->action, Action::kError);
  EXPECT_EQ(s.find("missing"), nullptr);
}

TEST(Injector, DeterministicAcrossInstancesWithSameSeed) {
  const auto scenario = make_scenario("site.a=error(0.3);site.b=error(0.7)");
  Injector x(scenario, 42);
  Injector y(scenario, 42);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(x.hit("site.a", 0).has_value(), y.hit("site.a", 0).has_value());
    EXPECT_EQ(x.hit("site.b", 0).has_value(), y.hit("site.b", 0).has_value());
  }
  EXPECT_EQ(x.fired(), y.fired());
  EXPECT_GT(x.fired(), 0u);
  EXPECT_LT(x.fired(), 400u);
}

TEST(Injector, DifferentSeedsProduceDifferentPatterns) {
  const auto scenario = make_scenario("site.a=error(0.5)");
  Injector x(scenario, 1);
  Injector y(scenario, 2);
  bool any_difference = false;
  for (int i = 0; i < 64; ++i) {
    if (x.hit("site.a", 0).has_value() != y.hit("site.a", 0).has_value()) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(Injector, SiteStreamsAreIndependent) {
  // Hitting an unrelated site must not perturb another site's stream.
  const auto lone = make_scenario("site.a=error(0.5)");
  const auto both = make_scenario("site.a=error(0.5);site.b=error(0.5)");
  Injector x(lone, 9);
  Injector y(both, 9);
  for (int i = 0; i < 100; ++i) {
    (void)y.hit("site.b", 0);  // interleave traffic on the other site
    EXPECT_EQ(x.hit("site.a", 0).has_value(), y.hit("site.a", 0).has_value())
        << "hit " << i;
  }
}

TEST(Injector, EveryNFiresOnExactMultiples) {
  const auto scenario = make_scenario("site.a=error@every=3");
  Injector injector(scenario, 0);
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) {
    fired.push_back(injector.hit("site.a", 0).has_value());
  }
  const std::vector<bool> expected = {false, false, true, false, false,
                                      true,  false, false, true};
  EXPECT_EQ(fired, expected);
}

TEST(Injector, PassGuardSuppressesEarlyPasses) {
  const auto scenario = make_scenario("site.a=error(1.0)@pass>1");
  Injector injector(scenario, 0);
  EXPECT_FALSE(injector.hit("site.a", 0).has_value());
  EXPECT_FALSE(injector.hit("site.a", 1).has_value());
  EXPECT_TRUE(injector.hit("site.a", 2).has_value());
}

TEST(Injector, DelayChargesBudgetUnits) {
  const auto scenario = make_scenario("site.a=delay(2.5)");
  Injector injector(scenario, 0);
  EXPECT_EQ(injector.delay_units_charged(), 0.0);
  const auto hit = injector.hit("site.a", 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->action, Action::kDelay);
  EXPECT_EQ(hit->delay_units, 2.5);
  (void)injector.hit("site.a", 0);
  EXPECT_EQ(injector.delay_units_charged(), 5.0);
}

TEST(Injector, CorruptHitsCarrySeededStreams) {
  const auto scenario = make_scenario("site.a=corrupt(1.0)");
  Injector x(scenario, 13);
  Injector y(scenario, 13);
  const auto hx1 = x.hit("site.a", 0);
  const auto hx2 = x.hit("site.a", 0);
  const auto hy1 = y.hit("site.a", 0);
  ASSERT_TRUE(hx1.has_value() && hx2.has_value() && hy1.has_value());
  EXPECT_EQ(hx1->action, Action::kCorrupt);
  EXPECT_EQ(hx1->corrupt_seed, hy1->corrupt_seed);  // same seed, same draw
  EXPECT_NE(hx1->corrupt_seed, hx2->corrupt_seed);  // stream advances
}

TEST(Injector, UnarmedSiteNeverFires) {
  const auto scenario = make_scenario("site.a=error(1.0)");
  Injector injector(scenario, 0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(injector.hit("site.other", 0).has_value());
  }
}

TEST(FailPoints, DormantCheckAndTripAreNoOps) {
  ASSERT_EQ(current_injector(), nullptr);
  EXPECT_FALSE(check("llm.generate").has_value());
  EXPECT_NO_THROW((void)trip("llm.generate"));
}

#if QCGEN_FAILPOINTS_ENABLED

TEST(FailPoints, TripThrowsInjectedFaultWithSite) {
  const auto scenario = make_scenario("llm.generate=error(1.0)");
  Injector injector(scenario, 0);
  RequestContext context{.injector = &injector};
  const ContextScope scope(&context);
  try {
    (void)trip("llm.generate");
    FAIL() << "trip did not throw";
  } catch (const InjectedFault& fault) {
    EXPECT_EQ(fault.site(), "llm.generate");
    EXPECT_NE(std::string(fault.what()).find("llm.generate"),
              std::string::npos);
  }
}

TEST(FailPoints, TripReturnsNonErrorHits) {
  const auto scenario = make_scenario("a=delay(1.5);b=corrupt(1.0)");
  Injector injector(scenario, 0);
  RequestContext context{.injector = &injector};
  const ContextScope scope(&context);
  const auto delay = trip("a");
  ASSERT_TRUE(delay.has_value());
  EXPECT_EQ(delay->action, Action::kDelay);
  const auto corrupt = trip("b");
  ASSERT_TRUE(corrupt.has_value());
  EXPECT_EQ(corrupt->action, Action::kCorrupt);
  EXPECT_EQ(injector.delay_units_charged(), 1.5);
}

TEST(Injector, ConcurrentHitsAreSafeAndCounted) {
  // Thread-safety check (meaningful under TSan): many threads hammering
  // one injector must not race; with every=1 each hit fires exactly once
  // so the fired() count is exact.
  const auto scenario = make_scenario("site.a=error@every=1");
  Injector injector(scenario, 0);
  constexpr int kThreads = 8;
  constexpr int kHitsPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&injector] {
      for (int i = 0; i < kHitsPerThread; ++i) {
        EXPECT_TRUE(injector.hit("site.a", 0).has_value());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(injector.fired(),
            static_cast<std::uint64_t>(kThreads) * kHitsPerThread);
}

#endif  // QCGEN_FAILPOINTS_ENABLED

}  // namespace
}  // namespace qcgen::failpoint
