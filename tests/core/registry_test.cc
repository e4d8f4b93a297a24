#include "core/registry.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "tuners/builtin.h"

namespace atune {
namespace {

class NoopTuner : public Tuner {
 public:
  std::string name() const override { return "noop"; }
  TunerCategory category() const override { return TunerCategory::kRuleBased; }
  Status Tune(Evaluator*, Rng*) override { return Status::OK(); }
};

TEST(RegistryTest, AddCreateNames) {
  TunerRegistry registry;
  EXPECT_EQ(registry.size(), 0u);
  registry.Add("noop", [] { return std::make_unique<NoopTuner>(); });
  EXPECT_TRUE(registry.Contains("noop"));
  auto tuner = registry.Create("noop");
  ASSERT_TRUE(tuner.ok());
  EXPECT_EQ((*tuner)->name(), "noop");
  EXPECT_EQ(registry.Create("missing").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Names(), std::vector<std::string>{"noop"});
}

TEST(RegistryTest, BuiltinTunersAllRegisteredAndInstantiable) {
  TunerRegistry registry;
  RegisterBuiltinTuners(&registry);
  // All six taxonomy categories must be represented.
  EXPECT_GE(registry.size(), 20u);
  std::set<TunerCategory> categories;
  for (const std::string& name : registry.Names()) {
    auto tuner = registry.Create(name);
    ASSERT_TRUE(tuner.ok()) << name;
    categories.insert((*tuner)->category());
  }
  EXPECT_EQ(categories.size(), 6u);
}

}  // namespace
}  // namespace atune
