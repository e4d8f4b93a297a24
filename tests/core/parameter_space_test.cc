#include "core/parameter_space.h"

#include <gtest/gtest.h>

namespace atune {
namespace {

ParameterSpace MakeSpace() {
  ParameterSpace space;
  EXPECT_TRUE(space.Add(ParameterDef::Int("mem_mb", 1, 1024, 64, "", true)).ok());
  EXPECT_TRUE(space.Add(ParameterDef::Double("frac", 0.0, 1.0, 0.5)).ok());
  EXPECT_TRUE(space.Add(ParameterDef::Bool("flag", false)).ok());
  EXPECT_TRUE(
      space.Add(ParameterDef::Categorical("codec", {"a", "b", "c"}, 0)).ok());
  return space;
}

TEST(ParameterSpaceTest, AddRejectsDuplicates) {
  ParameterSpace space;
  ASSERT_TRUE(space.Add(ParameterDef::Int("x", 0, 1, 0)).ok());
  EXPECT_EQ(space.Add(ParameterDef::Int("x", 0, 5, 1)).code(),
            StatusCode::kInvalidArgument);
}

TEST(ParameterSpaceTest, FindAndIndexOf) {
  ParameterSpace space = MakeSpace();
  EXPECT_EQ(space.dims(), 4u);
  auto def = space.Find("frac");
  ASSERT_TRUE(def.ok());
  EXPECT_EQ((*def)->name(), "frac");
  EXPECT_EQ(space.Find("missing").status().code(), StatusCode::kNotFound);
}

TEST(ParameterSpaceTest, DefaultConfigurationValidates) {
  ParameterSpace space = MakeSpace();
  Configuration defaults = space.DefaultConfiguration();
  EXPECT_TRUE(space.ValidateConfiguration(defaults).ok());
  EXPECT_EQ(*defaults.GetInt("mem_mb"), 64);
  EXPECT_EQ(*defaults.GetString("codec"), "a");
}

TEST(ParameterSpaceTest, ValidateCatchesProblems) {
  ParameterSpace space = MakeSpace();
  Configuration c = space.DefaultConfiguration();
  c.SetInt("mem_mb", 5000);  // out of range
  EXPECT_EQ(space.ValidateConfiguration(c).code(), StatusCode::kOutOfRange);
  c = space.DefaultConfiguration();
  c.SetInt("unknown", 1);
  EXPECT_EQ(space.ValidateConfiguration(c).code(),
            StatusCode::kInvalidArgument);
  Configuration partial;
  partial.SetInt("mem_mb", 64);
  EXPECT_EQ(space.ValidateConfiguration(partial).code(),
            StatusCode::kNotFound);
}

TEST(ParameterSpaceTest, UnitVectorRoundTrip) {
  ParameterSpace space = MakeSpace();
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    Configuration c = space.RandomConfiguration(&rng);
    ASSERT_TRUE(space.ValidateConfiguration(c).ok());
    Vec u = space.ToUnitVector(c);
    ASSERT_EQ(u.size(), 4u);
    Configuration back = space.FromUnitVector(u);
    EXPECT_TRUE(c == back) << c.ToString() << " vs " << back.ToString();
  }
}

TEST(ParameterSpaceTest, MissingParamsEncodeAsDefault) {
  ParameterSpace space = MakeSpace();
  Configuration empty;
  Vec u = space.ToUnitVector(empty);
  Configuration back = space.FromUnitVector(u);
  EXPECT_TRUE(back == space.DefaultConfiguration());
}

TEST(ParameterSpaceTest, NeighborStaysValidAndClose) {
  ParameterSpace space = MakeSpace();
  Rng rng(23);
  Configuration base = space.DefaultConfiguration();
  Vec base_u = space.ToUnitVector(base);
  for (int i = 0; i < 30; ++i) {
    Configuration n = space.Neighbor(base, 0.05, &rng);
    ASSERT_TRUE(space.ValidateConfiguration(n).ok());
    Vec u = space.ToUnitVector(n);
    for (size_t d = 0; d < u.size(); ++d) {
      EXPECT_GE(u[d], 0.0);
      EXPECT_LE(u[d], 1.0);
    }
  }
  // Large sigma should actually move points.
  Configuration far = space.Neighbor(base, 0.5, &rng);
  EXPECT_FALSE(Configuration::Diff(base, far).empty());
}

TEST(ParameterSpaceTest, RandomConfigurationCoversSpace) {
  ParameterSpace space = MakeSpace();
  Rng rng(29);
  bool flag_true = false, flag_false = false;
  std::set<std::string> codecs;
  for (int i = 0; i < 200; ++i) {
    Configuration c = space.RandomConfiguration(&rng);
    flag_true |= *c.GetBool("flag");
    flag_false |= !*c.GetBool("flag");
    codecs.insert(*c.GetString("codec"));
  }
  EXPECT_TRUE(flag_true);
  EXPECT_TRUE(flag_false);
  EXPECT_EQ(codecs.size(), 3u);
}

}  // namespace
}  // namespace atune
