#include "core/parameter.h"

#include <gtest/gtest.h>

#include <cmath>

namespace atune {
namespace {

TEST(ParameterDefTest, IntValidateAndRange) {
  ParameterDef p = ParameterDef::Int("knob", 10, 100, 50);
  EXPECT_TRUE(p.Validate(ParamValue{int64_t{10}}).ok());
  EXPECT_TRUE(p.Validate(ParamValue{int64_t{100}}).ok());
  EXPECT_EQ(p.Validate(ParamValue{int64_t{9}}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(p.Validate(ParamValue{int64_t{101}}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(p.Validate(ParamValue{2.5}).code(),
            StatusCode::kInvalidArgument);
}

TEST(ParameterDefTest, LinearNormalizeRoundTrip) {
  ParameterDef p = ParameterDef::Int("knob", 0, 100, 50);
  EXPECT_DOUBLE_EQ(p.Normalize(ParamValue{int64_t{0}}), 0.0);
  EXPECT_DOUBLE_EQ(p.Normalize(ParamValue{int64_t{100}}), 1.0);
  EXPECT_DOUBLE_EQ(p.Normalize(ParamValue{int64_t{50}}), 0.5);
  EXPECT_EQ(std::get<int64_t>(p.Denormalize(0.5)), 50);
  EXPECT_EQ(std::get<int64_t>(p.Denormalize(-1.0)), 0);   // clamped
  EXPECT_EQ(std::get<int64_t>(p.Denormalize(2.0)), 100);  // clamped
}

TEST(ParameterDefTest, LogScaleNormalizeIsGeometric) {
  ParameterDef p = ParameterDef::Int("mb", 1, 1024, 32, "", /*log=*/true);
  // Midpoint of the log range of [1, 1024] is 32.
  EXPECT_EQ(std::get<int64_t>(p.Denormalize(0.5)), 32);
  EXPECT_NEAR(p.Normalize(ParamValue{int64_t{32}}), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(p.Normalize(ParamValue{int64_t{1}}), 0.0);
  EXPECT_DOUBLE_EQ(p.Normalize(ParamValue{int64_t{1024}}), 1.0);
}

TEST(ParameterDefTest, DoubleRoundTripAcrossGrid) {
  ParameterDef p = ParameterDef::Double("frac", 0.1, 0.9, 0.5);
  for (double u = 0.0; u <= 1.0; u += 0.125) {
    ParamValue v = p.Denormalize(u);
    EXPECT_TRUE(p.Validate(v).ok());
    EXPECT_NEAR(p.Normalize(v), u, 1e-12);
  }
}

TEST(ParameterDefTest, BoolBehavior) {
  ParameterDef p = ParameterDef::Bool("flag", true);
  EXPECT_EQ(std::get<bool>(p.default_value()), true);
  EXPECT_DOUBLE_EQ(p.Normalize(ParamValue{false}), 0.0);
  EXPECT_DOUBLE_EQ(p.Normalize(ParamValue{true}), 1.0);
  EXPECT_EQ(std::get<bool>(p.Denormalize(0.49)), false);
  EXPECT_EQ(std::get<bool>(p.Denormalize(0.51)), true);
}

TEST(ParameterDefTest, CategoricalBehavior) {
  ParameterDef p =
      ParameterDef::Categorical("codec", {"none", "lz4", "zlib"}, 1);
  EXPECT_EQ(std::get<std::string>(p.default_value()), "lz4");
  EXPECT_TRUE(p.Validate(ParamValue{std::string("zlib")}).ok());
  EXPECT_EQ(p.Validate(ParamValue{std::string("gzip")}).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(std::get<std::string>(p.Denormalize(0.0)), "none");
  EXPECT_EQ(std::get<std::string>(p.Denormalize(0.5)), "lz4");
  EXPECT_EQ(std::get<std::string>(p.Denormalize(1.0)), "zlib");
  EXPECT_DOUBLE_EQ(p.Normalize(ParamValue{std::string("zlib")}), 1.0);
}

TEST(ParameterDefTest, NanDoubleRejected) {
  ParameterDef p = ParameterDef::Double("x", 0.0, 1.0, 0.5);
  EXPECT_FALSE(p.Validate(ParamValue{std::nan("")}).ok());
}

TEST(ParamValueTest, ToString) {
  EXPECT_EQ(ParamValueToString(ParamValue{int64_t{42}}), "42");
  EXPECT_EQ(ParamValueToString(ParamValue{0.75}), "0.75");
  EXPECT_EQ(ParamValueToString(ParamValue{true}), "true");
  EXPECT_EQ(ParamValueToString(ParamValue{false}), "false");
  EXPECT_EQ(ParamValueToString(ParamValue{std::string("kryo")}), "kryo");
}

}  // namespace
}  // namespace atune
