#include "systems/system_factory.h"

#include <gtest/gtest.h>

#include <limits>

namespace atune {
namespace {

TEST(SystemFactoryTest, WorkloadByNameRefusesScalesThatAreNotFinitePositive) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const char* system : {"dbms", "mapreduce", "spark"}) {
    for (double scale : {std::numeric_limits<double>::quiet_NaN(), inf, -inf,
                         0.0, -0.0, -1.0}) {
      auto workload = WorkloadByName(system, "", scale);
      ASSERT_FALSE(workload.ok()) << system << " scale " << scale;
      EXPECT_EQ(workload.status().code(), StatusCode::kInvalidArgument)
          << system << " scale " << scale;
    }
    for (double scale : {1.0, 0.25, 1e-3, 40.0}) {
      EXPECT_TRUE(WorkloadByName(system, "", scale).ok())
          << system << " scale " << scale;
    }
  }
  EXPECT_EQ(WorkloadByName("dbms", "no-such-workload", 1.0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SystemFactoryTest, MakeSystemByNameRefusesNodesAboveTheCap) {
  for (const char* system : {"dbms", "mapreduce", "spark"}) {
    for (size_t nodes : {kMaxNodes + 1, std::numeric_limits<size_t>::max()}) {
      auto made = MakeSystemByName(system, nodes, /*seed=*/1);
      ASSERT_FALSE(made.ok()) << system << " nodes " << nodes;
      EXPECT_EQ(made.status().code(), StatusCode::kInvalidArgument)
          << system << " nodes " << nodes;
    }
    for (size_t nodes : {size_t{0}, size_t{8}, kMaxNodes}) {
      EXPECT_TRUE(MakeSystemByName(system, nodes, /*seed=*/1).ok())
          << system << " nodes " << nodes;
    }
  }
}

}  // namespace
}  // namespace atune
