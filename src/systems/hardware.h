#ifndef ATUNE_SYSTEMS_HARDWARE_H_
#define ATUNE_SYSTEMS_HARDWARE_H_

#include <cstddef>
#include <vector>

#include "common/random.h"

namespace atune {

/// Hardware description of one cluster node. All simulators consume this
/// model, which captures the resources configuration parameters trade off:
/// CPU, memory capacity, disk and network bandwidth.
struct NodeSpec {
  double cores = 8.0;
  double ram_mb = 16384.0;
  double disk_mbps = 200.0;       ///< sequential bandwidth
  double disk_iops = 500.0;       ///< random 4K reads per second
  double network_mbps = 1000.0;   ///< full-duplex per-node bandwidth (MB/s /8)
  /// Relative CPU speed (1.0 = baseline); heterogeneous clusters vary this.
  double cpu_speed = 1.0;
};

/// A cluster of nodes. Homogeneous unless built with MakeHeterogeneous.
class ClusterSpec {
 public:
  ClusterSpec() = default;
  explicit ClusterSpec(std::vector<NodeSpec> nodes) : nodes_(std::move(nodes)) {}

  /// n identical nodes.
  static ClusterSpec MakeUniform(size_t n, const NodeSpec& node);

  /// n nodes whose cpu_speed / disk / network vary by +-`spread` fraction
  /// (log-uniform), modeling the heterogeneity challenge from the paper's
  /// Section 2.5.
  static ClusterSpec MakeHeterogeneous(size_t n, const NodeSpec& base,
                                       double spread, Rng* rng);

  size_t num_nodes() const { return nodes_.size(); }
  const std::vector<NodeSpec>& nodes() const { return nodes_; }

  double TotalCores() const;
  double TotalRamMb() const;
  /// Aggregate sequential disk bandwidth.
  double TotalDiskMbps() const;
  double TotalNetworkMbps() const;
  /// Speed of the slowest node relative to the mean (straggler factor
  /// driver; 1.0 for homogeneous clusters).
  double SlowestNodeFactor() const;
  /// Mean node values.
  NodeSpec MeanNode() const;

 private:
  std::vector<NodeSpec> nodes_;
};

}  // namespace atune

#endif  // ATUNE_SYSTEMS_HARDWARE_H_
