#ifndef ATUNE_CORE_PARAMETER_SPACE_H_
#define ATUNE_CORE_PARAMETER_SPACE_H_

#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/configuration.h"
#include "core/parameter.h"
#include "math/matrix.h"

namespace atune {

/// An ordered collection of parameter definitions: the search space a tuner
/// optimizes over. Order is stable and defines the dimensions of the unit
/// hypercube encoding used by samplers and surrogate models.
class ParameterSpace {
 public:
  ParameterSpace() = default;

  /// Adds a parameter; names must be unique.
  Status Add(ParameterDef def);

  size_t dims() const { return params_.size(); }
  const std::vector<ParameterDef>& params() const { return params_; }
  const ParameterDef& param(size_t i) const { return params_[i]; }

  /// Definition by name, or error.
  Result<const ParameterDef*> Find(const std::string& name) const;

  /// A configuration that sets every parameter, exactly covering the space.
  Status ValidateConfiguration(const Configuration& config) const;

  /// Configuration with every parameter at its documented default.
  Configuration DefaultConfiguration() const;

  /// Uniform random configuration (each dimension independent).
  Configuration RandomConfiguration(Rng* rng) const;

  /// Encodes a configuration as a point in [0,1]^dims (space order).
  /// Parameters missing from the config encode as their default.
  Vec ToUnitVector(const Configuration& config) const;

  /// Decodes a unit point into a full configuration (values clamped/rounded
  /// to the domain).
  Configuration FromUnitVector(const Vec& u) const;

  /// Gaussian perturbation of `config` in unit space with the given sigma;
  /// each dimension is perturbed independently and clamped to [0,1].
  Configuration Neighbor(const Configuration& config, double sigma,
                         Rng* rng) const;

 private:
  std::vector<ParameterDef> params_;
  std::map<std::string, size_t> index_;
};

}  // namespace atune

#endif  // ATUNE_CORE_PARAMETER_SPACE_H_
