#ifndef ATUNE_SYSTEMS_SYSTEM_FACTORY_H_
#define ATUNE_SYSTEMS_SYSTEM_FACTORY_H_

#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/system.h"

namespace atune {

/// Name-keyed construction of the simulated systems and their workload
/// catalogs — one definition shared by atune_cli, atuned (which must rebuild
/// a session's system/workload from a name at admission AND after a restart),
/// and the bench harnesses. Names: "dbms", "mapreduce", "spark".

/// The named workloads available for `system` at `scale` (the catalog the
/// CLI's --list prints). Unknown system names return the dbms catalog —
/// callers validate the system name via MakeSystemByName first.
std::map<std::string, Workload> WorkloadsForSystem(const std::string& system,
                                                   double scale);

/// The largest cluster MakeSystemByName builds.
inline constexpr size_t kMaxNodes = 1024;

/// Builds a simulator by name. `nodes` == 0 picks the per-system default
/// (1 for dbms, 4 for mapreduce/spark). Unknown names, and `nodes` above
/// kMaxNodes, are kInvalidArgument.
Result<std::unique_ptr<TunableSystem>> MakeSystemByName(
    const std::string& system, size_t nodes, uint64_t seed);

/// Resolves one workload by name (empty name = the catalog's first entry).
/// Unknown workload names, and a scale that is not finite and positive, are
/// kInvalidArgument: the CLI, daemon admission and the daemon's session
/// jobs all resolve their workload here.
Result<Workload> WorkloadByName(const std::string& system,
                                const std::string& workload, double scale);

}  // namespace atune

#endif  // ATUNE_SYSTEMS_SYSTEM_FACTORY_H_
